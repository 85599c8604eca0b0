// The three workloads and the pieces they share.
//
// Every workload follows the same outline, driven by main() in
// main.cc: Setup() builds fresh engine state from the seed (repeated
// so setup time is a median), Measure() runs the closed loop (in
// epochs on reloaded state where the state would otherwise drift), and
// Finish() reports what only that workload can measure. With tracing
// on, a first untraced Measure() fixes the number of rounds and a
// second, traced one on fresh state repeats exactly those rounds.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "core/engine_api.h"
#include "expect.h"
#include "harness.h"
#include "workload/generator.h"

namespace perfbench {

struct Report {
  std::vector<Metric> e2e;
  std::vector<Metric> layer;
  std::vector<std::string> notes;  // why a per-layer metric reads 0
};

class Workload {
 public:
  virtual ~Workload() = default;
  // Builds fresh state (dropping any previous state).
  virtual orpheus::Status Setup(const Options& opt) = 0;
  // Runs rounds until `deadline` (Now() seconds) or `max_rounds`,
  // whichever comes first; returns the rounds completed. `tracer` is
  // null in untraced runs.
  virtual int64_t Measure(double deadline, int64_t max_rounds, Recorder* rec,
                          Tracer* tracer) = 0;
  // Workload-specific metrics after Measure(); `traced` says which run.
  virtual void Finish(bool traced, Recorder* rec, Tracer* tracer, Report* out) = 0;
  // The dataset's spec and shape, for the env stamp.
  std::string dataset;
  // Setup split: dataset generation and the load commits.
  double generate_s = 0;
  std::vector<double> load_commit_ms;
  // rel::Database::TotalByteSize at a point of the run that does not
  // depend on its speed: after setup, or after `optimize` where the
  // workload runs it.
  int64_t storage_bytes = 0;
  // Seconds of the last Measure() spent rebuilding state between epochs,
  // outside any request; not part of the measured wall time.
  double reload_s = 0;

 protected:
  // Generates `spec` into `model` and loads it into `api` as CVD `cvd`
  // through the public verbs: `init` from a CSV of version 1, then for
  // each later version a checkout of its parents, the version's rows
  // written into the staged table, and `commit`. Checks that the engine
  // holds exactly the generator's live records, and fills `dataset`,
  // `generate_s` and `load_commit_ms`.
  orpheus::Result<orpheus::wl::Dataset> Load(const orpheus::wl::DatasetSpec& spec,
                                             const std::string& cvd, const Options& opt,
                                             orpheus::core::EngineApi* api,
                                             ContentModel* model);
};

std::unique_ptr<Workload> MakeSciEditLoop();
std::unique_ptr<Workload> MakeCurQueryOptimize();
std::unique_ptr<Workload> MakeDurableSessions();

// --- Shared helpers -----------------------------------------------------------

// A generator spec with the benchmark's record shape (k + a1..a20).
// The dataset's shape is fixed (generator seed kDatasetSeed) so that
// every run measures the same amount of data; --seed drives the
// workload's own choices.
inline constexpr uint64_t kDatasetSeed = 7;
orpheus::wl::DatasetSpec Spec(orpheus::wl::WorkloadKind kind, int versions,
                              int branches, int inserts);

// Seeded low-discrepancy choices: the k-th pick is frac(u + k / phi)
// scaled to the range, with u drawn from the seed. Over a run the picks
// cover their range evenly whatever the seed, which keeps the mix of
// small and large versions, and so the medians, steady across seeds;
// the seed still decides the order and the versions picked.
class Sweep {
 public:
  explicit Sweep(orpheus::Rng* rng) : u_(rng->NextDouble()) {}
  size_t Pick(size_t n);

 private:
  double u_;
};

// A seeded shuffled cycle over 0..n-1: the picks come in blocks of n
// that each hold every value once, in an order the seed decides. A
// round that derives several choices from one card keeps their joint
// mix fixed whatever the seed (Sweeps all step by 1/phi, so several of
// them correlate in a way that depends on their seeded offsets).
class Deck {
 public:
  Deck(size_t n, orpheus::Rng* rng);
  size_t Next();

 private:
  orpheus::Rng* rng_;
  std::vector<size_t> cards_;
  size_t next_;
};

// One in-process engine session that times each request, records its
// outcome and, when tracing, its spans.
class Session {
 public:
  Session(orpheus::core::EngineApi* api, Recorder* rec, Tracer* tracer);
  // Runs `line` as a request of category `verb`. Errors are recorded as
  // failures and returned.
  orpheus::Result<std::string> Call(const std::string& verb, const std::string& line);

 private:
  orpheus::core::EngineApi* api_;
  Recorder* rec_;
  Tracer* tracer_;
  std::shared_ptr<orpheus::core::SessionContext> ctx_;
};

// "committed version 12 to d" -> 12; -1 when the reply has no number.
int64_t ParseCommittedVid(const std::string& reply);

// Versions nobody has branched from yet.
std::vector<int64_t> Leaves(const orpheus::wl::Dataset& data);

// SQL for the benchmark's filtered aggregate over one version:
// {count, sum(a1), sum(a2)} of rows with a3 < bound.
std::string FilteredAggSql(const std::string& cvd, int64_t vid, int64_t bound);
inline constexpr int kFilterAttr = 3;
// A filter bound that keeps about `share` of rows (attributes are
// uniform in [0, 2^31)).
int64_t BoundFor(double share);

// Compares a parsed single-row answer to `expected`; on mismatch
// records a failure for `verb` and returns false.
bool CheckRow(Recorder* rec, const std::string& verb, const std::string& what,
              const std::string& reply, const std::vector<int64_t>& expected);

// Oracle for a staged table of the in-process engine, read outside the
// timed call: row count and column sums against `expected`.
void CheckStaged(orpheus::core::EngineApi* api, const std::string& table,
                 Recorder* rec, const Sums& expected);

// Times TranslateVersionedSql on `sql` (no leading `run`) with the
// engine's table resolver: a read-only probe for the traced run.
void ProbeTranslate(orpheus::core::EngineApi* api, const std::string& sql,
                    Tracer* tracer);

// Per-layer metrics every workload reports from the traced run:
// registry deltas between `before` and `after`, the tracer's layer
// self times, and process CPU use over `wall_s`.
void CommonLayerMetrics(const std::map<std::string, double>& before,
                        const std::map<std::string, double>& after,
                        const Tracer& tracer, double wall_s, double cpu_s,
                        Report* out);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
