// Shared benchmark machinery: run options, per-verb latency and failure
// accounting, the request tracer, registry deltas and the result line.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;  // working files, inside the source tree
  std::string git_sha = "unknown";
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// Seconds on a process-wide steady clock.
double Now();

// Latency samples and failure counts per verb. Thread-safe.
class Recorder {
 public:
  // A request that was answered; `ms` is its client-observed latency.
  // An answer slower than kTimeoutMs counts as timed out, a failure.
  void Ok(const std::string& verb, double ms);
  // A request that returned an error (`refused` for a server refusal)
  // or whose answer failed the oracle.
  void Fail(const std::string& verb, const std::string& why, bool refused = false);

  static constexpr double kTimeoutMs = 30000;

  std::vector<double> Samples(const std::string& verb) const;
  int64_t attempted() const;
  int64_t failed() const;
  // One line per verb: attempted / failed / refused / timed out.
  std::string Report() const;

 private:
  struct Verb {
    std::vector<double> ms;
    int64_t attempted = 0;
    int64_t failed = 0;
    int64_t refused = 0;
    int64_t timed_out = 0;
  };
  mutable std::mutex mu_;
  std::map<std::string, Verb> verbs_;
  std::vector<std::string> first_errors_;
};

// Flattened snapshot of the engine's metrics registry: counters and
// gauges by flat name, histograms as <flat>_sum and <flat>_count.
std::map<std::string, double> RegistrySnapshot();
// b - a for one series (absent reads 0).
double Delta(const std::map<std::string, double>& a,
             const std::map<std::string, double>& b, const std::string& key);

// Spans of the traced run, kept in memory and written out at the end.
// For each request the tracer records the benchmark's span around the
// public call and, beneath it, the engine's own record of that
// statement (obs::TraceLog): the stage spans and the relstore operator
// tree, laid out in execution order inside the call. Thread-safe.
class Tracer {
 public:
  // Records one request of category `verb` (checkout / commit / query
  // / ...) sent by engine session `session_id` during [t0, t1].
  void Request(const std::string& verb, uint64_t session_id, double t0,
               double t1);
  // A read-only probe of one layer's public function.
  void Probe(const std::string& name, double seconds);

  // Mean per request of the call span and of each layer's self time.
  // Layers: transport (the call span's own time: the loopback round
  // trip for server clients, the call overhead in process),
  // core.engine_api, core, relstore, storage.
  std::map<std::string, double> LayerMeansMs(const std::string& verb) const;
  // Largest |sum of self times - call span| over all requests, ms.
  double MaxSelfResidualMs() const;
  size_t Requests(const std::string& verb) const;
  size_t unmatched() const;
  std::vector<double> ProbeSamples(const std::string& name) const;
  // Seconds spent in probes, which the traced pass's wall time includes.
  double probe_seconds() const;
  // Rows the traced statements' top-level relstore operators returned.
  uint64_t statement_rows_out() const;

  // Writes every span as one JSON object per line.
  bool Write(const std::string& path) const;

 private:
  int Add(const std::string& name, double start, double end, int parent,
          uint64_t request);
  static std::string LayerOf(const std::string& span_name);

  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::vector<std::string> request_verb_;     // by request id - 1
  std::vector<int> request_root_;             // span index of each request
  std::map<uint64_t, uint64_t> last_op_id_;   // per session
  std::map<std::string, std::vector<double>> probes_;
  size_t unmatched_ = 0;
  uint64_t rows_out_ = 0;
};

// Process CPU seconds (user + system) and peak resident set, MB.
double CpuSeconds();
double PeakRssMb();
// Bytes under a directory tree.
int64_t DirBytes(const std::string& dir);
// Removes a directory tree (ignores a missing one).
void RemoveTree(const std::string& dir);

// malloc arenas the benchmark process allows (set in main.cc). With one
// per thread, which arena each epoch's server and client threads drew
// moved durable_sessions' peak RSS by a fifth between runs; with one
// arena it repeated to a tenth of a MB.
inline constexpr int kMallocArenas = 1;

// The JSON environment stamp: cores, CPU model, compiler, build type,
// git sha, exec threads, malloc arenas, dataset spec and seed.
std::string EnvJson(const Options& opt, const std::string& dataset);

// Latency summary of `samples` (ms): <base>.p50 goes to `e2e`; the tail
// (<base>.tail), its percentile and the sample count go to `layer`.
void LatencyMetrics(const std::string& base, const std::vector<double>& samples,
                    std::vector<Metric>* e2e, std::vector<Metric>* layer);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
