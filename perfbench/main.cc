// orpheus_perfbench: runs one benchmark workload against the engine and
// prints its metrics. Normally started through perfbench/run.py:
//
//   orpheus_perfbench --workload sci_edit_loop --seed 1 --seconds 10
//       --trace 0 --work-dir .bench_work/sci_edit_loop
//
// Output: an environment stamp line, per-verb failure counts, notes,
// and as the last line one JSON object {"correct", "attempted",
// "failed", "metrics"}. --trace 0 reports the end-to-end metrics,
// --trace 1 the per-layer ones from a traced run (and writes its spans
// to <work-dir>/spans.jsonl). Exits 1 when any request failed or an
// answer did not match the oracle.

#include <malloc.h>

#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <limits>

#include "common/str_util.h"
#include "common/thread_pool.h"
#include "obs/profile.h"
#include "workloads.h"

namespace {

using perfbench::Metric;
using perfbench::Now;

// setup_s is the median of at least kMinSetups setups, repeated (up to
// kMaxSetups) until they have taken kSetupSeconds: a setup of tens of
// milliseconds needs more of them to give a steady median.
constexpr size_t kMinSetups = 3;
constexpr size_t kMaxSetups = 15;
constexpr double kSetupSeconds = 1.0;
constexpr int kExecThreads = 1;

bool ParseArgs(int argc, char** argv, perfbench::Options* opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      opt->workload = value;
    } else if (flag == "--seed") {
      opt->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      opt->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || opt->seconds <= 0 || opt->seconds > 120) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      opt->trace = value == "1";
    } else if (flag == "--work-dir") {
      opt->work_dir = value;
    } else if (flag == "--git-sha") {
      opt->git_sha = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !opt->workload.empty() && !opt->work_dir.empty();
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (const Metric& m : metrics) {
    if (out.size() > 1) out += ", ";
    out += orpheus::StrFormat("\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                              m.name.c_str(), m.value, m.unit.c_str());
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  if (!ParseArgs(argc, argv, &opt)) {
    std::cerr << "usage: orpheus_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> --work-dir <dir> [--git-sha <sha>]\n";
    return 2;
  }
  std::unique_ptr<perfbench::Workload> wl;
  if (opt.workload == "sci_edit_loop") {
    wl = perfbench::MakeSciEditLoop();
  } else if (opt.workload == "cur_query_optimize") {
    wl = perfbench::MakeCurQueryOptimize();
  } else if (opt.workload == "durable_sessions") {
    wl = perfbench::MakeDurableSessions();
  } else {
    std::cerr << "unknown workload: " << opt.workload << "\n";
    return 2;
  }
  // One relstore exec thread: on a small multi-tenant VM, operators
  // fanned out over every core wait on the slowest vCPU, which made
  // medians drift by a third between back-to-back runs (and ran slower
  // than one thread). The setting is stamped into the env line.
  orpheus::SetExecThreads(kExecThreads);
  mallopt(M_ARENA_MAX, perfbench::kMallocArenas);
  std::error_code ec;
  std::filesystem::create_directories(opt.work_dir, ec);

  perfbench::Recorder rec;
  perfbench::Report rep;
  auto setup = [&](std::vector<double>* times) {
    const double t0 = Now();
    orpheus::Status st = wl->Setup(opt);
    if (!st.ok()) {
      std::cerr << "setup failed: " << st.ToString() << "\n";
      std::exit(1);
    }
    if (times != nullptr) times->push_back(Now() - t0);
  };

  // Verb latencies: medians are end-to-end metrics, tails per-layer ones
  // (a tail did not repeat within a tenth across runs on every workload).
  auto latencies = [&](std::vector<Metric>* medians) {
    for (const char* verb : {"checkout", "commit", "query"}) {
      perfbench::LatencyMetrics(std::string(verb) + "_ms", rec.Samples(verb), medians,
                                &rep.layer);
    }
  };

  std::vector<double> setup_s;
  if (!opt.trace) {
    double spent = 0;
    while (setup_s.size() < kMinSetups ||
           (setup_s.size() < kMaxSetups && spent < kSetupSeconds)) {
      setup(&setup_s);
      spent += setup_s.back();
    }
    std::cout << perfbench::EnvJson(opt, wl->dataset) << "\n";
    const double t0 = Now();
    wl->Measure(t0 + opt.seconds, std::numeric_limits<int64_t>::max(), &rec, nullptr);
    const double wall = Now() - t0 - wl->reload_s;
    // Throughput and memory of setup plus the measured phase, before
    // Finish() runs its checks (and, in durable_sessions, the last recovery).
    const double completed = static_cast<double>(rec.attempted() - rec.failed());
    const double peak_rss_mb = perfbench::PeakRssMb();
    latencies(&rep.e2e);
    wl->Finish(/*traced=*/false, &rec, nullptr, &rep);
    rep.e2e.push_back({"setup_s", perfbench::Median(setup_s), "s"});
    rep.e2e.push_back({"ops_per_s", completed / wall, "1/s"});
    rep.e2e.push_back({"storage_mb", static_cast<double>(wl->storage_bytes) / (1 << 20), "MB"});
    rep.e2e.push_back({"peak_rss_mb", peak_rss_mb, "MB"});
  } else {
    // Untraced pass: fixes the round count and the baseline wall time.
    setup(nullptr);
    std::cout << perfbench::EnvJson(opt, wl->dataset) << "\n";
    double t0 = Now();
    const int64_t rounds = wl->Measure(t0 + opt.seconds,
                                       std::numeric_limits<int64_t>::max(), &rec, nullptr);
    const double untraced_wall = Now() - t0 - wl->reload_s;
    std::vector<Metric> medians;  // reported by untraced runs
    latencies(&medians);
    // Traced pass over the same rounds on fresh state.
    setup(nullptr);
    perfbench::Tracer tracer;
    const std::map<std::string, double> before = perfbench::RegistrySnapshot();
    const double cpu0 = perfbench::CpuSeconds();
    t0 = Now();
    const int64_t traced_rounds =
        wl->Measure(t0 + 3 * opt.seconds + 30, rounds, &rec, &tracer);
    const double traced_wall = Now() - t0 - wl->reload_s;
    const double cpu = perfbench::CpuSeconds() - cpu0;
    const std::map<std::string, double> after = perfbench::RegistrySnapshot();
    wl->Finish(/*traced=*/true, &rec, &tracer, &rep);
    perfbench::CommonLayerMetrics(before, after, tracer, traced_wall, cpu, &rep);
    // Probes run only in the traced pass; their time is not tracing cost.
    rep.layer.push_back({"obs.tracing_overhead",
                         traced_rounds == rounds && untraced_wall > 0
                             ? (traced_wall - tracer.probe_seconds()) / untraced_wall
                             : 0,
                         "ratio"});
    if (traced_rounds != rounds) {
      rep.notes.push_back("obs.tracing_overhead: traced pass did not finish the "
                          "untraced pass's rounds");
    }
    rep.layer.push_back({"workload.generate_s", wl->generate_s, "s"});
    rep.layer.push_back(
        {"workload.load_commit_ms.p50", perfbench::Median(wl->load_commit_ms), "ms"});
    const std::string spans = opt.work_dir + "/spans.jsonl";
    if (!tracer.Write(spans)) rep.notes.push_back("could not write " + spans);
  }
  const double attempted = static_cast<double>(rec.attempted());
  rep.layer.push_back(
      {"error_rate", attempted > 0 ? static_cast<double>(rec.failed()) / attempted : 0,
       "ratio"});

  if (!opt.trace) std::cout << "{\"detail\": " << MetricsJson(rep.layer) << "}\n";
  std::cout << rec.Report();
  for (const std::string& note : rep.notes) {
    std::cout << "{\"note\": \"" << orpheus::obs::JsonEscape(note) << "\"}\n";
  }
  const bool correct = rec.failed() == 0 && rec.attempted() > 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << rec.attempted() << ", \"failed\": " << rec.failed()
            << ", \"metrics\": " << MetricsJson(opt.trace ? rep.layer : rep.e2e) << "}"
            << std::endl;
  return correct ? 0 : 1;
}
