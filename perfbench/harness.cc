#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <thread>

#include "common/str_util.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace perfbench {

namespace fs = std::filesystem;

double Now() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - origin)
      .count();
}

// --- Recorder ---------------------------------------------------------------

void Recorder::Ok(const std::string& verb, double ms) {
  std::lock_guard<std::mutex> lock(mu_);
  Verb& v = verbs_[verb];
  ++v.attempted;
  v.ms.push_back(ms);
  if (ms > kTimeoutMs) {
    ++v.failed;
    ++v.timed_out;
  }
}

void Recorder::Fail(const std::string& verb, const std::string& why, bool refused) {
  std::lock_guard<std::mutex> lock(mu_);
  Verb& v = verbs_[verb];
  ++v.attempted;
  ++v.failed;
  if (refused) ++v.refused;
  if (first_errors_.size() < 5) first_errors_.push_back(verb + ": " + why);
}

std::vector<double> Recorder::Samples(const std::string& verb) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = verbs_.find(verb);
  return it == verbs_.end() ? std::vector<double>() : it->second.ms;
}

int64_t Recorder::attempted() const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t n = 0;
  for (const auto& [name, v] : verbs_) n += v.attempted;
  return n;
}

int64_t Recorder::failed() const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t n = 0;
  for (const auto& [name, v] : verbs_) n += v.failed;
  return n;
}

std::string Recorder::Report() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const auto& [name, v] : verbs_) {
    out += orpheus::StrFormat(
        "{\"verb\": \"%s\", \"attempted\": %lld, \"failed\": %lld, "
        "\"refused\": %lld, \"timed_out\": %lld}\n",
        name.c_str(), static_cast<long long>(v.attempted),
        static_cast<long long>(v.failed), static_cast<long long>(v.refused),
        static_cast<long long>(v.timed_out));
  }
  for (const std::string& e : first_errors_) {
    out += "{\"error\": \"" + orpheus::obs::JsonEscape(e) + "\"}\n";
  }
  return out;
}

// --- Registry ---------------------------------------------------------------

std::map<std::string, double> RegistrySnapshot() {
  std::map<std::string, double> out;
  for (const orpheus::obs::MetricPoint& p : orpheus::obs::GlobalMetrics().Snapshot()) {
    if (p.type == orpheus::obs::MetricType::kHistogram) {
      out[p.FlatName() + "_sum"] = p.sum;
      out[p.FlatName() + "_count"] = static_cast<double>(p.count);
    } else {
      out[p.FlatName()] = p.value;
    }
  }
  return out;
}

double Delta(const std::map<std::string, double>& a,
             const std::map<std::string, double>& b, const std::string& key) {
  auto ia = a.find(key);
  auto ib = b.find(key);
  return (ib == b.end() ? 0 : ib->second) - (ia == a.end() ? 0 : ia->second);
}

// --- Tracer -----------------------------------------------------------------

int Tracer::Add(const std::string& name, double start, double end, int parent,
                uint64_t request) {
  spans_.push_back({name, start, std::max(start, end), parent, request});
  return static_cast<int>(spans_.size() - 1);
}

std::string Tracer::LayerOf(const std::string& span_name) {
  if (span_name.rfind("relstore.", 0) == 0) return "relstore";
  if (span_name.rfind("storage.", 0) == 0) return "storage";
  if (span_name.rfind("core.engine_api", 0) == 0) return "core.engine_api";
  if (span_name == "core.exec") return "core";
  return "transport";
}

void Tracer::Request(const std::string& verb, uint64_t session_id, double t0,
                     double t1) {
  using orpheus::obs::TraceStage;
  std::vector<orpheus::obs::OpTrace> recent = orpheus::obs::GlobalTraceLog().Recent();
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t req = request_verb_.size() + 1;
  const int root = Add(verb, t0, t1, -1, req);
  request_verb_.push_back(verb);
  request_root_.push_back(root);

  uint64_t& last = last_op_id_[session_id];
  const orpheus::obs::OpTrace* op = nullptr;
  for (auto it = recent.rbegin(); it != recent.rend(); ++it) {
    if (it->session_id == session_id && it->id > last) {
      op = &*it;
      break;
    }
  }
  if (op == nullptr) {
    ++unmatched_;
    return;
  }
  last = op->id;

  // The engine's statement lies inside the call; how the call's own
  // overhead splits before and after it is unknown, so it is centered.
  const double engine_len = std::min(op->total_s, t1 - t0);
  const double e0 = t0 + (t1 - t0 - engine_len) / 2;
  const double e1 = e0 + engine_len;
  const int engine = Add("core.engine_api", e0, e1, root, req);
  auto stage = [&](TraceStage s) { return op->stage_s[static_cast<int>(s)]; };

  // Children are laid end to end in execution order, clipped to their
  // parent so self times stay non-negative and sum to the call span.
  double cursor = e0;
  auto place = [&](const std::string& name, double len, int parent, double limit) {
    double start = std::min(cursor, limit);
    cursor = std::min(start + len, limit);
    return Add(name, start, cursor, parent, req);
  };
  place("core.engine_api.parse", stage(TraceStage::kParse), engine, e1);
  place("core.engine_api.lock_wait", stage(TraceStage::kLockWait), engine, e1);
  const double x0 = cursor;
  const int exec = place("core.exec", stage(TraceStage::kExecute), engine, e1);
  const double x1 = spans_[static_cast<size_t>(exec)].end;
  place("storage.group_commit_sync", stage(TraceStage::kGroupCommitSync), engine, e1);

  cursor = x0;
  struct OpPlacer {
    Tracer* t;
    uint64_t req;
    double Place(const orpheus::obs::ProfileNode& n, int parent, double start,
                 double limit) {
      double end = std::min(start + n.seconds, limit);
      int id = t->Add("relstore." + n.op, start, end, parent, req);
      double c = start;
      for (const auto& child : n.children) c = Place(*child, id, c, end);
      return end;
    }
  } placer{this, req};
  if (op->profile != nullptr) {
    for (const auto& child : op->profile->children) {
      cursor = placer.Place(*child, exec, cursor, x1);
      rows_out_ += child->rows_out;
    }
  }
  place("storage.wal_enqueue", stage(TraceStage::kWalEnqueue), exec, x1);
  place("storage.checkpoint", stage(TraceStage::kCheckpoint), exec, x1);
}

void Tracer::Probe(const std::string& name, double seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  probes_[name].push_back(seconds);
}

std::map<std::string, double> Tracer::LayerMeansMs(const std::string& verb) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, double> out = {{"span", 0},     {"transport", 0},
                                       {"core.engine_api", 0}, {"core", 0},
                                       {"relstore", 0}, {"storage", 0}};
  std::vector<double> self = SelfTimes(spans_);
  size_t n = 0;
  for (size_t r = 0; r < request_verb_.size(); ++r) {
    if (request_verb_[r] != verb) continue;
    ++n;
    const Span& root = spans_[static_cast<size_t>(request_root_[r])];
    out["span"] += root.end - root.start;
  }
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (request_verb_[spans_[i].request - 1] != verb) continue;
    out[LayerOf(spans_[i].name)] += self[i];
  }
  for (auto& [layer, total] : out) total = n == 0 ? 0 : total * 1e3 / static_cast<double>(n);
  return out;
}

double Tracer::MaxSelfResidualMs() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> self = SelfTimes(spans_);
  std::vector<double> sum(request_verb_.size(), 0);
  for (size_t i = 0; i < spans_.size(); ++i) sum[spans_[i].request - 1] += self[i];
  double worst = 0;
  for (size_t r = 0; r < sum.size(); ++r) {
    const Span& root = spans_[static_cast<size_t>(request_root_[r])];
    worst = std::max(worst, std::fabs(sum[r] - (root.end - root.start)));
  }
  return worst * 1e3;
}

size_t Tracer::Requests(const std::string& verb) const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<size_t>(
      std::count(request_verb_.begin(), request_verb_.end(), verb));
}

size_t Tracer::unmatched() const {
  std::lock_guard<std::mutex> lock(mu_);
  return unmatched_;
}

std::vector<double> Tracer::ProbeSamples(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = probes_.find(name);
  return it == probes_.end() ? std::vector<double>() : it->second;
}

double Tracer::probe_seconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  double total = 0;
  for (const auto& [name, samples] : probes_) {
    for (double v : samples) total += v;
  }
  return total;
}

uint64_t Tracer::statement_rows_out() const {
  std::lock_guard<std::mutex> lock(mu_);
  return rows_out_;
}

bool Tracer::Write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  for (const Span& s : spans_) {
    out << orpheus::StrFormat(
        "{\"name\": \"%s\", \"start\": %.9f, \"end\": %.9f, \"parent\": %d, "
        "\"request\": %llu}\n",
        s.name.c_str(), s.start, s.end, s.parent,
        static_cast<unsigned long long>(s.request));
  }
  for (const auto& [name, samples] : probes_) {
    for (double v : samples) {
      out << orpheus::StrFormat("{\"probe\": \"%s\", \"seconds\": %.9f}\n",
                                name.c_str(), v);
    }
  }
  return static_cast<bool>(out);
}

// --- Process and files --------------------------------------------------------

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

int64_t DirBytes(const std::string& dir) {
  int64_t total = 0;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->is_regular_file(ec)) total += static_cast<int64_t>(it->file_size(ec));
  }
  return total;
}

void RemoveTree(const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
}

std::string EnvJson(const Options& opt, const std::string& dataset) {
  std::string cpu = "unknown";
  std::ifstream info("/proc/cpuinfo");
  for (std::string line; std::getline(info, line);) {
    if (line.rfind("model name", 0) == 0) {
      cpu = std::string(orpheus::Trim(line.substr(line.find(':') + 1)));
      break;
    }
  }
  return orpheus::StrFormat(
      "{\"env\": {\"cores\": %u, \"cpu\": \"%s\", \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"git_sha\": \"%s\", \"exec_threads\": %d, "
      "\"malloc_arenas\": %d, \"workload\": \"%s\", \"dataset\": \"%s\", \"seed\": %llu, "
      "\"seconds\": %g, \"trace\": %d}}",
      std::thread::hardware_concurrency(), orpheus::obs::JsonEscape(cpu).c_str(),
      orpheus::obs::JsonEscape("gcc " __VERSION__).c_str(), PERFBENCH_BUILD_TYPE,
      orpheus::obs::JsonEscape(opt.git_sha).c_str(), orpheus::ExecThreads(), kMallocArenas,
      opt.workload.c_str(), orpheus::obs::JsonEscape(dataset).c_str(),
      static_cast<unsigned long long>(opt.seed), opt.seconds, opt.trace ? 1 : 0);
}

void LatencyMetrics(const std::string& base, const std::vector<double>& samples,
                    std::vector<Metric>* e2e, std::vector<Metric>* layer) {
  Tail tail = TailOf(samples);
  e2e->push_back({base + ".p50", Median(samples), "ms"});
  layer->push_back({base + ".tail", tail.value, "ms"});
  layer->push_back({base + ".tail_pct", tail.percentile, "pct"});
  layer->push_back({base + ".samples", static_cast<double>(tail.samples), "count"});
}

}  // namespace perfbench
