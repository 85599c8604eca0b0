// Sample statistics and span arithmetic for the benchmark.
//
// Latencies are summarized as a median plus a "tail": the highest
// percentile that still has kTailBeyond samples above it, i.e. the
// (kTailBeyond + 1)-th largest sample, so a tail value never rests on a
// handful of outliers. Span self time is a span's duration minus the
// part of it that its children's intervals cover.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline constexpr size_t kTailBeyond = 10;

// Nearest-rank percentile of `samples` (need not be sorted); p in
// (0, 100]. Returns 0 for an empty sample.
double Percentile(std::vector<double> samples, double p);

double Median(std::vector<double> samples);

struct Tail {
  double percentile = 0;  // 100 * rank / samples, e.g. 95 for n = 200
  double value = 0;
  size_t beyond = 0;      // samples ranked above the tail's rank
  size_t samples = 0;
};

// The sample of rank n - kTailBeyond (1-based, ascending), whose
// percentile is 100 * (n - kTailBeyond) / n. Below 2 * kTailBeyond
// samples that rank would fall under the median, so the median is
// reported instead, with its (smaller) beyond count.
Tail TailOf(const std::vector<double>& samples);

// One timed interval. `parent` indexes the same span vector (-1 for a
// root); `request` groups the spans of one request.
struct Span {
  std::string name;
  double start = 0;  // seconds, any common origin
  double end = 0;
  int parent = -1;
  uint64_t request = 0;
};

// Length of the union of [start, end) intervals, each clipped to
// [lo, hi).
double CoveredLength(std::vector<std::pair<double, double>> intervals,
                     double lo, double hi);

// Self time of every span: its duration minus the time its direct
// children cover. For a tree whose children lie inside their parents,
// the self times of a root's subtree sum to the root's duration.
std::vector<double> SelfTimes(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
