#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

// 1-based nearest rank of percentile p among n samples.
size_t NearestRank(size_t n, double p) {
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  return std::min(std::max<size_t>(rank, 1), n);
}

}  // namespace

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  size_t rank = NearestRank(samples.size(), p);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1), samples.end());
  return samples[rank - 1];
}

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 50);
}

Tail TailOf(const std::vector<double>& samples) {
  Tail tail;
  const size_t n = samples.size();
  tail.samples = n;
  if (n == 0) return tail;
  const size_t rank = n >= 2 * kTailBeyond ? n - kTailBeyond : NearestRank(n, 50);
  std::vector<double> sorted = samples;
  std::nth_element(sorted.begin(), sorted.begin() + (rank - 1), sorted.end());
  tail.value = sorted[rank - 1];
  tail.beyond = n - rank;
  tail.percentile = 100.0 * static_cast<double>(rank) / static_cast<double>(n);
  return tail;
}

double CoveredLength(std::vector<std::pair<double, double>> intervals,
                     double lo, double hi) {
  for (auto& iv : intervals) {
    iv.first = std::max(iv.first, lo);
    iv.second = std::min(iv.second, hi);
  }
  std::sort(intervals.begin(), intervals.end());
  double covered = 0;
  double reach = lo;
  for (const auto& [start, end] : intervals) {
    if (end <= start) continue;
    double from = std::max(start, reach);
    if (end > from) {
      covered += end - from;
      reach = end;
    }
  }
  return covered;
}

std::vector<double> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start, s.end);
    }
  }
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    double duration = std::max(0.0, spans[i].end - spans[i].start);
    self[i] = duration -
              CoveredLength(std::move(children[i]), spans[i].start, spans[i].end);
  }
  return self;
}

}  // namespace perfbench
