// Checks the benchmark's own arithmetic: tail-percentile selection and
// span self time. Exits non-zero on the first failed check.
//
//   .bench_build/perfbench_selftest

#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.h"

namespace {

int g_failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++g_failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> Ramp(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void TestPercentiles() {
  Expect(Near(perfbench::Percentile(Ramp(10), 50), 5), "p50 of 1..10 is 5");
  Expect(Near(perfbench::Percentile(Ramp(10), 100), 10), "p100 is the max");
  Expect(Near(perfbench::Percentile(Ramp(100), 99), 99), "p99 of 1..100");
  Expect(perfbench::Percentile({}, 50) == 0, "empty sample reads 0");
}

void TestTail() {
  // 1000 samples: the tail is the 11th largest, at p99.
  perfbench::Tail t = perfbench::TailOf(Ramp(1000));
  Expect(Near(t.percentile, 99) && t.beyond == 10 && Near(t.value, 990),
         "1000 samples: p99 with 10 beyond");
  t = perfbench::TailOf(Ramp(200));
  Expect(Near(t.percentile, 95) && t.beyond == 10 && Near(t.value, 190),
         "200 samples: p95 with 10 beyond");
  // The percentile moves smoothly with the sample count.
  t = perfbench::TailOf(Ramp(193));
  Expect(Near(t.percentile, 100.0 * 183 / 193) && t.beyond == 10 && Near(t.value, 183),
         "193 samples: the 11th largest");
  t = perfbench::TailOf(Ramp(20));
  Expect(Near(t.percentile, 50) && t.beyond == 10 && Near(t.value, 10),
         "20 samples: the median is the first rank with 10 beyond");
  t = perfbench::TailOf(Ramp(12));
  Expect(Near(t.percentile, 50) && t.beyond == 6 && t.samples == 12 && Near(t.value, 6),
         "fewer than 20 samples report the median and its beyond count");
  Expect(perfbench::TailOf({}).samples == 0, "empty tail");
}

void TestSelfTime() {
  using perfbench::Span;
  // root [0,10) with children [1,4) and [3,6) (overlapping, union 5)
  // and a child [8,12) that overruns the parent (clipped to 2).
  std::vector<Span> spans = {
      {"root", 0, 10, -1, 1}, {"a", 1, 4, 0, 1}, {"b", 3, 6, 0, 1},
      {"c", 8, 12, 0, 1},     {"a1", 1, 2, 1, 1},
  };
  std::vector<double> self = perfbench::SelfTimes(spans);
  Expect(Near(self[0], 10 - 5 - 2), "root self excludes the union of children");
  Expect(Near(self[1], 2), "a self = 3 - 1");
  Expect(Near(self[4], 1), "leaf self = duration");
  Expect(Near(perfbench::CoveredLength({{0, 1}, {0.5, 2}, {5, 6}}, 0, 10), 3),
         "union of overlapping intervals");
  // Sequential, nested children: self times sum to the root span.
  std::vector<Span> chain = {
      {"verb", 0, 10, -1, 2}, {"engine", 1, 9, 0, 2}, {"exec", 2, 8, 1, 2},
      {"op", 3, 5, 2, 2},     {"wal", 6, 7, 2, 2},
  };
  std::vector<double> s = perfbench::SelfTimes(chain);
  double sum = 0;
  for (double x : s) sum += x;
  Expect(Near(sum, 10), "self times of a nested tree sum to the root span");
}

}  // namespace

int main() {
  TestPercentiles();
  TestTail();
  TestSelfTime();
  if (g_failures == 0) std::printf("perfbench selftest: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
