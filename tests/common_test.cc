// Unit tests for the common module: Status/Result, string helpers,
// RNG determinism, flag parsing, and the thread pool.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <set>
#include <vector>

#include "common/flags.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/str_util.h"
#include "common/thread_pool.h"

namespace orpheus {
namespace {

TEST(StatusTest, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::NotFound("missing thing");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
  EXPECT_EQ(st.message(), "missing thing");
  EXPECT_EQ(st.ToString(), "NotFound: missing thing");
}

TEST(StatusTest, EachFactoryProducesItsCode) {
  EXPECT_EQ(Status::InvalidArgument("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::ConstraintViolation("x").code(),
            StatusCode::kConstraintViolation);
  EXPECT_EQ(Status::ParseError("x").code(), StatusCode::kParseError);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::NotSupported("x").code(), StatusCode::kNotSupported);
}

Result<int> ReturnsValue() { return 42; }
Result<int> ReturnsError() { return Status::InvalidArgument("nope"); }

Result<int> UsesAssignOrReturn() {
  ORPHEUS_ASSIGN_OR_RETURN(int v, ReturnsValue());
  return v + 1;
}

Result<int> PropagatesError() {
  ORPHEUS_ASSIGN_OR_RETURN(int v, ReturnsError());
  return v + 1;
}

TEST(ResultTest, ValuePath) {
  Result<int> r = ReturnsValue();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
}

TEST(ResultTest, ErrorPath) {
  Result<int> r = ReturnsError();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(ResultTest, AssignOrReturnMacro) {
  Result<int> ok = UsesAssignOrReturn();
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 43);
  Result<int> err = PropagatesError();
  EXPECT_FALSE(err.ok());
}

TEST(StrUtilTest, JoinAndSplit) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  auto parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
}

TEST(StrUtilTest, SplitWhitespace) {
  auto parts = SplitWhitespace("  checkout  -v 3\t-t foo ");
  ASSERT_EQ(parts.size(), 5u);
  EXPECT_EQ(parts[0], "checkout");
  EXPECT_EQ(parts[4], "foo");
}

TEST(StrUtilTest, CaseHelpers) {
  EXPECT_EQ(ToLower("SeLeCt"), "select");
  EXPECT_TRUE(EqualsIgnoreCase("VERSION", "version"));
  EXPECT_FALSE(EqualsIgnoreCase("vid", "vids"));
  EXPECT_TRUE(StartsWith("checkout -v", "check"));
}

TEST(StrUtilTest, TrimAndFormat) {
  EXPECT_EQ(Trim("  x \n"), "x");
  EXPECT_EQ(StrFormat("%d-%s", 7, "ok"), "7-ok");
  EXPECT_EQ(WithThousandsSep(1234567), "1,234,567");
  EXPECT_EQ(WithThousandsSep(-42), "-42");
  EXPECT_EQ(WithThousandsSep(0), "0");
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(RngTest, UniformRangeInclusive) {
  Rng rng(7);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformRange(3, 5);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 5);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 3u);
}

TEST(RngTest, BernoulliRoughlyCalibrated) {
  Rng rng(11);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(FlagsTest, ParsesForms) {
  const char* argv[] = {"prog", "--alpha=1", "--beta", "2.5", "--gamma", "pos"};
  Flags flags(6, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetInt("alpha", 0), 1);
  EXPECT_DOUBLE_EQ(flags.GetDouble("beta", 0), 2.5);
  EXPECT_TRUE(flags.GetBool("gamma", false));
  EXPECT_EQ(flags.GetString("missing", "d"), "d");
  ASSERT_EQ(flags.positional().size(), 0u);  // "pos" consumed by --gamma
}

TEST(FlagsTest, PositionalAndBoolFalse) {
  const char* argv[] = {"prog", "cmd", "--flag=false"};
  Flags flags(3, const_cast<char**>(argv));
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "cmd");
  EXPECT_FALSE(flags.GetBool("flag", true));
}

TEST(FlagsTest, FirstUnknownNamesTheStrayFlag) {
  const char* argv[] = {"prog", "--db=/tmp/x", "--dbb=/tmp/y", "-c", "ls"};
  Flags flags(5, const_cast<char**>(argv));
  EXPECT_EQ("dbb", flags.FirstUnknown({"db", "threads"}));
  EXPECT_EQ("", flags.FirstUnknown({"db", "dbb"}));
  // Positional arguments, "-c" included, are never flags.
  ASSERT_EQ(2u, flags.positional().size());
  EXPECT_EQ("", Flags(1, const_cast<char**>(argv)).FirstUnknown({}));
}

// --- ThreadPool --------------------------------------------------------

TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.num_workers(), 3);
  constexpr int kCount = 10000;
  std::vector<std::atomic<int>> hits(kCount);
  pool.ParallelFor(kCount, [&](int i) { hits[static_cast<size_t>(i)]++; });
  for (int i = 0; i < kCount; ++i) {
    EXPECT_EQ(hits[static_cast<size_t>(i)].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ZeroWorkersDegradesToSerialInOrder) {
  ThreadPool pool(0);
  std::vector<int> order;
  pool.ParallelFor(5, [&](int i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPoolTest, EmptyAndSingleCounts) {
  ThreadPool pool(2);
  int calls = 0;
  pool.ParallelFor(0, [&](int) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.ParallelFor(1, [&](int) { ++calls; });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  pool.ParallelFor(4, [&](int) {
    pool.ParallelFor(4, [&](int) { total++; });
  });
  EXPECT_EQ(total.load(), 16);
}

TEST(ThreadPoolTest, ReusableAcrossManyCalls) {
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int64_t> sum{0};
    pool.ParallelFor(100, [&](int i) { sum += i; });
    ASSERT_EQ(sum.load(), 4950);
  }
}

TEST(ExecThreadsTest, SetAndGetRoundTrip) {
  SetExecThreads(3);
  EXPECT_EQ(ExecThreads(), 3);
  SetExecThreads(1);
  EXPECT_EQ(ExecThreads(), 1);
  SetExecThreads(0);  // restore hardware default
  EXPECT_EQ(ExecThreads(), HardwareThreads());
  EXPECT_GE(HardwareThreads(), 1);
}

TEST(ExecThreadsTest, AbsurdRequestsAreClamped) {
  SetExecThreads(1000000);
  EXPECT_EQ(ExecThreads(), kMaxExecThreads);
  SetExecThreads(0);
}

TEST(ExecThreadsTest, ParallelBatchForReportsFirstErrorInBatchOrder) {
  SetExecThreads(4);
  // Batches 1 and 3 fail; batch order says batch 1's error wins.
  Status st = ParallelBatchFor(
      1000, 100, [](size_t, size_t, size_t b) -> Status {
        if (b == 1) return Status::InvalidArgument("batch one");
        if (b == 3) return Status::Internal("batch three");
        return Status::OK();
      });
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.message(), "batch one");
  // Zero items: no calls, OK.
  int calls = 0;
  EXPECT_TRUE(ParallelBatchFor(0, 100, [&](size_t, size_t, size_t) {
                ++calls;
                return Status::OK();
              }).ok());
  EXPECT_EQ(calls, 0);
  SetExecThreads(0);
}

TEST(ExecThreadsTest, ParallelStableSortMatchesStdStableSort) {
  // Heavy key duplication makes stability observable (equal keys must
  // keep their original relative order). A tiny run length forces many
  // runs and several merge rounds; the result must equal a serial
  // std::stable_sort bit-for-bit at every thread setting.
  Rng rng(20260729);
  std::vector<int64_t> keys(10000);
  for (int64_t& k : keys) k = static_cast<int64_t>(rng.Uniform(50));
  auto by_key = [&keys](uint32_t a, uint32_t b) { return keys[a] < keys[b]; };
  std::vector<uint32_t> expect(keys.size());
  std::iota(expect.begin(), expect.end(), 0);
  std::stable_sort(expect.begin(), expect.end(), by_key);
  for (int threads : {1, 2, 4, 8}) {
    SetExecThreads(threads);
    std::vector<uint32_t> order(keys.size());
    std::iota(order.begin(), order.end(), 0);
    ParallelStableSort(&order, 256, by_key);
    ASSERT_EQ(order, expect) << "threads " << threads;
  }
  SetExecThreads(0);
}

TEST(ExecThreadsTest, ParallelStableSortEdgeSizes) {
  // Empty, single-run (inline path), and run-boundary-straddling sizes.
  for (size_t n : {size_t{0}, size_t{1}, size_t{255}, size_t{256},
                   size_t{257}, size_t{513}}) {
    std::vector<uint32_t> items(n);
    for (size_t i = 0; i < n; ++i) {
      items[i] = static_cast<uint32_t>((n - i) % 7);
    }
    std::vector<uint32_t> expect = items;
    std::stable_sort(expect.begin(), expect.end());
    ParallelStableSort(&items, 256, std::less<uint32_t>());
    ASSERT_EQ(items, expect) << "n " << n;
  }
}

TEST(ExecThreadsTest, ExecParallelForCoversRangeAtAnySetting) {
  for (int threads : {1, 2, 4}) {
    SetExecThreads(threads);
    std::vector<std::atomic<int>> hits(5000);
    ExecParallelFor(5000, [&](int i) { hits[static_cast<size_t>(i)]++; });
    for (int i = 0; i < 5000; ++i) {
      ASSERT_EQ(hits[static_cast<size_t>(i)].load(), 1)
          << "threads " << threads << " index " << i;
    }
  }
  SetExecThreads(0);
}

}  // namespace
}  // namespace orpheus
