// Tests for IntPostings, the flat CSR hash table behind relstore's
// single-INT-key hash join and Table's INT indexes, and for the join
// edges it serves: duplicate keys, NULL keys, extreme and negative
// keys, the key-range filter on and off, empty build and probe sides,
// and index lookups that miss.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "relstore/database.h"
#include "relstore/int_postings.h"

namespace orpheus::rel {
namespace {

constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
constexpr int64_t kMax = std::numeric_limits<int64_t>::max();

Column IntColumn(const std::vector<int64_t>& keys) {
  Column col(DataType::kInt64);
  for (int64_t k : keys) col.AppendInt(k);
  return col;
}

std::vector<uint32_t> RowsOf(const IntPostings& postings, int64_t key) {
  IntPostings::Rows rows = postings.Find(key);
  return std::vector<uint32_t>(rows.begin(), rows.end());
}

// Checks `postings` against a std::map oracle built from the same
// column, on every indexed key and on `probes`.
void ExpectMatchesOracle(const IntPostings& postings, const Column& col,
                         const std::vector<int64_t>& probes) {
  std::map<int64_t, std::vector<uint32_t>> oracle;
  for (size_t i = 0; i < col.size(); ++i) {
    if (!col.IsNull(i)) oracle[col.ints()[i]].push_back(static_cast<uint32_t>(i));
  }
  EXPECT_EQ(postings.num_keys(), oracle.size());
  for (const auto& [key, rows] : oracle) {
    EXPECT_EQ(RowsOf(postings, key), rows) << "key " << key;
  }
  for (int64_t key : probes) {
    auto it = oracle.find(key);
    EXPECT_EQ(RowsOf(postings, key),
              it == oracle.end() ? std::vector<uint32_t>{} : it->second)
        << "probe " << key;
  }
}

TEST(IntPostingsTest, DuplicateKeysKeepAscendingPostings) {
  const IntPostings postings(IntColumn({5, 3, 5, 5, 3, 9}));
  EXPECT_EQ(postings.num_keys(), 3u);
  EXPECT_EQ(postings.num_rows(), 6u);
  EXPECT_EQ(RowsOf(postings, 5), (std::vector<uint32_t>{0, 2, 3}));
  EXPECT_EQ(RowsOf(postings, 3), (std::vector<uint32_t>{1, 4}));
  EXPECT_EQ(RowsOf(postings, 9), (std::vector<uint32_t>{5}));
  EXPECT_TRUE(postings.Find(4).empty());

  // A hot key spread over many rows among thousands of others.
  std::vector<int64_t> keys;
  for (int i = 0; i < 10000; ++i) keys.push_back(i % 7 == 0 ? 7 : i);
  const IntPostings hot(IntColumn(keys));
  IntPostings::Rows rows = hot.Find(7);
  ASSERT_EQ(rows.size(), 1429u);  // rows 0, 7, 14, ..., 9996
  for (size_t i = 1; i < rows.size(); ++i) EXPECT_LT(rows[i - 1], rows[i]);
}

TEST(IntPostingsTest, NullKeysAreNeverIndexed) {
  Column col(DataType::kInt64);
  col.AppendInt(0);
  col.Append(Value::Null());  // stored as the placeholder 0
  col.AppendInt(4);
  col.Append(Value::Null());
  const IntPostings postings(col);
  EXPECT_EQ(postings.num_rows(), 2u);
  EXPECT_EQ(postings.num_keys(), 2u);
  EXPECT_EQ(RowsOf(postings, 0), (std::vector<uint32_t>{0}));
  EXPECT_EQ(RowsOf(postings, 4), (std::vector<uint32_t>{2}));

  Column all_null(DataType::kInt64);
  all_null.AppendNulls(5);
  const IntPostings none(all_null);
  EXPECT_EQ(none.num_rows(), 0u);
  EXPECT_TRUE(none.Find(0).empty());
}

TEST(IntPostingsTest, EmptyTablesMissEverything) {
  const IntPostings default_built;
  const IntPostings from_empty(Column(DataType::kInt64));
  for (const IntPostings* postings : {&default_built, &from_empty}) {
    EXPECT_EQ(postings->num_keys(), 0u);
    EXPECT_EQ(postings->num_rows(), 0u);
    EXPECT_FALSE(postings->has_range_filter());
    for (int64_t key : {kMin, int64_t{-1}, int64_t{0}, int64_t{1}, kMax}) {
      EXPECT_TRUE(postings->Find(key).empty());
    }
  }
}

TEST(IntPostingsTest, ExtremeKeysDoNotOverflowTheSpan) {
  // The span kMin..kMax is the whole int64 range: max - min overflows
  // in signed arithmetic, so the filter must be off and every key
  // still found.
  const Column col = IntColumn({kMax, -1, kMin, 0, kMax, kMin + 1, kMax - 1});
  const IntPostings postings(col);
  EXPECT_FALSE(postings.has_range_filter());
  ExpectMatchesOracle(postings, col,
                      {kMin + 2, kMax - 2, 1, -2, kMin / 2, kMax / 2});

  // A dense run at the top or the bottom of the range keeps the
  // filter on; probes just past the run's inner end must miss.
  for (auto [base, past_run] : {std::pair{kMax - 99, kMax - 100},
                                std::pair{kMin, kMin + 100}}) {
    std::vector<int64_t> keys;
    for (int64_t i = 0; i < 100; ++i) keys.push_back(base + i);
    const Column dense = IntColumn(keys);
    const IntPostings edge(dense);
    EXPECT_TRUE(edge.has_range_filter()) << base;
    ExpectMatchesOracle(edge, dense, {kMin, kMax, past_run, 0, -1, 1});
  }
}

TEST(IntPostingsTest, NegativeKeys) {
  std::vector<int64_t> keys;
  for (int64_t k = -500; k < 0; k += 3) keys.push_back(k);
  keys.push_back(-500);  // a duplicate
  const Column col = IntColumn(keys);
  const IntPostings postings(col);
  EXPECT_TRUE(postings.has_range_filter());
  std::vector<int64_t> probes;
  for (int64_t k = -510; k <= 10; ++k) probes.push_back(k);
  ExpectMatchesOracle(postings, col, probes);
}

// The same keys with and without one far outlier: the outlier widens
// the span past the filter's budget, so one table filters and the
// other does not, and both must answer every probe alike.
TEST(IntPostingsTest, SparseAndDenseKeysAgree) {
  Rng rng(17);
  std::vector<int64_t> keys;
  for (int i = 0; i < 5000; ++i) {
    keys.push_back(static_cast<int64_t>(rng.Uniform(20000)) - 10000);
  }
  const Column dense_col = IntColumn(keys);
  keys.push_back(int64_t{1} << 40);
  const Column sparse_col = IntColumn(keys);
  const IntPostings dense(dense_col);
  const IntPostings sparse(sparse_col);
  EXPECT_TRUE(dense.has_range_filter());
  EXPECT_FALSE(sparse.has_range_filter());

  std::vector<int64_t> probes;
  for (int64_t k = -10100; k <= 10100; ++k) probes.push_back(k);
  ExpectMatchesOracle(dense, dense_col, probes);
  ExpectMatchesOracle(sparse, sparse_col, probes);
  for (int64_t k : probes) {
    EXPECT_EQ(RowsOf(dense, k), RowsOf(sparse, k)) << k;
  }
}

// --- Joins and indexes over IntPostings ---------------------------------

class PostingsJoinTest : public ::testing::Test {
 protected:
  void TearDown() override { SetExecThreads(0); }

  // Creates `name (id INT, k INT)` with id = position and k = keys[id];
  // a kNullKey entry stores NULL.
  void MakeTable(const std::string& name, const std::vector<int64_t>& keys,
                 bool index = false) {
    ASSERT_TRUE(db_.Execute("CREATE TABLE " + name + " (id INT, k INT)").ok());
    Table* table = db_.GetTable(name).value();
    Chunk& chunk = table->mutable_chunk();
    for (size_t i = 0; i < keys.size(); ++i) {
      chunk.mutable_column(0).AppendInt(static_cast<int64_t>(i));
      if (keys[i] == kNullKey) {
        chunk.mutable_column(1).Append(Value::Null());
      } else {
        chunk.mutable_column(1).AppendInt(keys[i]);
      }
    }
    if (index) {
      ASSERT_TRUE(table->DeclareIndex("k").ok());
    }
  }

  // (left id, right id) pairs of `l.k = r.k` in output order.
  std::vector<std::pair<int64_t, int64_t>> JoinPairs(const std::string& left,
                                                     const std::string& right) {
    auto r = db_.Execute("SELECT l.id, r.id FROM " + left + " l, " + right +
                         " r WHERE l.k = r.k");
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    std::vector<std::pair<int64_t, int64_t>> pairs;
    if (!r.ok()) return pairs;
    for (size_t i = 0; i < r.value().num_rows(); ++i) {
      pairs.emplace_back(r.value().Get(i, 0).AsInt(), r.value().Get(i, 1).AsInt());
    }
    return pairs;
  }

  // Nested-loop reference, as a sorted multiset of pairs.
  static std::vector<std::pair<int64_t, int64_t>> Reference(
      const std::vector<int64_t>& left, const std::vector<int64_t>& right) {
    std::vector<std::pair<int64_t, int64_t>> pairs;
    for (size_t l = 0; l < left.size(); ++l) {
      for (size_t r = 0; r < right.size(); ++r) {
        if (left[l] != kNullKey && left[l] == right[r]) {
          pairs.emplace_back(static_cast<int64_t>(l), static_cast<int64_t>(r));
        }
      }
    }
    return pairs;
  }

  static constexpr int64_t kNullKey = kMin + 12345;
  Database db_;
};

TEST_F(PostingsJoinTest, AllMethodsMatchReferenceAtEveryThreadCount) {
  // Extreme, negative, duplicate and NULL keys on both sides; the
  // right side is indexed so index-nested-loop really probes.
  const std::vector<int64_t> left = {kMin, kMax, -7, 0, kNullKey, -7, 3,
                                     kMax, 42, kNullKey, 0, -1};
  const std::vector<int64_t> right = {kMax, -7, kNullKey, 0, kMin, 3, 3,
                                      99, -7};
  MakeTable("pl", left);
  MakeTable("pr", right, /*index=*/true);
  auto expect = Reference(left, right);
  std::sort(expect.begin(), expect.end());
  for (JoinMethod method :
       {JoinMethod::kHash, JoinMethod::kMerge, JoinMethod::kIndexNestedLoop}) {
    db_.set_join_method(method);
    std::vector<std::pair<int64_t, int64_t>> first;
    for (int threads : {1, 2, 4}) {
      SetExecThreads(threads);
      auto got = JoinPairs("pl", "pr");
      if (threads == 1) {
        first = got;
        std::sort(got.begin(), got.end());
        EXPECT_EQ(got, expect) << "method " << static_cast<int>(method);
      } else {
        EXPECT_EQ(got, first) << "method " << static_cast<int>(method)
                              << " threads " << threads;
      }
    }
  }
}

TEST_F(PostingsJoinTest, EmptyBuildAndProbeSides) {
  MakeTable("full", {1, 2, 3, kNullKey}, /*index=*/true);
  MakeTable("none", {}, /*index=*/true);
  MakeTable("none2", {});
  for (JoinMethod method :
       {JoinMethod::kHash, JoinMethod::kMerge, JoinMethod::kIndexNestedLoop}) {
    db_.set_join_method(method);
    EXPECT_TRUE(JoinPairs("full", "none").empty());
    EXPECT_TRUE(JoinPairs("none", "full").empty());
    EXPECT_TRUE(JoinPairs("none", "none2").empty());
  }
}

TEST_F(PostingsJoinTest, IndexLookupsMissCleanly) {
  MakeTable("ix", {10, -10, 10, kNullKey, kMax});
  Table* table = db_.GetTable("ix").value();
  // No index declared: lookups miss, nothing is built.
  EXPECT_TRUE(table->LookupInt("k", 10).empty());
  EXPECT_EQ(table->BuiltIndex("k"), nullptr);
  EXPECT_FALSE(table->EnsureIndex("k").ok());

  ASSERT_TRUE(table->DeclareIndex("k").ok());
  EXPECT_EQ(table->BuiltIndex("k"), nullptr);  // lazy until first use
  IntPostings::Rows hits = table->LookupInt("k", 10);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0], 0u);
  EXPECT_EQ(hits[1], 2u);
  EXPECT_EQ(table->LookupInt("k", kMax).size(), 1u);
  EXPECT_TRUE(table->LookupInt("k", 11).empty());
  EXPECT_TRUE(table->LookupInt("k", kMin).empty());
  EXPECT_TRUE(table->LookupInt("k", 0).empty());  // the NULL's placeholder
  EXPECT_TRUE(table->LookupInt("id", 0).empty());  // undeclared column
  const IntPostings* built = table->BuiltIndex("k");
  ASSERT_NE(built, nullptr);
  EXPECT_EQ(built->num_keys(), 3u);

  // DML invalidates; the next lookup rebuilds and sees the new row.
  ASSERT_TRUE(db_.Execute("INSERT INTO ix VALUES (5, 11)").ok());
  EXPECT_EQ(table->BuiltIndex("k"), nullptr);
  EXPECT_EQ(table->LookupInt("k", 11).size(), 1u);
}

}  // namespace
}  // namespace orpheus::rel
