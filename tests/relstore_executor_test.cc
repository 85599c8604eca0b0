// End-to-end tests for the relstore engine: DDL, DML, scans, joins
// (all three algorithms), aggregation, unnest, the exact SQL shapes
// OrpheusDB's query translator emits (the paper's Table 1), and the
// chunk-boundary cases of the batched parallel scan pipeline.

#include <gtest/gtest.h>

#include <string>

#include "common/thread_pool.h"
#include "relstore/database.h"

namespace orpheus::rel {
namespace {

Chunk MustQuery(Database& db, const std::string& sql) {
  auto r = db.Execute(sql);
  EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
  return r.ok() ? std::move(r).value() : Chunk();
}

class ExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.Execute("CREATE TABLE t (a INT, b TEXT, c DOUBLE)").ok());
    ASSERT_TRUE(db_.Execute("INSERT INTO t VALUES (1, 'x', 1.5), (2, 'y', 2.5), "
                            "(3, 'x', 3.5)").ok());
  }

  Chunk MustQuery(const std::string& sql) {
    auto r = db_.Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    return r.ok() ? std::move(r).value() : Chunk();
  }

  Database db_;
};

TEST_F(ExecutorTest, SelectStar) {
  Chunk out = MustQuery("SELECT * FROM t");
  EXPECT_EQ(out.num_rows(), 3u);
  EXPECT_EQ(out.num_columns(), 3);
  EXPECT_EQ(out.schema().column(0).name, "a");  // unqualified output
}

TEST_F(ExecutorTest, WhereFilter) {
  Chunk out = MustQuery("SELECT a FROM t WHERE b = 'x'");
  ASSERT_EQ(out.num_rows(), 2u);
  EXPECT_EQ(out.Get(0, 0).AsInt(), 1);
  EXPECT_EQ(out.Get(1, 0).AsInt(), 3);
}

TEST_F(ExecutorTest, ComputedProjection) {
  Chunk out = MustQuery("SELECT a * 10 + 1 AS v FROM t WHERE a >= 2");
  ASSERT_EQ(out.num_rows(), 2u);
  EXPECT_EQ(out.schema().column(0).name, "v");
  EXPECT_EQ(out.Get(0, 0).AsInt(), 21);
}

TEST_F(ExecutorTest, SelectWithoutFrom) {
  Chunk out = MustQuery("SELECT 2 + 3 AS five");
  ASSERT_EQ(out.num_rows(), 1u);
  EXPECT_EQ(out.Get(0, 0).AsInt(), 5);
}

TEST_F(ExecutorTest, OrderByAndLimit) {
  Chunk out = MustQuery("SELECT a FROM t ORDER BY a DESC LIMIT 2");
  ASSERT_EQ(out.num_rows(), 2u);
  EXPECT_EQ(out.Get(0, 0).AsInt(), 3);
  EXPECT_EQ(out.Get(1, 0).AsInt(), 2);
}

TEST_F(ExecutorTest, Distinct) {
  Chunk out = MustQuery("SELECT DISTINCT b FROM t ORDER BY b");
  ASSERT_EQ(out.num_rows(), 2u);
  EXPECT_EQ(out.Get(0, 0).AsString(), "x");
}

TEST_F(ExecutorTest, AggregatesWholeTable) {
  Chunk out = MustQuery("SELECT count(*), sum(a), avg(c), min(b), max(b) FROM t");
  ASSERT_EQ(out.num_rows(), 1u);
  EXPECT_EQ(out.Get(0, 0).AsInt(), 3);
  EXPECT_EQ(out.Get(0, 1).AsInt(), 6);
  EXPECT_DOUBLE_EQ(out.Get(0, 2).AsDouble(), 2.5);
  EXPECT_EQ(out.Get(0, 3).AsString(), "x");
  EXPECT_EQ(out.Get(0, 4).AsString(), "y");
}

TEST_F(ExecutorTest, GroupByWithHaving) {
  Chunk out = MustQuery(
      "SELECT b, count(*) AS cnt FROM t GROUP BY b HAVING cnt > 1");
  ASSERT_EQ(out.num_rows(), 1u);
  EXPECT_EQ(out.Get(0, 0).AsString(), "x");
  EXPECT_EQ(out.Get(0, 1).AsInt(), 2);
}

TEST_F(ExecutorTest, AggregateOnEmptyInput) {
  Chunk out = MustQuery("SELECT count(*), sum(a) FROM t WHERE a > 100");
  ASSERT_EQ(out.num_rows(), 1u);
  EXPECT_EQ(out.Get(0, 0).AsInt(), 0);
  EXPECT_TRUE(out.Get(0, 1).is_null());
}

TEST_F(ExecutorTest, UpdateWithWhere) {
  ASSERT_TRUE(db_.Execute("UPDATE t SET c = c + 10 WHERE b = 'x'").ok());
  Chunk out = MustQuery("SELECT c FROM t ORDER BY a");
  EXPECT_DOUBLE_EQ(out.Get(0, 0).AsDouble(), 11.5);
  EXPECT_DOUBLE_EQ(out.Get(1, 0).AsDouble(), 2.5);
}

TEST_F(ExecutorTest, DeleteRows) {
  ASSERT_TRUE(db_.Execute("DELETE FROM t WHERE a = 2").ok());
  Chunk out = MustQuery("SELECT count(*) FROM t");
  EXPECT_EQ(out.Get(0, 0).AsInt(), 2);
}

TEST_F(ExecutorTest, SelectIntoCreatesTable) {
  ASSERT_TRUE(db_.Execute("SELECT a, b INTO t2 FROM t WHERE a < 3").ok());
  EXPECT_TRUE(db_.HasTable("t2"));
  Chunk out = MustQuery("SELECT count(*) FROM t2");
  EXPECT_EQ(out.Get(0, 0).AsInt(), 2);
}

TEST_F(ExecutorTest, InsertSelect) {
  ASSERT_TRUE(db_.Execute("SELECT a, b, c INTO t3 FROM t WHERE a = 1").ok());
  ASSERT_TRUE(db_.Execute("INSERT INTO t3 SELECT a, b, c FROM t WHERE a = 3").ok());
  Chunk out = MustQuery("SELECT count(*) FROM t3");
  EXPECT_EQ(out.Get(0, 0).AsInt(), 2);
}

TEST_F(ExecutorTest, DropTable) {
  ASSERT_TRUE(db_.Execute("DROP TABLE t").ok());
  EXPECT_FALSE(db_.HasTable("t"));
  EXPECT_FALSE(db_.Execute("DROP TABLE t").ok());
  EXPECT_TRUE(db_.Execute("DROP TABLE IF EXISTS t").ok());
}

TEST_F(ExecutorTest, ExecuteScriptReturnsLast) {
  auto r = db_.ExecuteScript(
      "CREATE TABLE s (x INT); INSERT INTO s VALUES (5); SELECT x FROM s;");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().Get(0, 0).AsInt(), 5);
}

// --- Array handling: the versioning columns --------------------------

class ArrayTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.Execute("CREATE TABLE comb (rid INT, val TEXT, vlist INT[])").ok());
    ASSERT_TRUE(db_.Execute("INSERT INTO comb VALUES "
                            "(1, 'a', ARRAY[1]), "
                            "(2, 'b', ARRAY[1, 2, 4]), "
                            "(3, 'c', ARRAY[1, 2, 3, 4]), "
                            "(4, 'd', ARRAY[2, 4])").ok());
  }
  Database db_;
};

TEST_F(ArrayTest, ContainmentOperator) {
  // The combined-table checkout shape from Table 1.
  auto r = db_.Execute("SELECT rid FROM comb WHERE ARRAY[2] <@ vlist");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().num_rows(), 3u);
}

TEST_F(ArrayTest, ArrayAppendViaPlus) {
  // The combined-table commit shape from Table 1.
  ASSERT_TRUE(db_.Execute("SELECT rid INTO tp FROM comb WHERE ARRAY[4] <@ vlist").ok());
  ASSERT_TRUE(db_.Execute("UPDATE comb SET vlist = vlist + 9 WHERE rid IN "
                          "(SELECT rid FROM tp)").ok());
  auto r = db_.Execute("SELECT rid FROM comb WHERE ARRAY[9] <@ vlist");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().num_rows(), 3u);  // rids 2, 3, 4
}

TEST_F(ArrayTest, UnnestExpandsRows) {
  auto r = db_.Execute("SELECT unnest(vlist) AS v, rid FROM comb WHERE rid = 2");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const Chunk& out = r.value();
  ASSERT_EQ(out.num_rows(), 3u);
  EXPECT_EQ(out.Get(0, 0).AsInt(), 1);
  EXPECT_EQ(out.Get(2, 0).AsInt(), 4);
  EXPECT_EQ(out.Get(1, 1).AsInt(), 2);  // rid replicated
}

TEST_F(ArrayTest, ArraySubqueryInsert) {
  ASSERT_TRUE(db_.Execute("CREATE TABLE vt (vid INT, rlist INT[])").ok());
  ASSERT_TRUE(db_.Execute("INSERT INTO vt VALUES "
                          "(1, ARRAY(SELECT rid FROM comb WHERE ARRAY[1] <@ vlist))").ok());
  auto r = db_.Execute("SELECT array_length(rlist) FROM vt WHERE vid = 1");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().Get(0, 0).AsInt(), 3);
}

TEST_F(ArrayTest, EmptyArrayLiteral) {
  ASSERT_TRUE(db_.Execute("INSERT INTO comb VALUES (9, 'e', ARRAY[])").ok());
  auto r = db_.Execute("SELECT array_length(vlist) FROM comb WHERE rid = 9");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().Get(0, 0).AsInt(), 0);
}

// --- Joins ------------------------------------------------------------

class JoinTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.Execute(
        "CREATE TABLE d (rid INT, payload TEXT, PRIMARY KEY (rid))").ok());
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(db_.Execute("INSERT INTO d VALUES (" + std::to_string(i) +
                              ", 'p" + std::to_string(i) + "')").ok());
    }
    ASSERT_TRUE(db_.Execute("CREATE TABLE v (vid INT, rlist INT[], "
                            "PRIMARY KEY (vid))").ok());
    ASSERT_TRUE(db_.Execute(
        "INSERT INTO v VALUES (1, ARRAY[5, 10, 15]), (2, ARRAY[0, 99])").ok());
  }

  // The split-by-rlist checkout query from Table 1.
  std::string CheckoutSql(int vid) {
    return "SELECT d.* INTO tprime FROM d, (SELECT unnest(rlist) AS rid_tmp "
           "FROM v WHERE vid = " + std::to_string(vid) +
           ") AS tmp WHERE d.rid = tmp.rid_tmp";
  }

  Database db_;
};

TEST_F(JoinTest, HashJoinCheckout) {
  db_.set_join_method(JoinMethod::kHash);
  ASSERT_TRUE(db_.Execute(CheckoutSql(1)).ok());
  auto r = db_.Execute("SELECT rid FROM tprime ORDER BY rid");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().num_rows(), 3u);
  EXPECT_EQ(r.value().Get(0, 0).AsInt(), 5);
  EXPECT_EQ(r.value().Get(2, 0).AsInt(), 15);
  // tprime must contain only d's columns (qualified star).
  EXPECT_EQ(r.value().num_columns(), 1);
  auto cols = db_.Execute("SELECT * FROM tprime LIMIT 1");
  ASSERT_TRUE(cols.ok());
  EXPECT_EQ(cols.value().num_columns(), 2);
}

TEST_F(JoinTest, MergeJoinSameResult) {
  db_.set_join_method(JoinMethod::kMerge);
  ASSERT_TRUE(db_.Execute(CheckoutSql(2)).ok()) << "merge join checkout";
  auto r = db_.Execute("SELECT rid FROM tprime ORDER BY rid");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().num_rows(), 2u);
  EXPECT_EQ(r.value().Get(0, 0).AsInt(), 0);
  EXPECT_EQ(r.value().Get(1, 0).AsInt(), 99);
}

TEST_F(JoinTest, IndexNestedLoopSameResult) {
  db_.set_join_method(JoinMethod::kIndexNestedLoop);
  ASSERT_TRUE(db_.Execute(CheckoutSql(1)).ok());
  auto r = db_.Execute("SELECT count(*) FROM tprime");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().Get(0, 0).AsInt(), 3);
  EXPECT_GT(db_.stats()->index_probes, 0);
}

TEST_F(JoinTest, JoinWithDuplicateKeysProducesAllPairs) {
  ASSERT_TRUE(db_.Execute("CREATE TABLE l (k INT)").ok());
  ASSERT_TRUE(db_.Execute("CREATE TABLE r (k2 INT)").ok());
  ASSERT_TRUE(db_.Execute("INSERT INTO l VALUES (1), (1), (2)").ok());
  ASSERT_TRUE(db_.Execute("INSERT INTO r VALUES (1), (1), (3)").ok());
  auto res = db_.Execute("SELECT count(*) FROM l, r WHERE k = k2");
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(res.value().Get(0, 0).AsInt(), 4);  // 2 x 2 matches on key 1
}

TEST_F(JoinTest, CrossJoinGuard) {
  ASSERT_TRUE(db_.Execute("CREATE TABLE big (x INT)").ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(db_.Execute("INSERT INTO big VALUES (1)").ok());
  }
  // 20 x 20 cross join is fine.
  auto small = db_.Execute("SELECT count(*) FROM big, (SELECT x AS y FROM big) AS b2");
  ASSERT_TRUE(small.ok()) << small.status().ToString();
  EXPECT_EQ(small.value().Get(0, 0).AsInt(), 400);
}

TEST_F(JoinTest, StatsAccumulateAndReset) {
  db_.ResetStats();
  ASSERT_TRUE(db_.Execute("SELECT count(*) FROM d").ok());
  EXPECT_GE(db_.stats()->rows_scanned, 100);
  db_.ResetStats();
  EXPECT_EQ(db_.stats()->rows_scanned, 0);
}

// --- Column pruning ---------------------------------------------------
//
// A derived table materializes only the columns its caller reads, and a
// projection over an identity selection of a chunk the statement owns
// moves its columns instead of copying them.

// The split-by-rlist version subquery over d and v, as the query
// translator emits it.
std::string VersionSubquery(int vid) {
  return "(SELECT d.* FROM d, (SELECT unnest(rlist) AS r FROM v WHERE vid = " +
         std::to_string(vid) + ") AS x WHERE d.rid = x.r)";
}

TEST_F(JoinTest, DerivedTableCopiesOnlyReadColumns) {
  db_.ResetStats();
  Chunk out = MustQuery(db_, "SELECT count(*), max(q.payload) FROM " +
                                 VersionSubquery(1) + " AS q");
  EXPECT_EQ(out.Get(0, 0).AsInt(), 3);
  EXPECT_EQ(out.Get(0, 1).AsString(), "p5");
  // The join output holds d.payload alone, and the projection moves it.
  EXPECT_EQ(db_.stats()->cells_materialized, 3);

  db_.ResetStats();
  out = MustQuery(db_, "SELECT count(*) FROM " + VersionSubquery(1) + " AS q");
  EXPECT_EQ(out.Get(0, 0).AsInt(), 3);
  // No column is read, but one survives to carry the row count.
  EXPECT_EQ(db_.stats()->cells_materialized, 3);

  // A top-level star reads every column: the join output is copied
  // once (both of d's columns), then moved.
  db_.ResetStats();
  out = MustQuery(db_, "SELECT d.* FROM d, (SELECT unnest(rlist) AS r FROM v "
                       "WHERE vid = 1) AS x WHERE d.rid = x.r");
  ASSERT_EQ(out.num_columns(), 2);
  EXPECT_EQ(out.Get(2, 1).AsString(), "p15");
  EXPECT_EQ(db_.stats()->cells_materialized, 6);
}

TEST_F(JoinTest, StarOutsideTheReadColumnsStillCountsRows) {
  // ORDER BY keeps d.payload, which the x.* star does not cover; the
  // star must still yield a column, or the derived table has no rows.
  Chunk out = MustQuery(
      db_, "SELECT count(*) FROM (SELECT x.* FROM d, (SELECT unnest(rlist) AS r "
           "FROM v WHERE vid = 1) AS x WHERE d.rid = x.r ORDER BY d.payload) AS q");
  EXPECT_EQ(out.Get(0, 0).AsInt(), 3);
  out = MustQuery(db_, "SELECT count(*) FROM (SELECT * FROM " + VersionSubquery(2) +
                           " AS i WHERE i.payload <> 'p0') AS q");
  EXPECT_EQ(out.Get(0, 0).AsInt(), 1);
}

TEST_F(JoinTest, StarUnderDistinctKeepsEveryColumn) {
  ASSERT_TRUE(db_.Execute("CREATE TABLE dup (a INT, b INT)").ok());
  ASSERT_TRUE(db_.Execute("INSERT INTO dup VALUES (1, 1), (1, 2), (2, 2)").ok());
  // Pruning the star to `a` would merge (1, 1) and (1, 2).
  EXPECT_EQ(MustQuery(db_, "SELECT count(*) FROM (SELECT DISTINCT * FROM dup) AS q")
                .Get(0, 0).AsInt(), 3);
  EXPECT_EQ(MustQuery(db_, "SELECT count(*) FROM (SELECT DISTINCT s.* FROM "
                           "(SELECT a, b FROM dup) AS s) AS q")
                .Get(0, 0).AsInt(), 3);
  EXPECT_EQ(MustQuery(db_, "SELECT q.a FROM (SELECT DISTINCT * FROM dup) AS q "
                           "ORDER BY q.a").num_rows(), 3u);
  EXPECT_EQ(MustQuery(db_, "SELECT count(*) FROM (SELECT DISTINCT a FROM dup) AS q")
                .Get(0, 0).AsInt(), 2);
}

TEST_F(JoinTest, ProjectionMovesOnlyColumnsNoOtherItemReads) {
  Chunk out = MustQuery(db_, "SELECT q.payload, q.payload, q.rid * 2, q.rid FROM " +
                                 VersionSubquery(1) + " AS q");
  ASSERT_EQ(out.num_rows(), 3u);
  ASSERT_EQ(out.num_columns(), 4);
  for (size_t r = 0; r < 3; ++r) {
    const int64_t rid = 5 * static_cast<int64_t>(r + 1);
    EXPECT_EQ(out.Get(r, 0).AsString(), "p" + std::to_string(rid));
    EXPECT_EQ(out.Get(r, 1).AsString(), "p" + std::to_string(rid));
    EXPECT_EQ(out.Get(r, 2).AsInt(), 2 * rid);
    EXPECT_EQ(out.Get(r, 3).AsInt(), rid);
  }
  // A moved column leaves the input, so the moved-from chunk must not
  // be read again: ORDER BY on an output column runs after projection.
  out = MustQuery(db_, "SELECT q.rid AS id FROM " + VersionSubquery(1) +
                           " AS q ORDER BY id DESC");
  ASSERT_EQ(out.num_rows(), 3u);
  EXPECT_EQ(out.Get(0, 0).AsInt(), 15);
  EXPECT_EQ(out.Get(2, 0).AsInt(), 5);
}

// --- Index-served equality --------------------------------------------
//
// `col = <INT literal>` on an indexed column of a single base-table
// input reads the index's candidate rows instead of scanning; answers
// match a scan of the same rows without the index.

TEST(IndexedEqualityTest, MatchesScanAndExaminesOnlyCandidates) {
  Database db;
  for (const char* name : {"ix", "nx"}) {
    ASSERT_TRUE(db.Execute(std::string("CREATE TABLE ") + name + " (k INT, v INT)").ok());
    Chunk& chunk = db.GetTable(name).value()->mutable_chunk();
    for (int i = 0; i < 3000; ++i) {
      // Every 7th row NULL, key 0 beside it (NULL's storage
      // placeholder), key 4 repeated across batch boundaries.
      if (i % 7 == 0) {
        chunk.mutable_column(0).Append(Value::Null());
      } else if (i % 7 == 1) {
        chunk.mutable_column(0).AppendInt(0);
      } else if (i % 5 == 0) {
        chunk.mutable_column(0).AppendInt(4);
      } else {
        chunk.mutable_column(0).AppendInt(i);
      }
      chunk.mutable_column(1).AppendInt(i % 10);
    }
  }
  ASSERT_TRUE(db.Execute("CREATE INDEX ON ix (k)").ok());
  for (int threads : {1, 4}) {
    SetExecThreads(threads);
    for (const std::string where :
         {"k = 4", "4 = k", "k = 0", "k = 17", "k = 2999", "k = -9", "k = 100000",
          "k = 4 AND v > 3", "v > 3 AND k = 4", "k = NULL", "k = 4 AND k = 5"}) {
      const std::string select = "SELECT k, v FROM ";
      Chunk want = MustQuery(db, select + "nx WHERE " + where);
      db.ResetStats();
      Chunk got = MustQuery(db, select + "ix WHERE " + where);
      ASSERT_EQ(want.num_rows(), got.num_rows()) << where;
      for (size_t r = 0; r < want.num_rows(); ++r) {
        EXPECT_TRUE(want.Get(r, 0).Equals(got.Get(r, 0))) << where << " row " << r;
        EXPECT_TRUE(want.Get(r, 1).Equals(got.Get(r, 1))) << where << " row " << r;
      }
      if (where == "k = 4") {
        EXPECT_EQ(db.stats()->index_probes, 1);
        EXPECT_EQ(db.stats()->rows_scanned, static_cast<int64_t>(got.num_rows()));
      }
      if (where == "k = NULL") {
        // Not an INT literal: the scan answers it.
        EXPECT_EQ(db.stats()->rows_scanned, 3000);
      }
    }
  }
  SetExecThreads(0);
}

// --- Batch-boundary cases of the parallel scan pipeline ---------------
//
// Parameterized over the thread setting so every case runs both on the
// serial path (--threads=1) and on the pool (--threads=4). The batched
// executor must behave identically at 0 rows, 1 row, exactly one batch,
// one-past-a-batch, and when a predicate selects nothing.

class BatchBoundaryTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override { SetExecThreads(GetParam()); }
  void TearDown() override { SetExecThreads(0); }

  // Builds table `name` (a INT, val DOUBLE) with rows a = 0..n-1,
  // val = a * 0.5, appended through the bulk path (fast enough to
  // cross batch boundaries in a unit test).
  void BuildTable(Database* db, const std::string& name, size_t n) {
    ASSERT_TRUE(db->Execute("CREATE TABLE " + name + " (a INT, val DOUBLE)").ok());
    auto table = db->GetTable(name);
    ASSERT_TRUE(table.ok());
    Chunk& chunk = table.value()->mutable_chunk();
    for (size_t i = 0; i < n; ++i) {
      chunk.mutable_column(0).AppendInt(static_cast<int64_t>(i));
      chunk.mutable_column(1).Append(Value::Double(static_cast<double>(i) * 0.5));
    }
  }
};

TEST_P(BatchBoundaryTest, EmptyTable) {
  Database db;
  BuildTable(&db, "t", 0);
  auto scan = db.Execute("SELECT a FROM t WHERE a >= 0");
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_EQ(scan.value().num_rows(), 0u);
  auto agg = db.Execute("SELECT count(*), sum(val) FROM t");
  ASSERT_TRUE(agg.ok());
  EXPECT_EQ(agg.value().Get(0, 0).AsInt(), 0);
  EXPECT_TRUE(agg.value().Get(0, 1).is_null());
  auto grouped = db.Execute("SELECT a, count(*) FROM t GROUP BY a");
  ASSERT_TRUE(grouped.ok());
  EXPECT_EQ(grouped.value().num_rows(), 0u);
}

TEST_P(BatchBoundaryTest, SingleRow) {
  Database db;
  BuildTable(&db, "t", 1);
  auto scan = db.Execute("SELECT a, val * 2.0 FROM t WHERE a = 0");
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  ASSERT_EQ(scan.value().num_rows(), 1u);
  EXPECT_EQ(scan.value().Get(0, 0).AsInt(), 0);
  auto agg = db.Execute("SELECT count(*), min(a), max(a) FROM t");
  ASSERT_TRUE(agg.ok());
  EXPECT_EQ(agg.value().Get(0, 0).AsInt(), 1);
}

TEST_P(BatchBoundaryTest, PredicateSelectsZeroRows) {
  Database db;
  BuildTable(&db, "t", kScanBatchRows * 2 + 5);
  auto scan = db.Execute("SELECT a FROM t WHERE a < 0");
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_EQ(scan.value().num_rows(), 0u);
  auto agg = db.Execute("SELECT sum(a) FROM t WHERE a < 0");
  ASSERT_TRUE(agg.ok());
  EXPECT_TRUE(agg.value().Get(0, 0).is_null());
}

TEST_P(BatchBoundaryTest, ExactlyOneBatchAndOnePast) {
  Database db;
  BuildTable(&db, "exact", kScanBatchRows);
  BuildTable(&db, "past", kScanBatchRows + 1);
  for (const std::string& name : {std::string("exact"), std::string("past")}) {
    size_t n = name == "exact" ? kScanBatchRows : kScanBatchRows + 1;
    auto count = db.Execute("SELECT count(*) FROM " + name + " WHERE a % 2 = 0");
    ASSERT_TRUE(count.ok()) << count.status().ToString();
    EXPECT_EQ(count.value().Get(0, 0).AsInt(),
              static_cast<int64_t>((n + 1) / 2))
        << name;
    // Selection order must be row order across the batch seam.
    auto rows = db.Execute("SELECT a FROM " + name + " WHERE a >= " +
                           std::to_string(kScanBatchRows - 2));
    ASSERT_TRUE(rows.ok());
    for (size_t i = 0; i < rows.value().num_rows(); ++i) {
      EXPECT_EQ(rows.value().Get(i, 0).AsInt(),
                static_cast<int64_t>(kScanBatchRows - 2 + i))
          << name;
    }
  }
}

TEST_P(BatchBoundaryTest, GroupOrderIsFirstOccurrenceAcrossBatches) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE g (k INT)").ok());
  auto table = db.GetTable("g");
  ASSERT_TRUE(table.ok());
  Chunk& chunk = table.value()->mutable_chunk();
  // Key i first appears at row i * 700, so later batches introduce
  // new keys and earlier keys recur across every batch seam.
  const size_t n = kScanBatchRows * 3;
  for (size_t i = 0; i < n; ++i) {
    chunk.mutable_column(0).AppendInt(static_cast<int64_t>(i / 700));
  }
  auto grouped = db.Execute("SELECT k, count(*) FROM g GROUP BY k");
  ASSERT_TRUE(grouped.ok()) << grouped.status().ToString();
  // Without ORDER BY, groups surface in first-occurrence row order.
  for (size_t i = 0; i < grouped.value().num_rows(); ++i) {
    EXPECT_EQ(grouped.value().Get(i, 0).AsInt(), static_cast<int64_t>(i));
  }
}

INSTANTIATE_TEST_SUITE_P(ThreadSettings, BatchBoundaryTest,
                         ::testing::Values(1, 4));

// --- Error paths -------------------------------------------------------

TEST(ExecutorErrorTest, UnknownTableAndColumn) {
  Database db;
  EXPECT_EQ(db.Execute("SELECT * FROM nope").status().code(),
            StatusCode::kNotFound);
  ASSERT_TRUE(db.Execute("CREATE TABLE t (a INT)").ok());
  EXPECT_FALSE(db.Execute("SELECT b FROM t").ok());
  EXPECT_FALSE(db.Execute("UPDATE t SET b = 1").ok());
}

TEST(ExecutorErrorTest, ArityMismatch) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE t (a INT, b INT)").ok());
  EXPECT_FALSE(db.Execute("INSERT INTO t VALUES (1)").ok());
}

TEST(ExecutorErrorTest, DivisionByZero) {
  Database db;
  EXPECT_FALSE(db.Execute("SELECT 1 / 0").ok());
}

TEST(ExecutorErrorTest, IntoExistingTable) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE t (a INT)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (1)").ok());
  EXPECT_EQ(db.Execute("SELECT a INTO t FROM t").status().code(),
            StatusCode::kAlreadyExists);
}

}  // namespace
}  // namespace orpheus::rel
