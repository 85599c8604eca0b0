// Tests for the OrpheusDB facade and the versioned-SQL query
// translator (VERSION ... OF CVD ... constructs).

#include <gtest/gtest.h>

#include "core/orpheus.h"

namespace orpheus::core {
namespace {

rel::Chunk SampleRows(int n, int offset = 0) {
  rel::Schema schema({{"k", rel::DataType::kInt64},
                      {"score", rel::DataType::kInt64}});
  rel::Chunk rows(schema);
  for (int i = 0; i < n; ++i) {
    rows.AppendRow({rel::Value::Int(i + offset), rel::Value::Int(10 * (i + offset))});
  }
  return rows;
}

class OrpheusTest : public ::testing::Test {
 protected:
  void SetUp() override {
    CvdOptions options;
    options.primary_key = {"k"};
    auto cvd = orpheus_.InitCvd("numbers", SampleRows(5), options, "v1");
    ASSERT_TRUE(cvd.ok()) << cvd.status().ToString();
    cvd_ = cvd.value();
    // v2: add five more rows.
    ASSERT_TRUE(cvd_->Checkout({1}, "w").ok());
    for (int i = 5; i < 10; ++i) {
      ASSERT_TRUE(orpheus_.db()
                      ->Execute("INSERT INTO w VALUES (0, " + std::to_string(i) +
                                ", " + std::to_string(10 * i) + ")")
                      .ok());
    }
    auto v2 = cvd_->Commit("w", "v2");
    ASSERT_TRUE(v2.ok()) << v2.status().ToString();
  }

  OrpheusDB orpheus_;
  Cvd* cvd_ = nullptr;
};

TEST_F(OrpheusTest, UsersAndLogin) {
  EXPECT_EQ(orpheus_.WhoAmI(), "default");
  ASSERT_TRUE(orpheus_.CreateUser("alice").ok());
  EXPECT_EQ(orpheus_.CreateUser("alice").code(), StatusCode::kAlreadyExists);
  ASSERT_TRUE(orpheus_.Login("alice").ok());
  EXPECT_EQ(orpheus_.WhoAmI(), "alice");
  EXPECT_EQ(orpheus_.Login("bob").code(), StatusCode::kNotFound);
}

TEST_F(OrpheusTest, ListAndDropCvds) {
  auto names = orpheus_.ListCvds();
  ASSERT_EQ(names.size(), 1u);
  EXPECT_EQ(names[0], "numbers");
  ASSERT_TRUE(orpheus_.DropCvd("numbers").ok());
  EXPECT_TRUE(orpheus_.ListCvds().empty());
  // Backing tables are gone too.
  EXPECT_FALSE(orpheus_.db()->HasTable("numbers_data"));
  EXPECT_FALSE(orpheus_.db()->HasTable("numbers_meta"));
}

TEST_F(OrpheusTest, RunSingleVersionQuery) {
  auto r = orpheus_.Run("SELECT count(*) FROM VERSION 1 OF CVD numbers");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().Get(0, 0).AsInt(), 5);
  auto r2 = orpheus_.Run("SELECT count(*) FROM VERSION 2 OF CVD numbers");
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2.value().Get(0, 0).AsInt(), 10);
}

TEST_F(OrpheusTest, RunWithPredicateAndAlias) {
  auto r = orpheus_.Run(
      "SELECT v.k FROM VERSION 2 OF CVD numbers AS v WHERE v.score >= 80 "
      "ORDER BY v.k");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().num_rows(), 2u);
  EXPECT_EQ(r.value().Get(0, 0).AsInt(), 8);
}

TEST_F(OrpheusTest, RunJoinAcrossVersions) {
  auto r = orpheus_.Run(
      "SELECT count(*) FROM VERSION 1 OF CVD numbers AS a, "
      "VERSION 2 OF CVD numbers AS b WHERE a.k = b.k");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().Get(0, 0).AsInt(), 5);  // v1 is a subset of v2
}

TEST_F(OrpheusTest, RunAggregatePerVersion) {
  // The paper's motivating query shape: an aggregate grouped by
  // version across the whole CVD.
  auto r = orpheus_.Run(
      "SELECT vid, count(*) AS cnt FROM CVD numbers GROUP BY vid ORDER BY vid");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().num_rows(), 2u);
  EXPECT_EQ(r.value().Get(0, 1).AsInt(), 5);
  EXPECT_EQ(r.value().Get(1, 1).AsInt(), 10);
}

TEST_F(OrpheusTest, RunVersionSelectionViaHaving) {
  // "Find versions with more than 7 records."
  auto r = orpheus_.Run(
      "SELECT vid, count(*) AS cnt FROM CVD numbers GROUP BY vid HAVING cnt > 7");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().num_rows(), 1u);
  EXPECT_EQ(r.value().Get(0, 0).AsInt(), 2);
}

TEST_F(OrpheusTest, RunUnknownCvdFails) {
  EXPECT_EQ(orpheus_.Run("SELECT * FROM VERSION 1 OF CVD nope").status().code(),
            StatusCode::kNotFound);
}

TEST_F(OrpheusTest, PlainSqlPassesThrough) {
  auto r = orpheus_.Run("SELECT 1 + 1");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().Get(0, 0).AsInt(), 2);
}

// --- Versioned queries read only what they need ------------------------
//
// A versioned query runs over a derived table per version; the executor
// materializes only the columns the statement reads. Every answer must
// match the same query over a checked-out copy of the version.

// k (pk), a (some NULL), b (5 values), c, and eight filler columns:
// wide enough that copying unread columns would show in the counter.
rel::Chunk WideRows(int n) {
  std::vector<rel::ColumnDef> defs = {{"k", rel::DataType::kInt64},
                                      {"a", rel::DataType::kInt64},
                                      {"b", rel::DataType::kString},
                                      {"c", rel::DataType::kDouble}};
  for (int f = 0; f < 8; ++f) defs.push_back({"f" + std::to_string(f), rel::DataType::kInt64});
  rel::Chunk rows{rel::Schema(defs)};
  for (int i = 0; i < n; ++i) {
    std::vector<rel::Value> row = {
        rel::Value::Int(i),
        i % 13 == 0 ? rel::Value::Null() : rel::Value::Int((i * 37) % 200),
        rel::Value::String("g" + std::to_string(i % 5)),
        rel::Value::Double(0.25 * ((i * 11) % 400))};
    for (int f = 0; f < 8; ++f) row.push_back(rel::Value::Int((i * (f + 1)) % 3));
    rows.AppendRow(row);
  }
  return rows;
}

class PrunedQueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    CvdOptions options;
    options.primary_key = {"k"};
    ASSERT_TRUE(orpheus_.InitCvd("w", WideRows(600), options, "v1").ok());
    ASSERT_TRUE(orpheus_.Checkout("w", {1}, "s").ok());
    for (const char* sql : {"UPDATE s SET a = a + 1 WHERE k < 200",
                            "DELETE FROM s WHERE k > 550",
                            "INSERT INTO s (k, a, b, c) VALUES (1000, 5, 'g9', 1.5)"}) {
      ASSERT_TRUE(orpheus_.db()->Execute(sql).ok()) << sql;
    }
    ASSERT_EQ(2, orpheus_.Commit("w", "s", "v2").ValueOrDie());
    ASSERT_TRUE(orpheus_.Checkout("w", {1}, "co1").ok());
    ASSERT_TRUE(orpheus_.Checkout("w", {2}, "co2").ok());
  }

  // Runs `sql` with {1}/{2} naming a version, then over its checkout.
  void ExpectSameAnswer(const std::string& sql) {
    std::string versioned = sql;
    std::string checked_out = sql;
    for (const char* vid : {"1", "2"}) {
      const std::string slot = std::string("{") + vid + "}";
      for (size_t at; (at = versioned.find(slot)) != std::string::npos;) {
        versioned.replace(at, slot.size(), std::string("VERSION ") + vid + " OF CVD w");
      }
      for (size_t at; (at = checked_out.find(slot)) != std::string::npos;) {
        checked_out.replace(at, slot.size(), std::string("co") + vid);
      }
    }
    ExpectSameRows(orpheus_.db()->Execute(checked_out), orpheus_.Run(versioned), sql);
  }

  static void ExpectSameRows(const Result<rel::Chunk>& want,
                             const Result<rel::Chunk>& got, const std::string& sql) {
    ASSERT_TRUE(want.ok()) << sql << ": " << want.status().ToString();
    ASSERT_TRUE(got.ok()) << sql << ": " << got.status().ToString();
    ASSERT_EQ(want.value().num_columns(), got.value().num_columns()) << sql;
    ASSERT_EQ(want.value().num_rows(), got.value().num_rows()) << sql;
    ASSERT_GT(want.value().num_rows(), 0u) << sql;
    for (int c = 0; c < want.value().num_columns(); ++c) {
      EXPECT_EQ(want.value().schema().column(c).name, got.value().schema().column(c).name)
          << sql;
      for (size_t r = 0; r < want.value().num_rows(); ++r) {
        const rel::Value w = want.value().Get(r, c);
        const rel::Value g = got.value().Get(r, c);
        EXPECT_TRUE(w.is_null() ? g.is_null() : w.Equals(g))
            << sql << " row " << r << " col " << c << ": " << w.ToString() << " vs "
            << g.ToString();
      }
    }
  }

  OrpheusDB orpheus_;
};

TEST_F(PrunedQueryTest, CountReadsNoColumn) {
  ExpectSameAnswer("SELECT count(*) FROM {2}");
  ExpectSameAnswer("SELECT count(*) FROM {1} WHERE c < 50.0");
}

TEST_F(PrunedQueryTest, SelectStarFromVersion) {
  ExpectSameAnswer("SELECT * FROM {2}");
  ExpectSameAnswer("SELECT x.* FROM {1} AS x WHERE x.b = 'g3'");
}

TEST_F(PrunedQueryTest, TwoVersionJoin) {
  ExpectSameAnswer(
      "SELECT count(*), sum(x.a) FROM {1} AS x, {2} AS y WHERE x.k = y.k AND x.a <> y.a");
  ExpectSameAnswer("SELECT x.k, y.c FROM {1} AS x, {2} AS y WHERE x.k = y.k AND y.f3 = 1");
}

TEST_F(PrunedQueryTest, OrderByColumnOutsideSelectList) {
  ExpectSameAnswer("SELECT k FROM {2} WHERE a > 10 ORDER BY c DESC, k LIMIT 40");
}

TEST_F(PrunedQueryTest, Having) {
  ExpectSameAnswer(
      "SELECT b, count(*) AS n, sum(a) AS s FROM {2} GROUP BY b HAVING n > 50 ORDER BY b");
}

TEST_F(PrunedQueryTest, DistinctDerivedTable) {
  // Pruning the DISTINCT star to one column would merge rows.
  ExpectSameAnswer(
      "SELECT count(*) FROM (SELECT DISTINCT q.* FROM (SELECT b, f0 FROM {2}) AS q) AS z");
  ExpectSameAnswer("SELECT count(*) FROM (SELECT DISTINCT b FROM {2}) AS z");
}

TEST_F(PrunedQueryTest, SameColumnTwice) {
  ExpectSameAnswer("SELECT a, a FROM {2}");
  ExpectSameAnswer("SELECT a, a + 1, k FROM {2} WHERE c < 50.0");
}

TEST_F(PrunedQueryTest, InAndArraySubqueries) {
  ExpectSameAnswer("SELECT k FROM {2} WHERE k IN (SELECT k FROM {1} WHERE a > 100)");
  ExpectSameAnswer(
      "SELECT count(*) FROM {2} WHERE ARRAY[k] <@ ARRAY(SELECT k FROM {1} WHERE b = 'g1')");
}

TEST_F(PrunedQueryTest, CvdWideGroupByVid) {
  Result<rel::Chunk> got =
      orpheus_.Run("SELECT vid, count(*), sum(a), max(b) FROM CVD w GROUP BY vid ORDER BY vid");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_EQ(2u, got.value().num_rows());
  for (int v = 1; v <= 2; ++v) {
    Result<rel::Chunk> want = orpheus_.db()->Execute(
        "SELECT count(*), sum(a), max(b) FROM co" + std::to_string(v));
    ASSERT_TRUE(want.ok());
    EXPECT_EQ(v, got.value().Get(static_cast<size_t>(v - 1), 0).AsInt());
    for (int c = 0; c < 3; ++c) {
      EXPECT_TRUE(want.value().Get(0, c).Equals(
          got.value().Get(static_cast<size_t>(v - 1), c + 1)))
          << "v" << v << " col " << c;
    }
  }
}

TEST_F(PrunedQueryTest, FilteredAggregateCopiesOnlyReadColumns) {
  const int64_t rows = orpheus_.db()->GetTable("co2").ValueOrDie()->num_rows();
  orpheus_.db()->ResetStats();
  ASSERT_TRUE(orpheus_.Run("SELECT count(*), sum(a) FROM VERSION 2 OF CVD w WHERE c < 60.0")
                  .ok());
  // d.rid, the read attributes and orpheus_rid at most; all 13 record
  // columns, copied twice, before the executor pruned them.
  EXPECT_GT(orpheus_.db()->stats()->cells_materialized, 0);
  EXPECT_LE(orpheus_.db()->stats()->cells_materialized, rows * 5);
}

// Equality on a CVD's metadata key reads the table's index: the lookup
// examines one row however many versions the CVD has.
TEST(IndexedLookupTest, MetadataLookupExaminesOneRow) {
  OrpheusDB orpheus;
  CvdOptions options;
  options.primary_key = {"k"};
  ASSERT_TRUE(orpheus.InitCvd("m", SampleRows(1), options, "v1").ok());
  for (int i = 2; i <= 2560; ++i) {
    ASSERT_TRUE(orpheus.Checkout("m", {i - 1}, "s").ok());
    ASSERT_TRUE(orpheus.db()->Execute("UPDATE s SET score = " + std::to_string(i)).ok());
    ASSERT_EQ(i, orpheus.Commit("m", "s", "edit").ValueOrDie());
  }
  orpheus.db()->ResetStats();
  Result<rel::Chunk> out = orpheus.db()->Execute("SELECT vid FROM m_meta WHERE vid = 1");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(1u, out.value().num_rows());
  EXPECT_EQ(1, out.value().Get(0, 0).AsInt());
  EXPECT_EQ(1, orpheus.db()->stats()->rows_scanned);
  EXPECT_EQ(1, orpheus.db()->stats()->index_probes);
}

TEST(TranslatorTest, TextualRewrite) {
  TableResolver resolver = [](const std::string& name, VersionId vid)
      -> Result<std::pair<std::string, std::string>> {
    (void)vid;
    return std::make_pair(name + "_data", name + "_rlist");
  };
  auto r = TranslateVersionedSql(
      "SELECT * FROM VERSION 3 OF CVD p WHERE x > 2", resolver);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_NE(r.value().find("p_data"), std::string::npos);
  EXPECT_NE(r.value().find("vid = 3"), std::string::npos);
  EXPECT_NE(r.value().find("WHERE x > 2"), std::string::npos);
  // A generated alias is appended for derived tables.
  EXPECT_NE(r.value().find("AS orpheus_cvd0"), std::string::npos);
}

TEST(TranslatorTest, KeepsUserAlias) {
  TableResolver resolver = [](const std::string& name, VersionId vid)
      -> Result<std::pair<std::string, std::string>> {
    (void)vid;
    return std::make_pair(name + "_d", name + "_v");
  };
  auto r = TranslateVersionedSql("SELECT a.x FROM VERSION 1 OF CVD c AS a", resolver);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().find("orpheus_cvd"), std::string::npos);
  EXPECT_NE(r.value().find("AS a"), std::string::npos);
}

TEST(TranslatorTest, NoConstructsNoChange) {
  TableResolver resolver = [](const std::string&, VersionId)
      -> Result<std::pair<std::string, std::string>> {
    return Status::Internal("must not be called");
  };
  const std::string sql = "SELECT version FROM releases WHERE cvdish = 1";
  auto r = TranslateVersionedSql(sql, resolver);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value(), sql);
}

}  // namespace
}  // namespace orpheus::core
