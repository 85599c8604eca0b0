// Integration tests for the CVD layer across all five data models:
// init / checkout / commit round trips, record immutability and rid
// reuse, branching, merging with primary-key precedence, diff, schema
// evolution, and the metadata tables.

#include <gtest/gtest.h>

#include <set>

#include "core/cvd.h"
#include "core/data_model.h"
#include "relstore/database.h"

namespace orpheus::core {
namespace {

rel::Schema ProteinSchema() {
  return rel::Schema({{"protein1", rel::DataType::kString},
                      {"protein2", rel::DataType::kString},
                      {"neighborhood", rel::DataType::kInt64},
                      {"cooccurrence", rel::DataType::kInt64},
                      {"coexpression", rel::DataType::kInt64}});
}

// The running example of Figure 1: version v1's three records.
rel::Chunk InitialRows() {
  rel::Chunk rows(ProteinSchema());
  rows.AppendRow({rel::Value::String("ENSP273047"), rel::Value::String("ENSP261890"),
                  rel::Value::Int(0), rel::Value::Int(53), rel::Value::Int(0)});
  rows.AppendRow({rel::Value::String("ENSP273047"), rel::Value::String("ENSP235932"),
                  rel::Value::Int(0), rel::Value::Int(87), rel::Value::Int(0)});
  rows.AppendRow({rel::Value::String("ENSP300413"), rel::Value::String("ENSP274242"),
                  rel::Value::Int(426), rel::Value::Int(0), rel::Value::Int(164)});
  return rows;
}

class CvdModelTest : public ::testing::TestWithParam<DataModelKind> {
 protected:
  void SetUp() override {
    CvdOptions options;
    options.model = GetParam();
    options.primary_key = {"protein1", "protein2"};
    auto cvd = Cvd::Create(&db_, "protein", ProteinSchema(), options);
    ASSERT_TRUE(cvd.ok()) << cvd.status().ToString();
    cvd_ = std::move(cvd).value();
    auto v1 = cvd_->InitVersion(InitialRows(), "initial import");
    ASSERT_TRUE(v1.ok()) << v1.status().ToString();
    ASSERT_EQ(v1.value(), 1);
  }

  // Returns the number of rows in a staged/materialized table.
  int64_t RowCount(const std::string& table) {
    auto r = db_.Execute("SELECT count(*) FROM " + table);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? r.value().Get(0, 0).AsInt() : -1;
  }

  rel::Database db_;
  std::unique_ptr<Cvd> cvd_;
};

TEST_P(CvdModelTest, CheckoutMaterializesVersion) {
  ASSERT_TRUE(cvd_->Checkout({1}, "w1").ok());
  EXPECT_EQ(RowCount("w1"), 3);
  // Schema is rid + the five data attributes.
  auto table = db_.GetTable("w1");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table.value()->schema().num_columns(), 6);
  EXPECT_EQ(table.value()->schema().column(0).name, "rid");
}

TEST_P(CvdModelTest, CommitUnchangedReusesAllRecords) {
  ASSERT_TRUE(cvd_->Checkout({1}, "w1").ok());
  auto v2 = cvd_->Commit("w1", "no changes");
  ASSERT_TRUE(v2.ok()) << v2.status().ToString();
  EXPECT_EQ(v2.value(), 2);
  // No new records were created.
  EXPECT_EQ(cvd_->total_records(), 3);
  // The staged table is cleaned up by commit.
  EXPECT_FALSE(db_.HasTable("w1"));
  // Edge weight to the parent equals the full record count.
  auto node = cvd_->graph().GetNode(2);
  ASSERT_TRUE(node.ok());
  ASSERT_EQ(node.value()->parents.size(), 1u);
  EXPECT_EQ(node.value()->parent_weights[0], 3);
}

TEST_P(CvdModelTest, ModifiedRowBecomesNewRecord) {
  ASSERT_TRUE(cvd_->Checkout({1}, "w1").ok());
  // Figure 1's evolution: coexpression of the first record changes
  // 0 -> 83, a new immutable record.
  ASSERT_TRUE(db_.Execute("UPDATE w1 SET coexpression = 83 "
                          "WHERE protein2 = 'ENSP261890'").ok());
  auto v2 = cvd_->Commit("w1", "update coexpression");
  ASSERT_TRUE(v2.ok()) << v2.status().ToString();
  EXPECT_EQ(cvd_->total_records(), 4);  // 3 original + 1 new version of r1
  auto node = cvd_->graph().GetNode(v2.value());
  ASSERT_TRUE(node.ok());
  EXPECT_EQ(node.value()->parent_weights[0], 2);  // two records shared
  EXPECT_EQ(node.value()->num_records, 3);
}

TEST_P(CvdModelTest, InsertAndDeleteRows) {
  ASSERT_TRUE(cvd_->Checkout({1}, "w1").ok());
  ASSERT_TRUE(db_.Execute("DELETE FROM w1 WHERE protein1 = 'ENSP300413'").ok());
  ASSERT_TRUE(db_.Execute("INSERT INTO w1 VALUES (0, 'ENSP309334', 'ENSP346022', "
                          "0, 227, 975)").ok());
  auto v2 = cvd_->Commit("w1", "replace a record");
  ASSERT_TRUE(v2.ok()) << v2.status().ToString();
  ASSERT_TRUE(cvd_->Checkout({v2.value()}, "w2").ok());
  EXPECT_EQ(RowCount("w2"), 3);
  auto r = db_.Execute("SELECT count(*) FROM w2 WHERE protein1 = 'ENSP309334'");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().Get(0, 0).AsInt(), 1);
}

TEST_P(CvdModelTest, BranchingFromOneParent) {
  // Two children of v1 with different edits.
  ASSERT_TRUE(cvd_->Checkout({1}, "wa").ok());
  ASSERT_TRUE(db_.Execute("UPDATE wa SET neighborhood = 7 "
                          "WHERE protein2 = 'ENSP261890'").ok());
  auto v2 = cvd_->Commit("wa", "branch a");
  ASSERT_TRUE(v2.ok());

  ASSERT_TRUE(cvd_->Checkout({1}, "wb").ok());
  ASSERT_TRUE(db_.Execute("UPDATE wb SET cooccurrence = 99 "
                          "WHERE protein2 = 'ENSP235932'").ok());
  auto v3 = cvd_->Commit("wb", "branch b");
  ASSERT_TRUE(v3.ok());

  auto children = cvd_->graph().GetNode(1).value()->children;
  EXPECT_EQ(children.size(), 2u);
  // The two branches see different data.
  ASSERT_TRUE(cvd_->Checkout({v2.value()}, "ra").ok());
  ASSERT_TRUE(cvd_->Checkout({v3.value()}, "rb").ok());
  auto a = db_.Execute("SELECT count(*) FROM ra WHERE neighborhood = 7");
  auto b = db_.Execute("SELECT count(*) FROM rb WHERE neighborhood = 7");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().Get(0, 0).AsInt(), 1);
  EXPECT_EQ(b.value().Get(0, 0).AsInt(), 0);
}

TEST_P(CvdModelTest, MergeCheckoutUsesPrecedence) {
  // Both branches modify the SAME logical record (same PK); the first
  // listed version must win (§2.2 precedence rule).
  ASSERT_TRUE(cvd_->Checkout({1}, "wa").ok());
  ASSERT_TRUE(db_.Execute("UPDATE wa SET coexpression = 11 "
                          "WHERE protein2 = 'ENSP261890'").ok());
  auto v2 = cvd_->Commit("wa", "branch a");
  ASSERT_TRUE(v2.ok());
  ASSERT_TRUE(cvd_->Checkout({1}, "wb").ok());
  ASSERT_TRUE(db_.Execute("UPDATE wb SET coexpression = 22 "
                          "WHERE protein2 = 'ENSP261890'").ok());
  auto v3 = cvd_->Commit("wb", "branch b");
  ASSERT_TRUE(v3.ok());

  ASSERT_TRUE(cvd_->Checkout({v2.value(), v3.value()}, "merged").ok());
  EXPECT_EQ(RowCount("merged"), 3);  // PK dedupe, not 4 rows
  auto r = db_.Execute(
      "SELECT coexpression FROM merged WHERE protein2 = 'ENSP261890'");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().num_rows(), 1u);
  EXPECT_EQ(r.value().Get(0, 0).AsInt(), 11);  // v2 listed first wins

  // Committing the merge creates a version with two parents.
  auto v4 = cvd_->Commit("merged", "merge");
  ASSERT_TRUE(v4.ok()) << v4.status().ToString();
  auto node = cvd_->graph().GetNode(v4.value());
  ASSERT_TRUE(node.ok());
  EXPECT_EQ(node.value()->parents.size(), 2u);
}

TEST_P(CvdModelTest, DiffFindsAsymmetricRecords) {
  ASSERT_TRUE(cvd_->Checkout({1}, "w1").ok());
  ASSERT_TRUE(db_.Execute("UPDATE w1 SET coexpression = 83 "
                          "WHERE protein2 = 'ENSP261890'").ok());
  auto v2 = cvd_->Commit("w1", "edit");
  ASSERT_TRUE(v2.ok());
  auto fwd = cvd_->Diff(v2.value(), 1);
  ASSERT_TRUE(fwd.ok()) << fwd.status().ToString();
  EXPECT_EQ(fwd.value().num_rows(), 1u);  // the modified record
  auto bwd = cvd_->Diff(1, v2.value());
  ASSERT_TRUE(bwd.ok());
  EXPECT_EQ(bwd.value().num_rows(), 1u);  // the replaced original
  auto self = cvd_->Diff(1, 1);
  ASSERT_TRUE(self.ok());
  EXPECT_EQ(self.value().num_rows(), 0u);
}

TEST_P(CvdModelTest, CommitWithoutCheckoutFails) {
  ASSERT_TRUE(db_.Execute("CREATE TABLE rogue (rid INT, x INT)").ok());
  EXPECT_EQ(cvd_->Commit("rogue", "no provenance").status().code(),
            StatusCode::kNotFound);
}

TEST_P(CvdModelTest, PrimaryKeyViolationRejected) {
  ASSERT_TRUE(cvd_->Checkout({1}, "w1").ok());
  // Duplicate an existing primary key.
  ASSERT_TRUE(db_.Execute("INSERT INTO w1 VALUES (0, 'ENSP273047', "
                          "'ENSP261890', 1, 1, 1)").ok());
  EXPECT_EQ(cvd_->Commit("w1", "dup pk").status().code(),
            StatusCode::kConstraintViolation);
}

TEST_P(CvdModelTest, DiscardStagedDropsTable) {
  ASSERT_TRUE(cvd_->Checkout({1}, "w1").ok());
  ASSERT_TRUE(cvd_->DiscardStaged("w1").ok());
  EXPECT_FALSE(db_.HasTable("w1"));
  EXPECT_EQ(cvd_->staged_tables().size(), 0u);
}

TEST_P(CvdModelTest, CheckoutIntoExistingTableFails) {
  ASSERT_TRUE(db_.Execute("CREATE TABLE taken (x INT)").ok());
  EXPECT_EQ(cvd_->Checkout({1}, "taken").code(), StatusCode::kAlreadyExists);
}

TEST_P(CvdModelTest, VersionRecordsAndRowsAgree) {
  ASSERT_TRUE(cvd_->Checkout({1}, "w1").ok());
  ASSERT_TRUE(db_.Execute("INSERT INTO w1 VALUES (0, 'X', 'Y', 1, 2, 3)").ok());
  auto v2 = cvd_->Commit("w1", "add");
  ASSERT_TRUE(v2.ok());
  auto rids = cvd_->model()->VersionRecords(v2.value());
  ASSERT_TRUE(rids.ok());
  EXPECT_EQ(rids.value().size(), 4u);
  auto rows = cvd_->model()->VersionRows(v2.value());
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.value().num_rows(), 4u);
  // rid sets agree.
  std::set<RecordId> a(rids.value().begin(), rids.value().end());
  std::set<RecordId> b;
  int rid_col = rows.value().schema().FindColumn("rid");
  for (size_t r = 0; r < rows.value().num_rows(); ++r) {
    b.insert(rows.value().column(rid_col).ints()[r]);
  }
  EXPECT_EQ(a, b);
}

TEST_P(CvdModelTest, StorageBytesPositive) {
  EXPECT_GT(cvd_->StorageBytes(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, CvdModelTest,
    ::testing::Values(DataModelKind::kSplitByRlist, DataModelKind::kSplitByVlist,
                      DataModelKind::kCombinedTable, DataModelKind::kDeltaBased,
                      DataModelKind::kTablePerVersion),
    [](const ::testing::TestParamInfo<DataModelKind>& info) {
      std::string name = DataModelKindName(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// --- Schema evolution (split models only, §3.3) ------------------------

class SchemaEvolutionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    CvdOptions options;
    options.model = DataModelKind::kSplitByRlist;
    auto cvd = Cvd::Create(&db_, "p", ProteinSchema(), options);
    ASSERT_TRUE(cvd.ok());
    cvd_ = std::move(cvd).value();
    ASSERT_TRUE(cvd_->InitVersion(InitialRows(), "init").ok());
  }
  rel::Database db_;
  std::unique_ptr<Cvd> cvd_;
};

TEST_F(SchemaEvolutionTest, AddedColumnBackfillsNulls) {
  ASSERT_TRUE(cvd_->Checkout({1}, "w").ok());
  // User adds a column in their workspace (simulate by rebuilding the
  // staged table with an extra attribute).
  ASSERT_TRUE(db_.Execute("SELECT rid, protein1, protein2, neighborhood, "
                          "cooccurrence, coexpression, neighborhood * 2 AS fusion "
                          "INTO w2 FROM w").ok());
  ASSERT_TRUE(db_.DropTable("w").ok());
  // Re-register provenance under the new name by checking out again is
  // not possible; instead rename via the staged map: use checkout to a
  // fresh table and commit that path in real flows. For the test, go
  // through the CVD API: check out, then commit the widened table via
  // a fresh checkout name.
  ASSERT_TRUE(db_.Execute("SELECT * INTO w FROM w2").ok());
  ASSERT_TRUE(db_.DropTable("w2").ok());
  auto v2 = cvd_->Commit("w", "add fusion attribute");
  ASSERT_TRUE(v2.ok()) << v2.status().ToString();

  // The CVD schema now carries 6 attributes; v1 checkouts still show 5.
  EXPECT_EQ(cvd_->model()->data_schema().num_columns(), 6);
  ASSERT_TRUE(cvd_->Checkout({1}, "old").ok());
  auto old_table = db_.GetTable("old");
  ASSERT_TRUE(old_table.ok());
  EXPECT_EQ(old_table.value()->schema().num_columns(), 6);  // rid + 5
  ASSERT_TRUE(cvd_->Checkout({v2.value()}, "cur").ok());
  auto cur_table = db_.GetTable("cur");
  ASSERT_TRUE(cur_table.ok());
  EXPECT_EQ(cur_table.value()->schema().num_columns(), 7);  // rid + 6
}

TEST_F(SchemaEvolutionTest, TypeWideningIntToDouble) {
  ASSERT_TRUE(cvd_->Checkout({1}, "w").ok());
  // cooccurrence becomes DOUBLE (the paper's a4 -> a5 example).
  ASSERT_TRUE(db_.Execute("SELECT rid, protein1, protein2, neighborhood, "
                          "cooccurrence * 0.5 AS cooccurrence, coexpression "
                          "INTO wt FROM w").ok());
  ASSERT_TRUE(db_.DropTable("w").ok());
  ASSERT_TRUE(db_.Execute("SELECT * INTO w FROM wt").ok());
  ASSERT_TRUE(db_.DropTable("wt").ok());
  auto v2 = cvd_->Commit("w", "widen cooccurrence");
  ASSERT_TRUE(v2.ok()) << v2.status().ToString();

  // A new attribute entry exists for the widened type.
  int cooccurrence_entries = 0;
  for (const AttributeEntry& attr : cvd_->attributes()) {
    if (attr.name == "cooccurrence") ++cooccurrence_entries;
  }
  EXPECT_EQ(cooccurrence_entries, 2);
  // The pool column is now DOUBLE.
  auto data = db_.GetTable("p_data");
  ASSERT_TRUE(data.ok());
  int col = data.value()->schema().FindColumn("cooccurrence");
  EXPECT_EQ(data.value()->schema().column(col).type, rel::DataType::kDouble);
}

TEST_F(SchemaEvolutionTest, MetadataTablesPopulated) {
  auto meta = db_.Execute("SELECT vid, msg FROM p_meta ORDER BY vid");
  ASSERT_TRUE(meta.ok()) << meta.status().ToString();
  ASSERT_EQ(meta.value().num_rows(), 1u);
  EXPECT_EQ(meta.value().Get(0, 1).AsString(), "init");
  auto attrs = db_.Execute("SELECT count(*) FROM p_attr");
  ASSERT_TRUE(attrs.ok());
  EXPECT_EQ(attrs.value().Get(0, 0).AsInt(), 5);
}

// --- Exact record identity under forced hash collisions -----------------
//
// With the record-hash mask at 0 every HashRecord value collides, so
// each primary-key check and the merge-checkout dedupe must decide on
// the key values themselves. A hash-only check would reject distinct
// keys as duplicates or drop records from a merge.

class HashCollisionTest : public ::testing::Test {
 protected:
  void SetUp() override { SetRecordHashMaskForTesting(0); }
  void TearDown() override { SetRecordHashMaskForTesting(~uint64_t{0}); }

  // A CVD over ProteinSchema keyed by `primary_key`, with v1 = the
  // three rows of InitialRows().
  void Init(std::vector<std::string> primary_key) {
    CvdOptions options;
    options.model = DataModelKind::kSplitByRlist;
    options.primary_key = std::move(primary_key);
    auto cvd = Cvd::Create(&db_, "c", ProteinSchema(), options);
    ASSERT_TRUE(cvd.ok()) << cvd.status().ToString();
    cvd_ = std::move(cvd).value();
    auto v1 = cvd_->InitVersion(InitialRows(), "init");
    ASSERT_TRUE(v1.ok()) << v1.status().ToString();
  }

  int64_t Count(const std::string& sql) {
    auto r = db_.Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
    return r.ok() ? r.value().Get(0, 0).AsInt() : -1;
  }

  rel::Database db_;
  std::unique_ptr<Cvd> cvd_;
};

TEST_F(HashCollisionTest, DistinctCompositeKeysAreNotDuplicates) {
  Init({"protein1", "protein2"});  // v1's three keys all collide
  ASSERT_TRUE(cvd_->Checkout({1}, "w").ok());
  ASSERT_TRUE(db_.Execute("INSERT INTO w VALUES (0, 'ENSP300413', "
                          "'ENSP261890', 1, 2, 3)").ok());
  auto v2 = cvd_->Commit("w", "new key");
  ASSERT_TRUE(v2.ok()) << v2.status().ToString();
  EXPECT_EQ(cvd_->total_records(), 4);

  // A genuine duplicate is still caught.
  ASSERT_TRUE(cvd_->Checkout({v2.value()}, "dup").ok());
  ASSERT_TRUE(db_.Execute("INSERT INTO dup VALUES (0, 'ENSP300413', "
                          "'ENSP261890', 9, 9, 9)").ok());
  EXPECT_EQ(cvd_->Commit("dup", "dup pk").status().code(),
            StatusCode::kConstraintViolation);
}

TEST_F(HashCollisionTest, SingleIntKeyCheckedOnValues) {
  Init({"cooccurrence"});  // v1 keys 53, 87, 0
  ASSERT_TRUE(cvd_->Checkout({1}, "w").ok());
  ASSERT_TRUE(db_.Execute("INSERT INTO w VALUES (0, 'x', 'y', 1, 54, 1)").ok());
  ASSERT_TRUE(cvd_->Commit("w", "new key").ok());

  ASSERT_TRUE(cvd_->Checkout({1}, "dup").ok());
  ASSERT_TRUE(db_.Execute("INSERT INTO dup VALUES (0, 'x', 'y', 1, 87, 1)").ok());
  EXPECT_EQ(cvd_->Commit("dup", "dup pk").status().code(),
            StatusCode::kConstraintViolation);

  // NULL keys compare equal to each other, as before: one is allowed,
  // a second one is a duplicate.
  ASSERT_TRUE(cvd_->Checkout({1}, "n").ok());
  ASSERT_TRUE(db_.Execute("INSERT INTO n VALUES (0, 'x', 'y', 1, NULL, 1)").ok());
  ASSERT_TRUE(cvd_->Commit("n", "one null key").ok());
  ASSERT_TRUE(cvd_->Checkout({1}, "nn").ok());
  ASSERT_TRUE(db_.Execute("INSERT INTO nn VALUES (0, 'x', 'y', 1, NULL, 1), "
                          "(0, 'z', 'y', 1, NULL, 1)").ok());
  EXPECT_EQ(cvd_->Commit("nn", "two null keys").status().code(),
            StatusCode::kConstraintViolation);

  // A duplicate in the initial version is rejected too.
  CvdOptions options;
  options.primary_key = {"neighborhood"};  // v1 keys 0, 0, 426
  auto bad = Cvd::Create(&db_, "bad", ProteinSchema(), options);
  ASSERT_TRUE(bad.ok()) << bad.status().ToString();
  EXPECT_EQ(bad.value()->InitVersion(InitialRows(), "init").status().code(),
            StatusCode::kConstraintViolation);
}

TEST_F(HashCollisionTest, MergeCheckoutKeepsDistinctKeys) {
  Init({"protein1", "protein2"});
  // Two branches, each adding a record with its own new key.
  ASSERT_TRUE(cvd_->Checkout({1}, "wa").ok());
  ASSERT_TRUE(db_.Execute("INSERT INTO wa VALUES (0, 'A', 'B', 1, 1, 1)").ok());
  auto v2 = cvd_->Commit("wa", "branch a");
  ASSERT_TRUE(v2.ok()) << v2.status().ToString();
  ASSERT_TRUE(cvd_->Checkout({1}, "wb").ok());
  ASSERT_TRUE(db_.Execute("INSERT INTO wb VALUES (0, 'C', 'D', 2, 2, 2)").ok());
  ASSERT_TRUE(db_.Execute("UPDATE wb SET coexpression = 5 "
                          "WHERE protein2 = 'ENSP261890'").ok());
  auto v3 = cvd_->Commit("wb", "branch b");
  ASSERT_TRUE(v3.ok()) << v3.status().ToString();

  ASSERT_TRUE(cvd_->Checkout({v2.value(), v3.value()}, "merged").ok());
  // v1's three keys once each, plus A/B and C/D.
  EXPECT_EQ(Count("SELECT count(*) FROM merged"), 5);
  EXPECT_EQ(Count("SELECT count(*) FROM merged WHERE protein1 = 'C'"), 1);
  // The shared key resolves by precedence: v2 (listed first) wins.
  EXPECT_EQ(Count("SELECT coexpression FROM merged "
                  "WHERE protein2 = 'ENSP261890'"),
            0);
}

TEST_F(HashCollisionTest, MergeWithoutPrimaryKeyDedupesByRid) {
  Init({});
  ASSERT_TRUE(cvd_->Checkout({1}, "wa").ok());
  ASSERT_TRUE(db_.Execute("INSERT INTO wa VALUES (0, 'A', 'B', 1, 1, 1)").ok());
  auto v2 = cvd_->Commit("wa", "branch a");
  ASSERT_TRUE(v2.ok()) << v2.status().ToString();
  ASSERT_TRUE(cvd_->Checkout({1}, "wb").ok());
  ASSERT_TRUE(db_.Execute("INSERT INTO wb VALUES (0, 'C', 'D', 2, 2, 2)").ok());
  ASSERT_TRUE(db_.Execute("UPDATE wb SET coexpression = 5 "
                          "WHERE protein2 = 'ENSP261890'").ok());
  auto v3 = cvd_->Commit("wb", "branch b");
  ASSERT_TRUE(v3.ok()) << v3.status().ToString();

  ASSERT_TRUE(cvd_->Checkout({v2.value(), v3.value()}, "merged").ok());
  // v1's three records once each, A/B, C/D, and the updated record as
  // a record of its own: with no key, only shared rids are merged.
  EXPECT_EQ(Count("SELECT count(*) FROM merged"), 6);
  EXPECT_EQ(Count("SELECT count(*) FROM merged "
                  "WHERE protein2 = 'ENSP261890'"),
            2);
}

}  // namespace
}  // namespace orpheus::core
