#include "core/cvd.h"

#include <algorithm>
#include <numeric>
#include <unordered_map>
#include <unordered_set>

#include "common/str_util.h"

namespace orpheus::core {

namespace {

// Widening lattice for single-pool schema evolution: INT -> DOUBLE ->
// TEXT (§3.3, after Jain et al.).
int TypeRank(rel::DataType type) {
  switch (type) {
    case rel::DataType::kBool:
    case rel::DataType::kInt64:
      return 0;
    case rel::DataType::kDouble:
      return 1;
    default:
      return 2;
  }
}

rel::DataType WidenType(rel::DataType a, rel::DataType b) {
  return TypeRank(a) >= TypeRank(b) ? a : b;
}

std::string EscapeSqlString(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '\'') out += "''";
    else out.push_back(c);
  }
  return out;
}

std::string IntArrayLiteral(const std::vector<int64_t>& values) {
  std::vector<std::string> parts;
  parts.reserve(values.size());
  for (int64_t v : values) parts.push_back(std::to_string(v));
  return "ARRAY[" + Join(parts, ", ") + "]";
}

// rid + the data attributes: the layout of a CVD's records.
rel::Schema RecordSchema(const rel::Schema& data_schema) {
  rel::Schema schema;
  schema.AddColumn("rid", rel::DataType::kInt64);
  for (const rel::ColumnDef& def : data_schema.columns()) {
    schema.AddColumn(def.name, def.type);
  }
  return schema;
}

// The data schema ReconcileSchema leaves behind for `staged`, computed
// without altering anything: live attributes widened to the staged
// types, new attributes appended in staged order.
rel::Schema EvolvedSchema(const rel::Schema& data_schema, const rel::Schema& staged) {
  std::vector<rel::ColumnDef> columns = data_schema.columns();
  for (const rel::ColumnDef& def : staged.columns()) {
    auto it = std::find_if(columns.begin(), columns.end(),
                           [&](const rel::ColumnDef& c) { return c.name == def.name; });
    if (it == columns.end()) {
      columns.push_back(def);
    } else {
      it->type = WidenType(it->type, def.type);
    }
  }
  return rel::Schema(std::move(columns));
}

// A reference to one row of a chunk that outlives the reference.
struct RowRef {
  const rel::Chunk* chunk;
  size_t row;
};

// Hash and equality of rows on their values in `cols`. HashRecord only
// picks candidates; RecordsEqual confirms each one, so a 64-bit hash
// collision can never make two distinct keys look equal. NULLs compare
// equal, as in HashRecord and RecordsEqual. `cols` must outlive the set.
struct RowHash {
  const std::vector<int>* cols;
  size_t operator()(const RowRef& r) const {
    return static_cast<size_t>(HashRecord(*r.chunk, r.row, *cols));
  }
};
struct RowEq {
  const std::vector<int>* cols;
  bool operator()(const RowRef& a, const RowRef& b) const {
    return RecordsEqual(*a.chunk, a.row, *cols, *b.chunk, b.row, *cols);
  }
};
using RowKeySet = std::unordered_set<RowRef, RowHash, RowEq>;

RowKeySet MakeRowKeySet(const std::vector<int>* cols) {
  return RowKeySet(0, RowHash{cols}, RowEq{cols});
}

// True if two rows of `chunk` agree on every column in `cols`.
bool HasDuplicateKey(const rel::Chunk& chunk, const std::vector<int>& cols) {
  // Sized by the key columns: the aligned rows a commit checks have an
  // empty rid column.
  const size_t rows = chunk.column(cols[0]).size();
  RowKeySet seen = MakeRowKeySet(&cols);
  seen.reserve(rows);
  for (size_t r = 0; r < rows; ++r) {
    if (!seen.insert({&chunk, r}).second) return true;
  }
  return false;
}

}  // namespace

Cvd::Cvd(rel::Database* db, std::string name, rel::Schema data_schema,
         CvdOptions options)
    : db_(db),
      name_(std::move(name)),
      primary_key_(std::move(options.primary_key)),
      model_(MakeDataModel(options.model, db, name_, std::move(data_schema))) {}

Result<std::unique_ptr<Cvd>> Cvd::Create(rel::Database* db,
                                         const std::string& name,
                                         rel::Schema data_schema,
                                         CvdOptions options) {
  // Validate the primary key against the schema up front.
  for (const std::string& pk : options.primary_key) {
    if (data_schema.FindColumn(pk) < 0) {
      return Status::InvalidArgument("primary key attribute not in schema: " + pk);
    }
  }
  if (data_schema.FindColumn("rid") >= 0) {
    return Status::InvalidArgument("'rid' is reserved for internal record ids");
  }
  std::unique_ptr<Cvd> cvd(new Cvd(db, name, data_schema, std::move(options)));
  ORPHEUS_RETURN_NOT_OK(cvd->model_->Init());

  // Metadata table (Figure 4a).
  rel::Schema meta;
  meta.AddColumn("vid", rel::DataType::kInt64);
  meta.AddColumn("parents", rel::DataType::kIntArray);
  meta.AddColumn("checkout_t", rel::DataType::kInt64);
  meta.AddColumn("commit_t", rel::DataType::kInt64);
  meta.AddColumn("msg", rel::DataType::kString);
  meta.AddColumn("attributes", rel::DataType::kIntArray);
  ORPHEUS_RETURN_NOT_OK(db->CreateTable(cvd->MetadataTableName(), meta, {"vid"}));

  // Attribute table (Figure 5b).
  rel::Schema attr;
  attr.AddColumn("attr_id", rel::DataType::kInt64);
  attr.AddColumn("attr_name", rel::DataType::kString);
  attr.AddColumn("data_type", rel::DataType::kString);
  ORPHEUS_RETURN_NOT_OK(
      db->CreateTable(cvd->AttributeTableName(), attr, {"attr_id"}));

  for (const rel::ColumnDef& def : data_schema.columns()) {
    cvd->AddAttributeEntry(def.name, def.type);
  }
  return cvd;
}

int64_t Cvd::AddAttributeEntry(const std::string& name, rel::DataType type) {
  int64_t id = static_cast<int64_t>(attributes_.size()) + 1;
  attributes_.push_back({id, name, type});
  live_attrs_[name] = id;
  // Mirror into the attribute table (best-effort bookkeeping).
  (void)db_->Execute("INSERT INTO " + AttributeTableName() + " VALUES (" +
                     std::to_string(id) + ", '" + EscapeSqlString(name) + "', '" +
                     rel::DataTypeName(type) + "')");
  return id;
}

Status Cvd::AppendMetadataRow(VersionId vid, const std::vector<VersionId>& parents,
                              int64_t checkout_time, int64_t commit_time,
                              const std::string& message,
                              const std::vector<int64_t>& attr_ids) {
  ORPHEUS_ASSIGN_OR_RETURN(
      rel::Chunk unused,
      db_->Execute("INSERT INTO " + MetadataTableName() + " VALUES (" +
                   std::to_string(vid) + ", " + IntArrayLiteral(parents) + ", " +
                   std::to_string(checkout_time) + ", " +
                   std::to_string(commit_time) + ", '" + EscapeSqlString(message) +
                   "', " + IntArrayLiteral(attr_ids) + ")"));
  (void)unused;
  return Status::OK();
}

Result<std::vector<int64_t>> Cvd::VersionAttributes(VersionId vid) const {
  auto it = version_attrs_.find(vid);
  if (it == version_attrs_.end()) {
    return Status::NotFound("version not found: " + std::to_string(vid));
  }
  return it->second;
}

Result<VersionId> Cvd::InitVersion(const rel::Chunk& rows,
                                   const std::string& message) {
  if (next_vid_ != 1) {
    return Status::InvalidArgument("CVD already initialized: " + name_);
  }
  const rel::Schema& data_schema = model_->data_schema();
  if (!rows.schema().Equals(data_schema)) {
    return Status::InvalidArgument("init rows schema " + rows.schema().ToString() +
                                   " does not match CVD schema " +
                                   data_schema.ToString());
  }
  // Primary-key uniqueness within the version.
  if (!primary_key_.empty()) {
    std::vector<int> pk_cols;
    for (const std::string& pk : primary_key_) {
      pk_cols.push_back(rows.schema().FindColumn(pk));
    }
    if (HasDuplicateKey(rows, pk_cols)) {
      return Status::ConstraintViolation(
          "duplicate primary key in initial version");
    }
  }

  // Every row is a new record.
  std::vector<RecordId> rids(rows.num_rows());
  std::iota(rids.begin(), rids.end(), next_rid_);
  rel::Chunk with_rid(RecordSchema(data_schema));
  for (RecordId rid : rids) with_rid.mutable_column(0).AppendInt(rid);
  std::vector<uint32_t> all(rows.num_rows());
  std::iota(all.begin(), all.end(), 0);
  for (int c = 0; c < rows.num_columns(); ++c) {
    with_rid.mutable_column(c + 1).Gather(rows.column(c), all);
  }
  rel::Chunk new_records = with_rid;  // the stage table consumes with_rid

  // The Table 1 SQL reads the version from a table (`SELECT rid FROM
  // T'`), so the rows go through a short-lived one. A table that
  // already has its name is refused, never replaced.
  const std::string stage = name_ + "_init_stage";
  ORPHEUS_RETURN_NOT_OK(db_->AdoptTable(stage, std::move(with_rid)));
  VersionId vid = next_vid_++;
  next_rid_ += static_cast<RecordId>(rows.num_rows());
  Status st = model_->AddVersion(vid, stage, rids, new_records, /*primary_parent=*/-1);
  ORPHEUS_RETURN_NOT_OK(db_->DropTable(stage));
  ORPHEUS_RETURN_NOT_OK(st);

  ORPHEUS_RETURN_NOT_OK(graph_.AddVersion(vid, {}, {}, static_cast<int64_t>(rids.size())));
  std::vector<int64_t> attr_ids;
  for (const rel::ColumnDef& def : data_schema.columns()) {
    attr_ids.push_back(live_attrs_.at(def.name));
  }
  version_attrs_[vid] = attr_ids;
  int64_t now = ++logical_clock_;
  ORPHEUS_RETURN_NOT_OK(AppendMetadataRow(vid, {}, now, now, message, attr_ids));
  return vid;
}

Status Cvd::CheckoutSingle(VersionId vid, const std::string& table_name) {
  if (!graph_.Contains(vid)) {
    return Status::NotFound("version not found: " + std::to_string(vid));
  }
  // Does this version carry all live attributes?
  const rel::Schema& schema = model_->data_schema();
  std::vector<std::string> attr_names;
  for (int64_t attr_id : version_attrs_.at(vid)) {
    attr_names.push_back(attributes_[static_cast<size_t>(attr_id - 1)].name);
  }
  bool full = attr_names.size() == static_cast<size_t>(schema.num_columns());

  const std::string target = full ? table_name : table_name + "_fullattrs";
  if (checkout_override_ != nullptr) {
    ORPHEUS_RETURN_NOT_OK(checkout_override_(vid, target));
  } else {
    ORPHEUS_RETURN_NOT_OK(model_->CheckoutVersion(vid, target));
  }
  if (!full) {
    // Project down to the attributes this version actually has.
    std::vector<std::string> cols = {"rid"};
    cols.insert(cols.end(), attr_names.begin(), attr_names.end());
    ORPHEUS_ASSIGN_OR_RETURN(
        rel::Chunk unused,
        db_->Execute("SELECT " + Join(cols, ", ") + " INTO " + table_name +
                     " FROM " + target));
    (void)unused;
    ORPHEUS_RETURN_NOT_OK(db_->DropTable(target));
  }
  return Status::OK();
}

Status Cvd::Checkout(const std::vector<VersionId>& vids,
                     const std::string& table_name) {
  if (vids.empty()) return Status::InvalidArgument("no versions given");
  if (db_->HasTable(table_name)) {
    return Status::AlreadyExists("table already exists: " + table_name);
  }
  for (VersionId vid : vids) {
    if (!graph_.Contains(vid)) {
      return Status::NotFound("version not found: " + std::to_string(vid));
    }
  }

  if (vids.size() == 1) {
    ORPHEUS_RETURN_NOT_OK(CheckoutSingle(vids[0], table_name));
  } else {
    // Merging checkout: precedence order with primary-key conflict
    // resolution (§2.2). Without a primary key, rid identity dedupes.
    // With one, every version's rows stay alive until the merge ends:
    // the key set refers to them. The reserve keeps the chunks from
    // moving.
    std::vector<rel::Chunk> version_rows;
    if (!primary_key_.empty()) version_rows.reserve(vids.size());
    rel::Chunk merged;
    bool first = true;
    std::vector<int> pk_cols;
    RowKeySet seen_keys = MakeRowKeySet(&pk_cols);
    std::unordered_set<RecordId> seen_rids;
    for (VersionId vid : vids) {
      ORPHEUS_ASSIGN_OR_RETURN(rel::Chunk fetched, model_->VersionRows(vid));
      const rel::Chunk& rows = primary_key_.empty()
                                   ? fetched
                                   : version_rows.emplace_back(std::move(fetched));
      if (first) {
        merged = rel::Chunk(rows.schema());
        for (const std::string& pk : primary_key_) {
          pk_cols.push_back(rows.schema().FindColumn(pk));
        }
        first = false;
      }
      int rid_col = rows.schema().FindColumn("rid");
      std::vector<uint32_t> keep;
      for (size_t r = 0; r < rows.num_rows(); ++r) {
        if (!primary_key_.empty()) {
          if (!seen_keys.insert({&rows, r}).second) continue;
        } else {
          if (!seen_rids.insert(rows.column(rid_col).ints()[r]).second) continue;
        }
        keep.push_back(static_cast<uint32_t>(r));
      }
      merged.GatherFrom(rows, keep);
    }
    ORPHEUS_RETURN_NOT_OK(db_->AdoptTable(table_name, std::move(merged)));
  }

  StagedTableInfo info;
  info.table_name = table_name;
  info.parents = vids;
  info.checkout_time = ++logical_clock_;
  staged_[table_name] = std::move(info);
  return Status::OK();
}

Result<std::vector<int64_t>> Cvd::ReconcileSchema(const rel::Schema& staged_schema) {
  std::vector<int64_t> attr_ids;
  for (const rel::ColumnDef& def : staged_schema.columns()) {
    auto it = live_attrs_.find(def.name);
    if (it == live_attrs_.end()) {
      // New attribute: extend the CVD, NULL-backfilling old records.
      ORPHEUS_RETURN_NOT_OK(model_->AddDataColumn(def.name, def.type));
      attr_ids.push_back(AddAttributeEntry(def.name, def.type));
      continue;
    }
    const AttributeEntry& live = attributes_[static_cast<size_t>(it->second - 1)];
    rel::DataType widened = WidenType(live.type, def.type);
    if (widened != live.type) {
      // Type change: widen the pool column, register a new attribute
      // entry (single-pool method).
      ORPHEUS_RETURN_NOT_OK(model_->WidenDataColumn(def.name, widened));
      attr_ids.push_back(AddAttributeEntry(def.name, widened));
    } else {
      attr_ids.push_back(it->second);
    }
  }
  return attr_ids;
}

Result<std::vector<rel::Chunk>> Cvd::LoadParentRows(
    const std::vector<VersionId>& parents) {
  std::vector<rel::Chunk> parent_rows;
  parent_rows.reserve(parents.size());
  for (VersionId parent : parents) {
    ORPHEUS_ASSIGN_OR_RETURN(rel::Chunk rows, model_->VersionRows(parent));
    parent_rows.push_back(std::move(rows));
  }
  return parent_rows;
}

Result<VersionId> Cvd::Commit(const std::string& table_name,
                              const std::string& message,
                              ResolvedCommit* resolved) {
  auto staged_it = staged_.find(table_name);
  if (staged_it == staged_.end()) {
    return Status::NotFound("table was not checked out from CVD " + name_ + ": " +
                            table_name);
  }
  ORPHEUS_ASSIGN_OR_RETURN(rel::Table * staged_table, db_->GetTable(table_name));
  ResolvedCommit out;
  std::vector<rel::Chunk> parent_rows;
  ORPHEUS_ASSIGN_OR_RETURN(
      std::vector<int64_t> attr_ids,
      ResolveCommit(*staged_table, staged_it->second.parents, &out, &parent_rows));
  ORPHEUS_ASSIGN_OR_RETURN(
      VersionId vid, ApplyCommit(staged_it, attr_ids, parent_rows, out.rids,
                                 out.new_records, message));
  if (resolved != nullptr) *resolved = std::move(out);
  return vid;
}

Result<std::vector<int64_t>> Cvd::ResolveCommit(
    const rel::Table& staged_table, const std::vector<VersionId>& parents,
    ResolvedCommit* out, std::vector<rel::Chunk>* parent_rows) {
  // --- Align staged rows to the evolved record schema ----------------
  // Nothing is ALTERed until the primary-key check passes, so a
  // rejected commit leaves the CVD as it was. The rid column stays
  // empty: resolution decides the rids.
  for (const rel::ColumnDef& def : staged_table.schema().columns()) {
    if (def.name != "rid") out->data_schema.AddColumn(def.name, def.type);
  }
  const rel::Schema data_schema =
      EvolvedSchema(model_->data_schema(), out->data_schema);
  const rel::Schema record_schema = RecordSchema(data_schema);
  const rel::Chunk& staged_rows = staged_table.data();
  size_t n = staged_rows.num_rows();
  rel::Chunk aligned(record_schema);
  std::vector<uint32_t> all(n);
  std::iota(all.begin(), all.end(), 0);
  for (int c = 0; c < data_schema.num_columns(); ++c) {
    const rel::ColumnDef& def = data_schema.column(c);
    int src = staged_rows.schema().FindColumn(def.name);
    rel::Column& dst = aligned.mutable_column(c + 1);
    if (src < 0) {
      dst.AppendNulls(n);
    } else if (staged_rows.column(src).type() == def.type) {
      dst.Gather(staged_rows.column(src), all);
    } else {
      // Widen staged values (e.g. INT column committed into a DOUBLE
      // pool attribute).
      rel::Column tmp(staged_rows.column(src).type());
      tmp.Gather(staged_rows.column(src), all);
      ORPHEUS_RETURN_NOT_OK(tmp.ConvertTo(def.type));
      for (size_t r = 0; r < n; ++r) dst.AppendFrom(tmp, r);
    }
  }

  // --- Primary-key check within the committed version ----------------
  std::vector<int> data_cols(static_cast<size_t>(data_schema.num_columns()));
  std::iota(data_cols.begin(), data_cols.end(), 1);
  if (!primary_key_.empty()) {
    std::vector<int> pk_cols;
    for (const std::string& pk : primary_key_) {
      pk_cols.push_back(record_schema.FindColumn(pk));
    }
    if (HasDuplicateKey(aligned, pk_cols)) {
      return Status::ConstraintViolation(
          "duplicate primary key in committed table " + staged_table.name());
    }
  }

  // --- Schema reconciliation (may ALTER the pool tables) -------------
  ORPHEUS_ASSIGN_OR_RETURN(std::vector<int64_t> attr_ids,
                           ReconcileSchema(out->data_schema));
  if (!model_->data_schema().Equals(data_schema)) {
    return Status::Internal("reconciled schema " + model_->data_schema().ToString() +
                            " differs from the aligned schema " +
                            data_schema.ToString());
  }

  // --- Record resolution (the no-cross-version-diff rule) -----------
  // Build content-hash -> rid over the parents' records only.
  struct ParentRef {
    size_t parent_index;
    size_t row;
    RecordId rid;
  };
  ORPHEUS_ASSIGN_OR_RETURN(*parent_rows, LoadParentRows(parents));
  std::unordered_map<uint64_t, std::vector<ParentRef>> parent_hash;
  for (size_t p = 0; p < parent_rows->size(); ++p) {
    const rel::Chunk& rows = (*parent_rows)[p];
    const std::vector<int64_t>& parent_rids = rows.column(0).ints();
    for (size_t r = 0; r < rows.num_rows(); ++r) {
      parent_hash[HashRecord(rows, r, data_cols)].push_back({p, r, parent_rids[r]});
    }
  }

  // A row no parent holds becomes a new record; new rids continue the
  // counter in row order, which is what replay checks.
  out->rids.resize(n);
  std::vector<uint32_t> new_rows;
  for (size_t r = 0; r < n; ++r) {
    RecordId found = -1;
    auto hit = parent_hash.find(HashRecord(aligned, r, data_cols));
    if (hit != parent_hash.end()) {
      for (const ParentRef& ref : hit->second) {
        if (RecordsEqual(aligned, r, data_cols, (*parent_rows)[ref.parent_index],
                         ref.row, data_cols)) {
          found = ref.rid;
          break;
        }
      }
    }
    if (found < 0) {
      found = next_rid_ + static_cast<RecordId>(new_rows.size());
      new_rows.push_back(static_cast<uint32_t>(r));
    }
    out->rids[r] = found;
  }
  out->new_records = rel::Chunk(record_schema);
  for (uint32_t r : new_rows) {
    out->new_records.mutable_column(0).AppendInt(out->rids[r]);
  }
  for (int c = 1; c < record_schema.num_columns(); ++c) {
    out->new_records.mutable_column(c).Gather(aligned.column(c), new_rows);
  }
  return attr_ids;
}

Result<VersionId> Cvd::ReplayCommit(const std::string& table_name,
                                    const std::string& message,
                                    const ResolvedCommit& resolved) {
  auto staged_it = staged_.find(table_name);
  if (staged_it == staged_.end()) {
    return Status::NotFound("table was not checked out from CVD " + name_ + ": " +
                            table_name);
  }
  ORPHEUS_ASSIGN_OR_RETURN(std::vector<int64_t> attr_ids,
                           ReconcileSchema(resolved.data_schema));
  ORPHEUS_ASSIGN_OR_RETURN(std::vector<rel::Chunk> parent_rows,
                           LoadParentRows(staged_it->second.parents));
  return ApplyCommit(staged_it, attr_ids, parent_rows, resolved.rids,
                     resolved.new_records, message);
}

Result<VersionId> Cvd::ApplyCommit(
    std::map<std::string, StagedTableInfo>::iterator staged_it,
    const std::vector<int64_t>& attr_ids,
    const std::vector<rel::Chunk>& parent_rows,
    const std::vector<RecordId>& rids, const rel::Chunk& new_records,
    const std::string& message) {
  const std::vector<VersionId>& parents = staged_it->second.parents;
  const rel::Schema record_schema = RecordSchema(model_->data_schema());
  if (!new_records.schema().Equals(record_schema)) {
    return Status::Internal("new records " + new_records.schema().ToString() +
                            " do not match the record schema " +
                            record_schema.ToString());
  }
  std::vector<std::unordered_map<RecordId, uint32_t>> parent_index(parents.size());
  for (size_t p = 0; p < parents.size(); ++p) {
    const std::vector<int64_t>& parent_rids = parent_rows[p].column(0).ints();
    parent_index[p].reserve(parent_rids.size());
    for (size_t r = 0; r < parent_rids.size(); ++r) {
      parent_index[p].emplace(parent_rids[r], static_cast<uint32_t>(r));
    }
  }

  // --- Where each row comes from, and the edge weights ----------------
  // Source `parents.size()` is new_records. A rid several parents hold
  // is taken from the first of them.
  const uint32_t from_new = static_cast<uint32_t>(parents.size());
  const std::vector<int64_t>& new_rids = new_records.column(0).ints();
  std::vector<uint32_t> source(rids.size());
  std::vector<uint32_t> source_row(rids.size());
  std::vector<int64_t> weights(parents.size(), 0);
  size_t next_new = 0;
  for (size_t i = 0; i < rids.size(); ++i) {
    source[i] = from_new;
    for (size_t p = 0; p < parents.size(); ++p) {
      auto hit = parent_index[p].find(rids[i]);
      if (hit == parent_index[p].end()) continue;
      ++weights[p];
      if (source[i] == from_new) {
        source[i] = static_cast<uint32_t>(p);
        source_row[i] = hit->second;
      }
    }
    if (source[i] != from_new) continue;
    if (next_new >= new_rids.size() || new_rids[next_new] != rids[i]) {
      return Status::Internal("rid " + std::to_string(rids[i]) + " of row " +
                              std::to_string(i) +
                              " is held by no parent and is not the next new record");
    }
    const RecordId expected = next_rid_ + static_cast<RecordId>(next_new);
    if (rids[i] != expected) {
      return Status::Internal("new record rid " + std::to_string(rids[i]) +
                              " is out of sequence (expected " +
                              std::to_string(expected) + ")");
    }
    source_row[i] = static_cast<uint32_t>(next_new++);
  }
  if (next_new != new_rids.size()) {
    return Status::Internal(std::to_string(new_rids.size() - next_new) +
                            " new records are not rows of the version");
  }
  VersionId primary_parent = -1;
  if (!parents.empty()) {
    size_t best = 0;
    for (size_t p = 1; p < parents.size(); ++p) {
      if (weights[p] > weights[best]) best = p;
    }
    primary_parent = parents[best];
  }

  // --- Rebuild the rows, one gather per run from one source ------------
  // They replace the staged table's content, which is resolved by now
  // and is released first.
  ORPHEUS_ASSIGN_OR_RETURN(rel::Table * staged, db_->GetTable(staged_it->first));
  staged->mutable_chunk() = rel::Chunk();
  rel::Chunk rows(record_schema);
  std::vector<uint32_t> run;
  for (size_t i = 0; i < rids.size();) {
    const uint32_t s = source[i];
    run.clear();
    for (; i < rids.size() && source[i] == s; ++i) run.push_back(source_row[i]);
    rows.GatherFrom(s == from_new ? new_records : parent_rows[s], run);
  }

  // --- Persist ----------------------------------------------------------
  VersionId vid = next_vid_++;
  next_rid_ += static_cast<RecordId>(new_rids.size());
  staged->mutable_chunk() = std::move(rows);
  ORPHEUS_RETURN_NOT_OK(
      model_->AddVersion(vid, staged_it->first, rids, new_records, primary_parent));
  ORPHEUS_RETURN_NOT_OK(graph_.AddVersion(vid, parents, weights,
                                          static_cast<int64_t>(rids.size())));
  version_attrs_[vid] = attr_ids;
  ORPHEUS_RETURN_NOT_OK(AppendMetadataRow(vid, parents,
                                          staged_it->second.checkout_time,
                                          ++logical_clock_, message, attr_ids));

  // Commit removes the table from the staging area (§2.3).
  ORPHEUS_RETURN_NOT_OK(db_->DropTable(staged_it->first));
  staged_.erase(staged_it);
  return vid;
}

Result<rel::Chunk> Cvd::Diff(VersionId a, VersionId b) {
  ORPHEUS_ASSIGN_OR_RETURN(rel::Chunk rows_a, model_->VersionRows(a));
  ORPHEUS_ASSIGN_OR_RETURN(std::vector<RecordId> rids_b, model_->VersionRecords(b));
  std::unordered_set<RecordId> b_set(rids_b.begin(), rids_b.end());
  int rid_col = rows_a.schema().FindColumn("rid");
  std::vector<uint32_t> keep;
  for (size_t r = 0; r < rows_a.num_rows(); ++r) {
    if (b_set.count(rows_a.column(rid_col).ints()[r]) == 0) {
      keep.push_back(static_cast<uint32_t>(r));
    }
  }
  rel::Chunk out(rows_a.schema());
  out.GatherFrom(rows_a, keep);
  return out;
}

Status Cvd::DiscardStaged(const std::string& table_name) {
  auto it = staged_.find(table_name);
  if (it == staged_.end()) {
    return Status::NotFound("not a staged table: " + table_name);
  }
  ORPHEUS_RETURN_NOT_OK(db_->DropTable(table_name, /*if_exists=*/true));
  staged_.erase(it);
  return Status::OK();
}

}  // namespace orpheus::core
