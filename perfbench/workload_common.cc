#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/csv.h"
#include "common/str_util.h"
#include "core/query_translator.h"
#include "workloads.h"

namespace perfbench {

using orpheus::Result;
using orpheus::Status;

orpheus::wl::DatasetSpec Spec(orpheus::wl::WorkloadKind kind, int versions,
                              int branches, int inserts) {
  orpheus::wl::DatasetSpec spec;
  spec.kind = kind;
  spec.num_versions = versions;
  spec.num_branches = branches;
  spec.inserts_per_version = inserts;
  spec.num_attrs = kAttrs + 1;  // k + a1..a20
  spec.merge_probability = 0.15;
  spec.seed = kDatasetSeed;
  return spec;
}

size_t Sweep::Pick(size_t n) {
  u_ += 0.6180339887498949;  // 1 / golden ratio
  u_ -= std::floor(u_);
  return std::min(n - 1, static_cast<size_t>(u_ * static_cast<double>(n)));
}

Deck::Deck(size_t n, orpheus::Rng* rng) : rng_(rng), cards_(n), next_(n) {
  for (size_t i = 0; i < n; ++i) cards_[i] = i;
}

size_t Deck::Next() {
  if (next_ == cards_.size()) {
    for (size_t i = cards_.size(); i > 1; --i) std::swap(cards_[i - 1], cards_[rng_->Uniform(i)]);
    next_ = 0;
  }
  return cards_[next_++];
}

namespace {

int64_t LiveRecords(const orpheus::wl::Dataset& data) {
  std::vector<bool> seen(static_cast<size_t>(data.num_records()), false);
  int64_t live = 0;
  for (const orpheus::wl::VersionSpec& v : data.versions()) {
    for (orpheus::core::RecordId rid : v.rids) {
      if (!seen[static_cast<size_t>(rid)]) {
        seen[static_cast<size_t>(rid)] = true;
        ++live;
      }
    }
  }
  return live;
}

// The spec plus the generated shape: records and version sizes.
std::string DatasetName(const orpheus::wl::Dataset& data) {
  const orpheus::wl::DatasetSpec& spec = data.spec();
  std::vector<double> rows;
  for (const orpheus::wl::VersionSpec& v : data.versions()) {
    rows.push_back(static_cast<double>(v.rids.size()));
  }
  std::sort(rows.begin(), rows.end());
  return orpheus::StrFormat(
      "%s |V|=%d B=%d I=%d attrs=%d merge_p=%.2f generator_seed=%llu: |R|=%lld, "
      "version rows min/median/max %.0f/%.0f/%.0f",
      spec.kind == orpheus::wl::WorkloadKind::kSci ? "SCI" : "CUR",
      spec.num_versions, spec.num_branches, spec.inserts_per_version, spec.num_attrs,
      spec.kind == orpheus::wl::WorkloadKind::kCur ? spec.merge_probability : 0.0,
      static_cast<unsigned long long>(spec.seed), static_cast<long long>(LiveRecords(data)),
      rows.front(), Median(rows), rows.back());
}

Status LoadDataset(orpheus::core::EngineApi* api, const orpheus::wl::Dataset& data,
                   const ContentModel& model, const std::string& cvd,
                   const std::string& work_dir, std::vector<double>* commit_ms) {
  std::shared_ptr<orpheus::core::SessionContext> ctx = api->NewSession();
  const std::vector<orpheus::wl::VersionSpec>& versions = data.versions();
  const std::string csv = work_dir + "/" + cvd + "_v1.csv";
  ORPHEUS_RETURN_NOT_OK(
      orpheus::WriteCsvFile(csv, data.RowsFor(versions.front().rids)));
  Result<std::string> r = api->Execute(ctx.get(), "init " + cvd + " -f " + csv + " -pk k");
  std::remove(csv.c_str());
  ORPHEUS_RETURN_NOT_OK(r.status());
  const std::string table = cvd + "_load";
  for (size_t i = 1; i < versions.size(); ++i) {
    const orpheus::wl::VersionSpec& v = versions[i];
    std::string parents;
    for (orpheus::core::VersionId p : v.parents) {
      parents += (parents.empty() ? "" : ",") + std::to_string(p);
    }
    ORPHEUS_RETURN_NOT_OK(
        api->Execute(ctx.get(), "checkout " + cvd + " -v " + parents + " -t " + table)
            .status());
    ORPHEUS_ASSIGN_OR_RETURN(orpheus::rel::Table * staged,
                             api->orpheus()->db()->GetTable(table));
    staged->mutable_chunk() = model.Rows(model.Version(v.vid), staged->schema());
    const double t0 = Now();
    r = api->Execute(ctx.get(), "commit -t " + table + " -m load");
    commit_ms->push_back((Now() - t0) * 1e3);
    ORPHEUS_RETURN_NOT_OK(r.status());
    if (ParseCommittedVid(r.value()) != v.vid) {
      return Status::Internal("load commit produced " + r.value() + ", expected v" +
                              std::to_string(v.vid));
    }
  }
  api->CloseSession(ctx.get(), /*discard_staged=*/true);
  return Status::OK();
}

}  // namespace

Result<orpheus::wl::Dataset> Workload::Load(const orpheus::wl::DatasetSpec& spec,
                                            const std::string& cvd, const Options& opt,
                                            orpheus::core::EngineApi* api,
                                            ContentModel* model) {
  const double t0 = Now();
  orpheus::wl::Dataset data = orpheus::wl::Generate(spec);
  *model = ContentModel();
  model->LoadDataset(data);
  generate_s = Now() - t0;
  dataset = DatasetName(data);
  load_commit_ms.clear();
  ORPHEUS_RETURN_NOT_OK(LoadDataset(api, data, *model, cvd, opt.work_dir, &load_commit_ms));
  ORPHEUS_ASSIGN_OR_RETURN(orpheus::core::Cvd * loaded, api->orpheus()->GetCvd(cvd));
  const int64_t live = LiveRecords(data);
  if (loaded->total_records() != live) {
    return Status::Internal("loaded " + std::to_string(loaded->total_records()) +
                            " records, generator versions hold " + std::to_string(live));
  }
  return data;
}

Session::Session(orpheus::core::EngineApi* api, Recorder* rec, Tracer* tracer)
    : api_(api), rec_(rec), tracer_(tracer), ctx_(api->NewSession()) {}

Result<std::string> Session::Call(const std::string& verb, const std::string& line) {
  const double t0 = Now();
  Result<std::string> reply = api_->Execute(ctx_.get(), line);
  const double t1 = Now();
  if (tracer_ != nullptr) tracer_->Request(verb, ctx_->id(), t0, t1);
  if (reply.ok()) {
    rec_->Ok(verb, (t1 - t0) * 1e3);
  } else {
    rec_->Fail(verb, reply.status().ToString());
  }
  return reply;
}

int64_t ParseCommittedVid(const std::string& reply) {
  const std::string prefix = "committed version ";
  if (reply.rfind(prefix, 0) != 0) return -1;
  return std::strtoll(reply.c_str() + prefix.size(), nullptr, 10);
}

std::vector<int64_t> Leaves(const orpheus::wl::Dataset& data) {
  std::vector<bool> has_child(data.versions().size() + 1, false);
  for (const orpheus::wl::VersionSpec& v : data.versions()) {
    for (orpheus::core::VersionId p : v.parents) has_child[static_cast<size_t>(p)] = true;
  }
  std::vector<int64_t> out;
  for (const orpheus::wl::VersionSpec& v : data.versions()) {
    if (!has_child[static_cast<size_t>(v.vid)]) out.push_back(v.vid);
  }
  return out;
}

std::string FilteredAggSql(const std::string& cvd, int64_t vid, int64_t bound) {
  return orpheus::StrFormat(
      "run SELECT count(*), sum(a1), sum(a2) FROM VERSION %lld OF CVD %s "
      "WHERE a%d < %lld",
      static_cast<long long>(vid), cvd.c_str(), kFilterAttr,
      static_cast<long long>(bound));
}

int64_t BoundFor(double share) {
  return static_cast<int64_t>(share * 2147483648.0);
}

bool CheckRow(Recorder* rec, const std::string& verb, const std::string& what,
              const std::string& reply, const std::vector<int64_t>& expected) {
  std::vector<std::vector<int64_t>> rows;
  if (ParseIntRows(reply, &rows) && rows.size() == 1 && rows[0] == expected) {
    return true;
  }
  std::string want;
  for (int64_t v : expected) want += std::to_string(v) + " ";
  rec->Fail(verb, "oracle mismatch on " + what + ": expected [" + want + "] got " +
                      reply.substr(0, 200));
  return false;
}

void CheckStaged(orpheus::core::EngineApi* api, const std::string& table,
                 Recorder* rec, const Sums& expected) {
  Result<orpheus::rel::Table*> t = api->orpheus()->db()->GetTable(table);
  Sums got = t.ok() ? SumsOfChunk(t.value()->data()) : Sums();
  if (!(got == expected)) {
    rec->Fail("oracle",
              "staged table: expected " + expected.ToString() + " got " + got.ToString());
  }
}

void ProbeTranslate(orpheus::core::EngineApi* api, const std::string& sql,
                    Tracer* tracer) {
  orpheus::core::OrpheusDB* db = api->orpheus();
  orpheus::core::TableResolver resolver = [db](const std::string& name,
                                               orpheus::core::VersionId vid) {
    return db->ResolveTables(name, vid);
  };
  const double t0 = Now();
  Result<std::string> translated = orpheus::core::TranslateVersionedSql(sql, resolver);
  tracer->Probe("translate", Now() - t0);
  (void)translated;
}

void CommonLayerMetrics(const std::map<std::string, double>& before,
                        const std::map<std::string, double>& after,
                        const Tracer& tracer, double wall_s, double cpu_s,
                        Report* out) {
  auto d = [&](const std::string& key) { return Delta(before, after, key); };
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  std::vector<Metric>& m = out->layer;

  // relstore: operator seconds (inclusive of nested operators) and the
  // executor's work counters.
  for (const char* op : {"scan", "filter", "project", "hash_build", "hash_probe",
                         "inl_probe", "aggregate", "order_by", "merge_sort"}) {
    m.push_back({std::string("relstore.op_s.") + op,
                 d(std::string("orpheus_operator_seconds{op=") + op + "}_sum"), "s"});
  }
  const double scanned = d("orpheus_exec_rows_scanned_total");
  m.push_back({"relstore.rows_scanned", scanned, "count"});
  m.push_back({"relstore.pages_read", d("orpheus_exec_pages_read_total"), "count"});
  m.push_back({"relstore.index_probes", d("orpheus_exec_index_probes_total"), "count"});
  m.push_back({"relstore.batches", d("orpheus_exec_batches_total"), "count"});
  m.push_back({"relstore.rows_out_per_scanned",
               ratio(static_cast<double>(tracer.statement_rows_out()), scanned),
               "ratio"});

  // core.engine_api: stage seconds.
  m.push_back({"core.engine_api.lock_wait_s.exclusive",
               d("orpheus_lock_wait_seconds{mode=exclusive}_sum"), "s"});
  m.push_back({"core.engine_api.lock_wait_s.shared",
               d("orpheus_lock_wait_seconds{mode=shared}_sum"), "s"});
  m.push_back({"core.engine_api.parse_s", d("orpheus_stage_seconds{stage=parse}_sum"), "s"});
  m.push_back({"core.engine_api.execute_s",
               d("orpheus_stage_seconds{stage=execute}_sum"), "s"});

  // server: frames and payload bytes.
  const double frames_in = d("orpheus_frames_total{dir=in}");
  m.push_back({"server.frames", frames_in + d("orpheus_frames_total{dir=out}"), "count"});
  m.push_back({"server.net_bytes_per_op",
               ratio(d("orpheus_net_bytes_total{dir=in}") +
                         d("orpheus_net_bytes_total{dir=out}"),
                     frames_in),
               "B"});

  // storage: WAL, group commit, checkpoints, I/O calls by file class.
  const double wal_bytes = d("orpheus_wal_bytes_written_total");
  const double wal_records = d("orpheus_wal_records_total");
  const double wal_syncs = d("orpheus_wal_syncs_total");
  m.push_back({"storage.wal_bytes", wal_bytes, "B"});
  m.push_back({"storage.wal_records", wal_records, "count"});
  m.push_back({"storage.wal_syncs", wal_syncs, "count"});
  m.push_back({"storage.records_per_sync", ratio(wal_records, wal_syncs), "ratio"});
  m.push_back({"storage.wal_bytes_per_commit",
               ratio(wal_bytes, d("orpheus_ops_total{verb=commit}")), "B"});
  m.push_back({"storage.wal_enqueue_s",
               d("orpheus_stage_seconds{stage=wal_enqueue}_sum"), "s"});
  m.push_back({"storage.group_commit_sync_s",
               d("orpheus_stage_seconds{stage=group_commit_sync}_sum"), "s"});
  m.push_back({"storage.checkpoints", d("orpheus_checkpoints_total"), "count"});
  m.push_back({"storage.checkpoint_s",
               d("orpheus_stage_seconds{stage=checkpoint}_sum"), "s"});
  m.push_back({"storage.segments_written",
               d("orpheus_checkpoint_segments_written_total"), "count"});
  m.push_back({"storage.segments_reused",
               d("orpheus_checkpoint_segments_reused_total"), "count"});
  m.push_back({"storage.checkpoint_bytes",
               d("orpheus_checkpoint_bytes_written_total"), "B"});
  for (const char* cls : {"wal", "segment", "manifest"}) {
    m.push_back({std::string("storage.io_writes.") + cls,
                 d(std::string("orpheus_io_writes_total{class=") + cls + "}"), "count"});
    m.push_back({std::string("storage.io_syncs.") + cls,
                 d(std::string("orpheus_io_syncs_total{class=") + cls + "}"), "count"});
  }

  // Span tree: per-verb call span and each layer's self time.
  double transport_ms = 0;
  size_t transport_n = 0;
  for (const char* verb : {"checkout", "commit", "query"}) {
    std::map<std::string, double> layers = tracer.LayerMeansMs(verb);
    const std::string v = verb;
    m.push_back({v + ".span_ms", layers["span"], "ms"});
    for (const char* layer : {"transport", "core.engine_api", "core", "relstore", "storage"}) {
      m.push_back({v + ".self." + layer + "_ms", layers[layer], "ms"});
    }
    size_t n = tracer.Requests(verb);
    transport_ms += layers["transport"] * static_cast<double>(n);
    transport_n += n;
    if (v == "commit") m.push_back({"core.cvd.commit_self_ms", layers["core"], "ms"});
  }
  m.push_back({"server.transport_ms",
               transport_n == 0 ? 0 : transport_ms / static_cast<double>(transport_n),
               "ms"});
  m.push_back({"trace.self_sum_residual_ms", tracer.MaxSelfResidualMs(), "ms"});
  m.push_back({"trace.unmatched_requests", static_cast<double>(tracer.unmatched()),
               "count"});
  m.push_back({"process.cpu_util", ratio(cpu_s, wall_s), "ratio"});
}

}  // namespace perfbench
