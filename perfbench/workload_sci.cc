// sci_edit_loop: one in-process session repeats checkout -> edit ->
// commit -> query on an SCI version tree (split-by-rlist, PK k, 20 INT
// attributes). Each round checks out a branch tip or an ancestor,
// updates 0%, 1% or 10% of its rows, deletes and inserts a few, commits,
// and aggregates over the new version. Commits that append records
// invalidate the engine's lazily built rid index.

#include <algorithm>

#include "common/str_util.h"
#include "workloads.h"

namespace perfbench {

namespace {

using orpheus::Result;
using orpheus::Status;

constexpr char kCvd[] = "sci";
constexpr char kTable[] = "sci_work";
constexpr int kDeletes = 5;
constexpr int kInserts = 5;
constexpr double kEditFractions[] = {0.0, 0.01, 0.10};
constexpr size_t kFractions = 3;
// Ancestors checked out: this many loaded versions, evenly spaced by
// size.
constexpr size_t kAncestors = 8;

class SciEditLoop : public Workload {
 public:
  Status Setup(const Options& opt) override {
    opt_ = opt;
    api_.reset();  // free the previous engine before building the next
    api_ = std::make_unique<orpheus::core::EngineApi>();
    ORPHEUS_ASSIGN_OR_RETURN(
        orpheus::wl::Dataset data,
        Load(Spec(orpheus::wl::WorkloadKind::kSci, 40, 4, 400), kCvd, opt, api_.get(), &model_));
    tips_ = Leaves(data);
    std::vector<int64_t> inner;
    for (int64_t v : model_.VersionIdsBySize()) {
      if (std::find(tips_.begin(), tips_.end(), v) == tips_.end()) inner.push_back(v);
    }
    ancestors_.clear();
    for (size_t i = 0; i < kAncestors; ++i) {
      ancestors_.push_back(inner[(2 * i + 1) * inner.size() / (2 * kAncestors)]);
    }
    next_vid_ = static_cast<int64_t>(data.versions().size()) + 1;
    storage_bytes = api_->orpheus()->db()->TotalByteSize();
    return Status::OK();
  }

  int64_t Measure(double deadline, int64_t max_rounds, Recorder* rec,
                  Tracer* tracer) override {
    Session session(api_.get(), rec, tracer);
    orpheus::Rng rng(opt_.seed * 7919 + 11);
    // Each block of cards checks out every tip and every chosen ancestor
    // once with each edit fraction: the seed orders the rounds and places
    // the edits, but every run makes the same mix of checkouts, commits
    // and queries, which keeps the medians steady across seeds.
    Deck cards((tips_.size() + ancestors_.size()) * kFractions, &rng);
    rows_resolved_ = 0;
    new_records_ = 0;
    int64_t rounds = 0;
    while (rounds < max_rounds && Now() < deadline) {
      Round(&rng, cards.Next(), &session, rec, tracer);
      ++rounds;
    }
    return rounds;
  }

  void Finish(bool traced, Recorder* rec, Tracer* tracer, Report* out) override {
    (void)rec;
    if (!traced) return;
    auto median_ms = [&](const char* probe, double scale) {
      return Median(tracer->ProbeSamples(probe)) * scale;
    };
    std::vector<Metric>& m = out->layer;
    m.push_back({"core.cvd.rows_resolved", static_cast<double>(rows_resolved_), "count"});
    m.push_back({"core.cvd.new_records", static_cast<double>(new_records_), "count"});
    m.push_back({"core.cvd.reuse_ratio",
                 rows_resolved_ > 0 ? 1.0 - static_cast<double>(new_records_) /
                                                static_cast<double>(rows_resolved_)
                                    : 0.0,
                 "ratio"});
    m.push_back({"core.data_model.version_rows_ms", median_ms("version_rows", 1e3), "ms"});
    m.push_back({"core.data_model.checkout_ms", median_ms("data_model_checkout", 1e3), "ms"});
    m.push_back({"core.query_translator.translate_us", median_ms("translate", 1e6), "us"});
    out->notes.push_back(
        "partition.*, optimize_s, cvd_query_s: sci_edit_loop never optimizes; "
        "recovery_s, disk_mb, storage.*, server.*: in-memory, single session");
  }

 private:
  // A round's card picks the version checked out, a branch tip or an
  // ancestor, and the edit fraction.
  void Round(orpheus::Rng* rng, size_t card, Session* s, Recorder* rec, Tracer* tracer) {
    const size_t slot = card / kFractions;
    const bool from_tip = slot < tips_.size();
    const int64_t target = from_tip ? tips_[slot] : ancestors_[slot - tips_.size()];
    const double fraction = kEditFractions[card % kFractions];
    const Cids parent = model_.Version(target);
    const size_t n = parent.size();
    const size_t updates = static_cast<size_t>(fraction * static_cast<double>(n));
    const size_t upd_at = rng->Uniform(n - updates - 1);
    const size_t del_at = rng->Uniform(n - kDeletes - 1);
    const uint32_t first_new_cid = model_.AddFresh();  // marks this round's cids

    if (!s->Call("checkout", orpheus::StrFormat("checkout %s -v %lld -t %s", kCvd,
                                                static_cast<long long>(target), kTable))
             .ok()) {
      return;
    }
    CheckStaged(api_.get(), kTable, rec, model_.SumsOf(parent));
    if (tracer != nullptr) ProbeCheckout(target, tracer);

    // Edits, mirrored in the model: bump a1 on a key range, delete a
    // few keys, insert fresh rows.
    Cids child = parent;
    for (size_t p = upd_at; p < upd_at + updates; ++p) child[p] = model_.AddBumped(parent[p]);
    std::string update = orpheus::StrFormat(
        "sql UPDATE %s SET a1 = a1 + 1 WHERE k >= %lld AND k < %lld", kTable,
        static_cast<long long>(model_.Key(parent[upd_at])),
        static_cast<long long>(model_.Key(parent[upd_at + updates])));
    std::string del = orpheus::StrFormat(
        "sql DELETE FROM %s WHERE k >= %lld AND k < %lld", kTable,
        static_cast<long long>(model_.Key(child[del_at])),
        static_cast<long long>(model_.Key(child[del_at + kDeletes])));
    child.erase(child.begin() + static_cast<long>(del_at),
                child.begin() + static_cast<long>(del_at + kDeletes));
    std::string insert = std::string("sql INSERT INTO ") + kTable + " (k";
    for (int a = 1; a <= kAttrs; ++a) insert += ", a" + std::to_string(a);
    insert += ") VALUES ";
    for (int i = 0; i < kInserts; ++i) {
      uint32_t cid = i == 0 ? first_new_cid : model_.AddFresh();
      child.push_back(cid);
      insert += i == 0 ? "(" : ", (";
      for (int a = 0; a <= kAttrs; ++a) {
        insert += (a == 0 ? "" : ", ") + std::to_string(model_.Attr(cid, a));
      }
      insert += ")";
    }
    for (const std::string& edit : {update, del, insert}) {
      if (!s->Call("edit", edit).ok()) {
        (void)s->Call("discard", std::string("discard -t ") + kTable);
        return;
      }
    }

    orpheus::core::Cvd* cvd = api_->orpheus()->GetCvd(kCvd).value();
    const int64_t records_before = cvd->total_records();
    Result<std::string> reply = s->Call("commit", std::string("commit -t ") + kTable + " -m r");
    if (!reply.ok()) return;
    const int64_t vid = ParseCommittedVid(reply.value());
    int64_t expected_new = 0;
    for (uint32_t cid : child) expected_new += cid >= first_new_cid ? 1 : 0;
    const int64_t appended = cvd->total_records() - records_before;
    if (vid != next_vid_ || appended != expected_new) {
      rec->Fail("commit", orpheus::StrFormat(
                              "expected v%lld with %lld new records, got '%s' with %lld",
                              static_cast<long long>(next_vid_),
                              static_cast<long long>(expected_new), reply.value().c_str(),
                              static_cast<long long>(appended)));
      return;
    }
    rows_resolved_ += static_cast<int64_t>(child.size());
    new_records_ += appended;
    ++next_vid_;
    model_.SetVersion(vid, child);
    // A tip's child becomes the branch's tip; an ancestor's child is a
    // side branch that later rounds leave alone.
    if (from_tip) tips_[slot] = vid;
    if (tracer != nullptr) {
      const double t0 = Now();
      Result<orpheus::rel::Chunk> rows = cvd->model()->VersionRows(target);
      tracer->Probe("version_rows", Now() - t0);
      if (!rows.ok()) rec->Fail("probe", rows.status().ToString());
    }

    const int64_t bound = BoundFor(0.5);
    const std::string sql = FilteredAggSql(kCvd, vid, bound);
    reply = s->Call("query", sql);
    if (reply.ok()) {
      CheckRow(rec, "query", "filtered aggregate", reply.value(),
               model_.FilteredAgg(model_.Version(vid), kFilterAttr, bound));
    }
    if (tracer != nullptr) ProbeTranslate(api_.get(), sql.substr(4), tracer);
  }

  // Read-only probes of the layers below the verbs (traced run only).
  void ProbeCheckout(int64_t vid, Tracer* tracer) {
    orpheus::core::Cvd* cvd = api_->orpheus()->GetCvd(kCvd).value();
    const double t0 = Now();
    Status st = cvd->model()->CheckoutVersion(vid, "sci_probe");
    tracer->Probe("data_model_checkout", Now() - t0);
    if (st.ok()) (void)api_->orpheus()->db()->DropTable("sci_probe");
  }

  Options opt_;
  std::unique_ptr<orpheus::core::EngineApi> api_;
  ContentModel model_;
  std::vector<int64_t> tips_;       // current tip of each branch
  std::vector<int64_t> ancestors_;  // loaded inner versions, by size
  int64_t next_vid_ = 1;
  int64_t rows_resolved_ = 0;
  int64_t new_records_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeSciEditLoop() { return std::make_unique<SciEditLoop>(); }

}  // namespace perfbench
