// cur_query_optimize: one in-process session on a CUR version DAG with
// merges. The measured phase runs in epochs on freshly loaded state.
// Each opens with curator merges (every loaded version checked out with
// its parent behind it, then committed; they reuse existing records
// only), then `optimize` (LyreSplit plus partition build), then reads
// only: passes over every version with single-version aggregates,
// two-version joins, single and merging checkouts that are discarded,
// and a CVD-wide GROUP BY vid scan per pass. Reads never append records,
// so the rid index stays valid.

#include <algorithm>
#include <cstdlib>

#include "common/str_util.h"
#include "partition/lyresplit.h"
#include "workloads.h"

namespace perfbench {

namespace {

using orpheus::Result;
using orpheus::Status;

constexpr char kCvd[] = "cur";
constexpr char kTable[] = "cur_work";
constexpr int kCheckoutProbes = 8;
// Every kMergingCheckoutEvery-th version read also gets a merging
// checkout. Merging checkouts are their own verb: they cost several
// single ones, and mixed in they would split checkout_ms into two modes.
constexpr size_t kMergingCheckoutEvery = 3;
constexpr int kReadPassesPerEpoch = 2;

class CurQueryOptimize : public Workload {
 public:
  Status Setup(const Options& opt) override {
    opt_ = opt;
    api_.reset();  // free the previous engine before building the next
    api_ = std::make_unique<orpheus::core::EngineApi>();
    ORPHEUS_ASSIGN_OR_RETURN(
        orpheus::wl::Dataset data,
        Load(Spec(orpheus::wl::WorkloadKind::kCur, 40, 4, 100), kCvd, opt, api_.get(), &model_));
    next_vid_ = static_cast<int64_t>(data.versions().size()) + 1;
    by_size_ = model_.VersionIdsBySize();
    first_parent_.clear();
    for (const orpheus::wl::VersionSpec& v : data.versions()) {
      if (!v.parents.empty()) first_parent_[v.vid] = v.parents.front();
    }
    return Status::OK();
  }

  // The measured phase runs in epochs. Each starts from freshly loaded
  // state (reloaded outside any request, and left out of ops_per_s),
  // merges, optimizes and then reads, so that commits and optimizes are
  // sampled across the whole run rather than in its first second.
  int64_t Measure(double deadline, int64_t max_rounds, Recorder* rec,
                  Tracer* tracer) override {
    orpheus::Rng rng(opt_.seed * 7919 + 23);
    Sweep partner(&rng);
    rows_resolved_ = 0;
    optimize_ms_.clear();
    reload_s = 0;
    int64_t rounds = 0;
    // Claims the next round, if the run has one left.
    auto next = [&] {
      if (rounds >= max_rounds || Now() >= deadline) return false;
      ++rounds;
      return true;
    };
    for (bool first = true; rounds < max_rounds && Now() < deadline; first = false) {
      if (!first) {
        const double t0 = Now();
        Status st = Setup(opt_);
        reload_s += Now() - t0;
        if (!st.ok()) {
          rec->Fail("reload", st.ToString());
          break;
        }
      }
      Epoch(&rng, &partner, next, rec, tracer);
    }
    return rounds;
  }

  void Finish(bool traced, Recorder* rec, Tracer* tracer, Report* out) override {
    if (!traced) return;
    auto median_ms = [&](const char* probe, double scale) {
      return Median(tracer->ProbeSamples(probe)) * scale;
    };
    std::vector<Metric>& m = out->layer;
    m.push_back({"core.cvd.rows_resolved", static_cast<double>(rows_resolved_), "count"});
    // Merges append no records (checked on every commit).
    m.push_back({"core.cvd.new_records", 0, "count"});
    m.push_back({"core.cvd.reuse_ratio", rows_resolved_ > 0 ? 1.0 : 0.0, "ratio"});
    m.push_back({"core.data_model.version_rows_ms", median_ms("version_rows", 1e3), "ms"});
    const double dm = median_ms("data_model_checkout", 1e3);
    const double pt = median_ms("partition_checkout", 1e3);
    m.push_back({"core.data_model.checkout_ms", dm, "ms"});
    m.push_back({"partition.checkout_ms", pt, "ms"});
    m.push_back({"partition.checkout_speedup", pt > 0 ? dm / pt : 0, "ratio"});
    const double lyresplit_ms = median_ms("lyresplit", 1e3);
    m.push_back({"partition.lyresplit_ms", lyresplit_ms, "ms"});
    const double optimize_ms = Median(optimize_ms_);
    m.push_back({"partition.build_s", std::max(0.0, optimize_ms - lyresplit_ms) / 1e3, "s"});
    m.push_back({"optimize_s", optimize_ms / 1e3, "s"});
    m.push_back({"partition.storage_records", storage_records_, "count"});
    m.push_back({"partition.avg_checkout_records", avg_checkout_records_, "count"});
    m.push_back({"partition.count", partitions_, "count"});
    m.push_back({"cvd_query_s", Median(rec->Samples("cvd_query")) / 1e3, "s"});
    m.push_back({"merge_checkout_ms.p50", Median(rec->Samples("merge_checkout")), "ms"});
    m.push_back({"core.query_translator.translate_us", median_ms("translate", 1e6), "us"});
    out->notes.push_back(
        "recovery_s, disk_mb, storage.*, server.*: in-memory, single session");
  }

 private:
  // One epoch on freshly loaded state; `next()` claims each round.
  template <typename Next>
  void Epoch(orpheus::Rng* rng, Sweep* partner, Next& next, Recorder* rec, Tracer* tracer) {
    Session session(api_.get(), rec, tracer);
    // Curation: every loaded version with a parent is merged with it, in
    // version order. Set and order are fixed, so every epoch commits the
    // same merges onto the same states and partitions the same version
    // graph.
    for (const auto& [vid, parent] : first_parent_) {
      if (!next()) return;
      MergeRound(vid, &session, rec, tracer);
    }
    by_size_ = model_.VersionIdsBySize();
    if (!next()) return;
    Optimize(&session, rec, tracer);
    // Reads: passes over every version in seed order, each pass closed
    // by a CVD-wide scan.
    std::vector<int64_t> order = model_.VersionIds();
    for (int pass = 0; pass < kReadPassesPerEpoch; ++pass) {
      Shuffle(&order, rng);
      for (size_t i = 0; i < order.size(); ++i) {
        if (!next()) return;
        ReadVersion(order[i], i % kMergingCheckoutEvery == 0, rng, partner, &session, rec,
                    tracer);
      }
      if (!next()) return;
      CvdScan(&session, rec);
    }
  }

  static void Shuffle(std::vector<int64_t>* v, orpheus::Rng* rng) {
    for (size_t i = v->size(); i > 1; --i) std::swap((*v)[i - 1], (*v)[rng->Uniform(i)]);
  }

  // Picks are stratified by version size (see Sweep).
  int64_t PickVersion(Sweep* sweep) const { return by_size_[sweep->Pick(by_size_.size())]; }
  // A second version, distinct from `a`.
  int64_t PickOther(Sweep* sweep, int64_t a) const {
    size_t i = sweep->Pick(by_size_.size());
    return by_size_[i] == a ? by_size_[(i + 1) % by_size_.size()] : by_size_[i];
  }

  // Curator merge: loaded version `a` checked out with its parent
  // behind it (restoring the parent's records it dropped), committed.
  void MergeRound(int64_t a, Session* s, Recorder* rec, Tracer* tracer) {
    const int64_t b = first_parent_.at(a);
    const Cids merged = model_.Merge(model_.Version(a), model_.Version(b));
    if (!s->Call("merge_checkout", orpheus::StrFormat("checkout %s -v %lld,%lld -t %s", kCvd,
                                                static_cast<long long>(a),
                                                static_cast<long long>(b), kTable))
             .ok()) {
      return;
    }
    CheckStaged(api_.get(), kTable, rec, model_.SumsOf(merged));
    orpheus::core::Cvd* cvd = api_->orpheus()->GetCvd(kCvd).value();
    const int64_t records_before = cvd->total_records();
    Result<std::string> reply = s->Call("commit", std::string("commit -t ") + kTable + " -m merge");
    if (!reply.ok()) return;
    const int64_t vid = ParseCommittedVid(reply.value());
    const int64_t appended = cvd->total_records() - records_before;
    if (vid != next_vid_ || appended != 0) {
      rec->Fail("commit", "merge: expected v" + std::to_string(next_vid_) +
                              " with no new records, got '" + reply.value() + "' with " +
                              std::to_string(appended));
      return;
    }
    rows_resolved_ += static_cast<int64_t>(merged.size());
    ++next_vid_;
    model_.SetVersion(vid, merged);
    if (tracer != nullptr) {
      const double t0 = Now();
      Result<orpheus::rel::Chunk> rows = cvd->model()->VersionRows(a);
      tracer->Probe("version_rows", Now() - t0);
      if (!rows.ok()) rec->Fail("probe", rows.status().ToString());
    }
  }

  void Optimize(Session* s, Recorder* rec, Tracer* tracer) {
    const double t0 = Now();
    Result<std::string> reply = s->Call("optimize", std::string("optimize ") + kCvd);
    if (!reply.ok()) return;
    optimize_ms_.push_back((Now() - t0) * 1e3);
    storage_bytes = api_->orpheus()->db()->TotalByteSize();
    orpheus::part::PartitionStore* store = api_->orpheus()->partition_store(kCvd);
    if (store == nullptr ||
        store->num_versions() != static_cast<size_t>(next_vid_ - 1)) {
      rec->Fail("optimize", "partition store missing or incomplete: " + reply.value());
      return;
    }
    storage_records_ = static_cast<double>(store->StorageRecords());
    avg_checkout_records_ = store->AvgCheckoutCost();
    partitions_ = static_cast<double>(store->num_partitions());
    if (tracer != nullptr && optimize_ms_.size() == 1) ProbeCheckouts(rec, tracer);
    if (tracer != nullptr) {
      orpheus::core::Cvd* cvd = api_->orpheus()->GetCvd(kCvd).value();
      const int64_t gamma = 2 * cvd->total_records();  // optimize's default budget
      const double p0 = Now();
      auto split = orpheus::part::LyreSplit::RunForBudget(cvd->graph(), gamma);
      tracer->Probe("lyresplit", Now() - p0);
      if (!split.ok()) rec->Fail("probe", split.status().ToString());
    }
  }

  // Reads of version v: two filtered aggregates and a join with a
  // partner version (query), a checkout, and optionally a merging
  // checkout with the partner; checkouts are discarded.
  void ReadVersion(int64_t v, bool merging, orpheus::Rng* rng, Sweep* partner, Session* s,
                   Recorder* rec, Tracer* tracer) {
    for (int i = 0; i < 2; ++i) {
      const int64_t bound = BoundFor(0.05 + 0.9 * rng->NextDouble());
      const std::string sql = FilteredAggSql(kCvd, v, bound);
      Result<std::string> reply = s->Call("query", sql);
      if (reply.ok()) {
        CheckRow(rec, "query", "aggregate", reply.value(),
                 model_.FilteredAgg(model_.Version(v), kFilterAttr, bound));
      }
      if (tracer != nullptr) ProbeTranslate(api_.get(), sql.substr(4), tracer);
    }
    const int64_t w = PickOther(partner, v);
    const std::string sql = orpheus::StrFormat(
        "run SELECT count(*), sum(x.a1) FROM VERSION %lld OF CVD %s AS x, "
        "VERSION %lld OF CVD %s AS y WHERE x.k = y.k AND x.a2 <> y.a2",
        static_cast<long long>(v), kCvd, static_cast<long long>(w), kCvd);
    Result<std::string> reply = s->Call("query", sql);
    if (reply.ok()) {
      CheckRow(rec, "query", "join", reply.value(),
               model_.ChangedKeys(model_.Version(v), model_.Version(w)));
    }
    if (tracer != nullptr) ProbeTranslate(api_.get(), sql.substr(4), tracer);
    CheckoutAndDiscard("checkout", std::to_string(v), model_.Version(v), s, rec);
    if (merging) {
      CheckoutAndDiscard("merge_checkout", std::to_string(v) + "," + std::to_string(w),
                         model_.Merge(model_.Version(v), model_.Version(w)), s, rec);
    }
  }

  void CheckoutAndDiscard(const std::string& verb, const std::string& vids,
                          const Cids& expected, Session* s, Recorder* rec) {
    if (!s->Call(verb, std::string("checkout ") + kCvd + " -v " + vids + " -t " + kTable)
             .ok()) {
      return;
    }
    CheckStaged(api_.get(), kTable, rec, model_.SumsOf(expected));
    (void)s->Call("discard", std::string("discard -t ") + kTable);
  }

  // The reply shows at most 50 groups and then "... (N more rows)"; the
  // shown groups must match and the total must cover every version.
  void CvdScan(Session* s, Recorder* rec) {
    Result<std::string> reply = s->Call(
        "cvd_query", std::string("run SELECT vid, count(*) FROM CVD ") + kCvd + " GROUP BY vid");
    if (!reply.ok()) return;
    std::string text = reply.value();
    size_t hidden = 0;
    const size_t footer = text.find("... (");
    if (footer != std::string::npos) {
      hidden = std::strtoull(text.c_str() + footer + 5, nullptr, 10);
      text.resize(footer);
    }
    std::vector<std::vector<int64_t>> rows;
    bool ok = ParseIntRows(text, &rows) &&
              rows.size() + hidden == model_.VersionIds().size();
    for (size_t i = 0; ok && i < rows.size(); ++i) {
      ok = rows[i].size() == 2 && model_.HasVersion(rows[i][0]) &&
           rows[i][1] == static_cast<int64_t>(model_.Version(rows[i][0]).size());
    }
    if (!ok) rec->Fail("cvd_query", "per-version counts differ: " + reply.value().substr(0, 200));
  }

  // The same versions checked out through the unpartitioned data model
  // and through the partition store (traced run, after the first
  // optimize; its own picks leave the measured rounds' picks alone).
  void ProbeCheckouts(Recorder* rec, Tracer* tracer) {
    orpheus::Rng rng(opt_.seed);
    Sweep picks(&rng);
    orpheus::core::Cvd* cvd = api_->orpheus()->GetCvd(kCvd).value();
    orpheus::part::PartitionStore* store = api_->orpheus()->partition_store(kCvd);
    orpheus::rel::Database* db = api_->orpheus()->db();
    for (int i = 0; i < kCheckoutProbes; ++i) {
      const int64_t v = PickVersion(&picks);
      double t0 = Now();
      Status st = cvd->model()->CheckoutVersion(v, "cur_probe");
      tracer->Probe("data_model_checkout", Now() - t0);
      if (st.ok()) st = db->DropTable("cur_probe");
      if (!st.ok()) rec->Fail("probe", st.ToString());
      t0 = Now();
      st = store->CheckoutVersion(v, "cur_probe");
      tracer->Probe("partition_checkout", Now() - t0);
      if (st.ok()) st = db->DropTable("cur_probe");
      if (!st.ok()) rec->Fail("probe", st.ToString());
    }
  }

  Options opt_;
  std::unique_ptr<orpheus::core::EngineApi> api_;
  ContentModel model_;
  int64_t next_vid_ = 1;
  std::vector<int64_t> by_size_;                // loaded (then all) versions by size
  std::map<int64_t, int64_t> first_parent_;     // loaded versions only
  int64_t rows_resolved_ = 0;
  std::vector<double> optimize_ms_;  // one per epoch
  // The partition store after the last optimize.
  double storage_records_ = 0;
  double avg_checkout_records_ = 0;
  double partitions_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeCurQueryOptimize() {
  return std::make_unique<CurQueryOptimize>();
}

}  // namespace perfbench
