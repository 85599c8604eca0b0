// durable_sessions: one client connection to an in-process
// server::Server over loopback TCP, against a durable directory with
// group commit and a WAL auto-checkpoint bound the run crosses several
// times; WAL records are written but not fdatasync'ed (see kWalFsync). The session alternates checkout -> 1% UPDATE
// -> commit on its own branch with pinned-version aggregate reads. After
// each epoch of the run the engine is closed, the directory reopened
// (recovery_s) and every acknowledged version checked against the oracle.

#include <algorithm>
#include <atomic>
#include <mutex>
#include <thread>

#include "common/str_util.h"
#include "server/client.h"
#include "server/server.h"
#include "storage/storage_manager.h"
#include "workloads.h"

namespace perfbench {

namespace {

using orpheus::Result;
using orpheus::Status;

constexpr char kCvd[] = "dur";
// One client. With two or more, a request either found the engine lock
// free or waited out another client's commit, and the median sat on
// whichever mode held half the samples that run: checkout_ms.p50 spread
// by three quarters to a whole median between runs of the same code.
constexpr int kClients = 1;
// About one checkpoint per 30 commits: each epoch crosses several, and
// their stalls land in the tails, not the medians.
constexpr uint64_t kWalCheckpointBytes = 8 << 20;
// Off: with it on, a checkout's WAL fdatasync took either about 0.1 ms
// or about 1 ms, in nearly equal shares that changed from run to run,
// so checkout_ms.p50 jumped between the two modes (a spread of 0.6 of
// the median over ten runs on a quiet host).
constexpr bool kWalFsync = false;
constexpr double kUpdateFraction = 0.01;
constexpr int64_t kRoundsPerEpoch = 400;

class DurableSessions : public Workload {
 public:
  ~DurableSessions() override { Stop(); }

  Status Setup(const Options& opt) override {
    Stop();
    opt_ = opt;
    dir_ = opt.work_dir + "/db";
    RemoveTree(dir_);
    api_ = std::make_unique<orpheus::core::EngineApi>();
    ORPHEUS_RETURN_NOT_OK(api_->orpheus()->Open(dir_));
    api_->orpheus()->storage()->SetAutoCheckpointPolicy(kWalCheckpointBytes, 0);
    api_->orpheus()->storage()->set_fsync(kWalFsync);
    ORPHEUS_ASSIGN_OR_RETURN(
        orpheus::wl::Dataset data,
        Load(Spec(orpheus::wl::WorkloadKind::kSci, 8, 2, 250), kCvd, opt, api_.get(), &model_));
    dataset += orpheus::StrFormat(
        "; clients=%d; WAL fsync %s, group commit on, auto-checkpoint at %llu WAL bytes",
        kClients, kWalFsync ? "on" : "off", static_cast<unsigned long long>(kWalCheckpointBytes));
    orpheus::server::ServerOptions options;
    options.idle_timeout_sec = 0;
    server_ = std::make_unique<orpheus::server::Server>(api_.get(), options);
    ORPHEUS_RETURN_NOT_OK(server_->Start());
    tips_ = Leaves(data);
    acked_ = model_.VersionIds();
    storage_bytes = api_->orpheus()->db()->TotalByteSize();
    return Status::OK();
  }

  // The measured phase runs in epochs of kRoundsPerEpoch rounds. Between
  // epochs, outside any request and left out of ops_per_s, the engine is
  // closed, the directory recovered and checked, and fresh state loaded:
  // every commit appends records, and without the reset the tables, and
  // with them every latency, grew for as long as the run lasted.
  int64_t Measure(double deadline, int64_t max_rounds, Recorder* rec,
                  Tracer* tracer) override {
    reload_s = 0;
    recovery_s_.clear();
    int64_t done = 0;
    for (bool first = true; done < max_rounds && Now() < deadline; first = false) {
      if (!first) {
        const double t0 = Now();
        Recover(rec);
        Status st = Setup(opt_);
        reload_s += Now() - t0;
        if (!st.ok()) {
          rec->Fail("reload", st.ToString());
          break;
        }
      }
      done += Epoch(deadline, std::min(kRoundsPerEpoch, max_rounds - done), rec, tracer);
    }
    return done;
  }

  void Finish(bool traced, Recorder* rec, Tracer* tracer, Report* out) override {
    (void)tracer;
    Recover(rec);
    if (!traced) return;
    out->layer.push_back({"recovery_s", Median(recovery_s_), "s"});
    out->layer.push_back({"disk_mb", disk_mb_, "MB"});
    out->notes.push_back(
        "partition.*, optimize_s, cvd_query_s: never optimized; core.cvd.*, "
        "core.data_model.*, core.query_translator.*: the engine serves the "
        "client from the server's threads, so direct read-only probes are not run");
  }

 private:
  // Stops the server and closes the engine (flushing its WAL).
  void Stop() {
    server_.reset();
    api_.reset();
  }

  // Runs the clients for up to `rounds` rounds; returns the rounds done.
  int64_t Epoch(double deadline, int64_t rounds, Recorder* rec, Tracer* tracer) {
    std::atomic<int64_t> claimed{0};
    std::atomic<int64_t> done{0};
    std::vector<std::thread> clients;
    for (int i = 0; i < kClients; ++i) {
      clients.emplace_back([&, i] {
        ClientLoop(i, deadline, rounds, &claimed, &done, rec, tracer);
      });
    }
    for (std::thread& t : clients) t.join();
    return done.load();
  }

  // Closes the engine, recovers the directory (a recovery_s sample) and
  // checks every acknowledged version against the oracle.
  void Recover(Recorder* rec) {
    Stop();
    disk_mb_ = static_cast<double>(DirBytes(dir_)) / (1 << 20);
    api_ = std::make_unique<orpheus::core::EngineApi>();
    const double t0 = Now();
    Status st = api_->orpheus()->Open(dir_);
    recovery_s_.push_back(Now() - t0);
    if (!st.ok()) {
      rec->Fail("recover", st.ToString());
      return;
    }
    std::shared_ptr<orpheus::core::SessionContext> ctx = api_->NewSession();
    for (int64_t vid : acked_) {
      Result<std::string> reply = api_->Execute(
          ctx.get(), orpheus::StrFormat("run SELECT %s FROM VERSION %lld OF CVD %s",
                                        SumsSelectList().c_str(), static_cast<long long>(vid),
                                        kCvd));
      Sums got;
      const Sums want = model_.SumsOf(model_.Version(vid));
      if (!reply.ok() || !ParseSums(reply.value(), &got) || !(got == want)) {
        rec->Fail("recover", "version " + std::to_string(vid) + " after reopen: expected " +
                                 want.ToString() + " got " +
                                 (reply.ok() ? reply.value().substr(0, 200)
                                             : reply.status().ToString()));
      }
    }
  }

  void ClientLoop(int index, double deadline, int64_t max_rounds,
                  std::atomic<int64_t>* claimed, std::atomic<int64_t>* done,
                  Recorder* rec, Tracer* tracer) {
    orpheus::server::Client client;
    Status st = client.Connect("127.0.0.1", server_->port());
    if (!st.ok()) {
      rec->Fail("connect", st.ToString(), /*refused=*/true);
      return;
    }
    uint64_t session_id = 0;
    if (tracer != nullptr) {
      // The session id ties the engine's trace records to this client.
      Result<std::string> stats = client.Execute("stats");
      const std::string marker = "== this session ==\nid ";
      size_t at = stats.ok() ? stats.value().find(marker) : std::string::npos;
      if (at != std::string::npos) {
        session_id = std::strtoull(stats.value().c_str() + at + marker.size(), nullptr, 10);
      }
    }
    auto call = [&](const std::string& verb, const std::string& line) {
      const double t0 = Now();
      Result<std::string> reply = client.Execute(line);
      const double t1 = Now();
      if (tracer != nullptr) tracer->Request(verb, session_id, t0, t1);
      if (reply.ok()) {
        rec->Ok(verb, (t1 - t0) * 1e3);
      } else {
        rec->Fail(verb, reply.status().ToString(),
                  reply.status().code() == orpheus::StatusCode::kUnavailable);
      }
      return reply;
    };

    orpheus::Rng rng(opt_.seed * 7919 + 31 + static_cast<uint64_t>(index));
    // Writes and reads alternate; the seed picks which comes first.
    uint64_t turn = rng.Uniform(2);
    Sweep version(&rng);
    int64_t tip = tips_[static_cast<size_t>(index) % tips_.size()];
    const std::string table = "dur_w" + std::to_string(index);
    while (Now() < deadline && claimed->fetch_add(1) < max_rounds) {
      if (turn++ % 2 == 0) {
        tip = WriteRound(&rng, tip, table, call, rec);
      } else {
        ReadRound(&rng, &version, call, rec);
      }
      done->fetch_add(1);
    }
    client.Disconnect();
  }

  // checkout -> 1% UPDATE -> commit on this session's own branch. The
  // checkout is checked through the committed version after reopen (it
  // holds the checked-out rows plus the update): an oracle query here
  // would take the engine lock inside the measured loop.
  template <typename Call>
  int64_t WriteRound(orpheus::Rng* rng, int64_t tip, const std::string& table, Call& call,
                     Recorder* rec) {
    Cids parent;
    Cids child;
    std::string update;
    {
      std::lock_guard<std::mutex> lock(model_mu_);
      parent = model_.Version(tip);
      const size_t n = parent.size();
      const size_t m = static_cast<size_t>(kUpdateFraction * static_cast<double>(n));
      const size_t at = rng->Uniform(n - m - 1);
      child = parent;
      for (size_t p = at; p < at + m; ++p) child[p] = model_.AddBumped(parent[p]);
      update = orpheus::StrFormat("sql UPDATE %s SET a1 = a1 + 1 WHERE k >= %lld AND k < %lld",
                                  table.c_str(), static_cast<long long>(model_.Key(parent[at])),
                                  static_cast<long long>(model_.Key(parent[at + m])));
    }
    if (!call("checkout", orpheus::StrFormat("checkout %s -v %lld -t %s", kCvd,
                                             static_cast<long long>(tip), table.c_str()))
             .ok()) {
      return tip;
    }
    if (!call("edit", update).ok()) {
      (void)call("discard", "discard -t " + table);
      return tip;
    }
    Result<std::string> reply = call("commit", "commit -t " + table + " -m w");
    if (!reply.ok()) return tip;
    const int64_t vid = ParseCommittedVid(reply.value());
    if (vid <= 0) {
      rec->Fail("commit", "unexpected reply: " + reply.value());
      return tip;
    }
    std::lock_guard<std::mutex> lock(model_mu_);
    model_.SetVersion(vid, std::move(child));
    acked_.push_back(vid);
    return vid;
  }

  // pin -> aggregate over the pinned version -> unpin.
  template <typename Call>
  void ReadRound(orpheus::Rng* rng, Sweep* version, Call& call, Recorder* rec) {
    int64_t vid = 0;
    {
      std::lock_guard<std::mutex> lock(model_mu_);
      vid = acked_[version->Pick(acked_.size())];
    }
    const int64_t bound = BoundFor(0.05 + 0.9 * rng->NextDouble());
    if (!call("pin", orpheus::StrFormat("pin %s -v %lld", kCvd, static_cast<long long>(vid)))
             .ok()) {
      return;
    }
    Result<std::string> reply = call("query", FilteredAggSql(kCvd, vid, bound));
    if (reply.ok()) {
      std::vector<int64_t> want;
      {
        std::lock_guard<std::mutex> lock(model_mu_);
        want = model_.FilteredAgg(model_.Version(vid), kFilterAttr, bound);
      }
      CheckRow(rec, "query", "pinned aggregate", reply.value(), want);
    }
    (void)call("pin", std::string("unpin ") + kCvd);
  }

  Options opt_;
  std::string dir_;
  std::unique_ptr<orpheus::core::EngineApi> api_;
  std::unique_ptr<orpheus::server::Server> server_;
  std::vector<int64_t> tips_;
  std::mutex model_mu_;  // guards model_ and acked_ across client threads
  ContentModel model_;
  std::vector<int64_t> acked_;
  std::vector<double> recovery_s_;  // one per epoch
  double disk_mb_ = 0;              // the directory at the last close
};

}  // namespace

std::unique_ptr<Workload> MakeDurableSessions() {
  return std::make_unique<DurableSessions>();
}

}  // namespace perfbench
