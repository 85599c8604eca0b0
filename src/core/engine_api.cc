#include "core/engine_api.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <mutex>
#include <shared_mutex>

#include "common/csv.h"
#include "common/str_util.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/data_model.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "partition/lyresplit.h"
#include "storage/storage_manager.h"

namespace orpheus::core {

namespace {

constexpr char kHelp[] =
    "OrpheusDB commands:\n"
    "  init <cvd> -f <file.csv> [-pk a,b] [-model rlist|vlist|combined|delta|tpv]\n"
    "  checkout <cvd> -v <vid>[,<vid>...] (-t <table> | -f <file.csv>)\n"
    "  commit (-t <table> | -f <file.csv>) -m <message>\n"
    "  discard -t <table>         drop a staged table without committing\n"
    "  diff <cvd> <v1> <v2>\n"
    "  run <sql>                 versioned SQL (VERSION n OF CVD c)\n"
    "  sql <sql>                 raw SQL against the backing database\n"
    "  ls                        list CVDs\n"
    "  graph <cvd>               version graph as Graphviz dot\n"
    "  drop <cvd>\n"
    "  optimize <cvd> [-gamma <factor>]   partition with LYRESPLIT\n"
    "  pin <cvd> [-v <vid>]      pin a version snapshot for this session\n"
    "  unpin <cvd> | pins        release / list this session's pins\n"
    "  open <dir>                open/create a durable database directory\n"
    "  checkpoint                fold the WAL into segment files (incremental)\n"
    "  save <dir>                export to a new database directory\n"
    "  threads [<n>]             show or set scan parallelism (0 = hardware)\n"
    "  metrics                   Prometheus text exposition of all metrics\n"
    "  stats                     human-readable metrics + recent/slow ops\n"
    "  explain analyze <sql>     run the SQL, return its operator profile\n"
    "  profile [-json] <sql>     same as explain analyze (JSON with -json)\n"
    "  traces [recent|slow] [<n>]  recent-op ring / slow-op log as JSON lines\n"
    "  slowlog [<ms>]            show or set the slow-op threshold\n"
    "  create_user <name> | config <name> | whoami\n"
    "  help | exit\n";

// Extracts "-flag value" from an argument vector; empty if absent.
std::string FlagValue(const std::vector<std::string>& args,
                      const std::string& flag) {
  for (size_t i = 0; i + 1 < args.size(); ++i) {
    if (args[i] == flag) return args[i + 1];
  }
  return "";
}

Result<std::vector<VersionId>> ParseVidList(const std::string& text) {
  std::vector<VersionId> vids;
  for (const std::string& piece : Split(text, ',')) {
    if (Trim(piece).empty()) continue;
    vids.push_back(std::strtoll(std::string(Trim(piece)).c_str(), nullptr, 10));
  }
  if (vids.empty()) return Status::InvalidArgument("no version ids given");
  return vids;
}

bool TokenEqualsIgnoreCase(std::string_view token, std::string_view word) {
  if (token.size() != word.size()) return false;
  for (size_t i = 0; i < token.size(); ++i) {
    if (std::toupper(static_cast<unsigned char>(token[i])) !=
        std::toupper(static_cast<unsigned char>(word[i]))) {
      return false;
    }
  }
  return true;
}

// A statement may run under the shared lock iff it can only read:
// SELECT without INTO (INTO materializes a new catalog table). Every
// other form — DML, DDL, or anything unparsed — is treated as a write.
bool IsReadOnlySql(const std::string& sql) {
  std::vector<std::string> tokens = SplitWhitespace(sql);
  if (tokens.empty() || !TokenEqualsIgnoreCase(tokens[0], "SELECT")) {
    return false;
  }
  for (const std::string& token : tokens) {
    if (TokenEqualsIgnoreCase(token, "INTO")) return false;
  }
  return true;
}

// Label value for the per-verb metric families. Only known verbs get
// their own label so a typo-spamming client can't blow up the label
// cardinality (or inject quotes into the exposition).
std::string VerbLabel(const std::string& trimmed) {
  static const char* kVerbs[] = {
      "init",    "checkout", "commit",     "discard", "diff",   "run",
      "sql",     "ls",       "graph",      "drop",    "optimize", "pin",
      "unpin",   "pins",     "open",       "checkpoint", "save", "threads",
      "metrics", "stats",    "create_user", "config", "whoami", "help",
      "exit",    "quit",     "script",     "explain", "profile", "traces",
      "slowlog"};
  size_t end = trimmed.find_first_of(" \t");
  std::string verb = trimmed.substr(0, end);
  for (const char* known : kVerbs) {
    if (verb == known) return verb;
  }
  return "unknown";
}

obs::Histogram* LockWaitHist(bool exclusive) {
  static obs::Histogram* sh = obs::GlobalMetrics().GetHistogram(
      "orpheus_lock_wait_seconds",
      "Time spent waiting for the engine-wide lock, by mode.",
      obs::LatencyBuckets(), {{"mode", "shared"}});
  static obs::Histogram* ex = obs::GlobalMetrics().GetHistogram(
      "orpheus_lock_wait_seconds",
      "Time spent waiting for the engine-wide lock, by mode.",
      obs::LatencyBuckets(), {{"mode", "exclusive"}});
  return exclusive ? ex : sh;
}

}  // namespace

Result<std::string> EngineApi::Metrics() {
  // Gauges sampled at scrape time; also registers the family so the
  // very first scrape of a quiet engine is never empty.
  obs::GlobalMetrics()
      .GetGauge("orpheus_commit_epoch",
                "Engine commit epoch (bumped per successful mutation).")
      ->Set(static_cast<int64_t>(lock_.epoch()));
  return obs::GlobalMetrics().RenderPrometheus();
}

Result<std::string> EngineApi::Traces(const std::vector<std::string>& args) {
  obs::TraceLog& log = obs::GlobalTraceLog();
  bool want_recent = true;
  bool want_slow = true;
  size_t limit = 50;
  for (size_t i = 1; i < args.size(); ++i) {
    if (args[i] == "recent") {
      want_slow = false;
    } else if (args[i] == "slow") {
      want_recent = false;
    } else {
      char* end = nullptr;
      long n = std::strtol(args[i].c_str(), &end, 10);
      if (end == args[i].c_str() || *end != '\0' || n < 0) {
        return Status::InvalidArgument("traces [recent|slow] [<n>]");
      }
      limit = static_cast<size_t>(n);
    }
  }
  std::vector<obs::OpTrace> recent = log.Recent();
  std::vector<obs::OpTrace> slow = log.SlowOps();
  // One JSON object per line: a meta header, then the requested
  // entries (oldest first, capped at `limit` newest per kind). Slow
  // entries carry their operator profile tree; the recent ring stays
  // compact.
  std::string out =
      StrFormat("{\"meta\":true,\"slow_op_threshold_ms\":%g,"
                "\"total_recorded\":%llu,\"recent\":%llu,\"slow\":%llu}\n",
                log.SlowOpThresholdMs(),
                static_cast<unsigned long long>(log.TotalRecorded()),
                static_cast<unsigned long long>(recent.size()),
                static_cast<unsigned long long>(slow.size()));
  auto render = [&](const std::vector<obs::OpTrace>& ops, const char* kind,
                    bool with_profile) {
    size_t start = ops.size() > limit ? ops.size() - limit : 0;
    for (size_t i = start; i < ops.size(); ++i) {
      out += std::string("{\"kind\":\"") + kind + "\"," +
             obs::OpTraceJson(ops[i], with_profile).substr(1) + "\n";
    }
  };
  if (want_recent) render(recent, "recent", /*with_profile=*/false);
  if (want_slow) render(slow, "slow", /*with_profile=*/true);
  return out;
}

Result<std::string> EngineApi::Slowlog(const std::vector<std::string>& args) {
  obs::TraceLog& log = obs::GlobalTraceLog();
  if (args.size() >= 2) {
    char* end = nullptr;
    double ms = std::strtod(args[1].c_str(), &end);
    if (end == args[1].c_str() || *end != '\0' || ms < 0) {
      return Status::InvalidArgument("slowlog [<ms>] with ms >= 0");
    }
    log.SetSlowOpThresholdMs(ms);
    return StrFormat("slow-op threshold set to %g ms", ms);
  }
  return StrFormat("slow-op threshold: %g ms (%llu slow ops kept)",
                   log.SlowOpThresholdMs(),
                   static_cast<unsigned long long>(log.SlowOps().size()));
}

Result<std::string> EngineApi::ProfileSql(const std::string& sql, bool json) {
  WallTimer timer;
  ORPHEUS_ASSIGN_OR_RETURN(rel::Chunk out, orpheus_.Run(sql));
  const double total_s = timer.ElapsedSeconds();
  // The statement's ActiveOpScope installed a collector on this
  // thread; every operator the SQL ran has closed its scope by now, so
  // the snapshot shares those finished subtrees.
  std::shared_ptr<const obs::ProfileNode> plan = obs::SnapshotActiveProfile();
  if (json) {
    std::string s = "{\"sql\":\"" + obs::JsonEscape(sql) + "\"";
    s += ",\"rows\":" + std::to_string(out.num_rows());
    s += StrFormat(",\"total_s\":%.9f", total_s);
    if (plan != nullptr) s += ",\"plan\":" + obs::ProfileJson(*plan);
    s += "}";
    return s;
  }
  if (plan == nullptr) {
    return std::string(
        "(no operator profile: metrics disabled or no operators ran)");
  }
  std::string s = obs::ProfileText(*plan);
  s += StrFormat("%llu row(s) in %.3f ms\n",
                 static_cast<unsigned long long>(out.num_rows()),
                 total_s * 1e3);
  return s;
}

Result<std::string> EngineApi::Stats(SessionContext* session) {
  obs::TraceLog& log = obs::GlobalTraceLog();
  std::string out = "== engine stats (epoch " + std::to_string(lock_.epoch()) +
                    ", slow-op threshold " +
                    StrFormat("%.0f", log.SlowOpThresholdMs()) + " ms) ==\n";
  for (const obs::MetricPoint& p : obs::GlobalMetrics().Snapshot()) {
    if (p.type == obs::MetricType::kHistogram) {
      out += StrFormat("%-55s count=%llu sum=%.6fs\n", p.FlatName().c_str(),
                       static_cast<unsigned long long>(p.count), p.sum);
    } else {
      out += StrFormat("%-55s %.0f\n", p.FlatName().c_str(), p.value);
    }
  }
  out += "\n== this session ==\nid " + std::to_string(session->id()) +
         ", user " + session->user() + ", ops " +
         std::to_string(session->ops_executed()) + "\n";

  auto render_ops = [](const std::vector<obs::OpTrace>& ops, size_t max_rows) {
    std::string s =
        "id       sess verb         total_ms parse    lockwait executed "
        "walenq   gcsync   ckpt     ok\n";
    size_t start = ops.size() > max_rows ? ops.size() - max_rows : 0;
    for (size_t i = start; i < ops.size(); ++i) {
      const obs::OpTrace& op = ops[i];
      s += StrFormat("%-8llu %-4llu %-12s %8.2f",
                     static_cast<unsigned long long>(op.id),
                     static_cast<unsigned long long>(op.session_id),
                     op.verb.c_str(), op.total_s * 1e3);
      for (int stage = 0; stage < obs::kTraceStageCount; ++stage) {
        s += StrFormat(" %8.2f", op.stage_s[stage] * 1e3);
      }
      s += op.ok ? " ok\n" : " ERR\n";
    }
    return s;
  };
  out += "\n== recent ops (stage times in ms; " +
         std::to_string(log.TotalRecorded()) + " recorded) ==\n";
  out += render_ops(log.Recent(), 10);
  std::vector<obs::OpTrace> slow = log.SlowOps();
  out += "\n== slow ops (>= " + StrFormat("%.0f", log.SlowOpThresholdMs()) +
         " ms; " + std::to_string(slow.size()) + " kept) ==\n";
  if (slow.empty()) {
    out += "(none)\n";
  } else {
    out += render_ops(slow, 20);
  }
  return out;
}

std::shared_ptr<SessionContext> EngineApi::NewSession() {
  return std::make_shared<SessionContext>(next_session_id_.fetch_add(1));
}

void EngineApi::CloseSession(SessionContext* session, bool discard_staged) {
  if (discard_staged) {
    std::map<std::string, std::string> staged = session->StagedTables();
    if (!staged.empty()) {
      std::vector<storage::AppendTicket> tickets;
      {
        std::unique_lock<std::shared_mutex> lock(lock_.mu());
        for (const auto& [table, cvd] : staged) {
          // Best-effort: the table may already be gone (CVD dropped, or
          // the staged table committed through the global fallback path).
          (void)orpheus_.DiscardStaged(cvd, table);
          session->RemoveStagedTable(table);
        }
        if (orpheus_.durable()) {
          tickets = orpheus_.storage()->TakePendingTickets();
        }
        lock_.BumpEpoch();
      }
      // Best-effort durability for the discard records; disconnect
      // cleanup has no caller to report an I/O error to.
      if (!tickets.empty()) {
        (void)orpheus_.storage()->WaitDurable(tickets);
      }
    }
  }
  registry_.UnpinAll(session->id());
  session->set_exited();
}

Result<std::string> EngineApi::Execute(SessionContext* session,
                                       const std::string& line) {
  session->Touch();
  std::string trimmed(Trim(line));
  if (trimmed.empty() || trimmed[0] == '#') return std::string();
  // One trace scope per statement: every TraceSpan below (and inside
  // storage, which runs on this thread) charges its stage to this op.
  obs::ActiveOpScope op_scope(VerbLabel(trimmed), session->id());
  session->NoteOp();
  Result<std::string> result = ExecuteParsed(session, trimmed);
  op_scope.set_ok(result.ok());
  return result;
}

Result<std::string> EngineApi::ExecuteParsed(SessionContext* session,
                                             const std::string& trimmed) {
  std::vector<std::string> args;
  {
    obs::TraceSpan parse_span(obs::TraceStage::kParse);
    args = SplitWhitespace(trimmed);
  }
  const std::string& cmd = args[0];

  // --- Lock-free commands: session-local state only -----------------
  if (cmd == "help") return std::string(kHelp);
  if (cmd == "metrics") return Metrics();
  if (cmd == "stats") return Stats(session);
  if (cmd == "traces") return Traces(args);
  if (cmd == "slowlog") return Slowlog(args);
  if (cmd == "exit" || cmd == "quit") {
    session->set_exited();
    return std::string("bye");
  }
  if (cmd == "whoami") return session->user();
  if (cmd == "pins") {
    std::map<std::string, SessionPin> pins = session->Pins();
    if (pins.empty()) return std::string("(no pins)");
    std::vector<std::string> lines;
    for (const auto& [cvd, pin] : pins) {
      lines.push_back(cvd + " v" + std::to_string(pin.vid) + " (epoch " +
                      std::to_string(pin.epoch) + ")");
    }
    return Join(lines, "\n");
  }
  if (cmd == "unpin") {
    if (args.size() < 2) return Status::InvalidArgument("unpin <cvd>");
    if (!registry_.Unpin(session->id(), args[1])) {
      return Status::NotFound("no pin on CVD " + args[1] +
                              " held by this session");
    }
    session->RemovePin(args[1]);
    return "unpinned " + args[1];
  }

  // --- Shared-lock (read-only) commands ------------------------------
  bool shared = cmd == "ls" || cmd == "graph" || cmd == "diff" ||
                cmd == "pin";
  std::string sql;
  bool want_profile = false;
  bool profile_json = false;
  if (cmd == "run" || cmd == "sql") {
    size_t pos = trimmed.find(cmd) + cmd.size();
    sql = std::string(Trim(trimmed.substr(pos)));
    if (sql.empty()) return Status::InvalidArgument(cmd + " <sql>");
    shared = IsReadOnlySql(sql);
  }
  if (cmd == "explain" || cmd == "profile") {
    // `explain analyze <sql>` / `profile [-json] <sql>`: run the SQL
    // (under whichever lock side it needs) and return its operator
    // profile instead of its rows.
    std::string marker = cmd;  // last keyword before the SQL text
    if (cmd == "explain") {
      if (args.size() < 3 || !TokenEqualsIgnoreCase(args[1], "analyze")) {
        return Status::InvalidArgument("explain analyze <sql>");
      }
      marker = args[1];
    } else if (args.size() >= 2 && args[1] == "-json") {
      profile_json = true;
      marker = args[1];
    }
    size_t pos = marker == cmd ? cmd.size()
                               : trimmed.find(marker, cmd.size()) + marker.size();
    sql = std::string(Trim(trimmed.substr(pos)));
    if (sql.empty()) return Status::InvalidArgument(cmd + " needs <sql>");
    want_profile = true;
    shared = IsReadOnlySql(sql);
  }
  if (shared) {
    std::shared_lock<std::shared_mutex> lock(lock_.mu(), std::defer_lock);
    {
      obs::TraceSpan wait_span(obs::TraceStage::kLockWait);
      WallTimer wait;
      lock.lock();
      LockWaitHist(/*exclusive=*/false)->Observe(wait.ElapsedSeconds());
    }
    obs::TraceSpan exec_span(obs::TraceStage::kExecute);
    if (cmd == "ls") {
      std::vector<std::string> names = orpheus_.ListCvds();
      return names.empty() ? "(no CVDs)" : Join(names, "\n");
    }
    if (cmd == "graph") {
      if (args.size() < 2) return Status::InvalidArgument("graph <cvd>");
      ORPHEUS_ASSIGN_OR_RETURN(Cvd * cvd, orpheus_.GetCvd(args[1]));
      return cvd->graph().ToDot();
    }
    if (cmd == "diff") return DiffCmd(args);
    if (cmd == "pin") return Pin(session, args);
    if (want_profile) return ProfileSql(sql, profile_json);
    if (cmd == "run") {
      ORPHEUS_ASSIGN_OR_RETURN(rel::Chunk out, orpheus_.Run(sql));
      return out.ToString(50);
    }
    ORPHEUS_ASSIGN_OR_RETURN(rel::Chunk out, orpheus_.db()->Execute(sql));
    return out.ToString(50);
  }

  // --- Exclusive-lock (mutating) commands -----------------------------
  // Group commit: the exclusive hold covers the in-memory apply plus
  // the WAL *enqueue* only. Tickets for the records this statement
  // enqueued are taken before the lock drops; the durable wait happens
  // after, so other sessions' statements can join the commit group
  // while this one blocks on the leader's single fdatasync.
  std::vector<storage::AppendTicket> tickets;
  Result<std::string> result = std::string();
  {
    std::unique_lock<std::shared_mutex> lock(lock_.mu(), std::defer_lock);
    {
      obs::TraceSpan wait_span(obs::TraceStage::kLockWait);
      WallTimer wait;
      lock.lock();
      LockWaitHist(/*exclusive=*/true)->Observe(wait.ElapsedSeconds());
    }
    obs::TraceSpan exec_span(obs::TraceStage::kExecute);
    result = [&]() -> Result<std::string> {
    if (cmd == "create_user") {
      if (args.size() < 2) return Status::InvalidArgument("create_user <name>");
      ORPHEUS_RETURN_NOT_OK(orpheus_.CreateUser(args[1]));
      return "created user " + args[1];
    }
    if (cmd == "config") {
      if (args.size() < 2) return Status::InvalidArgument("config <name>");
      ORPHEUS_RETURN_NOT_OK(orpheus_.Login(args[1]));
      session->set_user(args[1]);
      return "logged in as " + args[1];
    }
    if (cmd == "drop") return Drop(session, args);
    if (cmd == "open") {
      if (args.size() < 2) return Status::InvalidArgument("open <dir>");
      ORPHEUS_RETURN_NOT_OK(orpheus_.Open(args[1]));
      // Recovery may have replayed a login; mirror it into the session
      // so whoami matches the restored engine state.
      session->set_user(orpheus_.WhoAmI());
      return "opened durable database at " + args[1] + " (" +
             std::to_string(orpheus_.ListCvds().size()) + " CVDs)";
    }
    if (cmd == "checkpoint") {
      ORPHEUS_RETURN_NOT_OK(orpheus_.Checkpoint());
      const storage::StorageManager::CheckpointStats& stats =
          orpheus_.storage()->last_checkpoint_stats();
      return "checkpointed " + orpheus_.storage_dir() + " (" +
             std::to_string(stats.segments_written) + " segments written, " +
             std::to_string(stats.segments_reused) + " reused)";
    }
    if (cmd == "save") {
      if (args.size() < 2) return Status::InvalidArgument("save <dir>");
      ORPHEUS_RETURN_NOT_OK(orpheus_.SaveSnapshot(args[1]));
      return "saved snapshot to " + args[1];
    }
    if (want_profile) return ProfileSql(sql, profile_json);
    if (cmd == "run") {
      ORPHEUS_ASSIGN_OR_RETURN(rel::Chunk out, orpheus_.Run(sql));
      return out.ToString(50);
    }
    if (cmd == "sql") {
      ORPHEUS_ASSIGN_OR_RETURN(rel::Chunk out, orpheus_.db()->Execute(sql));
      return out.ToString(50);
    }
    if (cmd == "threads") {
      // Scan parallelism for the relstore executor (the --threads
      // flag's runtime equivalent). The exclusive lock guarantees no
      // query is running while the pool is resized.
      if (args.size() >= 2) {
        char* end = nullptr;
        long n = std::strtol(args[1].c_str(), &end, 10);
        if (end == args[1].c_str() || *end != '\0' || n < 0) {
          return Status::InvalidArgument("threads [<n>] with n >= 0");
        }
        // Clamp before narrowing so huge values can't wrap through int.
        SetExecThreads(static_cast<int>(std::min<long>(n, kMaxExecThreads)));
      }
      return "exec threads: " + std::to_string(ExecThreads());
    }
    if (cmd == "init") return Init(session, args);
    if (cmd == "checkout") return Checkout(session, args);
    if (cmd == "commit") return Commit(session, args);
    if (cmd == "discard") return Discard(session, args);
    if (cmd == "optimize") return Optimize(args);
    return Status::InvalidArgument("unknown command: " + cmd +
                                   " (try 'help')");
    }();
    if (orpheus_.durable()) {
      tickets = orpheus_.storage()->TakePendingTickets();
    }
    if (result.ok()) lock_.BumpEpoch();
  }
  if (!tickets.empty()) {
    obs::TraceSpan sync_span(obs::TraceStage::kGroupCommitSync);
    Status durable = orpheus_.storage()->WaitDurable(tickets);
    if (!durable.ok()) {
      // The in-memory apply succeeded but the record never reached
      // disk; surface the I/O error (the handler's message would claim
      // durability the WAL can't back).
      return result.ok() ? Result<std::string>(durable) : result;
    }
    session->NoteDurableLsn(tickets.back()->lsn);
  }
  return result;
}

Result<std::string> EngineApi::Init(SessionContext* session,
                                    const std::vector<std::string>& args) {
  (void)session;
  if (args.size() < 2) return Status::InvalidArgument("init <cvd> -f <file>");
  const std::string& name = args[1];
  std::string file = FlagValue(args, "-f");
  if (file.empty()) return Status::InvalidArgument("init requires -f <file.csv>");
  ORPHEUS_ASSIGN_OR_RETURN(rel::Chunk rows, ReadCsvFile(file));

  CvdOptions options;
  std::string pk = FlagValue(args, "-pk");
  if (!pk.empty()) {
    for (const std::string& col : Split(pk, ',')) {
      options.primary_key.emplace_back(Trim(col));
    }
  }
  std::string model = FlagValue(args, "-model");
  if (!model.empty()) {
    ORPHEUS_ASSIGN_OR_RETURN(options.model, DataModelKindFromName(model));
  }
  ORPHEUS_ASSIGN_OR_RETURN(
      Cvd * cvd, orpheus_.InitCvd(name, rows, options, "init from " + file));
  return "initialized CVD " + name + " with version 1 (" +
         std::to_string(cvd->graph().GetNode(1).value()->num_records) +
         " records)";
}

Result<std::string> EngineApi::Checkout(SessionContext* session,
                                        const std::vector<std::string>& args) {
  if (args.size() < 2) {
    return Status::InvalidArgument("checkout <cvd> -v ... -t ...");
  }
  const std::string& name = args[1];
  std::string vid_text = FlagValue(args, "-v");
  if (vid_text.empty()) return Status::InvalidArgument("checkout requires -v");
  ORPHEUS_ASSIGN_OR_RETURN(std::vector<VersionId> vids, ParseVidList(vid_text));

  std::string table = FlagValue(args, "-t");
  std::string file = FlagValue(args, "-f");
  if (table.empty() && file.empty()) {
    return Status::InvalidArgument("checkout requires -t <table> or -f <file>");
  }
  if (table.empty()) {
    // The counter restarts with each session, and a reopened durable
    // engine may have replayed csvstage checkouts from an earlier
    // process — skip names that are already taken.
    do {
      table = name + "_csvstage_" + std::to_string(session->NextStagingId());
    } while (orpheus_.db()->HasTable(table));
  }
  ORPHEUS_RETURN_NOT_OK(orpheus_.Checkout(name, vids, table));
  session->AddStagedTable(table, name);
  if (!file.empty()) {
    ORPHEUS_ASSIGN_OR_RETURN(rel::Table * staged, orpheus_.db()->GetTable(table));
    ORPHEUS_RETURN_NOT_OK(WriteCsvFile(file, staged->data()));
    session->AddCsvStaging(file, name, table);
    return "checked out version(s) " + vid_text + " of " + name + " into " +
           file;
  }
  return "checked out version(s) " + vid_text + " of " + name +
         " into table " + table;
}

Result<std::string> EngineApi::ResolveStagedCvd(const SessionContext& session,
                                                const std::string& table) {
  std::string cvd_name = session.StagedCvd(table);
  if (!cvd_name.empty()) return cvd_name;
  // Fallback: scan every CVD's staging area. Covers tables staged by a
  // previous process (WAL replay) or through direct engine access.
  for (const std::string& name : orpheus_.ListCvds()) {
    ORPHEUS_ASSIGN_OR_RETURN(Cvd * cvd, orpheus_.GetCvd(name));
    if (cvd->staged_tables().count(table) > 0) return name;
  }
  return Status::NotFound("table was not checked out from any CVD: " + table);
}

Result<std::string> EngineApi::Commit(SessionContext* session,
                                      const std::vector<std::string>& args) {
  std::string table = FlagValue(args, "-t");
  std::string file = FlagValue(args, "-f");
  std::string message = FlagValue(args, "-m");
  if (message.empty()) message = "(no message)";

  std::string cvd_name;
  if (!file.empty()) {
    auto entry = session->GetCsvStaging(file);
    if (entry.first.empty()) {
      return Status::NotFound("file was not checked out from a CVD: " + file);
    }
    cvd_name = entry.first;
    table = entry.second;
    // Reload the (possibly externally edited) csv into the staged
    // table, keeping the rid column where rows still carry one.
    ORPHEUS_ASSIGN_OR_RETURN(rel::Chunk rows, ReadCsvFile(file));
    ORPHEUS_ASSIGN_OR_RETURN(rel::Table * staged, orpheus_.db()->GetTable(table));
    if (!rows.schema().Equals(staged->schema())) {
      return Status::InvalidArgument(
          "csv schema does not match the checked-out schema (did the header "
          "change?)");
    }
    staged->mutable_chunk() = std::move(rows);
    session->RemoveCsvStaging(file);
  } else if (!table.empty()) {
    ORPHEUS_ASSIGN_OR_RETURN(cvd_name, ResolveStagedCvd(*session, table));
  } else {
    return Status::InvalidArgument("commit requires -t <table> or -f <file>");
  }

  ORPHEUS_ASSIGN_OR_RETURN(VersionId vid,
                           orpheus_.Commit(cvd_name, table, message));
  session->RemoveStagedTable(table);
  return "committed version " + std::to_string(vid) + " to " + cvd_name;
}

Result<std::string> EngineApi::Discard(SessionContext* session,
                                       const std::vector<std::string>& args) {
  std::string table = FlagValue(args, "-t");
  if (table.empty() && args.size() >= 2 && args[1][0] != '-') table = args[1];
  if (table.empty()) return Status::InvalidArgument("discard -t <table>");
  ORPHEUS_ASSIGN_OR_RETURN(std::string cvd_name,
                           ResolveStagedCvd(*session, table));
  ORPHEUS_RETURN_NOT_OK(orpheus_.DiscardStaged(cvd_name, table));
  session->RemoveStagedTable(table);
  return "discarded staged table " + table;
}

Result<std::string> EngineApi::Drop(SessionContext* session,
                                    const std::vector<std::string>& args) {
  if (args.size() < 2) return Status::InvalidArgument("drop <cvd>");
  const std::string& name = args[1];
  int others = registry_.PinsByOthers(name, session->id());
  if (others > 0) {
    return Status::FailedPrecondition(
        "cannot drop " + name + ": pinned by " + std::to_string(others) +
        " other session(s)");
  }
  ORPHEUS_RETURN_NOT_OK(orpheus_.DropCvd(name));
  registry_.ForgetCvd(name);
  session->RemovePin(name);
  return "dropped " + name;
}

Result<std::string> EngineApi::Pin(SessionContext* session,
                                   const std::vector<std::string>& args) {
  if (args.size() < 2) return Status::InvalidArgument("pin <cvd> [-v <vid>]");
  const std::string& name = args[1];
  ORPHEUS_ASSIGN_OR_RETURN(Cvd * cvd, orpheus_.GetCvd(name));
  VersionId vid = cvd->latest_version();
  std::string vid_text = FlagValue(args, "-v");
  if (!vid_text.empty()) {
    vid = std::strtoll(vid_text.c_str(), nullptr, 10);
  }
  if (!cvd->graph().GetNode(vid).ok()) {
    return Status::NotFound("no version " + std::to_string(vid) + " in CVD " +
                            name);
  }
  SessionPin pin{vid, lock_.epoch()};
  registry_.Pin(session->id(), name, pin);
  session->RecordPin(name, pin);
  return "pinned " + name + " at version " + std::to_string(vid) +
         " (epoch " + std::to_string(pin.epoch) + ")";
}

Result<std::string> EngineApi::DiffCmd(const std::vector<std::string>& args) {
  if (args.size() < 4) return Status::InvalidArgument("diff <cvd> <v1> <v2>");
  ORPHEUS_ASSIGN_OR_RETURN(Cvd * cvd, orpheus_.GetCvd(args[1]));
  VersionId v1 = std::strtoll(args[2].c_str(), nullptr, 10);
  VersionId v2 = std::strtoll(args[3].c_str(), nullptr, 10);
  ORPHEUS_ASSIGN_OR_RETURN(rel::Chunk fwd, cvd->Diff(v1, v2));
  ORPHEUS_ASSIGN_OR_RETURN(rel::Chunk bwd, cvd->Diff(v2, v1));
  std::string out = "records only in v" + std::to_string(v1) + " (" +
                    std::to_string(fwd.num_rows()) + "):\n" + fwd.ToString(20);
  out += "records only in v" + std::to_string(v2) + " (" +
         std::to_string(bwd.num_rows()) + "):\n" + bwd.ToString(20);
  return out;
}

Result<std::string> EngineApi::Optimize(const std::vector<std::string>& args) {
  if (args.size() < 2) return Status::InvalidArgument("optimize <cvd> [-gamma f]");
  const std::string& name = args[1];
  ORPHEUS_ASSIGN_OR_RETURN(Cvd * cvd, orpheus_.GetCvd(name));
  auto* model = dynamic_cast<SplitByRlistModel*>(cvd->model());
  if (model == nullptr) {
    return Status::NotSupported("optimize requires the split-by-rlist model");
  }
  double factor = 2.0;
  std::string gamma_text = FlagValue(args, "-gamma");
  if (!gamma_text.empty()) factor = std::strtod(gamma_text.c_str(), nullptr);

  int64_t gamma =
      static_cast<int64_t>(factor * static_cast<double>(cvd->total_records()));
  ORPHEUS_ASSIGN_OR_RETURN(part::LyreSplitResult split,
                           part::LyreSplit::RunForBudget(cvd->graph(), gamma));

  // Materialize the partitions and install the checkout/query routing.
  std::map<VersionId, std::vector<RecordId>> version_rids;
  for (VersionId vid : cvd->graph().versions()) {
    ORPHEUS_ASSIGN_OR_RETURN(std::vector<RecordId> rids,
                             cvd->model()->VersionRecords(vid));
    version_rids[vid] = std::move(rids);
  }
  // Drop any previous store first so a re-optimize can reuse its
  // physical table names (and WAL replay does the same).
  orpheus_.DetachPartitionStore(name);
  auto store = std::make_unique<part::PartitionStore>(orpheus_.db(), name,
                                                      model->DataTable());
  ORPHEUS_RETURN_NOT_OK(store->Build(split.partitioning, std::move(version_rids)));
  ORPHEUS_RETURN_NOT_OK(orpheus_.AttachPartitionStore(name, std::move(store)));
  return "partitioned " + name + " into " +
         std::to_string(split.partitioning.num_partitions()) +
         " partitions (delta=" + StrFormat("%.4f", split.delta) +
         ", est. storage=" + std::to_string(split.estimated_storage) +
         " records, est. checkout=" +
         StrFormat("%.1f", split.estimated_checkout) + " records)";
}

}  // namespace orpheus::core
