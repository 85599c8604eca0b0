// EngineApi: the transport-free command surface of OrpheusDB.
//
// This is the layer both front-ends dispatch into — the in-process CLI
// (one EngineApi and one session) and the socket server (one EngineApi
// shared by every connection). It
// owns the engine (OrpheusDB), the engine-wide reader/writer lock, and
// the snapshot-pin registry, and it is the ONLY supported way to drive
// the engine from more than one thread.
//
// Concurrency contract (see concurrency.h for the primitives):
//  * Execute() classifies each command as read-only or mutating.
//    Read-only commands (ls, graph, diff, pin, whoami, pins, and
//    SELECT-only run/sql) take the shared side of the engine lock and
//    may overlap across sessions. Mutating commands (init, checkout,
//    commit, discard, drop, optimize, create_user, config, threads,
//    open, checkpoint, save, and any non-SELECT SQL) take the
//    exclusive side; the WAL records they produce while holding it
//    form a correct total order.
//  * Group commit: on a durable engine the exclusive hold covers only
//    the in-memory apply plus the WAL enqueue; Execute then releases
//    the lock and blocks in StorageManager::WaitDurable until a group
//    leader has batched the record — with the records of every other
//    session that reached the write path meanwhile — into one write +
//    one fdatasync. The durability point of a mutating statement is
//    "Execute returned OK", and N concurrent commits cost ~1 sync
//    instead of N, because the sync happens outside the lock.
//  * Committed versions are immutable, so a reader that pinned a
//    version keeps observing exactly that version's records while
//    writers commit — `pin <cvd>` records the (version, epoch) pair
//    and guards the CVD against `drop` by other sessions.
//  * Direct OrpheusDB access via orpheus() bypasses the lock and is
//    only safe while no other session is executing (setup, tests,
//    single-threaded tools). A verb logged that way is enqueued like
//    a statement's; it is durable once the next statement's wait
//    returns, or once storage()->WaitDurable(TakePendingTickets()) does.
//
// `help` lists the command syntax, including the session verbs
// `pin <cvd> [-v <vid>]`, `unpin <cvd>`, `pins` and `discard -t <table>`.

#ifndef ORPHEUS_CORE_ENGINE_API_H_
#define ORPHEUS_CORE_ENGINE_API_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/concurrency.h"
#include "core/orpheus.h"

namespace orpheus::core {

class EngineApi {
 public:
  // Owning the engine, EngineApi waits for WAL records itself (after
  // releasing the exclusive lock), so its verbs only enqueue them.
  EngineApi() { orpheus_.defer_wal_waits_ = true; }
  EngineApi(const EngineApi&) = delete;
  EngineApi& operator=(const EngineApi&) = delete;

  // Creates a session context with a fresh id. Sessions are cheap;
  // the caller owns the lifetime (the server's SessionManager, or the
  // CLI for its single session).
  std::shared_ptr<SessionContext> NewSession();

  // Ends a session: releases its pins and (optionally) discards every
  // staged table it still owns — the server does this on disconnect so
  // abandoned checkouts don't leak. Discards are logged when durable.
  void CloseSession(SessionContext* session, bool discard_staged);

  // Executes one command line on behalf of `session`; returns the text
  // to display. Safe to call concurrently from many threads, one call
  // per session at a time.
  Result<std::string> Execute(SessionContext* session, const std::string& line);

  // The engine. Lock-free access — see the class comment.
  OrpheusDB* orpheus() { return &orpheus_; }

  EngineLock* lock() { return &lock_; }
  SnapshotRegistry* registry() { return &registry_; }

 private:
  // Execute() minus the per-op trace scope: dispatches one already
  // trimmed statement.
  Result<std::string> ExecuteParsed(SessionContext* session,
                                    const std::string& trimmed);

  // Observability verbs (lock-free; the registry and trace log are
  // internally synchronized).
  Result<std::string> Metrics();
  Result<std::string> Stats(SessionContext* session);
  Result<std::string> Traces(const std::vector<std::string>& args);
  Result<std::string> Slowlog(const std::vector<std::string>& args);

  // Runs `sql` and returns its operator profile tree instead of its
  // rows — the `explain analyze` / `profile` verbs. Called with the
  // appropriate engine lock held (the SQL really executes).
  Result<std::string> ProfileSql(const std::string& sql, bool json);

  // Command handlers; called with the appropriate engine lock held.
  Result<std::string> Init(SessionContext* session,
                           const std::vector<std::string>& args);
  Result<std::string> Checkout(SessionContext* session,
                               const std::vector<std::string>& args);
  Result<std::string> Commit(SessionContext* session,
                             const std::vector<std::string>& args);
  Result<std::string> Discard(SessionContext* session,
                              const std::vector<std::string>& args);
  Result<std::string> Drop(SessionContext* session,
                           const std::vector<std::string>& args);
  Result<std::string> DiffCmd(const std::vector<std::string>& args);
  Result<std::string> Optimize(const std::vector<std::string>& args);
  Result<std::string> Pin(SessionContext* session,
                          const std::vector<std::string>& args);

  // Resolves which CVD owns a staged table: the session's own
  // checkouts first, then any CVD's staging area (so a session can
  // adopt tables replayed from the WAL of an earlier process).
  Result<std::string> ResolveStagedCvd(const SessionContext& session,
                                       const std::string& table);

  OrpheusDB orpheus_;
  EngineLock lock_;
  SnapshotRegistry registry_;
  std::atomic<uint64_t> next_session_id_{1};
};

}  // namespace orpheus::core

#endif  // ORPHEUS_CORE_ENGINE_API_H_
