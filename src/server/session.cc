#include "server/session.h"

namespace dbspinner {
namespace server {

Session::Session(SessionManager* manager, uint64_t id, EngineOptions options)
    : manager_(manager), id_(id), state_(std::move(options)) {
  // Session-scoped temp names: two sessions materializing "__working" in
  // their programs land on distinct registry keys by construction.
  state_.temp_scope = "s" + std::to_string(id) + ":";
}

Session::~Session() {
  // A dropped connection must not leave the engine's writer slot held: roll
  // back any open transaction (releases the commit lock — legal from this
  // thread, the lock is thread-agnostic — and restores the catalog
  // snapshot).
  if (state_.InTransaction()) {
    (void)manager_->db()->ExecuteForSession(&state_, "ROLLBACK");
  }
  manager_->OnSessionDestroyed(id_);
}

void Session::SetInflight(const CancellationToken& token) {
  MutexLock lock(inflight_mu_);
  inflight_ = token;
}

void Session::CancelCurrent() {
  CancellationToken token;
  {
    MutexLock lock(inflight_mu_);
    token = inflight_;
  }
  token.RequestCancel();  // no-op on an inert (idle) token
}

Result<QueryResult> Session::RunAdmitted(
    const CancellationToken& token,
    const std::function<Result<QueryResult>()>& run) {
  SetInflight(token);
  state_.cancel = token;
  Result<QueryResult> result = [&]() -> Result<QueryResult> {
    // A session holding the engine's writer slot (open transaction) bypasses
    // admission: every scheduler slot may be occupied by writers blocked on
    // that very slot, so queueing the COMMIT/ROLLBACK that releases it would
    // deadlock the engine. The transaction already serializes all other
    // writers, so the bypass cannot oversubscribe the pool with writes.
    if (state_.InTransaction()) {
      return run();
    }
    DBSP_ASSIGN_OR_RETURN(QueryScheduler::Slot slot,
                          manager_->scheduler().Admit(id_, token));
    // Queue-wait metadata is surfaced in the statement's ExecStats
    // (rendered by EXPLAIN ANALYZE as queue_wait_us / admission_waits).
    state_.pending.queue_wait_us = slot.queue_wait_us();
    state_.pending.admission_waits = slot.queued() ? 1 : 0;
    return run();  // slot releases here, promoting the next fair waiter
  }();
  state_.cancel = CancellationToken();
  SetInflight(CancellationToken());
  return result;
}

Result<QueryResult> Session::Execute(const std::string& sql) {
  return RunAdmitted(CancellationToken::Make(), [&] {
    return manager_->db()->ExecuteForSession(&state_, sql);
  });
}

Result<QueryResult> Session::ExecuteScript(const std::string& sql) {
  return RunAdmitted(CancellationToken::Make(), [&] {
    return manager_->db()->ExecuteScriptForSession(&state_, sql);
  });
}

Result<QueryResult> Session::ExecuteWithDeadline(const std::string& sql,
                                                 int64_t timeout_micros) {
  CancellationToken token = CancellationToken::Make();
  token.SetDeadlineAfterMicros(timeout_micros);
  return RunAdmitted(token, [&] {
    return manager_->db()->ExecuteForSession(&state_, sql);
  });
}

SchedulerStats Session::scheduler_stats() const {
  return manager_->scheduler().stats();
}

SessionManager::SessionManager(Database* db, SchedulerOptions sched)
    : db_(db), scheduler_(sched) {
  // Post-commit view maintenance competes for an execution slot like a
  // client query, under the reserved maintenance pseudo-session, and its
  // queries observe the committing statement's cancellation token.
  // Non-blocking: the committing statement still holds its own slot, so
  // waiting here could deadlock a saturated scheduler — on rejection the
  // drain runs inline under the committer's slot instead.
  db_->set_maintenance_gate([this](const CancellationToken& cancel,
                                   const std::function<Status()>& drain) {
    (void)cancel;  // the drain's queries poll it; admission never waits
    auto slot = scheduler_.TryAdmit(kMaintenanceSessionId);
    (void)slot;
    return drain();  // slot (when granted) releases after the drain
  });
}

SessionManager::~SessionManager() {
  // The gate captures `this`; a Database outliving its manager must not
  // call into a destroyed scheduler.
  db_->set_maintenance_gate(nullptr);
}

std::shared_ptr<Session> SessionManager::CreateSession() {
  return CreateSession(db_->options());
}

std::shared_ptr<Session> SessionManager::CreateSession(EngineOptions options) {
  uint64_t id;
  {
    MutexLock lock(mu_);
    id = next_id_++;
    ++active_;
  }
  // Not make_shared: the constructor is private to force creation through
  // the manager (ids must be unique per manager).
  return std::shared_ptr<Session>(new Session(this, id, std::move(options)));
}

void SessionManager::OnSessionDestroyed(uint64_t id) {
  (void)id;
  MutexLock lock(mu_);
  --active_;
}

size_t SessionManager::active_sessions() const {
  MutexLock lock(mu_);
  return active_;
}

}  // namespace server
}  // namespace dbspinner
