#include "engine/session.h"

#include <optional>

#include "sql/ast_util.h"
#include "sql/parser.h"

namespace mtdb {

namespace {

bool IsDdl(sql::StatementKind kind) {
  switch (kind) {
    case sql::StatementKind::kCreateTable:
    case sql::StatementKind::kCreateIndex:
    case sql::StatementKind::kDropTable:
    case sql::StatementKind::kDropIndex:
      return true;
    default:
      return false;
  }
}

// Failures after which the transaction cannot make progress and the
// session aborts it on the spot (as opposed to ordinary statement
// failures, which poison it and wait for the client's ROLLBACK):
// deadline expiry, admission rejection, breaker-open quarantine, and
// deadlock victims (kAborted), whose bracket must roll back and release
// its lock set immediately so the cycle partner can proceed.
bool AbortsTransaction(StatusCode code) {
  return code == StatusCode::kDeadlineExceeded ||
         code == StatusCode::kResourceExhausted ||
         code == StatusCode::kUnavailable ||
         code == StatusCode::kAborted;
}

Status SessionClosed() { return Status::InvalidArgument("session is closed"); }

}  // namespace

Session::Session(Database* db, StatementExecutor* executor, TenantId tenant,
                 std::string label)
    : db_(db), executor_(executor), tenant_(tenant), label_(std::move(label)) {
  if (trace::TracingForced()) EnableTracing();
}

Status Session::Begin() {
  if (db_ == nullptr) return SessionClosed();
  if (txn_ != nullptr) {
    return Status::FailedPrecondition("transaction already open");
  }
  auto ctx = std::make_unique<txn::TransactionContext>(db_, tenant_);
  MTDB_RETURN_IF_ERROR(ctx->Begin());
  txn_ = std::move(ctx);
  if (tracer_ != nullptr) tracer_->BeginTransaction(tenant_, label_);
  return Status::OK();
}

Status Session::Commit() {
  if (db_ == nullptr) return SessionClosed();
  if (txn_ == nullptr) {
    return Status::FailedPrecondition("no transaction open");
  }
  Status st = txn_->Commit();
  if (st.code() == StatusCode::kFailedPrecondition) {
    // Poisoned or aborted: the transaction stays open until the client
    // acknowledges with ROLLBACK.
    return st;
  }
  // Committed — or the end record could not be appended, in which case
  // the commit is not durable and recovery will undo it; either way the
  // bracket is closed and the context is spent.
  txn_.reset();
  if (tracer_ != nullptr) tracer_->EndTransaction(st.ok());
  return st;
}

Status Session::Rollback() {
  if (db_ == nullptr) return SessionClosed();
  if (txn_ == nullptr) {
    return Status::FailedPrecondition("no transaction open");
  }
  Status st = Status::OK();
  // An aborted transaction was already rolled back by the session;
  // this ROLLBACK just acknowledges it.
  if (txn_->open()) st = txn_->Rollback();
  txn_.reset();
  if (tracer_ != nullptr) tracer_->EndTransaction(false);
  return st;
}

void Session::EnableTracing(bool on) {
  if (tracer_ == nullptr && db_ != nullptr) {
    tracer_ =
        std::make_unique<trace::StatementTracer>(db_->metrics_registry());
  }
  if (tracer_ != nullptr) tracer_->set_enabled(on);
}

template <typename Fn>
auto Session::Pipeline(sql::StatementKind kind, deadline::Deadline deadline,
                       Fn&& run) -> decltype(run()) {
  // An explicit deadline shadows any ambient one for this statement; an
  // inactive argument re-installs the ambient deadline (no-op).
  deadline::Scope in_deadline(deadline.active ? deadline
                                              : deadline::Current());
  const bool traced = tracer_ != nullptr && tracer_->enabled();
  std::optional<trace::TracerScope> in_trace;
  if (traced) {
    tracer_->BeginStatement(tenant_, label_, sql::KindLabel(kind));
    in_trace.emplace(tracer_.get());
  }
  auto res = [&]() -> decltype(run()) {
    if (txn_ != nullptr) {
      switch (txn_->state()) {
        case txn::TransactionContext::State::kActive:
          break;
        case txn::TransactionContext::State::kPoisoned:
          return Status::FailedPrecondition(
              "transaction is poisoned by a failed statement; ROLLBACK it");
        case txn::TransactionContext::State::kAborted:
          return Status::FailedPrecondition(
              "transaction was aborted; ROLLBACK to acknowledge");
      }
      if (IsDdl(kind)) {
        return Status::FailedPrecondition(
            "DDL is not allowed inside a transaction");
      }
    }
    auto out = [&]() -> decltype(run()) {
      // The Scope makes the open transaction visible to the executor:
      // the engine's write batches record undo for it and the mapping
      // layer's row locks join its holder. It does not cover the
      // rollback below.
      std::optional<txn::TransactionContext::Scope> in_txn;
      if (txn_ != nullptr) in_txn.emplace(txn_.get());
      AdmissionTicket ticket;
      {
        trace::SpanScope admit("admit", label_);
        MTDB_RETURN_IF_ERROR(
            db_->admission()->Admit(tenant_, deadline::Current(), &ticket));
      }
      return run();
    }();
    if (txn_ != nullptr && !out.ok()) {
      if (AbortsTransaction(out.status().code())) {
        (void)txn_->Rollback(/*is_auto=*/true);
        txn_->MarkAborted();
      } else {
        txn_->Poison();
      }
    }
    return out;
  }();
  if (traced) {
    in_trace.reset();
    tracer_->EndStatement(res.ok());
  }
  if (!res.ok() && res.status().code() == StatusCode::kDeadlineExceeded) {
    MetricsRegistry* registry = db_->metrics_registry();
    registry->GetCounter("deadline.exceeded")->Add(1);
    registry->GetCounter("deadline.exceeded.t" + std::to_string(tenant_))
        ->Add(1);
  }
  return res;
}

Result<PreparedStatement> Session::Prepare(const std::string& sql) const {
  if (db_ == nullptr) return SessionClosed();
  MTDB_ASSIGN_OR_RETURN(sql::Statement stmt, sql::Parse(sql));
  return PreparedStatement(std::move(stmt));
}

Result<StatementResult> Session::Execute(const std::string& sql,
                                         const Params& params,
                                         deadline::Deadline deadline) {
  if (db_ == nullptr) return SessionClosed();
  MTDB_ASSIGN_OR_RETURN(sql::Statement stmt, sql::Parse(sql));
  return Execute(stmt, params, deadline);
}

Result<StatementResult> Session::Execute(const PreparedStatement& prepared,
                                         const Params& params,
                                         deadline::Deadline deadline) {
  return Execute(prepared.statement(), params, deadline);
}

Result<StatementResult> Session::Execute(const sql::Statement& stmt,
                                         const Params& params,
                                         deadline::Deadline deadline) {
  if (db_ == nullptr) return SessionClosed();
  statements_++;
  // Transaction control bypasses admission and deadlines: BEGIN holds
  // no resources, and COMMIT/ROLLBACK must stay executable under
  // overload so a throttled tenant can always let go of its bracket.
  switch (stmt.kind) {
    case sql::StatementKind::kBegin:
      MTDB_RETURN_IF_ERROR(Begin());
      return StatementResult(int64_t{0});
    case sql::StatementKind::kCommit:
      MTDB_RETURN_IF_ERROR(Commit());
      return StatementResult(int64_t{0});
    case sql::StatementKind::kRollback:
      MTDB_RETURN_IF_ERROR(Rollback());
      return StatementResult(int64_t{0});
    default:
      break;
  }
  return Pipeline(stmt.kind, deadline,
                  [&] { return executor_->Run(tenant_, stmt, params); });
}

Result<QueryResult> Session::Query(const std::string& sql,
                                   const Params& params,
                                   deadline::Deadline deadline) {
  if (db_ == nullptr) return SessionClosed();
  MTDB_ASSIGN_OR_RETURN(sql::Statement stmt, sql::Parse(sql));
  if (stmt.kind != sql::StatementKind::kSelect) {
    return Status::InvalidArgument("Query() requires a SELECT statement");
  }
  MTDB_ASSIGN_OR_RETURN(StatementResult res, Execute(stmt, params, deadline));
  return std::move(std::get<QueryResult>(res));
}

Result<int64_t> Session::InsertRow(const std::string& table, const Row& row,
                                   deadline::Deadline deadline) {
  if (db_ == nullptr) return SessionClosed();
  statements_++;
  return Pipeline(sql::StatementKind::kInsert, deadline, [&] {
    return executor_->InsertRow(tenant_, table, row);
  });
}

}  // namespace mtdb
