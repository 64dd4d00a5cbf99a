#include "engine/txn_context.h"

#include "common/deadline.h"
#include "engine/database.h"
#include "sql/printer.h"

namespace mtdb {
namespace txn {

namespace {

// Per-entry retry budget during rollback, on top of the buffer pool's
// own per-I/O retries.
constexpr int kRollbackAttempts = 4;

thread_local TransactionContext* tls_current = nullptr;

}  // namespace

TransactionContext* TransactionContext::Current() { return tls_current; }

TransactionContext::Scope::Scope(TransactionContext* ctx) : prev_(tls_current) {
  tls_current = ctx;
}

TransactionContext::Scope::~Scope() { tls_current = prev_; }

TransactionContext::TransactionContext(Database* db, int64_t tenant)
    : db_(db), tenant_(tenant) {}

TransactionContext::~TransactionContext() {
  if (begun_) (void)Rollback(/*is_auto=*/true);
  ReleaseLocks();  // defensive: Commit/Rollback already released
}

void TransactionContext::BumpCounter(const char* op) {
  db_->metrics_registry()
      ->GetCounter(std::string("txn.") + op + ".t" + std::to_string(tenant_))
      ->Add(1);
}

uint64_t TransactionContext::EnsureLockHolder() {
  if (lock_holder_ == 0 && db_->lock_manager() != nullptr) {
    lock_holder_ = db_->lock_manager()->CreateHolder(tenant_, /*bracket=*/true);
  }
  return lock_holder_;
}

void TransactionContext::ReleaseLocks() {
  if (lock_holder_ == 0) return;
  if (db_->lock_manager() != nullptr) {
    db_->lock_manager()->ReleaseAll(lock_holder_);
  }
  lock_holder_ = 0;
}

Status TransactionContext::Begin() {
  if (begun_) return Status::FailedPrecondition("transaction already open");
  MTDB_ASSIGN_OR_RETURN(txn_id_, db_->BeginTxn());
  begun_ = true;
  state_ = State::kActive;
  open_counts_ = db_->OpenTxnCount(tenant_);
  open_counts_->opened.Add(1);
  BumpCounter("begin");
  return Status::OK();
}

Status TransactionContext::Close() {
  begun_ = false;
  open_counts_->closed.Add(1);
  return db_->EndTxn(txn_id_);
}

Status TransactionContext::Commit() {
  if (!begun_) return Status::FailedPrecondition("no transaction open");
  if (state_ != State::kActive) {
    return Status::FailedPrecondition(
        state_ == State::kPoisoned
            ? "transaction is poisoned by a failed statement; ROLLBACK it"
            : "transaction was already aborted; ROLLBACK to acknowledge");
  }
  entries_.clear();
  Status st = Close();
  // Row locks drop only once the bracket is fully closed — waiters that
  // proceed now re-run Phase (a) and see the committed image.
  ReleaseLocks();
  // A failed end-record append (frozen durability) means the commit is
  // NOT durable: recovery will undo the transaction. Report that.
  if (st.ok()) BumpCounter("commit");
  return st;
}

Status TransactionContext::Rollback(bool is_auto) {
  if (!begun_) return Status::FailedPrecondition("no transaction open");
  Status first_error = Status::OK();
  {
    // Compensations must run to completion even when the transaction is
    // being torn down by a deadline or a cancellation, and must not
    // stage undo of their own.
    deadline::Scope no_deadline(deadline::Deadline::None());
    Scope detached(nullptr);
    while (!entries_.empty()) {
      sql::Statement comp = std::move(entries_.back());
      entries_.pop_back();
      Status st = Status::OK();
      for (int attempt = 0; attempt < kRollbackAttempts; ++attempt) {
        st = db_->ExecuteUndo(comp).status();
        if (st.ok()) break;
      }
      if (!st.ok() && first_error.ok()) first_error = st;
    }
  }
  Status ended = Close();
  // Locks release strictly after the compensations replayed above: the
  // rolled-back rows stay write-isolated until their pre-images are back.
  ReleaseLocks();
  if (first_error.ok()) first_error = ended;
  BumpCounter(is_auto ? "auto_rollback" : "rollback");
  return first_error;
}

Status TransactionContext::StageEngineUndo(
    std::vector<sql::Statement> compensations) {
  if (!begun_) return Status::FailedPrecondition("no transaction open");
  if (db_->durable()) {
    for (const sql::Statement& comp : compensations) {
      MTDB_RETURN_IF_ERROR(
          db_->StageTxnHintUnderStatement(txn_id_, sql::ToSql(comp)));
    }
  }
  for (auto& comp : compensations) entries_.push_back(std::move(comp));
  return Status::OK();
}

}  // namespace txn
}  // namespace mtdb
