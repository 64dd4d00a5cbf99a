#include "engine/txn_context.h"

#include <string>

#include "engine/database.h"
#include "engine/lock_manager.h"

namespace mtdb {
namespace txn {

namespace {

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
}

void TransactionContext::BumpCounter(const char* op) {
  db_->metrics_registry()
      ->GetCounter(std::string("txn.") + op + ".t" + std::to_string(tenant_))
      ->Add(1);
}

lock::LockHolder* TransactionContext::EnsureLockHolder() {
  if (lock_holder_ == nullptr && db_->lock_manager() != nullptr) {
    lock_holder_ =
        std::make_unique<lock::LockHolder>(db_->lock_manager(), tenant_);
  }
  return lock_holder_.get();
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

Status TransactionContext::Commit() {
  if (!begun_) return Status::FailedPrecondition("no transaction open");
  if (state_ != State::kActive) {
    return Status::FailedPrecondition(
        state_ == State::kPoisoned
            ? "transaction is poisoned by a failed statement; ROLLBACK it"
            : "transaction was already aborted; ROLLBACK to acknowledge");
  }
  begun_ = false;
  open_counts_->closed.Add(1);
  Status st = db_->EndTxn(txn_id_);
  // Row locks drop only once the bracket is fully closed — waiters that
  // proceed now re-run Phase (a) and see the committed image.
  lock_holder_.reset();
  // A failed end-record append (frozen durability) means the commit is
  // NOT durable: recovery will undo the transaction. Report that.
  if (st.ok()) BumpCounter("commit");
  return st;
}

Status TransactionContext::Rollback(bool is_auto) {
  if (!begun_) return Status::FailedPrecondition("no transaction open");
  begun_ = false;
  open_counts_->closed.Add(1);
  Status st = db_->RollbackTxn(txn_id_);
  // Locks release strictly after the revert above: the rolled-back rows
  // stay write-isolated until their pre-images are back.
  lock_holder_.reset();
  BumpCounter(is_auto ? "auto_rollback" : "rollback");
  return st;
}

}  // namespace txn
}  // namespace mtdb
