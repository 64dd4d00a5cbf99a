#include "core/undo_log.h"

namespace mtdb {
namespace mapping {

StatementUndoLog::StatementUndoLog(Database* db, LayoutStats* stats)
    : stats_(stats), local_(db) {
  ctx_ = txn::TransactionContext::Current();
  if (ctx_ == nullptr) ctx_ = &local_;
  mark_ = ctx_->undo_size();
}

StatementUndoLog::~StatementUndoLog() { (void)Fail(Status::OK()); }

Status StatementUndoLog::Stage(sql::Statement compensation) {
  if (bound() && !joined_) {
    // The Join tells the engine DML path underneath not to stage its own
    // value-based compensations on top of these row-precise ones.
    ctx_->Join();
    joined_ = true;
  }
  return ctx_->Stage(std::move(compensation));
}

Status StatementUndoLog::Fail(Status st) {
  if (finished_) return st;
  // Entries past the mark are this statement's confirmed writes; a
  // staged entry whose forward statement failed is dropped unreplayed.
  const bool had_undo = ctx_->undo_size() > mark_;
  uint64_t executed = 0;
  (void)ctx_->RollbackTo(mark_, &executed);
  if (had_undo) {
    stats_->statement_rollbacks++;
    stats_->undo_statements += executed;
  }
  (void)Finish();
  return st;
}

Status StatementUndoLog::Finish() {
  if (finished_) return Status::OK();
  finished_ = true;
  if (joined_) ctx_->Leave();
  return bound() ? Status::OK() : local_.Commit();
}

}  // namespace mapping
}  // namespace mtdb
