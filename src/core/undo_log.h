#ifndef MTDB_CORE_UNDO_LOG_H_
#define MTDB_CORE_UNDO_LOG_H_

#include "core/layout.h"
#include "engine/database.h"
#include "engine/txn_context.h"
#include "sql/ast.h"

namespace mtdb {
namespace mapping {

/// Statement-level undo log for the mapping layer (§6.3's multi-statement
/// DML). A logical INSERT/UPDATE/DELETE fans out into one physical
/// statement per chunk/source; each physical statement is atomic in the
/// engine, but a fault between them would otherwise leave a logical row
/// half-written across its chunks. The generic DML paths therefore stage
/// a compensating physical statement for every physical write before
/// applying it, and replay the confirmed entries in reverse if a later
/// write fails — so the logical statement as a whole either applies or
/// leaves no trace.
///
/// The log is a savepoint over a txn::TransactionContext, the one
/// logical-transaction bracket: the client's context when one is current
/// (TransactionContext::Current(), set by the session layer), otherwise
/// a statement-local context owned here. The savepoint marks the
/// context's undo length at construction; Fail() rolls back the entries
/// past the mark with the context's rollback loop. On success a client
/// context keeps the statement's entries, so a later ROLLBACK undoes
/// this statement too; a statement-local context discards them and
/// closes its bracket.
///
/// Durable engines extend the protocol across crashes through the
/// context: every Stage() appends its compensation (as SQL text) as a
/// WAL txn hint BEFORE the forward statement runs, and the bracket's end
/// record — at Finish() for a statement-local context, at COMMIT for a
/// client — closes it. If the process dies in between, recovery finds
/// the transaction open and replays the hints newest-first. A checkpoint
/// may land between two physical statements: it carries the open
/// bracket's hints forward in its meta file. Hints precede their forward
/// statements in the log, so every compensation must be idempotent or
/// guarded (recovery probes INSERT compensations for the row before
/// re-inserting).
///
/// Compensations are ordinary physical ASTs (DELETE to undo an INSERT,
/// UPDATE restoring prior values to undo an UPDATE, INSERT re-creating
/// the row images to undo a DELETE) executed through the same engine
/// front door, so they stay atomic themselves and honour the same latch
/// order. Rollback is best-effort: each entry is retried a few times
/// (the engine's buffer pool already absorbs transient faults) and the
/// replay keeps going past a failed entry to restore as much as
/// possible.
///
/// Call protocol per physical statement: Stage(compensation) → run the
/// forward statement → Commit() on success. On logical-statement failure
/// return Fail(status); on success return after Finish(). A log
/// destroyed without either fails the statement best-effort.
///
/// Not thread-safe: one log per in-flight statement, on the stack.
class StatementUndoLog {
 public:
  /// `stats` receives the statement_rollbacks / undo_statements counts
  /// of Fail().
  StatementUndoLog(Database* db, LayoutStats* stats);
  ~StatementUndoLog();

  StatementUndoLog(const StatementUndoLog&) = delete;
  StatementUndoLog& operator=(const StatementUndoLog&) = delete;

  /// Stages a compensation for the NEXT forward statement (a batched
  /// forward statement stages one compensation per covered row). On a
  /// durable engine the compensation becomes a WAL txn hint first; a
  /// failure here means the hint is not durable and the caller must not
  /// run the forward statement.
  Status Stage(sql::Statement compensation);

  /// Confirms all staged compensations: their forward statement
  /// succeeded, so a rollback will replay them. No-op if nothing is
  /// staged.
  void Commit() { ctx_->Confirm(); }

  /// Logical-statement failure: rolls back to the savepoint (counting
  /// the rollback in the layout stats when there was anything to undo),
  /// finishes the log and returns `st`. Idempotent: a second call (an
  /// outer caller failing on the same log) only returns `st`.
  Status Fail(Status st);

  /// Success path: closes a statement-local bracket, if one was opened.
  /// Check the status: a durable engine that cannot write the txn-end
  /// record will re-undo the statement after a crash.
  Status Finish();

  /// True when the log is bound to an ambient client transaction: the
  /// generic DML paths must then record undo for every write (even
  /// single-source ones the statement itself would not need), because
  /// the transaction may roll the statement back later.
  bool bound() const { return ctx_ != &local_; }

 private:
  LayoutStats* stats_;
  txn::TransactionContext local_;
  txn::TransactionContext* ctx_;
  size_t mark_;
  bool joined_ = false;
  bool finished_ = false;
};

}  // namespace mapping
}  // namespace mtdb

#endif  // MTDB_CORE_UNDO_LOG_H_
