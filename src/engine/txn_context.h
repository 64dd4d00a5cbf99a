#ifndef MTDB_ENGINE_TXN_CONTEXT_H_
#define MTDB_ENGINE_TXN_CONTEXT_H_

#include <cstdint>

#include "common/status.h"

namespace mtdb {

class Database;
struct OpenTxnCounters;

namespace txn {

/// A client transaction: the bracket a Session (a TenantSession holds
/// one) opens at an explicit BEGIN and closes at the matching COMMIT or
/// ROLLBACK.
///
/// The engine keeps its undo. Every write batch that runs while this
/// context is Current() and open adds the rid-keyed row images of the
/// rows it changed to the transaction's entry in the engine's open-txn
/// registry (Database::ExecuteBatch), in batch order; Rollback() is one
/// engine batch that reverts them newest-first (Database::RollbackTxn),
/// the same revert a failed batch runs. A statement that fails inside
/// the bracket has already reverted its own batch, so it adds nothing.
/// Autocommit writes have no context at all: one batch is atomic by
/// itself.
///
/// Durability: each batch's undo records ride its redo group; Commit()
/// logs a pages-free group that ends the transaction, and the rollback
/// batch's own group ends it. A crash anywhere in between leaves the
/// transaction without an end, so Recover() reverts its records —
/// committed transactions survive, open ones vanish. The engine DDL latch, the
/// one checkpoint exclusion, is held shared only inside those batches
/// and appends, never across statements: checkpoints do NOT wait for
/// open transactions but carry their undo records forward in the
/// checkpoint meta (Durability meta v4), so a bracket may stay open
/// indefinitely without pinning the WAL.
///
/// State machine:
///   kActive   — statements execute; Commit() and Rollback() accepted.
///   kPoisoned — a statement inside the bracket failed. The statement
///               itself was already reverted (batch atomicity), but the
///               transaction's earlier statements may conflict with
///               whatever the client does next, so everything except
///               ROLLBACK now returns kFailedPrecondition.
///   kAborted  — the session already rolled the transaction back itself
///               (deadline expiry, admission rejection, breaker open, or
///               the bracket lost a deadlock and got kAborted).
///               Statements are rejected; ROLLBACK is an acknowledging
///               no-op; COMMIT fails.
///
/// Thread model: a context belongs to one session and is touched by one
/// thread at a time, like the session itself. The TLS installation
/// (Scope) makes the context visible to the statement pipeline
/// underneath: the engine's write batches record undo for it, and the
/// mapping layer's row locks join its lock holder.
class TransactionContext {
 public:
  enum class State { kActive, kPoisoned, kAborted };

  /// `tenant` labels the txn.* metric series (kEngineTenant for engine
  /// sessions). The context starts active but unopened; call Begin().
  TransactionContext(Database* db, int64_t tenant);
  /// Auto-rolls-back a transaction still open at destruction (session
  /// dropped mid-transaction).
  ~TransactionContext();

  TransactionContext(const TransactionContext&) = delete;
  TransactionContext& operator=(const TransactionContext&) = delete;

  /// Opens the bracket: the engine's open-transaction registry and the
  /// txn.open gauge. Logs nothing.
  Status Begin();

  /// Logs the group that ends the transaction and discards the undo
  /// records. Fails with kFailedPrecondition when no transaction is open
  /// or it is poisoned or aborted.
  Status Commit();

  /// Reverts the transaction's rows newest-first in one engine batch
  /// that also ends it (Database::RollbackTxn). Each step is retried and
  /// the batch is deadline-suppressed; it returns the first failure or
  /// refusal but attempts every step. `is_auto` selects the
  /// txn.auto_rollback metric and is set by the session's abort paths
  /// and the destructor.
  Status Rollback(bool is_auto = false);

  State state() const { return state_; }
  /// Ordinary statement failure inside the bracket: reject everything
  /// but ROLLBACK from now on.
  void Poison() { if (state_ == State::kActive) state_ = State::kPoisoned; }
  /// The session rolled back on its own (deadline/admission/breaker, or
  /// the bracket lost a deadlock and was aborted with kAborted).
  void MarkAborted() { state_ = State::kAborted; }

  /// The bracket's lock-manager holder id (DESIGN.md §15), created on
  /// the first write statement's acquisition and released only after
  /// Commit()/Rollback() completes — the rollback batch always runs
  /// under the locks that protected the forward statements. Returns 0
  /// when the engine runs without a lock manager.
  uint64_t EnsureLockHolder();
  uint64_t lock_holder() const { return lock_holder_; }

  uint64_t txn_id() const { return txn_id_; }
  bool open() const { return begun_; }

  /// The context installed on this thread by the innermost live Scope,
  /// or nullptr outside any transaction-bound statement.
  static TransactionContext* Current();

  /// Installs a context (or nullptr) as the thread's current for the
  /// duration of one statement. The session layer creates one around
  /// statement execution.
  class Scope {
   public:
    explicit Scope(TransactionContext* ctx);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    TransactionContext* prev_;
  };

 private:
  void BumpCounter(const char* op);
  void ReleaseLocks();

  Database* db_;
  int64_t tenant_;
  /// The per-tenant txn.open counts, registered at Begin().
  OpenTxnCounters* open_counts_ = nullptr;
  State state_ = State::kActive;
  uint64_t txn_id_ = 0;
  uint64_t lock_holder_ = 0;
  bool begun_ = false;
};

}  // namespace txn
}  // namespace mtdb

#endif  // MTDB_ENGINE_TXN_CONTEXT_H_
