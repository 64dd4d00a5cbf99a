#ifndef MTDB_ENGINE_TXN_CONTEXT_H_
#define MTDB_ENGINE_TXN_CONTEXT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "sql/ast.h"

namespace mtdb {

class Database;
struct OpenTxnCounters;

namespace txn {

/// The one logical-transaction bracket: an undo log of compensating
/// statements plus, on durable engines, the WAL bracket that makes it
/// survive a crash. Two kinds of owner use it:
///
///   * a client transaction — owned by a Session (a TenantSession holds
///     one) between an explicit BEGIN and the matching COMMIT / ROLLBACK.
///     Every mutating statement inside the bracket contributes its
///     confirmed compensations (in staging order), and Rollback()
///     replays the accumulated log newest-first through the ordinary
///     SQL front door;
///   * a statement-local bracket — owned by the mapping layer's
///     StatementUndoLog for one autocommit logical write (§6.3's
///     multi-statement DML). It opens its WAL bracket lazily on the
///     first durable Stage(), is never installed as Current(), takes no
///     lock holder, and is not counted in the txn.* counters or the
///     txn.open gauge. On an in-memory engine it takes no latch,
///     registry entry or WAL record.
///
/// Durability: the bracket appends kTxnBegin, each staged compensation
/// is appended as a kTxnHint before its forward statement runs, and
/// Commit()/Rollback() append kTxnEnd. A crash anywhere in between
/// leaves the transaction without an end record, so Recover() replays
/// the hints newest-first — committed transactions survive, open ones
/// vanish. The checkpoint gate is held only around each append, never
/// across statements: checkpoints do NOT wait for open transactions but
/// carry the accumulated hints forward in the checkpoint meta
/// (Durability meta v2), so a bracket may stay open indefinitely — or
/// see a checkpoint between two of its physical statements — without
/// pinning the WAL.
///
/// State machine:
///   kActive   — statements execute; Commit() and Rollback() accepted.
///   kPoisoned — a statement inside the bracket failed. The statement
///               itself was already rolled back (statement atomicity),
///               but the transaction's earlier statements may conflict
///               with whatever the client does next, so everything except
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
/// underneath — the mapping layer's StatementUndoLog takes a savepoint
/// on it, and the engine's DML path stages value-based compensations
/// when no mapping undo log has joined for the statement.
class TransactionContext {
 public:
  enum class State { kActive, kPoisoned, kAborted };

  /// A client transaction. `tenant` labels the txn.* metric series
  /// (kEngineTenant for engine sessions). The context starts active but
  /// unopened; call Begin().
  TransactionContext(Database* db, int64_t tenant);
  /// A statement-local bracket (see the class comment). Never call
  /// Begin(): the first durable Stage() opens it, Commit() closes it.
  explicit TransactionContext(Database* db);
  /// Auto-rolls-back a transaction still open at destruction (session
  /// dropped mid-transaction).
  ~TransactionContext();

  TransactionContext(const TransactionContext&) = delete;
  TransactionContext& operator=(const TransactionContext&) = delete;

  /// Opens a client bracket: the WAL begin record, the engine's
  /// open-transaction registry (checkpoint preservation) and the
  /// txn.open gauge.
  Status Begin();

  /// Appends the commit record (if the bracket opened) and discards the
  /// undo log. Fails with kFailedPrecondition when the transaction is
  /// poisoned or aborted.
  Status Commit();

  /// Replays the accumulated compensations newest-first (each entry
  /// retried a few times, the whole replay deadline-suppressed like
  /// statement-level compensation), then closes the WAL bracket.
  /// `is_auto` selects the txn.auto_rollback metric and is set by the
  /// session's abort paths and the destructor.
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
  /// Commit()/Rollback() completes — compensation replay always runs
  /// under the locks that protected the forward statements. Returns 0
  /// when the engine runs without a lock manager.
  uint64_t EnsureLockHolder();
  uint64_t lock_holder() const { return lock_holder_; }

  uint64_t txn_id() const { return txn_id_; }
  bool open() const { return begun_; }
  /// Confirmed undo entries: the savepoint mark of a statement starting
  /// now.
  size_t undo_size() const { return entries_.size(); }

  // --- undo staging ---------------------------------------------------

  /// Stages one compensation from the mapping layer's StatementUndoLog
  /// before its forward physical statement runs. Durable engines append
  /// it as a WAL hint under a brief shared hold of the checkpoint gate
  /// and mirror it into the open-txn registry (a statement-local bracket
  /// opens on its first hint). A failure means the hint is not durable
  /// and the forward statement must not run. The entry stays pending
  /// until Confirm().
  Status Stage(sql::Statement compensation);

  /// The forward statement succeeded: pending entries join the undo log.
  void Confirm();

  /// Engine-DML variant: value-based compensations of a statement that
  /// already applied, confirmed at once. Runs under the engine's shared
  /// DDL latch, which ranks below the checkpoint gate, so the hints are
  /// logged without the gate. Safe without it — checkpoints hold the DDL
  /// latch exclusively, excluding any in-flight engine statement.
  Status StageEngineUndo(std::vector<sql::Statement> compensations);

  /// Rolls back to a savepoint: drops pending entries, then replays the
  /// confirmed entries past `mark` newest-first and removes them. Each
  /// entry is retried a few times and the replay is deadline-suppressed;
  /// it returns the first failure but attempts every entry. `executed`,
  /// when set, counts the compensations that ran. The bracket stays
  /// open.
  Status RollbackTo(size_t mark, uint64_t* executed = nullptr);

  /// Join/Leave bracket a statement whose mapping-layer undo log has
  /// taken over staging; while joined, the engine DML path must not
  /// stage its own value-based compensations on top.
  void Join() { ++join_depth_; }
  void Leave() { if (join_depth_ > 0) --join_depth_; }
  bool joined() const { return join_depth_ > 0; }

  /// The context installed on this thread by the innermost live Scope,
  /// or nullptr outside any transaction-bound statement.
  static TransactionContext* Current();

  /// Installs a context as the thread's current for the duration of one
  /// statement. The session layer creates one around statement execution
  /// only — never around Rollback(), so compensation replay cannot
  /// re-enter the staging paths.
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
  /// Appends the end record of an opened bracket.
  Status Close();

  Database* db_;
  int64_t tenant_;
  /// The per-tenant txn.open counts; null for a statement-local bracket.
  OpenTxnCounters* open_counts_ = nullptr;
  const bool client_;
  State state_ = State::kActive;
  uint64_t txn_id_ = 0;
  uint64_t lock_holder_ = 0;
  bool begun_ = false;
  int join_depth_ = 0;
  /// Confirmed compensations in staging order, across statements.
  std::vector<sql::Statement> entries_;
  /// Staged compensations whose forward statement has not yet succeeded.
  std::vector<sql::Statement> pending_;
};

}  // namespace txn
}  // namespace mtdb

#endif  // MTDB_ENGINE_TXN_CONTEXT_H_
