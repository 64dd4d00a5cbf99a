#ifndef MTDB_ENGINE_DATABASE_H_
#define MTDB_ENGINE_DATABASE_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <variant>
#include <vector>

#include "catalog/catalog.h"
#include "common/latch.h"
#include "common/metrics_registry.h"
#include "common/result.h"
#include "engine/admission.h"
#include "engine/lock_manager.h"
#include "engine/planner.h"
#include "sql/ast.h"
#include "storage/buffer_pool.h"
#include "storage/durability.h"
#include "storage/page_store.h"

namespace mtdb {

class Session;

/// Engine configuration. `memory_budget_bytes` is shared between the
/// buffer pool and the catalog's per-table meta-data charge, reproducing
/// the paper's scalability limit on the number of tables.
struct EngineOptions {
  uint64_t memory_budget_bytes = 64ull * 1024 * 1024;
  uint32_t page_size = kDefaultPageSize;
  MetadataCosts metadata_costs;
  PlannerMode planner_mode = PlannerMode::kAdvanced;
  /// Simulated device latency per physical page read (cold-cache shape).
  uint64_t read_latency_ns = 0;
  uint64_t wal_segment_bytes = 4ull * 1024 * 1024;
  /// WAL bytes between automatic checkpoints (durable mode); 0 disables
  /// auto checkpointing — explicit Checkpoint() calls still work.
  uint64_t checkpoint_interval_bytes = 8ull * 1024 * 1024;
};

/// Result of a SELECT: column names plus materialized rows.
struct QueryResult {
  std::vector<std::string> columns;
  std::vector<Row> rows;
};

/// One physical statement an EXPLAIN MAPPING plan consists of.
struct PhysicalStatementPlan {
  std::string op;     // "select" / "insert" / "update" / "delete"
  std::string table;  // first physical base table the statement touches
  std::string sql;    // rendered physical SQL
};

/// Result of EXPLAIN MAPPING: the physical statements the target would
/// have produced, without executing any of them.
struct MappingExplanation {
  std::string layout;  // layout name, or "engine" below the mapping layer
  int64_t tenant = -1;
  std::string logical;  // the target statement, rendered back to SQL
  std::vector<PhysicalStatementPlan> statements;
  /// For SELECT targets: the engine's physical plan for the (first)
  /// transformed query, from the planner's explain facility.
  std::string plan_text;

  /// Renders the explanation as indented text (one line per physical
  /// statement) for CLIs and tests.
  std::string ToText() const;
};

/// What one statement produced: rows for SELECT, an affected-row count
/// for DML/DDL (DDL reports 0), a physical plan for EXPLAIN MAPPING.
using StatementResult = std::variant<QueryResult, int64_t, MappingExplanation>;

inline bool HasRows(const StatementResult& r) {
  return std::holds_alternative<QueryResult>(r);
}
inline const QueryResult& RowsOf(const StatementResult& r) {
  return std::get<QueryResult>(r);
}
inline int64_t AffectedOf(const StatementResult& r) {
  return std::get<int64_t>(r);
}
inline bool HasExplanation(const StatementResult& r) {
  return std::holds_alternative<MappingExplanation>(r);
}
inline const MappingExplanation& ExplanationOf(const StatementResult& r) {
  return std::get<MappingExplanation>(r);
}

/// The one step of the Session statement pipeline that differs between
/// front doors: runs a statement that has already been gated against the
/// session's transaction, admitted and traced. The engine (Database)
/// runs physical SQL as written; a SchemaMapping rewrites the tenant's
/// logical statement onto its physical schema first (§6.1/§6.3).
class StatementExecutor {
 public:
  virtual ~StatementExecutor() = default;

  virtual Result<StatementResult> Run(TenantId tenant,
                                      const sql::Statement& stmt,
                                      const std::vector<Value>& params) = 0;

  /// Direct row insert (bulk loaders): values in the table's column
  /// order as `tenant` sees it; returns the rows inserted.
  virtual Result<int64_t> InsertRow(TenantId tenant, const std::string& table,
                                    const Row& row) = 0;
};

/// One physical write of a Database::ExecuteBatch: an INSERT, UPDATE or
/// DELETE statement, which the caller keeps alive for the call, or —
/// when `table` is set — a typed insert of `row` (full width, in
/// `table`'s schema order) that skips SQL evaluation.
struct PhysicalWrite {
  const sql::Statement* stmt = nullptr;
  std::string table;
  Row row;

  static PhysicalWrite Dml(const sql::Statement& stmt) {
    PhysicalWrite w;
    w.stmt = &stmt;
    return w;
  }
  static PhysicalWrite RowInsert(std::string table, Row row) {
    PhysicalWrite w;
    w.table = std::move(table);
    w.row = std::move(row);
    return w;
  }
};

/// The two counts behind a tenant's txn.open gauge, which reads
/// opened - closed. Only client brackets move them.
struct OpenTxnCounters {
  Counter opened;
  Counter closed;
};

/// Aggregate engine counters (logical/physical I/O, buffer hit ratios).
/// One composed snapshot from Database::Stats() — the single public
/// accessor for every counter the engine keeps.
struct EngineStats {
  BufferPoolStats buffer;
  PageStoreStats store;
  uint64_t metadata_bytes = 0;
  size_t buffer_capacity = 0;
  size_t tables = 0;
  size_t indexes = 0;
  /// All-zero when the engine is not durable.
  DurabilityCountersSnapshot durability;
  /// Storage-tier fault/retry counters (was BufferPool::io_counters()).
  IoFaultCountersSnapshot io_faults;
  /// The metrics registry: named series (statement tracing aggregates)
  /// plus gauges adapting the struct counters above into one namespace.
  MetricsSnapshot metrics;
};

/// An embedded multi-threaded relational database: the System Under
/// Test substrate on which the schema-mapping layers run. Clients open a
/// Session per worker thread (OpenSession) and execute statements
/// through it; the engine runs statements concurrently, latching only
/// what each statement touches.
///
/// Latch hierarchy (always acquired top-down; see DESIGN.md):
///   1. engine DDL latch          — shared per query/DML, exclusive per DDL
///   2. catalog internal latch    — inside Catalog calls only
///   3. table/index latches       — per touched table, sorted by TableId,
///                                  heap before its indexes
///   4. buffer-pool shard latch   — inside BufferPool calls only
///   5. page-store latch          — inside PageStore calls only
/// Queries take table latches shared; a write batch (ExecuteBatch, one
/// per logical write) takes all its target tables exclusively (coarse
/// per-table granularity: writers to a table serialize with each other
/// and with that table's readers, everything else proceeds in parallel).
class Database;

/// Everything configurable about a Database in one struct — the single
/// construction surface (replaces the grown Open(path) + setter knobs).
struct DatabaseOptions {
  /// Directory for WAL + checkpoint files; empty runs purely in memory.
  std::string path;
  EngineOptions engine;
  /// I/O retry/backoff policy installed on the buffer pool.
  RetryPolicy retry_policy;
  /// Consecutive hard-faulted statements before a mapping layer trips a
  /// tenant's circuit breaker open.
  uint64_t breaker_threshold = 8;
  /// Per-tenant admission control (token buckets + global in-flight cap
  /// with a fair wait queue). Disabled by default.
  AdmissionOptions admission;
  /// Circuit-breaker backoff before the first half-open probe of a
  /// tripped tenant; doubles per failed probe up to the max.
  uint64_t breaker_backoff_initial_ms = 100;
  uint64_t breaker_backoff_max_ms = 5000;
  /// Logical-row write locks (DESIGN.md §15): the mapping layer locks
  /// (tenant, logical table, row id) for every write, client brackets
  /// keep the locks to COMMIT/ROLLBACK, and a wait-for graph aborts
  /// deadlock victims with kAborted. On by default; the off switch
  /// exists for the uncontended-overhead benchmark control arm.
  bool row_locks = true;

  /// Convenience maker for the common durable-open call.
  static DatabaseOptions WithPath(std::string path,
                                  EngineOptions engine = EngineOptions()) {
    DatabaseOptions out;
    out.path = std::move(path);
    out.engine = std::move(engine);
    return out;
  }
};

class Database : public StatementExecutor {
 public:
  explicit Database(DatabaseOptions options = {});

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Opens (or creates) a database per `options`: when options.path is
  /// non-empty, loads the last checkpoint, replays the WAL (truncating a
  /// torn tail), undoes client transactions left open by a crash, and
  /// checkpoints. The returned engine logs every mutation; with an empty
  /// path the engine is purely in-memory.
  static Result<std::unique_ptr<Database>> Open(DatabaseOptions options);

  /// The recovery half of Open(), for a durable engine constructed
  /// directly: call it before anything else, for instance after
  /// attaching a fault injector to the page store so that recovery
  /// itself can be crashed. A second call is kFailedPrecondition.
  Status Recover();

  bool durable() const { return durability_ != nullptr; }
  Durability* durability() { return durability_.get(); }

  /// Quiesces all statements and writes a checkpoint: dirty pages into
  /// the page file, catalog snapshot and open client transactions' undo
  /// records into meta, WAL truncated. Also runs automatically by WAL
  /// volume (EngineOptions::checkpoint_interval_bytes), after a write
  /// batch has released its latches — never inside one.
  Status Checkpoint();

  /// Client-transaction plumbing, used by txn::TransactionContext.
  /// BeginTxn registers the transaction in the open-txn registry, which
  /// collects the undo records of its write batches (ExecuteBatch); it
  /// logs nothing. Every registry change that pairs with a log append
  /// holds the DDL latch shared — briefly, never between statements — so
  /// an open transaction cannot stall checkpoints (which take it
  /// exclusively); checkpoints instead carry the open transactions' undo
  /// records forward in the meta file (Durability meta v4).
  Result<uint64_t> BeginTxn();
  /// COMMIT: logs a pages-free group that ends the transaction, when it
  /// logged undo, and deregisters atomically w.r.t. checkpoints.
  /// Deregisters even when the append fails (frozen durability):
  /// recovery resolves the transaction from disk.
  Status EndTxn(uint64_t txn_id);
  /// ROLLBACK: one batch that reverts the transaction's undo records
  /// newest-first (RevertChanges) and ends the transaction in its redo
  /// group. Every step is attempted; a step whose row no longer holds
  /// the image the transaction left there is refused, and the first
  /// refusal or failure is returned. Deregisters like EndTxn.
  Status RollbackTxn(uint64_t txn_id);
  /// The counts behind the per-tenant txn.open gauge, registered on
  /// first use.
  OpenTxnCounters* OpenTxnCount(int64_t tenant);

  // --- SQL front door -----------------------------------------------

  /// Opens a client session. Sessions are cheap value handles; hold one
  /// per worker thread. Any number may be open concurrently.
  Session OpenSession();

  /// Executes any SQL statement directly on the engine: no admission,
  /// deadline, transaction gate or tracing (setup, tools and tests;
  /// clients go through a Session). SELECTs return rows; DML returns the
  /// affected-row count as a single pseudo-row ("affected"); DDL returns
  /// zero affected.
  Result<QueryResult> Execute(const std::string& sql,
                              const std::vector<Value>& params = {});

  /// Executes a SELECT (string form).
  Result<QueryResult> Query(const std::string& sql,
                            const std::vector<Value>& params = {});

  /// Executes an already-parsed SELECT (the mapping layer transforms
  /// ASTs directly and skips re-parsing).
  Result<QueryResult> QueryAst(const sql::SelectStmt& stmt,
                               const std::vector<Value>& params = {});

  /// Executes a parsed non-SELECT statement; returns affected rows.
  Result<int64_t> ExecuteAst(const sql::Statement& stmt,
                             const std::vector<Value>& params = {});

  /// The engine's one write path: runs `writes` as a single atomic unit
  /// and returns the rows they affected; `params` bind the `?` of their
  /// DML statements. It takes the shared DDL latch once and X-latches the
  /// union of the target tables in TableId order for the whole batch, so
  /// no reader sees part of it. On any failure
  /// or deadline it reverts every row the batch changed and returns the
  /// error; `reverted`, when set, then receives the number of physical
  /// writes that had changed rows. Inside a client transaction it adds
  /// the undo records of its rows to the transaction. A durable engine
  /// logs the batch as exactly one redo group, which carries those
  /// records, while the latches are held; an automatic checkpoint can
  /// only run after it. Every DML statement is a batch of one, as is
  /// InsertRow.
  Result<int64_t> ExecuteBatch(const std::vector<PhysicalWrite>& writes,
                               const std::vector<Value>& params = {},
                               uint64_t* reverted = nullptr);

  /// Compiles a SELECT and renders the plan (the explain facility).
  Result<std::string> Explain(const std::string& sql);
  Result<std::string> ExplainAst(const sql::SelectStmt& stmt);

  // --- direct DDL/DML helpers ----------------------------------------

  Status CreateTable(const std::string& name, Schema schema);
  Status DropTable(const std::string& name);
  Status CreateIndex(const std::string& table, const std::string& index,
                     const std::vector<std::string>& columns, bool unique);

  /// Inserts a full-width row (schema order) into `table`.
  Status InsertRow(const std::string& table, const Row& row);

  // --- observability ---------------------------------------------------

  /// One composed snapshot: engine counters, I/O-fault and durability
  /// counters, and the full metrics registry. The only public stats
  /// accessor.
  EngineStats Stats() const;
  void ResetStats();
  /// Flushes and evicts the entire buffer pool (cold-cache experiments).
  void ColdCache();

  /// The engine-wide metrics registry (statement tracers aggregate into
  /// it; gauges adapt the struct counters).
  MetricsRegistry* metrics_registry() { return registry_.get(); }

  const DatabaseOptions& options() const { return options_db_; }

  /// The engine's admission controller (never null; disabled unless
  /// DatabaseOptions::admission.enabled). The Session pipeline passes
  /// every statement through it.
  AdmissionController* admission() { return admission_.get(); }

  /// The logical-row lock manager (DESIGN.md §15), or nullptr when
  /// DatabaseOptions::row_locks is off. The mapping layer acquires
  /// through it; TransactionContext owns bracket lock sets.
  lock::LockManager* lock_manager() { return lock_manager_.get(); }

  Catalog* catalog() { return catalog_.get(); }
  BufferPool* buffer_pool() { return pool_.get(); }
  PageStore* page_store() { return store_.get(); }

  PlannerMode planner_mode() const {
    return planner_mode_.load(std::memory_order_relaxed);
  }
  void set_planner_mode(PlannerMode mode) {
    planner_mode_.store(mode, std::memory_order_relaxed);
  }

 private:

  /// Registers gauges adapting the I/O-fault, buffer-pool, page-store
  /// and durability counters into the metrics registry.
  void RegisterEngineGauges();

  // StatementExecutor: a Session's statements run here unchanged.
  Result<StatementResult> Run(TenantId tenant, const sql::Statement& stmt,
                              const std::vector<Value>& params) override;
  Result<int64_t> InsertRow(TenantId tenant, const std::string& table,
                            const Row& row) override;

  /// Runs one parsed statement: takes the DDL latch (shared or
  /// exclusive), latches the touched tables in canonical order, and
  /// dispatches.
  Result<StatementResult> RunStatement(const sql::Statement& stmt,
                                       const std::vector<Value>& params);
  Result<QueryResult> RunSelect(const sql::SelectStmt& stmt,
                                const std::vector<Value>& params);
  Result<int64_t> RunMutation(const sql::Statement& stmt,
                              const std::vector<Value>& params);
  Result<int64_t> RunMutationInner(const sql::Statement& stmt,
                                   const std::vector<Value>& params);
  /// ExecuteBatch without the automatic checkpoint after it.
  Result<int64_t> RunBatch(const std::vector<PhysicalWrite>& writes,
                           const std::vector<Value>& params,
                           uint64_t* reverted);
  /// Durable-mode plumbing. CommitDmlGroup appends a batch's redo group
  /// (with every target table's physical anchors, and `group`'s
  /// transaction section) while its latches are still held; it runs for
  /// failed-and-reverted batches too, so the log always matches memory.
  /// CommitDdlGroup adds the full catalog snapshot.
  Status CommitDmlGroup(const PageMutationCapture& capture,
                        const std::vector<TableInfo*>& tables,
                        WalGroup group = {});
  Status CommitDdlGroup(const PageMutationCapture& capture, bool snapshot);
  /// Runs one catalog operation as DDL: DDL latch exclusive, its page
  /// mutations captured and committed as one group (with the catalog
  /// snapshot when `op` succeeded). Returns the group's error, else op's.
  Status RunDdl(const std::function<Status()>& op);
  void MaybeAutoCheckpoint();

  /// One row a batch changed: enough to revert it, in memory or from its
  /// encoded undo record.
  struct RowChange {
    enum class Kind { kInsert, kUpdate, kDelete };
    Kind kind;
    /// Null when the record names a table dropped since.
    TableInfo* table;
    /// The row's rid after the change (insert, update) or before it
    /// (delete); `old_rid` is an UPDATE's rid before it (the heap may
    /// have moved the row).
    Rid rid;
    Rid old_rid;
    Row before;  // update, delete
    Row after;   // insert, update (typed)
  };
  using RowChangeLog = std::vector<RowChange>;

  /// A client transaction's undo records: per row the kind, the table
  /// id, the rid and an UPDATE's old rid, and the before/after images in
  /// the table's RowCodec encoding. EncodeUndo appends `log`'s;
  /// DecodeUndo reads them back against the catalog.
  static Status EncodeUndo(const RowChangeLog& log, std::string* out);
  Result<RowChangeLog> DecodeUndo(const std::string& undo);
  /// Deregisters `txn_id` and returns its undo records, oldest first.
  std::string TakeTxnUndo(uint64_t txn_id);
  /// The undo batch of ROLLBACK and of recovery: X-latches the tables of
  /// `log` (the decoded records of `txns`' write batches in the order
  /// they ran), reverts it and commits one redo group that ends `txns`.
  /// No deadline applies to any of it. The caller holds the DDL latch
  /// shared.
  Status RevertTxns(const std::vector<uint64_t>& txns, const RowChangeLog& log);

  /// The statement drivers of a batch: each appends every row it fully
  /// applies to `log` and leaves reverting to the batch.
  Result<int64_t> ExecuteInsert(const sql::InsertStmt& stmt, TableInfo* table,
                                const ExecContext& ctx, RowChangeLog* log);
  Result<int64_t> ExecuteUpdate(const sql::UpdateStmt& stmt, TableInfo* table,
                                const ExecContext& ctx, RowChangeLog* log);
  Result<int64_t> ExecuteDelete(const sql::DeleteStmt& stmt, TableInfo* table,
                                const ExecContext& ctx, RowChangeLog* log);
  /// Reverts `log` newest-first, each step retried. A step finds its row
  /// where an earlier step of the same revert moved it (an UPDATE undone
  /// onto another page, a DELETE restored at a fresh rid), and is refused
  /// with kFailedPrecondition unless that rid holds exactly the image the
  /// change left there; a restored DELETE is refused when another row
  /// holds one of its unique keys. Reverting an INSERT or UPDATE checks
  /// no unique index: undoing a key shift (SET a = a + 1 over consecutive
  /// keys) row by row passes through states where two rows share a key.
  /// Attempts every step and returns the first refusal or failure.
  Status RevertChanges(const RowChangeLog& log);

  // Every physical mutation below is atomic at the row level: if any of
  // its heap/index writes fails, the ones already applied are compensated
  // (with retries) before the error is returned, so a statement never
  // leaves a half-written row. The batch extends this to all its writes
  // by reverting the fully-applied rows of its log on a later failure.

  /// Inserts one row plus its index entries. On success reports the rid
  /// and the typed (cast) row via the optional out params, which the
  /// batch records in its row-change log.
  Status InsertRowLatched(TableInfo* table, const Row& row,
                          Rid* out_rid = nullptr, Row* out_typed = nullptr);
  Status DeleteRowLatched(TableInfo* table, const Row& row, const Rid& rid);
  /// Applies old_row→new_row at old_rid (index entries + heap image).
  Status UpdateRowLatched(TableInfo* table, const Rid& old_rid,
                          const Row& old_row, const Row& new_row,
                          Rid* out_new_rid);
  /// The retried inverses RevertChanges applies. RevertUpdatedRow moves
  /// `rid` to where the restored row lands; RestoreDeletedRow reports the
  /// rid it re-inserted the row at.
  Status RevertInsertedRow(TableInfo* table, const Row& typed, const Rid& rid);
  Status RevertUpdatedRow(TableInfo* table, Rid* rid, const Row& new_row,
                          const Row& old_row);
  Status RestoreDeletedRow(TableInfo* table, const Row& row, Rid* rid);

  DatabaseOptions options_db_;
  EngineOptions options_;
  std::atomic<PlannerMode> planner_mode_;
  std::unique_ptr<MetricsRegistry> registry_;
  std::unique_ptr<AdmissionController> admission_;
  std::unique_ptr<lock::LockManager> lock_manager_;
  std::unique_ptr<PageStore> store_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<Catalog> catalog_;
  std::unique_ptr<Durability> durability_;
  /// Level-1 latch: statements hold it shared for their whole duration,
  /// DDL holds it exclusive — so a TableInfo* resolved at statement
  /// start cannot be dropped mid-statement.
  mutable SharedLatch ddl_mu_{LatchRank::kDdl, "ddl"};

  /// Open client transactions, and the undo records of their write
  /// batches in the order the batches ran, across transactions (what
  /// ROLLBACK reverts, one transaction's share, and what checkpoints
  /// carry across WAL truncation); beside them the per-tenant txn.open
  /// gauge counts. Guarded by txn_registry_mu_; writers that pair a change
  /// with a log append additionally hold the DDL latch shared, which is
  /// what makes the checkpoint's DDL-exclusive snapshot race-free.
  mutable Latch txn_registry_mu_{LatchRank::kTxnRegistry, "txn-registry"};
  std::set<uint64_t> open_txns_;
  std::vector<OpenTxnMeta> open_batches_;
  std::map<int64_t, std::shared_ptr<OpenTxnCounters>> txn_open_counts_;
  /// Client-txn ids for in-memory engines (no WAL to assign them).
  std::atomic<uint64_t> mem_txn_id_{1};
};

}  // namespace mtdb

#endif  // MTDB_ENGINE_DATABASE_H_
