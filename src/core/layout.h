#ifndef MTDB_CORE_LAYOUT_H_
#define MTDB_CORE_LAYOUT_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/breaker.h"
#include "common/latch.h"
#include "common/metrics_registry.h"
#include "engine/database.h"
#include "core/logical_schema.h"
#include "core/table_mapping.h"
#include "core/transformer.h"

namespace mtdb {
namespace mapping {

/// Statistics maintained by the mapping layer itself.
/// Counters are relaxed-atomic (common/metrics_registry.h Counter) so
/// concurrent tenant sessions bump them without coordination; read them
/// individually (the struct is not copyable).
struct LayoutStats {
  Counter queries_transformed;
  Counter statements_transformed;
  Counter physical_statements;
  /// Physical DDL issued after Bootstrap (table rebuilds, lazy extension
  /// tables); generic layouts keep this at zero — §3's on-line argument.
  Counter ddl_statements;
  /// Phase (b) write batches the engine reverted after one of their
  /// physical writes failed or hit the deadline (Database::ExecuteBatch).
  Counter statement_rollbacks;
  /// Physical writes reverted in those batches (writes that had changed
  /// rows before the failure).
  Counter undo_statements;
};

/// Observes every physical statement the mapping layer emits against the
/// underlying Database: the transformed SELECTs (§6.1), the Phase (a)
/// reconstruction queries and the Phase (b) writes (§6.3) — DML and row
/// inserts alike, including an extension's backfill.
/// Installed by the static mapping verifier (src/analysis) to capture or
/// replay emitted ASTs. Callbacks run synchronously while the layer lock
/// is held; observers must not call back into the layout and should copy
/// (sql::CloneStatement / SelectStmt::Clone) anything they keep.
class PhysicalStatementObserver {
 public:
  virtual ~PhysicalStatementObserver() = default;

  /// A physical SELECT about to be executed for `tenant`.
  virtual void OnSelect(TenantId tenant, const sql::SelectStmt& stmt) = 0;

  /// A physical non-SELECT statement about to be executed for `tenant`.
  virtual void OnStatement(TenantId tenant, const sql::Statement& stmt) = 0;
};

class TenantSession;

/// A schema-mapping technique: maps the tenants' single-tenant logical
/// schemas onto one multi-tenant physical schema (§3) and rewrites
/// queries/DML accordingly. Concrete subclasses implement the layouts of
/// Figure 4 plus Chunk Folding.
///
/// Thread-safety: tenant sessions from an application server's
/// connection pool share one layout object and run in parallel.
/// Statement entry points (Run/InsertRow/ExplainMapping/...) hold the layer
/// latch shared; admin operations (CreateTenant/EnableExtension/
/// DropTenant) hold it exclusive, so DDL drains in-flight statements and
/// statements never observe half-switched mappings. The mapping cache
/// and the table-number registry have their own small locks, and row-id
/// counters are per tenant — different tenants' statements share no hot
/// lock. Bootstrap and configuration (transform_options,
/// set_statement_observer) are setup-time: call them before traffic.
///
/// The logical SQL dialect is ordinary SQL against the tenant's own
/// tables (e.g. "SELECT Beds FROM Account WHERE Hospital='State'").
class SchemaMapping : public MappingResolver {
 public:
  SchemaMapping(Database* db, const AppSchema* app);
  ~SchemaMapping() override = default;

  virtual std::string name() const = 0;

  /// Creates layout-global physical structures (generic tables etc.).
  virtual Status Bootstrap() = 0;

  /// Opens a per-worker tenant session: an engine Session whose executor
  /// is this layout (Run, InsertRow). Cheap value handle, one per
  /// thread.
  TenantSession OpenSession(TenantId tenant);

  // Admin operations: non-virtual template methods that take the layer
  // latch exclusively, then dispatch to the *Impl hooks below.

  /// Registers a tenant (provisions physical structures as needed).
  Status CreateTenant(TenantId tenant);

  /// Enables an extension for a tenant. Layouts that cannot support
  /// extensibility (Basic) return an error — the paper's point.
  Status EnableExtension(TenantId tenant, const std::string& ext);

  /// Drops a tenant and its data.
  Status DropTenant(TenantId tenant);

  /// Rebuilds the layer's per-tenant state on a durable engine after
  /// Database::Open recovered the physical tables: tenants, extension
  /// sets and table numbers come from the registry table, layout-derived
  /// state (private-table versions, provisioned extension/vertical
  /// tables) from the recovered catalog, and row-id counters from the
  /// data itself. Call INSTEAD of Bootstrap() when the store already has
  /// a schema; fresh databases call Bootstrap() as before.
  Status Recover();

  /// Physical registry table recording tenants, enabled extensions and
  /// table-number assignments on durable engines (created lazily at the
  /// first CreateTenant).
  static std::string RegistryName() { return "mtdb_registry"; }

  // --- logical statement execution -----------------------------------

  /// The tenant session's executor: runs one parsed logical SELECT,
  /// INSERT, UPDATE, DELETE or EXPLAIN MAPPING for `tenant`, yielding
  /// rows, the affected logical rows, or the explanation. Takes no
  /// admission and no transaction gate itself — the Session pipeline in
  /// front of it does.
  Result<StatementResult> Run(TenantId tenant, const sql::Statement& stmt,
                              const std::vector<Value>& params);

  /// Parse + Run for a logical SELECT (setup, tools and tests; clients
  /// go through a TenantSession).
  Result<QueryResult> Query(TenantId tenant, const std::string& sql,
                            const std::vector<Value>& params = {});

  /// Parse + Run for a logical INSERT/UPDATE/DELETE; returns affected
  /// logical rows.
  Result<int64_t> Execute(TenantId tenant, const std::string& sql,
                          const std::vector<Value>& params = {});

  /// Returns the transformed physical SQL (for inspection/examples).
  Result<std::string> ShowTransformed(TenantId tenant, const std::string& sql);

  /// EXPLAIN MAPPING: reports the physical statements the logical
  /// statement would map to for `tenant`, WITHOUT executing any of them
  /// (no rows change, no row ids are consumed, no WAL is written, no
  /// stats counters move). UPDATE/DELETE explains do execute the Phase
  /// (a) reconstruction read — the Phase (b) statement set depends on
  /// which rows qualify — but never Phase (b) itself. A bare statement
  /// or an EXPLAIN MAPPING statement both work as input; the parser
  /// front door unwraps the latter.
  Result<MappingExplanation> ExplainMapping(
      TenantId tenant, const std::string& sql,
      const std::vector<Value>& params = {});
  Result<MappingExplanation> ExplainMapping(
      TenantId tenant, const sql::Statement& stmt,
      const std::vector<Value>& params = {});

  /// Direct structured insert (used by bulk loaders): values in the
  /// tenant's effective column order; missing trailing columns NULL.
  Result<int64_t> InsertRow(TenantId tenant, const std::string& table,
                            const Row& row);

  // --- configuration ----------------------------------------------------

  TransformOptions& transform_options() { return transform_options_; }
  const LayoutStats& stats() const { return stats_; }

  /// Column-access heat observed by this layer's query transformations;
  /// feeds AdviseConventionalExtensions for Chunk Folding tuning.
  const HeatProfile& heat_profile() const { return heat_; }
  HeatProfile* mutable_heat_profile() { return &heat_; }

  /// Installs (or clears, with nullptr) the physical-statement observer.
  /// Not owned; the observer must outlive the layout or be cleared first.
  /// Install before concurrent traffic: callbacks may start on other
  /// threads the moment the pointer is published.
  void set_statement_observer(PhysicalStatementObserver* observer) {
    observer_.store(observer, std::memory_order_release);
  }

  /// Test-only: invoked (when set) after each Phase (a) collection
  /// returns, before any locks are taken on its result — lets tests
  /// commit a competing write inside the collect→lock window that
  /// LockAffectedRows' epoch check must detect. Install before
  /// concurrent traffic and clear (nullptr) before tearing down.
  void SetPostCollectHookForTest(std::function<void()> hook) {
    post_collect_hook_for_test_ = std::move(hook);
  }

  /// §6.3: "we transform delete operations into updates that mark the
  /// tuples as invisible ... in order to provide mechanisms like a
  /// Trashcan." Only meaningful for layouts whose physical sources carry
  /// a `del` visibility column (ChunkTableLayout with trashcan enabled).
  bool trashcan_deletes() const { return trashcan_deletes_; }

  /// Restores every trashcan-deleted row of (tenant, table); returns the
  /// number of restored physical rows. Fails unless the layout uses
  /// trashcan deletes.
  Result<int64_t> RestoreDeleted(TenantId tenant, const std::string& table);

  // --- fault containment -----------------------------------------------

  /// A tenant whose statements keep failing with hard I/O faults
  /// (kIOError/kDataLoss surviving the buffer pool's retries) trips a
  /// per-tenant circuit breaker: further statements fail fast with
  /// kUnavailable instead of hammering a bad device region, while other
  /// tenants — possibly co-located in the very same physical tables —
  /// keep serving. The breaker is self-healing: after an exponential
  /// backoff one probe statement is let through (half-open); success
  /// closes the breaker, another hard fault re-opens it with a doubled
  /// backoff. The strike counter is consecutive: any completed
  /// statement (success or logical error) resets it. The threshold and
  /// backoff window come from DatabaseOptions (breaker_threshold,
  /// breaker_backoff_*_ms). Read the state with TenantBreakerState();
  /// every trip bumps breaker.open.t<id>.

  /// Force-closes a tenant's breaker and zeroes its fault state
  /// (operator action after the underlying fault is repaired; the
  /// breaker also heals itself via half-open probes).
  Status ClearQuarantine(TenantId tenant);

  /// The tenant's breaker state (tests/operators; kClosed for unknown
  /// tenants).
  BreakerState TenantBreakerState(TenantId tenant) const;
  Database* db() { return db_; }
  const AppSchema* app() const { return app_; }

  /// All registered tenants (for migration and administration).
  std::vector<TenantId> TenantIds() const;
  /// The extensions a tenant has enabled, in enable order.
  Result<std::vector<std::string>> TenantExtensions(TenantId tenant) const;

  // MappingResolver:
  Result<std::vector<std::pair<std::string, TypeId>>> LogicalColumns(
      TenantId tenant, const std::string& table) override;

 protected:
  // Admin hooks invoked under the exclusive layer latch; subclasses
  // override these (not the public methods) and chain to the base Impl
  // for the shared bookkeeping.
  virtual Status CreateTenantImpl(TenantId tenant);
  virtual Status EnableExtensionImpl(TenantId tenant, const std::string& ext);
  virtual Status DropTenantImpl(TenantId tenant);

  /// Layout hook run by Recover() under the exclusive layer latch, after
  /// tenants/extensions/table numbers are restored: re-derive whatever
  /// private state the layout keeps (provisioned physical tables,
  /// private-table versions, trashcan flag) from the recovered catalog.
  virtual Status RecoverDerivedState() { return Status::OK(); }

  /// Durable-registry bookkeeping (no-ops on non-durable engines).
  /// Creates mtdb_registry if missing.
  Status EnsureRegistry();
  Status RegistryInsert(const std::string& kind, TenantId tenant,
                        const std::string& name, int64_t val);
  /// Records an enabled extension; called from the base
  /// EnableExtensionImpl and from layouts that bypass it.
  Status RecordExtensionEnabled(TenantId tenant, const std::string& ext,
                                int64_t ordinal);
  /// Deletes all registry rows of a dropped tenant.
  Status RecordTenantDropped(TenantId tenant);

  /// Per-tenant bookkeeping shared by all layouts. Entries live in a
  /// node-based map, so pointers stay stable while the tenant exists.
  struct TenantEntry {
    TenantState state;
    /// Guards next_row: the only per-tenant state statements mutate, so
    /// two sessions of the same tenant can insert concurrently without
    /// sharing a lock with other tenants. Order key = TenantId (stamped
    /// at tenant creation), so lockdep checks ascending-tenant order.
    Latch row_mu{LatchRank::kTenantRow, "tenant-row"};
    /// next row id per logical table (lower-cased name).
    std::map<std::string, int64_t> next_row;
    /// Per-tenant circuit breaker over hard I/O faults (closed → open →
    /// half-open → closed). Owns its own leaf latch, so sessions feed
    /// outcomes without the row lock.
    CircuitBreaker breaker;
  };

  Result<TenantEntry*> GetTenant(TenantId tenant);
  Result<EffectiveTable> GetEffective(TenantId tenant,
                                      const std::string& table);

  /// RAII companion to CheckTenantAvailable: armed when the admitted
  /// statement is THE half-open probe. If the statement aborts before
  /// its outcome reaches NoteTenantOutcome (parse/transform error, an
  /// early-return validation failure), the destructor abandons the probe
  /// so the next arrival can take it — an aborted probe must never leave
  /// the breaker rejecting forever. Call Disarm() right before reporting
  /// the real outcome. Must not outlive the layer latch: the breaker it
  /// points at lives in the tenant entry that latch protects.
  class ProbeGuard {
   public:
    ProbeGuard() = default;
    ~ProbeGuard() {
      if (breaker_ != nullptr) breaker_->AbandonProbe();
    }
    ProbeGuard(const ProbeGuard&) = delete;
    ProbeGuard& operator=(const ProbeGuard&) = delete;
    /// The statement's outcome is being reported: the probe resolves
    /// through NoteTenantOutcome, not through this guard.
    void Disarm() { breaker_ = nullptr; }

   private:
    friend class SchemaMapping;
    CircuitBreaker* breaker_ = nullptr;
  };

  /// Consults the tenant's circuit breaker: fails fast with
  /// kUnavailable (message carries a retry_after_ms hint) while the
  /// breaker is open, lets exactly one probe statement through once the
  /// backoff elapses (half-open), admits freely when closed. OK for
  /// unknown tenants — the statement path reports NotFound itself.
  /// Assumes the layer latch is held. When the statement is admitted as
  /// the probe, `probe` (if non-null) is armed so an aborted statement
  /// hands the probe slot back; callers that never report outcomes
  /// (explain paths) pass null and the probe slot is returned
  /// immediately — real traffic decides the tenant's fate.
  Status CheckTenantAvailable(TenantId tenant, ProbeGuard* probe = nullptr);

  /// Feeds a statement outcome into the tenant's breaker: hard faults
  /// (kIOError/kDataLoss) accumulate strikes and open the breaker at
  /// the threshold; any completed statement (success or logical error)
  /// resets the strikes and closes a half-open probe.
  void NoteTenantOutcome(TenantId tenant, const Status& status);

  /// Runs one logical write under the layer latch (shared), the tenant's
  /// breaker and a row-lock scope, and feeds its outcome to the breaker.
  template <typename Fn>
  Result<int64_t> RunWrite(TenantId tenant, Fn&& body);

  /// Phase (a) of §6.3 for one UPDATE or DELETE: the WHERE that selects
  /// its rows, the bind params, the resolved SET targets and the logical
  /// columns the statement reads. Phase (a) reconstructs only those
  /// columns, so it joins only the sources they map to; a write that
  /// reads none (a DELETE by row set, DropTenant, an extension's backfill)
  /// reads row ids alone.
  struct AffectedQuery {
    std::string table;
    const TableMapping* mapping = nullptr;
    const sql::ParsedExpr* where = nullptr;
    const std::vector<Value>* params = nullptr;
    /// The UPDATE's assignments and where each one writes (empty for a
    /// DELETE).
    std::vector<std::pair<const sql::ParsedExpr*, const ColumnTarget*>> sets;
    /// The WHERE columns plus the columns non-constant SET expressions
    /// read, each once, in the mapping's column order.
    std::vector<std::string> columns;
  };
  using Assignments = std::vector<std::pair<std::string, sql::ParsedExprPtr>>;

  /// The DML mapping of every layout, driven by the TableMapping (§6.3).
  /// A mapping of one source without a row column (Basic, Private) takes
  /// the PassThrough branch of GenericUpdate/GenericDelete.
  Result<int64_t> GenericInsert(TenantId tenant, const sql::InsertStmt& stmt,
                                const std::vector<Value>& params);
  Result<int64_t> GenericUpdate(TenantId tenant, const sql::UpdateStmt& stmt,
                                const std::vector<Value>& params);
  Result<int64_t> GenericDelete(TenantId tenant, const sql::DeleteStmt& stmt,
                                const std::vector<Value>& params);

  /// The one-source, row-less case of GenericUpdate/GenericDelete: `phys`
  /// (the logical UPDATE's assignments, or an empty DELETE) is aimed at
  /// the source's table with its partition conjuncts ANDed in front of
  /// query.where, the (tenant, table) is X-locked — there is no Phase (a)
  /// row set to lock — and the one write runs through ApplyWrites. The
  /// source must keep the logical column names (kInternal otherwise).
  Result<int64_t> PassThrough(TenantId tenant, const TableMapping& mapping,
                              sql::Statement phys, const AffectedQuery& query);

  /// Maps one logical row onto its physical inserts, one per source,
  /// appended to `writes`: values[i] goes to targets[i] (from
  /// ResolveInsert). Assigns the row id and takes the row lock, but emits
  /// and executes nothing.
  Status InsertMappedRow(TenantId tenant, const std::string& table,
                         const TableMapping& mapping,
                         const std::vector<const ColumnTarget*>& targets,
                         const Row& values, std::vector<PhysicalWrite>* writes);

  /// The one place a Phase (b) write is emitted and run. Hands every write
  /// to the observer / EXPLAIN MAPPING sink (a row insert as a synthesized
  /// INSERT), then — unless explaining — runs them as a single engine
  /// batch (Database::ExecuteBatch, with `params` for their `?`): all of
  /// it applies, or none of it does. Returns the rows the batch affected
  /// and keeps the physical_statements and rollback counters.
  Result<int64_t> ApplyWrites(TenantId tenant,
                              const std::vector<PhysicalWrite>& writes,
                              const std::vector<Value>& params = {});

  /// The one column resolver of the mapped write paths: checks every WHERE
  /// column, SET target and column a SET expression reads against
  /// `mapping` — NotFound "no logical column <c> in <table>" before
  /// anything runs or is explained — and returns the write's Phase (a)
  /// query, which points into `mapping`, `where`, `sets` and `params`.
  static Result<AffectedQuery> ResolveWrite(const TableMapping& mapping,
                                            const std::string& table,
                                            const sql::ParsedExpr* where,
                                            const Assignments& sets,
                                            const std::vector<Value>& params);

  /// The column resolver of INSERT: each of `columns` must be a logical
  /// column of `table` in `mapping` — NotFound "no logical column <c> in
  /// <table>" as ResolveWrite reports it — and appear once (InvalidArgument
  /// otherwise). Returns their targets in list order, before any row id is
  /// taken.
  static Result<std::vector<const ColumnTarget*>> ResolveInsert(
      const TableMapping& mapping, const std::string& table,
      const std::vector<std::string>& columns);

  /// One row Phase (a) selected: its row id and its values of
  /// AffectedQuery::columns, in that order.
  struct AffectedRow {
    int64_t row_id;
    Row values;
  };

  /// Phase (a) under the write locks (DESIGN.md §15): reads the rows
  /// `query` selects, then LockAffectedRows. No locks without a
  /// lock::StatementLockContext (admin DDL, EXPLAIN MAPPING).
  Result<std::vector<AffectedRow>> CollectAffected(TenantId tenant,
                                                   const AffectedQuery& query);

 private:
  /// One Phase (a) read: the projected reconstruction of query.columns
  /// plus the row id, filtered by the logical WHERE.
  Result<std::vector<AffectedRow>> ReadAffected(TenantId tenant,
                                                const AffectedQuery& query);

  /// Write-lock acquisition between Phase (a) and Phase (b) (DESIGN.md
  /// §15): takes the table intent plus an X lock on every affected
  /// logical row — or one whole-table X lock for affected sets containing
  /// NULL row ids (which have no lockable identity). `collect_epoch` is
  /// the table's write epoch snapshotted just before the Phase (a) read
  /// that produced `affected`:
  /// collect and acquire are not atomic, so a winner may write, commit
  /// and release entirely inside the gap without ever blocking this
  /// statement. Whenever the shard's write epoch moved past the
  /// snapshot — a superset of "an acquisition blocked" — Phase (a) is
  /// re-read with the same projection under the locks now held and newly
  /// matching rows are locked too, so the statement always acts on
  /// current images.
  Status LockAffectedRows(TenantId tenant, const AffectedQuery& query,
                          std::vector<AffectedRow>* affected,
                          uint64_t collect_epoch);

 protected:
  /// Invalidates all cached TableMappings (call after DDL).
  void InvalidateMappings();

 public:
  /// EXPLAIN MAPPING plumbing. While a thread runs ExplainMapping, a
  /// thread-local ExplainSink is installed: NotifySelect/NotifyStatement
  /// record the would-be physical statement into the sink (instead of
  /// the observer), and the two execution sites — the Phase (b) batch
  /// (ApplyWrites) and row-id assignment — are gated on Explaining(). Row
  /// locks need no gate: an explain installs no StatementLockContext. The
  /// DML paths therefore run their normal transformation logic and
  /// produce the plan as a side effect. Public only so the file-local
  /// installer can name the type; not client API.
  struct ExplainSink {
    std::vector<PhysicalStatementPlan>* out = nullptr;
    /// Offset added to each table's peeked next_row counter so a
    /// multi-row INSERT explain reports consecutive row ids without
    /// consuming any.
    std::map<std::string, int64_t> row_offsets;
  };

  /// True while the current thread is inside ExplainMapping.
  static bool Explaining();
  /// The sink installed on this thread (nullptr when not explaining).
  static ExplainSink* CurrentExplainSink();

 protected:
  /// Forward an emitted physical statement to the observer, if any:
  /// NotifySelect right before a SELECT runs, NotifyStatement only from
  /// ApplyWrites.
  void NotifySelect(TenantId tenant, const sql::SelectStmt& stmt);
  void NotifyStatement(TenantId tenant, const sql::Statement& stmt);

  /// Sequential "Table" meta-data identifier for (tenant, logical table),
  /// as in the Table column of Figure 4(c)–(f).
  int32_t TableNumber(TenantId tenant, const std::string& table);

  Database* db_;
  const AppSchema* app_;
  /// Layer latch (level 0, above every engine latch): statement entry
  /// points hold it shared for their full duration; admin operations
  /// hold it exclusive. Protected helpers (GetTenant, Generic*, ...)
  /// assume it is held and never take it themselves — the underlying
  /// shared_mutex is not recursive.
  mutable SharedLatch layer_mu_{LatchRank::kMappingLayer, "mapping-layer"};
  TransformOptions transform_options_;
  LayoutStats stats_;
  HeatProfile heat_;
  /// Physical-statement capture hook (see PhysicalStatementObserver).
  std::atomic<PhysicalStatementObserver*> observer_{nullptr};
  /// See SetPostCollectHookForTest.
  std::function<void()> post_collect_hook_for_test_;
  /// The layout as a Session executor. A member rather than a second base
  /// class: GCC 12 devirtualizes calls on a final layout with two
  /// polymorphic bases to __cxa_pure_virtual.
  class Executor final : public StatementExecutor {
   public:
    explicit Executor(SchemaMapping* layout) : layout_(layout) {}
    Result<StatementResult> Run(TenantId tenant, const sql::Statement& stmt,
                                const std::vector<Value>& params) override {
      return layout_->Run(tenant, stmt, params);
    }
    Result<int64_t> InsertRow(TenantId tenant, const std::string& table,
                              const Row& row) override {
      return layout_->InsertRow(tenant, table, row);
    }

   private:
    SchemaMapping* layout_;
  };
  Executor executor_{this};
  /// Set by layouts that provision `del` visibility columns.
  bool trashcan_deletes_ = false;
  /// Breaker threshold and backoff window, from DatabaseOptions.
  const CircuitBreaker::Options breaker_options_;
  std::map<TenantId, TenantEntry> tenants_;

  /// Guards mapping_cache_. Read-mostly: statements look mappings up far
  /// more often than DDL invalidates them. Ranked above the engine's
  /// DDL/table-number latches because BuildMapping may lazily provision
  /// physical tables (extension layouts) while this is held — and an
  /// automatic checkpoint after that DDL takes the DDL latch below it.
  mutable Latch cache_mu_{LatchRank::kMappingCache, "mapping-cache"};
  /// Cache of (tenant, table-lower) -> TableMapping, filled via Mapping().
  std::map<std::pair<TenantId, std::string>, std::unique_ptr<TableMapping>>
      mapping_cache_;

  /// Guards table_numbers_/next_table_number_ (bumped from BuildMapping).
  Latch table_number_mu_{LatchRank::kMappingTableNum, "mapping-table-num"};
  std::map<std::pair<TenantId, std::string>, int32_t> table_numbers_;
  int32_t next_table_number_ = 0;

  /// Subclass hook: build the mapping for (tenant, table).
  virtual Result<std::unique_ptr<TableMapping>> BuildMapping(
      TenantId tenant, const std::string& table) = 0;

 public:
  Result<const TableMapping*> Mapping(TenantId tenant,
                                      const std::string& table) override;
};

/// Renders a value row for physical insert given a mapping source.
Schema PhysicalSchemaFromColumns(const std::vector<Column>& cols);

}  // namespace mapping
}  // namespace mtdb

#endif  // MTDB_CORE_LAYOUT_H_
