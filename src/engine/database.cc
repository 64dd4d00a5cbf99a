#include "engine/database.h"

#include <algorithm>
#include <optional>

#include "common/byte_codec.h"
#include "common/deadline.h"
#include "common/key_encoding.h"
#include "common/trace.h"
#include "sql/ast_util.h"
#include "engine/session.h"
#include "engine/txn_context.h"
#include "sql/parser.h"
#include "sql/printer.h"

namespace mtdb {

namespace {

/// Builds the index key of `row` for `index`.
std::string IndexKeyFor(const IndexInfo& index, const Row& row) {
  std::vector<Value> vals;
  vals.reserve(index.key_columns.size());
  for (size_t c : index.key_columns) vals.push_back(row[c]);
  return KeyEncoder::EncodeKey(vals);
}

/// The unique-index rule, the one check INSERT and UPDATE share: no rid
/// other than `self` (null for a row not stored yet) may sit under
/// `row`'s key in a unique index of `table`, unless the key has a NULL
/// part (IndexInfo::KeyHasNull). With `old_row` given, an index whose key
/// columns the update left unchanged is skipped: the row held that key
/// already, so it adds no new conflict.
Status CheckUniqueKeys(const TableInfo& table, const Row& row, const Rid* self,
                       const Row* old_row = nullptr) {
  for (const auto& idx : table.indexes) {
    if (!idx->unique || idx->KeyHasNull(row)) continue;
    if (old_row != nullptr &&
        std::all_of(idx->key_columns.begin(), idx->key_columns.end(),
                    [&](size_t c) { return row[c] == (*old_row)[c]; })) {
      continue;
    }
    MTDB_ASSIGN_OR_RETURN(std::vector<Rid> rids,
                          idx->tree->Lookup(IndexKeyFor(*idx, row)));
    for (const Rid& rid : rids) {
      if (self == nullptr || !(rid == *self)) {
        return Status::ConstraintViolation("duplicate key in unique index " +
                                           idx->name);
      }
    }
  }
  return Status::OK();
}

/// Retries a compensating (undo) action so a bounded burst of transient
/// faults cannot leave a statement half rolled back. kNotFound counts as
/// success: the entry the undo wants gone is already gone. The statement
/// deadline is suppressed for the duration: the undo usually runs BECAUSE
/// the deadline expired, and cancelling the compensation itself would
/// leave the row half old, half new.
template <typename Fn>
Status RetryCompensation(Fn&& fn) {
  deadline::Scope no_deadline(deadline::Deadline::None());
  Status st;
  for (int attempt = 0; attempt < 8; ++attempt) {
    st = fn();
    if (st.ok() || st.code() == StatusCode::kNotFound) return Status::OK();
  }
  return st;
}

/// RAII holder for the table/index latches of one statement. Latches are
/// taken as they are added and dropped in reverse order on destruction.
/// Callers must add them in the canonical global order — tables sorted
/// by TableId, each table's heap latch before its index latches, index
/// latches in vector order — which makes the acquisition deadlock-free.
class LatchSet {
 public:
  LatchSet() = default;
  LatchSet(const LatchSet&) = delete;
  LatchSet& operator=(const LatchSet&) = delete;

  ~LatchSet() {
    for (auto it = held_.rbegin(); it != held_.rend(); ++it) {
      if (it->second) {
        it->first->unlock();
      } else {
        it->first->unlock_shared();
      }
    }
  }

  void Lock(SharedLatch& mu, bool exclusive) {
    if (exclusive) {
      mu.lock();
    } else {
      mu.lock_shared();
    }
    held_.emplace_back(&mu, exclusive);
  }

  /// Latches `table`'s heap and all its indexes. The index vector cannot
  /// change underneath us: DDL is excluded by the engine's level-1 latch
  /// for the duration of the statement.
  void LockTable(TableInfo* table, bool exclusive) {
    Lock(table->heap->latch(), exclusive);
    for (const auto& idx : table->indexes) {
      Lock(idx->tree->latch(), exclusive);
    }
  }

 private:
  std::vector<std::pair<SharedLatch*, bool>> held_;
};

/// Collects the base-table names referenced anywhere in `stmt`'s FROM
/// lists, including derived tables, recursively. (The AST has no
/// expression-level subqueries, so FROM is the only place tables hide.)
void CollectSelectTables(const sql::SelectStmt& stmt,
                         std::vector<std::string>* out) {
  for (const sql::TableRef& ref : stmt.from) {
    if (ref.is_subquery()) {
      CollectSelectTables(*ref.subquery, out);
    } else {
      out->push_back(ref.table_name);
    }
  }
}

/// Dedupes `tables` and sorts them into canonical latch order
/// (ascending TableId).
void SortInLatchOrder(std::vector<TableInfo*>* tables) {
  std::sort(tables->begin(), tables->end(),
            [](const TableInfo* a, const TableInfo* b) { return a->id < b->id; });
  tables->erase(std::unique(tables->begin(), tables->end()), tables->end());
}

/// Resolves `names` against the catalog, dedupes, and returns the tables
/// in canonical latch order. Unknown names are skipped — the planner
/// reports them properly afterwards.
std::vector<TableInfo*> ResolveInLatchOrder(
    Catalog* catalog, const std::vector<std::string>& names) {
  std::vector<TableInfo*> tables;
  for (const std::string& name : names) {
    TableInfo* info = catalog->GetTable(name);
    if (info != nullptr) tables.push_back(info);
  }
  SortInLatchOrder(&tables);
  return tables;
}

/// kFailedPrecondition unless `rid` of `table` holds exactly the encoded
/// image of `row`: a revert step changes only the row its change left.
/// The read is retried; a missing row reads as empty, which no encoded
/// row is.
Status CheckRowImage(TableInfo* table, const Rid& rid, const Row& row) {
  std::string want, have;
  MTDB_RETURN_IF_ERROR(table->codec->Encode(row, &want));
  MTDB_RETURN_IF_ERROR(RetryCompensation([&] {
    have.clear();
    return table->heap->Get(rid, &have);
  }));
  if (have != want) {
    return Status::FailedPrecondition(
        "undo refused: a row of " + table->name +
        " no longer holds the image the transaction left there");
  }
  return Status::OK();
}

/// kFailedPrecondition when another row holds a unique key of `row`, so
/// restoring `row` would duplicate it. A transaction's own undo never
/// hits this — the state a step restores existed before — so the holder
/// is another writer's row. The lookups are retried.
Status CheckKeysFree(TableInfo* table, const Row& row) {
  bool taken = false;
  MTDB_RETURN_IF_ERROR(RetryCompensation([&] {
    Status st = CheckUniqueKeys(*table, row, /*self=*/nullptr);
    taken = st.code() == StatusCode::kConstraintViolation;
    return taken ? Status::OK() : st;
  }));
  if (taken) {
    return Status::FailedPrecondition(
        "undo refused: another row of " + table->name +
        " holds a unique key of the row it would restore");
  }
  return Status::OK();
}

}  // namespace

Database::Database(DatabaseOptions options)
    : options_db_(std::move(options)),
      options_(options_db_.engine),
      planner_mode_(options_.planner_mode) {
  registry_ = std::make_unique<MetricsRegistry>();
  admission_ = std::make_unique<AdmissionController>(options_db_.admission,
                                                     registry_.get());
  if (options_db_.row_locks) {
    lock_manager_ = std::make_unique<lock::LockManager>(registry_.get());
  }
  store_ = std::make_unique<PageStore>(options_.page_size);
  store_->set_read_latency_ns(options_.read_latency_ns);
  pool_ = std::make_unique<BufferPool>(
      store_.get(), options_.memory_budget_bytes / options_.page_size);
  pool_->set_retry_policy(options_db_.retry_policy);
  catalog_ = std::make_unique<Catalog>(pool_.get(),
                                       options_.memory_budget_bytes,
                                       options_.metadata_costs);
  if (!options_db_.path.empty()) {
    store_->set_dirty_tracking(true);
    // Instrumented builds: from here on, every page mutation must happen
    // inside a PageCaptureScope (C301) — recovery is exempt because WAL
    // replay installs images via PageStore::RecoverInstall, not the pool.
    pool_->set_wal_protocol_checks(true);
    DurabilityOptions dopts;
    dopts.wal_segment_bytes = options_.wal_segment_bytes;
    dopts.checkpoint_interval_bytes = options_.checkpoint_interval_bytes;
    durability_ = std::make_unique<Durability>(options_db_.path, dopts,
                                              store_.get(), pool_.get());
  }
  RegisterEngineGauges();
}

void Database::RegisterEngineGauges() {
  // Adapt the pre-existing counter structs into the registry namespace.
  // Gauges are evaluated at Snapshot() time, outside the registry latch,
  // so taking component latches inside the callbacks is fine.
  if (lock_manager_ != nullptr) {
    lock::LockManager* lm = lock_manager_.get();
    registry_->RegisterGauge("lock.held", [lm] { return lm->held(); });
  }
  const IoFaultCounters* io = &store_->io_counters();
  registry_->RegisterGauge("io.read_faults",
                           [io] { return io->Snapshot().read_faults; });
  registry_->RegisterGauge("io.write_faults",
                           [io] { return io->Snapshot().write_faults; });
  registry_->RegisterGauge("io.checksum_failures",
                           [io] { return io->Snapshot().checksum_failures; });
  registry_->RegisterGauge("io.read_retries",
                           [io] { return io->Snapshot().read_retries; });
  registry_->RegisterGauge("io.write_retries",
                           [io] { return io->Snapshot().write_retries; });
  registry_->RegisterGauge("io.retry_exhaustions",
                           [io] { return io->Snapshot().retry_exhaustions; });
  registry_->RegisterGauge("io.latency_spikes",
                           [io] { return io->Snapshot().latency_spikes; });
  const BufferPool* pool = pool_.get();
  registry_->RegisterGauge("buffer.logical_reads",
                           [pool] { return pool->stats().logical_reads(); });
  registry_->RegisterGauge("buffer.misses",
                           [pool] { return pool->stats().misses(); });
  registry_->RegisterGauge("buffer.evictions",
                           [pool] { return pool->stats().evictions; });
  const PageStore* store = store_.get();
  registry_->RegisterGauge("store.physical_reads",
                           [store] { return store->stats().physical_reads; });
  registry_->RegisterGauge("store.physical_writes",
                           [store] { return store->stats().physical_writes; });
  if (durability_ != nullptr) {
    const DurabilityCounters* dc = &durability_->counters();
    registry_->RegisterGauge("wal.appends",
                             [dc] { return dc->Snapshot().wal_appends; });
    registry_->RegisterGauge("wal.bytes",
                             [dc] { return dc->Snapshot().wal_bytes; });
    registry_->RegisterGauge("wal.group_commits",
                             [dc] { return dc->Snapshot().group_commits; });
    registry_->RegisterGauge("wal.checkpoints",
                             [dc] { return dc->Snapshot().checkpoints; });
    registry_->RegisterGauge("wal.recoveries",
                             [dc] { return dc->Snapshot().recoveries; });
    registry_->RegisterGauge("wal.replayed_groups",
                             [dc] { return dc->Snapshot().replayed_groups; });
    registry_->RegisterGauge(
        "wal.recovery_undo_rows",
        [dc] { return dc->Snapshot().recovery_undo_rows; });
  }
}

Result<std::unique_ptr<Database>> Database::Open(DatabaseOptions options) {
  auto db = std::make_unique<Database>(std::move(options));
  if (db->durable()) MTDB_RETURN_IF_ERROR(db->Recover());
  return db;
}

Status Database::Recover() {
  if (durability_ == nullptr) {
    return Status::InvalidArgument("not a durable database");
  }
  MTDB_ASSIGN_OR_RETURN(RecoveredState state, durability_->Recover());
  std::unordered_map<TableId, Catalog::TableOverride> overrides;
  for (const WalTableMeta& tm : state.table_overrides) {
    overrides[tm.table_id] = Catalog::TableOverride{tm.first_page,
                                                    tm.index_roots};
  }
  MTDB_RETURN_IF_ERROR(catalog_->Restore(state.catalog_blob, overrides));
  // Revert the client transactions the crash left open: the same undo
  // batch as ROLLBACK, over all their records in log order, ending them
  // all in its one redo group. A crash inside it leaves them open on
  // disk, and the next open reverts them again from the same log.
  if (!state.open_txns.empty()) {
    std::shared_lock<SharedLatch> ddl(ddl_mu_);
    MTDB_ASSIGN_OR_RETURN(RowChangeLog log, DecodeUndo(state.open_undo));
    durability_->counters().OnRecoveryUndoRows(log.size());
    Status st = RevertTxns(state.open_txns, log);
    // A refused step names a row a committed write changed after the
    // transaction did (engine sessions take no row locks); that write
    // stands.
    if (!st.ok() && st.code() != StatusCode::kFailedPrecondition) return st;
  }
  // A fresh checkpoint seals recovery: the replayed log (and the undone
  // txns' records) truncate away.
  return Checkpoint();
}

Status Database::Checkpoint() {
  if (durability_ == nullptr) {
    return Status::InvalidArgument("not a durable database");
  }
  // Housekeeping must run to completion even when invoked from a thread
  // whose statement deadline has expired: a half-written checkpoint is
  // worse than a late one, so suppress the ambient deadline here.
  deadline::Scope no_deadline(deadline::Deadline::None());
  // The DDL latch exclusive quiesces every write batch and every
  // txn-record append, so a checkpoint never lands inside a logical
  // write. Open client transactions hold no latch between their
  // statements: their undo records are snapshotted here (race-free: a
  // batch adds them under the DDL latch shared) and preserved in the
  // meta file so WAL truncation cannot lose them. A transaction that has
  // not written yet has nothing to preserve.
  std::unique_lock<SharedLatch> ddl(ddl_mu_);
  std::vector<OpenTxnMeta> open;
  {
    std::lock_guard<Latch> reg(txn_registry_mu_);
    open = open_batches_;
  }
  return durability_->WriteCheckpoint(catalog_->Snapshot(), open);
}

void Database::MaybeAutoCheckpoint() {
  if (durability_ == nullptr || !durability_->NeedsCheckpoint()) return;
  // A failure here (including an injected crash) freezes the subsystem
  // and surfaces on the next durable statement.
  (void)Checkpoint();
}

Result<uint64_t> Database::BeginTxn() {
  uint64_t txn_id = 0;
  if (durability_ == nullptr) {
    txn_id = mem_txn_id_.fetch_add(1, std::memory_order_relaxed);
  } else if (durability_->frozen()) {
    return Status::Unavailable("durability frozen after crash");
  } else {
    txn_id = durability_->BeginTxn();
  }
  std::lock_guard<Latch> reg(txn_registry_mu_);
  open_txns_.insert(txn_id);
  return txn_id;
}

OpenTxnCounters* Database::OpenTxnCount(int64_t tenant) {
  std::lock_guard<Latch> reg(txn_registry_mu_);
  auto it = txn_open_counts_.find(tenant);
  if (it == txn_open_counts_.end()) {
    auto counts = std::make_shared<OpenTxnCounters>();
    it = txn_open_counts_.emplace(tenant, counts).first;
    // Registered exactly once per tenant (the registry's gauge list is
    // append-only); the shared_ptr keeps the callback valid for the
    // registry's lifetime. Reading `closed` first keeps the difference
    // non-negative while brackets open and close concurrently.
    registry_->RegisterGauge("txn.open.t" + std::to_string(tenant),
                             [counts]() -> uint64_t {
                               uint64_t closed = counts->closed.value();
                               uint64_t opened = counts->opened.value();
                               return opened > closed ? opened - closed : 0;
                             });
  }
  return it->second.get();
}

std::string Database::TakeTxnUndo(uint64_t txn_id) {
  std::lock_guard<Latch> reg(txn_registry_mu_);
  open_txns_.erase(txn_id);
  std::string undo;
  for (const OpenTxnMeta& batch : open_batches_) {
    if (batch.txn_id == txn_id) undo += batch.undo;
  }
  std::erase_if(open_batches_, [&](const OpenTxnMeta& batch) {
    return batch.txn_id == txn_id;
  });
  return undo;
}

Status Database::EndTxn(uint64_t txn_id) {
  // Deregistering and appending under one shared hold keeps a checkpoint
  // from carrying the transaction in meta once the group that ends it is
  // written (and then truncated). A transaction that never wrote left
  // nothing in the log to close.
  std::shared_lock<SharedLatch> ddl(ddl_mu_);
  if (TakeTxnUndo(txn_id).empty() || durability_ == nullptr) {
    return Status::OK();
  }
  WalGroup group;
  group.ended_txns = {txn_id};
  return durability_->CommitGroup(PageMutationCapture(), std::move(group));
}

Status Database::RollbackTxn(uint64_t txn_id) {
  std::shared_lock<SharedLatch> ddl(ddl_mu_);
  const std::string undo = TakeTxnUndo(txn_id);
  if (undo.empty()) return Status::OK();
  MTDB_ASSIGN_OR_RETURN(RowChangeLog log, DecodeUndo(undo));
  return RevertTxns({txn_id}, log);
}

Status Database::RevertTxns(const std::vector<uint64_t>& txns,
                            const RowChangeLog& log) {
  // The batch runs to completion, its latching and group commit
  // included, even when the deadline that aborted the transaction has
  // expired: a pool miss while logging the reverted pages would
  // otherwise fail the commit and freeze the engine.
  deadline::Scope no_deadline(deadline::Deadline::None());
  std::vector<TableInfo*> tables;
  for (const RowChange& c : log) {
    if (c.table != nullptr) tables.push_back(c.table);
  }
  SortInLatchOrder(&tables);
  LatchSet latches;
  for (TableInfo* table : tables) latches.LockTable(table, /*exclusive=*/true);
  if (durability_ != nullptr && durability_->frozen()) {
    return Status::Unavailable("durability frozen after crash");
  }
  PageMutationCapture capture;
  Status st;
  {
    std::optional<PageCaptureScope> scope;
    if (durability_ != nullptr) scope.emplace(&capture);
    st = RevertChanges(log);
  }
  WalGroup group;
  group.ended_txns = txns;
  Status logged = CommitDmlGroup(capture, tables, std::move(group));
  return logged.ok() ? st : logged;
}

Status Database::CommitDmlGroup(const PageMutationCapture& capture,
                                const std::vector<TableInfo*>& tables,
                                WalGroup group) {
  // WAL-protocol analyzer: the capture is consumed here, while the
  // batch's exclusive latches are still held (C302/C303).
  lockdep::OnCaptureCommit(&capture);
  if (durability_ == nullptr || (capture.empty() && group.PagesOnly())) {
    return Status::OK();
  }
  std::vector<WalTableMeta>& meta = group.table_meta;
  meta.reserve(tables.size());
  for (TableInfo* table : tables) {
    WalTableMeta tm;
    tm.table_id = table->id;
    tm.first_page = table->heap->first_page();
    for (const auto& idx : table->indexes) {
      tm.index_roots.emplace_back(idx->id, idx->tree->root());
    }
    meta.push_back(std::move(tm));
  }
  return durability_->CommitGroup(capture, std::move(group));
}

Status Database::CommitDdlGroup(const PageMutationCapture& capture,
                                bool snapshot) {
  lockdep::OnCaptureCommit(&capture);
  if (durability_ == nullptr || (capture.empty() && !snapshot)) {
    return Status::OK();
  }
  WalGroup group;
  if (snapshot) {
    group.has_catalog_blob = true;
    group.catalog_blob = catalog_->Snapshot();
  }
  return durability_->CommitGroup(capture, std::move(group));
}

Session Database::OpenSession() {
  return Session(this, this, kEngineTenant, "engine");
}

Result<StatementResult> Database::Run(TenantId /*tenant*/,
                                      const sql::Statement& stmt,
                                      const std::vector<Value>& params) {
  return RunStatement(stmt, params);
}

Result<int64_t> Database::InsertRow(TenantId /*tenant*/,
                                    const std::string& table, const Row& row) {
  return ExecuteBatch({PhysicalWrite::RowInsert(table, row)});
}

// --- direct front doors: no admission, deadline or transaction gate ----

Result<QueryResult> Database::Execute(const std::string& sql,
                                      const std::vector<Value>& params) {
  MTDB_ASSIGN_OR_RETURN(sql::Statement stmt, sql::Parse(sql));
  MTDB_ASSIGN_OR_RETURN(StatementResult res, RunStatement(stmt, params));
  if (HasRows(res)) return std::move(std::get<QueryResult>(res));
  QueryResult out;
  if (HasExplanation(res)) {
    out.columns = {"mapping"};
    for (const PhysicalStatementPlan& p : ExplanationOf(res).statements) {
      out.rows.push_back({Value::String(p.sql)});
    }
    return out;
  }
  out.columns = {"affected"};
  out.rows.push_back({Value::Int64(AffectedOf(res))});
  return out;
}

Result<QueryResult> Database::Query(const std::string& sql,
                                    const std::vector<Value>& params) {
  MTDB_ASSIGN_OR_RETURN(auto stmt, sql::ParseSelect(sql));
  return RunSelect(*stmt, params);
}

Result<QueryResult> Database::QueryAst(const sql::SelectStmt& stmt,
                                       const std::vector<Value>& params) {
  return RunSelect(stmt, params);
}

Result<int64_t> Database::ExecuteAst(const sql::Statement& stmt,
                                     const std::vector<Value>& params) {
  if (stmt.kind == sql::StatementKind::kSelect) {
    return Status::InvalidArgument("use Query() for SELECT");
  }
  return RunMutation(stmt, params);
}

Result<std::string> Database::Explain(const std::string& sql) {
  MTDB_ASSIGN_OR_RETURN(auto stmt, sql::ParseSelect(sql));
  return ExplainAst(*stmt);
}

Result<std::string> Database::ExplainAst(const sql::SelectStmt& stmt) {
  // Planning only reads the catalog; holding the DDL latch shared keeps
  // the referenced TableInfos alive without blocking other statements.
  std::shared_lock<SharedLatch> ddl(ddl_mu_);
  MTDB_ASSIGN_OR_RETURN(PlannedQuery plan,
                        PlanSelect(stmt, catalog_.get(), planner_mode()));
  return plan.plan_text;
}

// --- the statement pipeline -------------------------------------------

Result<StatementResult> Database::RunStatement(const sql::Statement& stmt,
                                               const std::vector<Value>& params) {
  if (stmt.kind == sql::StatementKind::kSelect) {
    MTDB_ASSIGN_OR_RETURN(QueryResult rows, RunSelect(*stmt.select, params));
    return StatementResult(std::move(rows));
  }
  if (stmt.kind == sql::StatementKind::kExplainMapping) {
    // Below the mapping layer every logical statement IS its physical
    // statement: the plan is the target itself. Tenant sessions route
    // EXPLAIN MAPPING through their layout instead (SchemaMapping::
    // ExplainMapping), which reports the real logical→physical fan-out.
    const sql::Statement& target = *stmt.explain->target;
    MappingExplanation out;
    out.layout = "engine";
    out.logical = sql::ToSql(target);
    PhysicalStatementPlan entry;
    entry.op = sql::KindLabel(target.kind);
    entry.table = FirstTableOf(target);
    entry.sql = out.logical;
    out.statements.push_back(std::move(entry));
    if (target.kind == sql::StatementKind::kSelect) {
      MTDB_ASSIGN_OR_RETURN(out.plan_text, ExplainAst(*target.select));
    }
    return StatementResult(std::move(out));
  }
  MTDB_ASSIGN_OR_RETURN(int64_t affected, RunMutation(stmt, params));
  return StatementResult(affected);
}

Result<QueryResult> Database::RunSelect(const sql::SelectStmt& stmt,
                                        const std::vector<Value>& params) {
  std::shared_lock<SharedLatch> ddl(ddl_mu_);
  std::vector<std::string> names;
  CollectSelectTables(stmt, &names);
  trace::SpanScope span("select", names.empty() ? std::string() : names[0]);
  LatchSet latches;
  for (TableInfo* table : ResolveInLatchOrder(catalog_.get(), names)) {
    latches.LockTable(table, /*exclusive=*/false);
  }
  MTDB_ASSIGN_OR_RETURN(PlannedQuery plan,
                        PlanSelect(stmt, catalog_.get(), planner_mode()));
  ExecContext ctx;
  ctx.params = params;
  ctx.deadline = deadline::Current();
  MTDB_RETURN_IF_ERROR(plan.exec->Init(ctx));
  QueryResult out;
  out.columns = plan.exec->schema().names;
  Row row;
  while (true) {
    MTDB_RETURN_IF_ERROR(ctx.CheckDeadline());
    Result<bool> more = plan.exec->Next(&row, ctx);
    if (!more.ok()) return more.status();
    if (!*more) break;
    out.rows.push_back(std::move(row));
  }
  return out;
}

Result<int64_t> Database::RunMutation(const sql::Statement& stmt,
                                      const std::vector<Value>& params) {
  Result<int64_t> result = RunMutationInner(stmt, params);
  MaybeAutoCheckpoint();
  return result;
}

Result<int64_t> Database::RunMutationInner(const sql::Statement& stmt,
                                           const std::vector<Value>& params) {
  switch (stmt.kind) {
    case sql::StatementKind::kInsert:
    case sql::StatementKind::kUpdate:
    case sql::StatementKind::kDelete: {
      return RunBatch({PhysicalWrite::Dml(stmt)}, params, nullptr);
    }
    case sql::StatementKind::kCreateTable: {
      Schema schema;
      for (const sql::ColumnDef& def : stmt.create_table->columns) {
        schema.AddColumn(Column{def.name, def.type, def.not_null});
      }
      MTDB_RETURN_IF_ERROR(RunDdl([&] {
        return catalog_->CreateTable(stmt.create_table->table,
                                     std::move(schema))
            .status();
      }));
      return 0;
    }
    case sql::StatementKind::kCreateIndex:
      MTDB_RETURN_IF_ERROR(RunDdl([&] {
        return catalog_
            ->CreateIndex(stmt.create_index->table, stmt.create_index->index,
                          stmt.create_index->columns,
                          stmt.create_index->unique)
            .status();
      }));
      return 0;
    case sql::StatementKind::kDropTable:
      MTDB_RETURN_IF_ERROR(
          RunDdl([&] { return catalog_->DropTable(stmt.drop_table->table); }));
      return 0;
    case sql::StatementKind::kDropIndex:
      MTDB_RETURN_IF_ERROR(
          RunDdl([&] { return catalog_->DropIndex(stmt.drop_index->index); }));
      return 0;
    case sql::StatementKind::kSelect:
      return Status::InvalidArgument("use Query() for SELECT");
    case sql::StatementKind::kExplainMapping:
      return Status::InvalidArgument("EXPLAIN MAPPING is not a mutation");
    case sql::StatementKind::kBegin:
    case sql::StatementKind::kCommit:
    case sql::StatementKind::kRollback:
      return Status::InvalidArgument(
          "transaction control statements are session-scoped; use a Session "
          "or TenantSession");
  }
  return Status::Internal("unknown statement kind");
}

Status Database::InsertRowLatched(TableInfo* table, const Row& row,
                                  Rid* out_rid, Row* out_typed) {
  if (row.size() != table->schema.size()) {
    return Status::InvalidArgument("row arity mismatch for " + table->name);
  }
  // NOT NULL + unique checks first so failures do not leave partial state.
  Row typed;
  typed.reserve(row.size());
  for (size_t i = 0; i < row.size(); ++i) {
    if (row[i].is_null()) {
      if (table->schema.at(i).not_null) {
        return Status::ConstraintViolation("NULL in NOT NULL column " +
                                           table->schema.at(i).name);
      }
      typed.push_back(Value::Null(table->schema.at(i).type));
      continue;
    }
    MTDB_ASSIGN_OR_RETURN(Value v, row[i].CastTo(table->schema.at(i).type));
    typed.push_back(std::move(v));
  }
  MTDB_RETURN_IF_ERROR(CheckUniqueKeys(*table, typed, /*self=*/nullptr));
  std::string image;
  MTDB_RETURN_IF_ERROR(table->codec->Encode(typed, &image));
  MTDB_ASSIGN_OR_RETURN(Rid rid, table->heap->Insert(image));
  for (size_t i = 0; i < table->indexes.size(); ++i) {
    std::string key = IndexKeyFor(*table->indexes[i], typed);
    Status st = table->indexes[i]->tree->Insert(key, rid);
    if (!st.ok()) {
      // Row-level undo: remove the index entries already written and the
      // heap row, so the failed insert leaves no trace.
      for (size_t j = 0; j < i; ++j) {
        std::string pkey = IndexKeyFor(*table->indexes[j], typed);
        (void)RetryCompensation(
            [&] { return table->indexes[j]->tree->Delete(pkey, rid); });
      }
      (void)RetryCompensation([&] { return table->heap->Delete(rid); });
      return st;
    }
  }
  if (out_rid != nullptr) *out_rid = rid;
  if (out_typed != nullptr) *out_typed = std::move(typed);
  return Status::OK();
}

Status Database::DeleteRowLatched(TableInfo* table, const Row& row,
                                  const Rid& rid) {
  size_t removed = 0;
  Status fail;
  for (; removed < table->indexes.size(); ++removed) {
    std::string key = IndexKeyFor(*table->indexes[removed], row);
    Status st = table->indexes[removed]->tree->Delete(key, rid);
    if (!st.ok() && st.code() != StatusCode::kNotFound) {
      fail = st;
      break;
    }
  }
  if (fail.ok()) {
    fail = table->heap->Delete(rid);
    if (fail.ok()) return fail;
  }
  // Row-level undo: the heap row still exists at `rid`, so put the index
  // entries already removed back.
  for (size_t j = 0; j < removed; ++j) {
    std::string key = IndexKeyFor(*table->indexes[j], row);
    (void)RetryCompensation(
        [&] { return table->indexes[j]->tree->Insert(key, rid); });
  }
  return fail;
}

Status Database::UpdateRowLatched(TableInfo* table, const Rid& old_rid,
                                  const Row& old_row, const Row& new_row,
                                  Rid* out_new_rid) {
  std::string new_image;
  MTDB_RETURN_IF_ERROR(table->codec->Encode(new_row, &new_image));
  Status fail;
  // 1. Drop the old index entries.
  size_t deleted_old = 0;
  for (; deleted_old < table->indexes.size(); ++deleted_old) {
    std::string key = IndexKeyFor(*table->indexes[deleted_old], old_row);
    Status st = table->indexes[deleted_old]->tree->Delete(key, old_rid);
    if (!st.ok() && st.code() != StatusCode::kNotFound) {
      fail = st;
      break;
    }
  }
  // 2. Rewrite the heap image (may relocate the row).
  Rid rid = old_rid;
  bool heap_updated = false;
  if (fail.ok()) {
    Status st = table->heap->Update(&rid, new_image);
    if (st.ok()) {
      heap_updated = true;
    } else {
      fail = st;
    }
  }
  // 3. Write the new index entries.
  size_t inserted_new = 0;
  if (fail.ok()) {
    for (; inserted_new < table->indexes.size(); ++inserted_new) {
      std::string key = IndexKeyFor(*table->indexes[inserted_new], new_row);
      Status st = table->indexes[inserted_new]->tree->Insert(key, rid);
      if (!st.ok()) {
        fail = st;
        break;
      }
    }
  }
  if (fail.ok()) {
    *out_new_rid = rid;
    return fail;
  }
  // Row-level undo, in reverse: new entries out, heap image back (which
  // may relocate again — the restored index entries use the final rid),
  // old entries in.
  for (size_t j = 0; j < inserted_new; ++j) {
    std::string key = IndexKeyFor(*table->indexes[j], new_row);
    (void)RetryCompensation(
        [&] { return table->indexes[j]->tree->Delete(key, rid); });
  }
  Rid back_rid = rid;
  if (heap_updated) {
    std::string old_image;
    if (table->codec->Encode(old_row, &old_image).ok()) {
      (void)RetryCompensation(
          [&] { return table->heap->Update(&back_rid, old_image); });
    }
  }
  for (size_t j = 0; j < deleted_old; ++j) {
    std::string key = IndexKeyFor(*table->indexes[j], old_row);
    (void)RetryCompensation(
        [&] { return table->indexes[j]->tree->Insert(key, back_rid); });
  }
  return fail;
}

Status Database::RevertInsertedRow(TableInfo* table, const Row& typed,
                                   const Rid& rid) {
  // Every entry is attempted; the first failure is reported.
  Status first;
  for (const auto& idx : table->indexes) {
    std::string key = IndexKeyFor(*idx, typed);
    Status st = RetryCompensation([&] { return idx->tree->Delete(key, rid); });
    if (first.ok()) first = st;
  }
  Status st = RetryCompensation([&] { return table->heap->Delete(rid); });
  return first.ok() ? st : first;
}

Status Database::RevertUpdatedRow(TableInfo* table, Rid* rid,
                                  const Row& new_row, const Row& old_row) {
  // UpdateRowLatched is its own inverse; it already compensates
  // internally, and the outer retry covers transient bursts.
  return RetryCompensation([&] {
    Rid landed;
    MTDB_RETURN_IF_ERROR(
        UpdateRowLatched(table, *rid, new_row, old_row, &landed));
    *rid = landed;
    return Status::OK();
  });
}

Status Database::RestoreDeletedRow(TableInfo* table, const Row& row,
                                   Rid* rid) {
  std::string image;
  MTDB_RETURN_IF_ERROR(table->codec->Encode(row, &image));
  MTDB_RETURN_IF_ERROR(RetryCompensation([&] {
    MTDB_ASSIGN_OR_RETURN(*rid, table->heap->Insert(image));
    return Status::OK();
  }));
  Status first;
  for (const auto& idx : table->indexes) {
    std::string key = IndexKeyFor(*idx, row);
    Status st = RetryCompensation([&] { return idx->tree->Insert(key, *rid); });
    if (first.ok()) first = st;
  }
  return first;
}

Result<int64_t> Database::ExecuteBatch(
    const std::vector<PhysicalWrite>& writes, const std::vector<Value>& params,
    uint64_t* reverted) {
  Result<int64_t> result = RunBatch(writes, params, reverted);
  MaybeAutoCheckpoint();
  return result;
}

Result<int64_t> Database::RunBatch(const std::vector<PhysicalWrite>& writes,
                                   const std::vector<Value>& params,
                                   uint64_t* reverted) {
  ExecContext ctx;
  ctx.params = params;
  ctx.deadline = deadline::Current();
  std::shared_lock<SharedLatch> ddl(ddl_mu_);
  std::vector<TableInfo*> targets;
  targets.reserve(writes.size());
  for (const PhysicalWrite& w : writes) {
    const std::string& name =
        !w.table.empty() ? w.table : FirstTableOf(*w.stmt);
    TableInfo* table = catalog_->GetTable(name);
    if (table == nullptr) return Status::NotFound("no such table: " + name);
    targets.push_back(table);
  }
  // The union of the targets, X-latched in canonical order for the whole
  // batch: writers to a table serialize with each other and with its
  // readers, and a reader's statement sees all of the batch or none.
  std::vector<TableInfo*> tables = targets;
  SortInLatchOrder(&tables);
  LatchSet latches;
  for (TableInfo* table : tables) latches.LockTable(table, /*exclusive=*/true);
  if (durability_ != nullptr && durability_->frozen()) {
    return Status::Unavailable("durability frozen after crash");
  }
  // Inside a client transaction the batch's undo records ride its redo
  // group, so undo exists exactly when redo does.
  txn::TransactionContext* txn_ctx = txn::TransactionContext::Current();
  const uint64_t txn_id =
      txn_ctx != nullptr && txn_ctx->open() ? txn_ctx->txn_id() : 0;
  // A durable batch captures its page mutations and commits them as one
  // redo group while the latches are still held — a failed-and-reverted
  // batch logs its (restored) pages too, so the WAL always reproduces
  // exactly what memory holds.
  PageMutationCapture capture;
  RowChangeLog log;
  std::string undo;
  int64_t affected = 0;
  Status st;
  {
    std::optional<PageCaptureScope> scope;
    if (durability_ != nullptr) scope.emplace(&capture);
    uint64_t changed_writes = 0;
    for (size_t i = 0; i < writes.size() && st.ok(); ++i) {
      const PhysicalWrite& w = writes[i];
      const size_t mark = log.size();
      trace::SpanScope span(
          w.table.empty() ? sql::KindLabel(w.stmt->kind) : "insert",
          targets[i]->name);
      Result<int64_t> n = [&]() -> Result<int64_t> {
        MTDB_RETURN_IF_ERROR(ctx.CheckDeadline());
        if (!w.table.empty()) {
          RowChange c{RowChange::Kind::kInsert, targets[i], {}, {}, {}, {}};
          MTDB_RETURN_IF_ERROR(
              InsertRowLatched(targets[i], w.row, &c.rid, &c.after));
          log.push_back(std::move(c));
          return 1;
        }
        switch (w.stmt->kind) {
          case sql::StatementKind::kInsert:
            return ExecuteInsert(*w.stmt->insert, targets[i], ctx, &log);
          case sql::StatementKind::kUpdate:
            return ExecuteUpdate(*w.stmt->update, targets[i], ctx, &log);
          case sql::StatementKind::kDelete:
            return ExecuteDelete(*w.stmt->del, targets[i], ctx, &log);
          default:
            return Status::InvalidArgument("a batch holds only DML");
        }
      }();
      if (log.size() > mark) ++changed_writes;
      if (n.ok()) {
        affected += *n;
      } else {
        st = n.status();
      }
    }
    if (st.ok() && txn_id != 0 && !log.empty()) st = EncodeUndo(log, &undo);
    if (!st.ok()) {
      (void)RevertChanges(log);
      if (reverted != nullptr) *reverted = changed_writes;
    }
  }
  WalGroup group;
  if (st.ok() && !undo.empty()) {
    // Under the DDL latch this batch holds shared, so a checkpoint sees
    // the records and the group that carries them together.
    std::lock_guard<Latch> reg(txn_registry_mu_);
    if (open_txns_.count(txn_id) != 0) {
      open_batches_.push_back(OpenTxnMeta{txn_id, undo});
    }
    group.txn_id = txn_id;
    group.undo = std::move(undo);
  }
  Status logged = CommitDmlGroup(capture, tables, std::move(group));
  if (st.ok()) st = logged;
  if (!st.ok()) return st;
  return affected;
}

Status Database::RevertChanges(const RowChangeLog& log) {
  // A revert runs to completion even when the deadline that failed its
  // batch or aborted its transaction has expired.
  deadline::Scope no_deadline(deadline::Deadline::None());
  // Where a row the log names by rid sits now, once a newer step of this
  // revert moved it: an UPDATE's revert moves the row the older steps
  // know by its old rid, a DELETE's revert restores it at a fresh rid. A
  // slot holds a new row only after the old one left it, so the revert
  // of that leaving rewrites the entry before any older step reads it.
  std::map<std::pair<TableInfo*, Rid>, Rid> moved;
  Status first;
  for (auto it = log.rbegin(); it != log.rend(); ++it) {
    const RowChange& c = *it;
    Status st;
    if (c.table == nullptr) {
      st = Status::FailedPrecondition("undo refused: its table was dropped");
    } else if (c.kind == RowChange::Kind::kDelete) {
      Rid at;
      st = CheckKeysFree(c.table, c.before);
      if (st.ok()) st = RestoreDeletedRow(c.table, c.before, &at);
      if (st.ok()) moved[{c.table, c.rid}] = at;
    } else {
      auto found = moved.find({c.table, c.rid});
      Rid at = found == moved.end() ? c.rid : found->second;
      st = CheckRowImage(c.table, at, c.after);
      if (st.ok() && c.kind == RowChange::Kind::kInsert) {
        st = RevertInsertedRow(c.table, c.after, at);
      } else if (st.ok()) {
        st = RevertUpdatedRow(c.table, &at, c.after, c.before);
        if (st.ok()) moved[{c.table, c.old_rid}] = at;
      }
    }
    if (!st.ok() && first.ok()) first = st;
  }
  return first;
}

Status Database::EncodeUndo(const RowChangeLog& log, std::string* out) {
  std::string image;
  for (const RowChange& c : log) {
    PutU8(out, static_cast<uint8_t>(c.kind));
    PutI32(out, c.table->id);
    for (const Rid& rid : {c.rid, c.old_rid}) {
      PutI32(out, rid.page_id);
      PutU16(out, rid.slot);
    }
    // The before and after images; empty where the kind has none (an
    // encoded row is never empty).
    for (const Row* row : {&c.before, &c.after}) {
      image.clear();
      if (!row->empty()) {
        MTDB_RETURN_IF_ERROR(c.table->codec->Encode(*row, &image));
      }
      PutBytes(out, image);
    }
  }
  return Status::OK();
}

Result<Database::RowChangeLog> Database::DecodeUndo(const std::string& undo) {
  ByteCursor cur(undo);
  RowChangeLog log;
  while (!cur.AtEnd()) {
    RowChange c{};
    uint8_t kind = 0;
    TableId table_id = 0;
    std::string_view before, after;
    if (!cur.U8(&kind) ||
        kind > static_cast<uint8_t>(RowChange::Kind::kDelete) ||
        !cur.I32(&table_id) || !cur.I32(&c.rid.page_id) ||
        !cur.U16(&c.rid.slot) || !cur.I32(&c.old_rid.page_id) ||
        !cur.U16(&c.old_rid.slot) || !cur.Bytes(&before) ||
        !cur.Bytes(&after)) {
      return Status::DataLoss("undo record truncated");
    }
    c.kind = static_cast<RowChange::Kind>(kind);
    c.table = catalog_->GetTable(table_id);
    // A dropped table's images stay undecoded; RevertChanges refuses its
    // steps.
    const std::pair<std::string_view, Row*> images[] = {{before, &c.before},
                                                        {after, &c.after}};
    for (const auto& [image, row] : images) {
      if (image.empty() || c.table == nullptr) continue;
      MTDB_ASSIGN_OR_RETURN(
          *row, c.table->codec->Decode(image.data(),
                                       static_cast<uint32_t>(image.size())));
    }
    log.push_back(std::move(c));
  }
  return log;
}

Result<int64_t> Database::ExecuteInsert(const sql::InsertStmt& stmt,
                                        TableInfo* table,
                                        const ExecContext& ctx,
                                        RowChangeLog* log) {
  std::vector<size_t> positions;
  if (stmt.columns.empty()) {
    for (size_t i = 0; i < table->schema.size(); ++i) positions.push_back(i);
  } else {
    for (const std::string& c : stmt.columns) {
      auto pos = table->schema.Find(c);
      if (!pos.has_value()) {
        return Status::NotFound("no column " + c + " in " + stmt.table);
      }
      positions.push_back(*pos);
    }
  }
  for (const auto& row_exprs : stmt.rows) {
    MTDB_RETURN_IF_ERROR(ctx.CheckDeadline());
    if (row_exprs.size() != positions.size()) {
      return Status::InvalidArgument("VALUES arity mismatch");
    }
    std::vector<const sql::ParsedExpr*> parsed;
    for (const auto& e : row_exprs) parsed.push_back(e.get());
    MTDB_ASSIGN_OR_RETURN(std::vector<ExprPtr> values,
                          BindRowExprs(parsed, stmt.table, {}));
    Row full(table->schema.size(), Value());
    for (size_t i = 0; i < positions.size(); ++i) {
      MTDB_ASSIGN_OR_RETURN(full[positions[i]], values[i]->Eval(Row{}, ctx));
    }
    RowChange c{RowChange::Kind::kInsert, table, {}, {}, {}, {}};
    MTDB_RETURN_IF_ERROR(InsertRowLatched(table, full, &c.rid, &c.after));
    log->push_back(std::move(c));
  }
  return static_cast<int64_t>(stmt.rows.size());
}

namespace {

/// Plans "SELECT * FROM table WHERE ..." and collects the qualifying
/// rows with their RIDs: the qualifying scan of UPDATE and DELETE, run
/// under the X latches the batch already holds.
Result<std::vector<std::pair<Rid, Row>>> CollectQualifying(
    const std::string& table, const sql::ParsedExpr* where, Catalog* catalog,
    PlannerMode mode, const ExecContext& ctx) {
  sql::SelectStmt select;
  select.select_star = true;
  sql::TableRef ref;
  ref.table_name = table;
  select.from.push_back(std::move(ref));
  if (where != nullptr) select.where = where->Clone();
  MTDB_ASSIGN_OR_RETURN(PlannedQuery plan, PlanSelect(select, catalog, mode));
  MTDB_RETURN_IF_ERROR(plan.exec->Init(ctx));
  std::vector<std::pair<Rid, Row>> out;
  Row row;
  while (true) {
    MTDB_ASSIGN_OR_RETURN(bool more, plan.exec->Next(&row, ctx));
    if (!more) break;
    const Rid* rid = plan.exec->current_rid();
    if (rid == nullptr) return Status::Internal("scan lost row identity");
    out.emplace_back(*rid, row);
  }
  return out;
}

}  // namespace

Result<int64_t> Database::ExecuteUpdate(const sql::UpdateStmt& stmt,
                                        TableInfo* table,
                                        const ExecContext& ctx,
                                        RowChangeLog* log) {
  std::vector<size_t> positions;
  std::vector<const sql::ParsedExpr*> parsed;
  for (const auto& [col, expr] : stmt.assignments) {
    auto pos = table->schema.Find(col);
    if (!pos.has_value()) {
      return Status::NotFound("no column " + col + " in " + stmt.table);
    }
    positions.push_back(*pos);
    parsed.push_back(expr.get());
  }
  std::vector<std::string> columns;
  columns.reserve(table->schema.size());
  for (const Column& c : table->schema.columns()) columns.push_back(c.name);
  MTDB_ASSIGN_OR_RETURN(std::vector<ExprPtr> sets,
                        BindRowExprs(parsed, stmt.table, std::move(columns)));
  MTDB_ASSIGN_OR_RETURN(auto affected,
                        CollectQualifying(stmt.table, stmt.where.get(),
                                          catalog_.get(), planner_mode(), ctx));
  // Apply per row; assignments may read old row values. Each row applies
  // atomically (UpdateRowLatched).
  const size_t first = log->size();
  for (auto& [rid, old_row] : affected) {
    MTDB_RETURN_IF_ERROR(ctx.CheckDeadline());
    Row new_row = old_row;
    for (size_t i = 0; i < sets.size(); ++i) {
      MTDB_ASSIGN_OR_RETURN(Value val, sets[i]->Eval(old_row, ctx));
      if (!val.is_null()) {
        MTDB_ASSIGN_OR_RETURN(val,
                              val.CastTo(table->schema.at(positions[i]).type));
      }
      new_row[positions[i]] = std::move(val);
    }
    RowChange c{RowChange::Kind::kUpdate, table, {}, rid, std::move(old_row),
                std::move(new_row)};
    MTDB_RETURN_IF_ERROR(
        UpdateRowLatched(table, rid, c.before, c.after, &c.rid));
    log->push_back(std::move(c));
  }
  // Unique keys are checked once every row is written, so keys shifting
  // through each other (SET a = a + 1 over consecutive keys) are no
  // conflict. A violation fails the batch, and RunBatch reverts the log
  // through RevertChanges, which checks nothing.
  for (size_t i = first; i < log->size(); ++i) {
    const RowChange& c = (*log)[i];
    MTDB_RETURN_IF_ERROR(CheckUniqueKeys(*table, c.after, &c.rid, &c.before));
  }
  return static_cast<int64_t>(affected.size());
}

Result<int64_t> Database::ExecuteDelete(const sql::DeleteStmt& stmt,
                                        TableInfo* table,
                                        const ExecContext& ctx,
                                        RowChangeLog* log) {
  MTDB_ASSIGN_OR_RETURN(auto affected,
                        CollectQualifying(stmt.table, stmt.where.get(),
                                          catalog_.get(), planner_mode(), ctx));
  // Each row deletes atomically; a revert re-inserts it at a fresh rid.
  for (auto& [rid, old_row] : affected) {
    MTDB_RETURN_IF_ERROR(ctx.CheckDeadline());
    MTDB_RETURN_IF_ERROR(DeleteRowLatched(table, old_row, rid));
    log->push_back(
        {RowChange::Kind::kDelete, table, rid, {}, std::move(old_row), {}});
  }
  return static_cast<int64_t>(affected.size());
}

// --- direct helpers ----------------------------------------------------

Status Database::RunDdl(const std::function<Status()>& op) {
  std::unique_lock<SharedLatch> ddl(ddl_mu_);
  PageMutationCapture capture;
  Status st;
  {
    PageCaptureScope scope(&capture);
    st = op();
  }
  MTDB_RETURN_IF_ERROR(CommitDdlGroup(capture, st.ok()));
  return st;
}

// The direct helpers below mirror RunMutation's shape: RunDdl holds the
// DDL latch and commits the WAL group, then MaybeAutoCheckpoint runs with
// everything released (Checkpoint takes ddl_mu_ exclusively, so it must
// never nest inside it).

Status Database::CreateTable(const std::string& name, Schema schema) {
  Status st = RunDdl([&] {
    return catalog_->CreateTable(name, std::move(schema)).status();
  });
  MaybeAutoCheckpoint();
  return st;
}

Status Database::DropTable(const std::string& name) {
  Status st = RunDdl([&] { return catalog_->DropTable(name); });
  MaybeAutoCheckpoint();
  return st;
}

Status Database::CreateIndex(const std::string& table, const std::string& index,
                             const std::vector<std::string>& columns,
                             bool unique) {
  Status st = RunDdl([&] {
    return catalog_->CreateIndex(table, index, columns, unique).status();
  });
  MaybeAutoCheckpoint();
  return st;
}

Status Database::InsertRow(const std::string& table, const Row& row) {
  return InsertRow(kEngineTenant, table, row).status();
}

// --- observability -----------------------------------------------------

EngineStats Database::Stats() const {
  // Every component snapshots under its own latch; no engine-wide lock.
  EngineStats out;
  out.buffer = pool_->stats();
  out.store = store_->stats();
  out.metadata_bytes = catalog_->metadata_bytes();
  out.buffer_capacity = pool_->capacity();
  out.tables = catalog_->table_count();
  out.indexes = catalog_->index_count();
  if (durability_ != nullptr) out.durability = durability_->counters().Snapshot();
  out.io_faults = store_->io_counters().Snapshot();
  out.metrics = registry_->Snapshot();
  return out;
}

std::string MappingExplanation::ToText() const {
  std::string out = "EXPLAIN MAPPING (layout=" + layout;
  if (tenant >= 0) out += ", tenant=" + std::to_string(tenant);
  out += ")\n  logical: " + logical + "\n";
  for (const PhysicalStatementPlan& p : statements) {
    out += "  physical[" + p.op + " " + p.table + "]: " + p.sql + "\n";
  }
  if (!plan_text.empty()) {
    out += "  plan:\n";
    size_t start = 0;
    while (start < plan_text.size()) {
      size_t end = plan_text.find('\n', start);
      if (end == std::string::npos) end = plan_text.size();
      out += "    " + plan_text.substr(start, end - start) + "\n";
      start = end + 1;
    }
  }
  return out;
}

void Database::ResetStats() {
  pool_->ResetStats();
  store_->ResetStats();
}

void Database::ColdCache() {
  // Exclude in-flight statements so no pinned frame blocks the sweep.
  // A failed write-back keeps its frame cached, so ignoring the status
  // here cannot lose data — the sweep is just less cold.
  std::unique_lock<SharedLatch> ddl(ddl_mu_);
  (void)pool_->EvictAll();
}

}  // namespace mtdb
