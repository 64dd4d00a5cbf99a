#include "core/layout.h"

#include <algorithm>
#include <chrono>
#include <set>

#include "catalog/schema.h"
#include "core/tenant_session.h"
#include "engine/lock_manager.h"
#include "engine/txn_context.h"
#include "sql/ast_util.h"
#include "sql/parser.h"
#include "sql/printer.h"

namespace mtdb {
namespace mapping {

namespace {

/// Monotonic now in nanoseconds for the circuit breakers.
uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

CircuitBreaker::Options BreakerOptionsOf(const Database* db) {
  CircuitBreaker::Options o;
  if (db == nullptr) return o;
  o.threshold = db->options().breaker_threshold;
  o.initial_backoff_ns = db->options().breaker_backoff_initial_ms * 1'000'000;
  o.max_backoff_ns = db->options().breaker_backoff_max_ms * 1'000'000;
  return o;
}

}  // namespace

Schema PhysicalSchemaFromColumns(const std::vector<Column>& cols) {
  Schema out;
  for (const Column& c : cols) out.AddColumn(c);
  return out;
}

SchemaMapping::SchemaMapping(Database* db, const AppSchema* app)
    : db_(db), app_(app), breaker_options_(BreakerOptionsOf(db)) {}

namespace {

/// Sink installed on the thread executing ExplainMapping; see layout.h.
thread_local SchemaMapping::ExplainSink* tls_explain_sink = nullptr;

class ExplainScope {
 public:
  explicit ExplainScope(SchemaMapping::ExplainSink* sink)
      : prev_(tls_explain_sink) {
    tls_explain_sink = sink;
  }
  ~ExplainScope() { tls_explain_sink = prev_; }
  ExplainScope(const ExplainScope&) = delete;
  ExplainScope& operator=(const ExplainScope&) = delete;

 private:
  SchemaMapping::ExplainSink* prev_;
};

}  // namespace

bool SchemaMapping::Explaining() { return tls_explain_sink != nullptr; }

SchemaMapping::ExplainSink* SchemaMapping::CurrentExplainSink() {
  return tls_explain_sink;
}

TenantSession SchemaMapping::OpenSession(TenantId tenant) {
  return TenantSession(this, &executor_, tenant);
}

// Admin template methods: take the layer latch exclusively (draining
// in-flight statements, which hold it shared), then run the hooks.

Status SchemaMapping::CreateTenant(TenantId tenant) {
  std::unique_lock<SharedLatch> lock(layer_mu_);
  return CreateTenantImpl(tenant);
}

Status SchemaMapping::EnableExtension(TenantId tenant, const std::string& ext) {
  std::unique_lock<SharedLatch> lock(layer_mu_);
  return EnableExtensionImpl(tenant, ext);
}

Status SchemaMapping::DropTenant(TenantId tenant) {
  std::unique_lock<SharedLatch> lock(layer_mu_);
  return DropTenantImpl(tenant);
}

Status SchemaMapping::CreateTenantImpl(TenantId tenant) {
  if (tenants_.contains(tenant)) {
    return Status::AlreadyExists("tenant exists: " + std::to_string(tenant));
  }
  if (db_->durable()) {
    MTDB_RETURN_IF_ERROR(EnsureRegistry());
    MTDB_RETURN_IF_ERROR(RegistryInsert("T", tenant, "", 0));
    // Pre-assign the tenant's table numbers in schema order, so the lazy
    // in-statement assignment (TableNumber from BuildMapping) never has
    // to write the registry while holding the mapping-cache lock —
    // and so the numbers baked into data rows survive a restart.
    for (const LogicalTable& t : app_->tables()) {
      int32_t num = TableNumber(tenant, t.name);
      MTDB_RETURN_IF_ERROR(
          RegistryInsert("N", tenant, IdentLower(t.name), num));
    }
  }
  // In-place construction: TenantEntry owns a latch and cannot move.
  TenantEntry& entry = tenants_[tenant];
  entry.state = TenantState(tenant);
  entry.row_mu.SetOrderKey(static_cast<uint64_t>(tenant));
  return Status::OK();
}

namespace {

/// Identity of a physical source: table plus partition values.
std::string SourceKey(const PhysicalSource& s) {
  std::string key = IdentLower(s.physical_table);
  for (const auto& [col, val] : s.partition) {
    key += "|" + IdentLower(col) + "=" + val.ToString();
  }
  return key;
}

}  // namespace

Status SchemaMapping::EnableExtensionImpl(TenantId tenant,
                                          const std::string& ext) {
  MTDB_ASSIGN_OR_RETURN(TenantEntry * entry, GetTenant(tenant));
  const ExtensionDef* def = app_->FindExtension(ext);
  if (def == nullptr) {
    return Status::NotFound("no such extension: " + ext);
  }
  if (entry->state.HasExtension(ext)) return Status::OK();

  // Remember the pre-extension sources so existing rows can be migrated
  // into any newly-introduced chunks ("migrate data from one
  // representation to another on-the-fly").
  std::set<std::string> old_keys;
  std::vector<int64_t> existing_rows;
  {
    Result<const TableMapping*> old_mapping = Mapping(tenant, def->base_table);
    if (old_mapping.ok()) {
      for (const PhysicalSource& s : (*old_mapping)->sources) {
        old_keys.insert(SourceKey(s));
      }
      if (!(*old_mapping)->sources.empty() &&
          !(*old_mapping)->sources[0].row_column.empty()) {
        // No WHERE and no SET: Phase (a) reads row ids alone.
        const std::vector<Value> no_params;
        MTDB_ASSIGN_OR_RETURN(AffectedQuery all_rows,
                              ResolveWrite(**old_mapping, def->base_table,
                                           nullptr, {}, no_params));
        MTDB_ASSIGN_OR_RETURN(std::vector<AffectedRow> rows,
                              CollectAffected(tenant, all_rows));
        for (const AffectedRow& r : rows) existing_rows.push_back(r.row_id);
      }
    }
  }

  entry->state.EnableExtension(ext);
  InvalidateMappings();

  // Backfill: every new source must carry a (NULL-valued) row for each
  // existing logical row so the aligning inner joins stay complete.
  Result<const TableMapping*> new_mapping = Mapping(tenant, def->base_table);
  if (!new_mapping.ok()) {
    // Roll back: the layout cannot host this extension (e.g. a Universal
    // Table that is too narrow).
    entry->state.RemoveExtension(ext);
    InvalidateMappings();
    return new_mapping.status();
  }
  const TableMapping* mapping = *new_mapping;
  std::vector<PhysicalWrite> writes;
  for (const PhysicalSource& source : mapping->sources) {
    if (old_keys.count(SourceKey(source)) != 0) continue;
    if (source.row_column.empty()) continue;
    TableInfo* phys = db_->catalog()->GetTable(source.physical_table);
    if (phys == nullptr) {
      return Status::Internal("physical table missing: " +
                              source.physical_table);
    }
    for (int64_t row_id : existing_rows) {
      Row physical_row(phys->schema.size(), Value());
      for (const auto& [col, val] : source.partition) {
        auto pos = phys->schema.Find(col);
        if (!pos.has_value()) {
          return Status::Internal("partition column missing: " + col);
        }
        physical_row[*pos] = val;
      }
      auto pos = phys->schema.Find(source.row_column);
      if (!pos.has_value()) {
        return Status::Internal("row column missing: " + source.row_column);
      }
      physical_row[*pos] = Value::Int64(row_id);
      writes.push_back(PhysicalWrite::RowInsert(source.physical_table,
                                                std::move(physical_row)));
    }
  }
  MTDB_RETURN_IF_ERROR(ApplyWrites(tenant, writes).status());
  return RecordExtensionEnabled(
      tenant, ext,
      static_cast<int64_t>(entry->state.extensions().size()) - 1);
}

Status SchemaMapping::DropTenantImpl(TenantId tenant) {
  MTDB_ASSIGN_OR_RETURN(TenantEntry * entry, GetTenant(tenant));
  (void)entry;
  // Delete the tenant's rows from every logical table via the mapping.
  for (const LogicalTable& t : app_->tables()) {
    sql::DeleteStmt del;
    del.table = t.name;
    MTDB_ASSIGN_OR_RETURN(int64_t n, GenericDelete(tenant, del, {}));
    (void)n;
  }
  MTDB_RETURN_IF_ERROR(RecordTenantDropped(tenant));
  tenants_.erase(tenant);
  InvalidateMappings();
  return Status::OK();
}

// --- durable registry + layer recovery ---------------------------------

Status SchemaMapping::EnsureRegistry() {
  if (!db_->durable()) return Status::OK();
  if (db_->catalog()->GetTable(RegistryName()) != nullptr) return Status::OK();
  Schema schema;
  schema.AddColumn(Column{"kind", TypeId::kString, true});
  schema.AddColumn(Column{"tenant", TypeId::kInt32, true});
  schema.AddColumn(Column{"name", TypeId::kString, false});
  schema.AddColumn(Column{"val", TypeId::kInt64, false});
  MTDB_RETURN_IF_ERROR(db_->CreateTable(RegistryName(), std::move(schema)));
  return db_->CreateIndex(RegistryName(), "ix_mtdb_registry_tenant",
                          {"tenant"}, /*unique=*/false);
}

Status SchemaMapping::RegistryInsert(const std::string& kind, TenantId tenant,
                                     const std::string& name, int64_t val) {
  if (!db_->durable()) return Status::OK();
  Row row{Value::String(kind), Value::Int32(tenant), Value::String(name),
          Value::Int64(val)};
  return db_->InsertRow(RegistryName(), row);
}

Status SchemaMapping::RecordExtensionEnabled(TenantId tenant,
                                             const std::string& ext,
                                             int64_t ordinal) {
  return RegistryInsert("E", tenant, IdentLower(ext), ordinal);
}

Status SchemaMapping::RecordTenantDropped(TenantId tenant) {
  // Forget the tenant's table numbers (ids are never reused, so a
  // re-created tenant gets fresh ones).
  {
    std::lock_guard<Latch> lock(table_number_mu_);
    for (auto it = table_numbers_.begin(); it != table_numbers_.end();) {
      it = it->first.first == tenant ? table_numbers_.erase(it)
                                     : std::next(it);
    }
  }
  if (!db_->durable() ||
      db_->catalog()->GetTable(RegistryName()) == nullptr) {
    return Status::OK();
  }
  sql::Statement del;
  del.kind = sql::StatementKind::kDelete;
  del.del = std::make_unique<sql::DeleteStmt>();
  del.del->table = RegistryName();
  del.del->where = sql::MakeBinary(sql::BinaryOp::kEq,
                                   sql::MakeColumnRef("", "tenant"),
                                   sql::MakeLiteral(Value::Int32(tenant)));
  MTDB_ASSIGN_OR_RETURN(int64_t n, db_->ExecuteAst(del, {}));
  (void)n;
  return Status::OK();
}

Status SchemaMapping::Recover() {
  std::unique_lock<SharedLatch> lock(layer_mu_);
  if (!db_->durable()) {
    return Status::InvalidArgument("Recover() needs a durable engine");
  }
  tenants_.clear();
  if (db_->catalog()->GetTable(RegistryName()) != nullptr) {
    MTDB_ASSIGN_OR_RETURN(
        QueryResult reg,
        db_->Query("SELECT kind, tenant, name, val FROM " + RegistryName()));
    // Tenants first, then extensions in their original enable order,
    // then table numbers.
    std::map<TenantId, std::map<int64_t, std::string>> exts;
    for (const Row& r : reg.rows) {
      const std::string kind = r[0].ToString();
      const TenantId tenant = r[1].AsInt32();
      if (kind == "T") {
        TenantEntry& entry = tenants_[tenant];
        entry.state = TenantState(tenant);
        entry.row_mu.SetOrderKey(static_cast<uint64_t>(tenant));
      } else if (kind == "E") {
        exts[tenant][r[3].AsInt64()] = r[2].ToString();
      }
    }
    for (auto& [tenant, ordered] : exts) {
      auto it = tenants_.find(tenant);
      if (it == tenants_.end()) {
        return Status::DataLoss("registry extension row for unknown tenant " +
                                std::to_string(tenant));
      }
      for (auto& [ordinal, ext] : ordered) {
        (void)ordinal;
        it->second.state.EnableExtension(ext);
      }
    }
    {
      std::lock_guard<Latch> tn(table_number_mu_);
      table_numbers_.clear();
      for (const Row& r : reg.rows) {
        if (r[0].ToString() != "N") continue;
        const int32_t num = static_cast<int32_t>(r[3].AsInt64());
        table_numbers_[{r[1].AsInt32(), r[2].ToString()}] = num;
        next_table_number_ = std::max(next_table_number_, num + 1);
      }
    }
  }
  // Layout-private state (provisioned tables, versions, trashcan flag)
  // comes from the recovered catalog — before any Mapping() is built.
  MTDB_RETURN_IF_ERROR(RecoverDerivedState());
  InvalidateMappings();
  // Row-id counters resume past the highest id present in the data.
  // Source 0 is probed without the `del` visibility predicate so
  // trashcan-deleted rows keep their ids reserved.
  for (auto& [tenant, entry] : tenants_) {
    for (const LogicalTable& t : app_->tables()) {
      MTDB_ASSIGN_OR_RETURN(const TableMapping* mapping,
                            Mapping(tenant, t.name));
      if (mapping->sources.empty() ||
          mapping->sources[0].row_column.empty()) {
        continue;
      }
      const PhysicalSource& source = mapping->sources[0];
      sql::SelectStmt probe;
      sql::SelectItem item;
      item.expr = sql::MakeColumnRef("", source.row_column);
      probe.items.push_back(std::move(item));
      sql::TableRef ref;
      ref.table_name = source.physical_table;
      probe.from.push_back(std::move(ref));
      sql::ParsedExprPtr where;
      for (const auto& [col, val] : source.partition) {
        if (IdentEquals(col, "del")) continue;
        where = sql::AndTogether(
            std::move(where),
            sql::MakeBinary(sql::BinaryOp::kEq, sql::MakeColumnRef("", col),
                            sql::MakeLiteral(val)));
      }
      probe.where = std::move(where);
      MTDB_ASSIGN_OR_RETURN(QueryResult rows, db_->QueryAst(probe, {}));
      int64_t next = 0;
      for (const Row& r : rows.rows) {
        if (!r[0].is_null()) next = std::max(next, r[0].AsInt64() + 1);
      }
      if (next > 0) entry.next_row[IdentLower(t.name)] = next;
    }
  }
  return Status::OK();
}

std::vector<TenantId> SchemaMapping::TenantIds() const {
  std::shared_lock<SharedLatch> lock(layer_mu_);
  std::vector<TenantId> out;
  out.reserve(tenants_.size());
  for (const auto& [id, _] : tenants_) out.push_back(id);
  return out;
}

Result<std::vector<std::string>> SchemaMapping::TenantExtensions(
    TenantId tenant) const {
  std::shared_lock<SharedLatch> lock(layer_mu_);
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) {
    return Status::NotFound("no such tenant: " + std::to_string(tenant));
  }
  return it->second.state.extensions();
}

BreakerState SchemaMapping::TenantBreakerState(TenantId tenant) const {
  std::shared_lock<SharedLatch> lock(layer_mu_);
  auto it = tenants_.find(tenant);
  return it == tenants_.end() ? BreakerState::kClosed
                              : it->second.breaker.state();
}

Status SchemaMapping::ClearQuarantine(TenantId tenant) {
  std::shared_lock<SharedLatch> lock(layer_mu_);
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) {
    return Status::NotFound("no such tenant: " + std::to_string(tenant));
  }
  it->second.breaker.ForceClose();
  return Status::OK();
}

Status SchemaMapping::CheckTenantAvailable(TenantId tenant, ProbeGuard* probe) {
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) return Status::OK();
  uint64_t retry_after_ns = 0;
  switch (it->second.breaker.Admit(NowNs(), breaker_options_,
                                   &retry_after_ns)) {
    case CircuitBreaker::Decision::kAllow:
      return Status::OK();
    case CircuitBreaker::Decision::kAllowProbe:
      // The backoff elapsed: this statement probes the tenant's pages;
      // its outcome (NoteTenantOutcome) closes or re-opens the breaker.
      // The guard takes the slot back if the statement aborts before an
      // outcome exists; outcome-less callers hand it back right away.
      if (probe != nullptr) {
        probe->breaker_ = &it->second.breaker;
      } else {
        it->second.breaker.AbandonProbe();
      }
      if (db_ != nullptr) {
        db_->metrics_registry()
            ->GetCounter("breaker.half_open.t" + std::to_string(tenant))
            ->Add(1);
      }
      return Status::OK();
    case CircuitBreaker::Decision::kReject:
      break;
  }
  return Status::Unavailable(
      "tenant " + std::to_string(tenant) +
      " is quarantined after repeated I/O faults (circuit open); "
      "retry_after_ms=" +
      std::to_string(retry_after_ns / 1'000'000 + 1));
}

void SchemaMapping::NoteTenantOutcome(TenantId tenant, const Status& status) {
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) return;
  TenantEntry& entry = it->second;
  // Only hard I/O faults strike the breaker: logical errors (NotFound,
  // constraint violations, deadline expiry, ...) say nothing about the
  // tenant's pages, so they count as proof of service — they reset the
  // strikes and close a half-open probe.
  const bool hard_fault = !status.ok() &&
                          (status.code() == StatusCode::kIOError ||
                           status.code() == StatusCode::kDataLoss);
  switch (entry.breaker.OnResult(hard_fault, NowNs(), breaker_options_)) {
    case CircuitBreaker::Transition::kOpened:
      if (db_ != nullptr) {
        db_->metrics_registry()
            ->GetCounter("breaker.open.t" + std::to_string(tenant))
            ->Add(1);
      }
      break;
    case CircuitBreaker::Transition::kClosed:
      if (db_ != nullptr) {
        db_->metrics_registry()
            ->GetCounter("breaker.close.t" + std::to_string(tenant))
            ->Add(1);
      }
      break;
    case CircuitBreaker::Transition::kNone:
      break;
  }
}

Result<SchemaMapping::TenantEntry*> SchemaMapping::GetTenant(TenantId tenant) {
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) {
    return Status::NotFound("no such tenant: " + std::to_string(tenant));
  }
  return &it->second;
}

Result<EffectiveTable> SchemaMapping::GetEffective(TenantId tenant,
                                                   const std::string& table) {
  MTDB_ASSIGN_OR_RETURN(TenantEntry * entry, GetTenant(tenant));
  return EffectiveSchemaOf(*app_, entry->state, table);
}

Result<std::vector<std::pair<std::string, TypeId>>>
SchemaMapping::LogicalColumns(TenantId tenant, const std::string& table) {
  MTDB_ASSIGN_OR_RETURN(EffectiveTable eff, GetEffective(tenant, table));
  std::vector<std::pair<std::string, TypeId>> out;
  for (const LogicalColumn& c : eff.columns) {
    out.emplace_back(c.name, c.type);
  }
  return out;
}

Result<const TableMapping*> SchemaMapping::Mapping(TenantId tenant,
                                                   const std::string& table) {
  // Returned pointers stay valid until the next InvalidateMappings();
  // statement paths hold the layer latch shared, which keeps admin DDL
  // (the only invalidator) out for the duration of the statement.
  std::lock_guard<Latch> lock(cache_mu_);
  auto key = std::make_pair(tenant, IdentLower(table));
  auto it = mapping_cache_.find(key);
  if (it != mapping_cache_.end()) return it->second.get();
  MTDB_ASSIGN_OR_RETURN(std::unique_ptr<TableMapping> m,
                        BuildMapping(tenant, table));
  const TableMapping* raw = m.get();
  mapping_cache_.emplace(std::move(key), std::move(m));
  return raw;
}

void SchemaMapping::InvalidateMappings() {
  std::lock_guard<Latch> lock(cache_mu_);
  mapping_cache_.clear();
}

void SchemaMapping::NotifySelect(TenantId tenant, const sql::SelectStmt& stmt) {
  if (ExplainSink* sink = CurrentExplainSink()) {
    // Explain-only statements never reach the observer: they are not
    // "about to be executed" (Phase (a) reads excepted, which ARE
    // executed but belong to the explain, not to real traffic).
    PhysicalStatementPlan plan;
    plan.op = "select";
    plan.table = sql::FirstTableOf(stmt);
    plan.sql = sql::ToSql(stmt);
    sink->out->push_back(std::move(plan));
    return;
  }
  PhysicalStatementObserver* obs = observer_.load(std::memory_order_acquire);
  if (obs != nullptr) obs->OnSelect(tenant, stmt);
}

void SchemaMapping::NotifyStatement(TenantId tenant,
                                    const sql::Statement& stmt) {
  if (ExplainSink* sink = CurrentExplainSink()) {
    PhysicalStatementPlan plan;
    plan.op = sql::KindLabel(stmt.kind);
    plan.table = sql::FirstTableOf(stmt);
    plan.sql = sql::ToSql(stmt);
    sink->out->push_back(std::move(plan));
    return;
  }
  PhysicalStatementObserver* obs = observer_.load(std::memory_order_acquire);
  if (obs != nullptr) obs->OnStatement(tenant, stmt);
}

int32_t SchemaMapping::TableNumber(TenantId tenant, const std::string& table) {
  std::lock_guard<Latch> lock(table_number_mu_);
  auto key = std::make_pair(tenant, IdentLower(table));
  auto it = table_numbers_.find(key);
  if (it != table_numbers_.end()) return it->second;
  int32_t id = next_table_number_++;
  table_numbers_.emplace(std::move(key), id);
  return id;
}

template <typename Fn>
Result<int64_t> SchemaMapping::RunWrite(TenantId tenant, Fn&& body) {
  std::shared_lock<SharedLatch> lock(layer_mu_);
  ProbeGuard probe;
  MTDB_RETURN_IF_ERROR(CheckTenantAvailable(tenant, &probe));
  // Row-lock scope for this write statement (DESIGN.md §15). Inside a
  // client bracket the locks join the transaction's holder and survive
  // until COMMIT/ROLLBACK; otherwise they are statement-duration and the
  // scope's destructor — which runs after the body's write batch has
  // committed or reverted — releases them.
  txn::TransactionContext* txn = txn::TransactionContext::Current();
  lock::StatementLockContext locks(
      db_->lock_manager(), tenant,
      txn != nullptr ? txn->EnsureLockHolder() : nullptr);
  Result<int64_t> out = body();
  probe.Disarm();
  NoteTenantOutcome(tenant, out.status());
  return out;
}

Result<StatementResult> SchemaMapping::Run(TenantId tenant,
                                           const sql::Statement& stmt,
                                           const std::vector<Value>& params) {
  switch (stmt.kind) {
    case sql::StatementKind::kSelect:
      break;
    case sql::StatementKind::kInsert:
    case sql::StatementKind::kUpdate:
    case sql::StatementKind::kDelete: {
      MTDB_ASSIGN_OR_RETURN(int64_t affected, RunWrite(tenant, [&] {
        stats_.statements_transformed++;
        switch (stmt.kind) {
          case sql::StatementKind::kInsert:
            return GenericInsert(tenant, *stmt.insert, params);
          case sql::StatementKind::kUpdate:
            return GenericUpdate(tenant, *stmt.update, params);
          default:
            return GenericDelete(tenant, *stmt.del, params);
        }
      }));
      return StatementResult(affected);
    }
    case sql::StatementKind::kExplainMapping: {
      MTDB_ASSIGN_OR_RETURN(MappingExplanation out,
                            ExplainMapping(tenant, stmt, params));
      return StatementResult(std::move(out));
    }
    default:
      return Status::InvalidArgument(
          "a logical statement is SELECT, INSERT, UPDATE, DELETE or "
          "EXPLAIN MAPPING");
  }
  std::shared_lock<SharedLatch> lock(layer_mu_);
  ProbeGuard probe;
  MTDB_RETURN_IF_ERROR(CheckTenantAvailable(tenant, &probe));
  QueryTransformer transformer(this, transform_options_, &heat_);
  MTDB_ASSIGN_OR_RETURN(auto physical,
                        transformer.TransformSelect(tenant, *stmt.select));
  stats_.queries_transformed++;
  NotifySelect(tenant, *physical);
  Result<QueryResult> rows = db_->QueryAst(*physical, params);
  probe.Disarm();
  NoteTenantOutcome(tenant, rows.status());
  if (!rows.ok()) return rows.status();
  return StatementResult(*std::move(rows));
}

Result<QueryResult> SchemaMapping::Query(TenantId tenant,
                                         const std::string& sql,
                                         const std::vector<Value>& params) {
  MTDB_ASSIGN_OR_RETURN(sql::Statement stmt, sql::Parse(sql));
  if (stmt.kind != sql::StatementKind::kSelect) {
    return Status::InvalidArgument("logical Query() handles SELECT");
  }
  MTDB_ASSIGN_OR_RETURN(StatementResult res, Run(tenant, stmt, params));
  return std::move(std::get<QueryResult>(res));
}

Result<int64_t> SchemaMapping::Execute(TenantId tenant, const std::string& sql,
                                       const std::vector<Value>& params) {
  MTDB_ASSIGN_OR_RETURN(sql::Statement stmt, sql::Parse(sql));
  if (stmt.kind != sql::StatementKind::kInsert &&
      stmt.kind != sql::StatementKind::kUpdate &&
      stmt.kind != sql::StatementKind::kDelete) {
    return Status::InvalidArgument(
        "logical Execute() handles INSERT/UPDATE/DELETE");
  }
  MTDB_ASSIGN_OR_RETURN(StatementResult res, Run(tenant, stmt, params));
  return AffectedOf(res);
}

Result<int64_t> SchemaMapping::InsertRow(TenantId tenant,
                                         const std::string& table,
                                         const Row& row) {
  return RunWrite(tenant, [&]() -> Result<int64_t> {
    MTDB_ASSIGN_OR_RETURN(EffectiveTable eff, GetEffective(tenant, table));
    std::vector<std::string> columns;
    for (size_t i = 0; i < row.size() && i < eff.columns.size(); ++i) {
      columns.push_back(eff.columns[i].name);
    }
    MTDB_ASSIGN_OR_RETURN(const TableMapping* mapping, Mapping(tenant, table));
    MTDB_ASSIGN_OR_RETURN(std::vector<const ColumnTarget*> targets,
                          ResolveInsert(*mapping, table, columns));
    std::vector<PhysicalWrite> writes;
    MTDB_RETURN_IF_ERROR(
        InsertMappedRow(tenant, table, *mapping, targets, row, &writes));
    MTDB_RETURN_IF_ERROR(ApplyWrites(tenant, writes).status());
    return 1;
  });
}

Result<std::string> SchemaMapping::ShowTransformed(TenantId tenant,
                                                   const std::string& sql) {
  std::shared_lock<SharedLatch> lock(layer_mu_);
  MTDB_ASSIGN_OR_RETURN(sql::Statement stmt, sql::Parse(sql));
  if (stmt.kind != sql::StatementKind::kSelect) {
    return Status::NotImplemented(
        "ShowTransformed supports SELECT statements");
  }
  QueryTransformer transformer(this, transform_options_);
  MTDB_ASSIGN_OR_RETURN(auto physical,
                        transformer.TransformSelect(tenant, *stmt.select));
  return sql::ToSql(*physical);
}

Result<MappingExplanation> SchemaMapping::ExplainMapping(
    TenantId tenant, const std::string& sql, const std::vector<Value>& params) {
  MTDB_ASSIGN_OR_RETURN(sql::Statement stmt, sql::Parse(sql));
  return ExplainMapping(tenant, stmt, params);
}

Result<MappingExplanation> SchemaMapping::ExplainMapping(
    TenantId tenant, const sql::Statement& stmt,
    const std::vector<Value>& params) {
  const sql::Statement* target = &stmt;
  if (stmt.kind == sql::StatementKind::kExplainMapping) {
    target = stmt.explain->target.get();
  }
  std::shared_lock<SharedLatch> lock(layer_mu_);
  // No ProbeGuard: an explain never reports an outcome, so the probe
  // slot (if this arrival won it) is handed straight back inside
  // CheckTenantAvailable — real traffic decides the tenant's fate.
  MTDB_RETURN_IF_ERROR(CheckTenantAvailable(tenant));

  MappingExplanation out;
  out.layout = name();
  out.tenant = tenant;
  out.logical = sql::ToSql(*target);
  ExplainSink sink;
  sink.out = &out.statements;
  ExplainScope scope(&sink);
  switch (target->kind) {
    case sql::StatementKind::kSelect: {
      // Same transformation Query() runs, minus heat recording (an
      // explain is not application traffic).
      QueryTransformer transformer(this, transform_options_);
      MTDB_ASSIGN_OR_RETURN(auto physical,
                            transformer.TransformSelect(tenant, *target->select));
      NotifySelect(tenant, *physical);
      MTDB_ASSIGN_OR_RETURN(out.plan_text, db_->ExplainAst(*physical));
      break;
    }
    case sql::StatementKind::kInsert:
      MTDB_RETURN_IF_ERROR(
          GenericInsert(tenant, *target->insert, params).status());
      break;
    case sql::StatementKind::kUpdate:
      MTDB_RETURN_IF_ERROR(
          GenericUpdate(tenant, *target->update, params).status());
      break;
    case sql::StatementKind::kDelete:
      MTDB_RETURN_IF_ERROR(
          GenericDelete(tenant, *target->del, params).status());
      break;
    default:
      return Status::InvalidArgument(
          "EXPLAIN MAPPING supports SELECT/INSERT/UPDATE/DELETE");
  }
  return out;
}

Result<int64_t> SchemaMapping::GenericInsert(TenantId tenant,
                                             const sql::InsertStmt& stmt,
                                             const std::vector<Value>& params) {
  MTDB_ASSIGN_OR_RETURN(EffectiveTable eff, GetEffective(tenant, stmt.table));
  std::vector<std::string> columns = stmt.columns;
  if (columns.empty()) {
    for (const LogicalColumn& c : eff.columns) columns.push_back(c.name);
  }
  MTDB_ASSIGN_OR_RETURN(const TableMapping* mapping, Mapping(tenant, stmt.table));
  MTDB_ASSIGN_OR_RETURN(std::vector<const ColumnTarget*> targets,
                        ResolveInsert(*mapping, stmt.table, columns));
  // Every VALUES row evaluates before any row takes an id or a lock.
  ExecContext ctx;
  ctx.params = params;
  std::vector<Row> rows;
  rows.reserve(stmt.rows.size());
  for (const auto& row_exprs : stmt.rows) {
    if (row_exprs.size() != targets.size()) {
      return Status::InvalidArgument("VALUES arity mismatch");
    }
    std::vector<const sql::ParsedExpr*> parsed;
    for (const auto& e : row_exprs) parsed.push_back(e.get());
    MTDB_ASSIGN_OR_RETURN(std::vector<ExprPtr> bound,
                          BindRowExprs(parsed, stmt.table, {}));
    Row values;
    values.reserve(bound.size());
    for (const ExprPtr& e : bound) {
      MTDB_ASSIGN_OR_RETURN(Value v, e->Eval(Row{}, ctx));
      values.push_back(std::move(v));
    }
    rows.push_back(std::move(values));
  }
  // A multi-row VALUES list is one logical statement: every row's
  // physical inserts go into one engine batch.
  std::vector<PhysicalWrite> writes;
  for (const Row& values : rows) {
    MTDB_RETURN_IF_ERROR(
        InsertMappedRow(tenant, stmt.table, *mapping, targets, values, &writes));
  }
  MTDB_RETURN_IF_ERROR(ApplyWrites(tenant, writes).status());
  return static_cast<int64_t>(stmt.rows.size());
}

Result<int64_t> SchemaMapping::ApplyWrites(
    TenantId tenant, const std::vector<PhysicalWrite>& writes,
    const std::vector<Value>& params) {
  for (const PhysicalWrite& w : writes) {
    if (w.stmt != nullptr) {
      NotifyStatement(tenant, *w.stmt);
    } else if (Explaining() ||
               observer_.load(std::memory_order_acquire) != nullptr) {
      // Row inserts go through the engine's row API, so the INSERT the
      // engine would otherwise parse is synthesized here for the
      // observer / EXPLAIN MAPPING sink (built only when someone looks).
      TableInfo* phys = db_->catalog()->GetTable(w.table);
      if (phys == nullptr) {
        return Status::Internal("physical table missing: " + w.table);
      }
      sql::Statement ins;
      ins.kind = sql::StatementKind::kInsert;
      ins.insert = std::make_unique<sql::InsertStmt>();
      ins.insert->table = w.table;
      std::vector<sql::ParsedExprPtr> vals;
      for (size_t i = 0; i < w.row.size() && i < phys->schema.size(); ++i) {
        if (w.row[i].is_null()) continue;
        ins.insert->columns.push_back(phys->schema.at(i).name);
        vals.push_back(sql::MakeLiteral(w.row[i]));
      }
      ins.insert->rows.push_back(std::move(vals));
      NotifyStatement(tenant, ins);
    }
  }
  // Under EXPLAIN MAPPING Phase (b) is planned (recorded above) but never
  // run.
  if (Explaining() || writes.empty()) return 0;
  const uint64_t count = writes.size();
  uint64_t reverted = 0;
  Result<int64_t> out = db_->ExecuteBatch(writes, params, &reverted);
  if (out.ok()) {
    stats_.physical_statements += count;
  } else if (reverted > 0) {
    stats_.statement_rollbacks++;
    stats_.undo_statements += reverted;
  }
  return out;
}

namespace {

/// The conjunction of a source's partition (meta-data) columns: tenant,
/// table number, chunk — whatever the source shares its table by.
sql::ParsedExprPtr PartitionPredicate(const PhysicalSource& source) {
  sql::ParsedExprPtr where;
  for (const auto& p : source.partition) {
    where = sql::AndTogether(
        std::move(where),
        sql::MakeBinary(sql::BinaryOp::kEq, sql::MakeColumnRef("", p.first),
                        sql::MakeLiteral(p.second)));
  }
  return where;
}

/// partition AND row = row_id: the locality predicate addressing one
/// logical row's chunk in one physical source.
sql::ParsedExprPtr RowLocalPredicate(const PhysicalSource& source,
                                     int64_t row_id) {
  return sql::AndTogether(
      PartitionPredicate(source),
      sql::MakeBinary(sql::BinaryOp::kEq,
                      sql::MakeColumnRef("", source.row_column),
                      sql::MakeLiteral(Value::Int64(row_id))));
}

/// §15's whole-table X on (tenant, table) for a write that has no row
/// set to lock; a no-op outside a locking statement.
Status LockWholeTable(const std::string& table) {
  lock::StatementLockContext* locks = lock::StatementLockContext::Current();
  if (locks == nullptr || !locks->enabled()) return Status::OK();
  return locks->LockTable(IdentLower(table), lock::LockMode::kX);
}

/// True when the mapping is one source without a row column (Basic,
/// Private): the logical UPDATE/DELETE maps to exactly one physical
/// statement, §6.3's two phases degenerating to Phase (b) alone.
bool IsPassThrough(const TableMapping& mapping) {
  return mapping.sources.size() == 1 && mapping.sources[0].row_column.empty();
}

/// A copy of `e` with its column references unqualified. A pass-through
/// statement runs on the source's physical table, and a qualifier names
/// the logical table (ResolveWrite accepts no other), which the physical
/// table may not be called (Private's account_t17_v1).
sql::ParsedExprPtr Unqualified(const sql::ParsedExpr& e) {
  sql::ParsedExprPtr out = e.Clone();
  std::vector<sql::ParsedExpr*> todo = {out.get()};
  while (!todo.empty()) {
    sql::ParsedExpr* n = todo.back();
    todo.pop_back();
    if (n->kind == sql::PExprKind::kColumnRef) n->table.clear();
    if (n->left != nullptr) todo.push_back(n->left.get());
    if (n->right != nullptr) todo.push_back(n->right.get());
    for (const auto& a : n->args) todo.push_back(a.get());
  }
  return out;
}

/// The Phase (b) batch running `stmts`, which must outlive it.
std::vector<PhysicalWrite> DmlWrites(const std::vector<sql::Statement>& stmts) {
  std::vector<PhysicalWrite> writes;
  writes.reserve(stmts.size());
  for (const sql::Statement& s : stmts) {
    writes.push_back(PhysicalWrite::Dml(s));
  }
  return writes;
}

/// The target of logical column `col` of `table` in `mapping`: the one
/// lookup, and the one NotFound text, of every mapped write's column list.
Result<const ColumnTarget*> ResolveColumn(const TableMapping& mapping,
                                          const std::string& table,
                                          const std::string& col) {
  auto it = mapping.columns.find(IdentLower(col));
  if (it == mapping.columns.end()) {
    return Status::NotFound("no logical column " + col + " in " + table);
  }
  return &it->second;
}

}  // namespace

Result<std::vector<const ColumnTarget*>> SchemaMapping::ResolveInsert(
    const TableMapping& mapping, const std::string& table,
    const std::vector<std::string>& columns) {
  std::vector<const ColumnTarget*> targets;
  targets.reserve(columns.size());
  for (const std::string& col : columns) {
    MTDB_ASSIGN_OR_RETURN(const ColumnTarget* target,
                          ResolveColumn(mapping, table, col));
    if (std::find(targets.begin(), targets.end(), target) != targets.end()) {
      return Status::InvalidArgument("column " + col +
                                     " appears twice in the INSERT");
    }
    targets.push_back(target);
  }
  return targets;
}

Status SchemaMapping::InsertMappedRow(
    TenantId tenant, const std::string& table, const TableMapping& mapping,
    const std::vector<const ColumnTarget*>& targets, const Row& values,
    std::vector<PhysicalWrite>* writes) {
  if (targets.size() != values.size()) {
    return Status::InvalidArgument("column/value count mismatch");
  }
  MTDB_ASSIGN_OR_RETURN(TenantEntry * entry, GetTenant(tenant));

  // Assign the logical row id (§6.3: "assign each inserted new row a
  // unique row identifier"). The counter is per tenant, so concurrent
  // sessions of one tenant serialize only on this small lock.
  bool needs_row = false;
  for (const PhysicalSource& s : mapping.sources) {
    if (!s.row_column.empty()) needs_row = true;
  }
  int64_t row_id = 0;
  if (needs_row) {
    std::lock_guard<Latch> row_lock(entry->row_mu);
    if (ExplainSink* sink = CurrentExplainSink()) {
      // Peek the id the insert WOULD get without consuming it; the
      // per-table offset keeps a multi-row explain's ids consecutive.
      row_id = entry->next_row[IdentLower(table)] +
               sink->row_offsets[IdentLower(table)]++;
    } else {
      row_id = entry->next_row[IdentLower(table)]++;
    }
  }

  // §15: inserts lock before Phase (b), like updates. With row ids the
  // per-row X lock is on a fresh id — it can never block — and the table
  // intent can only wait on the first row of a statement (later rows
  // re-probe an owned lock); both come from one combined shard visit.
  // Without row ids the whole-table X is the write lock.
  if (lock::StatementLockContext* locks = lock::StatementLockContext::Current();
      locks != nullptr && locks->enabled()) {
    if (needs_row) {
      MTDB_RETURN_IF_ERROR(locks->LockRowWithIntent(IdentLower(table), row_id));
    } else {
      MTDB_RETURN_IF_ERROR(
          locks->LockTable(IdentLower(table), lock::LockMode::kX));
    }
  }

  // One physical insert per source: a multi-source mapping spreads the
  // logical row over several writes of the caller's batch.
  for (size_t src = 0; src < mapping.sources.size(); ++src) {
    const PhysicalSource& source = mapping.sources[src];
    TableInfo* phys = db_->catalog()->GetTable(source.physical_table);
    if (phys == nullptr) {
      return Status::Internal("physical table missing: " +
                              source.physical_table);
    }
    Row physical_row(phys->schema.size(), Value());
    // Partition (meta-data) values.
    for (const auto& [col, val] : source.partition) {
      auto pos = phys->schema.Find(col);
      if (!pos.has_value()) {
        return Status::Internal("partition column missing: " + col);
      }
      physical_row[*pos] = val;
    }
    if (!source.row_column.empty()) {
      auto pos = phys->schema.Find(source.row_column);
      if (!pos.has_value()) {
        return Status::Internal("row column missing: " + source.row_column);
      }
      physical_row[*pos] = Value::Int64(row_id);
    }
    // Data values routed to this source.
    for (size_t i = 0; i < targets.size(); ++i) {
      const ColumnTarget& target = *targets[i];
      if (target.source != src || values[i].is_null()) continue;
      auto pos = phys->schema.Find(target.physical_column);
      if (!pos.has_value()) {
        return Status::Internal("physical column missing: " +
                                target.physical_column);
      }
      MTDB_ASSIGN_OR_RETURN(physical_row[*pos],
                            values[i].CastTo(target.physical_type));
    }
    writes->push_back(
        PhysicalWrite::RowInsert(source.physical_table, std::move(physical_row)));
  }
  return Status::OK();
}

namespace {

/// Adds the lower-cased names of the columns `e` reads to `reads`; every
/// one must be a logical column of `table` in `mapping`.
Status CollectReads(const sql::ParsedExpr& e, const TableMapping& mapping,
                    const std::string& table, std::set<std::string>* reads) {
  if (e.kind == sql::PExprKind::kColumnRef) {
    std::string lower = IdentLower(e.column);
    if ((!e.table.empty() && !IdentEquals(e.table, table)) ||
        !mapping.columns.contains(lower)) {
      return Status::NotFound(
          "no logical column " +
          (e.table.empty() ? e.column : e.table + "." + e.column) + " in " +
          table);
    }
    reads->insert(std::move(lower));
    return Status::OK();
  }
  if (e.left != nullptr) {
    MTDB_RETURN_IF_ERROR(CollectReads(*e.left, mapping, table, reads));
  }
  if (e.right != nullptr) {
    MTDB_RETURN_IF_ERROR(CollectReads(*e.right, mapping, table, reads));
  }
  for (const auto& arg : e.args) {
    MTDB_RETURN_IF_ERROR(CollectReads(*arg, mapping, table, reads));
  }
  return Status::OK();
}

/// The table's write epoch, snapshotted immediately before a Phase (a)
/// read whose result feeds LockAffectedRows; 0 when the statement
/// acquires no locks (the check then compares 0 == 0).
uint64_t PreCollectLockEpoch(const std::string& table) {
  lock::StatementLockContext* locks = lock::StatementLockContext::Current();
  if (locks == nullptr || !locks->enabled()) return 0;
  return locks->TableWriteEpoch(IdentLower(table));
}

}  // namespace

Result<SchemaMapping::AffectedQuery> SchemaMapping::ResolveWrite(
    const TableMapping& mapping, const std::string& table,
    const sql::ParsedExpr* where, const Assignments& sets,
    const std::vector<Value>& params) {
  AffectedQuery query;
  query.table = table;
  query.mapping = &mapping;
  query.where = where;
  query.params = &params;
  std::set<std::string> reads;
  if (where != nullptr) {
    MTDB_RETURN_IF_ERROR(CollectReads(*where, mapping, table, &reads));
  }
  for (const auto& [col, expr] : sets) {
    MTDB_ASSIGN_OR_RETURN(const ColumnTarget* target,
                          ResolveColumn(mapping, table, col));
    MTDB_RETURN_IF_ERROR(CollectReads(*expr, mapping, table, &reads));
    query.sets.emplace_back(expr.get(), target);
  }
  for (const std::string& col : mapping.column_order) {
    if (reads.contains(IdentLower(col))) query.columns.push_back(col);
  }
  return query;
}

Result<std::vector<SchemaMapping::AffectedRow>> SchemaMapping::CollectAffected(
    TenantId tenant, const AffectedQuery& query) {
  const uint64_t collect_epoch = PreCollectLockEpoch(query.table);
  MTDB_ASSIGN_OR_RETURN(std::vector<AffectedRow> affected,
                        ReadAffected(tenant, query));
  // §15: every affected logical row is X-locked between Phase (a) and
  // Phase (b). If the table's write epoch moved since the snapshot above,
  // Phase (a) is re-read under the locks, so the statement always writes
  // over the winner's committed image — even when the winner committed
  // and released without ever blocking us.
  MTDB_RETURN_IF_ERROR(
      LockAffectedRows(tenant, query, &affected, collect_epoch));
  return affected;
}

Result<std::vector<SchemaMapping::AffectedRow>> SchemaMapping::ReadAffected(
    TenantId tenant, const AffectedQuery& query) {
  // Phase (a): a reconstruction query exposing the row id plus the
  // projected columns, filtered by the (logical) WHERE clause. It joins
  // only the sources those columns map to.
  sql::SelectStmt outer;
  sql::TableRef ref;
  ref.subquery = BuildReconstruction(*query.mapping, query.columns, "_row");
  ref.alias = query.table;
  outer.from.push_back(std::move(ref));
  {
    sql::SelectItem item;
    item.expr = sql::MakeColumnRef(query.table, "_row");
    item.alias = "_row";
    outer.items.push_back(std::move(item));
  }
  for (const std::string& c : query.columns) {
    sql::SelectItem item;
    item.expr = sql::MakeColumnRef(query.table, c);
    item.alias = c;
    outer.items.push_back(std::move(item));
  }
  if (query.where != nullptr) outer.where = query.where->Clone();

  NotifySelect(tenant, outer);
  MTDB_ASSIGN_OR_RETURN(QueryResult result,
                        db_->QueryAst(outer, *query.params));
  std::vector<AffectedRow> out;
  out.reserve(result.rows.size());
  for (Row& r : result.rows) {
    AffectedRow a;
    a.row_id = r[0].is_null() ? -1 : r[0].AsInt64();
    a.values.assign(std::make_move_iterator(r.begin() + 1),
                    std::make_move_iterator(r.end()));
    out.push_back(std::move(a));
  }
  if (post_collect_hook_for_test_) post_collect_hook_for_test_();
  return out;
}

Status SchemaMapping::LockAffectedRows(TenantId tenant,
                                       const AffectedQuery& query,
                                       std::vector<AffectedRow>* affected,
                                       uint64_t collect_epoch) {
  lock::StatementLockContext* locks = lock::StatementLockContext::Current();
  if (locks == nullptr || !locks->enabled()) return Status::OK();
  const std::string key = IdentLower(query.table);
  // A NULL row column maps to row_id -1 (== lock::kTableRowId): such
  // rows have no lockable identity, so their presence degrades the set
  // to table granularity.
  auto has_null_row_ids = [](const std::vector<AffectedRow>& rows) {
    for (const AffectedRow& r : rows) {
      if (r.row_id < 0) return true;
    }
    return false;
  };
  // Freshness protocol: collect and acquire are not atomic, so a winner
  // can write, commit and RELEASE entirely inside the gap — this
  // statement's acquisitions then never block, yet the images its
  // Phase (b) is built from are stale (a silent lost update on the
  // winner's committed values). Every X release bumps the shard's
  // write epoch before any waiter is granted, so "epoch still equals
  // the pre-collect snapshot once the locks are held" proves no such
  // window existed; any movement (a superset of waited()) re-runs
  // Phase (a) under the locks now held.
  if (has_null_row_ids(*affected)) {
    // No lockable row ids: the honest lock granularity is the whole
    // (tenant, table). Still per tenant — co-located tenants in shared
    // physical tables never contend.
    locks->clear_waited();
    MTDB_RETURN_IF_ERROR(locks->LockTable(key, lock::LockMode::kX));
    if (locks->waited() || locks->TableWriteEpoch(key) != collect_epoch) {
      MTDB_ASSIGN_OR_RETURN(*affected, ReadAffected(tenant, query));
    }
    return Status::OK();
  }
  // Single-row fast path: the common OLTP write touches one row, so
  // take the table intent and the row lock in one combined shard visit
  // and skip the fixed-point bookkeeping (set, sort, dedup) entirely —
  // unless the epoch moved; only then can a winner have changed which
  // rows match or what they contain, forcing the re-collect below.
  if (affected->size() == 1) {
    locks->clear_waited();
    MTDB_RETURN_IF_ERROR(
        locks->LockRowWithIntent(key, affected->front().row_id));
    if (!locks->waited() && locks->TableWriteEpoch(key) == collect_epoch) {
      return Status::OK();
    }
    collect_epoch = locks->TableWriteEpoch(key);  // before the re-collect
    MTDB_ASSIGN_OR_RETURN(*affected, ReadAffected(tenant, query));
    // Fall through to the general loop; the locks taken above stay held
    // and re-acquiring them there is an idempotent probe.
  }
  MTDB_RETURN_IF_ERROR(locks->LockTable(key, lock::LockMode::kIntentX));
  std::set<int64_t> locked;
  // Bounded fixed-point loop: lock the affected rows in ascending row-id
  // order (deterministic order keeps same-statement deadlocks out);
  // whenever the epoch moved past the snapshot taken before the pass's
  // row set was collected, re-run Phase (a) and lock any newcomers too.
  for (int pass = 0; pass < 8; ++pass) {
    locks->clear_waited();
    std::vector<int64_t> todo;
    for (const AffectedRow& r : *affected) {
      if (locked.find(r.row_id) == locked.end()) todo.push_back(r.row_id);
    }
    std::sort(todo.begin(), todo.end());
    todo.erase(std::unique(todo.begin(), todo.end()), todo.end());
    for (int64_t row : todo) {
      MTDB_RETURN_IF_ERROR(locks->LockRow(key, row));
      locked.insert(row);
    }
    if (!locks->waited() && locks->TableWriteEpoch(key) == collect_epoch) {
      return Status::OK();
    }
    collect_epoch = locks->TableWriteEpoch(key);  // before the re-collect
    MTDB_ASSIGN_OR_RETURN(*affected, ReadAffected(tenant, query));
    if (has_null_row_ids(*affected)) break;
    bool all_locked = true;
    for (const AffectedRow& r : *affected) {
      if (locked.find(r.row_id) == locked.end()) all_locked = false;
    }
    // Every re-collected row already X-held: the images are current
    // (each row has been held since before the re-collect read it) and
    // stable, so the set is final — later committers serialize after us.
    if (all_locked) return Status::OK();
  }
  // Adversarial churn (or NULL row ids surfacing mid-chase): stop
  // chasing the row-level fixed point and escalate to the whole-table X
  // lock. Once granted, no other writer holds or can take any lock on
  // this (tenant, table) — prior winners released (bumping the epoch)
  // before our grant — so one final Phase (a) run is authoritative
  // rather than a pass stale. The escalation can deadlock against a
  // peer doing the same; the wait-for graph resolves that by aborting
  // the younger, which is acceptable on this pathological path.
  MTDB_RETURN_IF_ERROR(locks->LockTable(key, lock::LockMode::kX));
  MTDB_ASSIGN_OR_RETURN(*affected, ReadAffected(tenant, query));
  return Status::OK();
}

Result<int64_t> SchemaMapping::PassThrough(TenantId tenant,
                                           const TableMapping& mapping,
                                           sql::Statement phys,
                                           const AffectedQuery& query) {
  // The statement keeps its logical column names, so the source must too.
  for (const auto& [lname, target] : mapping.columns) {
    if (!IdentEquals(lname, target.physical_column)) {
      return Status::Internal("pass-through mapping renames column " + lname +
                              " to " + target.physical_column);
    }
  }
  const PhysicalSource& source = mapping.sources[0];
  sql::ParsedExprPtr pred = sql::AndTogether(
      PartitionPredicate(source),
      query.where == nullptr ? nullptr : Unqualified(*query.where));
  if (phys.kind == sql::StatementKind::kUpdate) {
    phys.update->table = source.physical_table;
    phys.update->where = std::move(pred);
  } else {
    phys.del->table = source.physical_table;
    phys.del->where = std::move(pred);
  }
  // No Phase (a) row set: the whole-table X serializes this tenant's
  // logical writers up front; the physical statement then runs after the
  // winner commits and sees its post-commit image by construction.
  MTDB_RETURN_IF_ERROR(LockWholeTable(query.table));
  return ApplyWrites(tenant, {PhysicalWrite::Dml(phys)}, *query.params);
}

Result<int64_t> SchemaMapping::GenericUpdate(TenantId tenant,
                                             const sql::UpdateStmt& stmt,
                                             const std::vector<Value>& params) {
  MTDB_ASSIGN_OR_RETURN(const TableMapping* mapping, Mapping(tenant, stmt.table));
  MTDB_ASSIGN_OR_RETURN(AffectedQuery query,
                        ResolveWrite(*mapping, stmt.table, stmt.where.get(),
                                     stmt.assignments, params));
  if (IsPassThrough(*mapping)) {
    sql::Statement phys;
    phys.kind = sql::StatementKind::kUpdate;
    phys.update = std::make_unique<sql::UpdateStmt>();
    for (const auto& [col, expr] : stmt.assignments) {
      phys.update->assignments.emplace_back(col, Unqualified(*expr));
    }
    return PassThrough(tenant, *mapping, std::move(phys), query);
  }
  // Each SET binds once, over Phase (a)'s projection, and evaluates per
  // affected row.
  std::vector<const sql::ParsedExpr*> parsed;
  for (const auto& [expr, target] : query.sets) parsed.push_back(expr);
  MTDB_ASSIGN_OR_RETURN(std::vector<ExprPtr> sets,
                        BindRowExprs(parsed, stmt.table, query.columns));
  MTDB_ASSIGN_OR_RETURN(std::vector<AffectedRow> affected,
                        CollectAffected(tenant, query));
  ExecContext ctx;
  ctx.params = params;
  // Per affected row, one physical UPDATE per touched chunk, with local
  // conditions on the meta-data columns and row only.
  std::vector<sql::Statement> stmts;
  for (const AffectedRow& row : affected) {
    // Group new values by source.
    std::map<size_t, std::vector<std::pair<std::string, Value>>> by_source;
    for (size_t i = 0; i < sets.size(); ++i) {
      const ColumnTarget& target = *query.sets[i].second;
      MTDB_ASSIGN_OR_RETURN(Value v, sets[i]->Eval(row.values, ctx));
      if (!v.is_null()) {
        MTDB_ASSIGN_OR_RETURN(v, v.CastTo(target.physical_type));
      }
      by_source[target.source].emplace_back(target.physical_column,
                                            std::move(v));
    }
    for (auto& [src, assigns] : by_source) {
      sql::Statement phys;
      phys.kind = sql::StatementKind::kUpdate;
      phys.update = std::make_unique<sql::UpdateStmt>();
      phys.update->table = mapping->sources[src].physical_table;
      for (auto& [col, val] : assigns) {
        phys.update->assignments.emplace_back(col, sql::MakeLiteral(val));
      }
      phys.update->where =
          RowLocalPredicate(mapping->sources[src], row.row_id);
      stmts.push_back(std::move(phys));
    }
  }
  MTDB_RETURN_IF_ERROR(ApplyWrites(tenant, DmlWrites(stmts)).status());
  return static_cast<int64_t>(affected.size());
}

Result<int64_t> SchemaMapping::GenericDelete(TenantId tenant,
                                             const sql::DeleteStmt& stmt,
                                             const std::vector<Value>& params) {
  MTDB_ASSIGN_OR_RETURN(const TableMapping* mapping, Mapping(tenant, stmt.table));
  MTDB_ASSIGN_OR_RETURN(
      AffectedQuery query,
      ResolveWrite(*mapping, stmt.table, stmt.where.get(), {}, params));
  if (IsPassThrough(*mapping)) {
    sql::Statement phys;
    phys.kind = sql::StatementKind::kDelete;
    phys.del = std::make_unique<sql::DeleteStmt>();
    return PassThrough(tenant, *mapping, std::move(phys), query);
  }
  MTDB_ASSIGN_OR_RETURN(std::vector<AffectedRow> affected,
                        CollectAffected(tenant, query));

  // Deletes must touch every chunk of the row (§6.3). With the trashcan
  // enabled they become updates that mark the rows invisible instead.
  std::vector<sql::Statement> stmts;
  auto add_removal = [&](const PhysicalSource& source,
                         sql::ParsedExprPtr where) {
    sql::Statement phys;
    if (trashcan_deletes_) {
      phys.kind = sql::StatementKind::kUpdate;
      phys.update = std::make_unique<sql::UpdateStmt>();
      phys.update->table = source.physical_table;
      phys.update->assignments.emplace_back("del",
                                            sql::MakeLiteral(Value::Int32(1)));
      phys.update->where = std::move(where);
    } else {
      phys.kind = sql::StatementKind::kDelete;
      phys.del = std::make_unique<sql::DeleteStmt>();
      phys.del->table = source.physical_table;
      phys.del->where = std::move(where);
    }
    stmts.push_back(std::move(phys));
  };
  std::vector<int64_t> rows;
  rows.reserve(affected.size());
  for (const AffectedRow& r : affected) rows.push_back(r.row_id);
  for (int64_t row : rows) {
    for (const PhysicalSource& source : mapping->sources) {
      add_removal(source, RowLocalPredicate(source, row));
    }
  }
  MTDB_RETURN_IF_ERROR(ApplyWrites(tenant, DmlWrites(stmts)).status());
  // The deleted rows' ids are never reused: their lock entries go when
  // released instead of filling the lock table's empty-entry cache.
  if (lock::StatementLockContext* locks = lock::StatementLockContext::Current()) {
    locks->ForgetDeletedRows(IdentLower(stmt.table), rows);
  }
  return static_cast<int64_t>(rows.size());
}

Result<int64_t> SchemaMapping::RestoreDeleted(TenantId tenant,
                                              const std::string& table) {
  if (!trashcan_deletes_) {
    return Status::InvalidArgument("layout does not use trashcan deletes");
  }
  return RunWrite(tenant, [&]() -> Result<int64_t> {
    // A restore rewrites every trashcan-deleted row of the table at
    // once — whole-table X is the honest granularity.
    MTDB_RETURN_IF_ERROR(LockWholeTable(table));
    MTDB_ASSIGN_OR_RETURN(const TableMapping* mapping, Mapping(tenant, table));
    std::vector<sql::Statement> stmts;
    for (const PhysicalSource& source : mapping->sources) {
      sql::Statement phys;
      phys.kind = sql::StatementKind::kUpdate;
      phys.update = std::make_unique<sql::UpdateStmt>();
      phys.update->table = source.physical_table;
      phys.update->assignments.emplace_back("del",
                                            sql::MakeLiteral(Value::Int32(0)));
      sql::ParsedExprPtr where;
      for (const auto& p : source.partition) {
        // Flip the visibility predicate: restore rows marked deleted.
        const Value& val =
            IdentEquals(p.first, "del") ? Value::Int32(1) : p.second;
        where = sql::AndTogether(
            std::move(where),
            sql::MakeBinary(sql::BinaryOp::kEq, sql::MakeColumnRef("", p.first),
                            sql::MakeLiteral(val)));
      }
      phys.update->where = std::move(where);
      stmts.push_back(std::move(phys));
    }
    return ApplyWrites(tenant, DmlWrites(stmts));
  });
}

}  // namespace mapping
}  // namespace mtdb
