#include "analysis/verifier.h"

#include <memory>
#include <string>
#include <utility>

#include "analysis/isolation_linter.h"
#include "analysis/layout_auditor.h"
#include "core/transformer.h"
#include "sql/ast_util.h"

namespace mtdb {
namespace analysis {

namespace {

using mapping::EmitMode;
using mapping::SchemaMapping;
using mapping::TableMapping;

const char* EmitModeName(EmitMode mode) {
  return mode == EmitMode::kNested ? "nested" : "flattened";
}

std::string Loc(TenantId tenant, const std::string& table,
                const std::string& detail) {
  return "tenant " + std::to_string(tenant) + ", table " + table + ", " +
         detail;
}

void ReportProbeFailure(std::vector<Diagnostic>* out, TenantId tenant,
                        const std::string& table, const std::string& what,
                        const Status& status) {
  out->push_back(Diagnostic{Severity::kError, kRuleProbeFailed,
                            Loc(tenant, table, what),
                            what + " failed: " + status.ToString()});
}

/// A value of `type` that is vanishingly unlikely to collide with real
/// data, used to key the verifier's sentinel probe rows.
Value SentinelFor(TypeId type) {
  switch (type) {
    case TypeId::kBool:
      return Value::Bool(true);
    case TypeId::kInt32:
      return Value::Int32(987654321);
    case TypeId::kInt64:
      return Value::Int64(987654321987);
    case TypeId::kDouble:
      return Value::Double(987654321.5);
    case TypeId::kDate:
      return Value::Date(29000);
    case TypeId::kString:
      return Value::String("zz_mtdb_probe");
    case TypeId::kNull:
      break;
  }
  return Value();
}

/// Records every physical statement the layout emits (deep copies).
class Recorder : public mapping::PhysicalStatementObserver {
 public:
  void OnSelect(TenantId tenant, const sql::SelectStmt& stmt) override {
    selects_.emplace_back(tenant, stmt.Clone());
  }
  void OnStatement(TenantId tenant, const sql::Statement& stmt) override {
    statements_.emplace_back(tenant, sql::CloneStatement(stmt));
  }

  void Clear() {
    selects_.clear();
    statements_.clear();
  }

  const std::vector<std::pair<TenantId, std::unique_ptr<sql::SelectStmt>>>&
  selects() const {
    return selects_;
  }
  const std::vector<std::pair<TenantId, sql::Statement>>& statements() const {
    return statements_;
  }

 private:
  std::vector<std::pair<TenantId, std::unique_ptr<sql::SelectStmt>>> selects_;
  std::vector<std::pair<TenantId, sql::Statement>> statements_;
};

/// Clears the observer however the probe pass exits.
class ProbeScope {
 public:
  ProbeScope(SchemaMapping* layout, Recorder* recorder) : layout_(layout) {
    layout_->set_statement_observer(recorder);
  }
  ~ProbeScope() { layout_->set_statement_observer(nullptr); }

 private:
  SchemaMapping* layout_;
};

}  // namespace

Result<std::vector<Diagnostic>> Verifier::Run(const VerifyOptions& options) {
  std::vector<Diagnostic> out;
  if (options.audit_layout) {
    MTDB_ASSIGN_OR_RETURN(std::vector<Diagnostic> audit,
                          AuditLayout(layout_));
    for (Diagnostic& d : audit) out.push_back(std::move(d));
  }
  if (options.lint_queries) LintQueries(&out);
  if (options.probe_dml) ProbeDml(&out);
  return out;
}

void Verifier::LintQueries(std::vector<Diagnostic>* out) {
  const Catalog* catalog = layout_->db()->catalog();
  for (TenantId tenant : layout_->TenantIds()) {
    for (const mapping::LogicalTable& table : layout_->app()->tables()) {
      auto mapping = layout_->Mapping(tenant, table.name);
      if (!mapping.ok()) {
        ReportProbeFailure(out, tenant, table.name, "Mapping",
                          mapping.status());
        continue;
      }
      for (EmitMode mode : {EmitMode::kNested, EmitMode::kFlattened}) {
        mapping::TransformOptions topt;
        topt.emit_mode = mode;
        mapping::QueryTransformer transformer(layout_, topt);

        // SELECT * touches every logical column, so every chunk of the
        // mapping participates in the reconstruction — the widest net
        // for both the tenant-conjunct and the alignment rules.
        sql::SelectStmt logical;
        logical.select_star = true;
        sql::TableRef ref;
        ref.table_name = table.name;
        logical.from.push_back(std::move(ref));

        auto physical = transformer.TransformSelect(tenant, logical);
        if (!physical.ok()) {
          ReportProbeFailure(out, tenant, table.name,
                            std::string("TransformSelect (") +
                                EmitModeName(mode) + ")",
                            physical.status());
          continue;
        }
        LintContext ctx;
        ctx.tenant = tenant;
        ctx.catalog = catalog;
        ctx.mapping = *mapping;
        LintPhysicalSelect(ctx, **physical, out);
      }
    }

    // A cross-table join probe: both referenced tables must be tenant-
    // confined within one statement (no mapping context — self-join-free
    // alignment only holds per table).
    const auto& tables = layout_->app()->tables();
    if (tables.size() < 2) continue;
    for (EmitMode mode : {EmitMode::kNested, EmitMode::kFlattened}) {
      mapping::TransformOptions topt;
      topt.emit_mode = mode;
      mapping::QueryTransformer transformer(layout_, topt);

      sql::SelectStmt logical;
      auto cols_a = layout_->LogicalColumns(tenant, tables[0].name);
      auto cols_b = layout_->LogicalColumns(tenant, tables[1].name);
      if (!cols_a.ok() || !cols_b.ok()) break;
      sql::SelectItem item_a;
      item_a.expr = sql::MakeColumnRef("a", (*cols_a)[0].first);
      logical.items.push_back(std::move(item_a));
      sql::SelectItem item_b;
      item_b.expr = sql::MakeColumnRef("b", (*cols_b)[0].first);
      logical.items.push_back(std::move(item_b));
      sql::TableRef ref_a;
      ref_a.table_name = tables[0].name;
      ref_a.alias = "a";
      sql::TableRef ref_b;
      ref_b.table_name = tables[1].name;
      ref_b.alias = "b";
      logical.from.push_back(std::move(ref_a));
      logical.from.push_back(std::move(ref_b));

      auto physical = transformer.TransformSelect(tenant, logical);
      if (!physical.ok()) {
        ReportProbeFailure(out, tenant, tables[0].name + "+" + tables[1].name,
                          std::string("join TransformSelect (") +
                              EmitModeName(mode) + ")",
                          physical.status());
        continue;
      }
      LintContext ctx;
      ctx.tenant = tenant;
      ctx.catalog = catalog;
      LintPhysicalSelect(ctx, **physical, out);
    }
  }
}

void Verifier::ProbeDml(std::vector<Diagnostic>* out) {
  const Catalog* catalog = layout_->db()->catalog();
  Recorder recorder;
  ProbeScope scope(layout_, &recorder);

  for (TenantId tenant : layout_->TenantIds()) {
    for (const mapping::LogicalTable& table : layout_->app()->tables()) {
      auto columns = layout_->LogicalColumns(tenant, table.name);
      if (!columns.ok()) {
        ReportProbeFailure(out, tenant, table.name, "LogicalColumns",
                          columns.status());
        continue;
      }
      if (columns->empty()) continue;
      auto mapping = layout_->Mapping(tenant, table.name);
      const TableMapping* table_mapping =
          mapping.ok() ? *mapping : nullptr;

      const std::string& key_col = (*columns)[0].first;
      Value sentinel = SentinelFor((*columns)[0].second);
      if (sentinel.is_null()) continue;  // untyped key — nothing to probe
      Row probe_row;
      probe_row.reserve(columns->size());
      for (const auto& [name, type] : *columns) {
        (void)name;
        probe_row.push_back(SentinelFor(type));
      }

      const std::string set_col =
          columns->size() > 1 ? (*columns)[1].first : key_col;
      const Value set_val =
          columns->size() > 1 ? SentinelFor((*columns)[1].second) : sentinel;
      const std::string update_sql = "UPDATE " + table.name + " SET " +
                                     set_col + " = ? WHERE " + key_col +
                                     " = ?";
      const std::string delete_sql =
          "DELETE FROM " + table.name + " WHERE " + key_col + " = ?";

      auto inserted = layout_->InsertRow(tenant, table.name, probe_row);
      if (!inserted.ok()) {
        ReportProbeFailure(out, tenant, table.name, "probe InsertRow",
                           inserted.status());
        continue;
      }
      recorder.Clear();  // the insert itself routes by value — no lint

      auto updated = layout_->Execute(tenant, update_sql, {set_val, sentinel});
      if (!updated.ok()) {
        ReportProbeFailure(out, tenant, table.name, "probe UPDATE",
                           updated.status());
      }
      auto deleted = layout_->Execute(tenant, delete_sql, {sentinel});
      if (!deleted.ok()) {
        ReportProbeFailure(out, tenant, table.name, "probe DELETE",
                           deleted.status());
      }

      for (const auto& [t, select] : recorder.selects()) {
        LintContext ctx;
        ctx.tenant = t;
        ctx.catalog = catalog;
        ctx.mapping = table_mapping;
        LintPhysicalSelect(ctx, *select, out);
      }
      for (const auto& [t, stmt] : recorder.statements()) {
        LintContext ctx;
        ctx.tenant = t;
        ctx.catalog = catalog;
        LintPhysicalStatement(ctx, stmt, out);
      }
    }
  }
}

}  // namespace analysis
}  // namespace mtdb
