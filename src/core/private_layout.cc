#include "core/private_layout.h"

#include <algorithm>
#include <cstdlib>

namespace mtdb {
namespace mapping {

std::string PrivateTableLayout::PhysicalName(TenantId tenant,
                                             const std::string& table) const {
  auto key = std::make_pair(tenant, IdentLower(table));
  auto it = versions_.find(key);
  int version = it == versions_.end() ? 0 : it->second;
  std::string name = IdentLower(table) + "_t" + std::to_string(tenant);
  if (version > 0) name += "_v" + std::to_string(version);
  return name;
}

Status PrivateTableLayout::CreateIndexes(TenantId tenant,
                                         const std::string& physical,
                                         const EffectiveTable& eff) {
  MTDB_RETURN_IF_ERROR(db_->CreateIndex(
      physical, "ux_" + physical + "_id", {eff.columns[0].name},
      /*unique=*/true));
  for (const LogicalColumn& c : eff.columns) {
    if (c.indexed) {
      MTDB_RETURN_IF_ERROR(db_->CreateIndex(
          physical, "ix_" + physical + "_" + IdentLower(c.name), {c.name},
          /*unique=*/false));
    }
  }
  (void)tenant;
  return Status::OK();
}

Status PrivateTableLayout::CreateTenantImpl(TenantId tenant) {
  MTDB_RETURN_IF_ERROR(SchemaMapping::CreateTenantImpl(tenant));
  for (const LogicalTable& t : app_->tables()) {
    MTDB_RETURN_IF_ERROR(MaterializeTable(tenant, t.name, ""));
  }
  return Status::OK();
}

Status PrivateTableLayout::DropTenantImpl(TenantId tenant) {
  MTDB_ASSIGN_OR_RETURN(TenantEntry * entry, GetTenant(tenant));
  (void)entry;
  for (const LogicalTable& t : app_->tables()) {
    MTDB_RETURN_IF_ERROR(db_->DropTable(PhysicalName(tenant, t.name)));
  }
  MTDB_RETURN_IF_ERROR(RecordTenantDropped(tenant));
  tenants_.erase(tenant);
  InvalidateMappings();
  return Status::OK();
}

Status PrivateTableLayout::MaterializeTable(TenantId tenant,
                                            const std::string& table,
                                            const std::string& old_name) {
  MTDB_ASSIGN_OR_RETURN(EffectiveTable eff, GetEffective(tenant, table));
  Schema schema;
  for (const LogicalColumn& c : eff.columns) {
    schema.AddColumn(Column{c.name, c.type, false});
  }
  std::string physical = PhysicalName(tenant, table);
  MTDB_RETURN_IF_ERROR(db_->CreateTable(physical, std::move(schema)));
  stats_.ddl_statements++;
  MTDB_RETURN_IF_ERROR(CreateIndexes(tenant, physical, eff));
  if (!old_name.empty()) {
    // Migrate existing rows, padding new columns with NULLs.
    MTDB_ASSIGN_OR_RETURN(QueryResult old_rows,
                          db_->Query("SELECT * FROM " + old_name));
    for (Row& r : old_rows.rows) {
      Row padded = r;
      padded.resize(eff.columns.size(), Value());
      MTDB_RETURN_IF_ERROR(db_->InsertRow(physical, padded));
    }
    MTDB_RETURN_IF_ERROR(db_->DropTable(old_name));
    stats_.ddl_statements++;
  }
  return Status::OK();
}

Status PrivateTableLayout::EnableExtensionImpl(TenantId tenant,
                                               const std::string& ext) {
  MTDB_ASSIGN_OR_RETURN(TenantEntry * entry, GetTenant(tenant));
  const ExtensionDef* def = app_->FindExtension(ext);
  if (def == nullptr) return Status::NotFound("no such extension: " + ext);
  if (entry->state.HasExtension(ext)) return Status::OK();

  std::string old_name = PhysicalName(tenant, def->base_table);
  entry->state.EnableExtension(ext);
  versions_[{tenant, IdentLower(def->base_table)}]++;
  // The engine cannot ALTER on-line; the private layout must rebuild the
  // tenant's table — the extensibility cost §3 attributes to this layout.
  MTDB_RETURN_IF_ERROR(MaterializeTable(tenant, def->base_table, old_name));
  InvalidateMappings();
  return RecordExtensionEnabled(
      tenant, ext,
      static_cast<int64_t>(entry->state.extensions().size()) - 1);
}

Status PrivateTableLayout::RecoverDerivedState() {
  // The version counters are encoded in the recovered physical names:
  // `<table>_t<tenant>` for version 0, `<table>_t<tenant>_v<k>` after k
  // rebuilds. A tenant suffix is never a prefix of another tenant's
  // (`_v` follows immediately), so the scan cannot cross tenants.
  versions_.clear();
  const std::vector<std::string> names = db_->catalog()->TableNames();
  for (const auto& [tenant, entry] : tenants_) {
    (void)entry;
    for (const LogicalTable& t : app_->tables()) {
      const std::string lower = IdentLower(t.name);
      const std::string vprefix =
          lower + "_t" + std::to_string(tenant) + "_v";
      int max_version = 0;
      for (const std::string& name : names) {
        if (name.rfind(vprefix, 0) == 0) {
          max_version = std::max(max_version,
                                 std::atoi(name.c_str() + vprefix.size()));
        }
      }
      if (max_version > 0) versions_[{tenant, lower}] = max_version;
    }
  }
  return Status::OK();
}

Result<std::unique_ptr<TableMapping>> PrivateTableLayout::BuildMapping(
    TenantId tenant, const std::string& table) {
  MTDB_ASSIGN_OR_RETURN(EffectiveTable eff, GetEffective(tenant, table));
  auto mapping = std::make_unique<TableMapping>();
  PhysicalSource source;
  source.physical_table = PhysicalName(tenant, table);
  source.row_column.clear();
  mapping->sources.push_back(std::move(source));
  for (const LogicalColumn& c : eff.columns) {
    ColumnTarget target;
    target.source = 0;
    target.physical_column = c.name;
    target.physical_type = c.type;
    target.logical_type = c.type;
    mapping->columns[IdentLower(c.name)] = target;
    mapping->column_order.push_back(c.name);
  }
  return mapping;
}

}  // namespace mapping
}  // namespace mtdb
