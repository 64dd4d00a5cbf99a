#include "core/basic_layout.h"

namespace mtdb {
namespace mapping {

Status BasicLayout::Bootstrap() {
  for (const LogicalTable& t : app_->tables()) {
    Schema schema;
    schema.AddColumn(Column{"tenant", TypeId::kInt32, true});
    for (const LogicalColumn& c : t.columns) {
      schema.AddColumn(Column{c.name, c.type, false});
    }
    MTDB_RETURN_IF_ERROR(db_->CreateTable(t.name, std::move(schema)));
    // Unique compound index on (tenant, entity id): first logical column
    // is the entity id by convention (cf. §4.1's CRM schema).
    MTDB_RETURN_IF_ERROR(db_->CreateIndex(
        t.name, "ux_" + IdentLower(t.name) + "_tenant_id",
        {"tenant", t.columns[0].name}, /*unique=*/true));
    for (const LogicalColumn& c : t.columns) {
      if (c.indexed) {
        MTDB_RETURN_IF_ERROR(db_->CreateIndex(
            t.name, "ix_" + IdentLower(t.name) + "_" + IdentLower(c.name),
            {"tenant", c.name}, /*unique=*/false));
      }
    }
  }
  return Status::OK();
}

Status BasicLayout::EnableExtensionImpl(TenantId, const std::string& ext) {
  return Status::NotImplemented(
      "the Basic Layout shares tables among tenants and cannot represent "
      "extension " +
      ext + " (see §3: 'very good consolidation but no extensibility')");
}

Result<std::unique_ptr<TableMapping>> BasicLayout::BuildMapping(
    TenantId tenant, const std::string& table) {
  MTDB_ASSIGN_OR_RETURN(EffectiveTable eff, GetEffective(tenant, table));
  auto mapping = std::make_unique<TableMapping>();
  PhysicalSource source;
  source.physical_table = eff.name;
  source.partition.emplace_back("tenant", Value::Int32(tenant));
  source.row_column.clear();  // rows are addressed by entity columns
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
