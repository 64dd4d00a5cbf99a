#ifndef MTDB_CORE_PRIVATE_LAYOUT_H_
#define MTDB_CORE_PRIVATE_LAYOUT_H_

#include <memory>
#include <string>

#include "core/layout.h"

namespace mtdb {
namespace mapping {

/// Figure 4(a) "Private Table Layout": every tenant gets private
/// physical tables; the query-transformation layer only renames tables.
/// Full extensibility, moderate consolidation — the number of physical
/// tables (and thus the meta-data charge) grows with the tenant count,
/// which is exactly what §5 measures.
class PrivateTableLayout final : public SchemaMapping {
 public:
  PrivateTableLayout(Database* db, const AppSchema* app)
      : SchemaMapping(db, app) {}

  std::string name() const override { return "private"; }

  Status Bootstrap() override { return Status::OK(); }

  /// Physical table name for (tenant, logical table) under the tenant's
  /// current extension set.
  std::string PhysicalName(TenantId tenant, const std::string& table) const;

 protected:
  Status CreateTenantImpl(TenantId tenant) override;
  Status DropTenantImpl(TenantId tenant) override;
  Status EnableExtensionImpl(TenantId tenant, const std::string& ext) override;
  Status RecoverDerivedState() override;
  Result<std::unique_ptr<TableMapping>> BuildMapping(
      TenantId tenant, const std::string& table) override;

 private:
  /// (Re)creates the tenant's physical table for `table` using the
  /// tenant's current effective schema, migrating existing rows.
  Status MaterializeTable(TenantId tenant, const std::string& table,
                          const std::string& old_name);
  Status CreateIndexes(TenantId tenant, const std::string& physical,
                       const EffectiveTable& eff);

  /// Version counter per (tenant, table) so ALTER-style migrations get
  /// fresh physical names (the engine has no in-place ALTER TABLE).
  std::map<std::pair<TenantId, std::string>, int> versions_;
};

}  // namespace mapping
}  // namespace mtdb

#endif  // MTDB_CORE_PRIVATE_LAYOUT_H_
