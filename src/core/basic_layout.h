#ifndef MTDB_CORE_BASIC_LAYOUT_H_
#define MTDB_CORE_BASIC_LAYOUT_H_

#include <memory>
#include <string>

#include "core/layout.h"

namespace mtdb {
namespace mapping {

/// §3 "Basic Layout": add a Tenant column to each base table and share
/// the tables among all tenants. Best consolidation, no extensibility —
/// EnableExtension fails by design.
class BasicLayout final : public SchemaMapping {
 public:
  BasicLayout(Database* db, const AppSchema* app) : SchemaMapping(db, app) {}

  std::string name() const override { return "basic"; }

  Status Bootstrap() override;

 protected:
  Status EnableExtensionImpl(TenantId tenant, const std::string& ext) override;
  Result<std::unique_ptr<TableMapping>> BuildMapping(
      TenantId tenant, const std::string& table) override;
};

}  // namespace mapping
}  // namespace mtdb

#endif  // MTDB_CORE_BASIC_LAYOUT_H_
