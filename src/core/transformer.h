#ifndef MTDB_CORE_TRANSFORMER_H_
#define MTDB_CORE_TRANSFORMER_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/heat.h"
#include "core/table_mapping.h"
#include "sql/ast.h"

namespace mtdb {
namespace mapping {

/// Shape of the SQL the transformer emits.
///  * kNested: the §6.1 compilation scheme verbatim — every logical table
///    reference becomes a derived-table subquery that reconstructs the
///    referenced columns with aligning joins. Correct for optimizers
///    that can unnest (DB2); disastrous for those that cannot (MySQL).
///  * kFlattened: the paper's workaround for less-sophisticated
///    optimizers — the reconstruction joins are inlined into the outer
///    FROM/WHERE ("we must directly generate the flattened queries").
enum class EmitMode { kNested, kFlattened };

/// Conjunct ordering for flattened queries (the Test 1 sensitivity: on
/// MySQL, meta-data-first ordering was 5x slower than an ordering that
/// mimics DB2's plan, which leads with the selective user predicates).
enum class PredicateOrder { kMetadataFirst, kSelectiveFirst };

struct TransformOptions {
  EmitMode emit_mode = EmitMode::kNested;
  PredicateOrder predicate_order = PredicateOrder::kSelectiveFirst;
};

/// Supplies per-(tenant, table) physical mappings and effective logical
/// schemas; implemented by each layout.
class MappingResolver {
 public:
  virtual ~MappingResolver() = default;

  /// The logical columns of `table` as `tenant` sees it, in order, with
  /// types. Fails when the table does not exist for the tenant.
  virtual Result<std::vector<std::pair<std::string, TypeId>>> LogicalColumns(
      TenantId tenant, const std::string& table) = 0;

  /// The physical mapping of (tenant, table).
  virtual Result<const TableMapping*> Mapping(TenantId tenant,
                                              const std::string& table) = 0;
};

/// The §6.1 query-transformation compiler. Given a logical SELECT
/// (written against one tenant's logical schema), produces the physical
/// SELECT over the layout's multi-tenant tables:
///
///   1. collect all table names and the columns used from each,
///   2. look up the Chunk Tables / meta-data identifiers per table,
///   3. generate per-table reconstruction queries (filter meta-data
///      columns, align chunks on Row),
///   4. patch each reconstruction into the logical query.
///
/// SELECT * is expanded against the tenant's logical schema first, so
/// generic-structure columns never leak to the application.
class QueryTransformer {
 public:
  /// `heat` (optional) records which logical columns queries touch, for
  /// the Chunk Folding tuning advisor.
  QueryTransformer(MappingResolver* resolver, TransformOptions options,
                   HeatProfile* heat = nullptr)
      : resolver_(resolver), options_(options), heat_(heat) {}

  /// Transforms a logical SELECT into a physical SELECT.
  Result<std::unique_ptr<sql::SelectStmt>> TransformSelect(
      TenantId tenant, const sql::SelectStmt& stmt);

 private:
  struct LogicalBinding {
    std::string binding;   // alias or table name as written
    std::string table;     // logical table name
    std::vector<std::pair<std::string, TypeId>> columns;
    const TableMapping* mapping;
    std::vector<bool> used;  // referenced columns
  };

  Result<std::vector<LogicalBinding>> BindFrom(TenantId tenant,
                                               const sql::SelectStmt& stmt);
  Status MarkUses(const sql::ParsedExpr& e,
                  std::vector<LogicalBinding>* bindings);
  Result<std::unique_ptr<sql::SelectStmt>> EmitNested(
      TenantId tenant, const sql::SelectStmt& stmt,
      std::vector<LogicalBinding>& bindings);
  Result<std::unique_ptr<sql::SelectStmt>> EmitFlattened(
      TenantId tenant, const sql::SelectStmt& stmt,
      std::vector<LogicalBinding>& bindings);

  MappingResolver* resolver_;
  TransformOptions options_;
  HeatProfile* heat_;
  int fresh_alias_ = 0;
};

/// Builds the §6.1-style reconstruction subquery for one logical table:
/// SELECT <row>, <logical cols (cast as needed)> FROM <chunk sources>
/// WHERE <partition predicates> AND <aligning joins on row>.
/// Only the sources providing one of `columns` participate (source 0
/// when none does), so a narrow projection joins fewer chunks.
std::unique_ptr<sql::SelectStmt> BuildReconstruction(
    const TableMapping& mapping, const std::vector<std::string>& columns,
    const std::string& row_alias);

}  // namespace mapping
}  // namespace mtdb

#endif  // MTDB_CORE_TRANSFORMER_H_
