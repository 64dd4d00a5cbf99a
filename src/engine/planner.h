#ifndef MTDB_ENGINE_PLANNER_H_
#define MTDB_ENGINE_PLANNER_H_

#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "exec/executor.h"
#include "sql/ast.h"

namespace mtdb {

/// Optimizer sophistication, modeling the §6.2 Test 1 contrast:
///  * kAdvanced (DB2-like): unnests conjunctive derived tables
///    (Fegaras & Maier rule N8), considers all conjuncts for index
///    selection, and greedily orders joins by estimated selectivity. One
///    rule ranks access paths, for the driving table and its index alike:
///    a fully matched unique index, then any fully matched index, then
///    the longest matched prefix.
///  * kNaive (MySQL-like): derived tables are fully materialized before
///    any outer predicate applies, joins run in the written FROM order,
///    and index selection on a table considers only the first indexable
///    conjunct in written order — so the SQL author's predicate order
///    matters, as the paper measured (a factor of 5).
enum class PlannerMode { kNaive, kAdvanced };

/// A compiled query: the executor tree plus a human-readable plan
/// rendering (the "debug/explain facility" used in Test 1/2).
struct PlannedQuery {
  ExecutorPtr exec;
  std::string plan_text;
};

/// Compiles a bound-free SELECT AST against the catalog.
Result<PlannedQuery> PlanSelect(const sql::SelectStmt& stmt, Catalog* catalog,
                                PlannerMode mode);

/// Binds a write's SET or VALUES expressions over one row laid out as
/// `columns`: a column reference, bare or qualified by `table`, reads that
/// position. The bound trees are exec's Expr, the evaluator a SELECT uses,
/// so a write computes what the same expression selects. Bind once per
/// statement and Eval per row; a VALUES row binds against no columns.
Result<std::vector<ExprPtr>> BindRowExprs(
    const std::vector<const sql::ParsedExpr*>& exprs, const std::string& table,
    std::vector<std::string> columns);

}  // namespace mtdb

#endif  // MTDB_ENGINE_PLANNER_H_
