#include "engine/planner.h"

#include <algorithm>
#include <sstream>
#include <unordered_set>

#include "sql/printer.h"

namespace mtdb {

namespace {

using sql::BinaryOp;
using sql::ParsedExpr;
using sql::ParsedExprPtr;
using sql::PExprKind;
using sql::SelectStmt;
using sql::TableRef;

// ------------------------------------------------------------------ scope

/// Resolves qualified/unqualified column references against the
/// concatenated output of the tables planned so far.
class Scope {
 public:
  struct Binding {
    std::string name;  // lower-cased binding name
    OutputSchema schema;
  };

  void Add(const std::string& binding, OutputSchema schema) {
    bindings_.push_back(Binding{IdentLower(binding), std::move(schema)});
  }

  size_t total_width() const {
    size_t w = 0;
    for (const auto& b : bindings_) w += b.schema.size();
    return w;
  }

  /// Returns (offset, type) of `table`.`column`; table may be empty.
  Result<std::pair<size_t, TypeId>> Resolve(const std::string& table,
                                            const std::string& column) const {
    size_t offset = 0;
    std::string tlower = IdentLower(table);
    std::optional<std::pair<size_t, TypeId>> found;
    for (const auto& b : bindings_) {
      if (tlower.empty() || b.name == tlower) {
        for (size_t i = 0; i < b.schema.size(); ++i) {
          if (IdentEquals(b.schema.names[i], column)) {
            if (found.has_value()) {
              return Status::InvalidArgument("ambiguous column: " + column);
            }
            found = std::make_pair(offset + i, b.schema.types[i]);
          }
        }
      }
      offset += b.schema.size();
    }
    if (!found.has_value()) {
      return Status::NotFound("column not found: " +
                              (table.empty() ? column : table + "." + column));
    }
    return *found;
  }

  bool HasBinding(const std::string& name) const {
    std::string lower = IdentLower(name);
    for (const auto& b : bindings_) {
      if (b.name == lower) return true;
    }
    return false;
  }

  const std::vector<Binding>& raw() const { return bindings_; }

  OutputSchema Concatenated() const {
    OutputSchema out;
    for (const auto& b : bindings_) {
      out.names.insert(out.names.end(), b.schema.names.begin(),
                       b.schema.names.end());
      out.types.insert(out.types.end(), b.schema.types.begin(),
                       b.schema.types.end());
    }
    return out;
  }

 private:
  std::vector<Binding> bindings_;
};

// ----------------------------------------------------------- expr binding

bool IsAggregateName(const std::string& name) {
  return name == "count" || name == "sum" || name == "avg" || name == "min" ||
         name == "max";
}

bool HasAggregate(const ParsedExpr& e) {
  if (e.kind == PExprKind::kFuncCall && IsAggregateName(e.func_name)) {
    return true;
  }
  if (e.left != nullptr && HasAggregate(*e.left)) return true;
  if (e.right != nullptr && HasAggregate(*e.right)) return true;
  for (const auto& a : e.args) {
    if (HasAggregate(*a)) return true;
  }
  return false;
}

/// Maps the transformation layer's cast pseudo-functions to target types.
std::optional<TypeId> CastTargetOf(const std::string& func_name) {
  if (func_name == "cast_int") return TypeId::kInt32;
  if (func_name == "cast_bigint") return TypeId::kInt64;
  if (func_name == "cast_double") return TypeId::kDouble;
  if (func_name == "cast_date") return TypeId::kDate;
  if (func_name == "cast_str") return TypeId::kString;
  if (func_name == "cast_bool") return TypeId::kBool;
  return std::nullopt;
}

CompareOp ToCompareOp(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
      return CompareOp::kEq;
    case BinaryOp::kNe:
      return CompareOp::kNe;
    case BinaryOp::kLt:
      return CompareOp::kLt;
    case BinaryOp::kLe:
      return CompareOp::kLe;
    case BinaryOp::kGt:
      return CompareOp::kGt;
    default:
      return CompareOp::kGe;
  }
}

/// Binds a parsed expression against `scope`. Aggregate calls are
/// rejected (they are planned separately by the aggregation step).
Result<ExprPtr> BindExpr(const ParsedExpr& e, const Scope& scope) {
  switch (e.kind) {
    case PExprKind::kLiteral:
      return ExprPtr(std::make_unique<LiteralExpr>(e.literal));
    case PExprKind::kParam:
      return ExprPtr(std::make_unique<ParamExpr>(e.param_ordinal));
    case PExprKind::kColumnRef: {
      MTDB_ASSIGN_OR_RETURN(auto loc, scope.Resolve(e.table, e.column));
      std::string display =
          e.table.empty() ? e.column : e.table + "." + e.column;
      return ExprPtr(std::make_unique<ColumnRefExpr>(loc.first, display));
    }
    case PExprKind::kUnary: {
      MTDB_ASSIGN_OR_RETURN(ExprPtr c, BindExpr(*e.left, scope));
      if (e.unary_op == sql::UnaryOp::kNot) {
        return ExprPtr(std::make_unique<NotExpr>(std::move(c)));
      }
      return ExprPtr(std::make_unique<ArithmeticExpr>(
          ArithOp::kSub, std::make_unique<LiteralExpr>(Value::Int64(0)),
          std::move(c)));
    }
    case PExprKind::kBinary: {
      MTDB_ASSIGN_OR_RETURN(ExprPtr l, BindExpr(*e.left, scope));
      MTDB_ASSIGN_OR_RETURN(ExprPtr r, BindExpr(*e.right, scope));
      switch (e.binary_op) {
        case BinaryOp::kAnd:
          return ExprPtr(std::make_unique<AndExpr>(std::move(l), std::move(r)));
        case BinaryOp::kOr:
          return ExprPtr(std::make_unique<OrExpr>(std::move(l), std::move(r)));
        case BinaryOp::kEq:
        case BinaryOp::kNe:
        case BinaryOp::kLt:
        case BinaryOp::kLe:
        case BinaryOp::kGt:
        case BinaryOp::kGe:
          return ExprPtr(std::make_unique<CompareExpr>(
              ToCompareOp(e.binary_op), std::move(l), std::move(r)));
        case BinaryOp::kAdd:
          return ExprPtr(std::make_unique<ArithmeticExpr>(
              ArithOp::kAdd, std::move(l), std::move(r)));
        case BinaryOp::kSub:
          return ExprPtr(std::make_unique<ArithmeticExpr>(
              ArithOp::kSub, std::move(l), std::move(r)));
        case BinaryOp::kMul:
          return ExprPtr(std::make_unique<ArithmeticExpr>(
              ArithOp::kMul, std::move(l), std::move(r)));
        case BinaryOp::kDiv:
          return ExprPtr(std::make_unique<ArithmeticExpr>(
              ArithOp::kDiv, std::move(l), std::move(r)));
        case BinaryOp::kMod:
          return ExprPtr(std::make_unique<ArithmeticExpr>(
              ArithOp::kMod, std::move(l), std::move(r)));
      }
      return Status::Internal("unknown binary op");
    }
    case PExprKind::kIsNull: {
      MTDB_ASSIGN_OR_RETURN(ExprPtr c, BindExpr(*e.left, scope));
      return ExprPtr(std::make_unique<IsNullExpr>(std::move(c),
                                                  e.is_null_negated));
    }
    case PExprKind::kLike: {
      MTDB_ASSIGN_OR_RETURN(ExprPtr v, BindExpr(*e.left, scope));
      MTDB_ASSIGN_OR_RETURN(ExprPtr pat, BindExpr(*e.right, scope));
      return ExprPtr(std::make_unique<LikeExpr>(std::move(v), std::move(pat),
                                                e.like_negated));
    }
    case PExprKind::kFuncCall: {
      std::optional<TypeId> cast = CastTargetOf(e.func_name);
      if (cast.has_value() && e.args.size() == 1) {
        MTDB_ASSIGN_OR_RETURN(ExprPtr c, BindExpr(*e.args[0], scope));
        return ExprPtr(std::make_unique<CastExpr>(std::move(c), *cast));
      }
      return Status::InvalidArgument("aggregate/function " + e.func_name +
                                     " not allowed here");
    }
    case PExprKind::kStar:
      return Status::InvalidArgument("* not allowed here");
  }
  return Status::Internal("unknown expression kind");
}

/// True if `e` references no columns at all (bindable before any table).
bool IsConstant(const ParsedExpr& e) {
  if (e.kind == PExprKind::kColumnRef) return false;
  if (e.kind == PExprKind::kFuncCall) return false;
  if (e.left != nullptr && !IsConstant(*e.left)) return false;
  if (e.right != nullptr && !IsConstant(*e.right)) return false;
  for (const auto& a : e.args) {
    if (!IsConstant(*a)) return false;
  }
  return true;
}

/// Collects the set of binding names an expression references
/// (lower-cased; "" for unqualified references).
void CollectTables(const ParsedExpr& e,
                   std::vector<std::pair<std::string, std::string>>* refs) {
  if (e.kind == PExprKind::kColumnRef) {
    refs->push_back({IdentLower(e.table), IdentLower(e.column)});
  }
  if (e.left != nullptr) CollectTables(*e.left, refs);
  if (e.right != nullptr) CollectTables(*e.right, refs);
  for (const auto& a : e.args) CollectTables(*a, refs);
}

/// True if every column ref in `e` resolves in `scope`.
bool FullyBound(const ParsedExpr& e, const Scope& scope) {
  std::vector<std::pair<std::string, std::string>> refs;
  CollectTables(e, &refs);
  for (const auto& [t, c] : refs) {
    if (!scope.Resolve(t, c).ok()) return false;
  }
  return true;
}

/// If the conjunct is `ref.col = <other>` (either side), where ref names
/// binding `binding` and col is a column of `schema`, returns the column
/// position and the other side.
std::optional<std::pair<size_t, const ParsedExpr*>> MatchColumnEquality(
    const ParsedExpr& conjunct, const std::string& binding,
    const OutputSchema& schema) {
  if (conjunct.kind != PExprKind::kBinary ||
      conjunct.binary_op != BinaryOp::kEq) {
    return std::nullopt;
  }
  auto side_matches = [&](const ParsedExpr& side) -> std::optional<size_t> {
    if (side.kind != PExprKind::kColumnRef) return std::nullopt;
    if (!side.table.empty() && !IdentEquals(side.table, binding)) {
      return std::nullopt;
    }
    for (size_t i = 0; i < schema.size(); ++i) {
      if (IdentEquals(schema.names[i], side.column)) return i;
    }
    return std::nullopt;
  };
  if (auto col = side_matches(*conjunct.left)) {
    return std::make_pair(*col, conjunct.right.get());
  }
  if (auto col = side_matches(*conjunct.right)) {
    // If both sides are columns of this binding, this is not a probe key.
    if (side_matches(*conjunct.left)) return std::nullopt;
    return std::make_pair(*col, conjunct.left.get());
  }
  return std::nullopt;
}

// ---------------------------------------------------- access-path ranking

/// Number of leading key columns of `idx` for which `has_eq(column)`
/// reports a constant equality.
template <typename HasEq>
size_t MatchedPrefix(const IndexInfo& idx, HasEq has_eq) {
  size_t matched = 0;
  while (matched < idx.key_columns.size() &&
         has_eq(idx.key_columns[matched])) {
    matched++;
  }
  return matched;
}

/// The kAdvanced access-path ranking, used both to choose the driving
/// table and to choose that table's index: a fully matched unique index
/// beats any fully matched index, which beats the longest matched
/// prefix. A partial prefix is not selectivity: under Chunk Folding the
/// meta-data columns (tenant, tbl, chunk) lead the chunk table's key and
/// select a tenant's whole chunk, while a fully matched (tenant, id)
/// index selects one row. 0 means "no usable prefix".
int RankAccessPath(const IndexInfo& idx, size_t matched) {
  if (matched == 0) return 0;
  int tier = 0;
  if (matched == idx.key_columns.size()) tier = idx.unique ? 2 : 1;
  return tier * 1000 + static_cast<int>(matched);
}

// ----------------------------------------------------------- flattening

/// Rewrites table qualifiers of every column ref per `rename` (old
/// binding name -> new binding name, lower-cased keys).
void RenameBindings(
    ParsedExpr* e,
    const std::unordered_map<std::string, std::string>& rename) {
  if (e->kind == PExprKind::kColumnRef && !e->table.empty()) {
    auto it = rename.find(IdentLower(e->table));
    if (it != rename.end()) e->table = it->second;
  }
  if (e->left != nullptr) RenameBindings(e->left.get(), rename);
  if (e->right != nullptr) RenameBindings(e->right.get(), rename);
  for (auto& a : e->args) RenameBindings(a.get(), rename);
}

/// Substitution of outer references to a flattened derived table:
/// (alias, item-name) -> replacement expression.
struct Substitution {
  std::string alias;  // lower
  std::unordered_map<std::string, ParsedExprPtr> items;  // name(lower)->expr
};

void ApplySubstitutions(ParsedExprPtr* e,
                        const std::vector<Substitution>& subs) {
  ParsedExpr* node = e->get();
  if (node->kind == PExprKind::kColumnRef) {
    std::string t = IdentLower(node->table);
    std::string c = IdentLower(node->column);
    for (const Substitution& s : subs) {
      if (!t.empty() && t != s.alias) continue;
      auto it = s.items.find(c);
      if (it != s.items.end()) {
        *e = it->second->Clone();
        return;
      }
      if (!t.empty()) return;  // qualified but no such item: leave for error
    }
    return;
  }
  if (node->left != nullptr) ApplySubstitutions(&node->left, subs);
  if (node->right != nullptr) ApplySubstitutions(&node->right, subs);
  for (auto& a : node->args) ApplySubstitutions(&a, subs);
}

bool IsFlattenable(const SelectStmt& sub) {
  if (sub.select_star) return false;
  if (sub.distinct) return false;
  if (!sub.group_by.empty() || sub.having != nullptr) return false;
  if (!sub.order_by.empty() || sub.limit >= 0) return false;
  for (const auto& item : sub.items) {
    if (HasAggregate(*item.expr)) return false;
  }
  return true;
}

/// Fegaras & Maier rule N8: inline conjunctive derived tables into the
/// outer FROM/WHERE. Runs to fixpoint (flattens nested derived tables).
void FlattenDerivedTables(SelectStmt* stmt) {
  if (stmt->select_star) return;  // would need item expansion
  bool changed = true;
  int unique = 0;
  while (changed) {
    changed = false;
    std::vector<TableRef> new_from;
    std::vector<Substitution> subs;
    std::vector<ParsedExprPtr> extra_conjuncts;
    for (TableRef& ref : stmt->from) {
      if (!ref.is_subquery() || !IsFlattenable(*ref.subquery)) {
        new_from.push_back(std::move(ref));
        continue;
      }
      changed = true;
      SelectStmt* sub = ref.subquery.get();
      // Rename the subquery's bindings to avoid collisions outside.
      std::unordered_map<std::string, std::string> rename;
      for (TableRef& inner : sub->from) {
        std::string old_name = inner.binding_name();
        std::string fresh = ref.alias + "$" + std::to_string(unique++);
        rename[IdentLower(old_name)] = fresh;
        inner.alias = fresh;
        new_from.push_back(std::move(inner));
      }
      if (sub->where != nullptr) {
        RenameBindings(sub->where.get(), rename);
        extra_conjuncts.push_back(std::move(sub->where));
      }
      Substitution s;
      s.alias = IdentLower(ref.alias);
      for (sql::SelectItem& item : sub->items) {
        RenameBindings(item.expr.get(), rename);
        std::string name = item.alias;
        if (name.empty() && item.expr->kind == PExprKind::kColumnRef) {
          name = item.expr->column;
        }
        if (!name.empty()) {
          s.items[IdentLower(name)] = item.expr->Clone();
        }
      }
      subs.push_back(std::move(s));
    }
    stmt->from = std::move(new_from);
    if (!subs.empty()) {
      for (sql::SelectItem& item : stmt->items) {
        ApplySubstitutions(&item.expr, subs);
      }
      if (stmt->where != nullptr) ApplySubstitutions(&stmt->where, subs);
      for (auto& g : stmt->group_by) ApplySubstitutions(&g, subs);
      if (stmt->having != nullptr) ApplySubstitutions(&stmt->having, subs);
      for (auto& o : stmt->order_by) ApplySubstitutions(&o.expr, subs);
    }
    for (auto& c : extra_conjuncts) {
      stmt->where = sql::AndTogether(std::move(stmt->where), std::move(c));
    }
  }
}

// ------------------------------------------------------------ the planner

struct Built {
  ExecutorPtr exec;
  std::string text;
  /// Output positions the stream is ordered on, ascending by key
  /// encoding (kAdvanced only; all hold equal values, joined on
  /// equality). Set by an unfiltered partition IndexScan and kept by the
  /// merge joins over it; empty otherwise.
  std::vector<size_t> ordered_on;
};

std::string Indent(const std::string& text) {
  std::string out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    out += "  " + line + "\n";
  }
  if (!out.empty()) out.pop_back();
  return out;
}

/// The merge-join rule, over an index join's `keys` matched key columns
/// of the new table's index. The join can merge when every key but the
/// last is a constant (at least one: they select a partition, scanned in
/// the order of the last key column) and the last key's other side,
/// `last`, is one of the columns `ordered_on` the current stream is
/// ordered on.
bool CanMergeJoin(const std::vector<size_t>& ordered_on, size_t keys,
                  size_t constants, const ParsedExpr& last,
                  const Scope& scope) {
  if (ordered_on.empty() || keys < 2 || constants != keys - 1 ||
      last.kind != PExprKind::kColumnRef) {
    return false;
  }
  auto loc = scope.Resolve(last.table, last.column);
  return loc.ok() && std::find(ordered_on.begin(), ordered_on.end(),
                               loc->first) != ordered_on.end();
}

class SelectPlanner {
 public:
  SelectPlanner(Catalog* catalog, PlannerMode mode)
      : catalog_(catalog), mode_(mode) {}

  Result<Built> Plan(const SelectStmt& stmt);

 private:
  struct PendingRef {
    const TableRef* ref;
    TableInfo* table = nullptr;  // null for derived tables
    bool planned = false;
  };

  Result<Built> PlanFromWhere(const SelectStmt& stmt, Scope* scope,
                              std::vector<ParsedExprPtr>* conjuncts);
  Result<Built> PlanBaseTableAccess(TableInfo* table,
                                    const std::string& binding,
                                    std::vector<ParsedExprPtr>* conjuncts,
                                    std::vector<bool>* used);
  Result<Built> PlanDerived(const TableRef& ref);
  /// Score for driving-table choice: the best RankAccessPath over the
  /// table's indexes against its constant equality conjuncts.
  int ScoreRef(const PendingRef& p,
               const std::vector<ParsedExprPtr>& conjuncts) const;

  Catalog* catalog_;
  PlannerMode mode_;
};

Result<Built> SelectPlanner::PlanDerived(const TableRef& ref) {
  SelectPlanner sub(catalog_, mode_);
  MTDB_ASSIGN_OR_RETURN(Built b, sub.Plan(*ref.subquery));
  // Derived tables are materialized: in kNaive mode this is the "generate
  // the full relation first" behaviour; in kAdvanced mode this path is
  // only reached for non-flattenable subqueries (aggregations), where
  // materialization is the standard strategy too.
  auto mat = std::make_unique<MaterializeExecutor>(std::move(b.exec));
  Built out;
  out.text = "Materialize (" + ref.alias + ")\n" + Indent(b.text);
  out.exec = std::move(mat);
  return out;
}

int SelectPlanner::ScoreRef(const PendingRef& p,
                            const std::vector<ParsedExprPtr>& conjuncts) const {
  if (p.table == nullptr) return 0;
  OutputSchema schema;
  for (const Column& c : p.table->schema.columns()) {
    schema.names.push_back(c.name);
    schema.types.push_back(c.type);
  }
  std::unordered_set<size_t> eq_cols;
  for (const ParsedExprPtr& c : conjuncts) {
    auto m = MatchColumnEquality(*c, p.ref->binding_name(), schema);
    if (m.has_value() && IsConstant(*m->second)) eq_cols.insert(m->first);
  }
  int best = 0;
  for (const auto& idx : p.table->indexes) {
    size_t matched = MatchedPrefix(
        *idx, [&](size_t col) { return eq_cols.count(col) > 0; });
    best = std::max(best, RankAccessPath(*idx, matched));
  }
  return best;
}

Result<Built> SelectPlanner::PlanBaseTableAccess(
    TableInfo* table, const std::string& binding,
    std::vector<ParsedExprPtr>* conjuncts, std::vector<bool>* used) {
  OutputSchema schema;
  for (const Column& c : table->schema.columns()) {
    schema.names.push_back(c.name);
    schema.types.push_back(c.type);
  }
  Scope local;
  local.Add(binding, schema);

  // Gather constant equality conjuncts on this table: column -> conjunct.
  struct EqMatch {
    size_t conjunct_index;
    const ParsedExpr* value;
  };
  std::unordered_map<size_t, EqMatch> eq_by_col;
  std::vector<size_t> eq_order;  // written order of matching conjuncts
  for (size_t i = 0; i < conjuncts->size(); ++i) {
    if ((*used)[i]) continue;
    auto m = MatchColumnEquality(*(*conjuncts)[i], binding, schema);
    if (m.has_value() && IsConstant(*m->second)) {
      if (eq_by_col.emplace(m->first, EqMatch{i, m->second}).second) {
        eq_order.push_back(m->first);
      }
    }
  }

  const IndexInfo* chosen = nullptr;
  size_t prefix_len = 0;
  if (mode_ == PlannerMode::kAdvanced) {
    int best_rank = 0;
    for (const auto& idx : table->indexes) {
      size_t matched = MatchedPrefix(
          *idx, [&](size_t col) { return eq_by_col.count(col) > 0; });
      int rank = RankAccessPath(*idx, matched);
      if (rank > best_rank) {
        best_rank = rank;
        prefix_len = matched;
        chosen = idx.get();
      }
    }
  } else {
    // Naive: the index is picked by the FIRST equality conjunct (in
    // written order) whose column leads some index — the MySQL-style
    // sensitivity to the SQL author's predicate order — but the probe
    // prefix is then extended greedily (ref access).
    for (size_t col : eq_order) {
      for (const auto& idx : table->indexes) {
        if (!idx->key_columns.empty() && idx->key_columns[0] == col) {
          chosen = idx.get();
          break;
        }
      }
      if (chosen != nullptr) break;
    }
    if (chosen != nullptr) {
      for (size_t k = 0; k < chosen->key_columns.size(); ++k) {
        if (eq_by_col.count(chosen->key_columns[k]) == 0) break;
        prefix_len++;
      }
    }
  }

  Built out;
  if (chosen != nullptr && prefix_len > 0) {
    std::vector<ExprPtr> prefix_values;
    std::string prefix_text;
    for (size_t k = 0; k < prefix_len; ++k) {
      const EqMatch& m = eq_by_col[chosen->key_columns[k]];
      (*used)[m.conjunct_index] = true;
      MTDB_ASSIGN_OR_RETURN(ExprPtr v, BindExpr(*m.value, Scope()));
      if (k > 0) prefix_text += ", ";
      prefix_text +=
          table->schema.at(chosen->key_columns[k]).name + "=" +
          sql::ToSql(*m.value);
      prefix_values.push_back(std::move(v));
    }
    out.exec = std::make_unique<IndexScanExecutor>(
        table, chosen, std::move(prefix_values), nullptr);
    out.text = "IndexScan " + table->name + " (" + binding + ") index=" +
               chosen->name + " prefix=[" + prefix_text + "]";
    // A partially matched prefix is a whole partition, read in the order
    // of the next key column (a fully matched one is a selective probe).
    if (mode_ == PlannerMode::kAdvanced &&
        prefix_len < chosen->key_columns.size()) {
      out.ordered_on.push_back(chosen->key_columns[prefix_len]);
    }
  } else {
    out.exec = std::make_unique<SeqScanExecutor>(table, nullptr);
    out.text = "SeqScan " + table->name + " (" + binding + ")";
  }

  // Remaining single-table conjuncts become a pushed-down filter.
  std::vector<ExprPtr> residual;
  std::string filter_text;
  for (size_t i = 0; i < conjuncts->size(); ++i) {
    if ((*used)[i]) continue;
    if (FullyBound(*(*conjuncts)[i], local)) {
      MTDB_ASSIGN_OR_RETURN(ExprPtr b, BindExpr(*(*conjuncts)[i], local));
      if (!filter_text.empty()) filter_text += " AND ";
      filter_text += sql::ToSql(*(*conjuncts)[i]);
      residual.push_back(std::move(b));
      (*used)[i] = true;
    }
  }
  if (!residual.empty()) {
    ExprPtr pred = JoinConjuncts(std::move(residual));
    std::string child_text = std::move(out.text);
    out.exec =
        std::make_unique<FilterExecutor>(std::move(out.exec), std::move(pred));
    out.text = "Filter [" + filter_text + "]\n" + Indent(child_text);
    out.ordered_on.clear();  // a filtered outer may be selective
  }
  return out;
}

Result<Built> SelectPlanner::PlanFromWhere(
    const SelectStmt& stmt, Scope* scope,
    std::vector<ParsedExprPtr>* conjuncts) {
  if (stmt.from.empty()) {
    return Status::InvalidArgument("FROM list must not be empty");
  }
  std::vector<PendingRef> pending;
  for (const TableRef& ref : stmt.from) {
    PendingRef p;
    p.ref = &ref;
    if (!ref.is_subquery()) {
      p.table = catalog_->GetTable(ref.table_name);
      if (p.table == nullptr) {
        return Status::NotFound("no such table: " + ref.table_name);
      }
    }
    pending.push_back(p);
  }
  std::vector<bool> used(conjuncts->size(), false);

  // Pick the driving table.
  size_t driver = 0;
  if (mode_ == PlannerMode::kAdvanced) {
    int best = -1;
    for (size_t i = 0; i < pending.size(); ++i) {
      int score = ScoreRef(pending[i], *conjuncts);
      if (score > best) {
        best = score;
        driver = i;
      }
    }
  }

  Built current;
  {
    PendingRef& p = pending[driver];
    if (p.table != nullptr) {
      MTDB_ASSIGN_OR_RETURN(
          current,
          PlanBaseTableAccess(p.table, p.ref->binding_name(), conjuncts, &used));
    } else {
      MTDB_ASSIGN_OR_RETURN(current, PlanDerived(*p.ref));
    }
    OutputSchema schema = current.exec->schema();
    scope->Add(p.ref->binding_name(), schema);
    p.planned = true;
  }

  size_t remaining = pending.size() - 1;
  while (remaining > 0) {
    // Choose the next table to join.
    size_t next = pending.size();
    const ParsedExpr* join_conjunct = nullptr;
    if (mode_ == PlannerMode::kNaive) {
      for (size_t i = 0; i < pending.size(); ++i) {
        if (!pending[i].planned) {
          next = i;
          break;
        }
      }
    } else {
      // Prefer a table connected by an equality conjunct to the current
      // scope; among those, prefer index-joinable base tables.
      int best_score = -1;
      for (size_t i = 0; i < pending.size(); ++i) {
        if (pending[i].planned) continue;
        int score = 0;
        if (pending[i].table != nullptr) {
          OutputSchema schema;
          for (const Column& c : pending[i].table->schema.columns()) {
            schema.names.push_back(c.name);
            schema.types.push_back(c.type);
          }
          for (size_t ci = 0; ci < conjuncts->size(); ++ci) {
            if (used[ci]) continue;
            auto m = MatchColumnEquality(*(*conjuncts)[ci],
                                         pending[i].ref->binding_name(), schema);
            if (!m.has_value()) continue;
            Scope probe = *scope;
            if (IsConstant(*m->second) || FullyBound(*m->second, probe)) {
              score = std::max(score, 10);
              for (const auto& idx : pending[i].table->indexes) {
                if (!idx->key_columns.empty() &&
                    idx->key_columns[0] == m->first) {
                  score = std::max(score, 20);
                }
              }
            }
          }
        }
        if (score > best_score) {
          best_score = score;
          next = i;
        }
      }
    }
    PendingRef& p = pending[next];
    const std::string binding = p.ref->binding_name();
    // Only a merge join keeps the stream's order.
    std::vector<size_t> ordered_on = std::move(current.ordered_on);
    current.ordered_on.clear();

    if (p.table != nullptr) {
      OutputSchema schema;
      for (const Column& c : p.table->schema.columns()) {
        schema.names.push_back(c.name);
        schema.types.push_back(c.type);
      }
      // Find an index-join path: an index of the new table whose prefix
      // columns all have equality conjuncts with left-bound/constant
      // other sides. Naive mode considers only the first such conjunct.
      const IndexInfo* join_index = nullptr;
      std::vector<ExprPtr> key_exprs;
      std::vector<size_t> key_conjuncts;
      // For the merge-join rule: how many leading keys are constants, and
      // the other side of the last key's conjunct.
      size_t key_constants = 0;
      const ParsedExpr* key_last = nullptr;
      std::string key_text;
      auto try_index = [&](const IndexInfo* idx) -> Result<bool> {
        std::vector<ExprPtr> keys;
        std::vector<size_t> consumed;
        size_t constants = 0;
        const ParsedExpr* last = nullptr;
        std::string text;
        for (size_t k = 0; k < idx->key_columns.size(); ++k) {
          bool found = false;
          for (size_t ci = 0; ci < conjuncts->size(); ++ci) {
            if (used[ci]) continue;
            auto m = MatchColumnEquality(*(*conjuncts)[ci], binding, schema);
            if (!m.has_value() || m->first != idx->key_columns[k]) continue;
            bool constant = IsConstant(*m->second);
            if (!constant && !FullyBound(*m->second, *scope)) continue;
            MTDB_ASSIGN_OR_RETURN(ExprPtr kv, BindExpr(*m->second, *scope));
            if (constant && constants == keys.size()) constants++;
            last = m->second;
            keys.push_back(std::move(kv));
            consumed.push_back(ci);
            if (!text.empty()) text += ", ";
            text += p.table->schema.at(idx->key_columns[k]).name + "=" +
                    sql::ToSql(*m->second);
            found = true;
            break;
          }
          if (!found) break;
        }
        if (keys.size() > key_exprs.size()) {
          join_index = idx;
          key_exprs = std::move(keys);
          key_conjuncts = std::move(consumed);
          key_constants = constants;
          key_last = last;
          key_text = std::move(text);
        }
        return true;
      };
      if (mode_ == PlannerMode::kAdvanced) {
        for (const auto& idx : p.table->indexes) {
          MTDB_ASSIGN_OR_RETURN(bool ok, try_index(idx.get()));
          (void)ok;
        }
      } else {
        // Naive: the index is dictated by the first (written order)
        // usable equality conjunct on this table; the probe prefix is
        // then extended along that index (MySQL-style ref access).
        const IndexInfo* dictated = nullptr;
        for (size_t ci = 0; ci < conjuncts->size() && dictated == nullptr;
             ++ci) {
          if (used[ci]) continue;
          auto m = MatchColumnEquality(*(*conjuncts)[ci], binding, schema);
          if (!m.has_value()) continue;
          if (!IsConstant(*m->second) && !FullyBound(*m->second, *scope)) {
            continue;
          }
          for (const auto& idx : p.table->indexes) {
            if (!idx->key_columns.empty() &&
                idx->key_columns[0] == m->first) {
              dictated = idx.get();
              break;
            }
          }
        }
        if (dictated != nullptr) {
          MTDB_ASSIGN_OR_RETURN(bool ok, try_index(dictated));
          (void)ok;
        }
      }

      if (join_index != nullptr && !key_exprs.empty()) {
        for (size_t ci : key_conjuncts) used[ci] = true;
        std::string child_text = std::move(current.text);
        const bool merge = CanMergeJoin(ordered_on, key_exprs.size(),
                                        key_constants, *key_last, *scope);
        if (merge) {
          // Both inputs are ordered on the join column: the constants
          // select the new table's partition, scanned in key order.
          size_t right_col = join_index->key_columns[key_exprs.size() - 1];
          ExprPtr left_key = std::move(key_exprs.back());
          key_exprs.pop_back();
          auto right = std::make_unique<IndexScanExecutor>(
              p.table, join_index, std::move(key_exprs), nullptr);
          current.exec = std::make_unique<MergeJoinExecutor>(
              std::move(current.exec), std::move(right), std::move(left_key),
              std::make_unique<ColumnRefExpr>(right_col,
                                              schema.names[right_col]));
          ordered_on.push_back(scope->total_width() + right_col);
          current.ordered_on = std::move(ordered_on);
        } else {
          current.exec = std::make_unique<IndexNestedLoopJoinExecutor>(
              std::move(current.exec), p.table, join_index,
              std::move(key_exprs), nullptr);
        }
        current.text = (merge ? "MergeJoin " : "IndexNLJoin ") +
                       p.table->name + " (" + binding + ") index=" +
                       join_index->name + " keys=[" + key_text + "]\n" +
                       Indent(child_text);
        scope->Add(binding, schema);
        (void)join_conjunct;
      } else {
        // Hash join when an equality conjunct exists, else NL cross join.
        ssize_t hash_ci = -1;
        const ParsedExpr* probe_side = nullptr;
        size_t build_col = 0;
        for (size_t ci = 0; ci < conjuncts->size(); ++ci) {
          if (used[ci]) continue;
          auto m = MatchColumnEquality(*(*conjuncts)[ci], binding, schema);
          if (m.has_value() && !IsConstant(*m->second) &&
              FullyBound(*m->second, *scope)) {
            hash_ci = static_cast<ssize_t>(ci);
            probe_side = m->second;
            build_col = m->first;
            break;
          }
        }
        MTDB_ASSIGN_OR_RETURN(
            Built right, PlanBaseTableAccess(p.table, binding, conjuncts, &used));
        if (hash_ci >= 0) {
          used[hash_ci] = true;
          std::vector<ExprPtr> lk, rk;
          MTDB_ASSIGN_OR_RETURN(ExprPtr l, BindExpr(*probe_side, *scope));
          lk.push_back(std::move(l));
          rk.push_back(std::make_unique<ColumnRefExpr>(
              build_col, schema.names[build_col]));
          std::string lt = std::move(current.text);
          std::string rt = std::move(right.text);
          current.exec = std::make_unique<HashJoinExecutor>(
              std::move(current.exec), std::move(right.exec), std::move(lk),
              std::move(rk), nullptr);
          current.text = "HashJoin on " + schema.names[build_col] + "\n" +
                         Indent(lt) + "\n" + Indent(rt);
        } else {
          std::string lt = std::move(current.text);
          std::string rt = std::move(right.text);
          auto mat = std::make_unique<MaterializeExecutor>(std::move(right.exec));
          current.exec = std::make_unique<NestedLoopJoinExecutor>(
              std::move(current.exec), std::move(mat), nullptr);
          current.text = "NLJoin\n" + Indent(lt) + "\n" + Indent(rt);
        }
        scope->Add(binding, schema);
      }
    } else {
      // Derived table: materialize and nested-loop join.
      MTDB_ASSIGN_OR_RETURN(Built right, PlanDerived(*p.ref));
      OutputSchema schema = right.exec->schema();
      std::string lt = std::move(current.text);
      std::string rt = std::move(right.text);
      current.exec = std::make_unique<NestedLoopJoinExecutor>(
          std::move(current.exec), std::move(right.exec), nullptr);
      current.text = "NLJoin\n" + Indent(lt) + "\n" + Indent(rt);
      scope->Add(binding, schema);
    }
    p.planned = true;
    remaining--;

    // Apply all now-bound conjuncts, preserving written order (this is
    // where kNaive keeps the author's predicate order).
    std::vector<ExprPtr> filters;
    std::string filter_text;
    for (size_t ci = 0; ci < conjuncts->size(); ++ci) {
      if (used[ci]) continue;
      if (FullyBound(*(*conjuncts)[ci], *scope)) {
        MTDB_ASSIGN_OR_RETURN(ExprPtr b, BindExpr(*(*conjuncts)[ci], *scope));
        if (!filter_text.empty()) filter_text += " AND ";
        filter_text += sql::ToSql(*(*conjuncts)[ci]);
        filters.push_back(std::move(b));
        used[ci] = true;
      }
    }
    if (!filters.empty()) {
      ExprPtr pred = JoinConjuncts(std::move(filters));
      std::string child_text = std::move(current.text);
      current.exec = std::make_unique<FilterExecutor>(std::move(current.exec),
                                                      std::move(pred));
      current.text = "Filter [" + filter_text + "]\n" + Indent(child_text);
      current.ordered_on.clear();
    }
  }

  // Any unused conjunct now must bind (or it references unknown tables).
  std::vector<ExprPtr> filters;
  std::string filter_text;
  for (size_t ci = 0; ci < conjuncts->size(); ++ci) {
    if (used[ci]) continue;
    MTDB_ASSIGN_OR_RETURN(ExprPtr b, BindExpr(*(*conjuncts)[ci], *scope));
    if (!filter_text.empty()) filter_text += " AND ";
    filter_text += sql::ToSql(*(*conjuncts)[ci]);
    filters.push_back(std::move(b));
    used[ci] = true;
  }
  if (!filters.empty()) {
    ExprPtr pred = JoinConjuncts(std::move(filters));
    std::string child_text = std::move(current.text);
    current.exec = std::make_unique<FilterExecutor>(std::move(current.exec),
                                                    std::move(pred));
    current.text = "Filter [" + filter_text + "]\n" + Indent(child_text);
  }
  return current;
}

/// Collects aggregate calls in an expression (deduplicated by SQL text).
void CollectAggregates(const ParsedExpr& e,
                       std::vector<const ParsedExpr*>* aggs) {
  if (e.kind == PExprKind::kFuncCall && IsAggregateName(e.func_name)) {
    std::string text = sql::ToSql(e);
    for (const ParsedExpr* a : *aggs) {
      if (sql::ToSql(*a) == text) return;
    }
    aggs->push_back(&e);
    return;
  }
  if (e.left != nullptr) CollectAggregates(*e.left, aggs);
  if (e.right != nullptr) CollectAggregates(*e.right, aggs);
  for (const auto& a : e.args) CollectAggregates(*a, aggs);
}

/// Rewrites an expression over the aggregate output: leaves matching a
/// group expression or an aggregate call become column refs into the
/// HashAgg output row.
Result<ExprPtr> BindOverAggOutput(
    const ParsedExpr& e, const std::vector<std::string>& group_texts,
    const std::vector<std::string>& agg_texts,
    const std::vector<std::string>& out_names) {
  std::string text = sql::ToSql(e);
  for (size_t i = 0; i < group_texts.size(); ++i) {
    if (group_texts[i] == text) {
      return ExprPtr(std::make_unique<ColumnRefExpr>(i, out_names[i]));
    }
  }
  for (size_t i = 0; i < agg_texts.size(); ++i) {
    if (agg_texts[i] == text) {
      size_t pos = group_texts.size() + i;
      return ExprPtr(std::make_unique<ColumnRefExpr>(pos, out_names[pos]));
    }
  }
  // Also allow a bare column name to match a group expr of form t.col.
  if (e.kind == PExprKind::kColumnRef && e.table.empty()) {
    for (size_t i = 0; i < group_texts.size(); ++i) {
      const std::string& g = group_texts[i];
      size_t dot = g.rfind('.');
      std::string tail = dot == std::string::npos ? g : g.substr(dot + 1);
      if (IdentEquals(tail, e.column)) {
        return ExprPtr(std::make_unique<ColumnRefExpr>(i, out_names[i]));
      }
    }
  }
  switch (e.kind) {
    case PExprKind::kBinary: {
      MTDB_ASSIGN_OR_RETURN(
          ExprPtr l, BindOverAggOutput(*e.left, group_texts, agg_texts, out_names));
      MTDB_ASSIGN_OR_RETURN(
          ExprPtr r,
          BindOverAggOutput(*e.right, group_texts, agg_texts, out_names));
      switch (e.binary_op) {
        case BinaryOp::kAnd:
          return ExprPtr(std::make_unique<AndExpr>(std::move(l), std::move(r)));
        case BinaryOp::kOr:
          return ExprPtr(std::make_unique<OrExpr>(std::move(l), std::move(r)));
        case BinaryOp::kAdd:
          return ExprPtr(std::make_unique<ArithmeticExpr>(ArithOp::kAdd,
                                                          std::move(l),
                                                          std::move(r)));
        case BinaryOp::kSub:
          return ExprPtr(std::make_unique<ArithmeticExpr>(ArithOp::kSub,
                                                          std::move(l),
                                                          std::move(r)));
        case BinaryOp::kMul:
          return ExprPtr(std::make_unique<ArithmeticExpr>(ArithOp::kMul,
                                                          std::move(l),
                                                          std::move(r)));
        case BinaryOp::kDiv:
          return ExprPtr(std::make_unique<ArithmeticExpr>(ArithOp::kDiv,
                                                          std::move(l),
                                                          std::move(r)));
        case BinaryOp::kMod:
          return ExprPtr(std::make_unique<ArithmeticExpr>(ArithOp::kMod,
                                                          std::move(l),
                                                          std::move(r)));
        default:
          return ExprPtr(std::make_unique<CompareExpr>(
              ToCompareOp(e.binary_op), std::move(l), std::move(r)));
      }
    }
    case PExprKind::kLiteral:
      return ExprPtr(std::make_unique<LiteralExpr>(e.literal));
    case PExprKind::kParam:
      return ExprPtr(std::make_unique<ParamExpr>(e.param_ordinal));
    case PExprKind::kUnary: {
      MTDB_ASSIGN_OR_RETURN(
          ExprPtr c, BindOverAggOutput(*e.left, group_texts, agg_texts, out_names));
      if (e.unary_op == sql::UnaryOp::kNot) {
        return ExprPtr(std::make_unique<NotExpr>(std::move(c)));
      }
      return ExprPtr(std::make_unique<ArithmeticExpr>(
          ArithOp::kSub, std::make_unique<LiteralExpr>(Value::Int64(0)),
          std::move(c)));
    }
    case PExprKind::kIsNull: {
      MTDB_ASSIGN_OR_RETURN(
          ExprPtr c, BindOverAggOutput(*e.left, group_texts, agg_texts, out_names));
      return ExprPtr(std::make_unique<IsNullExpr>(std::move(c),
                                                  e.is_null_negated));
    }
    case PExprKind::kLike: {
      MTDB_ASSIGN_OR_RETURN(
          ExprPtr v, BindOverAggOutput(*e.left, group_texts, agg_texts, out_names));
      MTDB_ASSIGN_OR_RETURN(
          ExprPtr pat,
          BindOverAggOutput(*e.right, group_texts, agg_texts, out_names));
      return ExprPtr(std::make_unique<LikeExpr>(std::move(v), std::move(pat),
                                                e.like_negated));
    }
    case PExprKind::kFuncCall: {
      std::optional<TypeId> cast = CastTargetOf(e.func_name);
      if (cast.has_value() && e.args.size() == 1) {
        MTDB_ASSIGN_OR_RETURN(
            ExprPtr c,
            BindOverAggOutput(*e.args[0], group_texts, agg_texts, out_names));
        return ExprPtr(std::make_unique<CastExpr>(std::move(c), *cast));
      }
      return Status::InvalidArgument(
          "expression references a non-grouped column: " + text);
    }
    default:
      return Status::InvalidArgument(
          "expression references a non-grouped column: " + text);
  }
}

Result<Built> SelectPlanner::Plan(const SelectStmt& input) {
  std::unique_ptr<SelectStmt> owned = input.Clone();
  SelectStmt* stmt = owned.get();
  if (mode_ == PlannerMode::kAdvanced) {
    FlattenDerivedTables(stmt);
  }
  std::vector<ParsedExprPtr> conjuncts;
  if (stmt->where != nullptr) {
    sql::SplitParsedConjuncts(*stmt->where, &conjuncts);
  }
  Scope scope;
  MTDB_ASSIGN_OR_RETURN(Built current,
                        PlanFromWhere(*stmt, &scope, &conjuncts));

  // Aggregation.
  bool has_agg = !stmt->group_by.empty();
  for (const auto& item : stmt->items) {
    if (item.expr != nullptr && HasAggregate(*item.expr)) has_agg = true;
  }
  if (stmt->having != nullptr && HasAggregate(*stmt->having)) has_agg = true;

  std::vector<std::string> group_texts, agg_texts, agg_out_names;
  if (has_agg) {
    if (stmt->select_star) {
      return Status::InvalidArgument("SELECT * with aggregation");
    }
    std::vector<ExprPtr> group_exprs;
    std::vector<std::string> out_names;
    std::vector<TypeId> out_types;
    for (const auto& g : stmt->group_by) {
      MTDB_ASSIGN_OR_RETURN(ExprPtr b, BindExpr(*g, scope));
      std::string text = sql::ToSql(*g);
      group_texts.push_back(text);
      out_names.push_back(text);
      out_types.push_back(TypeId::kNull);
      group_exprs.push_back(std::move(b));
    }
    std::vector<const ParsedExpr*> agg_nodes;
    for (const auto& item : stmt->items) CollectAggregates(*item.expr, &agg_nodes);
    if (stmt->having != nullptr) CollectAggregates(*stmt->having, &agg_nodes);
    for (const auto& o : stmt->order_by) CollectAggregates(*o.expr, &agg_nodes);

    std::vector<AggSpec> specs;
    for (const ParsedExpr* a : agg_nodes) {
      AggSpec spec;
      std::string text = sql::ToSql(*a);
      agg_texts.push_back(text);
      out_names.push_back(text);
      out_types.push_back(TypeId::kNull);
      spec.name = text;
      if (a->func_star) {
        spec.kind = AggKind::kCountStar;
      } else {
        if (a->args.size() != 1) {
          return Status::InvalidArgument("aggregate needs one argument: " +
                                         text);
        }
        MTDB_ASSIGN_OR_RETURN(spec.arg, BindExpr(*a->args[0], scope));
        if (a->func_name == "count") {
          spec.kind = AggKind::kCount;
        } else if (a->func_name == "sum") {
          spec.kind = AggKind::kSum;
        } else if (a->func_name == "avg") {
          spec.kind = AggKind::kAvg;
        } else if (a->func_name == "min") {
          spec.kind = AggKind::kMin;
        } else {
          spec.kind = AggKind::kMax;
        }
      }
      specs.push_back(std::move(spec));
    }
    agg_out_names = out_names;
    std::string child_text = std::move(current.text);
    current.exec = std::make_unique<HashAggExecutor>(
        std::move(current.exec), std::move(group_exprs), std::move(specs),
        std::move(out_names), std::move(out_types));
    current.text = "HashAgg groups=" + std::to_string(group_texts.size()) +
                   " aggs=" + std::to_string(agg_texts.size()) + "\n" +
                   Indent(child_text);

    if (stmt->having != nullptr) {
      MTDB_ASSIGN_OR_RETURN(
          ExprPtr pred,
          BindOverAggOutput(*stmt->having, group_texts, agg_texts, agg_out_names));
      std::string t = std::move(current.text);
      current.exec = std::make_unique<FilterExecutor>(std::move(current.exec),
                                                      std::move(pred));
      current.text = "Filter [HAVING]\n" + Indent(t);
    }
  }

  // Projection (+ hidden columns for ORDER BY expressions not projected).
  std::vector<ExprPtr> proj;
  std::vector<std::string> proj_names;
  std::vector<std::string> item_texts;
  bool identity = stmt->select_star;
  if (!identity) {
    for (const auto& item : stmt->items) {
      ExprPtr bound;
      if (has_agg) {
        MTDB_ASSIGN_OR_RETURN(
            bound,
            BindOverAggOutput(*item.expr, group_texts, agg_texts, agg_out_names));
      } else {
        MTDB_ASSIGN_OR_RETURN(bound, BindExpr(*item.expr, scope));
      }
      std::string name = item.alias;
      if (name.empty()) {
        if (item.expr->kind == PExprKind::kColumnRef) {
          name = item.expr->column;
        } else {
          name = sql::ToSql(*item.expr);
        }
      }
      item_texts.push_back(sql::ToSql(*item.expr));
      proj_names.push_back(std::move(name));
      proj.push_back(std::move(bound));
    }
  }

  // ORDER BY handling.
  struct BoundOrder {
    size_t column;
    bool descending;
  };
  std::vector<BoundOrder> bound_order;
  size_t hidden = 0;
  if (!stmt->order_by.empty() && !identity) {
    {
      for (const auto& o : stmt->order_by) {
        std::string text = sql::ToSql(*o.expr);
        // Match a projected item by alias or text.
        std::optional<size_t> pos;
        for (size_t i = 0; i < item_texts.size(); ++i) {
          if (item_texts[i] == text ||
              IdentEquals(proj_names[i], text)) {
            pos = i;
            break;
          }
        }
        if (!pos.has_value() && o.expr->kind == PExprKind::kColumnRef) {
          for (size_t i = 0; i < proj_names.size(); ++i) {
            if (IdentEquals(proj_names[i], o.expr->column)) {
              pos = i;
              break;
            }
          }
        }
        if (!pos.has_value()) {
          // Append as hidden projection column.
          ExprPtr bound;
          if (has_agg) {
            MTDB_ASSIGN_OR_RETURN(
                bound,
                BindOverAggOutput(*o.expr, group_texts, agg_texts, agg_out_names));
          } else {
            MTDB_ASSIGN_OR_RETURN(bound, BindExpr(*o.expr, scope));
          }
          pos = proj.size();
          proj.push_back(std::move(bound));
          proj_names.push_back("$order" + std::to_string(hidden++));
          item_texts.push_back(text);
        }
        bound_order.push_back({*pos, o.descending});
      }
    }
  }

  if (!identity) {
    std::vector<TypeId> types(proj.size(), TypeId::kNull);
    std::string t = std::move(current.text);
    current.exec = std::make_unique<ProjectExecutor>(
        std::move(current.exec), std::move(proj), proj_names, std::move(types));
    current.text = "Project\n" + Indent(t);
    if (!bound_order.empty()) {
      std::vector<SortKey> keys;
      for (const BoundOrder& bo : bound_order) {
        keys.push_back(SortKey{
            std::make_unique<ColumnRefExpr>(bo.column, proj_names[bo.column]),
            bo.descending});
      }
      std::string t2 = std::move(current.text);
      current.exec =
          std::make_unique<SortExecutor>(std::move(current.exec), std::move(keys));
      current.text = "Sort\n" + Indent(t2);
    }
    if (hidden > 0) {
      // Drop the hidden order-by columns.
      size_t keep = proj_names.size() - hidden;
      std::vector<ExprPtr> narrow;
      std::vector<std::string> names;
      std::vector<TypeId> types;
      for (size_t i = 0; i < keep; ++i) {
        narrow.push_back(
            std::make_unique<ColumnRefExpr>(i, proj_names[i]));
        names.push_back(proj_names[i]);
        types.push_back(TypeId::kNull);
      }
      std::string t2 = std::move(current.text);
      current.exec = std::make_unique<ProjectExecutor>(
          std::move(current.exec), std::move(narrow), std::move(names),
          std::move(types));
      current.text = "Project (drop hidden)\n" + Indent(t2);
    }
  } else if (!stmt->order_by.empty()) {
    // Identity projection with ORDER BY: sort over the full row.
    std::vector<SortKey> keys;
    for (const auto& o : stmt->order_by) {
      MTDB_ASSIGN_OR_RETURN(ExprPtr b, BindExpr(*o.expr, scope));
      keys.push_back(SortKey{std::move(b), o.descending});
    }
    std::string t = std::move(current.text);
    current.exec =
        std::make_unique<SortExecutor>(std::move(current.exec), std::move(keys));
    current.text = "Sort\n" + Indent(t);
  }

  if (stmt->distinct) {
    std::string t = std::move(current.text);
    current.exec = std::make_unique<DistinctExecutor>(std::move(current.exec));
    current.text = "Distinct\n" + Indent(t);
  }
  if (stmt->limit >= 0 || stmt->offset > 0) {
    std::string t = std::move(current.text);
    current.exec = std::make_unique<LimitExecutor>(std::move(current.exec),
                                                   stmt->limit, stmt->offset);
    current.text = "Limit " + std::to_string(stmt->limit) + " offset " +
                   std::to_string(stmt->offset) + "\n" + Indent(t);
  }
  return current;
}

}  // namespace

Result<PlannedQuery> PlanSelect(const sql::SelectStmt& stmt, Catalog* catalog,
                                PlannerMode mode) {
  SelectPlanner planner(catalog, mode);
  MTDB_ASSIGN_OR_RETURN(Built b, planner.Plan(stmt));
  PlannedQuery out;
  out.exec = std::move(b.exec);
  out.plan_text = std::move(b.text);
  return out;
}

Result<std::vector<ExprPtr>> BindRowExprs(
    const std::vector<const sql::ParsedExpr*>& exprs, const std::string& table,
    std::vector<std::string> columns) {
  OutputSchema row;
  row.types.assign(columns.size(), TypeId::kNull);
  row.names = std::move(columns);
  Scope scope;
  scope.Add(table, std::move(row));
  std::vector<ExprPtr> out;
  out.reserve(exprs.size());
  for (const sql::ParsedExpr* e : exprs) {
    MTDB_ASSIGN_OR_RETURN(ExprPtr bound, BindExpr(*e, scope));
    out.push_back(std::move(bound));
  }
  return out;
}

}  // namespace mtdb
