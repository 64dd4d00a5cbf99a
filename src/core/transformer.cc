#include "core/transformer.h"

#include <set>

#include "catalog/schema.h"

namespace mtdb {
namespace mapping {

namespace {

using sql::MakeBinary;
using sql::MakeColumnRef;
using sql::MakeFunc;
using sql::MakeLiteral;
using sql::ParsedExpr;
using sql::ParsedExprPtr;
using sql::PExprKind;
using sql::SelectStmt;
using sql::TableRef;

const char* CastFuncFor(TypeId target) {
  switch (target) {
    case TypeId::kInt32:
      return "cast_int";
    case TypeId::kInt64:
      return "cast_bigint";
    case TypeId::kDouble:
      return "cast_double";
    case TypeId::kDate:
      return "cast_date";
    case TypeId::kBool:
      return "cast_bool";
    default:
      return "cast_str";
  }
}

ParsedExprPtr MaybeCast(ParsedExprPtr e, const ColumnTarget& target) {
  if (!target.NeedsCast()) return e;
  std::vector<ParsedExprPtr> args;
  args.push_back(std::move(e));
  return MakeFunc(CastFuncFor(target.logical_type), std::move(args),
                  /*star=*/false);
}

ParsedExprPtr PartitionConjunct(const std::string& alias,
                                const std::pair<std::string, Value>& p) {
  return MakeBinary(sql::BinaryOp::kEq, MakeColumnRef(alias, p.first),
                    MakeLiteral(p.second));
}

}  // namespace

std::unique_ptr<SelectStmt> BuildReconstruction(
    const TableMapping& mapping, const std::vector<std::string>& columns,
    const std::string& row_alias) {
  auto out = std::make_unique<SelectStmt>();
  // Which sources participate.
  std::set<size_t> needed;
  for (const std::string& col : columns) {
    auto it = mapping.columns.find(IdentLower(col));
    if (it != mapping.columns.end()) needed.insert(it->second.source);
  }
  if (needed.empty()) needed.insert(0);

  std::vector<size_t> order(needed.begin(), needed.end());
  std::unordered_map<size_t, std::string> alias_of;
  for (size_t i = 0; i < order.size(); ++i) {
    alias_of[order[i]] = "s" + std::to_string(order[i]);
  }

  // FROM + partition predicates + aligning joins on row.
  ParsedExprPtr where;
  for (size_t i = 0; i < order.size(); ++i) {
    size_t src = order[i];
    TableRef ref;
    ref.table_name = mapping.sources[src].physical_table;
    ref.alias = alias_of[src];
    out->from.push_back(std::move(ref));
    for (const auto& p : mapping.sources[src].partition) {
      where = sql::AndTogether(std::move(where),
                               PartitionConjunct(alias_of[src], p));
    }
    if (i > 0) {
      const std::string& rc0 = mapping.sources[order[0]].row_column;
      const std::string& rci = mapping.sources[src].row_column;
      where = sql::AndTogether(
          std::move(where),
          MakeBinary(sql::BinaryOp::kEq, MakeColumnRef(alias_of[order[0]], rc0),
                     MakeColumnRef(alias_of[src], rci)));
    }
  }
  out->where = std::move(where);

  if (!row_alias.empty() &&
      !mapping.sources[order[0]].row_column.empty()) {
    sql::SelectItem item;
    item.expr =
        MakeColumnRef(alias_of[order[0]], mapping.sources[order[0]].row_column);
    item.alias = row_alias;
    out->items.push_back(std::move(item));
  }
  for (size_t i = 0; i < columns.size(); ++i) {
    auto it = mapping.columns.find(IdentLower(columns[i]));
    if (it == mapping.columns.end()) continue;
    const ColumnTarget& t = it->second;
    sql::SelectItem item;
    item.expr = MaybeCast(
        MakeColumnRef(alias_of[t.source], t.physical_column), t);
    item.alias = columns[i];
    out->items.push_back(std::move(item));
  }
  return out;
}

Result<std::vector<QueryTransformer::LogicalBinding>>
QueryTransformer::BindFrom(TenantId tenant, const SelectStmt& stmt) {
  std::vector<LogicalBinding> bindings;
  for (const TableRef& ref : stmt.from) {
    if (ref.is_subquery()) {
      LogicalBinding b;
      b.binding = ref.binding_name();
      b.mapping = nullptr;  // opaque: transformed recursively
      bindings.push_back(std::move(b));
      continue;
    }
    LogicalBinding b;
    b.binding = ref.binding_name();
    b.table = ref.table_name;
    MTDB_ASSIGN_OR_RETURN(b.columns,
                          resolver_->LogicalColumns(tenant, ref.table_name));
    MTDB_ASSIGN_OR_RETURN(b.mapping, resolver_->Mapping(tenant, ref.table_name));
    b.used.assign(b.columns.size(), false);
    bindings.push_back(std::move(b));
  }
  return bindings;
}

Status QueryTransformer::MarkUses(const ParsedExpr& e,
                                  std::vector<LogicalBinding>* bindings) {
  if (e.kind == PExprKind::kColumnRef) {
    bool matched = false;
    for (LogicalBinding& b : *bindings) {
      if (b.mapping == nullptr) {
        if (!e.table.empty() && IdentEquals(e.table, b.binding)) {
          matched = true;
        }
        continue;
      }
      if (!e.table.empty() && !IdentEquals(e.table, b.binding)) continue;
      for (size_t i = 0; i < b.columns.size(); ++i) {
        if (IdentEquals(b.columns[i].first, e.column)) {
          b.used[i] = true;
          matched = true;
          if (heat_ != nullptr) heat_->Record(b.table, e.column);
        }
      }
    }
    if (!matched) {
      return Status::NotFound("column not found in logical schema: " +
                              (e.table.empty() ? e.column
                                               : e.table + "." + e.column));
    }
    return Status::OK();
  }
  if (e.left != nullptr) MTDB_RETURN_IF_ERROR(MarkUses(*e.left, bindings));
  if (e.right != nullptr) MTDB_RETURN_IF_ERROR(MarkUses(*e.right, bindings));
  for (const auto& a : e.args) MTDB_RETURN_IF_ERROR(MarkUses(*a, bindings));
  return Status::OK();
}

Result<std::unique_ptr<SelectStmt>> QueryTransformer::TransformSelect(
    TenantId tenant, const SelectStmt& input) {
  std::unique_ptr<SelectStmt> stmt = input.Clone();

  // Step 0: recursively transform derived tables first.
  for (TableRef& ref : stmt->from) {
    if (ref.is_subquery()) {
      MTDB_ASSIGN_OR_RETURN(auto sub, TransformSelect(tenant, *ref.subquery));
      ref.subquery = std::move(sub);
    }
  }

  // Step 1: bind the logical FROM list.
  MTDB_ASSIGN_OR_RETURN(std::vector<LogicalBinding> bindings,
                        BindFrom(tenant, *stmt));

  // Expand SELECT * against the logical schema (never expose physical
  // generic-structure columns to the application).
  if (stmt->select_star) {
    stmt->select_star = false;
    for (const LogicalBinding& b : bindings) {
      if (b.mapping == nullptr) {
        return Status::NotImplemented(
            "SELECT * over a derived table in a logical query");
      }
      for (const auto& [name, type] : b.columns) {
        sql::SelectItem item;
        item.expr = MakeColumnRef(b.binding, name);
        item.alias = name;
        stmt->items.push_back(std::move(item));
      }
    }
  }

  // Step 2: collect the used columns per logical table.
  for (const auto& item : stmt->items) {
    MTDB_RETURN_IF_ERROR(MarkUses(*item.expr, &bindings));
  }
  if (stmt->where != nullptr) {
    MTDB_RETURN_IF_ERROR(MarkUses(*stmt->where, &bindings));
  }
  for (const auto& g : stmt->group_by) {
    MTDB_RETURN_IF_ERROR(MarkUses(*g, &bindings));
  }
  if (stmt->having != nullptr) {
    MTDB_RETURN_IF_ERROR(MarkUses(*stmt->having, &bindings));
  }
  for (const auto& o : stmt->order_by) {
    MTDB_RETURN_IF_ERROR(MarkUses(*o.expr, &bindings));
  }

  // Steps 3+4: generate reconstructions and patch them in.
  if (options_.emit_mode == EmitMode::kNested) {
    return EmitNested(tenant, *stmt, bindings);
  }
  return EmitFlattened(tenant, *stmt, bindings);
}

Result<std::unique_ptr<SelectStmt>> QueryTransformer::EmitNested(
    TenantId /*tenant*/, const SelectStmt& stmt,
    std::vector<LogicalBinding>& bindings) {
  std::unique_ptr<SelectStmt> out = stmt.Clone();
  for (size_t i = 0; i < out->from.size(); ++i) {
    LogicalBinding& b = bindings[i];
    if (b.mapping == nullptr) continue;  // already-transformed subquery
    std::vector<std::string> cols;
    for (size_t c = 0; c < b.columns.size(); ++c) {
      if (b.used[c]) cols.push_back(b.columns[c].first);
    }
    TableRef replacement;
    replacement.subquery =
        BuildReconstruction(*b.mapping, cols, /*row_alias=*/"");
    replacement.alias = b.binding;
    out->from[i] = std::move(replacement);
  }
  return out;
}

Result<std::unique_ptr<SelectStmt>> QueryTransformer::EmitFlattened(
    TenantId /*tenant*/, const SelectStmt& stmt,
    std::vector<LogicalBinding>& bindings) {
  std::unique_ptr<SelectStmt> out = stmt.Clone();

  // Per binding: source index -> fresh alias; plus meta-data conjuncts.
  struct Rewrite {
    std::string binding;                          // logical binding (lower)
    std::unordered_map<std::string, size_t> col_to_source;
    std::unordered_map<size_t, std::string> alias_of;
    const TableMapping* mapping;
  };
  std::vector<Rewrite> rewrites;
  std::vector<ParsedExprPtr> meta_conjuncts;
  std::vector<TableRef> new_from;

  for (size_t i = 0; i < out->from.size(); ++i) {
    LogicalBinding& b = bindings[i];
    if (b.mapping == nullptr) {
      new_from.push_back(std::move(out->from[i]));
      continue;
    }
    std::set<size_t> needed;
    for (size_t c = 0; c < b.columns.size(); ++c) {
      if (!b.used[c]) continue;
      auto it = b.mapping->columns.find(IdentLower(b.columns[c].first));
      if (it != b.mapping->columns.end()) needed.insert(it->second.source);
    }
    if (needed.empty()) needed.insert(0);

    Rewrite rw;
    rw.binding = IdentLower(b.binding);
    rw.mapping = b.mapping;
    std::vector<size_t> order(needed.begin(), needed.end());
    for (size_t src : order) {
      std::string alias = b.binding + "$" + std::to_string(fresh_alias_++);
      rw.alias_of[src] = alias;
      TableRef ref;
      ref.table_name = b.mapping->sources[src].physical_table;
      ref.alias = alias;
      new_from.push_back(std::move(ref));
      for (const auto& p : b.mapping->sources[src].partition) {
        meta_conjuncts.push_back(PartitionConjunct(alias, p));
      }
    }
    for (size_t k = 1; k < order.size(); ++k) {
      meta_conjuncts.push_back(MakeBinary(
          sql::BinaryOp::kEq,
          MakeColumnRef(rw.alias_of[order[0]],
                        b.mapping->sources[order[0]].row_column),
          MakeColumnRef(rw.alias_of[order[k]],
                        b.mapping->sources[order[k]].row_column)));
    }
    for (const auto& [name, target] : b.mapping->columns) {
      rw.col_to_source[name] = target.source;
    }
    rewrites.push_back(std::move(rw));
  }
  out->from = std::move(new_from);

  // Rewrite logical column refs into physical alias.column (+ casts).
  std::function<void(ParsedExprPtr*)> rewrite_expr =
      [&](ParsedExprPtr* ep) {
        ParsedExpr* e = ep->get();
        if (e->kind == PExprKind::kColumnRef) {
          std::string t = IdentLower(e->table);
          std::string c = IdentLower(e->column);
          for (Rewrite& rw : rewrites) {
            if (!t.empty() && t != rw.binding) continue;
            auto it = rw.mapping->columns.find(c);
            if (it == rw.mapping->columns.end()) continue;
            const ColumnTarget& target = it->second;
            ParsedExprPtr repl = MaybeCast(
                MakeColumnRef(rw.alias_of.count(target.source)
                                  ? rw.alias_of[target.source]
                                  : rw.alias_of.begin()->second,
                              target.physical_column),
                target);
            *ep = std::move(repl);
            return;
          }
          return;
        }
        if (e->left != nullptr) rewrite_expr(&e->left);
        if (e->right != nullptr) rewrite_expr(&e->right);
        for (auto& a : e->args) rewrite_expr(&a);
      };

  for (auto& item : out->items) rewrite_expr(&item.expr);
  if (out->where != nullptr) rewrite_expr(&out->where);
  for (auto& g : out->group_by) rewrite_expr(&g);
  if (out->having != nullptr) rewrite_expr(&out->having);
  for (auto& o : out->order_by) rewrite_expr(&o.expr);

  // Assemble WHERE in the requested conjunct order.
  ParsedExprPtr original = std::move(out->where);
  ParsedExprPtr meta;
  for (auto& m : meta_conjuncts) {
    meta = sql::AndTogether(std::move(meta), std::move(m));
  }
  if (options_.predicate_order == PredicateOrder::kMetadataFirst) {
    out->where = sql::AndTogether(std::move(meta), std::move(original));
  } else {
    out->where = sql::AndTogether(std::move(original), std::move(meta));
  }
  return out;
}

}  // namespace mapping
}  // namespace mtdb
