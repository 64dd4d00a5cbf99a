#include "exec/executor.h"

#include <algorithm>

#include "common/key_encoding.h"

namespace mtdb {

namespace {

OutputSchema SchemaOfTable(const TableInfo* table) {
  OutputSchema out;
  for (const Column& c : table->schema.columns()) {
    out.names.push_back(c.name);
    out.types.push_back(c.type);
  }
  return out;
}

OutputSchema ConcatSchemas(const OutputSchema& a, const OutputSchema& b) {
  OutputSchema out = a;
  out.names.insert(out.names.end(), b.names.begin(), b.names.end());
  out.types.insert(out.types.end(), b.types.begin(), b.types.end());
  return out;
}

}  // namespace

std::string HashKeyOf(const std::vector<ExprPtr>& exprs, const Row& row,
                      const ExecContext& ctx, Status* status) {
  std::string key;
  for (const ExprPtr& e : exprs) {
    Result<Value> v = e->Eval(row, ctx);
    if (!v.ok()) {
      *status = v.status();
      return key;
    }
    KeyEncoder::Encode(*v, &key);
  }
  *status = Status::OK();
  return key;
}

Result<bool> JoinKeyOf(std::span<const ExprPtr> exprs, const Row& row,
                       const ExecContext& ctx, std::string* key) {
  key->clear();
  for (const ExprPtr& e : exprs) {
    MTDB_ASSIGN_OR_RETURN(Value v, e->Eval(row, ctx));
    if (v.is_null()) return false;
    KeyEncoder::Encode(v, key);
  }
  return true;
}

// ---------------------------------------------------------------- SeqScan

SeqScanExecutor::SeqScanExecutor(TableInfo* table, ExprPtr predicate)
    : table_(table), predicate_(std::move(predicate)) {
  schema_ = SchemaOfTable(table_);
}

Status SeqScanExecutor::Init(const ExecContext&) {
  it_ = std::make_unique<TableHeap::Iterator>(table_->heap->Begin());
  return Status::OK();
}

Result<bool> SeqScanExecutor::Next(Row* out, const ExecContext& ctx) {
  std::string image;
  while (true) {
    MTDB_RETURN_IF_ERROR(ctx.CheckDeadline());
    MTDB_ASSIGN_OR_RETURN(bool more, it_->Next(&image, &rid_));
    if (!more) break;
    MTDB_ASSIGN_OR_RETURN(
        Row row,
        table_->codec->Decode(image.data(), static_cast<uint32_t>(image.size())));
    if (predicate_ != nullptr) {
      MTDB_ASSIGN_OR_RETURN(bool keep, EvalPredicate(*predicate_, row, ctx));
      if (!keep) continue;
    }
    *out = std::move(row);
    return true;
  }
  return false;
}

// -------------------------------------------------------------- IndexScan

IndexScanExecutor::IndexScanExecutor(TableInfo* table, const IndexInfo* index,
                                     std::vector<ExprPtr> prefix_values,
                                     ExprPtr residual)
    : table_(table),
      index_(index),
      prefix_values_(std::move(prefix_values)),
      residual_(std::move(residual)) {
  schema_ = SchemaOfTable(table_);
}

Status IndexScanExecutor::Init(const ExecContext& ctx) {
  std::vector<Value> prefix;
  for (const ExprPtr& e : prefix_values_) {
    MTDB_ASSIGN_OR_RETURN(Value v, e->Eval(Row{}, ctx));
    prefix.push_back(std::move(v));
  }
  std::string lo, hi;
  KeyEncoder::EncodePrefixRange(prefix, &lo, &hi);
  MTDB_ASSIGN_OR_RETURN(BTree::Iterator it, index_->tree->Scan(lo, hi));
  it_ = std::make_unique<BTree::Iterator>(std::move(it));
  return Status::OK();
}

Result<bool> IndexScanExecutor::Next(Row* out, const ExecContext& ctx) {
  Rid rid;
  while (true) {
    MTDB_RETURN_IF_ERROR(ctx.CheckDeadline());
    MTDB_ASSIGN_OR_RETURN(bool more, it_->Next(&rid));
    if (!more) break;
    Status st = table_->heap->Get(rid, &image_);
    if (st.code() == StatusCode::kNotFound) continue;  // dangling entry
    MTDB_RETURN_IF_ERROR(st);
    MTDB_ASSIGN_OR_RETURN(
        Row row, table_->codec->Decode(image_.data(),
                                       static_cast<uint32_t>(image_.size())));
    if (residual_ != nullptr) {
      MTDB_ASSIGN_OR_RETURN(bool keep, EvalPredicate(*residual_, row, ctx));
      if (!keep) continue;
    }
    rid_ = rid;
    *out = std::move(row);
    return true;
  }
  return false;
}

// ----------------------------------------------------------------- Filter

FilterExecutor::FilterExecutor(ExecutorPtr child, ExprPtr predicate)
    : child_(std::move(child)), predicate_(std::move(predicate)) {
  schema_ = child_->schema();
}

Status FilterExecutor::Init(const ExecContext& ctx) { return child_->Init(ctx); }

Result<bool> FilterExecutor::Next(Row* out, const ExecContext& ctx) {
  while (true) {
    MTDB_ASSIGN_OR_RETURN(bool more, child_->Next(out, ctx));
    if (!more) return false;
    MTDB_ASSIGN_OR_RETURN(bool keep, EvalPredicate(*predicate_, *out, ctx));
    if (keep) return true;
  }
}

// ---------------------------------------------------------------- Project

ProjectExecutor::ProjectExecutor(ExecutorPtr child, std::vector<ExprPtr> exprs,
                                 std::vector<std::string> names,
                                 std::vector<TypeId> types)
    : child_(std::move(child)), exprs_(std::move(exprs)) {
  schema_.names = std::move(names);
  schema_.types = std::move(types);
}

Status ProjectExecutor::Init(const ExecContext& ctx) {
  return child_->Init(ctx);
}

Result<bool> ProjectExecutor::Next(Row* out, const ExecContext& ctx) {
  Row in;
  MTDB_ASSIGN_OR_RETURN(bool more, child_->Next(&in, ctx));
  if (!more) return false;
  out->clear();
  out->reserve(exprs_.size());
  for (const ExprPtr& e : exprs_) {
    MTDB_ASSIGN_OR_RETURN(Value v, e->Eval(in, ctx));
    out->push_back(std::move(v));
  }
  return true;
}

// ----------------------------------------------------------- NestedLoopJoin

NestedLoopJoinExecutor::NestedLoopJoinExecutor(ExecutorPtr left,
                                               ExecutorPtr right,
                                               ExprPtr predicate)
    : left_(std::move(left)),
      right_(std::move(right)),
      predicate_(std::move(predicate)) {
  schema_ = ConcatSchemas(left_->schema(), right_->schema());
}

Status NestedLoopJoinExecutor::Init(const ExecContext& ctx) {
  have_left_ = false;
  return left_->Init(ctx);
}

Result<bool> NestedLoopJoinExecutor::Next(Row* out, const ExecContext& ctx) {
  while (true) {
    MTDB_RETURN_IF_ERROR(ctx.CheckDeadline());
    if (!have_left_) {
      MTDB_ASSIGN_OR_RETURN(bool more, left_->Next(&left_row_, ctx));
      if (!more) return false;
      have_left_ = true;
      MTDB_RETURN_IF_ERROR(right_->Init(ctx));
    }
    Row right_row;
    MTDB_ASSIGN_OR_RETURN(bool rmore, right_->Next(&right_row, ctx));
    if (!rmore) {
      have_left_ = false;
      continue;
    }
    Row combined = left_row_;
    combined.insert(combined.end(), right_row.begin(), right_row.end());
    if (predicate_ != nullptr) {
      MTDB_ASSIGN_OR_RETURN(bool keep, EvalPredicate(*predicate_, combined, ctx));
      if (!keep) continue;
    }
    *out = std::move(combined);
    return true;
  }
}

// ------------------------------------------------------ IndexNestedLoopJoin

IndexNestedLoopJoinExecutor::IndexNestedLoopJoinExecutor(
    ExecutorPtr left, TableInfo* right, const IndexInfo* right_index,
    std::vector<ExprPtr> key_exprs, ExprPtr residual)
    : left_(std::move(left)),
      right_(right),
      right_index_(right_index),
      key_exprs_(std::move(key_exprs)),
      residual_(std::move(residual)) {
  schema_ = ConcatSchemas(left_->schema(), SchemaOfTable(right_));
}

Status IndexNestedLoopJoinExecutor::Init(const ExecContext& ctx) {
  have_left_ = false;
  matches_.clear();
  match_pos_ = 0;
  return left_->Init(ctx);
}

Result<bool> IndexNestedLoopJoinExecutor::AdvanceLeft(const ExecContext& ctx) {
  matches_.clear();
  match_pos_ = 0;
  MTDB_ASSIGN_OR_RETURN(bool more, left_->Next(&left_row_, ctx));
  if (!more) return false;
  have_left_ = true;
  std::string lo;
  MTDB_ASSIGN_OR_RETURN(bool joins, JoinKeyOf(key_exprs_, left_row_, ctx, &lo));
  if (!joins) return true;  // no matches: the next call advances again
  const std::string hi = KeyEncoder::PrefixUpperBound(lo);
  MTDB_ASSIGN_OR_RETURN(BTree::Iterator it,
                        right_index_->tree->Scan(lo, hi));
  Rid rid;
  while (true) {
    MTDB_ASSIGN_OR_RETURN(bool has_match, it.Next(&rid));
    if (!has_match) break;
    matches_.push_back(rid);
  }
  return true;
}

Result<bool> IndexNestedLoopJoinExecutor::Next(Row* out,
                                               const ExecContext& ctx) {
  while (true) {
    if (!have_left_ || match_pos_ >= matches_.size()) {
      MTDB_ASSIGN_OR_RETURN(bool more, AdvanceLeft(ctx));
      if (!more) return false;
      continue;
    }
    Rid rid = matches_[match_pos_++];
    std::string image;
    Status st = right_->heap->Get(rid, &image);
    if (st.code() == StatusCode::kNotFound) continue;  // dangling entry
    MTDB_RETURN_IF_ERROR(st);
    MTDB_ASSIGN_OR_RETURN(
        Row right_row,
        right_->codec->Decode(image.data(), static_cast<uint32_t>(image.size())));
    Row combined = left_row_;
    combined.insert(combined.end(), right_row.begin(), right_row.end());
    if (residual_ != nullptr) {
      MTDB_ASSIGN_OR_RETURN(bool keep, EvalPredicate(*residual_, combined, ctx));
      if (!keep) continue;
    }
    *out = std::move(combined);
    return true;
  }
}

// -------------------------------------------------------------- MergeJoin

MergeJoinExecutor::MergeJoinExecutor(ExecutorPtr left, ExecutorPtr right,
                                     ExprPtr left_key, ExprPtr right_key)
    : left_(std::move(left)),
      right_(std::move(right)),
      left_key_(std::move(left_key)),
      right_key_(std::move(right_key)) {
  schema_ = ConcatSchemas(left_->schema(), right_->schema());
}

Status MergeJoinExecutor::Init(const ExecContext& ctx) {
  group_.clear();
  group_key_.clear();
  group_pos_ = 0;
  MTDB_RETURN_IF_ERROR(left_->Init(ctx));
  MTDB_RETURN_IF_ERROR(right_->Init(ctx));
  return AdvanceRight(ctx);
}

Status MergeJoinExecutor::AdvanceRight(const ExecContext& ctx) {
  while (true) {
    MTDB_ASSIGN_OR_RETURN(bool more, right_->Next(&right_row_, ctx));
    if (!more) {
      right_valid_ = false;
      return Status::OK();
    }
    MTDB_ASSIGN_OR_RETURN(
        bool joins,
        JoinKeyOf({&right_key_, 1}, right_row_, ctx, &right_key_bytes_));
    if (!joins) continue;
    right_valid_ = true;
    return Status::OK();
  }
}

Result<bool> MergeJoinExecutor::Next(Row* out, const ExecContext& ctx) {
  while (true) {
    if (group_pos_ < group_.size()) {
      const Row& right_row = group_[group_pos_++];
      // Assign in place: a caller that reuses `out` keeps its values'
      // storage instead of destroying and rebuilding them per row.
      out->resize(left_row_.size() + right_row.size());
      std::copy(left_row_.begin(), left_row_.end(), out->begin());
      std::copy(right_row.begin(), right_row.end(),
                out->begin() + static_cast<std::ptrdiff_t>(left_row_.size()));
      return true;
    }
    MTDB_ASSIGN_OR_RETURN(bool more, left_->Next(&left_row_, ctx));
    if (!more) return false;
    MTDB_ASSIGN_OR_RETURN(
        bool joins,
        JoinKeyOf({&left_key_, 1}, left_row_, ctx, &left_key_bytes_));
    if (!joins) continue;
    // An encoded key is never empty, so an empty group_key_ (no left row
    // yet) compares below every key.
    if (left_key_bytes_ == group_key_) {
      group_pos_ = 0;  // a duplicate left key joins the same right run
      continue;
    }
    if (left_key_bytes_ < group_key_) {
      return Status::Internal("merge join: left input is not ordered");
    }
    group_key_.swap(left_key_bytes_);
    group_.clear();
    group_pos_ = 0;
    while (right_valid_ && right_key_bytes_ < group_key_) {
      MTDB_RETURN_IF_ERROR(AdvanceRight(ctx));
    }
    while (right_valid_ && right_key_bytes_ == group_key_) {
      group_.push_back(std::move(right_row_));
      MTDB_RETURN_IF_ERROR(AdvanceRight(ctx));
    }
    // Later left keys are larger still: nothing on the right can match.
    if (group_.empty() && !right_valid_) return false;
  }
}

// --------------------------------------------------------------- HashJoin

HashJoinExecutor::HashJoinExecutor(ExecutorPtr left, ExecutorPtr right,
                                   std::vector<ExprPtr> left_keys,
                                   std::vector<ExprPtr> right_keys,
                                   ExprPtr residual)
    : left_(std::move(left)),
      right_(std::move(right)),
      left_keys_(std::move(left_keys)),
      right_keys_(std::move(right_keys)),
      residual_(std::move(residual)) {
  schema_ = ConcatSchemas(left_->schema(), right_->schema());
}

Status HashJoinExecutor::Init(const ExecContext& ctx) {
  table_.clear();
  have_left_ = false;
  MTDB_RETURN_IF_ERROR(right_->Init(ctx));
  Row row;
  while (true) {
    MTDB_RETURN_IF_ERROR(ctx.CheckDeadline());
    Result<bool> more = right_->Next(&row, ctx);
    if (!more.ok()) return more.status();
    if (!*more) break;
    std::string key;
    MTDB_ASSIGN_OR_RETURN(bool joins, JoinKeyOf(right_keys_, row, ctx, &key));
    if (joins) table_.emplace(std::move(key), row);
  }
  return left_->Init(ctx);
}

Result<bool> HashJoinExecutor::Next(Row* out, const ExecContext& ctx) {
  while (true) {
    if (!have_left_) {
      MTDB_ASSIGN_OR_RETURN(bool more, left_->Next(&left_row_, ctx));
      if (!more) return false;
      std::string key;
      MTDB_ASSIGN_OR_RETURN(bool joins,
                            JoinKeyOf(left_keys_, left_row_, ctx, &key));
      if (!joins) continue;
      range_ = table_.equal_range(key);
      have_left_ = true;
    }
    if (range_.first == range_.second) {
      have_left_ = false;
      continue;
    }
    const Row& right_row = range_.first->second;
    ++range_.first;
    Row combined = left_row_;
    combined.insert(combined.end(), right_row.begin(), right_row.end());
    if (residual_ != nullptr) {
      MTDB_ASSIGN_OR_RETURN(bool keep, EvalPredicate(*residual_, combined, ctx));
      if (!keep) continue;
    }
    *out = std::move(combined);
    return true;
  }
}

// ---------------------------------------------------------------- HashAgg

HashAggExecutor::HashAggExecutor(ExecutorPtr child,
                                 std::vector<ExprPtr> group_exprs,
                                 std::vector<AggSpec> aggs,
                                 std::vector<std::string> names,
                                 std::vector<TypeId> types)
    : child_(std::move(child)),
      group_exprs_(std::move(group_exprs)),
      aggs_(std::move(aggs)) {
  schema_.names = std::move(names);
  schema_.types = std::move(types);
}

Status HashAggExecutor::Init(const ExecContext& ctx) {
  states_.clear();
  emit_pos_ = 0;
  MTDB_RETURN_IF_ERROR(child_->Init(ctx));

  std::unordered_map<std::string, size_t> groups;
  Row row;
  while (true) {
    MTDB_RETURN_IF_ERROR(ctx.CheckDeadline());
    Result<bool> more = child_->Next(&row, ctx);
    if (!more.ok()) return more.status();
    if (!*more) break;
    Status st;
    std::string key = HashKeyOf(group_exprs_, row, ctx, &st);
    MTDB_RETURN_IF_ERROR(st);
    auto it = groups.find(key);
    if (it == groups.end()) {
      it = groups.emplace(std::move(key), states_.size()).first;
      AggState state;
      for (const ExprPtr& g : group_exprs_) {
        Result<Value> v = g->Eval(row, ctx);
        if (!v.ok()) return v.status();
        state.group.push_back(*v);
      }
      state.acc.assign(aggs_.size(), Value());
      state.counts.assign(aggs_.size(), 0);
      states_.push_back(std::move(state));
    }
    AggState& state = states_[it->second];
    for (size_t i = 0; i < aggs_.size(); ++i) {
      const AggSpec& spec = aggs_[i];
      if (spec.kind == AggKind::kCountStar) {
        state.counts[i]++;
        continue;
      }
      Result<Value> v = spec.arg->Eval(row, ctx);
      if (!v.ok()) return v.status();
      if (v->is_null()) continue;
      state.counts[i]++;
      Value& acc = state.acc[i];
      switch (spec.kind) {
        case AggKind::kCount:
          break;
        case AggKind::kSum:
        case AggKind::kAvg:
          if (acc.is_null()) {
            acc = *v;
          } else if (acc.type() == TypeId::kDouble ||
                     v->type() == TypeId::kDouble) {
            acc = Value::Double(acc.AsDouble() + v->AsDouble());
          } else {
            acc = Value::Int64(acc.AsInt64() + v->AsInt64());
          }
          break;
        case AggKind::kMin:
          if (acc.is_null() || v->Compare(acc) < 0) acc = *v;
          break;
        case AggKind::kMax:
          if (acc.is_null() || v->Compare(acc) > 0) acc = *v;
          break;
        case AggKind::kCountStar:
          break;
      }
    }
  }
  // SQL: aggregate over an empty input with no GROUP BY yields one row.
  if (states_.empty() && group_exprs_.empty()) {
    AggState state;
    state.acc.assign(aggs_.size(), Value());
    state.counts.assign(aggs_.size(), 0);
    states_.push_back(std::move(state));
  }
  return Status::OK();
}

Result<bool> HashAggExecutor::Next(Row* out, const ExecContext&) {
  if (emit_pos_ >= states_.size()) return false;
  const AggState& state = states_[emit_pos_++];
  out->clear();
  for (const Value& g : state.group) out->push_back(g);
  for (size_t i = 0; i < aggs_.size(); ++i) {
    switch (aggs_[i].kind) {
      case AggKind::kCountStar:
      case AggKind::kCount:
        out->push_back(Value::Int64(state.counts[i]));
        break;
      case AggKind::kSum:
      case AggKind::kMin:
      case AggKind::kMax:
        out->push_back(state.acc[i]);
        break;
      case AggKind::kAvg:
        if (state.counts[i] == 0) {
          out->push_back(Value::Null(TypeId::kDouble));
        } else {
          out->push_back(Value::Double(state.acc[i].AsDouble() /
                                       static_cast<double>(state.counts[i])));
        }
        break;
    }
  }
  return true;
}

// ------------------------------------------------------------------- Sort

SortExecutor::SortExecutor(ExecutorPtr child, std::vector<SortKey> keys)
    : child_(std::move(child)), keys_(std::move(keys)) {
  schema_ = child_->schema();
}

Status SortExecutor::Init(const ExecContext& ctx) {
  rows_.clear();
  pos_ = 0;
  MTDB_RETURN_IF_ERROR(child_->Init(ctx));
  Row row;
  while (true) {
    MTDB_RETURN_IF_ERROR(ctx.CheckDeadline());
    Result<bool> more = child_->Next(&row, ctx);
    if (!more.ok()) return more.status();
    if (!*more) break;
    rows_.push_back(std::move(row));
  }
  Status sort_status;
  std::stable_sort(rows_.begin(), rows_.end(),
                   [&](const Row& a, const Row& b) {
                     for (const SortKey& k : keys_) {
                       Result<Value> va = k.expr->Eval(a, ctx);
                       Result<Value> vb = k.expr->Eval(b, ctx);
                       if (!va.ok() || !vb.ok()) {
                         if (sort_status.ok()) {
                           sort_status = va.ok() ? vb.status() : va.status();
                         }
                         return false;
                       }
                       int c = va->Compare(*vb);
                       if (c != 0) return k.descending ? c > 0 : c < 0;
                     }
                     return false;
                   });
  return sort_status;
}

Result<bool> SortExecutor::Next(Row* out, const ExecContext&) {
  if (pos_ >= rows_.size()) return false;
  *out = rows_[pos_++];
  return true;
}

// ------------------------------------------------------------------ Limit

LimitExecutor::LimitExecutor(ExecutorPtr child, int64_t limit, int64_t offset)
    : child_(std::move(child)), limit_(limit), offset_(offset) {
  schema_ = child_->schema();
}

Status LimitExecutor::Init(const ExecContext& ctx) {
  seen_ = 0;
  emitted_ = 0;
  return child_->Init(ctx);
}

Result<bool> LimitExecutor::Next(Row* out, const ExecContext& ctx) {
  while (true) {
    if (limit_ >= 0 && emitted_ >= limit_) return false;
    MTDB_ASSIGN_OR_RETURN(bool more, child_->Next(out, ctx));
    if (!more) return false;
    if (seen_++ < offset_) continue;
    emitted_++;
    return true;
  }
}

// --------------------------------------------------------------- Distinct

DistinctExecutor::DistinctExecutor(ExecutorPtr child)
    : child_(std::move(child)) {
  schema_ = child_->schema();
}

Status DistinctExecutor::Init(const ExecContext& ctx) {
  seen_.clear();
  return child_->Init(ctx);
}

Result<bool> DistinctExecutor::Next(Row* out, const ExecContext& ctx) {
  while (true) {
    MTDB_ASSIGN_OR_RETURN(bool more, child_->Next(out, ctx));
    if (!more) return false;
    std::string key;
    for (const Value& v : *out) KeyEncoder::Encode(v, &key);
    if (seen_.emplace(std::move(key), true).second) return true;
  }
}

// ----------------------------------------------------------------- Values

ValuesExecutor::ValuesExecutor(std::vector<std::vector<ExprPtr>> rows,
                               std::vector<std::string> names,
                               std::vector<TypeId> types)
    : rows_(std::move(rows)) {
  schema_.names = std::move(names);
  schema_.types = std::move(types);
}

Status ValuesExecutor::Init(const ExecContext&) {
  pos_ = 0;
  return Status::OK();
}

Result<bool> ValuesExecutor::Next(Row* out, const ExecContext& ctx) {
  if (pos_ >= rows_.size()) return false;
  const std::vector<ExprPtr>& exprs = rows_[pos_++];
  out->clear();
  for (const ExprPtr& e : exprs) {
    MTDB_ASSIGN_OR_RETURN(Value v, e->Eval(Row{}, ctx));
    out->push_back(std::move(v));
  }
  return true;
}

// ------------------------------------------------------------ Materialize

MaterializeExecutor::MaterializeExecutor(ExecutorPtr child)
    : child_(std::move(child)) {
  schema_ = child_->schema();
}

Status MaterializeExecutor::Init(const ExecContext& ctx) {
  pos_ = 0;
  if (materialized_) return Status::OK();
  MTDB_RETURN_IF_ERROR(child_->Init(ctx));
  Row row;
  while (true) {
    MTDB_RETURN_IF_ERROR(ctx.CheckDeadline());
    Result<bool> more = child_->Next(&row, ctx);
    if (!more.ok()) return more.status();
    if (!*more) break;
    rows_.push_back(std::move(row));
  }
  materialized_ = true;
  return Status::OK();
}

Result<bool> MaterializeExecutor::Next(Row* out, const ExecContext&) {
  if (pos_ >= rows_.size()) return false;
  *out = rows_[pos_++];
  return true;
}

}  // namespace mtdb
