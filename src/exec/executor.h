#ifndef MTDB_EXEC_EXECUTOR_H_
#define MTDB_EXEC_EXECUTOR_H_

#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "catalog/catalog.h"
#include "common/result.h"
#include "exec/expr.h"

namespace mtdb {

/// Names and types of the rows an executor produces.
struct OutputSchema {
  std::vector<std::string> names;
  std::vector<TypeId> types;

  size_t size() const { return names.size(); }
};

/// Volcano-style iterator. Init() may be called again to restart the
/// operator (used by nested-loop joins).
class Executor {
 public:
  virtual ~Executor() = default;

  virtual Status Init(const ExecContext& ctx) = 0;
  /// Produces the next row; returns false at end of stream.
  virtual Result<bool> Next(Row* out, const ExecContext& ctx) = 0;

  const OutputSchema& schema() const { return schema_; }

  /// RID of the most recently returned base-table row, when this executor
  /// is a base-table scan (used by UPDATE/DELETE); nullptr otherwise.
  virtual const Rid* current_rid() const { return nullptr; }

 protected:
  OutputSchema schema_;
};

using ExecutorPtr = std::unique_ptr<Executor>;

/// Full-table scan with an optional pushed-down predicate.
class SeqScanExecutor final : public Executor {
 public:
  SeqScanExecutor(TableInfo* table, ExprPtr predicate);
  Status Init(const ExecContext& ctx) override;
  Result<bool> Next(Row* out, const ExecContext& ctx) override;
  const Rid* current_rid() const override { return &rid_; }

 private:
  TableInfo* table_;
  ExprPtr predicate_;
  std::unique_ptr<TableHeap::Iterator> it_;
  Rid rid_;
};

/// B+Tree range scan: equality prefix + optional residual predicate.
/// The prefix expressions are evaluated once at Init (literals/params).
class IndexScanExecutor final : public Executor {
 public:
  IndexScanExecutor(TableInfo* table, const IndexInfo* index,
                    std::vector<ExprPtr> prefix_values, ExprPtr residual);
  Status Init(const ExecContext& ctx) override;
  Result<bool> Next(Row* out, const ExecContext& ctx) override;
  const Rid* current_rid() const override { return &rid_; }

 private:
  TableInfo* table_;
  const IndexInfo* index_;
  std::vector<ExprPtr> prefix_values_;
  ExprPtr residual_;
  std::unique_ptr<BTree::Iterator> it_;
  Rid rid_;
  std::string image_;  // the current row's heap image, reused across rows
};

class FilterExecutor final : public Executor {
 public:
  FilterExecutor(ExecutorPtr child, ExprPtr predicate);
  Status Init(const ExecContext& ctx) override;
  Result<bool> Next(Row* out, const ExecContext& ctx) override;
  const Rid* current_rid() const override { return child_->current_rid(); }

 private:
  ExecutorPtr child_;
  ExprPtr predicate_;
};

class ProjectExecutor final : public Executor {
 public:
  ProjectExecutor(ExecutorPtr child, std::vector<ExprPtr> exprs,
                  std::vector<std::string> names, std::vector<TypeId> types);
  Status Init(const ExecContext& ctx) override;
  Result<bool> Next(Row* out, const ExecContext& ctx) override;

 private:
  ExecutorPtr child_;
  std::vector<ExprPtr> exprs_;
};

/// Tuple-at-a-time nested-loop inner join (restarts the right child per
/// left row). The naive planner uses this together with materialization.
class NestedLoopJoinExecutor final : public Executor {
 public:
  NestedLoopJoinExecutor(ExecutorPtr left, ExecutorPtr right, ExprPtr predicate);
  Status Init(const ExecContext& ctx) override;
  Result<bool> Next(Row* out, const ExecContext& ctx) override;

 private:
  ExecutorPtr left_, right_;
  ExprPtr predicate_;
  Row left_row_;
  bool have_left_ = false;
};

/// Index nested-loop join: for each left row, evaluates the key
/// expressions over it and probes the right table's index.
class IndexNestedLoopJoinExecutor final : public Executor {
 public:
  IndexNestedLoopJoinExecutor(ExecutorPtr left, TableInfo* right,
                              const IndexInfo* right_index,
                              std::vector<ExprPtr> key_exprs, ExprPtr residual);
  Status Init(const ExecContext& ctx) override;
  Result<bool> Next(Row* out, const ExecContext& ctx) override;

 private:
  Result<bool> AdvanceLeft(const ExecContext& ctx);

  ExecutorPtr left_;
  TableInfo* right_;
  const IndexInfo* right_index_;
  std::vector<ExprPtr> key_exprs_;
  ExprPtr residual_;
  Row left_row_;
  std::vector<Rid> matches_;
  size_t match_pos_ = 0;
  bool have_left_ = false;
};

/// Merge inner join on one equality key. The left input is ordered on
/// `left_key`; the right input is an index partition scan ordered on
/// `right_key`. Keys compare by their memcomparable encoding, the order
/// the index keeps them in, and NULL keys never match. Each right run of
/// equal keys is buffered, so duplicate keys on either side join fully;
/// the output is in the left input's order, row for row what an index
/// nested-loop join over the same index returns. A left key below its
/// predecessor is an Internal error: the planner promised an order.
class MergeJoinExecutor final : public Executor {
 public:
  MergeJoinExecutor(ExecutorPtr left, ExecutorPtr right, ExprPtr left_key,
                    ExprPtr right_key);
  Status Init(const ExecContext& ctx) override;
  Result<bool> Next(Row* out, const ExecContext& ctx) override;

 private:
  /// Reads the next right row with a non-NULL key into right_row_ and
  /// right_key_bytes_; clears right_valid_ at the end of the right input.
  Status AdvanceRight(const ExecContext& ctx);

  ExecutorPtr left_, right_;
  ExprPtr left_key_, right_key_;
  Row left_row_;
  std::string left_key_bytes_;
  Row right_row_;
  std::string right_key_bytes_;
  bool right_valid_ = false;
  std::vector<Row> group_;  // right rows whose key is group_key_
  std::string group_key_;   // the last left key; empty before the first
  size_t group_pos_ = 0;
};

/// Hash inner join; builds on the right input.
class HashJoinExecutor final : public Executor {
 public:
  HashJoinExecutor(ExecutorPtr left, ExecutorPtr right,
                   std::vector<ExprPtr> left_keys, std::vector<ExprPtr> right_keys,
                   ExprPtr residual);
  Status Init(const ExecContext& ctx) override;
  Result<bool> Next(Row* out, const ExecContext& ctx) override;

 private:
  ExecutorPtr left_, right_;
  std::vector<ExprPtr> left_keys_, right_keys_;
  ExprPtr residual_;
  std::unordered_multimap<std::string, Row> table_;
  Row left_row_;
  std::pair<std::unordered_multimap<std::string, Row>::iterator,
            std::unordered_multimap<std::string, Row>::iterator>
      range_;
  bool have_left_ = false;
};

enum class AggKind { kCountStar, kCount, kSum, kAvg, kMin, kMax };

struct AggSpec {
  AggKind kind;
  ExprPtr arg;  // null for COUNT(*)
  std::string name;
};

/// Hash aggregation. Output = group exprs followed by aggregates.
class HashAggExecutor final : public Executor {
 public:
  HashAggExecutor(ExecutorPtr child, std::vector<ExprPtr> group_exprs,
                  std::vector<AggSpec> aggs, std::vector<std::string> names,
                  std::vector<TypeId> types);
  Status Init(const ExecContext& ctx) override;
  Result<bool> Next(Row* out, const ExecContext& ctx) override;

 private:
  struct AggState {
    Row group;
    std::vector<Value> acc;
    std::vector<int64_t> counts;
  };

  ExecutorPtr child_;
  std::vector<ExprPtr> group_exprs_;
  std::vector<AggSpec> aggs_;
  std::vector<AggState> states_;
  size_t emit_pos_ = 0;
};

struct SortKey {
  ExprPtr expr;
  bool descending = false;
};

class SortExecutor final : public Executor {
 public:
  SortExecutor(ExecutorPtr child, std::vector<SortKey> keys);
  Status Init(const ExecContext& ctx) override;
  Result<bool> Next(Row* out, const ExecContext& ctx) override;

 private:
  ExecutorPtr child_;
  std::vector<SortKey> keys_;
  std::vector<Row> rows_;
  size_t pos_ = 0;
};

class LimitExecutor final : public Executor {
 public:
  LimitExecutor(ExecutorPtr child, int64_t limit, int64_t offset);
  Status Init(const ExecContext& ctx) override;
  Result<bool> Next(Row* out, const ExecContext& ctx) override;

 private:
  ExecutorPtr child_;
  int64_t limit_, offset_;
  int64_t seen_ = 0, emitted_ = 0;
};

/// Hash-based duplicate elimination over the full row (SELECT DISTINCT).
class DistinctExecutor final : public Executor {
 public:
  explicit DistinctExecutor(ExecutorPtr child);
  Status Init(const ExecContext& ctx) override;
  Result<bool> Next(Row* out, const ExecContext& ctx) override;

 private:
  ExecutorPtr child_;
  std::unordered_map<std::string, bool> seen_;
};

/// Literal rows (INSERT ... VALUES and tests).
class ValuesExecutor final : public Executor {
 public:
  ValuesExecutor(std::vector<std::vector<ExprPtr>> rows,
                 std::vector<std::string> names, std::vector<TypeId> types);
  Status Init(const ExecContext& ctx) override;
  Result<bool> Next(Row* out, const ExecContext& ctx) override;

 private:
  std::vector<std::vector<ExprPtr>> rows_;
  size_t pos_ = 0;
};

/// Fully materializes its child at Init. The naive optimizer wraps every
/// derived table in one of these — the §6.2 Test 1 behaviour where
/// MySQL "will first generate the full relation before applying any
/// filtering predicates".
class MaterializeExecutor final : public Executor {
 public:
  explicit MaterializeExecutor(ExecutorPtr child);
  Status Init(const ExecContext& ctx) override;
  Result<bool> Next(Row* out, const ExecContext& ctx) override;

 private:
  ExecutorPtr child_;
  std::vector<Row> rows_;
  size_t pos_ = 0;
  bool materialized_ = false;
};

/// Encodes an equi-join key into `key`: the memcomparable encoding of
/// each of `exprs` over `row`, the bytes an index on those columns keeps.
/// False when any part is NULL — NULL = NULL is not true, so the row joins
/// nothing. The index nested-loop, merge and hash joins all key through
/// here.
Result<bool> JoinKeyOf(std::span<const ExprPtr> exprs, const Row& row,
                       const ExecContext& ctx, std::string* key);

/// Encodes group keys for hashing; NULLs form one group, unlike join keys.
std::string HashKeyOf(const std::vector<ExprPtr>& exprs, const Row& row,
                      const ExecContext& ctx, Status* status);

}  // namespace mtdb

#endif  // MTDB_EXEC_EXECUTOR_H_
