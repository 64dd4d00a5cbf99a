#ifndef MTDB_ENGINE_SESSION_H_
#define MTDB_ENGINE_SESSION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/deadline.h"
#include "common/result.h"
#include "common/trace.h"
#include "engine/database.h"
#include "engine/txn_context.h"
#include "sql/ast.h"

namespace mtdb {

/// A parsed statement ready for repeated execution with different bind
/// parameters (parse once, execute many). Produced by Session::Prepare;
/// immutable after construction, so one PreparedStatement may be shared
/// by several sessions.
class PreparedStatement {
 public:
  PreparedStatement() = default;

  const sql::Statement& statement() const { return stmt_; }
  bool is_select() const {
    return stmt_.kind == sql::StatementKind::kSelect;
  }

 private:
  friend class Session;
  explicit PreparedStatement(sql::Statement stmt) : stmt_(std::move(stmt)) {}
  sql::Statement stmt_;
};

/// The client front door: a lightweight per-worker handle that groups
/// the statements of one logical connection. Sessions are cheap to open
/// (Database::OpenSession, SchemaMapping::OpenSession), movable, and
/// independent — any number may execute concurrently; the engine latches
/// per statement only what that statement touches.
///
/// A Session itself is NOT thread-safe: it belongs to one worker thread
/// at a time, exactly like a SQL connection. Open one per thread.
///
/// Every statement passes one pipeline: parse once, route BEGIN /
/// COMMIT / ROLLBACK by the parsed kind, install the deadline, open the
/// trace root, gate against the open transaction, admit under the
/// session's tenant, run on the executor, classify a failure inside a
/// transaction (abort or poison) and count deadline expiries. Only the
/// executor differs between front doors: the engine runs physical SQL,
/// a tenant session (mapping::TenantSession) runs its layout.
class Session {
 public:
  using Params = std::vector<Value>;

  Session() = default;
  /// A session whose statements run on `executor` for `tenant`; `label`
  /// names the layout in trace series ("engine" below the mapping layer).
  Session(Database* db, StatementExecutor* executor, TenantId tenant,
          std::string label);

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;
  Session(Session&&) = default;
  Session& operator=(Session&&) = default;

  /// Executes one SQL string. SELECTs yield a QueryResult; everything
  /// else yields the affected-row count (DDL reports 0); EXPLAIN
  /// MAPPING yields a MappingExplanation. An active `deadline` cancels
  /// the statement at the next cooperative check once it passes,
  /// returning kDeadlineExceeded with any partial writes rolled back; an
  /// inactive one inherits any ambient deadline already installed.
  Result<StatementResult> Execute(const std::string& sql,
                                  const Params& params = {},
                                  deadline::Deadline deadline = {});

  /// Executes an already-parsed statement.
  Result<StatementResult> Execute(const sql::Statement& stmt,
                                  const Params& params = {},
                                  deadline::Deadline deadline = {});

  /// Executes a prepared statement with fresh bind parameters.
  Result<StatementResult> Execute(const PreparedStatement& prepared,
                                  const Params& params = {},
                                  deadline::Deadline deadline = {});

  /// Parses `sql` once for repeated execution.
  Result<PreparedStatement> Prepare(const std::string& sql) const;

  /// Client transaction control, equivalent to executing "BEGIN" /
  /// "COMMIT" / "ROLLBACK" through Execute. Between Begin() and
  /// Commit()/Rollback() every DML statement's undo records (its rows'
  /// rids and images) accumulate in a session transaction; Rollback()
  /// reverts them newest-first and a crash before the commit record
  /// reaches the WAL undoes the whole transaction during recovery.
  /// Statements inside a transaction are still admitted individually —
  /// an open transaction holds no admission slot, no latch, and no open
  /// WAL handle between statements. A failed statement poisons the
  /// transaction (only ROLLBACK is accepted afterwards); a deadline
  /// expiry, admission rejection, breaker trip or deadlock abort
  /// mid-transaction rolls it back automatically, after which ROLLBACK
  /// acknowledges the abort. DDL is rejected inside a transaction with
  /// kFailedPrecondition. An open transaction is rolled back when the
  /// session is destroyed.
  Status Begin();
  Status Commit();
  Status Rollback();
  bool in_transaction() const { return txn_ != nullptr; }

  /// SELECT-only convenience: unwraps the rows alternative. Any other
  /// statement is rejected with kInvalidArgument before it runs.
  Result<QueryResult> Query(const std::string& sql, const Params& params = {},
                            deadline::Deadline deadline = {});

  /// Direct row insert (bulk loaders), through the same pipeline as
  /// every statement; returns the rows inserted.
  Result<int64_t> InsertRow(const std::string& table, const Row& row,
                            deadline::Deadline deadline = {});

  Database* database() const { return db_; }
  TenantId tenant() const { return tenant_; }
  explicit operator bool() const { return db_ != nullptr; }

  /// Statements this session has executed (its "statement grouping"),
  /// transaction control included; a string that fails to parse is not
  /// a statement. Workload drivers read this instead of keeping their
  /// own tallies.
  uint64_t statements_executed() const { return statements_; }

  /// Turns per-statement tracing on (or off) for this session. Traced
  /// statements aggregate into the database's metrics registry under
  /// (tenant, label, statement kind); the most recent span tree is kept
  /// on tracer(). Disabled sessions pay one null check per statement.
  /// MTDB_TRACE=1 forces it on for every new session.
  void EnableTracing(bool on = true);
  trace::StatementTracer* tracer() { return tracer_.get(); }

 private:
  /// The statement pipeline after transaction control: `run` is the
  /// executor call for a statement of `kind`.
  template <typename Fn>
  auto Pipeline(sql::StatementKind kind, deadline::Deadline deadline,
                Fn&& run) -> decltype(run());

  Database* db_ = nullptr;
  StatementExecutor* executor_ = nullptr;
  TenantId tenant_ = kEngineTenant;
  std::string label_;
  uint64_t statements_ = 0;
  std::unique_ptr<trace::StatementTracer> tracer_;
  std::unique_ptr<txn::TransactionContext> txn_;
};

}  // namespace mtdb

#endif  // MTDB_ENGINE_SESSION_H_
