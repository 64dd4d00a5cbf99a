#ifndef MTDB_CORE_TENANT_SESSION_H_
#define MTDB_CORE_TENANT_SESSION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/deadline.h"
#include "common/trace.h"
#include "core/layout.h"
#include "engine/session.h"
#include "sql/parser.h"

namespace mtdb {
namespace mapping {

/// The mapping layer's client front door: a lightweight per-worker
/// handle bound to one tenant of one layout. Testbed workers and
/// examples hold one per thread; any number may execute concurrently
/// against the shared layout.
///
/// It holds an engine Session whose executor is the layout, so every
/// statement takes the one Session pipeline (transaction control,
/// deadline, tracing, transaction gate, admission under this tenant's
/// id) and only the execution step differs: the layout rewrites the
/// logical statement onto its physical tables. The Session is held, not
/// inherited — a tenant session never accepts physical SQL.
///
/// Like an engine Session, a TenantSession is NOT itself thread-safe —
/// it belongs to one worker thread at a time.
class TenantSession {
 public:
  TenantSession() = default;

  /// Runs a logical SELECT for this session's tenant; any other
  /// statement is rejected with kInvalidArgument before it runs. An
  /// active `deadline` bounds the statement: it is cancelled
  /// cooperatively and returns kDeadlineExceeded once the deadline
  /// passes (an inactive deadline inherits any ambient one). Every
  /// statement also passes through the engine's admission controller
  /// under this tenant's id — rate-limited or overloaded tenants get
  /// kResourceExhausted with a retry_after_ms hint instead of executing.
  Result<QueryResult> Query(const std::string& sql,
                            const std::vector<Value>& params = {},
                            deadline::Deadline deadline = {}) {
    return session_.Query(sql, params, deadline);
  }

  /// Runs logical INSERT/UPDATE/DELETE; returns affected logical rows.
  /// Deadline/admission semantics as on Query; a deadline expiring
  /// mid-statement rolls back the partial physical writes. Also accepts
  /// BEGIN/COMMIT/ROLLBACK (returning 0 rows), routed to the
  /// transaction methods below.
  Result<int64_t> Execute(const std::string& sql,
                          const std::vector<Value>& params = {},
                          deadline::Deadline deadline = {}) {
    if (!session_) return Status::InvalidArgument("session is closed");
    MTDB_ASSIGN_OR_RETURN(sql::Statement stmt, sql::Parse(sql));
    if (stmt.kind == sql::StatementKind::kSelect ||
        stmt.kind == sql::StatementKind::kExplainMapping) {
      return Status::InvalidArgument(
          "Execute() returns no rows; use Query() or Explain()");
    }
    MTDB_ASSIGN_OR_RETURN(StatementResult res,
                          session_.Execute(stmt, params, deadline));
    return AffectedOf(res);
  }

  /// Direct structured insert (bulk loaders): values in the tenant's
  /// effective column order; missing trailing columns NULL.
  Result<int64_t> InsertRow(const std::string& table, const Row& row,
                            deadline::Deadline deadline = {}) {
    return session_.InsertRow(table, row, deadline);
  }

  /// Client transaction control (see Session::Begin): between Begin()
  /// and Commit()/Rollback() the engine's undo records for every logical
  /// statement accumulate in one cross-statement undo log, and a crash
  /// before COMMIT's end record undoes the transaction on recovery.
  Status Begin() { return session_.Begin(); }
  Status Commit() { return session_.Commit(); }
  Status Rollback() { return session_.Rollback(); }
  bool in_transaction() const { return session_.in_transaction(); }

  /// Returns the transformed physical SQL (for inspection/examples).
  Result<std::string> ShowTransformed(const std::string& sql) {
    if (layout_ == nullptr) return Status::InvalidArgument("session is closed");
    return layout_->ShowTransformed(tenant(), sql);
  }

  /// EXPLAIN MAPPING front door: reports the physical statements the
  /// logical statement maps to without executing them. Accepts either a
  /// bare statement or the "EXPLAIN MAPPING <stmt>" form.
  Result<MappingExplanation> Explain(const std::string& sql,
                                     const std::vector<Value>& params = {}) {
    if (layout_ == nullptr) return Status::InvalidArgument("session is closed");
    return layout_->ExplainMapping(tenant(), sql, params);
  }

  /// Per-session statement tracing (see common/trace.h): spans and I/O
  /// attribution aggregate into the engine's metrics registry under
  /// (tenant, layout, statement-kind). Off by default; MTDB_TRACE=1
  /// forces it on for every new session.
  void EnableTracing(bool on = true) { session_.EnableTracing(on); }
  trace::StatementTracer* tracer() { return session_.tracer(); }

  TenantId tenant() const { return session_.tenant(); }
  SchemaMapping* layout() const { return layout_; }
  explicit operator bool() const { return layout_ != nullptr; }

  /// Statements this session has executed.
  uint64_t statements_executed() const {
    return session_.statements_executed();
  }

 private:
  friend class SchemaMapping;
  TenantSession(SchemaMapping* layout, StatementExecutor* executor,
                TenantId tenant)
      : layout_(layout),
        session_(layout->db(), executor, tenant, layout->name()) {}

  SchemaMapping* layout_ = nullptr;
  Session session_;
};

}  // namespace mapping
}  // namespace mtdb

#endif  // MTDB_CORE_TENANT_SESSION_H_
