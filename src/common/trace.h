#ifndef MTDB_COMMON_TRACE_H_
#define MTDB_COMMON_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics_registry.h"

namespace mtdb::trace {

/// Per-span I/O attribution deltas. Plain integers: a span belongs to
/// exactly one session thread, and the storage hooks below only touch
/// the tracer installed on the current thread.
struct SpanIo {
  uint64_t pool_hits = 0;
  uint64_t pool_misses = 0;
  uint64_t physical_reads = 0;
  uint64_t physical_writes = 0;
  uint64_t wal_bytes = 0;

  SpanIo& operator+=(const SpanIo& o) {
    pool_hits += o.pool_hits;
    pool_misses += o.pool_misses;
    physical_reads += o.physical_reads;
    physical_writes += o.physical_writes;
    wal_bytes += o.wal_bytes;
    return *this;
  }
};

/// One node of a statement's span tree. The root span covers the whole
/// logical statement; children are the physical statements the mapping
/// layer emitted plus engine-side work (page fetches roll up into io).
struct Span {
  std::string name;
  uint64_t elapsed_ns = 0;
  SpanIo io;  // own I/O only; TotalIo() folds in children
  std::vector<std::unique_ptr<Span>> children;

  SpanIo TotalIo() const;
};

/// A completed trace of one logical statement.
struct StatementTrace {
  int64_t tenant = -1;
  std::string layout;  // layout name, or "engine" for raw sessions
  std::string kind;    // lowercase statement kind: select/insert/...
  bool ok = true;
  std::unique_ptr<Span> root;
};

/// Per-session statement tracer. Not thread-safe: a tracer belongs to
/// one session and is installed on the executing thread for the
/// duration of each statement (TracerScope). On EndStatement the span
/// tree is aggregated into the registry per (tenant, layout, kind):
///
///   stmt.count.<layout>.<kind>.t<tenant>          counter
///   stmt.errors.<layout>.<kind>.t<tenant>         counter
///   stmt.pool_hits / pool_misses / pages_read /
///        pages_written / wal_bytes.<...>          counters
///   stmt.latency_us.<layout>.<kind>.t<tenant>     histogram
///
/// Cardinality is bounded twice: the tracer caches at most
/// kMaxSeriesKeys distinct (tenant, layout, kind) keys (beyond that the
/// tenant label collapses to "other"), and the registry itself caps
/// total series.
class StatementTracer {
 public:
  static constexpr size_t kMaxSeriesKeys = 64;

  explicit StatementTracer(MetricsRegistry* registry) : registry_(registry) {}

  StatementTracer(const StatementTracer&) = delete;
  StatementTracer& operator=(const StatementTracer&) = delete;

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Opens the root span for a logical statement. No-op while disabled
  /// or when a statement is already open (nested logical statements do
  /// not occur; the guard makes misuse harmless).
  void BeginStatement(int64_t tenant, std::string layout, std::string kind);

  /// Closes the root span, aggregates into the registry, and retires
  /// the trace to last().
  void EndStatement(bool ok);

  /// Opens a transaction grouping (client BEGIN). While one is open,
  /// every completed statement aggregates under "<kind>.txn" series
  /// instead of "<kind>" — autocommit series names are untouched — and
  /// contributes a summary child span to the transaction's parent span.
  /// No-op while disabled or when a transaction is already open.
  void BeginTransaction(int64_t tenant, std::string layout);

  /// Closes the transaction grouping (COMMIT/ROLLBACK/abort), aggregates
  /// it into the registry under the "txn" kind, and retires the parent
  /// span tree to last_transaction(). `ok` means committed.
  void EndTransaction(bool ok);

  bool in_transaction() const { return txn_ != nullptr; }

  /// Opens a child span under the innermost open span. Safe no-op when
  /// no statement is open.
  void BeginSpan(std::string name);
  void EndSpan();

  /// Storage-attribution hooks, called via the free functions below.
  void OnPoolHit() {
    if (current_) current_->io.pool_hits++;
  }
  void OnPoolMiss() {
    if (current_) current_->io.pool_misses++;
  }
  void OnPhysicalRead() {
    if (current_) current_->io.physical_reads++;
  }
  void OnPhysicalWrite() {
    if (current_) current_->io.physical_writes++;
  }
  void OnWalBytes(uint64_t n) {
    if (current_) current_->io.wal_bytes += n;
  }

  /// The most recently completed statement trace (nullptr before any).
  const StatementTrace* last() const { return last_.get(); }
  /// Renders last() as an indented span tree, for debugging and the
  /// observability tests.
  std::string DumpLast() const;

  /// The most recently completed transaction trace (nullptr before
  /// any): root span "txn" with one summary child per statement.
  const StatementTrace* last_transaction() const { return last_txn_.get(); }

  uint64_t statements_traced() const { return statements_traced_; }

 private:
  struct SeriesPtrs {
    Counter* count = nullptr;
    Counter* errors = nullptr;
    Counter* pool_hits = nullptr;
    Counter* pool_misses = nullptr;
    Counter* pages_read = nullptr;
    Counter* pages_written = nullptr;
    Counter* wal_bytes = nullptr;
    LatencyHistogram* latency = nullptr;
  };

  SeriesPtrs* SeriesFor(int64_t tenant, const std::string& layout,
                        const std::string& kind);

  MetricsRegistry* registry_;
  bool enabled_ = false;
  std::unique_ptr<StatementTrace> open_;
  std::vector<Span*> stack_;       // innermost last; root at [0]
  Span* current_ = nullptr;        // == stack_.back() or nullptr
  std::chrono::steady_clock::time_point started_;
  std::vector<std::chrono::steady_clock::time_point> span_started_;
  std::unique_ptr<StatementTrace> last_;
  std::unique_ptr<StatementTrace> txn_;  // open transaction grouping
  std::chrono::steady_clock::time_point txn_started_;
  std::unique_ptr<StatementTrace> last_txn_;
  std::map<std::string, SeriesPtrs> series_;  // bounded by kMaxSeriesKeys
  uint64_t statements_traced_ = 0;
};

namespace internal {
/// The tracer installed on this thread for the statement in flight.
/// Null almost always — the disabled fast path in the hooks below is a
/// thread-local load plus branch.
extern thread_local StatementTracer* tls_tracer;
}  // namespace internal

/// Installs a tracer on the current thread for one statement's
/// execution. The session pipeline holds one of these around the
/// statement so storage-layer hooks attribute I/O to it.
class TracerScope {
 public:
  explicit TracerScope(StatementTracer* tracer)
      : prev_(internal::tls_tracer) {
    internal::tls_tracer = tracer;
  }
  ~TracerScope() { internal::tls_tracer = prev_; }
  TracerScope(const TracerScope&) = delete;
  TracerScope& operator=(const TracerScope&) = delete;

 private:
  StatementTracer* prev_;
};

/// Opens a child span when a tracer is active on this thread; otherwise
/// costs one thread-local load. `op` and `detail` are concatenated
/// lazily — the string is only built when tracing.
class SpanScope {
 public:
  SpanScope(const char* op, const std::string& detail)
      : tracer_(internal::tls_tracer) {
    if (tracer_) tracer_->BeginSpan(detail.empty()
                                        ? std::string(op)
                                        : std::string(op) + " " + detail);
  }
  explicit SpanScope(const char* op) : tracer_(internal::tls_tracer) {
    if (tracer_) tracer_->BeginSpan(op);
  }
  ~SpanScope() {
    if (tracer_) tracer_->EndSpan();
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  StatementTracer* tracer_;
};

/// Storage-layer attribution hooks. Inline: disabled cost is one
/// thread-local load and branch.
inline void OnPoolHit() {
  if (internal::tls_tracer) internal::tls_tracer->OnPoolHit();
}
inline void OnPoolMiss() {
  if (internal::tls_tracer) internal::tls_tracer->OnPoolMiss();
}
inline void OnPhysicalRead() {
  if (internal::tls_tracer) internal::tls_tracer->OnPhysicalRead();
}
inline void OnPhysicalWrite() {
  if (internal::tls_tracer) internal::tls_tracer->OnPhysicalWrite();
}
inline void OnWalBytes(uint64_t n) {
  if (internal::tls_tracer) internal::tls_tracer->OnWalBytes(n);
}

/// True when the MTDB_TRACE environment variable is set non-empty and
/// not "0": sessions then open with tracing already enabled (the CI
/// trace-forced job sets it for the whole suite).
bool TracingForced();

}  // namespace mtdb::trace

#endif  // MTDB_COMMON_TRACE_H_
