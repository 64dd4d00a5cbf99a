#ifndef MTDB_COMMON_LATCH_H_
#define MTDB_COMMON_LATCH_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

namespace mtdb {

/// Static rank of every latch in the engine. Acquisition must descend:
/// a thread may acquire a latch only while every latch it already holds
/// has a strictly *higher* rank (outermost = highest). Equal-rank
/// acquisition is legal only at instance-ordered ranks (kTableIndex,
/// kTenantRow) with strictly ascending order keys; equal-rank latches
/// without order keys may nest freely but feed the lockdep acquisition
/// graph, whose cycle detection catches cross-thread ABBA patterns.
///
/// The numeric gaps leave room for future layers. The full table, with
/// who owns each rank, is documented in DESIGN.md §11. Note the
/// deliberate deviations from a naive reading of the module layering:
///  * kCatalog sits BELOW kTableIndex: the planner and the statement
///    executors resolve tables through the catalog while already holding
///    table latches (safe because DDL — the only catalog writer — is
///    excluded for the statement's duration by the kDdl latch).
///  * kWal sits below kTableIndex: the durability contract appends a
///    statement's redo group while its exclusive table latches are still
///    held, so the log order matches memory order per table.
///  * kLockShard/kLockWaitGraph sit ABOVE kMappingCache so a blocked
///    acquisition (which parks on the shard's condvar with the shard
///    latch released) can never pin a mapping-layer latch.
///  * kDdl is the one checkpoint exclusion: a checkpoint takes it
///    exclusively, and txn-record appends take it shared. An automatic
///    checkpoint fired by lazy DDL under the mapping cache latch nests
///    kDdl below kMappingCache, as that DDL itself does.
enum class LatchRank : uint8_t {
  kPageStore = 0,        // PageStore::mu_ (innermost)
  kMetricsRegistry = 5,  // MetricsRegistry::mu_ (leaf: never calls out)
  kTenantBreaker = 8,    // TenantEntry circuit breaker (leaf: never calls out)
  kBufferShard = 10,     // BufferPool::Shard::mu
  kBufferCapacity = 20,  // BufferPool::capacity_mu_
  kWal = 30,             // Durability::mu_ (append + lsn assignment)
  kCatalog = 40,         // Catalog::mu_
  kTxnRegistry = 45,     // Database::txn_registry_mu_ (open client txns)
  kPage = 50,            // reserved for page-level latches (none yet)
  kTableIndex = 60,      // TableHeap/BTree latches; ordered by TableId
  kDdl = 70,             // Database::ddl_mu_
  kMappingTableNum = 80,   // SchemaMapping::table_number_mu_
  kMappingCache = 90,      // SchemaMapping::cache_mu_
  kTenantRow = 100,        // TenantEntry::row_mu; ordered by TenantId
  kLockWaitGraph = 103,    // LockManager::graph_mu_ (parked holders, wait-for graph)
  kLockShard = 106,        // LockManager shard latches (hash-partitioned)
  kMappingLayer = 120,     // SchemaMapping::layer_mu_
  kAdmission = 125,        // AdmissionController::mu_ (outermost)
};

const char* LatchRankName(LatchRank rank);

/// Order-key sentinel: the latch participates in rank checking but not
/// in same-rank instance ordering (see LatchRank).
inline constexpr uint64_t kLatchUnordered = ~0ull;

namespace lockdep {

/// One recorded violation. rule_id is from the C2xx/C3xx catalog
/// (analysis/diagnostic.h); src/analysis/lockdep.h re-renders these as
/// analysis::Diagnostic.
struct Violation {
  std::string rule_id;
  std::string location;
  std::string message;
  /// Symbolized acquisition backtraces (current site, plus the held
  /// latch's acquisition site where relevant). Empty when backtrace
  /// capture is disabled (MTDB_LOCKDEP_BACKTRACE=0).
  std::string backtrace;
};

/// True when the validator is compiled into this build (MTDB_LOCKDEP).
bool CompiledIn();

#if MTDB_LOCKDEP

/// Identity carried by every instrumented latch.
struct LatchInfo {
  LatchInfo(LatchRank r, const char* n);
  const uint64_t id;
  const LatchRank rank;
  const char* const name;
  std::atomic<uint64_t> key{kLatchUnordered};
};

/// Pre-acquisition hook: runs the rank/order/cycle checks and pushes the
/// latch onto the calling thread's held stack.
void OnAcquire(const LatchInfo& info, bool shared);
/// Pre-release hook: pops the stack (C205 if not held) and runs the
/// capture-leak check (C302) on exclusive statement-level releases.
void OnRelease(const LatchInfo& info);

/// WAL-protocol hooks (instrumented builds; see DESIGN.md §11). The
/// buffer pool reports page mutations, the engine reports capture
/// commits; `capture` is an opaque identity (the PageMutationCapture*).
/// `write_intent` is false when a page was dirtied without the capture
/// holding its before-image (C304).
void ReportUnloggedMutation(const char* op, uint64_t page_id);  // C301
void OnCapturedMutation(const void* capture, uint64_t page_id,
                        bool write_intent);
void OnCaptureCommit(const void* capture);  // clears pending, checks C303

/// Fatal mode: print every violation (with backtraces) and abort() at
/// the first one. Defaults to the MTDB_LOCKDEP_FATAL environment
/// variable; tests that seed violations turn it off explicitly.
void SetFatal(bool fatal);

/// Returns all violations recorded since the last Drain and clears the
/// registry. Duplicate sites are collapsed; `TotalViolations` counts
/// every occurrence.
std::vector<Violation> Drain();
uint64_t TotalViolations();

#else  // !MTDB_LOCKDEP — every hook compiles away.

inline void ReportUnloggedMutation(const char*, uint64_t) {}
inline void OnCapturedMutation(const void*, uint64_t, bool) {}
inline void OnCaptureCommit(const void*) {}
inline void SetFatal(bool) {}
inline std::vector<Violation> Drain() { return {}; }
inline uint64_t TotalViolations() { return 0; }

#endif  // MTDB_LOCKDEP

}  // namespace lockdep

/// Ranked exclusive latch: a std::mutex carrying a static LatchRank and
/// an optional instance order key. Release builds compile down to the
/// raw primitive (the rank/name arguments are discarded); MTDB_LOCKDEP
/// builds feed every acquisition through the lockdep validator.
class Latch {
 public:
#if MTDB_LOCKDEP
  Latch(LatchRank rank, const char* name) : info_(rank, name) {}
#else
  Latch(LatchRank rank, const char* name) {
    (void)rank;
    (void)name;
  }
#endif

  Latch(const Latch&) = delete;
  Latch& operator=(const Latch&) = delete;

  /// Sets the same-rank ordering key (e.g. the TenantId). Call before
  /// the latch sees concurrent traffic. No-op in release builds.
  void SetOrderKey(uint64_t key) {
#if MTDB_LOCKDEP
    info_.key.store(key, std::memory_order_relaxed);
#else
    (void)key;
#endif
  }

  void lock() {
#if MTDB_LOCKDEP
    lockdep::OnAcquire(info_, /*shared=*/false);
#endif
    mu_.lock();
  }

  bool try_lock() {
    if (!mu_.try_lock()) return false;
#if MTDB_LOCKDEP
    lockdep::OnAcquire(info_, /*shared=*/false);
#endif
    return true;
  }

  void unlock() {
#if MTDB_LOCKDEP
    lockdep::OnRelease(info_);
#endif
    mu_.unlock();
  }

 private:
  std::mutex mu_;
#if MTDB_LOCKDEP
  lockdep::LatchInfo info_;
#endif
};

/// Ranked reader/writer latch over std::shared_mutex. Shared and
/// exclusive acquisitions follow the same rank rules (the validator is
/// conservative: a shared acquisition out of order is reported even
/// though it may not deadlock under today's writer set).
class SharedLatch {
 public:
#if MTDB_LOCKDEP
  SharedLatch(LatchRank rank, const char* name) : info_(rank, name) {}
#else
  SharedLatch(LatchRank rank, const char* name) {
    (void)rank;
    (void)name;
  }
#endif

  SharedLatch(const SharedLatch&) = delete;
  SharedLatch& operator=(const SharedLatch&) = delete;

  void SetOrderKey(uint64_t key) {
#if MTDB_LOCKDEP
    info_.key.store(key, std::memory_order_relaxed);
#else
    (void)key;
#endif
  }

  void lock() {
#if MTDB_LOCKDEP
    lockdep::OnAcquire(info_, /*shared=*/false);
#endif
    mu_.lock();
  }

  bool try_lock() {
    if (!mu_.try_lock()) return false;
#if MTDB_LOCKDEP
    lockdep::OnAcquire(info_, /*shared=*/false);
#endif
    return true;
  }

  void unlock() {
#if MTDB_LOCKDEP
    lockdep::OnRelease(info_);
#endif
    mu_.unlock();
  }

  void lock_shared() {
#if MTDB_LOCKDEP
    lockdep::OnAcquire(info_, /*shared=*/true);
#endif
    mu_.lock_shared();
  }

  bool try_lock_shared() {
    if (!mu_.try_lock_shared()) return false;
#if MTDB_LOCKDEP
    lockdep::OnAcquire(info_, /*shared=*/true);
#endif
    return true;
  }

  void unlock_shared() {
#if MTDB_LOCKDEP
    lockdep::OnRelease(info_);
#endif
    mu_.unlock_shared();
  }

 private:
  std::shared_mutex mu_;
#if MTDB_LOCKDEP
  lockdep::LatchInfo info_;
#endif
};

}  // namespace mtdb

#endif  // MTDB_COMMON_LATCH_H_
