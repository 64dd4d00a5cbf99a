#ifndef MTDB_ENGINE_LOCK_MANAGER_H_
#define MTDB_ENGINE_LOCK_MANAGER_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/latch.h"
#include "common/metrics_registry.h"
#include "common/status.h"

namespace mtdb {
namespace lock {

/// Row id sentinel addressing the table itself (intent locks and the
/// whole-table X fallback of layouts without row ids).
inline constexpr int64_t kTableRowId = -1;

/// Lock modes. The manager implements write isolation only, so the
/// matrix is small: row locks are always kX; table locks are kIntentX
/// (compatible with other intents) or kX (compatible with nothing).
enum class LockMode : uint8_t { kIntentX = 0, kX = 1 };

/// Logical lock identity: the mapping layer locks the *logical* row
/// (tenant, lower-cased logical table, row id), never the physical
/// table, so tenants co-located in one universal/chunk table never
/// contend with each other (the tenant id is part of the key).
struct LockKey {
  int64_t tenant = 0;
  std::string table;  // lower-cased logical table name
  int64_t row = kTableRowId;
  /// Memoized row-independent hash over (tenant, table); 0 = not yet
  /// computed. A statement hashes each key several times — shard pick,
  /// map probe, and again at release via the holder's held list, whose
  /// copies inherit the memo — so the string is hashed once per key
  /// lineage and only the integer row mix runs per map operation.
  mutable size_t cached_hash = 0;

  bool operator==(const LockKey& o) const {
    return tenant == o.tenant && row == o.row && table == o.table;
  }
};

struct LockKeyHash {
  /// Row-independent hash over raw (tenant, table) — the shard selector
  /// without materializing a LockKey (write-epoch reads).
  static size_t TableHash(int64_t tenant, const std::string& table) {
    size_t h = std::hash<std::string>()(table);
    h ^= std::hash<int64_t>()(tenant) + 0x9e3779b97f4a7c15ull + (h << 6) +
         (h >> 2);
    if (h == 0) h = 1;          // keep 0 as the "unset" sentinel
    return h;
  }

  /// Row-independent part, memoized. Also the shard selector: every key
  /// of one (tenant, table) lands in one shard, so a statement's table
  /// intent and row lock are taken in a single latched shard visit.
  static size_t TableHash(const LockKey& k) {
    if (k.cached_hash != 0) return k.cached_hash;
    k.cached_hash = TableHash(k.tenant, k.table);
    // safe: keys are latched or thread-confined
    return k.cached_hash;
  }

  size_t operator()(const LockKey& k) const {
    size_t h = TableHash(k);
    h ^= std::hash<int64_t>()(k.row) + 0x9e3779b97f4a7c15ull + (h << 6) +
         (h >> 2);
    return h;
  }
};

class LockHolder;

/// Sharded logical-row lock table with deadline-aware waits and
/// wait-for-graph deadlock detection (DESIGN.md §15).
///
/// Every lock belongs to a LockHolder, and every holder has one owner:
/// an autocommit statement's StatementLockContext owns one for that
/// statement, and a client bracket's TransactionContext owns one from
/// its first write until COMMIT/ROLLBACK. A holder's id comes from one
/// monotonic counter when the holder is created, so id order is age
/// order — the deadlock victim is always the youngest (largest id)
/// member of the cycle.
///
/// Blocking: a conflicting acquisition parks on the shard's condvar with
/// the shard latch released, re-checking grantability, the ambient
/// deadline (deadline::Current) and its own victim flag on every wake.
/// The manager knows a holder only while it is parked: before each park
/// the waiter enters the parked set with its blocker edges and runs a
/// DFS from itself; a cycle aborts the youngest member — either by
/// returning kAborted to the caller (self) or by flagging the parked
/// victim and waking it (the victim's own wait returns kAborted, and its
/// session auto-rolls the bracket back).
///
/// Latch order (DESIGN.md §11): shard latch (kLockShard) > graph latch
/// (kLockWaitGraph) > metrics registry. Both rank below the mapping
/// layer latch and above every mapping-internal and engine latch.
class LockManager {
 public:
  /// Lock-table shards. Every key of one (tenant, table) lands in one
  /// shard (LockKeyHash::TableHash).
  static constexpr size_t kShards = 16;

  explicit LockManager(MetricsRegistry* metrics);
  ~LockManager();

  LockManager(const LockManager&) = delete;
  LockManager& operator=(const LockManager&) = delete;

  /// Current write epoch of the shard hosting (tenant, table): advances
  /// whenever an X lock in that shard is released. Collect and acquire
  /// are not atomic — a winner can write, commit and release entirely
  /// between a statement's Phase (a) run and its (then non-blocking)
  /// lock acquisition. Snapshot the epoch before collecting; if it
  /// still matches once the locks are granted, no conflicting writer
  /// can have committed-and-released inside the window (its release
  /// would have bumped the epoch before our same-shard grant), so the
  /// collected row images are current. Shard granularity means writers
  /// of other tables in the shard can force a spurious re-collect —
  /// safe, merely wasted work.
  uint64_t WriteEpoch(int64_t tenant, const std::string& table_lower) const;

  /// Currently held lock count (lock.held gauge). Sums the per-shard
  /// grant/release tallies under each shard latch in turn, so the
  /// result is a consistent snapshot per shard, not across shards —
  /// fine for a diagnostic gauge.
  uint64_t held() const;

  /// Lock-table entries across shards: those with owners or waiters plus
  /// the cached empty ones (diagnostics and tests).
  size_t entries() const;

 private:
  friend class LockHolder;
  /// Takes the single-row fast path (AcquireRowWithIntent) and flags
  /// deleted rows (MarkDeadRows) on its holder.
  friend class StatementLockContext;

  struct LockEntry {
    /// (holder id, mode) pairs. Row entries hold at most one; table
    /// entries hold many intents or one X.
    std::vector<std::pair<uint64_t, LockMode>> owners;
    uint32_t waiters = 0;
    /// Set (under the shard latch) on the entry of a row its owner
    /// deleted: row ids are never reused, so the entry is erased when it
    /// frees instead of occupying the empty-entry cache for good.
    bool dead_row = false;
    /// lock.acquired.t<tenant> of the key's tenant, resolved when the
    /// entry is created, so a grant bumps it without a registry lookup.
    Counter* acquired = nullptr;
  };
  struct Shard {
    mutable Latch mu{LatchRank::kLockShard, "lock-shard"};
    std::condition_variable_any cv;
    std::unordered_map<LockKey, LockEntry, LockKeyHash> table;
    /// Entries with no owners and no waiters kept in `table` as a
    /// bounded cache: re-locking a recently unlocked row then reuses
    /// the map node instead of paying an allocate/free pair per
    /// statement. Evicted (erased on release) once the cap is hit.
    size_t empty_entries = 0;
    /// Grant/release tallies for the held() gauge, guarded by `mu`
    /// (which every grant and release already holds) — plain fields
    /// beat two shared atomic RMWs per statement.
    uint64_t granted = 0;
    uint64_t released = 0;
    /// Bumped (under `mu`) whenever an X lock in this shard is
    /// released; read lock-free by WriteEpoch(). See that method for
    /// the collect→acquire freshness protocol it backs.
    std::atomic<uint64_t> write_epoch{0};
    /// lock.acquired.t<tenant> per tenant with keys in this shard;
    /// consulted only when an entry is created (LockEntry::acquired).
    std::unordered_map<int64_t, Counter*> acquired_counters;
  };
  /// A holder blocked in Acquire: its control block and the holders it
  /// waits for (refreshed on every wake).
  struct Parked {
    LockHolder* holder = nullptr;
    std::vector<uint64_t> blockers;
  };
  /// Per-shard cap on cached empty entries (~400 KB of nodes/shard;
  /// one tenant-table's whole row set maps to a single shard, so the
  /// cap must comfortably hold a working set of hot rows).
  static constexpr size_t kEmptyEntryCacheCap = 2048;

  /// Sharded by (tenant, table) — see LockKeyHash::TableHash.
  Shard& ShardFor(const LockKey& key) {
    return shards_[LockKeyHash::TableHash(key) % kShards];
  }
  /// The entry of `key`, created (with its tenant's acquired counter) if
  /// absent; a cached empty entry leaves the cache. Caller holds s.mu.
  LockEntry& EntryFor(Shard& s, const LockKey& key);
  /// True when `holder` may take `mode` on the entry right now.
  static bool Grantable(const LockEntry& e, uint64_t holder, LockMode mode);
  /// Other holders currently blocking `holder` on the entry.
  static std::vector<uint64_t> BlockersOf(const LockEntry& e, uint64_t holder,
                                          LockMode mode);
  /// Installs the granted (holder, mode) into the entry; returns true
  /// when this is a new grant (vs. an upgrade of an existing intent).
  static bool Grant(LockEntry* e, uint64_t holder, LockMode mode);

  /// LockHolder::Acquire.
  Status Acquire(LockHolder* h, const LockKey& key, LockMode mode,
                 bool* waited);
  /// Uncontended combined form of the common statement shape — table
  /// IX then row X, which shard co-location makes one latched visit.
  /// Falls back to two Acquire calls on any conflict.
  Status AcquireRowWithIntent(LockHolder* h, LockKey table_key,
                              LockKey row_key, bool* waited);
  /// Drops every lock of `h` and wakes waiters (LockHolder::ReleaseAll).
  void Release(LockHolder* h);
  /// Flags the entries of `rows` of (tenant, table_lower) that `h` holds
  /// as dead rows (LockEntry::dead_row).
  void MarkDeadRows(LockHolder* h, int64_t tenant,
                    const std::string& table_lower,
                    const std::vector<int64_t>& rows);
  /// Frees or caches an entry that has just lost its last owner and
  /// waiter (Shard::empty_entries). Caller holds the shard latch.
  void RetireEmptyEntry(Shard& s, const LockKey& key, const LockEntry& e);

  /// Runs DFS from `self` over the parked set; on a cycle returns the
  /// youngest (largest id) member, else 0. Caller holds graph_mu_.
  uint64_t FindDeadlockVictimLocked(uint64_t self) const;
  /// Flags `victim` and wakes every shard so it observes the flag.
  /// No-op when the victim is no longer parked: a holder granted since
  /// the DFS saw it left the parked set under graph_mu_ — flagging it
  /// now would spuriously abort its next acquisition. Caller holds
  /// graph_mu_ (and one shard latch; condvars need no latch to notify).
  void AbortVictimLocked(uint64_t victim);

  Counter* TenantCounter(const char* what, int64_t tenant);
  LatencyHistogram* TenantWaitHistogram(int64_t tenant);

  MetricsRegistry* metrics_;
  std::array<Shard, kShards> shards_;

  /// Guards parked_. Acquired under a shard latch on the wait path,
  /// hence the lower rank.
  Latch graph_mu_{LatchRank::kLockWaitGraph, "lock-wait-graph"};
  /// Holder id -> its wait state, for holders parked in Acquire only.
  std::map<uint64_t, Parked> parked_;
  /// Holder ids, handed out at holder creation: id order is age order.
  std::atomic<uint64_t> next_holder_id_{1};
};

/// One lock owner. Its owner creates it, acquires through it and
/// destroys it (which releases everything). Touched only by the owner's
/// thread, except the victim flag a peer's deadlock detection sets while
/// the holder is parked.
class LockHolder {
 public:
  /// Takes the next id from `lm` — ids are monotonic, never 0.
  LockHolder(LockManager* lm, int64_t tenant);
  ~LockHolder() { ReleaseAll(); }

  LockHolder(const LockHolder&) = delete;
  LockHolder& operator=(const LockHolder&) = delete;

  uint64_t id() const { return id_; }

  /// Acquires (or upgrades to) `mode` on `key`, a key of this holder's
  /// tenant. Idempotent: re-acquiring an owned lock is a map probe.
  /// Returns:
  ///  * OK — lock held; *waited set true if the call ever blocked.
  ///  * kDeadlineExceeded — the ambient statement deadline expired
  ///    while waiting; the message names a current conflicting holder.
  ///  * kAborted — this holder was picked as a deadlock victim (by its
  ///    own DFS or a peer's). The caller must fail the statement so
  ///    the session rolls the bracket back and releases everything.
  Status Acquire(const LockKey& key, LockMode mode, bool* waited = nullptr) {
    return lm_->Acquire(this, key, mode, waited);
  }

  /// Releases every lock and wakes waiters. The holder stays usable.
  void ReleaseAll() {
    if (!held_.empty()) lm_->Release(this);
  }

  /// True once the holder has been flagged as a deadlock victim.
  bool aborted() const { return aborted_.load(std::memory_order_acquire); }

 private:
  friend class LockManager;
  friend class StatementLockContext;

  /// Granted keys, each with the map node it owns so release skips the
  /// map probe. Node addresses survive rehashes, and an entry with
  /// owners is never erased, so the pointers stay valid until release.
  using HeldKeys = std::vector<std::pair<LockKey, LockManager::LockEntry*>>;

  LockManager* const lm_;
  const uint64_t id_;
  const int64_t tenant_;
  /// Set by a peer's deadlock detection (AbortVictimLocked); read by the
  /// owner on every wake and at every acquisition.
  std::atomic<bool> aborted_{false};
  HeldKeys held_;
};

/// Per-statement lock acquisition context, installed thread-locally by
/// the mapping layer's write entry points (Execute/InsertRow) around
/// statement execution — mirrors ExplainScope/TransactionContext::Scope.
/// Paths that must acquire nothing (admin DDL under the exclusive layer
/// latch, EXPLAIN MAPPING, recovery and the rollback's undo batch in the
/// engine) simply never install one, so the acquisition helpers inside
/// the shared DML code no-op there.
///
/// Holder: inside a client bracket (txn_holder != nullptr) locks join
/// the bracket's holder and survive until COMMIT/ROLLBACK; otherwise the
/// context owns a holder for the statement and its destructor releases
/// it — which the entry points order to run only after the statement's
/// write batch has committed or reverted (locks drop after the revert
/// completes, never before). An owned holder borrows a thread-local
/// held-key buffer, so a statement allocates nothing for its lock list.
class StatementLockContext {
 public:
  /// `lm` may be null (locking disabled): every method no-ops.
  StatementLockContext(LockManager* lm, int64_t tenant,
                       LockHolder* txn_holder);
  ~StatementLockContext();

  StatementLockContext(const StatementLockContext&) = delete;
  StatementLockContext& operator=(const StatementLockContext&) = delete;

  /// X lock on one logical row. Rejects negative row ids (a NULL row
  /// column maps to -1 == kTableRowId and would silently alias the
  /// table lock); callers degrade such sets to LockTable(kX) instead.
  Status LockRow(const std::string& table_lower, int64_t row_id);
  /// Table IX + row X in one shard visit — the single-row fast path
  /// (equivalent to LockTable(kIntentX) then LockRow).
  Status LockRowWithIntent(const std::string& table_lower, int64_t row_id);
  /// Table-level lock (kIntentX before row locks; kX as the whole-table
  /// fallback for layouts without row ids).
  Status LockTable(const std::string& table_lower, LockMode mode);

  /// True once any acquisition in this statement blocked. A wait always
  /// implies the table's write epoch moved (the holder released to let
  /// us in), so the mapping layer's freshness check is epoch-based and
  /// this flag is belt-and-braces on top of TableWriteEpoch().
  bool waited() const { return waited_; }
  void clear_waited() { waited_ = false; }

  /// The statement deleted `rows` of `table_lower`, all X-locked by it:
  /// their lock entries are erased when released rather than cached,
  /// since row ids are never reused. A rolled-back delete only costs the
  /// row a fresh entry on its next lock.
  void ForgetDeletedRows(const std::string& table_lower,
                         const std::vector<int64_t>& rows);

  /// LockManager::WriteEpoch of (tenant, table_lower)'s shard; 0 when
  /// locking is disabled (so disabled snapshots compare equal).
  uint64_t TableWriteEpoch(const std::string& table_lower) const;

  bool enabled() const { return lm_ != nullptr; }

  /// The context installed on this thread (nullptr outside a locking
  /// statement).
  static StatementLockContext* Current();

 private:
  /// Records a wait reported by an acquisition.
  Status Note(Status st, bool waited) {
    if (waited) waited_ = true;
    return st;
  }

  /// The buffer an owned holder borrows for its held keys.
  static thread_local LockHolder::HeldKeys held_scratch_;

  LockManager* lm_;
  int64_t tenant_;
  /// The autocommit statement's own holder (empty inside a bracket or
  /// with locking disabled).
  std::optional<LockHolder> own_;
  LockHolder* holder_;
  bool waited_ = false;
  StatementLockContext* prev_;
};

}  // namespace lock
}  // namespace mtdb

#endif  // MTDB_ENGINE_LOCK_MANAGER_H_
