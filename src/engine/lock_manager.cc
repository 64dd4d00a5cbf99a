#include "engine/lock_manager.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <set>

#include "common/deadline.h"
#include "common/trace.h"

namespace mtdb {
namespace lock {

namespace {

/// Refresh tick for parked waiters: even without a wake-up, a waiter
/// re-publishes its (possibly stale) blocker edges and re-runs cycle
/// detection this often, bounding how long a missed notification or a
/// stale edge can hide a deadlock.
constexpr std::chrono::milliseconds kDetectionTick(100);

Status VictimStatus() {
  return Status::Aborted(
      "deadlock detected: this transaction was chosen as the victim and "
      "must be rolled back; retry it");
}

thread_local StatementLockContext* tls_lock_ctx = nullptr;

}  // namespace

struct LockManager::Holder {
  uint64_t id = 0;
  int64_t tenant = 0;
  bool bracket = false;
  /// Age stamp for victim selection (largest epoch = youngest loses).
  /// Re-stamped at every statement lease, written by the owner thread
  /// and read by deadlock detection under the graph latch.
  std::atomic<uint64_t> epoch{0};
  /// Set by a peer's deadlock detection (AbortVictimLocked); read by the
  /// owner on every wake and at every acquisition.
  std::atomic<bool> aborted{false};
  /// Keys this holder has been granted. Touched only by the owning
  /// session thread (Acquire/ReleaseAll), so no latch is needed.
  std::vector<LockKey> held;
  /// Map nodes paired 1:1 with `held`: each grant records the entry it
  /// owns so release skips the map probe. Node addresses survive
  /// rehashes, and an entry with owners is never erased, so the
  /// pointers stay valid until this holder releases them.
  std::vector<LockManager::LockEntry*> held_entries;
  /// lock.acquired.t<tenant>, resolved once at CreateHolder so the
  /// per-row fast path skips the registry lookup.
  Counter* acquired = nullptr;
};

namespace {

/// Per-thread statement-holder cache: an autocommit statement reuses
/// the holder its thread registered last time instead of paying the
/// holder-registry round trip (graph latch + map insert/erase + heap
/// traffic) per statement. Keyed by (manager pointer, serial) so a
/// manager reincarnated at a recycled address can never match, and the
/// cached Holder* is only dereferenced after the serial matches. One
/// empty registered holder may linger per (thread, manager) — it holds
/// nothing and dies with the manager.
struct TlsHolderCache {
  const void* lm = nullptr;
  uint64_t serial = 0;
  int64_t tenant = 0;
  LockManager::Holder* holder = nullptr;
  /// True while an open StatementLockContext on this thread has leased
  /// the holder; a nested statement then falls back to a fresh one.
  bool in_use = false;
};

thread_local TlsHolderCache tls_holder_cache;

std::atomic<uint64_t> g_lock_manager_serial{1};

}  // namespace

LockManager::LockManager(MetricsRegistry* metrics, size_t shards)
    : metrics_(metrics),
      serial_(g_lock_manager_serial.fetch_add(1, std::memory_order_relaxed)) {
  if (shards == 0) shards = 1;
  shards_.reserve(shards);
  for (size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

LockManager::~LockManager() = default;

Counter* LockManager::TenantCounter(const char* what, int64_t tenant) {
  return metrics_->GetCounter(std::string("lock.") + what + ".t" +
                              std::to_string(tenant));
}

LatencyHistogram* LockManager::TenantWaitHistogram(int64_t tenant) {
  return metrics_->GetHistogram("lock.wait_us.t" + std::to_string(tenant));
}

uint64_t LockManager::CreateHolder(int64_t tenant, bool bracket) {
  return CreateHolderResolved(tenant, bracket)->id;
}

LockManager::Holder* LockManager::CreateHolderResolved(int64_t tenant,
                                                       bool bracket) {
  std::lock_guard<Latch> g(graph_mu_);
  std::unique_ptr<Holder> h;
  if (!holder_pool_.empty()) {
    h = std::move(holder_pool_.back());
    holder_pool_.pop_back();
    h->aborted.store(false, std::memory_order_relaxed);
    h->held.clear();
    h->held_entries.clear();
  } else {
    h = std::make_unique<Holder>();
  }
  h->id = next_holder_++;
  h->tenant = tenant;
  h->bracket = bracket;
  h->epoch.store(epoch_counter_.fetch_add(1, std::memory_order_relaxed),
                 std::memory_order_relaxed);
  Counter*& acquired = acquired_counters_[tenant];
  if (acquired == nullptr) {
    // Registry rank (kMetricsRegistry) sits below the graph latch, so
    // the miss-path lookup is legal while graph_mu_ is held.
    acquired = TenantCounter("acquired", tenant);
  }
  h->acquired = acquired;
  Holder* out = h.get();
  holders_.emplace(out->id, std::move(h));
  return out;
}

LockManager::Holder* LockManager::ResolveHolder(uint64_t holder) const {
  std::lock_guard<Latch> g(graph_mu_);
  auto it = holders_.find(holder);
  return it != holders_.end() ? it->second.get() : nullptr;
}

LockManager::Holder* LockManager::LeaseStatementHolder(int64_t tenant,
                                                       bool* leased) {
  TlsHolderCache& c = tls_holder_cache;
  if (c.lm == this && c.serial == serial_) {
    if (c.in_use) {
      // A statement on this thread already leased the cached holder
      // (nested execution); give the inner statement its own.
      *leased = false;
      return CreateHolderResolved(tenant, /*bracket=*/false);
    }
    if (c.tenant != tenant) {
      // Thread switched tenants: retire the cached holder (it holds
      // nothing — statement locks dropped at statement end).
      uint64_t old = c.holder->id;
      c.lm = nullptr;
      ReleaseAll(old);
    } else {
      Holder* h = c.holder;
      // Between statements the holder owns no locks and waits on
      // nothing, so no detector can be about to flag it: resetting the
      // victim flag and re-stamping the age here is race-free.
      h->aborted.store(false, std::memory_order_relaxed);
      h->epoch.store(epoch_counter_.fetch_add(1, std::memory_order_relaxed),
                     std::memory_order_relaxed);
      c.in_use = true;
      *leased = true;
      return h;
    }
  }
  // Cold thread (or another manager's entry, abandoned — its empty
  // holder stays registered there until that manager dies).
  Holder* h = CreateHolderResolved(tenant, /*bracket=*/false);
  c.lm = this;
  c.serial = serial_;
  c.tenant = tenant;
  c.holder = h;
  c.in_use = true;
  *leased = true;
  return h;
}

void LockManager::ReleaseStatementLocks(Holder* h) {
  if (!h->held.empty()) {
    ReleaseKeys(h->id, h->held, h->held_entries);
    h->held.clear();
    h->held_entries.clear();
  }
  TlsHolderCache& c = tls_holder_cache;
  if (c.holder == h && c.lm == this) c.in_use = false;
}

uint64_t LockManager::held() const {
  uint64_t g = 0, r = 0;
  for (const auto& s : shards_) {
    std::lock_guard<Latch> lk(s->mu);
    g += s->granted;
    r += s->released;
  }
  return g >= r ? g - r : 0;
}

size_t LockManager::entries() const {
  size_t n = 0;
  for (const auto& s : shards_) {
    std::lock_guard<Latch> lk(s->mu);
    n += s->table.size();
  }
  return n;
}

uint64_t LockManager::WriteEpoch(int64_t tenant,
                                 const std::string& table_lower) const {
  const size_t h = LockKeyHash::TableHash(tenant, table_lower);
  return shards_[h % shards_.size()]->write_epoch.load(
      std::memory_order_acquire);
}

bool LockManager::IsAborted(uint64_t holder) const {
  std::lock_guard<Latch> g(graph_mu_);
  auto it = holders_.find(holder);
  return it != holders_.end() &&
         it->second->aborted.load(std::memory_order_acquire);
}

bool LockManager::Grantable(const LockEntry& e, uint64_t holder,
                            LockMode mode) {
  for (const auto& [oid, omode] : e.owners) {
    if (oid == holder) continue;
    if (mode == LockMode::kX || omode == LockMode::kX) return false;
    // Both intents: compatible.
  }
  return true;
}

std::vector<uint64_t> LockManager::BlockersOf(const LockEntry& e,
                                              uint64_t holder, LockMode mode) {
  std::vector<uint64_t> out;
  for (const auto& [oid, omode] : e.owners) {
    if (oid == holder) continue;
    if (mode == LockMode::kX || omode == LockMode::kX) out.push_back(oid);
  }
  return out;
}

bool LockManager::Grant(LockEntry* e, uint64_t holder, LockMode mode) {
  for (auto& [oid, omode] : e->owners) {
    if (oid == holder) {
      // Upgrade sticks (IX -> X); a downgrade request is a no-op.
      if (mode == LockMode::kX) omode = LockMode::kX;
      return false;
    }
  }
  e->owners.emplace_back(holder, mode);
  return true;
}

uint64_t LockManager::FindDeadlockVictimLocked(uint64_t self) const {
  // DFS over the wait-for graph starting from self; the cycle (if any)
  // is the current path the moment an edge points back at self. The
  // victim is the youngest member — largest epoch stamp, i.e. the most
  // recently started bracket/statement == least work lost.
  std::vector<uint64_t> path{self};
  std::set<uint64_t> visited{self};
  uint64_t victim = 0;
  std::function<bool(uint64_t)> dfs = [&](uint64_t node) -> bool {
    auto it = waits_for_.find(node);
    if (it == waits_for_.end()) return false;
    for (uint64_t next : it->second) {
      if (next == self) {
        uint64_t best_epoch = 0;
        for (uint64_t member : path) {
          auto hit = holders_.find(member);
          const uint64_t ep =
              hit != holders_.end()
                  ? hit->second->epoch.load(std::memory_order_relaxed)
                  : 0;
          if (ep >= best_epoch) {
            best_epoch = ep;
            victim = member;
          }
        }
        return true;
      }
      if (visited.insert(next).second) {
        path.push_back(next);
        if (dfs(next)) return true;
        path.pop_back();
      }
    }
    return false;
  };
  (void)dfs(self);
  return victim;
}

void LockManager::AbortVictimLocked(uint64_t victim) {
  // Only a parked holder is a victim. Grant acceptance atomically (under
  // graph_mu_, which this caller holds) checks the flag and retires the
  // waiter's edges, so "edges live" ⇔ "still parked": a holder granted
  // since the DFS saw its edge must not be flagged — it would proceed
  // holding the lock and its next acquisition would spuriously abort.
  if (waits_for_.find(victim) == waits_for_.end()) return;
  auto it = holders_.find(victim);
  if (it == holders_.end()) return;
  it->second->aborted.store(true, std::memory_order_release);
  // The victim is parked on some shard's condvar (every cycle member is
  // blocked); wake everything so it observes the flag. Notifying a
  // condvar requires no latch.
  for (auto& s : shards_) s->cv.notify_all();
}

Status LockManager::AcquireRowWithIntent(Holder* h, LockKey table_key,
                                         LockKey row_key, bool* waited) {
  if (h->aborted.load(std::memory_order_acquire)) return VictimStatus();
  // Same (tenant, table): hash the string once, share the memo.
  row_key.cached_hash = LockKeyHash::TableHash(table_key);
  Shard& s = ShardFor(table_key);  // row_key maps to the same shard
  {
    std::unique_lock<Latch> lk(s.mu);
    auto [tit, t_inserted] = s.table.try_emplace(table_key);
    if (!t_inserted && tit->second.owners.empty() &&
        tit->second.waiters == 0) {
      s.empty_entries--;
    }
    if (Grantable(tit->second, h->id, LockMode::kIntentX)) {
      // References survive the second try_emplace (rehash moves
      // buckets, never nodes).
      LockEntry& te = tit->second;
      auto [rit, r_inserted] = s.table.try_emplace(row_key);
      if (!r_inserted && rit->second.owners.empty() &&
          rit->second.waiters == 0) {
        s.empty_entries--;
      }
      if (Grantable(rit->second, h->id, LockMode::kX)) {
        uint64_t grants = 0;
        if (Grant(&te, h->id, LockMode::kIntentX)) {
          h->held.push_back(std::move(table_key));
          h->held_entries.push_back(&te);
          grants++;
        }
        if (Grant(&rit->second, h->id, LockMode::kX)) {
          h->held.push_back(std::move(row_key));
          h->held_entries.push_back(&rit->second);
          grants++;
        }
        if (grants != 0) {
          s.granted += grants;
          h->acquired->Add(grants);
        }
        return Status::OK();
      }
      // Row conflict (its entry has owners). The table entry may be
      // sitting empty and uncounted after the probe above — restore the
      // cache accounting before bailing to the waiting path. Re-find:
      // the row try_emplace may have rehashed the table iterator away.
      auto t2 = s.table.find(table_key);
      if (t2 != s.table.end() && t2->second.owners.empty() &&
          t2->second.waiters == 0) {
        if (s.empty_entries < kEmptyEntryCacheCap) {
          s.empty_entries++;
        } else {
          s.table.erase(t2);
        }
      }
    }
  }
  // Conflict somewhere: take the locks one by one through the waiting
  // path. Re-probing the granted half is an idempotent map hit.
  MTDB_RETURN_IF_ERROR(
      AcquireResolved(h, table_key, LockMode::kIntentX, waited));
  return AcquireResolved(h, row_key, LockMode::kX, waited);
}

Status LockManager::Acquire(uint64_t holder, const LockKey& key, LockMode mode,
                            bool* waited) {
  Holder* h = ResolveHolder(holder);
  if (h == nullptr) {
    return Status::Internal("unknown lock holder " + std::to_string(holder));
  }
  return AcquireResolved(h, key, mode, waited);
}

Status LockManager::AcquireResolved(Holder* h, const LockKey& key,
                                    LockMode mode, bool* waited) {
  const uint64_t holder = h->id;
  if (h->aborted.load(std::memory_order_acquire)) return VictimStatus();

  Shard& s = ShardFor(key);
  std::unique_lock<Latch> lk(s.mu);
  auto [eit, inserted] = s.table.try_emplace(key);
  LockEntry& e = eit->second;
  if (!inserted && e.owners.empty() && e.waiters == 0) {
    // Reusing a cached empty node (see Shard::empty_entries).
    s.empty_entries--;
  }
  if (Grantable(e, holder, mode)) {
    if (Grant(&e, holder, mode)) {
      h->held.push_back(key);
      h->held_entries.push_back(&e);
      s.granted++;
      h->acquired->Add(1);
    }
    return Status::OK();
  }

  // Conflict: park deadline-aware, publishing wait-for edges and running
  // cycle detection before every park. The statement tracer attributes
  // the whole blocked stretch to a lock.wait span.
  trace::SpanScope span("lock.wait", key.table);
  TenantCounter("waits", h->tenant)->Add(1);
  if (waited != nullptr) *waited = true;
  e.waiters++;
  const auto wait_start = std::chrono::steady_clock::now();
  Status result = Status::OK();
  bool granted = false;
  bool retired = false;
  while (true) {
    std::vector<uint64_t> blockers = BlockersOf(e, holder, mode);
    {
      std::lock_guard<Latch> g(graph_mu_);
      waits_for_[holder] = blockers;
      uint64_t victim = FindDeadlockVictimLocked(holder);
      if (victim != 0) {
        auto vit = holders_.find(victim);
        TenantCounter("deadlocks",
                      vit != holders_.end() ? vit->second->tenant : h->tenant)
            ->Add(1);
        if (victim == holder) {
          h->aborted.store(true, std::memory_order_release);
        } else {
          AbortVictimLocked(victim);
        }
      }
    }
    if (h->aborted.load(std::memory_order_acquire)) {
      result = VictimStatus();
      break;
    }
    const deadline::Deadline dl = deadline::Current();
    auto until = std::chrono::steady_clock::now() + kDetectionTick;
    if (dl.active && dl.at < until) until = dl.at;
    s.cv.wait_until(lk, until);
    if (h->aborted.load(std::memory_order_acquire)) {
      result = VictimStatus();
      break;
    }
    if (Grantable(e, holder, mode)) {
      // Accept the grant atomically against the deadlock detector: the
      // victim-flag check and the edge retirement share one graph-latch
      // round, so a detector that still sees our published edges either
      // flagged us first (we abort here) or runs after the erase, finds
      // us no longer parked, and never flags us — closing the window
      // where a just-granted waiter could be picked as a stale victim.
      std::lock_guard<Latch> g(graph_mu_);
      if (h->aborted.load(std::memory_order_acquire)) {
        result = VictimStatus();
        break;
      }
      waits_for_.erase(holder);
      retired = true;
      granted = true;
      break;
    }
    if (dl.active && std::chrono::steady_clock::now() >= dl.at) {
      // Name one current conflicting holder so the client knows who to
      // wait out (or which bracket to go ROLLBACK).
      std::string hint;
      std::vector<uint64_t> now_blocking = BlockersOf(e, holder, mode);
      if (!now_blocking.empty()) {
        std::lock_guard<Latch> g(graph_mu_);
        auto bit = holders_.find(now_blocking.front());
        hint = "; held by txn " + std::to_string(now_blocking.front());
        if (bit != holders_.end()) {
          hint += " (tenant " + std::to_string(bit->second->tenant) + ")";
        }
      }
      std::string msg = "lock wait timed out on " + key.table;
      if (key.row != kTableRowId) {
        msg += '#';
        msg += std::to_string(key.row);
      }
      msg += hint;
      result = Status::DeadlineExceeded(std::move(msg));
      TenantCounter("timeouts", h->tenant)->Add(1);
      break;
    }
  }
  e.waiters--;
  if (!retired) {
    std::lock_guard<Latch> g(graph_mu_);
    waits_for_.erase(holder);
  }
  if (granted) {
    if (Grant(&e, holder, mode)) {
      h->held.push_back(key);
      h->held_entries.push_back(&e);
      s.granted++;
      h->acquired->Add(1);
    }
    const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                        std::chrono::steady_clock::now() - wait_start)
                        .count();
    TenantWaitHistogram(h->tenant)->Record(static_cast<uint64_t>(us));
  } else if (e.owners.empty() && e.waiters == 0) {
    RetireEmptyEntry(s, key, e);
  }
  return result;
}

void LockManager::ReleaseAll(uint64_t holder) {
  if (holder == 0) return;
  std::vector<LockKey> held;
  std::vector<LockEntry*> held_entries;
  {
    std::lock_guard<Latch> g(graph_mu_);
    auto it = holders_.find(holder);
    if (it == holders_.end()) return;
    std::unique_ptr<Holder> h = std::move(it->second);
    holders_.erase(it);
    waits_for_.erase(holder);
    held.swap(h->held);
    held_entries.swap(h->held_entries);
    TlsHolderCache& c = tls_holder_cache;
    if (c.holder == h.get() && c.lm == this) c.lm = nullptr;
    // Recycle the control block in the same latch round. The id is
    // already forgotten, so even if a new statement grabs the block
    // before the shard sweep below finishes, the sweep works purely off
    // the detached `held` list and the stale id — no interaction.
    if (holder_pool_.size() < 64) holder_pool_.push_back(std::move(h));
  }
  ReleaseKeys(holder, held, held_entries);
}

void LockManager::RetireEmptyEntry(Shard& s, const LockKey& key,
                                   const LockEntry& e) {
  if (!e.dead_row && s.empty_entries < kEmptyEntryCacheCap) {
    s.empty_entries++;  // keep as a cached empty node
  } else {
    s.table.erase(key);
  }
}

void LockManager::MarkDeadRows(Holder* h, int64_t tenant,
                               const std::string& table_lower,
                               const std::vector<int64_t>& rows) {
  std::vector<int64_t> sorted(rows);
  std::sort(sorted.begin(), sorted.end());
  // Every key of one (tenant, table) lives in one shard.
  Shard& s = *shards_[LockKeyHash::TableHash(tenant, table_lower) %
                      shards_.size()];
  std::lock_guard<Latch> lk(s.mu);
  for (size_t i = 0; i < h->held.size(); ++i) {
    const LockKey& k = h->held[i];
    if (k.row != kTableRowId && k.tenant == tenant && k.table == table_lower &&
        std::binary_search(sorted.begin(), sorted.end(), k.row)) {
      h->held_entries[i]->dead_row = true;
    }
  }
}

void LockManager::ReleaseKeys(uint64_t holder,
                              const std::vector<LockKey>& keys,
                              const std::vector<LockEntry*>& entries) {
  // Keys of one statement cluster by shard (a table intent and its row
  // locks co-locate), so release consecutive same-shard keys under one
  // latch hold. `entries[i]` is the map node `keys[i]` was granted on —
  // still pinned by this holder's ownership — so no probe is needed.
  for (size_t i = 0; i < keys.size();) {
    Shard& s = ShardFor(keys[i]);
    bool notify = false;
    bool x_released = false;
    uint64_t releases = 0;
    {
      std::lock_guard<Latch> lk(s.mu);
      do {
        LockEntry& e = *entries[i];
        for (auto oit = e.owners.begin(); oit != e.owners.end(); ++oit) {
          if (oit->first == holder) {
            x_released |= oit->second == LockMode::kX;
            e.owners.erase(oit);
            releases++;
            break;
          }
        }
        notify |= e.waiters > 0;
        if (e.owners.empty() && e.waiters == 0) {
          RetireEmptyEntry(s, keys[i], e);
        }
        ++i;
      } while (i < keys.size() && &ShardFor(keys[i]) == &s);
      s.released += releases;
      // An X release means a writer's lifetime ended here — the signal
      // the collect→acquire freshness protocol keys on (WriteEpoch).
      // Bumped before the latch drops, so a waiter granted afterwards
      // is guaranteed to observe the new epoch.
      if (x_released) {
        s.write_epoch.fetch_add(1, std::memory_order_release);
      }
    }
    if (notify) s.cv.notify_all();
  }
}

// --- StatementLockContext --------------------------------------------

StatementLockContext* StatementLockContext::Current() { return tls_lock_ctx; }

StatementLockContext::StatementLockContext(LockManager* lm, int64_t tenant,
                                           uint64_t txn_holder)
    : lm_(lm), tenant_(tenant), prev_(tls_lock_ctx) {
  if (lm_ != nullptr && txn_holder != 0) holder_ = txn_holder;
  tls_lock_ctx = this;
}

StatementLockContext::~StatementLockContext() {
  tls_lock_ctx = prev_;
  // Statement-duration locks drop here — the entry points destroy this
  // scope only after the statement's batch has reverted or finished, so
  // a revert always runs under the locks it needs.
  // Bracket-owned locks (neither flag set) survive until the
  // TransactionContext releases them after COMMIT/ROLLBACK.
  if (leased_holder_) {
    lm_->ReleaseStatementLocks(resolved_);
  } else if (owns_holder_) {
    lm_->ReleaseAll(holder_);
  }
}

LockManager::Holder* StatementLockContext::EnsureResolved() {
  if (resolved_ == nullptr) {
    if (holder_ == 0) {
      bool leased = false;
      resolved_ = lm_->LeaseStatementHolder(tenant_, &leased);
      holder_ = resolved_->id;
      if (leased) {
        leased_holder_ = true;
      } else {
        owns_holder_ = true;
      }
    } else {
      resolved_ = lm_->ResolveHolder(holder_);
    }
  }
  return resolved_;
}

uint64_t StatementLockContext::TableWriteEpoch(
    const std::string& table_lower) const {
  if (lm_ == nullptr) return 0;
  return lm_->WriteEpoch(tenant_, table_lower);
}

Status StatementLockContext::LockRow(const std::string& table_lower,
                                     int64_t row_id) {
  if (lm_ == nullptr) return Status::OK();
  if (row_id < 0) {
    // A NULL row column maps to -1 == kTableRowId: locking it would
    // silently collapse distinct rows onto the table lock. Callers
    // degrade such sets to an explicit LockTable(kX) instead.
    return Status::Internal("row lock on negative row id " +
                            std::to_string(row_id) + " in " + table_lower);
  }
  LockManager::Holder* h = EnsureResolved();
  if (h == nullptr) {
    return Status::Internal("lock holder vanished mid-statement");
  }
  bool w = false;
  Status st = lm_->AcquireResolved(h, LockKey{tenant_, table_lower, row_id},
                                   LockMode::kX, &w);
  if (w) waited_ = true;
  return st;
}

void StatementLockContext::ForgetDeletedRows(const std::string& table_lower,
                                             const std::vector<int64_t>& rows) {
  if (lm_ == nullptr || resolved_ == nullptr || rows.empty()) return;
  lm_->MarkDeadRows(resolved_, tenant_, table_lower, rows);
}

Status StatementLockContext::LockRowWithIntent(const std::string& table_lower,
                                               int64_t row_id) {
  if (lm_ == nullptr) return Status::OK();
  if (row_id < 0) {
    return Status::Internal("row lock on negative row id " +
                            std::to_string(row_id) + " in " + table_lower);
  }
  LockManager::Holder* h = EnsureResolved();
  if (h == nullptr) {
    return Status::Internal("lock holder vanished mid-statement");
  }
  bool w = false;
  Status st = lm_->AcquireRowWithIntent(
      h, LockKey{tenant_, table_lower, kTableRowId},
      LockKey{tenant_, table_lower, row_id}, &w);
  if (w) waited_ = true;
  return st;
}

Status StatementLockContext::LockTable(const std::string& table_lower,
                                       LockMode mode) {
  if (lm_ == nullptr) return Status::OK();
  LockManager::Holder* h = EnsureResolved();
  if (h == nullptr) {
    return Status::Internal("lock holder vanished mid-statement");
  }
  bool w = false;
  Status st = lm_->AcquireResolved(h, LockKey{tenant_, table_lower,
                                              kTableRowId},
                                   mode, &w);
  if (w) waited_ = true;
  return st;
}

}  // namespace lock
}  // namespace mtdb
