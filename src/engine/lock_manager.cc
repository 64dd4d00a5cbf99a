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

LockManager::LockManager(MetricsRegistry* metrics) : metrics_(metrics) {}

LockManager::~LockManager() = default;

Counter* LockManager::TenantCounter(const char* what, int64_t tenant) {
  return metrics_->GetCounter(std::string("lock.") + what + ".t" +
                              std::to_string(tenant));
}

LatencyHistogram* LockManager::TenantWaitHistogram(int64_t tenant) {
  return metrics_->GetHistogram("lock.wait_us.t" + std::to_string(tenant));
}

LockHolder::LockHolder(LockManager* lm, int64_t tenant)
    : lm_(lm),
      id_(lm->next_holder_id_.fetch_add(1, std::memory_order_relaxed)),
      tenant_(tenant) {}

uint64_t LockManager::held() const {
  uint64_t g = 0, r = 0;
  for (const Shard& s : shards_) {
    std::lock_guard<Latch> lk(s.mu);
    g += s.granted;
    r += s.released;
  }
  return g >= r ? g - r : 0;
}

size_t LockManager::entries() const {
  size_t n = 0;
  for (const Shard& s : shards_) {
    std::lock_guard<Latch> lk(s.mu);
    n += s.table.size();
  }
  return n;
}

uint64_t LockManager::WriteEpoch(int64_t tenant,
                                 const std::string& table_lower) const {
  const size_t h = LockKeyHash::TableHash(tenant, table_lower);
  return shards_[h % kShards].write_epoch.load(std::memory_order_acquire);
}

LockManager::LockEntry& LockManager::EntryFor(Shard& s, const LockKey& key) {
  auto [it, inserted] = s.table.try_emplace(key);
  LockEntry& e = it->second;
  if (inserted) {
    Counter*& acquired = s.acquired_counters[key.tenant];
    // Registry rank (kMetricsRegistry) sits below the shard latch, so
    // a tenant's first lookup in this shard is legal here.
    if (acquired == nullptr) acquired = TenantCounter("acquired", key.tenant);
    e.acquired = acquired;
  } else if (e.owners.empty() && e.waiters == 0) {
    // Reusing a cached empty node (see Shard::empty_entries).
    s.empty_entries--;
  }
  return e;
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
  // DFS over the parked set starting from self; the cycle (if any) is
  // the current path the moment an edge points back at self. The victim
  // is the youngest member — the largest id, i.e. the most recently
  // created holder == least work lost.
  std::vector<uint64_t> path{self};
  std::set<uint64_t> visited{self};
  uint64_t victim = 0;
  std::function<bool(uint64_t)> dfs = [&](uint64_t node) -> bool {
    auto it = parked_.find(node);
    if (it == parked_.end()) return false;
    for (uint64_t next : it->second.blockers) {
      if (next == self) {
        victim = *std::max_element(path.begin(), path.end());
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
  // graph_mu_, which this caller holds) checks the flag and leaves the
  // parked set, so a holder granted since the DFS saw its edge is no
  // longer found here and must not be flagged — it would proceed
  // holding the lock and its next acquisition would spuriously abort.
  auto it = parked_.find(victim);
  if (it == parked_.end()) return;
  it->second.holder->aborted_.store(true, std::memory_order_release);
  // The victim is parked on some shard's condvar (every cycle member is
  // blocked); wake everything so it observes the flag. Notifying a
  // condvar requires no latch.
  for (Shard& s : shards_) s.cv.notify_all();
}

Status LockManager::AcquireRowWithIntent(LockHolder* h, LockKey table_key,
                                         LockKey row_key, bool* waited) {
  if (h->aborted()) return VictimStatus();
  // Same (tenant, table): hash the string once, share the memo.
  row_key.cached_hash = LockKeyHash::TableHash(table_key);
  Shard& s = ShardFor(table_key);  // row_key maps to the same shard
  {
    std::unique_lock<Latch> lk(s.mu);
    // References survive the second lookup's rehash (it moves buckets,
    // never nodes).
    LockEntry& te = EntryFor(s, table_key);
    if (Grantable(te, h->id_, LockMode::kIntentX)) {
      LockEntry& re = EntryFor(s, row_key);
      if (Grantable(re, h->id_, LockMode::kX)) {
        uint64_t grants = 0;
        if (Grant(&te, h->id_, LockMode::kIntentX)) {
          h->held_.emplace_back(std::move(table_key), &te);
          grants++;
        }
        if (Grant(&re, h->id_, LockMode::kX)) {
          h->held_.emplace_back(std::move(row_key), &re);
          grants++;
        }
        if (grants != 0) {
          s.granted += grants;
          te.acquired->Add(grants);
        }
        return Status::OK();
      }
      // Row conflict (its entry has owners). The table entry may be
      // sitting empty and uncounted after the lookup above — restore
      // the cache accounting before bailing to the waiting path.
      if (te.owners.empty() && te.waiters == 0) {
        RetireEmptyEntry(s, table_key, te);
      }
    }
  }
  // Conflict somewhere: take the locks one by one through the waiting
  // path. Re-probing the granted half is an idempotent map hit.
  MTDB_RETURN_IF_ERROR(Acquire(h, table_key, LockMode::kIntentX, waited));
  return Acquire(h, row_key, LockMode::kX, waited);
}

Status LockManager::Acquire(LockHolder* h, const LockKey& key, LockMode mode,
                            bool* waited) {
  const uint64_t holder = h->id_;
  if (h->aborted()) return VictimStatus();

  Shard& s = ShardFor(key);
  std::unique_lock<Latch> lk(s.mu);
  LockEntry& e = EntryFor(s, key);
  if (Grantable(e, holder, mode)) {
    if (Grant(&e, holder, mode)) {
      h->held_.emplace_back(key, &e);
      s.granted++;
      e.acquired->Add(1);
    }
    return Status::OK();
  }

  // Conflict: park deadline-aware, publishing wait-for edges and running
  // cycle detection before every park. The statement tracer attributes
  // the whole blocked stretch to a lock.wait span.
  trace::SpanScope span("lock.wait", key.table);
  TenantCounter("waits", h->tenant_)->Add(1);
  if (waited != nullptr) *waited = true;
  e.waiters++;
  const auto wait_start = std::chrono::steady_clock::now();
  Status result = Status::OK();
  bool granted = false;
  while (true) {
    std::vector<uint64_t> blockers = BlockersOf(e, holder, mode);
    {
      std::lock_guard<Latch> g(graph_mu_);
      parked_[holder] = Parked{h, std::move(blockers)};
      uint64_t victim = FindDeadlockVictimLocked(holder);
      if (victim != 0) {
        // Every cycle member is parked, the victim included.
        TenantCounter("deadlocks", parked_.at(victim).holder->tenant_)->Add(1);
        if (victim == holder) {
          h->aborted_.store(true, std::memory_order_release);
        } else {
          AbortVictimLocked(victim);
        }
      }
    }
    if (h->aborted()) {
      result = VictimStatus();
      break;
    }
    const deadline::Deadline dl = deadline::Current();
    auto until = std::chrono::steady_clock::now() + kDetectionTick;
    if (dl.active && dl.at < until) until = dl.at;
    s.cv.wait_until(lk, until);
    if (h->aborted()) {
      result = VictimStatus();
      break;
    }
    if (Grantable(e, holder, mode)) {
      // Accept the grant atomically against the deadlock detector: the
      // victim-flag check and leaving the parked set share one graph-
      // latch round, so a detector that still sees our edges either
      // flagged us first (we abort here) or runs after the erase, finds
      // us no longer parked, and never flags us — closing the window
      // where a just-granted waiter could be picked as a stale victim.
      std::lock_guard<Latch> g(graph_mu_);
      if (h->aborted()) {
        result = VictimStatus();
        break;
      }
      parked_.erase(holder);
      granted = true;
      break;
    }
    if (dl.active && std::chrono::steady_clock::now() >= dl.at) {
      // Name one current conflicting holder so the client knows who to
      // wait out (or which bracket to go ROLLBACK). A holder locks only
      // its own tenant's keys, so the owner's tenant is the key's.
      std::string msg = "lock wait timed out on " + key.table;
      if (key.row != kTableRowId) {
        msg += '#';
        msg += std::to_string(key.row);
      }
      std::vector<uint64_t> now_blocking = BlockersOf(e, holder, mode);
      if (!now_blocking.empty()) {
        msg += "; held by txn " + std::to_string(now_blocking.front()) +
               " (tenant " + std::to_string(key.tenant) + ")";
      }
      result = Status::DeadlineExceeded(std::move(msg));
      TenantCounter("timeouts", h->tenant_)->Add(1);
      break;
    }
  }
  e.waiters--;
  if (!granted) {
    {
      std::lock_guard<Latch> g(graph_mu_);
      parked_.erase(holder);
    }
    if (e.owners.empty() && e.waiters == 0) RetireEmptyEntry(s, key, e);
  } else {
    if (Grant(&e, holder, mode)) {
      h->held_.emplace_back(key, &e);
      s.granted++;
      e.acquired->Add(1);
    }
    const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                        std::chrono::steady_clock::now() - wait_start)
                        .count();
    TenantWaitHistogram(h->tenant_)->Record(static_cast<uint64_t>(us));
  }
  return result;
}

void LockManager::RetireEmptyEntry(Shard& s, const LockKey& key,
                                   const LockEntry& e) {
  if (!e.dead_row && s.empty_entries < kEmptyEntryCacheCap) {
    s.empty_entries++;  // keep as a cached empty node
  } else {
    s.table.erase(key);
  }
}

void LockManager::MarkDeadRows(LockHolder* h, int64_t tenant,
                               const std::string& table_lower,
                               const std::vector<int64_t>& rows) {
  std::vector<int64_t> sorted(rows);
  std::sort(sorted.begin(), sorted.end());
  // Every key of one (tenant, table) lives in one shard.
  Shard& s = shards_[LockKeyHash::TableHash(tenant, table_lower) % kShards];
  std::lock_guard<Latch> lk(s.mu);
  for (auto& [k, entry] : h->held_) {
    if (k.row != kTableRowId && k.tenant == tenant && k.table == table_lower &&
        std::binary_search(sorted.begin(), sorted.end(), k.row)) {
      entry->dead_row = true;
    }
  }
}

void LockManager::Release(LockHolder* h) {
  // Keys of one statement cluster by shard (a table intent and its row
  // locks co-locate), so release consecutive same-shard keys under one
  // latch hold. Each key's entry is the map node it was granted on —
  // still pinned by this holder's ownership — so no probe is needed.
  const uint64_t holder = h->id_;
  LockHolder::HeldKeys& held = h->held_;
  for (size_t i = 0; i < held.size();) {
    Shard& s = ShardFor(held[i].first);
    bool notify = false;
    bool x_released = false;
    uint64_t releases = 0;
    {
      std::lock_guard<Latch> lk(s.mu);
      do {
        LockEntry& e = *held[i].second;
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
          RetireEmptyEntry(s, held[i].first, e);
        }
        ++i;
      } while (i < held.size() && &ShardFor(held[i].first) == &s);
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
  held.clear();
}

// --- StatementLockContext --------------------------------------------

thread_local LockHolder::HeldKeys StatementLockContext::held_scratch_;

StatementLockContext* StatementLockContext::Current() { return tls_lock_ctx; }

StatementLockContext::StatementLockContext(LockManager* lm, int64_t tenant,
                                           LockHolder* txn_holder)
    : lm_(lm), tenant_(tenant), holder_(txn_holder), prev_(tls_lock_ctx) {
  if (lm_ != nullptr && holder_ == nullptr) {
    holder_ = &own_.emplace(lm_, tenant_);
    own_->held_.swap(held_scratch_);
  }
  tls_lock_ctx = this;
}

StatementLockContext::~StatementLockContext() {
  tls_lock_ctx = prev_;
  // Statement-duration locks drop here — the entry points destroy this
  // scope only after the statement's batch has reverted or finished, so
  // a revert always runs under the locks it needs. A bracket's locks
  // survive until the TransactionContext releases them after
  // COMMIT/ROLLBACK.
  if (own_) {
    own_->ReleaseAll();
    own_->held_.swap(held_scratch_);
  }
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
  bool w = false;
  Status st = holder_->Acquire(LockKey{tenant_, table_lower, row_id},
                               LockMode::kX, &w);
  return Note(std::move(st), w);
}

void StatementLockContext::ForgetDeletedRows(const std::string& table_lower,
                                             const std::vector<int64_t>& rows) {
  if (lm_ == nullptr || rows.empty()) return;
  lm_->MarkDeadRows(holder_, tenant_, table_lower, rows);
}

Status StatementLockContext::LockRowWithIntent(const std::string& table_lower,
                                               int64_t row_id) {
  if (lm_ == nullptr) return Status::OK();
  if (row_id < 0) {
    return Status::Internal("row lock on negative row id " +
                            std::to_string(row_id) + " in " + table_lower);
  }
  bool w = false;
  Status st = lm_->AcquireRowWithIntent(
      holder_, LockKey{tenant_, table_lower, kTableRowId},
      LockKey{tenant_, table_lower, row_id}, &w);
  return Note(std::move(st), w);
}

Status StatementLockContext::LockTable(const std::string& table_lower,
                                       LockMode mode) {
  if (lm_ == nullptr) return Status::OK();
  bool w = false;
  Status st =
      holder_->Acquire(LockKey{tenant_, table_lower, kTableRowId}, mode, &w);
  return Note(std::move(st), w);
}

}  // namespace lock
}  // namespace mtdb
