#ifndef MTDB_STORAGE_BUFFER_POOL_H_
#define MTDB_STORAGE_BUFFER_POOL_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/latch.h"
#include "common/result.h"
#include "common/status.h"
#include "common/types.h"
#include "storage/page.h"
#include "storage/page_store.h"

namespace mtdb {

/// Capped-exponential-backoff policy for transient I/O errors. Reads
/// retry kIOError and kDataLoss (a bit flip corrupts only the delivered
/// copy, so re-reading recovers); writes retry kIOError (which includes
/// reported torn writes — the retry rewrites the full image and repairs
/// the page). Backoff doubles per attempt up to the cap. Defaults keep
/// fault-free runs free of any sleeping.
struct RetryPolicy {
  int max_attempts = 4;
  uint64_t initial_backoff_ns = 1000;
  uint64_t max_backoff_ns = 64 * 1000;
};

/// Logical/physical access counters split by page type; Table 2's
/// "Bufferpool Hit Ratio Data / Index" rows come straight from these.
struct BufferPoolStats {
  uint64_t logical_reads_data = 0;
  uint64_t logical_reads_index = 0;
  uint64_t misses_data = 0;
  uint64_t misses_index = 0;
  uint64_t evictions = 0;

  uint64_t logical_reads() const {
    return logical_reads_data + logical_reads_index;
  }
  uint64_t misses() const { return misses_data + misses_index; }
  double HitRatioData() const {
    return logical_reads_data == 0
               ? 1.0
               : 1.0 - static_cast<double>(misses_data) /
                           static_cast<double>(logical_reads_data);
  }
  double HitRatioIndex() const {
    return logical_reads_index == 0
               ? 1.0
               : 1.0 - static_cast<double>(misses_index) /
                           static_cast<double>(logical_reads_index);
  }
};

/// Number of latch-striped LRU partitions. Pages hash to a shard by id,
/// so concurrent sessions touching different pages contend only on
/// different shard latches.
inline constexpr size_t kBufferPoolShards = 8;

/// Per-statement record of page mutations, filled by the pool's capture
/// hooks while a PageCaptureScope is installed on the executing thread.
/// `ops` keeps allocs and deallocs in statement order, each stamped with
/// the store's global op sequence number — across concurrent statements
/// the store order is the truth WAL replay must reproduce, and group
/// append order need not match it; `dirtied` collects the ids whose
/// changes the commit-time group append must log.
///
/// Before-images: the first BufferPool::WillWrite on a page copies the
/// page as it was before this statement touched it — which is exactly
/// the state the log already reproduces — so the commit can log only the
/// bytes that changed (DESIGN.md §10.2). Pages the statement allocated
/// are noted without an image; their first record is a full image. The
/// images live only as long as the capture, i.e. one statement.
struct PageMutationCapture {
  struct Op {
    enum class Kind : uint8_t { kAlloc, kDealloc };
    Kind kind;
    PageId page;
    PageType type;  // allocs only
    uint64_t seq;   // store-assigned global op sequence number
  };
  std::vector<Op> ops;
  std::vector<PageId> dirtied;  // may contain duplicates; dedup at commit

  bool empty() const { return ops.empty() && dirtied.empty(); }

  /// True once the statement declared write intent on `page` (or
  /// allocated it). The WAL-protocol analyzer checks this on every dirty
  /// unpin: a mutation without it would be logged as a wrong delta.
  bool HasWriteIntent(PageId page) const { return Find(page) != nullptr; }

  /// The page's bytes as of the statement's first write intent, or
  /// nullptr when the statement allocated the page or never declared
  /// intent on it.
  const char* BeforeImage(PageId page) const {
    const Intent* intent = Find(page);
    if (intent == nullptr || intent->image == kNoBeforeImage) return nullptr;
    return before_images_.data() + intent->image;
  }

  /// Pool hooks: the first intent on a page keeps a copy of its bytes;
  /// an allocation records the page without one.
  void NoteWriteIntent(const Page& page);
  void NoteAllocation(PageId page);

 private:
  static constexpr size_t kNoBeforeImage = ~size_t{0};
  struct Intent {
    PageId page;
    size_t image;  // offset into before_images_, or kNoBeforeImage
  };
  static bool Before(const Intent& intent, PageId page) {
    return intent.page < page;
  }
  const Intent* Find(PageId page) const {
    auto it = std::lower_bound(intents_.begin(), intents_.end(), page, Before);
    return it != intents_.end() && it->page == page ? &*it : nullptr;
  }
  std::vector<Intent> intents_;  // sorted by page
  std::vector<char> before_images_;
};

/// Installs a capture on the current thread for the lifetime of the
/// scope. Only NewPage / WillWrite / UnpinPage(dirty) / DeletePage on
/// this thread are recorded; eviction write-backs are cache movement,
/// not logical mutation, and are deliberately not captured.
class PageCaptureScope {
 public:
  explicit PageCaptureScope(PageMutationCapture* capture);
  ~PageCaptureScope();

  PageCaptureScope(const PageCaptureScope&) = delete;
  PageCaptureScope& operator=(const PageCaptureScope&) = delete;

  /// The capture installed on the calling thread, or nullptr.
  static PageMutationCapture* Current();

 private:
  PageMutationCapture* previous_;
};

/// LRU buffer pool over a PageStore, sharded into kBufferPoolShards
/// latch-striped partitions. Each shard owns its own frame table, LRU
/// list, per-frame pin counts, and stats; a page's shard is a pure
/// function of its id. Capacity is in frames, split evenly across the
/// shards, and can be resized at runtime: the catalog shrinks it as
/// per-table meta-data is charged against the shared memory budget (the
/// DB2 "4 KB per table" behaviour of §1.1/§5).
///
/// Thread-safety: the pool's own bookkeeping (frame maps, LRU, pins) is
/// safe under concurrent calls. The *contents* of a returned Page are
/// NOT latched here — callers must hold the owning table/index latch
/// (shared for reads, exclusive for writes) while a page is pinned; the
/// pin only prevents eviction.
class BufferPool {
 public:
  BufferPool(PageStore* store, size_t capacity);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Pins and returns a page, reading through the store on a miss.
  /// Transient read errors are retried per the RetryPolicy; once
  /// exhausted the last Status (kIOError/kDataLoss, or kNotFound for a
  /// deallocated id) surfaces to the caller and nothing is pinned.
  Result<Page*> FetchPage(PageId id);

  /// Allocates a new page in the store and pins it.
  Page* NewPage(PageType type);

  /// Declares that the caller is about to modify `page`, which it has
  /// pinned under its exclusive table latch. Every mutation site calls
  /// it before its first change to a page that existed before the
  /// statement: under a capture the first call keeps the page's
  /// before-image so the commit can log a delta. With no capture
  /// installed (in-memory engines) it is one branch.
  void WillWrite(const Page* page);

  /// Releases a pin; `dirty` marks the frame for write-back on eviction.
  void UnpinPage(PageId id, bool dirty);

  /// Drops a page from the pool and the store.
  void DeletePage(PageId id);

  /// Writes back all dirty frames. On a persistent write failure the
  /// frame stays dirty (and cached — no data is lost) and the first
  /// error is returned after attempting every frame.
  Status FlushAll();

  /// Writes back and evicts every unpinned frame — used to run the
  /// paper's cold-cache experiments (Figure 11). Frames whose write-back
  /// fails stay cached and dirty; the first error is returned.
  Status EvictAll();

  /// Adjusts the frame budget. Shrinking evicts LRU frames lazily.
  void SetCapacity(size_t frames);
  size_t capacity() const;
  size_t frames_in_use() const;

  /// Aggregated counters over all shards (a consistent-enough snapshot;
  /// shards are locked one at a time).
  BufferPoolStats stats() const;
  void ResetStats();

  PageStore* store() { return store_; }

  /// Replaces the transient-error retry policy. Not synchronized with
  /// in-flight I/O — set it before concurrent traffic (tests/benches).
  void set_retry_policy(const RetryPolicy& policy) { retry_policy_ = policy; }
  const RetryPolicy& retry_policy() const { return retry_policy_; }

  /// Shard a page id maps to. Exposed so tests (and capacity planners)
  /// can reason about which pages contend on the same latch stripe.
  static size_t ShardOf(PageId id) {
    return static_cast<size_t>(static_cast<uint64_t>(id)) % kBufferPoolShards;
  }

  /// WAL-protocol enforcement (instrumented builds): once on, any page
  /// mutation on a thread with no PageCaptureScope installed is a C301
  /// lockdep violation. The durable engine flips this on at startup;
  /// pools without a durability layer legitimately mutate uncaptured.
  void set_wal_protocol_checks(bool on) { wal_checks_ = on; }

 private:
  struct Frame {
    Page page;
    int pin_count = 0;
    bool dirty = false;
    std::list<PageId>::iterator lru_it;
    bool in_lru = false;
    explicit Frame(uint32_t page_size) : page(page_size) {}
  };

  /// One latch-striped partition: frames, LRU order, local capacity
  /// share, and local stats, all guarded by `mu`.
  struct Shard {
    mutable Latch mu{LatchRank::kBufferShard, "buffer-shard"};
    std::unordered_map<PageId, std::unique_ptr<Frame>> frames;
    std::list<PageId> lru;  // front = most recent
    size_t capacity = 1;
    BufferPoolStats stats;
  };

  /// Evicts LRU victims until shard.frames.size() <= shard.capacity.
  /// Honors pins; a victim whose write-back fails stays cached (dirty)
  /// and eviction stops — the shard overshoots rather than lose data.
  /// Caller holds shard.mu.
  void EvictIfNeeded(Shard& shard);
  /// Moves the frame to the LRU front (inserting it on first use).
  void Touch(Shard& shard, Frame* frame, PageId id);
  /// Bumps the shard's logical-read (and on a miss, miss) counter of the
  /// page's type. Caller holds shard.mu.
  static void CountRead(Shard& shard, PageType type, bool miss);
  Status FlushFrame(Frame* frame);

  /// Store I/O with capped exponential backoff on transient errors.
  Status ReadWithRetry(PageId id, char* out);
  Status WriteWithRetry(PageId id, const char* in);

  PageStore* store_;
  std::array<Shard, kBufferPoolShards> shards_;
  mutable Latch capacity_mu_{LatchRank::kBufferCapacity, "buffer-capacity"};
  size_t capacity_;
  RetryPolicy retry_policy_;
  /// Set once at engine startup, before concurrent traffic.
  bool wal_checks_ = false;

  void DistributeCapacity(size_t total);
};

/// RAII pin guard.
class PageGuard {
 public:
  PageGuard() = default;
  PageGuard(BufferPool* pool, Page* page) : pool_(pool), page_(page) {}
  PageGuard(const PageGuard&) = delete;
  PageGuard& operator=(const PageGuard&) = delete;
  PageGuard(PageGuard&& other) noexcept { *this = std::move(other); }
  PageGuard& operator=(PageGuard&& other) noexcept {
    Release();
    pool_ = other.pool_;
    page_ = other.page_;
    dirty_ = other.dirty_;
    other.pool_ = nullptr;
    other.page_ = nullptr;
    return *this;
  }
  ~PageGuard() { Release(); }

  Page* get() { return page_; }
  Page* operator->() { return page_; }
  explicit operator bool() const { return page_ != nullptr; }
  void MarkDirty() { dirty_ = true; }

  void Release() {
    if (pool_ != nullptr && page_ != nullptr) {
      pool_->UnpinPage(page_->id(), dirty_);
    }
    pool_ = nullptr;
    page_ = nullptr;
    dirty_ = false;
  }

 private:
  BufferPool* pool_ = nullptr;
  Page* page_ = nullptr;
  bool dirty_ = false;
};

}  // namespace mtdb

#endif  // MTDB_STORAGE_BUFFER_POOL_H_
