#ifndef MTDB_STORAGE_PAGE_STORE_H_
#define MTDB_STORAGE_PAGE_STORE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/fault.h"
#include "common/latch.h"
#include "common/metrics.h"
#include "common/result.h"
#include "common/status.h"
#include "common/types.h"
#include "storage/page.h"

namespace mtdb {

/// Persistent-tier I/O counters. Every buffer-pool miss shows up here as
/// a physical read; Figures 10–12 are driven by these and the logical
/// counters in BufferPoolStats.
struct PageStoreStats {
  uint64_t physical_reads = 0;
  uint64_t physical_writes = 0;
  uint64_t allocations = 0;
};

/// The "disk": an in-memory array of page images standing in for the
/// paper's NFS appliance. Reads/writes copy whole page images so the
/// buffer pool above it behaves exactly like a cache, and an optional
/// per-I/O latency models cold-cache experiments.
///
/// Failure model: every physical I/O consults an optional FaultInjector
/// and can fail with a transient kIOError, deliver a corrupted image, or
/// apply only a prefix of a write (a torn write). Each stored page
/// carries the checksum (see Checksum) of the image the writer
/// *intended*, so a read detects torn or corrupted images as kDataLoss
/// instead of returning bad bytes. Reads of a deallocated or
/// out-of-range id return kNotFound (never UB).
///
/// Cost model: a physical I/O costs one 8 KiB copy plus one checksum
/// pass (about a microsecond together on a 2 GHz core), plus the
/// optional simulated latency. The hashing runs outside the store's mutex — a read verifies
/// its delivered copy after unlocking, a write hashes before locking,
/// and an allocation stores a zero-page sum computed once per store — so
/// the mutex covers only the copy and the bookkeeping.
///
/// Thread-safety: all methods are safe to call from concurrent sessions.
/// An internal mutex guards the page array and counters; the simulated
/// device latency is charged as a *blocking* wait outside that mutex, so
/// concurrent sessions overlap their I/O stalls exactly like synchronous
/// reads against a real shared appliance.
class PageStore {
 public:
  explicit PageStore(uint32_t page_size = kDefaultPageSize);

  PageStore(const PageStore&) = delete;
  PageStore& operator=(const PageStore&) = delete;

  uint32_t page_size() const { return page_size_; }

  /// Allocates a new zeroed page of `type`, returning its id. If `seq`
  /// is non-null it receives the store's global op sequence number for
  /// this allocation — alloc/dealloc order is a *store-wide* total order
  /// (one counter under mu_), which the WAL records so replay can
  /// reconstruct it even though group append order is only per-table.
  PageId Allocate(PageType type, uint64_t* seq = nullptr);

  /// Releases a page (its id may be reused). Invalid ids are ignored and
  /// leave `*seq` untouched; a performed dealloc stores its op sequence
  /// number (never 0) into `seq` when non-null.
  void Deallocate(PageId id, uint64_t* seq = nullptr);

  /// Copies the stored image into `out` (sized page_size). Counts a
  /// physical read and applies the simulated latency.
  ///   kNotFound  — `id` is out of range or deallocated
  ///   kIOError   — an injected transient device error; retry may succeed
  ///   kDataLoss  — the delivered image fails its checksum (torn write
  ///                on the device, or corruption on the wire)
  Status Read(PageId id, char* out);

  /// Copies `in` into the stored image and records its checksum.
  ///   kNotFound — `id` is out of range or deallocated
  ///   kIOError  — injected device error; either nothing was stored or a
  ///               torn prefix was (the recorded checksum still covers
  ///               the full intended image, so a later read of a torn
  ///               page reports kDataLoss). A *silent* torn write
  ///               returns OK — the device lied — and is only caught by
  ///               the checksum on the next physical read.
  Status Write(PageId id, const char* in);

  /// kFree for out-of-range or deallocated ids.
  PageType TypeOf(PageId id) const;
  bool IsAllocated(PageId id) const;

  size_t allocated_pages() const;

  PageStoreStats stats() const;
  void ResetStats();

  /// Simulated device latency charged per physical read, in nanoseconds
  /// the issuing thread blocks. Defaults to 0 (counter-only model).
  /// Atomic so benchmarks can load data fast and then dial the latency
  /// up for the measured phase without racing in-flight reads.
  void set_read_latency_ns(uint64_t ns) {
    read_latency_ns_.store(ns, std::memory_order_relaxed);
  }

  /// Attaches (or detaches, with nullptr) a fault injector consulted on
  /// every physical I/O. The store does not own it; the caller must keep
  /// it alive while attached. With none attached the I/O path pays one
  /// relaxed atomic load.
  void set_fault_injector(FaultInjector* injector) {
    injector_.store(injector, std::memory_order_release);
  }
  FaultInjector* fault_injector() const {
    return injector_.load(std::memory_order_acquire);
  }

  /// Fault/retry counters shared with the buffer pool above: the store
  /// bumps the fault side (injected errors, checksum failures, latency
  /// spikes); the pool bumps the retry side.
  IoFaultCounters& io_counters() { return io_counters_; }
  const IoFaultCounters& io_counters() const { return io_counters_; }

  /// The per-page checksum: a 64-bit word-at-a-time hash with xxHash64's
  /// construction (four multiply-rotate lanes over 32-byte stripes and a
  /// final avalanche); bit-compatible with xxHash64 at seed 0.
  /// Checkpoint meta files before v3 hold byte-wise FNV-1a sums instead;
  /// only recovery reads those (Durability::Recover).
  static uint64_t Checksum(const char* data, size_t n);

  // ---- durability hooks (used only by the Durability manager) ----

  /// When on, every Allocate/Deallocate/Write notes its page id so the
  /// next checkpoint flushes only pages changed since the previous one.
  void set_dirty_tracking(bool on) {
    track_dirty_.store(on, std::memory_order_relaxed);
  }

  /// Snapshot of the dirty-since-checkpoint set (sorted). The set is
  /// cleared separately, only after the checkpoint fully commits, so a
  /// crash mid-checkpoint keeps the ids for the next attempt.
  std::vector<PageId> DirtySinceCheckpoint() const;
  void ClearDirty(const std::vector<PageId>& flushed);

  /// First-touch rule for delta redo (DESIGN.md §10.2): returns whether
  /// a full image of `id` was already logged since the last checkpoint
  /// (and since the page's allocation), and marks it logged. The caller
  /// holds the page's exclusive table latch; the checkpoint clears every
  /// bit with ClearImaged once its meta is installed.
  bool TestAndSetImaged(PageId id);
  void ClearImaged();

  /// Free list in pop order (back = next Allocate). Checkpoints persist
  /// it; recovery and the Deallocate regression test compare it.
  std::vector<PageId> FreeListSnapshot() const;
  size_t page_slots() const;

  /// Raw image access for checkpoint writing: no faults, no latency, no
  /// stats. kNotFound for free slots.
  Status RawRead(PageId id, PageType* type, std::vector<char>* image,
                 uint64_t* checksum) const;
  /// Stored checksum of an allocated page (post-replay verification).
  Result<uint64_t> StoredChecksum(PageId id) const;

  /// Recovery: drops every page, the free list, and the op sequence.
  void RecoverReset();
  /// Recovery: replays a logged allocation at exactly `id`, which must
  /// currently be free (a free-list member, a gap, or past the end — the
  /// slot array grows; slots skipped over were claimed by statements the
  /// crash left unlogged and return to the free list). An allocated `id`
  /// means the log and the store diverged: kDataLoss.
  Status RecoverAlloc(PageId id, PageType type);
  /// Recovery: replays a logged deallocation. kDataLoss if `id` is not
  /// currently allocated.
  Status RecoverDealloc(PageId id);
  /// Recovery: raises the op-sequence counter to at least `last_seq`, so
  /// ops performed after recovery (undo statements, new workload) sort
  /// strictly after every replayed one even if the sealing checkpoint
  /// crashes and both lifetimes share one log.
  void RecoverSetOpSeq(uint64_t last_seq);
  /// Recovery: installs an image at `id` (growing the array; gap slots
  /// stay free), overwriting type, image, and checksum. No faults.
  /// `mark_dirty` enters the page into the dirty-since-checkpoint set —
  /// WAL-replay installs must pass true so the sealing checkpoint flushes
  /// the replayed image over the stale one in pages.db.
  Status RecoverInstall(PageId id, PageType type, const char* image,
                        bool mark_dirty = false);
  void RecoverSetFreeList(std::vector<PageId> free_list);

 private:
  struct StoredPage {
    PageType type = PageType::kFree;
    /// A full image of the page is in the WAL since the last checkpoint
    /// or allocation, so later changes may be logged as deltas.
    bool imaged = false;
    std::vector<char> image;
    /// Checksum of the image the last writer *intended* to store. For a
    /// torn write this covers the full image even though only a prefix
    /// landed, which is exactly how the tear is detected on read.
    uint64_t checksum = 0;
  };

  /// Charges an injected latency spike (and any configured read
  /// latency), blocking the issuing thread outside mu_.
  void ChargeLatency(FaultInjector* injector, bool is_read);

  void NoteDirtyLocked(PageId id);

  uint32_t page_size_;
  /// Checksum of an all-zero image, which every allocation stores.
  uint64_t zero_checksum_;
  mutable Latch mu_{LatchRank::kPageStore, "page-store"};
  std::vector<StoredPage> pages_;
  std::vector<PageId> free_list_;
  PageStoreStats stats_;
  std::atomic<uint64_t> read_latency_ns_{0};
  std::atomic<FaultInjector*> injector_{nullptr};
  IoFaultCounters io_counters_;
  std::atomic<bool> track_dirty_{false};
  std::vector<bool> dirty_;  // guarded by mu_; indexed by page id
  /// Global alloc/dealloc sequence, guarded by mu_. 0 means "no op yet";
  /// the first op gets 1.
  uint64_t op_seq_ = 0;
};

}  // namespace mtdb

#endif  // MTDB_STORAGE_PAGE_STORE_H_
