#ifndef MTDB_STORAGE_DURABILITY_H_
#define MTDB_STORAGE_DURABILITY_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/latch.h"
#include "common/metrics.h"
#include "common/result.h"
#include "common/status.h"
#include "storage/buffer_pool.h"
#include "storage/page_store.h"
#include "storage/wal.h"

namespace mtdb {

struct DurabilityOptions {
  uint64_t wal_segment_bytes = 4 * 1024 * 1024;
  /// WAL bytes between automatic checkpoints; 0 disables auto
  /// checkpointing (explicit Database::Checkpoint() still works).
  uint64_t checkpoint_interval_bytes = 0;
};

/// One write batch of a client transaction still open at checkpoint
/// time: the transaction and the batch's undo records. Checkpoints must
/// not lose them when they truncate the WAL, so the meta file (v4) lists
/// every open transaction's batches in the order they ran, and recovery
/// re-seeds them into replay in that order. Reverting needs the order
/// across transactions too: a heap slot one transaction freed can hold a
/// row another inserted.
struct OpenTxnMeta {
  uint64_t txn_id = 0;
  std::string undo;
};

/// What WAL replay hands back to the engine: the last catalog snapshot,
/// the physical-location overrides accumulated since it (heap first
/// pages, index roots), and the open client transactions to undo with
/// their write batches' undo records, concatenated in log order.
struct RecoveredState {
  bool found_checkpoint = false;
  std::string catalog_blob;
  std::vector<WalTableMeta> table_overrides;
  std::vector<uint64_t> open_txns;
  std::string open_undo;
  uint64_t next_txn_id = 1;
  uint64_t replayed_groups = 0;
};

/// The durability subsystem: a segmented physical WAL plus a page-file
/// backing store (`pages.db` + `meta`) written by fuzzy checkpoints.
///
/// Contract (DESIGN.md §10): every write batch that mutated pages — one
/// per logical write, however many physical writes it fans out to, or
/// one DDL statement — commits exactly one checksummed group frame (per
/// dirtied page a delta of its changed bytes, or a full image on the
/// page's first change since the checkpoint or its allocation, plus
/// ordered alloc/dealloc ops) while its table latches are still held,
/// so "statement reported success" if and only if "statement survives
/// recovery". Inside a client transaction the group also carries the
/// batch's undo records, which let recovery undo a transaction that
/// never committed; a group that ends the transaction (a pages-free one
/// on COMMIT) closes it.
///
/// Failure model: freeze-on-crash. An injected kCrash (or a real append
/// failure) freezes the subsystem; every later durable operation returns
/// kUnavailable, the caller tears the process down and reopens from
/// disk. In-memory state after a freeze may be ahead of disk — it is
/// never written back, so the divergence cannot leak. Files are flushed
/// with fflush: the model covers process death, not OS/power loss.
class Durability {
 public:
  Durability(std::string dir, DurabilityOptions options, PageStore* store,
             BufferPool* pool);
  ~Durability();

  Durability(const Durability&) = delete;
  Durability& operator=(const Durability&) = delete;

  /// Loads the checkpoint into the store, replays the WAL (truncating a
  /// torn tail), verifies untouched page images against the checkpoint
  /// checksums, and opens a fresh log segment for new appends. Must be
  /// called before any other method; a second call is
  /// kFailedPrecondition.
  Result<RecoveredState> Recover();

  /// Appends a write batch's redo group: `group` arrives with its table
  /// meta, catalog blob and transaction section set, and the capture's
  /// page ops and records are added. Called with the batch's exclusive
  /// table latches still held. A page with a before-image in the capture
  /// is logged as a delta against it, unless it has no full image in the
  /// log since the last checkpoint (or its allocation) or the delta would
  /// not be smaller than the page; then as a full image. An empty capture
  /// of a group that carries nothing else is a no-op (read-only batch).
  Status CommitGroup(const PageMutationCapture& capture, WalGroup group);

  /// Client transactions: assigns an id and logs nothing. A transaction
  /// first reaches the log with its first write batch's group and leaves
  /// it with a group that ends it (WalGroup::ended_txns); checkpoints
  /// carry open transactions forward in the meta file instead of waiting
  /// for them.
  uint64_t BeginTxn();

  /// Writes the checkpoint: FlushAll, dirty store pages into pages.db,
  /// meta (tmp + atomic rename), then WAL truncation last. Installing the
  /// meta clears every page's imaged bit, so each page's next change
  /// logs a full image again. The caller
  /// must have quiesced all statements and txn-record appends (engine DDL
  /// latch exclusive). `open_txns` carries the undo records of client
  /// transactions still open at this instant, one entry per write batch
  /// in the order the batches ran; truncation erases their groups, so
  /// the meta copy is what recovery reverts.
  Status WriteCheckpoint(const std::string& catalog_blob,
                         const std::vector<OpenTxnMeta>& open_txns = {});

  bool frozen() const { return frozen_.load(std::memory_order_acquire); }
  void Freeze() { frozen_.store(true, std::memory_order_release); }

  /// True once enough WAL has accumulated to warrant a checkpoint.
  bool NeedsCheckpoint() const;

  const std::string& dir() const { return dir_; }

 private:
  /// Counter access goes through Database::Stats() — the one composed
  /// snapshot — rather than a public per-component accessor.
  friend class Database;
  DurabilityCounters& counters() { return counters_; }
  const DurabilityCounters& counters() const { return counters_; }

  /// Consults the store's injector at FaultPoint::kCrash and freezes on
  /// fire; also rejects every durable op once frozen.
  Status MaybeCrash();
  /// Appends one frame under mu_; freezes on any append failure so a
  /// half-acknowledged statement can never be followed by another.
  Status AppendLocked(WalRecordType type, const std::string& payload);

  std::string PagesPath() const { return dir_ + "/pages.db"; }
  std::string MetaPath() const { return dir_ + "/meta"; }
  std::string MetaTmpPath() const { return dir_ + "/meta.tmp"; }
  std::string WalDir() const { return dir_ + "/wal"; }

  struct CheckpointMeta {
    /// Format version as loaded; it decides the page-sum function (v3+:
    /// PageStore::Checksum, v1/v2: FNV-1a).
    uint32_t version = 0;
    uint64_t ckpt_lsn = 0;
    uint64_t next_txn_id = 1;
    std::vector<std::pair<PageType, uint64_t>> pages;  // slot -> type, sum
    std::vector<PageId> free_list;
    std::string catalog_blob;
    std::vector<OpenTxnMeta> open_txns;  // loaded from v4 files only
  };
  Status LoadMeta(CheckpointMeta* meta, bool* found);
  Status StoreMeta(const CheckpointMeta& meta);

  std::string dir_;
  DurabilityOptions options_;
  PageStore* store_;
  BufferPool* pool_;
  std::unique_ptr<WalWriter> writer_;

  /// Serializes appends and lsn assignment.
  Latch mu_{LatchRank::kWal, "wal-append"};
  uint64_t next_lsn_ = 1;
  std::atomic<uint64_t> next_txn_id_{1};
  std::atomic<uint64_t> bytes_since_ckpt_{0};
  std::atomic<bool> frozen_{false};
  DurabilityCounters counters_;
};

}  // namespace mtdb

#endif  // MTDB_STORAGE_DURABILITY_H_
