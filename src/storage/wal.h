#ifndef MTDB_STORAGE_WAL_H_
#define MTDB_STORAGE_WAL_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/types.h"
#include "storage/page.h"

namespace mtdb {

/// Physical log record kinds. Groups carry page redo for one engine
/// write batch (a whole logical write); the txn records bracket a
/// client transaction, so recovery can undo one that never committed
/// (see DESIGN.md §10 and §14).
enum class WalRecordType : uint8_t {
  kGroup = 1,
  kTxnBegin = 2,
  kTxnHint = 3,
  kTxnEnd = 4,
};

/// One decoded log frame: header fields plus the raw payload bytes.
struct WalRecord {
  uint64_t lsn = 0;
  WalRecordType type = WalRecordType::kGroup;
  std::string payload;
};

/// FNV-1a 64-bit offset basis: the seed of every WAL frame and checkpoint
/// meta checksum, and of the page sums in v1/v2 checkpoint meta files.
inline constexpr uint64_t kFnv1aBasis = 14695981039346656037ull;

/// FNV-1a over a byte range; also used by the checkpoint meta file.
uint64_t WalChecksum(const char* data, size_t len, uint64_t seed);

/// Bytes of frame framing ahead of the payload (magic, lsn, type, pad,
/// payload length, checksum) — exported so the Durability manager can
/// account WAL bytes without re-deriving the layout.
inline constexpr size_t kWalFrameHeaderSize = 4 + 8 + 1 + 3 + 4 + 8;

// ------------------------------------------------------------- payloads

/// Page-lifetime operation inside a group, stamped with the store's
/// global op sequence number. Group append order equals latch order only
/// per table; statements on *different* tables allocate from the shared
/// store in one global order yet race to the log, so replay collects the
/// ops of every group, sorts them by `seq`, and re-executes each against
/// exactly the recorded page id (DESIGN.md §10.4).
struct WalPageOp {
  enum class Kind : uint8_t { kAlloc = 1, kDealloc = 2 };
  Kind kind = Kind::kAlloc;
  PageId page = kInvalidPageId;
  PageType type = PageType::kFree;  // allocs only
  uint64_t seq = 0;                 // store-assigned global op order
};

/// Full image of one page the statement left dirty: logged on the
/// page's first change after a checkpoint or its allocation, and when a
/// delta would not be smaller.
struct WalPageImage {
  PageId page = kInvalidPageId;
  PageType type = PageType::kHeap;
  std::string image;
};

/// The changed bytes of one page, as ops that turn the page's previous
/// image into its new one (EncodePageDelta / ApplyPageDelta).
struct WalPageDelta {
  PageId page = kInvalidPageId;
  std::string ops;
};

/// Diffs a page against its before-image. The result is a sequence of
/// ops applied in order: every kMove (memmove within the page, reading
/// only bytes no earlier op wrote) first, then every kSet. Shifted runs —
/// a B-tree entry array opened or closed by one slot — become one move
/// instead of a copy of every shifted byte. Empty when nothing changed.
/// Offsets are u16: page sizes stay below 64 KiB engine-wide.
std::string EncodePageDelta(const char* before, const char* after,
                            size_t page_size);

/// Applies EncodePageDelta's ops to `page` in place. kDataLoss when an op
/// is truncated or reaches outside the page.
Status ApplyPageDelta(const std::string& ops, char* page, size_t page_size);

/// Physical locations the catalog snapshot cannot know about: a heap's
/// first page is set on first insert and a B-tree root moves on split,
/// both without DDL. Each DML group records them for its table; replay
/// applies the survivors on top of the last catalog blob.
struct WalTableMeta {
  int32_t table_id = 0;
  PageId first_page = kInvalidPageId;
  std::vector<std::pair<int32_t, PageId>> index_roots;
};

/// Decoded kGroup payload.
struct WalGroup {
  std::vector<WalPageOp> ops;
  std::vector<WalPageImage> images;
  std::vector<WalPageDelta> deltas;
  std::vector<WalTableMeta> table_meta;
  /// Full catalog snapshot; present only for DDL statements.
  bool has_catalog_blob = false;
  std::string catalog_blob;
};

std::string EncodeWalGroup(const WalGroup& group);
Result<WalGroup> DecodeWalGroup(const std::string& payload);

/// Decoded kTxnBegin / kTxnHint / kTxnEnd payload. Hints carry the
/// compensation SQL for the *next* physical statement of the txn.
struct WalTxnRecord {
  uint64_t txn_id = 0;
  std::string sql;  // hints only
};

std::string EncodeWalTxn(const WalTxnRecord& rec);
Result<WalTxnRecord> DecodeWalTxn(const std::string& payload);

// -------------------------------------------------------------- writer

/// Append-only segmented log writer. Not thread-safe: the Durability
/// manager serializes appends under its own mutex. Each frame is
/// checksummed and flushed before Append returns, so a freeze-crash
/// between statements never loses an acknowledged record; a crash
/// *inside* an append leaves a torn tail the reader truncates.
class WalWriter {
 public:
  WalWriter(std::string dir, uint64_t segment_bytes);
  ~WalWriter();

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Opens the segment after the highest existing one (recovery keeps
  /// old segments readable until the post-recovery checkpoint).
  Status Open();

  Status Append(uint64_t lsn, WalRecordType type, const std::string& payload);

  /// Injected torn tail: writes only a prefix of the frame (header plus
  /// half the payload) and flushes it, modeling a crash mid-append.
  Status AppendTorn(uint64_t lsn, WalRecordType type,
                    const std::string& payload);

  /// Deletes every segment and starts a fresh one (post-checkpoint: all
  /// records are covered by the snapshot).
  Status Truncate();

  uint64_t appended_bytes() const { return appended_bytes_; }

 private:
  Status RotateIfNeeded(size_t next_frame_bytes);
  Status OpenSegment(uint32_t index);
  std::string SegmentPath(uint32_t index) const;

  std::string dir_;
  uint64_t segment_bytes_;
  std::FILE* file_ = nullptr;
  uint32_t segment_index_ = 0;
  uint64_t segment_written_ = 0;
  uint64_t appended_bytes_ = 0;
};

// -------------------------------------------------------------- reader

/// Scans every segment in order, verifying frame checksums. The first
/// invalid frame is treated as a torn tail: the file is truncated at
/// that offset, later segments are deleted, and the scan stops — torn
/// records are never surfaced, let alone replayed. A valid frame of the
/// older full-image format (magic "MWAL") fails the scan with
/// kFailedPrecondition and leaves every segment as it is.
class WalReader {
 public:
  explicit WalReader(std::string dir) : dir_(std::move(dir)) {}

  struct ScanResult {
    std::vector<WalRecord> records;
    /// Number of torn tails truncated (0 or 1 per scan).
    uint64_t truncated_tails = 0;
  };

  Result<ScanResult> ReadAll();

 private:
  std::string dir_;
};

}  // namespace mtdb

#endif  // MTDB_STORAGE_WAL_H_
