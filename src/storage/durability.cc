#include "storage/durability.h"

#include "common/byte_codec.h"
#include "common/trace.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <mutex>
#include <unordered_map>
#include <unordered_set>

namespace mtdb {

namespace {

namespace fs = std::filesystem;

constexpr uint32_t kMetaMagic = 0x4D4D4554u;  // "MMET"
// v2 appended an open-client-transaction section of SQL undo hints; v3
// kept that layout but stored PageStore::Checksum page sums, where v1
// and v2 files hold byte-wise FNV-1a sums (LegacyPageChecksum). v4's
// open-txn section lists the open transactions' write batches (txn id,
// undo records) in the order they ran, and its last eight bytes are
// PageStore::Checksum of the rest instead of FNV-1a.
// A v1–v3 file loads when it carries no SQL hint.
constexpr uint32_t kMetaVersion = 4;

/// The page checksum of meta v1 and v2: FNV-1a 64-bit over the image.
/// Only recovery from such a meta uses it.
uint64_t LegacyPageChecksum(const char* image, size_t n) {
  return WalChecksum(image, n, kFnv1aBasis);
}

Status StatusFromErrno(const std::string& what) {
  return Status::IOError(what + ": " + std::strerror(errno));
}

}  // namespace

Durability::Durability(std::string dir, DurabilityOptions options,
                       PageStore* store, BufferPool* pool)
    : dir_(std::move(dir)), options_(options), store_(store), pool_(pool) {}

Durability::~Durability() = default;

Status Durability::MaybeCrash() {
  if (frozen()) return Status::Unavailable("durability frozen after crash");
  FaultInjector* injector = store_->fault_injector();
  if (injector != nullptr && injector->ShouldFire(FaultPoint::kCrash)) {
    counters_.OnInjectedCrash();
    Freeze();
    return Status::Unavailable("injected crash");
  }
  return Status::OK();
}

Status Durability::AppendLocked(WalRecordType type, const std::string& payload) {
  MTDB_RETURN_IF_ERROR(MaybeCrash());  // crash site: append-begin
  uint64_t lsn = next_lsn_++;
  FaultInjector* injector = store_->fault_injector();
  if (injector != nullptr && injector->ShouldFire(FaultPoint::kCrash)) {
    // Crash site: mid-append. Leave a genuine torn tail on disk so
    // recovery exercises checksum-based truncation, then freeze.
    counters_.OnInjectedCrash();
    Freeze();
    (void)writer_->AppendTorn(lsn, type, payload);
    return Status::Unavailable("injected crash mid-append");
  }
  Status st = writer_->Append(lsn, type, payload);
  if (!st.ok()) {
    // The record may or may not have landed; the statement's in-memory
    // effects are already applied. Freeze so no later statement can
    // commit on top of the ambiguity — recovery resolves it from disk.
    Freeze();
    return st;
  }
  uint64_t frame_bytes = kWalFrameHeaderSize + payload.size();
  counters_.OnWalAppend(frame_bytes);
  trace::OnWalBytes(frame_bytes);
  bytes_since_ckpt_.fetch_add(frame_bytes, std::memory_order_relaxed);
  return Status::OK();
}

Status Durability::CommitGroup(const PageMutationCapture& capture,
                               WalGroup group) {
  if (capture.empty() && group.PagesOnly()) return Status::OK();
  group.ops.reserve(capture.ops.size());
  for (const PageMutationCapture::Op& op : capture.ops) {
    WalPageOp out;
    out.kind = op.kind == PageMutationCapture::Op::Kind::kAlloc
                   ? WalPageOp::Kind::kAlloc
                   : WalPageOp::Kind::kDealloc;
    out.page = op.page;
    out.type = op.type;
    out.seq = op.seq;
    group.ops.push_back(out);
  }
  // A page whose last op in this statement freed it has nothing to log
  // (its alloc/dealloc ops still replay, so the free list stays exact);
  // its slot may already belong to another table's statement.
  std::vector<PageId> freed;
  for (const PageMutationCapture::Op& op : capture.ops) {
    if (op.kind == PageMutationCapture::Op::Kind::kDealloc) {
      freed.push_back(op.page);
    } else {
      freed.erase(std::remove(freed.begin(), freed.end(), op.page),
                  freed.end());
    }
  }
  std::sort(freed.begin(), freed.end());
  std::vector<PageId> ids = capture.dirtied;
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  const size_t page_size = store_->page_size();
  for (PageId id : ids) {
    if (std::binary_search(freed.begin(), freed.end(), id)) continue;
    Result<Page*> fetched = pool_->FetchPage(id);
    if (!fetched.ok()) {
      // The statement already mutated this page in memory; failing to log
      // it would let an acknowledged statement vanish on recovery.
      Freeze();
      return fetched.status();
    }
    const Page* page = *fetched;
    // The before-image is the page as the log already reproduces it, so
    // the changed bytes are all a replay needs — once the log holds a
    // full image of the page to apply them to. The first change after a
    // checkpoint logs that image: pages.db may then hold a newer or
    // half-written image (a crash mid-flush), never a valid delta base.
    const char* before = capture.BeforeImage(id);
    std::string ops;
    if (before != nullptr) {
      ops = EncodePageDelta(before, page->data(), page_size);
      if (ops.empty()) {  // dirtied but unchanged: nothing to log
        pool_->UnpinPage(id, /*dirty=*/false);
        continue;
      }
    }
    const bool imaged = store_->TestAndSetImaged(id);
    if (before != nullptr && imaged && ops.size() < page_size) {
      group.deltas.push_back(WalPageDelta{id, std::move(ops)});
    } else {
      WalPageImage img;
      img.page = id;
      img.type = page->type();
      img.image.assign(page->data(), page_size);
      group.images.push_back(std::move(img));
    }
    pool_->UnpinPage(id, /*dirty=*/false);
  }
  std::string payload = EncodeWalGroup(group);
  std::lock_guard<Latch> lock(mu_);
  MTDB_RETURN_IF_ERROR(AppendLocked(WalRecordType::kGroup, payload));
  counters_.OnGroupCommit(group.images.size(), group.deltas.size());
  return Status::OK();
}

uint64_t Durability::BeginTxn() {
  counters_.OnTxnBegin();
  return next_txn_id_.fetch_add(1, std::memory_order_relaxed);
}

bool Durability::NeedsCheckpoint() const {
  return options_.checkpoint_interval_bytes > 0 && !frozen() &&
         bytes_since_ckpt_.load(std::memory_order_relaxed) >=
             options_.checkpoint_interval_bytes;
}

Status Durability::StoreMeta(const CheckpointMeta& meta) {
  std::string buf;
  PutU32(&buf, kMetaMagic);
  PutU32(&buf, kMetaVersion);
  PutU32(&buf, store_->page_size());
  PutU64(&buf, meta.ckpt_lsn);
  PutU64(&buf, meta.next_txn_id);
  PutU64(&buf, meta.pages.size());
  for (const auto& [type, sum] : meta.pages) {
    buf.push_back(static_cast<char>(type));
    PutU64(&buf, sum);
  }
  PutU64(&buf, meta.free_list.size());
  for (PageId id : meta.free_list) PutI32(&buf, id);
  PutU64(&buf, meta.catalog_blob.size());
  buf.append(meta.catalog_blob);
  PutU64(&buf, meta.open_txns.size());
  for (const OpenTxnMeta& txn : meta.open_txns) {
    PutU64(&buf, txn.txn_id);
    PutU64(&buf, txn.undo.size());
    buf.append(txn.undo);
  }
  PutU64(&buf, PageStore::Checksum(buf.data(), buf.size()));

  std::FILE* f = std::fopen(MetaTmpPath().c_str(), "wb");
  if (f == nullptr) return StatusFromErrno("open " + MetaTmpPath());
  if (std::fwrite(buf.data(), 1, buf.size(), f) != buf.size()) {
    std::fclose(f);
    return StatusFromErrno("write " + MetaTmpPath());
  }
  if (std::fflush(f) != 0) {
    std::fclose(f);
    return StatusFromErrno("flush " + MetaTmpPath());
  }
  std::fclose(f);

  // Crash site: meta written but not yet installed — recovery still sees
  // the previous checkpoint and repairs pages.db from the WAL.
  MTDB_RETURN_IF_ERROR(MaybeCrash());
  std::error_code ec;
  fs::rename(MetaTmpPath(), MetaPath(), ec);
  if (ec) {
    return Status::IOError("rename " + MetaTmpPath() + ": " + ec.message());
  }
  return Status::OK();
}

Status Durability::LoadMeta(CheckpointMeta* meta, bool* found) {
  *found = false;
  std::FILE* f = std::fopen(MetaPath().c_str(), "rb");
  if (f == nullptr) {
    // Only a missing file means "fresh database". A transient EACCES or
    // EMFILE must not silently discard the checkpoint and replay a
    // truncated WAL against an empty base.
    if (errno == ENOENT) return Status::OK();
    return StatusFromErrno("open " + MetaPath());
  }
  std::string buf;
  char chunk[1 << 16];
  size_t got;
  while ((got = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    buf.append(chunk, got);
  }
  bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) return StatusFromErrno("read " + MetaPath());
  if (buf.size() < 16) return Status::DataLoss("checkpoint meta truncated");
  // The version field picks the sum; a damaged one fails the check.
  uint32_t sum_version;
  uint64_t stored_sum;
  std::memcpy(&sum_version, buf.data() + 4, 4);
  std::memcpy(&stored_sum, buf.data() + buf.size() - 8, 8);
  const uint64_t sum =
      sum_version >= 4 ? PageStore::Checksum(buf.data(), buf.size() - 8)
                       : WalChecksum(buf.data(), buf.size() - 8, kFnv1aBasis);
  if (sum != stored_sum) {
    return Status::DataLoss("checkpoint meta checksum mismatch");
  }
  ByteCursor cur(buf.data(), buf.size() - 8);
  uint32_t magic = 0, version = 0, page_size = 0;
  uint64_t page_count = 0;
  if (!cur.U32(&magic) || magic != kMetaMagic || !cur.U32(&version) ||
      version < 1 || version > kMetaVersion || !cur.U32(&page_size) ||
      page_size != store_->page_size() || !cur.U64(&meta->ckpt_lsn) ||
      !cur.U64(&meta->next_txn_id) || !cur.U64(&page_count)) {
    return Status::DataLoss("checkpoint meta header malformed");
  }
  meta->version = version;
  meta->pages.clear();
  meta->pages.reserve(page_count);
  for (uint64_t i = 0; i < page_count; i++) {
    uint8_t type = 0;
    uint64_t sum = 0;
    if (!cur.U8(&type) || !cur.U64(&sum) ||
        type > static_cast<uint8_t>(PageType::kIndex)) {
      return Status::DataLoss("checkpoint meta page table malformed");
    }
    meta->pages.emplace_back(static_cast<PageType>(type), sum);
  }
  uint64_t free_count = 0;
  if (!cur.U64(&free_count)) {
    return Status::DataLoss("checkpoint meta free list malformed");
  }
  meta->free_list.clear();
  meta->free_list.reserve(free_count);
  for (uint64_t i = 0; i < free_count; i++) {
    int32_t id = 0;
    if (!cur.I32(&id)) {
      return Status::DataLoss("checkpoint meta free list malformed");
    }
    meta->free_list.push_back(id);
  }
  uint64_t blob_len = 0;
  if (!cur.U64(&blob_len) || !cur.Take(&meta->catalog_blob, blob_len)) {
    return Status::DataLoss("checkpoint meta catalog blob malformed");
  }
  meta->open_txns.clear();
  uint64_t txn_count = 0;
  if (version >= 2 && !cur.U64(&txn_count)) {
    return Status::DataLoss("checkpoint meta open-txn section malformed");
  }
  for (uint64_t i = 0; i < txn_count; i++) {
    OpenTxnMeta txn;
    uint64_t count = 0;  // v4: undo bytes; v2/v3: SQL hints
    if (!cur.U64(&txn.txn_id) || !cur.U64(&count) ||
        (version >= 4 && !cur.Take(&txn.undo, count))) {
      return Status::DataLoss("checkpoint meta open-txn section malformed");
    }
    if (version < 4 && count > 0) {
      return Status::FailedPrecondition(
          "checkpoint meta " + MetaPath() + " (v" + std::to_string(version) +
          ") holds an open transaction's SQL undo hints; this build undoes "
          "by row image, cannot replay them and left the files untouched");
    }
    if (version >= 4) meta->open_txns.push_back(std::move(txn));
  }
  if (!cur.AtEnd()) {
    return Status::DataLoss("checkpoint meta has trailing bytes");
  }
  *found = true;
  return Status::OK();
}

Status Durability::WriteCheckpoint(const std::string& catalog_blob,
                                   const std::vector<OpenTxnMeta>& open_txns) {
  MTDB_RETURN_IF_ERROR(MaybeCrash());  // crash site: checkpoint-begin
  MTDB_RETURN_IF_ERROR(pool_->FlushAll());
  std::vector<PageId> dirty = store_->DirtySinceCheckpoint();

  std::FILE* f = std::fopen(PagesPath().c_str(), "r+b");
  if (f == nullptr) f = std::fopen(PagesPath().c_str(), "w+b");
  if (f == nullptr) return StatusFromErrno("open " + PagesPath());
  const uint64_t page_size = store_->page_size();
  std::vector<char> image;
  for (PageId id : dirty) {
    PageType type;
    Status raw = store_->RawRead(id, &type, &image, nullptr);
    if (raw.code() == StatusCode::kNotFound) continue;  // freed since last
    if (!raw.ok()) {
      std::fclose(f);
      return raw;
    }
    // Crash site: mid-flush. pages.db now mixes old and new images under
    // the old meta; replay repairs every page changed since that meta.
    Status crash = MaybeCrash();
    if (!crash.ok()) {
      std::fclose(f);
      return crash;
    }
    if (std::fseek(f, static_cast<long>(static_cast<uint64_t>(id) * page_size),
                   SEEK_SET) != 0 ||
        std::fwrite(image.data(), 1, page_size, f) != page_size) {
      std::fclose(f);
      return StatusFromErrno("write " + PagesPath());
    }
  }
  if (std::fflush(f) != 0) {
    std::fclose(f);
    return StatusFromErrno("flush " + PagesPath());
  }
  std::fclose(f);

  CheckpointMeta meta;
  {
    std::lock_guard<Latch> lock(mu_);
    meta.ckpt_lsn = next_lsn_ - 1;
  }
  meta.next_txn_id = next_txn_id_.load(std::memory_order_relaxed);
  size_t slots = store_->page_slots();
  meta.pages.reserve(slots);
  for (size_t i = 0; i < slots; i++) {
    PageType type;
    uint64_t sum = 0;
    Status raw =
        store_->RawRead(static_cast<PageId>(i), &type, nullptr, &sum);
    if (raw.code() == StatusCode::kNotFound) {
      meta.pages.emplace_back(PageType::kFree, 0);
    } else if (!raw.ok()) {
      return raw;
    } else {
      meta.pages.emplace_back(type, sum);
    }
  }
  meta.free_list = store_->FreeListSnapshot();
  meta.catalog_blob = catalog_blob;
  meta.open_txns = open_txns;
  MTDB_RETURN_IF_ERROR(StoreMeta(meta));
  // pages.db now matches the log up to ckpt_lsn, so each page's next
  // change must log a full image again (§10.2): a later checkpoint that
  // crashes mid-flush leaves pages.db ahead of this meta.
  store_->ClearImaged();

  // Crash site: meta installed, WAL not yet truncated. Replay skips every
  // record at or below ckpt_lsn, so the stale log is harmless.
  MTDB_RETURN_IF_ERROR(MaybeCrash());
  MTDB_RETURN_IF_ERROR(writer_->Truncate());
  bytes_since_ckpt_.store(0, std::memory_order_relaxed);
  store_->ClearDirty(dirty);
  counters_.OnCheckpoint();
  return Status::OK();
}

Result<RecoveredState> Durability::Recover() {
  if (writer_ != nullptr) {
    return Status::FailedPrecondition("durability already recovered");
  }
  counters_.OnRecovery();
  std::error_code ec;
  fs::create_directories(WalDir(), ec);
  if (ec) {
    return Status::IOError("create " + WalDir() + ": " + ec.message());
  }
  fs::remove(MetaTmpPath(), ec);  // leftover of a crashed checkpoint

  CheckpointMeta meta;
  bool found = false;
  MTDB_RETURN_IF_ERROR(LoadMeta(&meta, &found));

  store_->RecoverReset();
  // Checksums of the images as loaded from pages.db, for the post-replay
  // verification of pages the log did not touch.
  std::vector<uint64_t> loaded_sums(meta.pages.size(), 0);
  if (found && !meta.pages.empty()) {
    std::FILE* f = std::fopen(PagesPath().c_str(), "rb");
    if (f == nullptr) return StatusFromErrno("open " + PagesPath());
    const uint64_t page_size = store_->page_size();
    std::vector<char> image(page_size);
    for (size_t i = 0; i < meta.pages.size(); i++) {
      if (meta.pages[i].first == PageType::kFree) continue;
      if (std::fseek(f, static_cast<long>(i * page_size), SEEK_SET) != 0 ||
          std::fread(image.data(), 1, page_size, f) != page_size) {
        std::fclose(f);
        return Status::DataLoss("pages.db truncated at page " +
                                std::to_string(i));
      }
      loaded_sums[i] = meta.version >= 3
                           ? PageStore::Checksum(image.data(), page_size)
                           : LegacyPageChecksum(image.data(), page_size);
      Status st = store_->RecoverInstall(static_cast<PageId>(i),
                                         meta.pages[i].first, image.data());
      if (!st.ok()) {
        std::fclose(f);
        return st;
      }
    }
    std::fclose(f);
  }
  store_->RecoverSetFreeList(meta.free_list);

  WalReader reader(WalDir());
  MTDB_ASSIGN_OR_RETURN(WalReader::ScanResult scan, reader.ReadAll());
  for (uint64_t i = 0; i < scan.truncated_tails; i++) {
    counters_.OnTruncatedTail();
  }

  RecoveredState state;
  state.found_checkpoint = found;
  state.catalog_blob = meta.catalog_blob;
  std::map<int32_t, WalTableMeta> overrides;
  // Open client transactions: per txn its batches' (lsn, undo records).
  std::map<uint64_t, std::vector<std::pair<uint64_t, std::string>>> open_txns;
  // Batches of client transactions open at the last checkpoint: their
  // groups were truncated, so their undo records come from the meta
  // file, which lists them in the order they ran. Pseudo-lsns 1..k keep
  // that order and sort before every surviving log record: each batch
  // rode its own group at an lsn <= ckpt_lsn, so k <= ckpt_lsn < the lsn
  // of anything still in the log. A group surviving in the log that ends
  // such a transaction closes it exactly like a log-seeded one.
  uint64_t pseudo_lsn = 0;
  for (OpenTxnMeta& batch : meta.open_txns) {
    open_txns[batch.txn_id].emplace_back(++pseudo_lsn, std::move(batch.undo));
  }
  std::unordered_set<PageId> touched;
  // Alloc/dealloc order at the store is a global total order, but group
  // append order only follows latch order per table: concurrent
  // statements on different tables can allocate in one order and reach
  // the log in the other. The scan therefore just *collects* every
  // group's ops (replayed afterwards sorted by their store-assigned
  // sequence numbers) and, per page, its content: the last full image,
  // with every later delta applied in log order. Per-page record order
  // does follow scan order, because a page changes owner only through a
  // dealloc/alloc pair, the old owner logs nothing for a page it freed,
  // and its earlier records are appended before the new owner can even
  // obtain the id.
  std::vector<WalPageOp> page_ops;
  std::unordered_map<PageId, WalPageImage> last_images;
  uint64_t max_op_seq = 0;
  uint64_t max_lsn = meta.ckpt_lsn;
  uint64_t max_txn = 0;
  for (WalRecord& rec : scan.records) {
    max_lsn = std::max(max_lsn, rec.lsn);
    if (rec.lsn <= meta.ckpt_lsn) continue;  // covered by the checkpoint
    MTDB_ASSIGN_OR_RETURN(WalGroup group, DecodeWalGroup(rec.payload));
    for (const WalPageOp& op : group.ops) {
      max_op_seq = std::max(max_op_seq, op.seq);
      touched.insert(op.page);
      page_ops.push_back(op);
    }
    for (WalPageImage& img : group.images) {
      if (img.image.size() != store_->page_size()) {
        return Status::DataLoss("replay image size mismatch on page " +
                                std::to_string(img.page));
      }
      touched.insert(img.page);
      last_images[img.page] = std::move(img);
    }
    for (const WalPageDelta& delta : group.deltas) {
      // Every page changed since the checkpoint logged a full image
      // first, so a delta with no image before it means a damaged log.
      auto it = last_images.find(delta.page);
      if (it == last_images.end()) {
        return Status::DataLoss("replay delta for page " +
                                std::to_string(delta.page) +
                                " has no full image since the checkpoint");
      }
      MTDB_RETURN_IF_ERROR(ApplyPageDelta(
          delta.ops, it->second.image.data(), store_->page_size()));
    }
    if (group.has_catalog_blob) {
      // DDL group: its snapshot supersedes everything recorded so far.
      state.catalog_blob = std::move(group.catalog_blob);
      overrides.clear();
    }
    for (WalTableMeta& tm : group.table_meta) {
      overrides[tm.table_id] = std::move(tm);
    }
    if (group.txn_id != 0) {
      max_txn = std::max(max_txn, group.txn_id);
      open_txns[group.txn_id].emplace_back(rec.lsn, std::move(group.undo));
    }
    for (uint64_t txn_id : group.ended_txns) {
      max_txn = std::max(max_txn, txn_id);
      open_txns.erase(txn_id);
    }
    counters_.OnReplayedGroup();
    state.replayed_groups++;
  }

  // Replay the page ops in true allocation order, each directed at
  // exactly the recorded page id. Id-directed replay also tolerates
  // holes: a logged op whose in-flight neighbour statement froze before
  // reaching the log still lands on the recorded page, and slots such
  // unlogged statements had claimed return to the free list.
  std::sort(page_ops.begin(), page_ops.end(),
            [](const WalPageOp& a, const WalPageOp& b) {
              return a.seq < b.seq;
            });
  for (const WalPageOp& op : page_ops) {
    if (op.kind == WalPageOp::Kind::kAlloc) {
      MTDB_RETURN_IF_ERROR(store_->RecoverAlloc(op.page, op.type));
    } else {
      MTDB_RETURN_IF_ERROR(store_->RecoverDealloc(op.page));
    }
  }
  // A recovered page's content is its last logged image plus the deltas
  // after it. A page whose last op left it free is skipped — installing
  // the image would resurrect it — and if it was later re-allocated, the
  // new owner's group is guaranteed to carry a full image (an allocation
  // always dirties the page and clears its imaged bit), so the base the
  // deltas apply to is always the final owner's.
  for (auto& [page, img] : last_images) {
    if (!store_->IsAllocated(page)) continue;
    MTDB_RETURN_IF_ERROR(store_->RecoverInstall(
        page, img.type, img.image.data(), /*mark_dirty=*/true));
  }
  store_->RecoverSetOpSeq(max_op_seq);

  // Pages the log never touched must still match the images the
  // checkpoint intended to store; a mismatch means pages.db corruption
  // outside the window the WAL can repair.
  for (size_t i = 0; i < meta.pages.size(); i++) {
    if (meta.pages[i].first == PageType::kFree) continue;
    if (touched.count(static_cast<PageId>(i)) != 0) continue;
    if (loaded_sums[i] != meta.pages[i].second) {
      return Status::DataLoss("checkpoint image corrupt for page " +
                              std::to_string(i));
    }
  }

  std::vector<std::pair<uint64_t, std::string>> batches;
  for (auto& [txn_id, undo] : open_txns) {
    state.open_txns.push_back(txn_id);
    for (auto& batch : undo) batches.push_back(std::move(batch));
  }
  std::sort(batches.begin(), batches.end());  // by lsn; lsns are unique
  for (const auto& [lsn, undo] : batches) state.open_undo += undo;
  state.table_overrides.reserve(overrides.size());
  for (auto& [table_id, tm] : overrides) {
    state.table_overrides.push_back(std::move(tm));
  }
  state.next_txn_id = std::max(meta.next_txn_id, max_txn + 1);

  {
    std::lock_guard<Latch> lock(mu_);
    next_lsn_ = max_lsn + 1;
  }
  next_txn_id_.store(state.next_txn_id, std::memory_order_relaxed);
  bytes_since_ckpt_.store(0, std::memory_order_relaxed);
  writer_ = std::make_unique<WalWriter>(WalDir(), options_.wal_segment_bytes);
  MTDB_RETURN_IF_ERROR(writer_->Open());
  return state;
}

}  // namespace mtdb
