#include "storage/buffer_pool.h"

#include "common/deadline.h"
#include "common/trace.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <thread>

namespace mtdb {

namespace {
bool IsTransientRead(const Status& st) {
  // A bit flip corrupts only the delivered copy, so kDataLoss is worth
  // re-reading too: the stored image may still be intact.
  return st.code() == StatusCode::kIOError ||
         st.code() == StatusCode::kDataLoss;
}
bool IsTransientWrite(const Status& st) {
  return st.code() == StatusCode::kIOError;
}
void Backoff(uint64_t ns) {
  if (ns > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(ns));
}

// The capture installed on this thread, if any. A plain thread_local
// pointer: the hooks below cost one load when no durability layer is
// attached (the pointer stays null).
thread_local PageMutationCapture* tls_capture = nullptr;
}  // namespace

PageCaptureScope::PageCaptureScope(PageMutationCapture* capture)
    : previous_(tls_capture) {
  tls_capture = capture;
}

PageCaptureScope::~PageCaptureScope() { tls_capture = previous_; }

PageMutationCapture* PageCaptureScope::Current() { return tls_capture; }

void PageMutationCapture::NoteWriteIntent(const Page& page) {
  auto it =
      std::lower_bound(intents_.begin(), intents_.end(), page.id(), Before);
  if (it != intents_.end() && it->page == page.id()) return;
  const size_t offset = before_images_.size();
  before_images_.insert(before_images_.end(), page.data(),
                        page.data() + page.size());
  intents_.insert(it, Intent{page.id(), offset});
}

void PageMutationCapture::NoteAllocation(PageId page) {
  auto it = std::lower_bound(intents_.begin(), intents_.end(), page, Before);
  if (it != intents_.end() && it->page == page) {
    // Freed and re-allocated within the statement: the old bytes are no
    // longer a valid base.
    it->image = kNoBeforeImage;
    return;
  }
  intents_.insert(it, Intent{page, kNoBeforeImage});
}

Status BufferPool::ReadWithRetry(PageId id, char* out) {
  uint64_t backoff = retry_policy_.initial_backoff_ns;
  Status st;
  for (int attempt = 1;; attempt++) {
    st = store_->Read(id, out);
    if (st.ok() || !IsTransientRead(st)) return st;
    if (attempt >= retry_policy_.max_attempts) break;
    // Retrying on behalf of a statement past its deadline only delays
    // its cancellation; surface the expiry instead of sleeping.
    MTDB_RETURN_IF_ERROR(deadline::Check());
    store_->io_counters().OnReadRetry();
    Backoff(backoff);
    backoff = std::min(backoff * 2, retry_policy_.max_backoff_ns);
  }
  store_->io_counters().OnRetryExhausted();
  return st;
}

Status BufferPool::WriteWithRetry(PageId id, const char* in) {
  uint64_t backoff = retry_policy_.initial_backoff_ns;
  Status st;
  for (int attempt = 1;; attempt++) {
    st = store_->Write(id, in);
    if (st.ok() || !IsTransientWrite(st)) return st;
    if (attempt >= retry_policy_.max_attempts) break;
    store_->io_counters().OnWriteRetry();
    Backoff(backoff);
    backoff = std::min(backoff * 2, retry_policy_.max_backoff_ns);
  }
  store_->io_counters().OnRetryExhausted();
  return st;
}

BufferPool::BufferPool(PageStore* store, size_t capacity)
    : store_(store), capacity_(capacity == 0 ? 1 : capacity) {
  DistributeCapacity(capacity_);
}

void BufferPool::DistributeCapacity(size_t total) {
  // Every shard gets at least one frame so a pinned page can always live
  // somewhere; small budgets therefore overshoot slightly rather than
  // starve a shard.
  size_t share = total / kBufferPoolShards;
  if (share == 0) share = 1;
  for (auto& shard : shards_) {
    std::lock_guard<Latch> lock(shard.mu);
    shard.capacity = share;
    EvictIfNeeded(shard);
  }
}

void BufferPool::Touch(Shard& shard, Frame* frame, PageId id) {
  if (frame->in_lru) {
    // Relinks the existing node: a hit frees and allocates nothing, and
    // lru_it stays valid.
    shard.lru.splice(shard.lru.begin(), shard.lru, frame->lru_it);
    return;
  }
  shard.lru.push_front(id);
  frame->lru_it = shard.lru.begin();
  frame->in_lru = true;
}

void BufferPool::CountRead(Shard& shard, PageType type, bool miss) {
  if (type == PageType::kIndex) {
    shard.stats.logical_reads_index++;
    if (miss) shard.stats.misses_index++;
  } else {
    shard.stats.logical_reads_data++;
    if (miss) shard.stats.misses_data++;
  }
}

Result<Page*> BufferPool::FetchPage(PageId id) {
  Shard& shard = shards_[ShardOf(id)];
  PageType type = PageType::kFree;
  {
    std::lock_guard<Latch> lock(shard.mu);
    auto it = shard.frames.find(id);
    if (it != shard.frames.end()) {
      // A hit takes the type from its frame: a cached page keeps the
      // type it was fetched or allocated with until DeletePage drops it,
      // so only a miss asks the store (and takes the store's latch).
      Frame* frame = it->second.get();
      CountRead(shard, frame->page.type(), /*miss=*/false);
      frame->pin_count++;
      Touch(shard, frame, id);
      trace::OnPoolHit();
      return &frame->page;
    }
    type = store_->TypeOf(id);
    CountRead(shard, type, /*miss=*/true);
    trace::OnPoolMiss();
  }
  // Miss: read through with the shard latch dropped so the device stall
  // does not serialize other traffic on this shard. Two sessions may
  // race on the same cold page; both read identical bytes (writers to
  // the page are excluded by the owning table/index latch) and the loser
  // of the insert below adopts the winner's frame.
  auto frame = std::make_unique<Frame>(store_->page_size());
  frame->page.set_id(id);
  frame->page.set_type(type);
  MTDB_RETURN_IF_ERROR(deadline::Check());
  MTDB_RETURN_IF_ERROR(ReadWithRetry(id, frame->page.data()));
  std::lock_guard<Latch> lock(shard.mu);
  auto [it, inserted] = shard.frames.try_emplace(id, std::move(frame));
  Frame* raw = it->second.get();
  if (inserted) {
    raw->pin_count = 1;
    Touch(shard, raw, id);
    EvictIfNeeded(shard);
  } else {
    raw->pin_count++;
    Touch(shard, raw, id);
  }
  return &raw->page;
}

Page* BufferPool::NewPage(PageType type) {
  uint64_t seq = 0;
  PageId id = store_->Allocate(type, &seq);
  if (PageMutationCapture* cap = tls_capture) {
    cap->ops.push_back(
        {PageMutationCapture::Op::Kind::kAlloc, id, type, seq});
    cap->dirtied.push_back(id);
    cap->NoteAllocation(id);
    lockdep::OnCapturedMutation(cap, static_cast<uint64_t>(id),
                                /*write_intent=*/true);
  } else if (wal_checks_) {
    lockdep::ReportUnloggedMutation("NewPage", static_cast<uint64_t>(id));
  }
  Shard& shard = shards_[ShardOf(id)];
  std::lock_guard<Latch> lock(shard.mu);
  auto frame = std::make_unique<Frame>(store_->page_size());
  frame->page.set_id(id);
  frame->page.set_type(type);
  frame->pin_count = 1;
  frame->dirty = true;
  Frame* raw = frame.get();
  shard.frames.emplace(id, std::move(frame));
  Touch(shard, raw, id);
  EvictIfNeeded(shard);
  return &raw->page;
}

void BufferPool::WillWrite(const Page* page) {
  if (PageMutationCapture* cap = tls_capture) cap->NoteWriteIntent(*page);
}

void BufferPool::UnpinPage(PageId id, bool dirty) {
  Shard& shard = shards_[ShardOf(id)];
  std::lock_guard<Latch> lock(shard.mu);
  auto it = shard.frames.find(id);
  if (it == shard.frames.end()) return;
  Frame* frame = it->second.get();
  assert(frame->pin_count > 0);
  frame->pin_count--;
  if (dirty) {
    frame->dirty = true;
    if (PageMutationCapture* cap = tls_capture) {
      cap->dirtied.push_back(id);
      lockdep::OnCapturedMutation(cap, static_cast<uint64_t>(id),
                                  cap->HasWriteIntent(id));
    } else if (wal_checks_) {
      lockdep::ReportUnloggedMutation("UnpinPage(dirty)",
                                      static_cast<uint64_t>(id));
    }
  }
  if (frame->pin_count == 0 && shard.frames.size() > shard.capacity) {
    EvictIfNeeded(shard);
  }
}

void BufferPool::DeletePage(PageId id) {
  Shard& shard = shards_[ShardOf(id)];
  {
    std::lock_guard<Latch> lock(shard.mu);
    auto it = shard.frames.find(id);
    if (it != shard.frames.end()) {
      Frame* frame = it->second.get();
      assert(frame->pin_count == 0);
      if (frame->in_lru) shard.lru.erase(frame->lru_it);
      shard.frames.erase(it);
    }
  }
  uint64_t seq = 0;
  store_->Deallocate(id, &seq);
  // seq == 0 means the store ignored an invalid id: nothing happened, so
  // nothing is logged (replay treats a dealloc of a free page as
  // corruption).
  if (seq != 0) {
    if (PageMutationCapture* cap = tls_capture) {
      cap->ops.push_back(
          {PageMutationCapture::Op::Kind::kDealloc, id, PageType::kFree, seq});
      lockdep::OnCapturedMutation(cap, static_cast<uint64_t>(id),
                                  /*write_intent=*/true);
    } else if (wal_checks_) {
      lockdep::ReportUnloggedMutation("DeletePage",
                                      static_cast<uint64_t>(id));
    }
  }
}

Status BufferPool::FlushFrame(Frame* frame) {
  if (frame->dirty) {
    // On failure the frame stays dirty (and cached), so nothing is lost:
    // the write-back is simply deferred to the next flush or eviction.
    MTDB_RETURN_IF_ERROR(
        WriteWithRetry(frame->page.id(), frame->page.data()));
    frame->dirty = false;
  }
  return Status::OK();
}

Status BufferPool::FlushAll() {
  Status first;
  for (auto& shard : shards_) {
    std::lock_guard<Latch> lock(shard.mu);
    for (auto& [id, frame] : shard.frames) {
      Status st = FlushFrame(frame.get());
      if (!st.ok() && first.ok()) first = st;
    }
  }
  return first;
}

Status BufferPool::EvictAll() {
  Status first;
  for (auto& shard : shards_) {
    std::lock_guard<Latch> lock(shard.mu);
    for (auto it = shard.frames.begin(); it != shard.frames.end();) {
      Frame* frame = it->second.get();
      if (frame->pin_count == 0) {
        Status st = FlushFrame(frame);
        if (!st.ok()) {
          // Keep the dirty frame rather than drop unpersisted bytes.
          if (first.ok()) first = st;
          ++it;
          continue;
        }
        if (frame->in_lru) shard.lru.erase(frame->lru_it);
        it = shard.frames.erase(it);
        shard.stats.evictions++;
      } else {
        ++it;
      }
    }
  }
  return first;
}

void BufferPool::SetCapacity(size_t frames) {
  size_t total = frames == 0 ? 1 : frames;
  {
    std::lock_guard<Latch> lock(capacity_mu_);
    capacity_ = total;
  }
  DistributeCapacity(total);
}

size_t BufferPool::capacity() const {
  std::lock_guard<Latch> lock(capacity_mu_);
  return capacity_;
}

size_t BufferPool::frames_in_use() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<Latch> lock(shard.mu);
    total += shard.frames.size();
  }
  return total;
}

BufferPoolStats BufferPool::stats() const {
  BufferPoolStats total;
  for (const auto& shard : shards_) {
    std::lock_guard<Latch> lock(shard.mu);
    total.logical_reads_data += shard.stats.logical_reads_data;
    total.logical_reads_index += shard.stats.logical_reads_index;
    total.misses_data += shard.stats.misses_data;
    total.misses_index += shard.stats.misses_index;
    total.evictions += shard.stats.evictions;
  }
  return total;
}

void BufferPool::ResetStats() {
  for (auto& shard : shards_) {
    std::lock_guard<Latch> lock(shard.mu);
    shard.stats = BufferPoolStats();
  }
}

void BufferPool::EvictIfNeeded(Shard& shard) {
  while (shard.frames.size() > shard.capacity && !shard.lru.empty()) {
    // Scan from LRU end for an unpinned victim.
    bool evicted = false;
    for (auto it = shard.lru.rbegin(); it != shard.lru.rend(); ++it) {
      PageId victim = *it;
      auto fit = shard.frames.find(victim);
      assert(fit != shard.frames.end());
      Frame* frame = fit->second.get();
      if (frame->pin_count == 0) {
        if (!FlushFrame(frame).ok()) {
          // Write-back failed even after retries: keep the dirty frame
          // cached (no data loss) and stop evicting — the shard
          // overshoots its budget until the device recovers.
          return;
        }
        shard.lru.erase(std::next(it).base());
        shard.frames.erase(fit);
        shard.stats.evictions++;
        evicted = true;
        break;
      }
    }
    if (!evicted) break;  // everything pinned: allow temporary overshoot
  }
}

}  // namespace mtdb
