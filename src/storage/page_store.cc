#include "storage/page_store.h"

#include "common/deadline.h"
#include "common/trace.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>

namespace mtdb {

uint64_t PageStore::Checksum(const char* data, size_t n) {
  // FNV-1a 64-bit: cheap, deterministic, and sensitive to both truncated
  // images (torn writes) and single-bit flips.
  uint64_t h = 14695981039346656037ull;
  for (size_t i = 0; i < n; i++) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 1099511628211ull;
  }
  return h;
}

PageId PageStore::Allocate(PageType type, uint64_t* seq) {
  std::lock_guard<Latch> lock(mu_);
  stats_.allocations++;
  if (seq != nullptr) *seq = op_seq_ + 1;
  ++op_seq_;
  PageId id;
  if (!free_list_.empty()) {
    id = free_list_.back();
    free_list_.pop_back();
    pages_[id].type = type;
    pages_[id].imaged = false;
    std::memset(pages_[id].image.data(), 0, page_size_);
  } else {
    id = static_cast<PageId>(pages_.size());
    pages_.push_back(
        StoredPage{type, false, std::vector<char>(page_size_, 0), 0});
  }
  pages_[id].checksum = Checksum(pages_[id].image.data(), page_size_);
  NoteDirtyLocked(id);
  return id;
}

void PageStore::Deallocate(PageId id, uint64_t* seq) {
  std::lock_guard<Latch> lock(mu_);
  if (id < 0 || static_cast<size_t>(id) >= pages_.size() ||
      pages_[id].type == PageType::kFree) {
    return;
  }
  if (seq != nullptr) *seq = op_seq_ + 1;
  ++op_seq_;
  pages_[id].type = PageType::kFree;
  free_list_.push_back(id);
  NoteDirtyLocked(id);
}

void PageStore::ChargeLatency(FaultInjector* injector, bool is_read) {
  uint64_t stall = 0;
  if (is_read) stall = read_latency_ns_.load(std::memory_order_relaxed);
  if (injector != nullptr) {
    FaultSpec spec;
    if (injector->ShouldFire(FaultPoint::kLatencySpike, &spec)) {
      io_counters_.OnLatencySpike();
      stall += spec.latency_ns;
    }
  }
  if (stall > 0) {
    // A statement already past its deadline gains nothing from paying
    // the simulated stall: it will cancel at its next checkpoint anyway,
    // and serializing chaos runs on doomed statements just wastes wall
    // clock. The fault still counted above — only the sleep is skipped.
    if (deadline::Expired()) return;
    // The device stall blocks only the issuing session thread; other
    // sessions proceed, so concurrent misses overlap like synchronous
    // reads against one shared appliance.
    std::this_thread::sleep_for(std::chrono::nanoseconds(stall));
  }
}

Status PageStore::Read(PageId id, char* out) {
  FaultInjector* injector = fault_injector();
  ChargeLatency(injector, /*is_read=*/true);
  if (injector != nullptr && injector->ShouldFire(FaultPoint::kPageRead)) {
    io_counters_.OnReadFault();
    return Status::IOError("injected read fault on page " +
                           std::to_string(id));
  }
  bool flip = injector != nullptr && injector->ShouldFire(FaultPoint::kBitFlip);
  uint64_t expected = 0;
  {
    std::lock_guard<Latch> lock(mu_);
    if (id < 0 || static_cast<size_t>(id) >= pages_.size() ||
        pages_[id].type == PageType::kFree) {
      return Status::NotFound("read of unallocated page " +
                              std::to_string(id));
    }
    stats_.physical_reads++;
    std::memcpy(out, pages_[id].image.data(), page_size_);
    expected = pages_[id].checksum;
    if (flip) {
      // Corrupt one bit of the *delivered copy* — the stored image stays
      // intact, so a retry after the checksum failure recovers. The bit
      // position is a pure function of (id, read ordinal): deterministic
      // under a deterministic schedule.
      uint64_t pos = (static_cast<uint64_t>(id) * 1315423911ull +
                      stats_.physical_reads) %
                     (static_cast<uint64_t>(page_size_) * 8);
      out[pos / 8] = static_cast<char>(
          static_cast<unsigned char>(out[pos / 8]) ^ (1u << (pos % 8)));
    }
  }
  trace::OnPhysicalRead();
  if (Checksum(out, page_size_) != expected) {
    io_counters_.OnChecksumFailure();
    return Status::DataLoss("checksum mismatch on page " + std::to_string(id));
  }
  return Status::OK();
}

Status PageStore::Write(PageId id, const char* in) {
  FaultInjector* injector = fault_injector();
  ChargeLatency(injector, /*is_read=*/false);
  if (injector != nullptr && injector->ShouldFire(FaultPoint::kPageWrite)) {
    io_counters_.OnWriteFault();
    return Status::IOError("injected write fault on page " +
                           std::to_string(id));
  }
  FaultSpec torn_spec;
  bool torn = injector != nullptr &&
              injector->ShouldFire(FaultPoint::kTornWrite, &torn_spec);
  {
    std::lock_guard<Latch> lock(mu_);
    if (id < 0 || static_cast<size_t>(id) >= pages_.size() ||
        pages_[id].type == PageType::kFree) {
      return Status::NotFound("write to unallocated page " +
                              std::to_string(id));
    }
    stats_.physical_writes++;
    // The checksum always covers the full intended image. On a torn
    // write only a prefix lands, so the image no longer matches its own
    // checksum — the read path reports that as kDataLoss until a later
    // full write repairs the page.
    pages_[id].checksum = Checksum(in, page_size_);
    size_t n = torn ? page_size_ / 2 : page_size_;
    std::memcpy(pages_[id].image.data(), in, n);
    NoteDirtyLocked(id);
  }
  trace::OnPhysicalWrite();
  if (torn) {
    io_counters_.OnWriteFault();
    if (!torn_spec.silent) {
      return Status::IOError("torn write on page " + std::to_string(id));
    }
    // Silent tear: the device reports success; only the checksum on the
    // next physical read catches it.
  }
  return Status::OK();
}

PageType PageStore::TypeOf(PageId id) const {
  std::lock_guard<Latch> lock(mu_);
  if (id < 0 || static_cast<size_t>(id) >= pages_.size()) return PageType::kFree;
  return pages_[id].type;
}

bool PageStore::IsAllocated(PageId id) const {
  std::lock_guard<Latch> lock(mu_);
  return id >= 0 && static_cast<size_t>(id) < pages_.size() &&
         pages_[id].type != PageType::kFree;
}

size_t PageStore::allocated_pages() const {
  std::lock_guard<Latch> lock(mu_);
  return pages_.size() - free_list_.size();
}

PageStoreStats PageStore::stats() const {
  std::lock_guard<Latch> lock(mu_);
  return stats_;
}

void PageStore::ResetStats() {
  std::lock_guard<Latch> lock(mu_);
  stats_ = PageStoreStats();
}

void PageStore::NoteDirtyLocked(PageId id) {
  if (!track_dirty_.load(std::memory_order_relaxed)) return;
  if (static_cast<size_t>(id) >= dirty_.size()) {
    dirty_.resize(pages_.size(), false);
  }
  dirty_[id] = true;
}

std::vector<PageId> PageStore::DirtySinceCheckpoint() const {
  std::lock_guard<Latch> lock(mu_);
  std::vector<PageId> out;
  for (size_t i = 0; i < dirty_.size(); ++i) {
    if (dirty_[i]) out.push_back(static_cast<PageId>(i));
  }
  return out;
}

void PageStore::ClearDirty(const std::vector<PageId>& flushed) {
  std::lock_guard<Latch> lock(mu_);
  for (PageId id : flushed) {
    if (static_cast<size_t>(id) < dirty_.size()) dirty_[id] = false;
  }
}

bool PageStore::TestAndSetImaged(PageId id) {
  std::lock_guard<Latch> lock(mu_);
  if (id < 0 || static_cast<size_t>(id) >= pages_.size()) return false;
  const bool was = pages_[id].imaged;
  pages_[id].imaged = true;
  return was;
}

void PageStore::ClearImaged() {
  std::lock_guard<Latch> lock(mu_);
  for (StoredPage& page : pages_) page.imaged = false;
}

std::vector<PageId> PageStore::FreeListSnapshot() const {
  std::lock_guard<Latch> lock(mu_);
  return free_list_;
}

size_t PageStore::page_slots() const {
  std::lock_guard<Latch> lock(mu_);
  return pages_.size();
}

Status PageStore::RawRead(PageId id, PageType* type, std::vector<char>* image,
                          uint64_t* checksum) const {
  std::lock_guard<Latch> lock(mu_);
  if (id < 0 || static_cast<size_t>(id) >= pages_.size() ||
      pages_[id].type == PageType::kFree) {
    return Status::NotFound("raw read of unallocated page " +
                            std::to_string(id));
  }
  if (type != nullptr) *type = pages_[id].type;
  if (image != nullptr) *image = pages_[id].image;
  if (checksum != nullptr) *checksum = pages_[id].checksum;
  return Status::OK();
}

Result<uint64_t> PageStore::StoredChecksum(PageId id) const {
  std::lock_guard<Latch> lock(mu_);
  if (id < 0 || static_cast<size_t>(id) >= pages_.size() ||
      pages_[id].type == PageType::kFree) {
    return Status::NotFound("checksum of unallocated page " +
                            std::to_string(id));
  }
  return pages_[id].checksum;
}

void PageStore::RecoverReset() {
  std::lock_guard<Latch> lock(mu_);
  pages_.clear();
  free_list_.clear();
  dirty_.clear();
  op_seq_ = 0;
}

Status PageStore::RecoverAlloc(PageId id, PageType type) {
  std::lock_guard<Latch> lock(mu_);
  if (id < 0) return Status::DataLoss("replay alloc: negative page id");
  if (static_cast<size_t>(id) >= pages_.size()) {
    // Slot numbers grow in op order and ops replay in op order, so a
    // *logged* alloc of any slot below `id` already replayed. The gaps
    // left here were claimed by statements the crash caught before their
    // group reached the log — durably those statements never happened,
    // and their slots return to the free list.
    for (size_t gap = pages_.size(); gap < static_cast<size_t>(id); ++gap) {
      free_list_.push_back(static_cast<PageId>(gap));
    }
    pages_.resize(static_cast<size_t>(id) + 1,
                  StoredPage{PageType::kFree, false,
                             std::vector<char>(page_size_, 0), 0});
  }
  if (pages_[id].type != PageType::kFree) {
    return Status::DataLoss("replay alloc of already-allocated page " +
                            std::to_string(id));
  }
  free_list_.erase(std::remove(free_list_.begin(), free_list_.end(), id),
                   free_list_.end());
  stats_.allocations++;
  pages_[id].type = type;
  pages_[id].imaged = false;
  std::memset(pages_[id].image.data(), 0, page_size_);
  pages_[id].checksum = Checksum(pages_[id].image.data(), page_size_);
  NoteDirtyLocked(id);
  return Status::OK();
}

Status PageStore::RecoverDealloc(PageId id) {
  std::lock_guard<Latch> lock(mu_);
  if (id < 0 || static_cast<size_t>(id) >= pages_.size() ||
      pages_[id].type == PageType::kFree) {
    return Status::DataLoss("replay dealloc of unallocated page " +
                            std::to_string(id));
  }
  pages_[id].type = PageType::kFree;
  free_list_.push_back(id);
  NoteDirtyLocked(id);
  return Status::OK();
}

void PageStore::RecoverSetOpSeq(uint64_t last_seq) {
  std::lock_guard<Latch> lock(mu_);
  op_seq_ = std::max(op_seq_, last_seq);
}

Status PageStore::RecoverInstall(PageId id, PageType type, const char* image,
                                 bool mark_dirty) {
  std::lock_guard<Latch> lock(mu_);
  if (id < 0) return Status::InvalidArgument("recover install: bad page id");
  if (static_cast<size_t>(id) >= pages_.size()) {
    pages_.resize(id + 1,
                  StoredPage{PageType::kFree, false,
                             std::vector<char>(page_size_, 0), 0});
  }
  pages_[id].type = type;
  std::memcpy(pages_[id].image.data(), image, page_size_);
  pages_[id].checksum = Checksum(image, page_size_);
  // WAL-replay installs supersede the pages.db image, so the sealing
  // checkpoint must flush them; checkpoint-load installs match pages.db
  // byte for byte and stay clean.
  if (mark_dirty) NoteDirtyLocked(id);
  return Status::OK();
}

void PageStore::RecoverSetFreeList(std::vector<PageId> free_list) {
  std::lock_guard<Latch> lock(mu_);
  // Free slots past the last installed page have no image to install, but
  // the slot array must still cover them or a post-recovery Allocate that
  // pops one would index out of range.
  for (PageId id : free_list) {
    if (id >= 0 && static_cast<size_t>(id) >= pages_.size()) {
      pages_.resize(
          static_cast<size_t>(id) + 1,
          StoredPage{PageType::kFree, false, std::vector<char>(page_size_, 0),
                     0});
    }
  }
  free_list_ = std::move(free_list);
}

}  // namespace mtdb
