#include "storage/page_store.h"

#include "common/deadline.h"
#include "common/trace.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>

namespace mtdb {

namespace {

// xxHash64's primes and rounds. Loads go through memcpy, so page images
// of any alignment hash without undefined behaviour.
constexpr uint64_t kPrime1 = 0x9E3779B185EBCA87ull;
constexpr uint64_t kPrime2 = 0xC2B2AE3D27D4EB4Full;
constexpr uint64_t kPrime3 = 0x165667B19E3779F9ull;
constexpr uint64_t kPrime4 = 0x85EBCA77C2B2AE63ull;
constexpr uint64_t kPrime5 = 0x27D4EB2F165667C5ull;

uint64_t Rotl(uint64_t x, int r) { return (x << r) | (x >> (64 - r)); }

uint64_t Load64(const char* p) {
  uint64_t v = 0;
  std::memcpy(&v, p, 8);
  return v;
}

uint32_t Load32(const char* p) {
  uint32_t v = 0;
  std::memcpy(&v, p, 4);
  return v;
}

uint64_t Round(uint64_t acc, uint64_t input) {
  return Rotl(acc + input * kPrime2, 31) * kPrime1;
}

uint64_t MergeRound(uint64_t acc, uint64_t lane) {
  return (acc ^ Round(0, lane)) * kPrime1 + kPrime4;
}

}  // namespace

uint64_t PageStore::Checksum(const char* data, size_t n) {
  // Four independent multiply-rotate lanes over 32-byte stripes keep the
  // multiplier busy; the final avalanche spreads every input bit over
  // the whole sum, so a single-bit flip or a torn half always shows.
  const char* p = data;
  const char* const end = data + n;
  uint64_t h = kPrime5;
  if (n >= 32) {
    uint64_t v1 = kPrime1 + kPrime2;
    uint64_t v2 = kPrime2;
    uint64_t v3 = 0;
    uint64_t v4 = 0 - kPrime1;
    for (; end - p >= 32; p += 32) {
      v1 = Round(v1, Load64(p));
      v2 = Round(v2, Load64(p + 8));
      v3 = Round(v3, Load64(p + 16));
      v4 = Round(v4, Load64(p + 24));
    }
    h = Rotl(v1, 1) + Rotl(v2, 7) + Rotl(v3, 12) + Rotl(v4, 18);
    h = MergeRound(h, v1);
    h = MergeRound(h, v2);
    h = MergeRound(h, v3);
    h = MergeRound(h, v4);
  }
  h += static_cast<uint64_t>(n);
  for (; end - p >= 8; p += 8) {
    h = Rotl(h ^ Round(0, Load64(p)), 27) * kPrime1 + kPrime4;
  }
  if (end - p >= 4) {
    h = Rotl(h ^ (Load32(p) * kPrime1), 23) * kPrime2 + kPrime3;
    p += 4;
  }
  for (; p < end; ++p) {
    h = Rotl(h ^ (static_cast<unsigned char>(*p) * kPrime5), 11) * kPrime1;
  }
  h ^= h >> 33;
  h *= kPrime2;
  h ^= h >> 29;
  h *= kPrime3;
  h ^= h >> 32;
  return h;
}

PageStore::PageStore(uint32_t page_size)
    : page_size_(page_size),
      zero_checksum_(Checksum(std::vector<char>(page_size, 0).data(),
                              page_size)) {}

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
  pages_[id].checksum = zero_checksum_;
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
  // The checksum always covers the full intended image. On a torn write
  // only a prefix lands, so the image no longer matches its own checksum
  // — the read path reports that as kDataLoss until a later full write
  // repairs the page. It is computed before mu_ so concurrent
  // write-backs hash in parallel.
  const uint64_t checksum = Checksum(in, page_size_);
  {
    std::lock_guard<Latch> lock(mu_);
    if (id < 0 || static_cast<size_t>(id) >= pages_.size() ||
        pages_[id].type == PageType::kFree) {
      return Status::NotFound("write to unallocated page " +
                              std::to_string(id));
    }
    stats_.physical_writes++;
    pages_[id].checksum = checksum;
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
  pages_[id].checksum = zero_checksum_;
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
