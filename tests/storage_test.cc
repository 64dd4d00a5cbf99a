#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "storage/buffer_pool.h"
#include "storage/page.h"
#include "storage/page_store.h"
#include "storage/row_codec.h"
#include "storage/table_heap.h"
#include "storage/wal.h"

namespace mtdb {
namespace {

TEST(SlottedPageTest, InsertAndGet) {
  Page page(kDefaultPageSize);
  SlottedPage sp(&page);
  sp.Init(kInvalidPageId);
  int slot = sp.Insert("hello", 5);
  ASSERT_GE(slot, 0);
  uint32_t len = 0;
  const char* data = sp.Get(static_cast<uint16_t>(slot), &len);
  ASSERT_NE(data, nullptr);
  EXPECT_EQ(std::string(data, len), "hello");
}

TEST(SlottedPageTest, DeleteKeepsOtherSlotsStable) {
  Page page(kDefaultPageSize);
  SlottedPage sp(&page);
  sp.Init(kInvalidPageId);
  int s0 = sp.Insert("aaa", 3);
  int s1 = sp.Insert("bbb", 3);
  ASSERT_TRUE(sp.Delete(static_cast<uint16_t>(s0)));
  uint32_t len = 0;
  EXPECT_EQ(sp.Get(static_cast<uint16_t>(s0), &len), nullptr);
  const char* data = sp.Get(static_cast<uint16_t>(s1), &len);
  ASSERT_NE(data, nullptr);
  EXPECT_EQ(std::string(data, len), "bbb");
  EXPECT_EQ(sp.LiveCount(), 1);
}

TEST(SlottedPageTest, SlotReuseAfterDelete) {
  Page page(kDefaultPageSize);
  SlottedPage sp(&page);
  sp.Init(kInvalidPageId);
  int s0 = sp.Insert("xx", 2);
  sp.Delete(static_cast<uint16_t>(s0));
  int s1 = sp.Insert("yy", 2);
  EXPECT_EQ(s0, s1);  // tombstoned slot is reused
}

TEST(SlottedPageTest, FillsUntilFull) {
  Page page(kDefaultPageSize);
  SlottedPage sp(&page);
  sp.Init(kInvalidPageId);
  std::string tuple(100, 'x');
  int count = 0;
  while (sp.Insert(tuple.data(), 100) >= 0) count++;
  // ~8KB / (100 bytes + 4-byte slot) => roughly 78 tuples.
  EXPECT_GT(count, 70);
  EXPECT_LT(count, 82);
}

TEST(SlottedPageTest, CompactionReclaimsDeletedSpace) {
  Page page(kDefaultPageSize);
  SlottedPage sp(&page);
  sp.Init(kInvalidPageId);
  std::string tuple(100, 'x');
  std::vector<int> slots;
  while (true) {
    int s = sp.Insert(tuple.data(), 100);
    if (s < 0) break;
    slots.push_back(s);
  }
  // Delete every other tuple, then the freed space must be insertable.
  for (size_t i = 0; i < slots.size(); i += 2) {
    sp.Delete(static_cast<uint16_t>(slots[i]));
  }
  int inserted = 0;
  while (sp.Insert(tuple.data(), 100) >= 0) inserted++;
  EXPECT_GE(inserted, static_cast<int>(slots.size() / 2));
}

TEST(SlottedPageTest, UpdateInPlaceAndGrow) {
  Page page(kDefaultPageSize);
  SlottedPage sp(&page);
  sp.Init(kInvalidPageId);
  int s = sp.Insert("0123456789", 10);
  EXPECT_TRUE(sp.Update(static_cast<uint16_t>(s), "abc", 3));
  uint32_t len = 0;
  const char* data = sp.Get(static_cast<uint16_t>(s), &len);
  EXPECT_EQ(std::string(data, len), "abc");
  EXPECT_TRUE(sp.Update(static_cast<uint16_t>(s), "0123456789abcdef", 16));
  data = sp.Get(static_cast<uint16_t>(s), &len);
  EXPECT_EQ(std::string(data, len), "0123456789abcdef");
}

TEST(PageStoreTest, AllocateReadWrite) {
  PageStore store(4096);
  PageId id = store.Allocate(PageType::kHeap);
  std::vector<char> buf(4096, 'z');
  ASSERT_TRUE(store.Write(id, buf.data()).ok());
  std::vector<char> out(4096, 0);
  ASSERT_TRUE(store.Read(id, out.data()).ok());
  EXPECT_EQ(out, buf);
  EXPECT_EQ(store.stats().physical_reads, 1u);
  EXPECT_EQ(store.stats().physical_writes, 1u);
}

TEST(PageStoreTest, DeallocateReusesIds) {
  PageStore store(1024);
  PageId a = store.Allocate(PageType::kHeap);
  store.Deallocate(a);
  PageId b = store.Allocate(PageType::kIndex);
  EXPECT_EQ(a, b);
  EXPECT_EQ(store.TypeOf(b), PageType::kIndex);
}

// Regression: Read/Write/TypeOf on an out-of-range or deallocated
// PageId used to index straight into the page array (UB). They must
// report kNotFound / kFree instead.
TEST(PageStoreTest, InvalidIdsReturnNotFoundNotUB) {
  PageStore store(512);
  std::vector<char> buf(512, 'x');
  EXPECT_EQ(store.Read(9999, buf.data()).code(), StatusCode::kNotFound);
  EXPECT_EQ(store.Write(9999, buf.data()).code(), StatusCode::kNotFound);
  EXPECT_EQ(store.TypeOf(9999), PageType::kFree);
  EXPECT_FALSE(store.IsAllocated(9999));

  PageId id = store.Allocate(PageType::kHeap);
  ASSERT_TRUE(store.Write(id, buf.data()).ok());
  store.Deallocate(id);
  EXPECT_EQ(store.Read(id, buf.data()).code(), StatusCode::kNotFound);
  EXPECT_EQ(store.Write(id, buf.data()).code(), StatusCode::kNotFound);
  EXPECT_EQ(store.TypeOf(id), PageType::kFree);
  EXPECT_FALSE(store.IsAllocated(id));

  // Double-deallocate and deallocate-of-garbage are ignored, not UB.
  store.Deallocate(id);
  store.Deallocate(424242);
}

TEST(BufferPoolTest, HitAndMissAccounting) {
  PageStore store(1024);
  BufferPool pool(&store, 8);
  Page* p = pool.NewPage(PageType::kHeap);
  PageId id = p->id();
  pool.UnpinPage(id, true);
  pool.ResetStats();

  auto again = pool.FetchPage(id);  // hit
  ASSERT_TRUE(again.ok());
  pool.UnpinPage((*again)->id(), false);
  EXPECT_EQ(pool.stats().logical_reads_data, 1u);
  EXPECT_EQ(pool.stats().misses_data, 0u);

  ASSERT_TRUE(pool.EvictAll().ok());
  auto cold = pool.FetchPage(id);  // miss
  ASSERT_TRUE(cold.ok());
  pool.UnpinPage((*cold)->id(), false);
  EXPECT_EQ(pool.stats().misses_data, 1u);
}

TEST(BufferPoolTest, EvictionRespectsCapacityAndLru) {
  PageStore store(1024);
  // Capacity is striped across shards: two frames per shard. LRU order is
  // maintained per shard, so the eviction victim is only deterministic
  // among pages that hash to the same shard.
  BufferPool pool(&store, 2 * kBufferPoolShards);
  std::vector<PageId> same_shard;
  size_t target_shard = 0;
  while (same_shard.size() < 3) {
    Page* p = pool.NewPage(PageType::kHeap);
    if (same_shard.empty()) target_shard = BufferPool::ShardOf(p->id());
    if (BufferPool::ShardOf(p->id()) == target_shard) {
      p->data()[0] = static_cast<char>('a' + same_shard.size());
      same_shard.push_back(p->id());
    }
    pool.UnpinPage(p->id(), true);
  }
  // Three same-shard pages compete for two frames: the oldest must have
  // been evicted and written back.
  pool.ResetStats();
  auto p0 = pool.FetchPage(same_shard[0]);
  ASSERT_TRUE(p0.ok());
  EXPECT_EQ((*p0)->data()[0], 'a');  // contents survived eviction
  EXPECT_EQ(pool.stats().misses_data, 1u);
  pool.UnpinPage(same_shard[0], false);
  // The two most recently used same-shard pages were still resident.
  pool.ResetStats();
  ASSERT_TRUE(pool.FetchPage(same_shard[2]).ok());
  pool.UnpinPage(same_shard[2], false);
  EXPECT_EQ(pool.stats().misses_data, 0u);
}

TEST(BufferPoolTest, PinnedPagesAreNotEvicted) {
  PageStore store(1024);
  BufferPool pool(&store, 1);
  Page* pinned = pool.NewPage(PageType::kHeap);
  PageId pinned_id = pinned->id();
  // Allocate more pages while the first stays pinned.
  Page* other = pool.NewPage(PageType::kHeap);
  pool.UnpinPage(other->id(), false);
  auto refetched = pool.FetchPage(pinned_id);
  ASSERT_TRUE(refetched.ok());
  EXPECT_EQ(*refetched, pinned);  // same frame: never left the pool
  pool.UnpinPage(pinned_id, false);
  pool.UnpinPage(pinned_id, false);
}

TEST(BufferPoolTest, ShrinkCapacityEvicts) {
  PageStore store(1024);
  BufferPool pool(&store, 2 * kBufferPoolShards);
  for (size_t i = 0; i < 2 * kBufferPoolShards; ++i) {
    Page* p = pool.NewPage(PageType::kIndex);
    pool.UnpinPage(p->id(), false);
  }
  EXPECT_EQ(pool.frames_in_use(), 2 * kBufferPoolShards);
  // Shrinking redistributes the budget; every shard sheds down to its new
  // share (one frame each — shards never starve below one).
  pool.SetCapacity(kBufferPoolShards);
  EXPECT_LE(pool.frames_in_use(), kBufferPoolShards);
}

TEST(BufferPoolTest, IndexVsDataSplit) {
  PageStore store(1024);
  BufferPool pool(&store, 8);
  Page* heap = pool.NewPage(PageType::kHeap);
  Page* index = pool.NewPage(PageType::kIndex);
  PageId heap_id = heap->id(), index_id = index->id();
  pool.UnpinPage(heap_id, false);
  pool.UnpinPage(index_id, false);
  pool.ResetStats();
  auto fetch = [&](PageId id) {
    auto page = pool.FetchPage(id);
    if (page.ok()) pool.UnpinPage(id, false);
    return page.status();
  };
  auto expect_counts = [&](uint64_t reads_data, uint64_t reads_index,
                           uint64_t misses_data, uint64_t misses_index) {
    const BufferPoolStats s = pool.stats();
    EXPECT_EQ(s.logical_reads_data, reads_data);
    EXPECT_EQ(s.logical_reads_index, reads_index);
    EXPECT_EQ(s.misses_data, misses_data);
    EXPECT_EQ(s.misses_index, misses_index);
  };

  // Hits count by the cached frame's type.
  ASSERT_TRUE(fetch(heap_id).ok());
  ASSERT_TRUE(fetch(index_id).ok());
  ASSERT_TRUE(fetch(index_id).ok());
  expect_counts(1, 2, 0, 0);

  // Misses count by the store's type; the re-read frames then hit.
  ASSERT_TRUE(pool.EvictAll().ok());
  ASSERT_TRUE(fetch(index_id).ok());
  ASSERT_TRUE(fetch(heap_id).ok());
  ASSERT_TRUE(fetch(index_id).ok());
  ASSERT_TRUE(fetch(heap_id).ok());
  expect_counts(3, 4, 1, 1);
  EXPECT_EQ(pool.stats().evictions, 2u);

  // A heap page freed and re-allocated as an index page counts as index,
  // on a hit and on a miss.
  pool.DeletePage(heap_id);
  Page* reused = pool.NewPage(PageType::kIndex);
  ASSERT_EQ(reused->id(), heap_id);
  pool.UnpinPage(heap_id, true);
  ASSERT_TRUE(fetch(heap_id).ok());
  expect_counts(3, 5, 1, 1);
  ASSERT_TRUE(pool.EvictAll().ok());
  ASSERT_TRUE(fetch(heap_id).ok());
  expect_counts(3, 6, 1, 2);

  // A freed page is not cached: the fetch is a (data) miss and fails.
  pool.DeletePage(index_id);
  EXPECT_EQ(fetch(index_id).code(), StatusCode::kNotFound);
  expect_counts(4, 6, 2, 2);
  EXPECT_EQ(pool.stats().evictions, 4u);
}

/// The page checksum is xxHash64 at seed 0: pinned by the reference
/// vectors, since v3 checkpoint meta files store it.
TEST(PageChecksumTest, MatchesXxHash64ReferenceVectors) {
  EXPECT_EQ(PageStore::Checksum("", 0), 0xEF46DB3751D8E999ull);
  EXPECT_EQ(PageStore::Checksum("a", 1), 0xD24EC4F1A98C6E5Bull);
  EXPECT_EQ(PageStore::Checksum("abc", 3), 0x44BC2CF5AD770999ull);
  const std::string text = "Nobody inspects the spammish repetition";
  EXPECT_EQ(PageStore::Checksum(text.data(), text.size()),
            0xFBCEA83C8A378BF1ull);
}

std::vector<char> PatternedPage() {
  std::vector<char> page(kDefaultPageSize);
  Rng rng(22);
  for (char& c : page) c = static_cast<char>(rng.Uniform(0, 255));
  return page;
}

/// Every single-bit flip of a full 8 KiB page changes its checksum, for a
/// patterned page and for the all-zero page every allocation starts as.
TEST(PageChecksumTest, EverySingleBitFlipIsDetected) {
  for (std::vector<char> page :
       {PatternedPage(), std::vector<char>(kDefaultPageSize, 0)}) {
    const uint64_t sum = PageStore::Checksum(page.data(), page.size());
    size_t missed = 0;
    for (size_t bit = 0; bit < page.size() * 8; ++bit) {
      page[bit / 8] = static_cast<char>(page[bit / 8] ^ (1 << (bit % 8)));
      if (PageStore::Checksum(page.data(), page.size()) == sum) ++missed;
      page[bit / 8] = static_cast<char>(page[bit / 8] ^ (1 << (bit % 8)));
    }
    EXPECT_EQ(missed, 0u);
  }
}

/// A torn write leaves one half of the intended image over the other half
/// of the previous one; either way round the result fails the intended
/// image's checksum, also when one of the two images is all zeros.
TEST(PageChecksumTest, TornWriteOfEitherHalfIsDetected) {
  const std::vector<char> zero(kDefaultPageSize, 0);
  const std::vector<char> patterned = PatternedPage();
  const size_t half = kDefaultPageSize / 2;
  for (const auto& [intended, previous] :
       {std::pair{patterned, zero}, std::pair{zero, patterned}}) {
    const uint64_t sum = PageStore::Checksum(intended.data(), intended.size());
    std::vector<char> first_half_landed = previous;
    std::copy(intended.begin(), intended.begin() + half,
              first_half_landed.begin());
    std::vector<char> second_half_landed = intended;
    std::copy(previous.begin(), previous.begin() + half,
              second_half_landed.begin());
    EXPECT_NE(PageStore::Checksum(first_half_landed.data(), kDefaultPageSize),
              sum);
    EXPECT_NE(
        PageStore::Checksum(second_half_landed.data(), kDefaultPageSize), sum);
  }
}

TEST(RowCodecTest, RoundTripAllTypes) {
  RowCodec codec({TypeId::kInt32, TypeId::kInt64, TypeId::kDouble,
                  TypeId::kDate, TypeId::kString, TypeId::kBool});
  Row row{Value::Int32(-5),      Value::Int64(1LL << 40),
          Value::Double(2.5),    Value::Date(10957),
          Value::String("abc"),  Value::Bool(true)};
  std::string image;
  ASSERT_TRUE(codec.Encode(row, &image).ok());
  auto decoded = codec.Decode(image.data(), static_cast<uint32_t>(image.size()));
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->size(), row.size());
  for (size_t i = 0; i < row.size(); ++i) {
    EXPECT_EQ((*decoded)[i].Compare(row[i]), 0) << i;
  }
}

TEST(RowCodecTest, NullsOccupyNoPayload) {
  RowCodec codec({TypeId::kString, TypeId::kString});
  std::string with_nulls, without;
  ASSERT_TRUE(codec.Encode({Value(), Value()}, &with_nulls).ok());
  ASSERT_TRUE(
      codec.Encode({Value::String("xx"), Value::String("yy")}, &without).ok());
  EXPECT_LT(with_nulls.size(), without.size());
  auto decoded =
      codec.Decode(with_nulls.data(), static_cast<uint32_t>(with_nulls.size()));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE((*decoded)[0].is_null());
  EXPECT_TRUE((*decoded)[1].is_null());
}

TEST(RowCodecTest, ArityMismatchRejected) {
  RowCodec codec({TypeId::kInt32});
  std::string image;
  EXPECT_FALSE(codec.Encode({Value::Int32(1), Value::Int32(2)}, &image).ok());
}

TEST(RowCodecTest, CastsOnEncode) {
  RowCodec codec({TypeId::kInt64});
  std::string image;
  ASSERT_TRUE(codec.Encode({Value::String("123")}, &image).ok());
  auto decoded = codec.Decode(image.data(), static_cast<uint32_t>(image.size()));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ((*decoded)[0].AsInt64(), 123);
}

class TableHeapTest : public ::testing::Test {
 protected:
  TableHeapTest() : store_(kDefaultPageSize), pool_(&store_, 64) {}
  PageStore store_;
  BufferPool pool_;
};

TEST_F(TableHeapTest, InsertGetDelete) {
  TableHeap heap(&pool_);
  auto rid = heap.Insert("tuple-1");
  ASSERT_TRUE(rid.ok());
  std::string out;
  ASSERT_TRUE(heap.Get(*rid, &out).ok());
  EXPECT_EQ(out, "tuple-1");
  ASSERT_TRUE(heap.Delete(*rid).ok());
  EXPECT_FALSE(heap.Get(*rid, &out).ok());
  EXPECT_EQ(heap.live_tuples(), 0u);
}

TEST_F(TableHeapTest, ScanSeesAllLiveTuples) {
  TableHeap heap(&pool_);
  std::map<std::string, bool> expected;
  for (int i = 0; i < 500; ++i) {
    std::string t = "tuple-" + std::to_string(i);
    ASSERT_TRUE(heap.Insert(t).ok());
    expected[t] = false;
  }
  auto it = heap.Begin();
  std::string tuple;
  Rid rid;
  int count = 0;
  while (true) {
    auto more = it.Next(&tuple, &rid);
    ASSERT_TRUE(more.ok());
    if (!*more) break;
    auto found = expected.find(tuple);
    ASSERT_NE(found, expected.end());
    EXPECT_FALSE(found->second) << "duplicate " << tuple;
    found->second = true;
    count++;
  }
  EXPECT_EQ(count, 500);
}

TEST_F(TableHeapTest, UpdateMayRelocate) {
  TableHeap heap(&pool_);
  // Fill a page almost completely, then grow one tuple.
  std::vector<Rid> rids;
  std::string tuple(800, 'a');
  for (int i = 0; i < 10; ++i) {
    auto rid = heap.Insert(tuple);
    ASSERT_TRUE(rid.ok());
    rids.push_back(*rid);
  }
  Rid target = rids[0];
  std::string bigger(7000, 'b');
  bool moved = false;
  ASSERT_TRUE(heap.Update(&target, bigger, &moved).ok());
  std::string out;
  ASSERT_TRUE(heap.Get(target, &out).ok());
  EXPECT_EQ(out, bigger);
}

TEST_F(TableHeapTest, AppendModeGrowsPages) {
  TableHeap heap(&pool_, InsertMode::kAppend);
  std::string tuple(1000, 'x');
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(heap.Insert(tuple).ok());
  }
  // 8 KB pages hold ~7 tuples of 1000 bytes: about 6 pages.
  EXPECT_GE(heap.page_count(), 5u);
}

TEST_F(TableHeapTest, FirstFitRefillsDeletedSpace) {
  TableHeap heap(&pool_, InsertMode::kFirstFit);
  std::string tuple(1000, 'x');
  std::vector<Rid> rids;
  for (int i = 0; i < 40; ++i) {
    auto rid = heap.Insert(tuple);
    ASSERT_TRUE(rid.ok());
    rids.push_back(*rid);
  }
  size_t pages_before = heap.page_count();
  for (const Rid& rid : rids) {
    ASSERT_TRUE(heap.Delete(rid).ok());
  }
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(heap.Insert(tuple).ok());
  }
  EXPECT_EQ(heap.page_count(), pages_before);  // space was reused
}

TEST_F(TableHeapTest, FreeReleasesPages) {
  TableHeap heap(&pool_);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(heap.Insert(std::string(500, 'q')).ok());
  }
  size_t allocated = store_.allocated_pages();
  EXPECT_GT(allocated, 0u);
  heap.Free();
  EXPECT_LT(store_.allocated_pages(), allocated);
  EXPECT_EQ(heap.page_count(), 0u);
}

// ---- delta redo records (EncodePageDelta / ApplyPageDelta) ------------

std::string RandomBytes(Rng* rng, size_t n) {
  std::string out(n, '\0');
  for (char& c : out) c = static_cast<char>(rng->Uniform(0, 255));
  return out;
}

/// Applies `ops` to a copy of `before` and checks it reproduces `after`.
void ExpectDeltaReproduces(const std::string& before,
                           const std::string& after) {
  const std::string ops =
      EncodePageDelta(before.data(), after.data(), before.size());
  std::string replayed = before;
  ASSERT_TRUE(ApplyPageDelta(ops, replayed.data(), replayed.size()).ok());
  ASSERT_EQ(replayed, after) << "delta of " << ops.size() << " bytes";
}

TEST(PageDeltaTest, UnchangedPageEncodesNothing) {
  Rng rng(3);
  const std::string page = RandomBytes(&rng, kDefaultPageSize);
  EXPECT_TRUE(EncodePageDelta(page.data(), page.data(), page.size()).empty());
}

TEST(PageDeltaTest, RandomEditsRoundTrip) {
  // Byte sets, shifted runs (memmove by small and large distances, either
  // direction, overlapping earlier edits) and whole-region rewrites, in
  // random combinations: whatever the encoder chooses, applying it to
  // the before-image must give the after-image.
  Rng rng(17);
  for (int iter = 0; iter < 400; ++iter) {
    const std::string before = RandomBytes(&rng, kDefaultPageSize);
    std::string after = before;
    const int edits = static_cast<int>(rng.Uniform(1, 8));
    for (int e = 0; e < edits; ++e) {
      const size_t len = static_cast<size_t>(rng.Uniform(1, 1500));
      const size_t at = static_cast<size_t>(
          rng.Uniform(0, static_cast<int64_t>(after.size() - len)));
      switch (rng.Uniform(0, 2)) {
        case 0:
          after.replace(at, len, RandomBytes(&rng, len));
          break;
        case 1: {
          const size_t to = static_cast<size_t>(
              rng.Uniform(0, static_cast<int64_t>(after.size() - len)));
          std::memmove(after.data() + to, after.data() + at, len);
          break;
        }
        default:
          after[at] = static_cast<char>(after[at] + 1);
          break;
      }
    }
    ExpectDeltaReproduces(before, after);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(PageDeltaTest, SlotArrayShiftIsLoggedAsOneMove) {
  // A B-tree leaf with 400 twelve-byte entries: opening slot 37 shifts
  // 4.3 KB of entries by one slot. The delta must carry the shift as a
  // move plus the new entry, header and key bytes — not the shifted bytes.
  constexpr size_t kEntry = 12;
  constexpr size_t kHeader = 12;
  Rng rng(5);
  std::string before(kDefaultPageSize, '\0');
  for (size_t i = 0; i < 400; ++i) {
    const std::string entry = RandomBytes(&rng, kEntry);
    before.replace(kHeader + i * kEntry, kEntry, entry);
  }
  std::string after = before;
  const size_t slot = 37;
  std::memmove(after.data() + kHeader + (slot + 1) * kEntry,
               after.data() + kHeader + slot * kEntry, (400 - slot) * kEntry);
  after.replace(kHeader + slot * kEntry, kEntry, RandomBytes(&rng, kEntry));
  after.replace(2, 4, RandomBytes(&rng, 4));           // count, free_end
  after.replace(7000, 20, RandomBytes(&rng, 20));      // the new key
  ExpectDeltaReproduces(before, after);
  EXPECT_LT(EncodePageDelta(before.data(), after.data(), before.size()).size(),
            100u);

  // Closing the slot again (RemoveAt) is the mirror-image shift.
  std::string closed = after;
  std::memmove(closed.data() + kHeader + slot * kEntry,
               closed.data() + kHeader + (slot + 1) * kEntry,
               (400 - slot) * kEntry);
  ExpectDeltaReproduces(after, closed);
  EXPECT_LT(EncodePageDelta(after.data(), closed.data(), after.size()).size(),
            100u);
}

TEST(PageDeltaTest, MalformedOpsAreDataLoss) {
  std::string page(kDefaultPageSize, 'x');
  // Unknown op byte.
  EXPECT_EQ(ApplyPageDelta(std::string(1, '\x7f'), page.data(), page.size())
                .code(),
            StatusCode::kDataLoss);
  // A set that runs past the page end.
  std::string set_past_end;
  set_past_end.push_back(1);
  const uint16_t off = kDefaultPageSize - 2, len = 4;
  set_past_end.append(reinterpret_cast<const char*>(&off), 2);
  set_past_end.append(reinterpret_cast<const char*>(&len), 2);
  set_past_end.append(4, 'y');
  EXPECT_EQ(ApplyPageDelta(set_past_end, page.data(), page.size()).code(),
            StatusCode::kDataLoss);
  // A truncated move.
  EXPECT_EQ(
      ApplyPageDelta(std::string("\x02\x00", 2), page.data(), page.size())
          .code(),
      StatusCode::kDataLoss);
  EXPECT_EQ(page, std::string(kDefaultPageSize, 'x'))
      << "a rejected op must not write";
}

}  // namespace
}  // namespace mtdb
