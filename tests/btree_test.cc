#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>

#include "common/fault.h"
#include "common/key_encoding.h"
#include "common/rng.h"
#include "index/btree.h"

namespace mtdb {
namespace {

class BTreeTest : public ::testing::Test {
 protected:
  BTreeTest() : store_(kDefaultPageSize), pool_(&store_, 512) {}

  static std::string Key(int64_t v) {
    return KeyEncoder::EncodeKey({Value::Int64(v)});
  }
  static Rid MakeRid(int64_t i) {
    return Rid{static_cast<PageId>(i / 100), static_cast<uint16_t>(i % 100)};
  }

  PageStore store_;
  BufferPool pool_;
};

TEST_F(BTreeTest, InsertLookup) {
  BTree tree(&pool_);
  ASSERT_TRUE(tree.Insert(Key(42), MakeRid(1)).ok());
  auto rids = tree.Lookup(Key(42));
  ASSERT_TRUE(rids.ok());
  ASSERT_EQ(rids->size(), 1u);
  EXPECT_EQ((*rids)[0], MakeRid(1));
  EXPECT_TRUE(*tree.Contains(Key(42)));
  EXPECT_FALSE(*tree.Contains(Key(43)));
}

TEST_F(BTreeTest, DuplicateKeysKeepAllRids) {
  BTree tree(&pool_);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(tree.Insert(Key(7), MakeRid(i)).ok());
  }
  auto rids = tree.Lookup(Key(7));
  ASSERT_TRUE(rids.ok());
  EXPECT_EQ(rids->size(), 10u);
}

TEST_F(BTreeTest, DeleteSpecificDuplicate) {
  BTree tree(&pool_);
  ASSERT_TRUE(tree.Insert(Key(7), MakeRid(1)).ok());
  ASSERT_TRUE(tree.Insert(Key(7), MakeRid(2)).ok());
  ASSERT_TRUE(tree.Delete(Key(7), MakeRid(1)).ok());
  auto rids = tree.Lookup(Key(7));
  ASSERT_TRUE(rids.ok());
  ASSERT_EQ(rids->size(), 1u);
  EXPECT_EQ((*rids)[0], MakeRid(2));
}

TEST_F(BTreeTest, DeleteMissingIsNotFound) {
  BTree tree(&pool_);
  EXPECT_EQ(tree.Delete(Key(1), MakeRid(1)).code(), StatusCode::kNotFound);
}

TEST_F(BTreeTest, SplitsGrowTheTree) {
  BTree tree(&pool_);
  for (int64_t i = 0; i < 5000; ++i) {
    ASSERT_TRUE(tree.Insert(Key(i), MakeRid(i)).ok()) << i;
  }
  EXPECT_EQ(tree.entry_count(), 5000u);
  EXPECT_GE(*tree.Height(), 2);
  for (int64_t i = 0; i < 5000; i += 97) {
    auto rids = tree.Lookup(Key(i));
    ASSERT_TRUE(rids.ok());
    ASSERT_EQ(rids->size(), 1u) << i;
    EXPECT_EQ((*rids)[0], MakeRid(i));
  }
}

TEST_F(BTreeTest, ScanRangeOrdered) {
  BTree tree(&pool_);
  for (int64_t i = 0; i < 1000; ++i) {
    ASSERT_TRUE(tree.Insert(Key(i), MakeRid(i)).ok());
  }
  std::string lo = Key(100), hi = Key(200);
  auto scan = tree.Scan(lo, hi);
  ASSERT_TRUE(scan.ok());
  BTree::Iterator it = *std::move(scan);
  Rid rid;
  std::string key, prev;
  int count = 0;
  while (true) {
    auto more = it.Next(&rid, &key);
    ASSERT_TRUE(more.ok());
    if (!*more) break;
    if (!prev.empty()) {
      EXPECT_LE(prev, key);
    }
    prev = key;
    count++;
  }
  EXPECT_EQ(count, 100);  // keys 100..199
}

TEST_F(BTreeTest, RandomizedAgainstReferenceModel) {
  BTree tree(&pool_);
  std::multimap<std::string, Rid> model;
  Rng rng(99);
  for (int op = 0; op < 20000; ++op) {
    int64_t k = rng.Uniform(0, 500);
    if (rng.Bernoulli(0.7)) {
      Rid rid = MakeRid(op);
      ASSERT_TRUE(tree.Insert(Key(k), rid).ok());
      model.emplace(Key(k), rid);
    } else {
      auto it = model.find(Key(k));
      if (it != model.end()) {
        ASSERT_TRUE(tree.Delete(it->first, it->second).ok());
        model.erase(it);
      } else {
        EXPECT_FALSE(tree.Delete(Key(k), MakeRid(op)).ok());
      }
    }
  }
  EXPECT_EQ(tree.entry_count(), model.size());
  // Verify every key's rid set matches the model.
  for (int64_t k = 0; k <= 500; ++k) {
    auto range = model.equal_range(Key(k));
    std::set<std::pair<PageId, uint16_t>> expected;
    for (auto it = range.first; it != range.second; ++it) {
      expected.insert({it->second.page_id, it->second.slot});
    }
    auto rids = tree.Lookup(Key(k));
    ASSERT_TRUE(rids.ok());
    std::set<std::pair<PageId, uint16_t>> actual;
    for (const Rid& r : *rids) actual.insert({r.page_id, r.slot});
    EXPECT_EQ(actual, expected) << "key " << k;
  }
}

TEST_F(BTreeTest, VariableLengthStringKeys) {
  BTree tree(&pool_);
  Rng rng(5);
  std::multimap<std::string, Rid> model;
  for (int i = 0; i < 3000; ++i) {
    std::string key =
        KeyEncoder::EncodeKey({Value::String(rng.Word(1, 60))});
    Rid rid = MakeRid(i);
    ASSERT_TRUE(tree.Insert(key, rid).ok());
    model.emplace(key, rid);
  }
  // Full scan must be ordered and complete.
  auto scan = tree.Scan(std::string(1, '\x00'), std::string(64, '\xFF'));
  ASSERT_TRUE(scan.ok());
  BTree::Iterator it = *std::move(scan);
  Rid rid;
  std::string key, prev;
  size_t count = 0;
  while (true) {
    auto more = it.Next(&rid, &key);
    ASSERT_TRUE(more.ok());
    if (!*more) break;
    if (count > 0) {
      EXPECT_LE(prev, key);
    }
    prev = key;
    count++;
  }
  EXPECT_EQ(count, model.size());
}

TEST_F(BTreeTest, CompositeKeyPrefixScan) {
  // Simulates the (tenant, tbl, chunk, row) partitioned B-tree.
  BTree tree(&pool_);
  for (int tenant = 0; tenant < 5; ++tenant) {
    for (int row = 0; row < 50; ++row) {
      std::string key = KeyEncoder::EncodeKey(
          {Value::Int32(tenant), Value::Int32(0), Value::Int64(row)});
      ASSERT_TRUE(tree.Insert(key, MakeRid(tenant * 1000 + row)).ok());
    }
  }
  std::string lo, hi;
  KeyEncoder::EncodePrefixRange({Value::Int32(3)}, &lo, &hi);
  auto scan = tree.Scan(lo, hi);
  ASSERT_TRUE(scan.ok());
  BTree::Iterator it = *std::move(scan);
  Rid rid;
  int count = 0;
  while (*it.Next(&rid)) count++;
  EXPECT_EQ(count, 50);  // exactly tenant 3's partition
}

TEST_F(BTreeTest, FreeReleasesPages) {
  BTree tree(&pool_);
  for (int64_t i = 0; i < 2000; ++i) {
    ASSERT_TRUE(tree.Insert(Key(i), MakeRid(i)).ok());
  }
  size_t before = store_.allocated_pages();
  EXPECT_GT(tree.page_count(), 1u);
  tree.Free();
  EXPECT_LT(store_.allocated_pages(), before);
}

TEST_F(BTreeTest, ReverseInsertionOrder) {
  BTree tree(&pool_);
  for (int64_t i = 3000; i > 0; --i) {
    ASSERT_TRUE(tree.Insert(Key(i), MakeRid(i)).ok());
  }
  auto scan = tree.Scan(Key(0), Key(4000));
  ASSERT_TRUE(scan.ok());
  BTree::Iterator it = *std::move(scan);
  Rid rid;
  std::string key, prev;
  int count = 0;
  while (true) {
    auto more = it.Next(&rid, &key);
    ASSERT_TRUE(more.ok());
    if (!*more) break;
    if (count > 0) {
      EXPECT_LT(prev, key);
    }
    prev = key;
    count++;
  }
  EXPECT_EQ(count, 3000);
}

/// Entries that fit one leaf: ascending inserts into a fresh tree until
/// its root leaf splits.
size_t LeafCapacity(BufferPool* pool) {
  BTree probe(pool);
  int64_t i = 0;
  while (probe.page_count() == 1) {
    EXPECT_TRUE(probe.Insert(KeyEncoder::EncodeKey({Value::Int64(i)}),
                             Rid{0, 0})
                    .ok());
    i++;
  }
  probe.Free();
  return static_cast<size_t>(i - 1);
}

TEST_F(BTreeTest, AscendingInsertsFillLeaves) {
  const size_t capacity = LeafCapacity(&pool_);
  ASSERT_GT(capacity, 10u);
  BTree tree(&pool_);
  const int64_t n = static_cast<int64_t>(capacity) * 40;
  for (int64_t i = 0; i < n; ++i) {
    ASSERT_TRUE(tree.Insert(Key(i), MakeRid(i)).ok()) << i;
  }
  ASSERT_EQ(*tree.Height(), 2);  // one root over the leaves
  const size_t leaves = tree.page_count() - 1;
  const double fill = static_cast<double>(tree.entry_count()) /
                      static_cast<double>(leaves * capacity);
  EXPECT_GE(fill, 0.9) << leaves << " leaves of " << capacity;
  for (int64_t i = 0; i < n; i += 37) {
    auto rids = tree.Lookup(Key(i));
    ASSERT_TRUE(rids.ok());
    ASSERT_EQ(rids->size(), 1u) << i;
  }
}

/// Every key of `tree` in scan order.
std::vector<std::string> AllKeys(BTree* tree) {
  std::vector<std::string> keys;
  auto scan = tree->Scan(std::string(1, '\x00'), std::string(16, '\xFF'));
  EXPECT_TRUE(scan.ok());
  if (!scan.ok()) return keys;
  BTree::Iterator it = *std::move(scan);
  Rid rid;
  std::string key;
  while (true) {
    auto more = it.Next(&rid, &key);
    EXPECT_TRUE(more.ok());
    if (!more.ok() || !*more) break;
    keys.push_back(key);
  }
  return keys;
}

TEST_F(BTreeTest, ReadFaultDuringAppendSplitLeavesTreeUntouched) {
  // One frame per shard, so a leaf that shares the root's shard evicts
  // the root on the way down, and the split's pin phase must read the
  // root (its parent) back. A persistent read fault there must fail the
  // insert before any page is modified.
  pool_.SetCapacity(kBufferPoolShards);
  FaultInjector injector(11);
  BTree tree(&pool_);
  int64_t next = 0;
  while (*tree.Height() < 2) {
    ASSERT_TRUE(tree.Insert(Key(next), MakeRid(next)).ok());
    next++;
  }
  const int64_t n = static_cast<int64_t>(LeafCapacity(&pool_)) * 20;
  int faulted = 0;
  for (; next < n; ++next) {
    // Does the descent to this key's leaf evict the root?
    ASSERT_TRUE(pool_.EvictAll().ok());
    ASSERT_TRUE(tree.Lookup(Key(next)).ok());
    uint64_t misses = pool_.stats().misses();
    ASSERT_TRUE(tree.Lookup(Key(next)).ok());
    bool root_evicted = pool_.stats().misses() - misses == 2;

    ASSERT_TRUE(pool_.EvictAll().ok());
    if (root_evicted) {
      store_.set_fault_injector(&injector);
      FaultSpec spec;
      spec.probability = 1.0;
      spec.skip = 2;  // the descent's root and leaf reads succeed
      injector.Arm(FaultPoint::kPageRead, spec);
    }
    const size_t pages = tree.page_count();
    const uint64_t entries = tree.entry_count();
    const size_t allocated = store_.allocated_pages();
    Status st = tree.Insert(Key(next), MakeRid(next));
    injector.DisarmAll();
    store_.set_fault_injector(nullptr);
    if (!st.ok()) {
      ASSERT_TRUE(root_evicted) << st.ToString();
      EXPECT_EQ(st.code(), StatusCode::kIOError);
      EXPECT_EQ(tree.page_count(), pages);
      EXPECT_EQ(tree.entry_count(), entries);
      EXPECT_EQ(store_.allocated_pages(), allocated);
      std::vector<std::string> keys = AllKeys(&tree);
      ASSERT_EQ(keys.size(), static_cast<size_t>(next));
      EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
      faulted++;
      ASSERT_TRUE(tree.Insert(Key(next), MakeRid(next)).ok());
    }
  }
  EXPECT_GT(faulted, 0);
  EXPECT_EQ(tree.entry_count(), static_cast<uint64_t>(n));
  EXPECT_EQ(AllKeys(&tree).size(), static_cast<size_t>(n));
}

// ------------------------------------------- the leaf-batched iterator

/// The reference model of a tree: every stored (key + rid suffix) entry.
using EntryModel = std::map<std::string, Rid>;

std::string FullKey(const std::string& key, const Rid& rid) {
  std::string full = key;
  AppendRidSuffix(rid, &full);
  return full;
}

/// Scans [lo, hi) and checks the keys and rids against `model`.
void ExpectScanMatches(BTree* tree, const EntryModel& model,
                       const std::string& lo, const std::string& hi) {
  auto scan = tree->Scan(lo, hi);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  BTree::Iterator it = *std::move(scan);
  auto want = model.lower_bound(lo);
  Rid rid;
  std::string key;
  size_t n = 0;
  while (true) {
    auto more = it.Next(&rid, &key);
    ASSERT_TRUE(more.ok()) << more.status().ToString();
    if (!*more) break;
    ASSERT_TRUE(want != model.end() && (hi.empty() || want->first < hi))
        << "extra entry " << n << " in range";
    EXPECT_EQ(key, want->first) << "entry " << n;
    EXPECT_EQ(rid, want->second) << "entry " << n;
    ++want;
    ++n;
  }
  EXPECT_TRUE(want == model.end() || (!hi.empty() && want->first >= hi))
      << "scan stopped after " << n << " entries";
  // Exhausted iterators stay exhausted.
  auto again = it.Next(&rid, &key);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(*again);
}

TEST_F(BTreeTest, IteratorMatchesReferenceOnRandomRanges) {
  BTree tree(&pool_);
  EntryModel model;
  Rng rng(2024);
  // Duplicates: 600 distinct keys, ~8 rids each, spread over many leaves.
  for (int op = 0; op < 5000; ++op) {
    std::string key = Key(rng.Uniform(0, 600));
    Rid rid = MakeRid(op);
    ASSERT_TRUE(tree.Insert(key, rid).ok());
    model.emplace(FullKey(key, rid), rid);
  }
  for (int op = 0; op < 1000; ++op) {
    auto victim = model.lower_bound(Key(rng.Uniform(0, 600)));
    if (victim == model.end()) continue;
    std::string key = victim->first.substr(0, victim->first.size() - 6);
    ASSERT_TRUE(tree.Delete(key, victim->second).ok());
    model.erase(victim);
  }
  ASSERT_GE(*tree.Height(), 2);
  for (int q = 0; q < 300; ++q) {
    int64_t a = rng.Uniform(-5, 605);
    int64_t b = a + rng.Uniform(0, 80);
    ExpectScanMatches(&tree, model, Key(a), Key(b));
  }
  // Unbounded above, and the duplicate run of one key (the Lookup range).
  ExpectScanMatches(&tree, model, Key(300), "");
  std::string hi = Key(123);
  hi.push_back('\xFF');
  ExpectScanMatches(&tree, model, Key(123), hi);
  auto rids = tree.Lookup(Key(123));
  ASSERT_TRUE(rids.ok());
  auto range_lo = model.lower_bound(Key(123));
  auto range_hi = model.lower_bound(hi);
  EXPECT_EQ(rids->size(),
            static_cast<size_t>(std::distance(range_lo, range_hi)));
}

TEST_F(BTreeTest, IteratorBoundariesAndEmptyRanges) {
  BTree tree(&pool_);
  EntryModel model;
  const int64_t n = static_cast<int64_t>(LeafCapacity(&pool_)) * 6;
  for (int64_t i = 0; i < n; ++i) {
    // Even keys only, so odd keys fall between entries.
    ASSERT_TRUE(tree.Insert(Key(2 * i), MakeRid(i)).ok());
    model.emplace(FullKey(Key(2 * i), MakeRid(i)), MakeRid(i));
  }
  ASSERT_GE(tree.page_count(), 6u);
  // `hi` equal to every stored entry in turn, so it falls exactly on the
  // first entry of each leaf once; `lo` likewise on the last of each.
  std::vector<std::string> full;
  for (const auto& [k, rid] : model) full.push_back(k);
  for (size_t i = 0; i < full.size(); ++i) {
    size_t from = i >= 40 ? i - 40 : 0;
    ExpectScanMatches(&tree, model, full[from], full[i]);
  }
  // Empty: lo == hi, lo > hi, a gap between two entries, past the end.
  ExpectScanMatches(&tree, model, Key(100), Key(100));
  ExpectScanMatches(&tree, model, Key(200), Key(100));
  ExpectScanMatches(&tree, model, Key(101), Key(102));
  ExpectScanMatches(&tree, model, Key(2 * n), Key(4 * n));
  ExpectScanMatches(&tree, model, Key(-10), Key(0));
}

/// Inserts and deletes between Next() calls, splits included: each Next
/// returns the smallest entry now in the tree above the last one it
/// returned (the iterator re-seeks), so nothing is skipped or repeated.
TEST_F(BTreeTest, IteratorReseeksAfterConcurrentChanges) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    BTree tree(&pool_);
    EntryModel model;
    Rng rng(seed);
    int next_rid = 0;
    auto insert = [&](int64_t k) {
      Rid rid = MakeRid(next_rid++);
      ASSERT_TRUE(tree.Insert(Key(k), rid).ok());
      model.emplace(FullKey(Key(k), rid), rid);
    };
    for (int i = 0; i < 1500; ++i) insert(rng.Uniform(0, 1000));
    const std::string lo = Key(100), hi = Key(900);
    auto scan = tree.Scan(lo, hi);
    ASSERT_TRUE(scan.ok());
    BTree::Iterator it = *std::move(scan);
    std::string last;  // empty: nothing returned yet
    int returned = 0;
    while (true) {
      // Change the tree before some calls: below the cursor, at it, above
      // it, and bursts large enough to split leaves.
      int changes = rng.Bernoulli(0.3) ? static_cast<int>(rng.Uniform(1, 40)) : 0;
      for (int c = 0; c < changes; ++c) {
        if (rng.Bernoulli(0.6)) {
          insert(rng.Uniform(0, 1000));
        } else {
          auto victim = model.lower_bound(Key(rng.Uniform(0, 1000)));
          if (victim == model.end()) continue;
          std::string key = victim->first.substr(0, victim->first.size() - 6);
          ASSERT_TRUE(tree.Delete(key, victim->second).ok());
          model.erase(victim);
        }
      }
      auto want = last.empty() ? model.lower_bound(lo) : model.upper_bound(last);
      Rid rid;
      std::string key;
      auto more = it.Next(&rid, &key);
      ASSERT_TRUE(more.ok()) << more.status().ToString();
      if (!*more) {
        EXPECT_TRUE(want == model.end() || want->first >= hi)
            << "seed " << seed << ": stopped early after " << returned;
        break;
      }
      ASSERT_TRUE(want != model.end() && want->first < hi)
          << "seed " << seed << ": entry past the range";
      ASSERT_EQ(key, want->first) << "seed " << seed << " step " << returned;
      EXPECT_EQ(rid, want->second);
      last = key;
      returned++;
    }
    EXPECT_GT(returned, 500);
    EXPECT_EQ(tree.entry_count(), model.size());
  }
}

/// A scan reads each leaf once: N entries over L leaves cost at most
/// L + height logical page reads, where re-fetching the leaf per entry
/// cost one read per entry.
TEST_F(BTreeTest, ScanReadsEachLeafOnce) {
  const size_t capacity = LeafCapacity(&pool_);
  BTree tree(&pool_);
  const int64_t n = static_cast<int64_t>(capacity) * 30;
  for (int64_t i = 0; i < n; ++i) {
    ASSERT_TRUE(tree.Insert(Key(i), MakeRid(i)).ok());
  }
  const int height = *tree.Height();
  ASSERT_EQ(height, 2);
  const uint64_t leaves = tree.page_count() - 1;  // all but the root
  auto reads = [&](int64_t lo, int64_t hi, int64_t* count) {
    uint64_t before = pool_.stats().logical_reads_index;
    auto scan = tree.Scan(Key(lo), Key(hi));
    EXPECT_TRUE(scan.ok());
    BTree::Iterator it = *std::move(scan);
    Rid rid;
    *count = 0;
    while (*it.Next(&rid)) ++*count;
    return pool_.stats().logical_reads_index - before;
  };
  int64_t count = 0;
  EXPECT_LE(reads(0, n, &count), leaves + height);
  EXPECT_EQ(count, n);
  // A range over part of the tree: ascending inserts fill every leaf
  // but the last, so `span` entries cover at most span / capacity + 2
  // leaves.
  const int64_t span = static_cast<int64_t>(capacity) * 7 + 5;
  const uint64_t spanned = static_cast<uint64_t>(span) / capacity + 2;
  EXPECT_LE(reads(capacity / 2, capacity / 2 + span, &count),
            spanned + height);
  EXPECT_EQ(count, span);
  // A point lookup reads the descent and at most one more leaf.
  uint64_t before = pool_.stats().logical_reads_index;
  auto rids = tree.Lookup(Key(n / 3));
  ASSERT_TRUE(rids.ok());
  ASSERT_EQ(rids->size(), 1u);
  EXPECT_LE(pool_.stats().logical_reads_index - before,
            static_cast<uint64_t>(height) + 1);
}

}  // namespace
}  // namespace mtdb
