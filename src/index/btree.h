#ifndef MTDB_INDEX_BTREE_H_
#define MTDB_INDEX_BTREE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/latch.h"
#include "common/result.h"
#include "common/types.h"
#include "storage/buffer_pool.h"

namespace mtdb {

/// A disk-resident B+Tree mapping memcomparable byte-string keys to RIDs.
///
/// Duplicates are supported by suffixing every key with its RID, so the
/// stored keys are unique and a (key, rid) pair can be deleted exactly.
/// Composite keys with redundant leading components (Tenant, Table,
/// Chunk, ...) behave as partitioned B-Trees (Graefe, CIDR'03): the
/// leading components confine a lookup to one contiguous partition. Page
/// images live in the shared buffer pool, so index root/interior pages
/// compete with data pages for memory — the effect §5 measures.
class BTree {
 public:
  /// Creates an empty tree (allocates a root leaf).
  explicit BTree(BufferPool* pool);
  /// Attaches to an existing tree.
  BTree(BufferPool* pool, PageId root);

  BTree(const BTree&) = delete;
  BTree& operator=(const BTree&) = delete;

  PageId root() const { return root_; }
  uint64_t entry_count() const { return entries_; }
  /// Number of pages ever allocated to this tree (root + interior + leaf).
  size_t page_count() const { return all_pages_.size(); }

  Status Insert(std::string_view key, const Rid& rid);
  /// Removes one (key, rid) entry. NotFound if absent.
  Status Delete(std::string_view key, const Rid& rid);

  /// True if any entry's key equals `key` (ignoring the rid suffix).
  Result<bool> Contains(std::string_view key);

  /// Collects the RIDs of all entries with exactly this key.
  Result<std::vector<Rid>> Lookup(std::string_view key);

  /// Streaming scan over keys in [lo, hi).
  ///
  /// The iterator copies a leaf's entries below `hi` under one pin and
  /// serves Next() from that copy, so a scan reads each leaf once and
  /// holds no pin between calls. When the tree has been modified since
  /// the copy was taken (its modification count moved), the next call
  /// re-seeks to the first key after the last one returned: entries
  /// inserted or deleted meanwhile by the latch holder are seen in key
  /// order, and no entry is returned twice. Once Next() has returned
  /// false it keeps returning false.
  class Iterator {
   public:
    /// Returns false at end; otherwise fills rid (and `key` if
    /// non-null). Surfaces storage errors after the pool's retries.
    Result<bool> Next(Rid* rid, std::string* key = nullptr);

   private:
    friend class BTree;
    struct Entry {
      uint32_t key_end;  // end offset of the key in keys_
      Rid rid;
    };

    Iterator(BTree* tree, std::string_view lo, std::string_view hi)
        : tree_(tree), hi_(hi), resume_(lo) {}
    /// Descends to the leaf holding resume_ and fills the batch from the
    /// first entry at (resume_inclusive_) or after resume_.
    Status Seek();
    /// Copies the entries of the pinned leaf `page` from slot `pos` up
    /// to hi_ into the batch, then unpins the leaf.
    void Fill(PageId leaf, Page* page, int pos);
    std::string_view KeyAt(size_t i) const;

    BTree* tree_;
    std::string hi_;
    std::string resume_;  // where the batch starts: at or after this key
    bool resume_inclusive_ = true;
    std::string keys_;           // the batch's key bytes, concatenated
    std::vector<Entry> batch_;
    size_t pos_ = 0;             // next batch entry to return
    PageId next_leaf_ = kInvalidPageId;  // leaf after the batch, if any
    uint64_t modifications_ = 0;  // the tree's count at Fill()
    bool done_ = false;
  };

  Result<Iterator> Scan(std::string_view lo, std::string_view hi);

  /// Releases every page of the tree back to the store.
  void Free();

  /// Recovery: after attaching to an existing root, walks the whole tree
  /// to repopulate the page list and the entry count.
  Status RebuildFromRoot();

  /// Tree height (1 = root is a leaf). Walks the leftmost path.
  Result<int> Height();

  /// Per-index reader/writer latch. Like TableHeap::latch(), this is
  /// acquired only by the engine's statement pipeline (shared for
  /// lookups/scans, exclusive for inserts/deletes) at coarse per-index
  /// granularity; BTree methods themselves never lock it, as the
  /// underlying shared_mutex is not recursive. The catalog stamps its
  /// lockdep order key (TableId + IndexId) at registration.
  SharedLatch& latch() const { return latch_; }

 private:
  struct NodeRef;  // defined in btree.cc

  /// Descends to the leaf that should contain `key`; records the path of
  /// (page id, child index) in `path` when non-null. With `pinned_leaf`
  /// non-null the leaf stays pinned and is returned there, so the caller
  /// reads it without fetching it again.
  Result<PageId> FindLeaf(std::string_view key,
                          std::vector<std::pair<PageId, int>>* path,
                          Page** pinned_leaf = nullptr);
  /// Splits `left_id` and links the new sibling into its parent. Pins
  /// every page it will modify *before* mutating anything, so an I/O
  /// failure surfaces with the tree structurally untouched. `append`
  /// marks a leaf split for an insert past the leaf's last key: the leaf
  /// then splits at its end rather than in the middle.
  Status SplitAndPropagate(std::vector<std::pair<PageId, int>>& path,
                           PageId left_id, bool append);

  BufferPool* pool_;
  PageId root_;
  uint64_t entries_ = 0;
  /// Bumped by every change to the tree's entries or structure; an
  /// iterator whose batch predates the current value re-seeks.
  uint64_t modifications_ = 0;
  std::vector<PageId> all_pages_;
  mutable SharedLatch latch_{LatchRank::kTableIndex, "btree"};
};

/// Appends an order-preserving RID suffix to `key` (used by BTree to
/// disambiguate duplicate keys; exposed for tests).
void AppendRidSuffix(const Rid& rid, std::string* key);

}  // namespace mtdb

#endif  // MTDB_INDEX_BTREE_H_
