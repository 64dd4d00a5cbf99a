#include "index/btree.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "common/deadline.h"

namespace mtdb {

namespace {

// Node byte layout (offsets into the page image):
//   0  u8   is_leaf
//   2  u16  count
//   4  u16  free_end        (start of key-bytes area, grows downward)
//   8  i32  next leaf (leaf) / leftmost child (internal)
//   12 ...  entry slots, 12 bytes each: u16 key_offset, u16 key_len,
//           u64 value (rid or child page id)
// Key bytes occupy [free_end, page_size) and are written back-to-front.
constexpr uint32_t kHeaderSize = 12;
constexpr uint32_t kEntrySize = 12;

uint64_t PackRid(const Rid& rid) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(rid.page_id)) << 16) |
         rid.slot;
}

Rid UnpackRid(uint64_t v) {
  return Rid{static_cast<PageId>(v >> 16), static_cast<uint16_t>(v & 0xFFFF)};
}

class NodeView {
 public:
  explicit NodeView(Page* page) : page_(page) {}

  void Init(bool is_leaf) {
    std::memset(page_->data(), 0, kHeaderSize);
    page_->data()[0] = is_leaf ? 1 : 0;
    SetCount(0);
    SetFreeEnd(static_cast<uint16_t>(page_->size()));
    SetLink(kInvalidPageId);
  }

  bool is_leaf() const { return page_->data()[0] != 0; }
  uint16_t count() const { return ReadU16(2); }
  uint16_t free_end() const { return ReadU16(4); }
  PageId link() const {
    int32_t v;
    std::memcpy(&v, page_->data() + 8, 4);
    return v;
  }
  void SetCount(uint16_t c) { WriteU16(2, c); }
  void SetFreeEnd(uint16_t f) { WriteU16(4, f); }
  void SetLink(PageId id) { std::memcpy(page_->data() + 8, &id, 4); }

  std::string_view Key(int i) const {
    uint16_t off = ReadU16(kHeaderSize + i * kEntrySize);
    uint16_t len = ReadU16(kHeaderSize + i * kEntrySize + 2);
    return std::string_view(page_->data() + off, len);
  }
  uint64_t Val(int i) const {
    uint64_t v;
    std::memcpy(&v, page_->data() + kHeaderSize + i * kEntrySize + 4, 8);
    return v;
  }
  void SetVal(int i, uint64_t v) {
    std::memcpy(page_->data() + kHeaderSize + i * kEntrySize + 4, &v, 8);
  }

  uint32_t FreeBytes() const {
    uint32_t used_front = kHeaderSize + count() * kEntrySize;
    return free_end() > used_front ? free_end() - used_front : 0;
  }

  bool Fits(size_t key_len) const {
    return FreeBytes() >= kEntrySize + key_len;
  }

  /// First index whose key is >= `key` (lower bound).
  int LowerBound(std::string_view key) const {
    int lo = 0, hi = count();
    while (lo < hi) {
      int mid = (lo + hi) / 2;
      if (Key(mid) < key) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  /// First index whose key is > `key` (upper bound).
  int UpperBound(std::string_view key) const {
    int lo = 0, hi = count();
    while (lo < hi) {
      int mid = (lo + hi) / 2;
      if (Key(mid) <= key) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  /// Inserts (key, val) at slot `i`, shifting later slots. Caller must
  /// ensure Fits(key.size()).
  void InsertAt(int i, std::string_view key, uint64_t val) {
    assert(Fits(key.size()));
    char* base = page_->data() + kHeaderSize;
    std::memmove(base + (i + 1) * kEntrySize, base + i * kEntrySize,
                 (count() - i) * kEntrySize);
    uint16_t new_end = static_cast<uint16_t>(free_end() - key.size());
    std::memcpy(page_->data() + new_end, key.data(), key.size());
    SetFreeEnd(new_end);
    WriteU16(kHeaderSize + i * kEntrySize, new_end);
    WriteU16(kHeaderSize + i * kEntrySize + 2, static_cast<uint16_t>(key.size()));
    std::memcpy(page_->data() + kHeaderSize + i * kEntrySize + 4, &val, 8);
    SetCount(static_cast<uint16_t>(count() + 1));
  }

  /// Removes slot `i`. Key bytes become garbage until Compact().
  void RemoveAt(int i) {
    char* base = page_->data() + kHeaderSize;
    std::memmove(base + i * kEntrySize, base + (i + 1) * kEntrySize,
                 (count() - i - 1) * kEntrySize);
    SetCount(static_cast<uint16_t>(count() - 1));
  }

  /// Rebuilds the key-bytes area, reclaiming dead space from removals.
  void Compact() {
    struct Entry {
      std::string key;
      uint64_t val;
    };
    std::vector<Entry> entries;
    entries.reserve(count());
    for (int i = 0; i < count(); ++i) {
      entries.push_back({std::string(Key(i)), Val(i)});
    }
    uint16_t end = static_cast<uint16_t>(page_->size());
    for (int i = 0; i < static_cast<int>(entries.size()); ++i) {
      end = static_cast<uint16_t>(end - entries[i].key.size());
      std::memcpy(page_->data() + end, entries[i].key.data(),
                  entries[i].key.size());
      WriteU16(kHeaderSize + i * kEntrySize, end);
      WriteU16(kHeaderSize + i * kEntrySize + 2,
               static_cast<uint16_t>(entries[i].key.size()));
      std::memcpy(page_->data() + kHeaderSize + i * kEntrySize + 4,
                  &entries[i].val, 8);
    }
    SetFreeEnd(end);
  }

 private:
  uint16_t ReadU16(uint32_t at) const {
    uint16_t v;
    std::memcpy(&v, page_->data() + at, 2);
    return v;
  }
  void WriteU16(uint32_t at, uint16_t v) {
    std::memcpy(page_->data() + at, &v, 2);
  }

  Page* page_;
};

}  // namespace

void AppendRidSuffix(const Rid& rid, std::string* key) {
  uint32_t pid = static_cast<uint32_t>(rid.page_id);
  for (int shift = 24; shift >= 0; shift -= 8) {
    key->push_back(static_cast<char>((pid >> shift) & 0xFF));
  }
  key->push_back(static_cast<char>((rid.slot >> 8) & 0xFF));
  key->push_back(static_cast<char>(rid.slot & 0xFF));
}

namespace {
constexpr size_t kRidSuffixLen = 6;
}  // namespace

BTree::BTree(BufferPool* pool) : pool_(pool) {
  Page* page = pool_->NewPage(PageType::kIndex);
  NodeView node(page);
  node.Init(/*is_leaf=*/true);
  root_ = page->id();
  all_pages_.push_back(root_);
  pool_->UnpinPage(root_, true);
}

BTree::BTree(BufferPool* pool, PageId root) : pool_(pool), root_(root) {
  all_pages_.push_back(root);
}

Status BTree::RebuildFromRoot() {
  all_pages_.clear();
  entries_ = 0;
  std::vector<PageId> frontier{root_};
  while (!frontier.empty()) {
    PageId pid = frontier.back();
    frontier.pop_back();
    all_pages_.push_back(pid);
    MTDB_ASSIGN_OR_RETURN(Page * page, pool_->FetchPage(pid));
    NodeView node(page);
    if (node.is_leaf()) {
      entries_ += node.count();
    } else {
      // Children: leftmost via link(), then one per separator value.
      frontier.push_back(node.link());
      for (int i = 0; i < node.count(); ++i) {
        frontier.push_back(static_cast<PageId>(node.Val(i)));
      }
    }
    pool_->UnpinPage(pid, false);
  }
  return Status::OK();
}

Result<PageId> BTree::FindLeaf(std::string_view key,
                               std::vector<std::pair<PageId, int>>* path,
                               Page** pinned_leaf) {
  PageId current = root_;
  while (true) {
    MTDB_RETURN_IF_ERROR(deadline::Check());
    MTDB_ASSIGN_OR_RETURN(Page * page, pool_->FetchPage(current));
    NodeView node(page);
    if (node.is_leaf()) {
      if (pinned_leaf != nullptr) {
        *pinned_leaf = page;
      } else {
        pool_->UnpinPage(current, false);
      }
      return current;
    }
    // Internal: child index = number of separator keys <= key.
    int idx = node.UpperBound(key);
    PageId child =
        idx == 0 ? node.link() : static_cast<PageId>(node.Val(idx - 1));
    if (path != nullptr) path->push_back({current, idx});
    pool_->UnpinPage(current, false);
    current = child;
  }
}

Status BTree::Insert(std::string_view key, const Rid& rid) {
  std::string full(key);
  AppendRidSuffix(rid, &full);
  if (full.size() > 1500) {
    return Status::OutOfRange("index key too long: " +
                              std::to_string(full.size()));
  }
  std::vector<std::pair<PageId, int>> path;
  Page* page = nullptr;
  MTDB_ASSIGN_OR_RETURN(PageId leaf_id, FindLeaf(full, &path, &page));
  pool_->WillWrite(page);
  NodeView node(page);
  if (!node.Fits(full.size())) {
    node.Compact();
  }
  int pos = node.LowerBound(full);
  if (node.Fits(full.size())) {
    node.InsertAt(pos, full, PackRid(rid));
    pool_->UnpinPage(leaf_id, true);
    entries_++;
    modifications_++;
    return Status::OK();
  }
  bool append = pos == node.count();
  pool_->UnpinPage(leaf_id, true);
  MTDB_RETURN_IF_ERROR(SplitAndPropagate(path, leaf_id, append));
  // Retry; the tree has grown so re-descend.
  return Insert(key, rid);
}

Status BTree::SplitAndPropagate(std::vector<std::pair<PageId, int>>& path,
                                PageId left_id, bool append) {
  // Pin phase: acquire every page this split will modify before mutating
  // any of them, so an I/O fault aborts with the tree untouched.
  MTDB_ASSIGN_OR_RETURN(Page * left_page, pool_->FetchPage(left_id));
  NodeView left(left_page);
  bool leaf = left.is_leaf();
  int total = left.count();
  // An append moves only the last key right, so an ascending load leaves
  // each left leaf full instead of half full.
  int split_at = leaf && append ? total - 1 : total / 2;
  std::string separator(left.Key(split_at));

  Page* parent_page = nullptr;
  PageId parent_id = kInvalidPageId;
  if (!path.empty()) {
    parent_id = path.back().first;
    path.pop_back();
    auto fetched = pool_->FetchPage(parent_id);
    if (!fetched.ok()) {
      pool_->UnpinPage(left_id, false);
      return fetched.status();
    }
    parent_page = *fetched;
    pool_->WillWrite(parent_page);
    NodeView parent(parent_page);
    if (!parent.Fits(separator.size())) parent.Compact();
    if (!parent.Fits(separator.size())) {
      // Parent is full. Split it first — atomically, by induction — then
      // re-descend to find left's (possibly new) parent and retry this
      // split from scratch; left has not been touched yet.
      pool_->UnpinPage(parent_id, true);  // Compact re-laid it out
      pool_->UnpinPage(left_id, false);
      MTDB_RETURN_IF_ERROR(
          SplitAndPropagate(path, parent_id, /*append=*/false));
      std::vector<std::pair<PageId, int>> new_path;
      MTDB_ASSIGN_OR_RETURN(PageId reached, FindLeaf(separator, &new_path));
      (void)reached;
      if (!leaf) {
        // The descent ran through `left` itself; keep only its ancestors.
        std::vector<std::pair<PageId, int>> ancestors;
        for (auto& step : new_path) {
          if (step.first == left_id) break;
          ancestors.push_back(step);
        }
        new_path = std::move(ancestors);
      }
      return SplitAndPropagate(new_path, left_id, append);
    }
  }

  // Mutation phase: every page is pinned and NewPage cannot fail, so no
  // error path exits between here and return.
  modifications_++;
  pool_->WillWrite(left_page);
  Page* right_page = pool_->NewPage(PageType::kIndex);
  NodeView right(right_page);
  right.Init(leaf);
  all_pages_.push_back(right_page->id());

  if (leaf) {
    for (int i = split_at; i < total; ++i) {
      right.InsertAt(i - split_at, left.Key(i), left.Val(i));
    }
    for (int i = total - 1; i >= split_at; --i) {
      left.RemoveAt(i);
    }
    right.SetLink(left.link());
    left.SetLink(right_page->id());
  } else {
    // The middle key moves up; its child becomes right's leftmost.
    right.SetLink(static_cast<PageId>(left.Val(split_at)));
    for (int i = split_at + 1; i < total; ++i) {
      right.InsertAt(i - split_at - 1, left.Key(i), left.Val(i));
    }
    for (int i = total - 1; i >= split_at; --i) {
      left.RemoveAt(i);
    }
  }
  left.Compact();
  PageId right_id = right_page->id();
  pool_->UnpinPage(right_id, true);
  pool_->UnpinPage(left_id, true);

  if (parent_page == nullptr) {
    // Splitting the root: grow a new root.
    Page* new_root = pool_->NewPage(PageType::kIndex);
    NodeView root(new_root);
    root.Init(/*is_leaf=*/false);
    root.SetLink(left_id);
    root.InsertAt(0, separator, static_cast<uint64_t>(right_id));
    root_ = new_root->id();
    all_pages_.push_back(root_);
    pool_->UnpinPage(root_, true);
    return Status::OK();
  }

  NodeView parent(parent_page);
  int pos = parent.LowerBound(separator);
  parent.InsertAt(pos, separator, static_cast<uint64_t>(right_id));
  pool_->UnpinPage(parent_id, true);
  return Status::OK();
}

Status BTree::Delete(std::string_view key, const Rid& rid) {
  std::string full(key);
  AppendRidSuffix(rid, &full);
  Page* page = nullptr;
  MTDB_ASSIGN_OR_RETURN(PageId leaf_id, FindLeaf(full, nullptr, &page));
  NodeView node(page);
  int pos = node.LowerBound(full);
  if (pos < node.count() && node.Key(pos) == full) {
    pool_->WillWrite(page);
    node.RemoveAt(pos);
    pool_->UnpinPage(leaf_id, true);
    entries_--;
    modifications_++;
    return Status::OK();
  }
  pool_->UnpinPage(leaf_id, false);
  return Status::NotFound("key not in index");
}

Result<bool> BTree::Contains(std::string_view key) {
  std::string hi(key);
  hi.push_back('\xFF');
  MTDB_ASSIGN_OR_RETURN(Iterator it, Scan(key, hi));
  Rid rid;
  std::string found;
  while (true) {
    MTDB_ASSIGN_OR_RETURN(bool more, it.Next(&rid, &found));
    if (!more) break;
    if (found.size() == key.size() + kRidSuffixLen &&
        std::string_view(found).substr(0, key.size()) == key) {
      return true;
    }
  }
  return false;
}

Result<std::vector<Rid>> BTree::Lookup(std::string_view key) {
  std::vector<Rid> out;
  std::string hi(key);
  hi.push_back('\xFF');
  MTDB_ASSIGN_OR_RETURN(Iterator it, Scan(key, hi));
  Rid rid;
  std::string found;
  while (true) {
    MTDB_ASSIGN_OR_RETURN(bool more, it.Next(&rid, &found));
    if (!more) break;
    if (found.size() == key.size() + kRidSuffixLen &&
        std::string_view(found).substr(0, key.size()) == key) {
      out.push_back(rid);
    }
  }
  return out;
}

Result<BTree::Iterator> BTree::Scan(std::string_view lo,
                                    std::string_view hi) {
  Iterator it(this, lo, hi);
  MTDB_RETURN_IF_ERROR(it.Seek());
  return it;
}

Status BTree::Iterator::Seek() {
  Page* page = nullptr;
  MTDB_ASSIGN_OR_RETURN(PageId leaf, tree_->FindLeaf(resume_, nullptr, &page));
  NodeView node(page);
  Fill(leaf, page,
       resume_inclusive_ ? node.LowerBound(resume_) : node.UpperBound(resume_));
  return Status::OK();
}

void BTree::Iterator::Fill(PageId leaf, Page* page, int pos) {
  NodeView node(page);
  keys_.clear();
  batch_.clear();
  pos_ = 0;
  next_leaf_ = node.link();
  for (int i = pos; i < node.count(); ++i) {
    std::string_view k = node.Key(i);
    if (!hi_.empty() && k >= hi_) {
      next_leaf_ = kInvalidPageId;
      break;
    }
    keys_.append(k);
    batch_.push_back({static_cast<uint32_t>(keys_.size()), UnpackRid(node.Val(i))});
  }
  modifications_ = tree_->modifications_;
  tree_->pool_->UnpinPage(leaf, false);
}

std::string_view BTree::Iterator::KeyAt(size_t i) const {
  uint32_t begin = i == 0 ? 0 : batch_[i - 1].key_end;
  return std::string_view(keys_).substr(begin, batch_[i].key_end - begin);
}

Result<bool> BTree::Iterator::Next(Rid* rid, std::string* key) {
  while (!done_) {
    if (modifications_ != tree_->modifications_) {
      // The copy may be stale: resume after the last key returned.
      if (pos_ > 0) {
        resume_.assign(KeyAt(pos_ - 1));
        resume_inclusive_ = false;
      }
      MTDB_RETURN_IF_ERROR(Seek());
      continue;
    }
    if (pos_ < batch_.size()) {
      *rid = batch_[pos_].rid;
      if (key != nullptr) key->assign(KeyAt(pos_));
      pos_++;
      return true;
    }
    if (next_leaf_ == kInvalidPageId) break;
    if (!batch_.empty()) {
      resume_.assign(KeyAt(batch_.size() - 1));
      resume_inclusive_ = false;
    }
    MTDB_RETURN_IF_ERROR(deadline::Check());
    PageId leaf = next_leaf_;
    MTDB_ASSIGN_OR_RETURN(Page * page, tree_->pool_->FetchPage(leaf));
    Fill(leaf, page, 0);
  }
  done_ = true;
  return false;
}

void BTree::Free() {
  for (PageId pid : all_pages_) {
    pool_->DeletePage(pid);
  }
  all_pages_.clear();
  root_ = kInvalidPageId;
  entries_ = 0;
  modifications_++;
}

Result<int> BTree::Height() {
  int height = 1;
  PageId current = root_;
  while (true) {
    MTDB_ASSIGN_OR_RETURN(Page * page, pool_->FetchPage(current));
    NodeView node(page);
    if (node.is_leaf()) {
      pool_->UnpinPage(current, false);
      return height;
    }
    PageId child = node.link();
    pool_->UnpinPage(current, false);
    current = child;
    height++;
  }
}

}  // namespace mtdb
