#include "storage/table_heap.h"

#include <cassert>

namespace mtdb {

TableHeap::TableHeap(BufferPool* pool, InsertMode mode)
    : pool_(pool), insert_mode_(mode) {}

Result<Page*> TableHeap::PickPageForInsert(uint32_t need) {
  if (insert_mode_ == InsertMode::kFirstFit) {
    for (auto& [pid, free] : free_space_) {
      if (free >= need + 8) {  // 8: slack for the slot entry
        MTDB_ASSIGN_OR_RETURN(Page * page, pool_->FetchPage(pid));
        SlottedPage sp(page);
        // Insert() compacts on demand, so potential space is insertable.
        if (sp.PotentialFreeSpace() >= need) return page;
        free_space_[pid] = sp.PotentialFreeSpace();
        pool_->UnpinPage(pid, false);
      }
    }
  } else if (!pages_.empty()) {
    MTDB_ASSIGN_OR_RETURN(Page * page, pool_->FetchPage(pages_.back()));
    SlottedPage sp(page);
    if (sp.FreeSpace() >= need) return page;
    pool_->UnpinPage(pages_.back(), false);
  }
  // Allocate a fresh page and chain it.
  Page* page = pool_->NewPage(PageType::kHeap);
  SlottedPage sp(page);
  sp.Init(kInvalidPageId);
  if (first_page_ == kInvalidPageId) {
    first_page_ = page->id();
  } else {
    PageId prev = pages_.back();
    auto prev_page = pool_->FetchPage(prev);
    if (!prev_page.ok()) {
      // Unchain the fresh page again so a failed chain-link leaves the
      // heap exactly as it was.
      pool_->UnpinPage(page->id(), false);
      pool_->DeletePage(page->id());
      return prev_page.status();
    }
    pool_->WillWrite(*prev_page);
    SlottedPage(*prev_page).set_next_page(page->id());
    pool_->UnpinPage(prev, true);
  }
  pages_.push_back(page->id());
  free_space_[page->id()] = sp.PotentialFreeSpace();
  return page;
}

Result<Rid> TableHeap::Insert(const std::string& tuple) {
  const uint32_t page_payload = pool_->store()->page_size() - 64;
  if (tuple.size() > page_payload) {
    return Status::OutOfRange("tuple larger than a page: " +
                              std::to_string(tuple.size()));
  }
  MTDB_ASSIGN_OR_RETURN(
      Page * page, PickPageForInsert(static_cast<uint32_t>(tuple.size())));
  SlottedPage sp(page);
  pool_->WillWrite(page);
  int slot = sp.Insert(tuple.data(), static_cast<uint32_t>(tuple.size()));
  assert(slot >= 0);
  free_space_[page->id()] = sp.PotentialFreeSpace();
  Rid rid{page->id(), static_cast<uint16_t>(slot)};
  pool_->UnpinPage(page->id(), true);
  live_tuples_++;
  return rid;
}

Status TableHeap::Get(const Rid& rid, std::string* out) {
  MTDB_ASSIGN_OR_RETURN(Page * page, pool_->FetchPage(rid.page_id));
  SlottedPage sp(page);
  uint32_t len = 0;
  const char* data = sp.Get(rid.slot, &len);
  if (data == nullptr) {
    pool_->UnpinPage(rid.page_id, false);
    return Status::NotFound("no tuple at rid");
  }
  out->assign(data, len);
  pool_->UnpinPage(rid.page_id, false);
  return Status::OK();
}

Status TableHeap::Update(Rid* rid, const std::string& tuple, bool* moved) {
  if (moved != nullptr) *moved = false;
  MTDB_ASSIGN_OR_RETURN(Page * page, pool_->FetchPage(rid->page_id));
  SlottedPage sp(page);
  pool_->WillWrite(page);
  if (sp.Update(rid->slot, tuple.data(), static_cast<uint32_t>(tuple.size()))) {
    free_space_[page->id()] = sp.PotentialFreeSpace();
    pool_->UnpinPage(rid->page_id, true);
    return Status::OK();
  }
  // Does not fit in place: insert the new image elsewhere FIRST, then
  // drop the old slot. The old page stays pinned across the insert, so
  // the final delete is a pure in-memory edit that cannot fail — a
  // failed insert therefore leaves the original row fully intact.
  uint32_t len = 0;
  if (sp.Get(rid->slot, &len) == nullptr) {
    pool_->UnpinPage(rid->page_id, false);
    return Status::NotFound("no tuple at rid");
  }
  auto inserted = Insert(tuple);
  if (!inserted.ok()) {
    // The failed in-place attempt may have compacted the page: the row is
    // intact, but the bytes moved, so the page is logged like any change.
    pool_->UnpinPage(rid->page_id, true);
    return inserted.status();
  }
  sp.Delete(rid->slot);
  free_space_[rid->page_id] = sp.PotentialFreeSpace();
  pool_->UnpinPage(rid->page_id, true);
  live_tuples_--;  // Insert() counted the new copy
  *rid = *inserted;
  if (moved != nullptr) *moved = true;
  return Status::OK();
}

Status TableHeap::Delete(const Rid& rid) {
  MTDB_ASSIGN_OR_RETURN(Page * page, pool_->FetchPage(rid.page_id));
  SlottedPage sp(page);
  pool_->WillWrite(page);
  if (!sp.Delete(rid.slot)) {
    pool_->UnpinPage(rid.page_id, false);
    return Status::NotFound("no tuple at rid");
  }
  free_space_[page->id()] = sp.PotentialFreeSpace();
  pool_->UnpinPage(rid.page_id, true);
  live_tuples_--;
  return Status::OK();
}

Status TableHeap::AttachChain(PageId first_page) {
  pages_.clear();
  free_space_.clear();
  live_tuples_ = 0;
  first_page_ = first_page;
  PageId pid = first_page;
  while (pid != kInvalidPageId) {
    MTDB_ASSIGN_OR_RETURN(Page * page, pool_->FetchPage(pid));
    SlottedPage sp(page);
    pages_.push_back(pid);
    free_space_[pid] = sp.PotentialFreeSpace();
    live_tuples_ += sp.LiveCount();
    PageId next = sp.next_page();
    pool_->UnpinPage(pid, false);
    pid = next;
  }
  return Status::OK();
}

void TableHeap::Free() {
  for (PageId pid : pages_) {
    pool_->DeletePage(pid);
  }
  pages_.clear();
  free_space_.clear();
  first_page_ = kInvalidPageId;
  live_tuples_ = 0;
}

TableHeap::Iterator::Iterator(TableHeap* heap, size_t page_index)
    : heap_(heap), page_index_(page_index) {}

Result<bool> TableHeap::Iterator::Next(std::string* tuple, Rid* rid) {
  while (page_index_ < heap_->pages_.size()) {
    PageId pid = heap_->pages_[page_index_];
    MTDB_ASSIGN_OR_RETURN(Page * page, heap_->pool_->FetchPage(pid));
    SlottedPage sp(page);
    while (slot_ < sp.slot_count()) {
      uint32_t len = 0;
      const char* data = sp.Get(slot_, &len);
      uint16_t this_slot = slot_;
      slot_++;
      if (data != nullptr) {
        tuple->assign(data, len);
        *rid = Rid{pid, this_slot};
        heap_->pool_->UnpinPage(pid, false);
        return true;
      }
    }
    heap_->pool_->UnpinPage(pid, false);
    page_index_++;
    slot_ = 0;
  }
  return false;
}

}  // namespace mtdb
