#include "catalog/catalog.h"

#include <algorithm>
#include <mutex>

#include "common/byte_codec.h"
#include "common/key_encoding.h"

namespace mtdb {

namespace {

// Lockdep order keys for the kTableIndex latch family. The engine's
// canonical acquisition order is tables ascending by TableId, and within
// a table the heap before its indexes in creation (ascending IndexId)
// order; these keys make the validator check exactly that.
uint64_t HeapOrderKey(TableId table) {
  return static_cast<uint64_t>(table) * 1'000'000;
}
uint64_t IndexOrderKey(TableId table, IndexId index) {
  return static_cast<uint64_t>(table) * 1'000'000 +
         static_cast<uint64_t>(index);
}

}  // namespace

bool IndexInfo::KeyHasNull(const Row& row) const {
  return std::any_of(key_columns.begin(), key_columns.end(),
                     [&](size_t c) { return row[c].is_null(); });
}

const IndexInfo* TableInfo::FindIndexOnPrefix(
    const std::vector<size_t>& cols) const {
  for (const auto& idx : indexes) {
    if (idx->key_columns.size() >= cols.size() &&
        std::equal(cols.begin(), cols.end(), idx->key_columns.begin())) {
      return idx.get();
    }
  }
  return nullptr;
}

Catalog::Catalog(BufferPool* pool, uint64_t memory_budget_bytes,
                 MetadataCosts costs)
    : pool_(pool), memory_budget_(memory_budget_bytes), costs_(costs) {
  pool_->SetCapacity(BufferFramesLocked());
}

size_t Catalog::BufferFramesLocked() const {
  uint64_t page_size = pool_->store()->page_size();
  if (metadata_bytes_ >= memory_budget_) return 1;
  uint64_t left = memory_budget_ - metadata_bytes_;
  size_t frames = static_cast<size_t>(left / page_size);
  return frames < 1 ? 1 : frames;
}

size_t Catalog::BufferFrames() const {
  std::shared_lock<SharedLatch> lock(mu_);
  return BufferFramesLocked();
}

uint64_t Catalog::metadata_bytes() const {
  std::shared_lock<SharedLatch> lock(mu_);
  return metadata_bytes_;
}

void Catalog::Recharge(int64_t delta_bytes) {
  if (delta_bytes < 0 && metadata_bytes_ < static_cast<uint64_t>(-delta_bytes)) {
    metadata_bytes_ = 0;
  } else {
    metadata_bytes_ = static_cast<uint64_t>(
        static_cast<int64_t>(metadata_bytes_) + delta_bytes);
  }
  pool_->SetCapacity(BufferFramesLocked());
}

Result<TableInfo*> Catalog::CreateTable(const std::string& name,
                                        Schema schema) {
  std::unique_lock<SharedLatch> lock(mu_);
  std::string key = IdentLower(name);
  if (tables_.count(key) != 0) {
    return Status::AlreadyExists("table exists: " + name);
  }
  if (schema.size() == 0) {
    return Status::InvalidArgument("table must have at least one column");
  }
  auto info = std::make_unique<TableInfo>();
  info->id = next_table_id_++;
  info->name = name;
  info->schema = std::move(schema);
  info->codec = std::make_unique<RowCodec>(info->schema.Types());
  info->heap = std::make_unique<TableHeap>(pool_);
  info->heap->latch().SetOrderKey(HeapOrderKey(info->id));
  TableInfo* raw = info.get();
  tables_.emplace(key, std::move(info));
  Recharge(static_cast<int64_t>(costs_.bytes_per_table +
                                costs_.bytes_per_column * raw->schema.size()));
  return raw;
}

Status Catalog::DropTable(const std::string& name) {
  std::unique_lock<SharedLatch> lock(mu_);
  std::string key = IdentLower(name);
  auto it = tables_.find(key);
  if (it == tables_.end()) {
    return Status::NotFound("no such table: " + name);
  }
  TableInfo* info = it->second.get();
  int64_t credit = static_cast<int64_t>(
      costs_.bytes_per_table + costs_.bytes_per_column * info->schema.size() +
      costs_.bytes_per_index * info->indexes.size());
  for (auto& idx : info->indexes) {
    index_to_table_.erase(IdentLower(idx->name));
    idx->tree->Free();
  }
  info->heap->Free();
  tables_.erase(it);
  Recharge(-credit);
  return Status::OK();
}

Result<IndexInfo*> Catalog::CreateIndex(
    const std::string& table, const std::string& index_name,
    const std::vector<std::string>& column_names, bool unique) {
  std::unique_lock<SharedLatch> lock(mu_);
  TableInfo* info = FindTableLocked(table);
  if (info == nullptr) return Status::NotFound("no such table: " + table);
  std::string ikey = IdentLower(index_name);
  if (index_to_table_.count(ikey) != 0) {
    return Status::AlreadyExists("index exists: " + index_name);
  }
  std::vector<size_t> cols;
  for (const std::string& cname : column_names) {
    auto pos = info->schema.Find(cname);
    if (!pos.has_value()) {
      return Status::NotFound("no column " + cname + " in " + table);
    }
    cols.push_back(*pos);
  }
  auto idx = std::make_unique<IndexInfo>();
  idx->id = next_index_id_++;
  idx->name = index_name;
  idx->key_columns = std::move(cols);
  idx->unique = unique;
  idx->tree = std::make_unique<BTree>(pool_);
  idx->tree->latch().SetOrderKey(IndexOrderKey(info->id, idx->id));

  // Backfill from existing rows. Any failure frees the half-built tree
  // so the catalog is left exactly as before the statement.
  TableHeap::Iterator it = info->heap->Begin();
  std::string image;
  Rid rid;
  while (true) {
    Result<bool> more = it.Next(&image, &rid);
    if (!more.ok()) {
      idx->tree->Free();
      return more.status();
    }
    if (!*more) break;
    Result<Row> row = info->codec->Decode(image.data(),
                                          static_cast<uint32_t>(image.size()));
    if (!row.ok()) {
      idx->tree->Free();
      return row.status();
    }
    std::vector<Value> key_vals;
    for (size_t c : idx->key_columns) key_vals.push_back((*row)[c]);
    std::string key = KeyEncoder::EncodeKey(key_vals);
    if (idx->unique && !idx->KeyHasNull(*row)) {
      Result<bool> dup = idx->tree->Contains(key);
      if (!dup.ok()) {
        idx->tree->Free();
        return dup.status();
      }
      if (*dup) {
        idx->tree->Free();
        return Status::ConstraintViolation(
            "duplicate key building unique index " + index_name);
      }
    }
    Status ist = idx->tree->Insert(key, rid);
    if (!ist.ok()) {
      idx->tree->Free();
      return ist;
    }
  }

  IndexInfo* raw = idx.get();
  info->indexes.push_back(std::move(idx));
  index_to_table_.emplace(ikey, info->id);
  Recharge(static_cast<int64_t>(costs_.bytes_per_index));
  return raw;
}

Status Catalog::DropIndex(const std::string& index_name) {
  std::unique_lock<SharedLatch> lock(mu_);
  std::string ikey = IdentLower(index_name);
  auto it = index_to_table_.find(ikey);
  if (it == index_to_table_.end()) {
    return Status::NotFound("no such index: " + index_name);
  }
  TableInfo* info = FindTableLocked(it->second);
  index_to_table_.erase(it);
  for (auto iit = info->indexes.begin(); iit != info->indexes.end(); ++iit) {
    if (IdentEquals((*iit)->name, index_name)) {
      (*iit)->tree->Free();
      info->indexes.erase(iit);
      Recharge(-static_cast<int64_t>(costs_.bytes_per_index));
      return Status::OK();
    }
  }
  return Status::Internal("index map out of sync");
}

TableInfo* Catalog::FindTableLocked(const std::string& name) const {
  auto it = tables_.find(IdentLower(name));
  return it == tables_.end() ? nullptr : it->second.get();
}

TableInfo* Catalog::FindTableLocked(TableId id) const {
  for (const auto& [_, info] : tables_) {
    if (info->id == id) return info.get();
  }
  return nullptr;
}

TableInfo* Catalog::GetTable(const std::string& name) {
  std::shared_lock<SharedLatch> lock(mu_);
  return FindTableLocked(name);
}

const TableInfo* Catalog::GetTable(const std::string& name) const {
  std::shared_lock<SharedLatch> lock(mu_);
  return FindTableLocked(name);
}

TableInfo* Catalog::GetTable(TableId id) {
  std::shared_lock<SharedLatch> lock(mu_);
  return FindTableLocked(id);
}

size_t Catalog::table_count() const {
  std::shared_lock<SharedLatch> lock(mu_);
  return tables_.size();
}

size_t Catalog::index_count() const {
  std::shared_lock<SharedLatch> lock(mu_);
  return index_to_table_.size();
}

std::string Catalog::Snapshot() const {
  std::shared_lock<SharedLatch> lock(mu_);
  std::vector<const TableInfo*> tables;
  tables.reserve(tables_.size());
  for (const auto& [_, info] : tables_) tables.push_back(info.get());
  // Sort by id so equal catalogs encode to equal blobs regardless of
  // hash-map iteration order.
  std::sort(tables.begin(), tables.end(),
            [](const TableInfo* a, const TableInfo* b) { return a->id < b->id; });
  std::string blob;
  PutI32(&blob, next_table_id_);
  PutI32(&blob, next_index_id_);
  PutU32(&blob, static_cast<uint32_t>(tables.size()));
  for (const TableInfo* info : tables) {
    PutI32(&blob, info->id);
    PutBytes(&blob, info->name);
    PutU32(&blob, static_cast<uint32_t>(info->schema.size()));
    for (const Column& col : info->schema.columns()) {
      PutBytes(&blob, col.name);
      blob.push_back(static_cast<char>(col.type));
      blob.push_back(col.not_null ? 1 : 0);
    }
    PutI32(&blob, info->heap->first_page());
    PutU32(&blob, static_cast<uint32_t>(info->indexes.size()));
    for (const auto& idx : info->indexes) {
      PutI32(&blob, idx->id);
      PutBytes(&blob, idx->name);
      blob.push_back(idx->unique ? 1 : 0);
      PutI32(&blob, idx->tree->root());
      PutU32(&blob, static_cast<uint32_t>(idx->key_columns.size()));
      for (size_t c : idx->key_columns) {
        PutU32(&blob, static_cast<uint32_t>(c));
      }
    }
  }
  return blob;
}

Status Catalog::Restore(
    const std::string& blob,
    const std::unordered_map<TableId, TableOverride>& overrides) {
  std::unique_lock<SharedLatch> lock(mu_);
  // The store was rebuilt by recovery; the stale TableInfos must not
  // Free() pages that now belong to the recovered objects.
  tables_.clear();
  index_to_table_.clear();
  metadata_bytes_ = 0;
  next_table_id_ = 1;
  next_index_id_ = 1;
  if (blob.empty()) {
    Recharge(0);
    return Status::OK();
  }

  Status bad = Status::DataLoss("catalog snapshot malformed");
  ByteCursor cur(blob.data(), blob.size());
  uint32_t table_count = 0;
  if (!cur.I32(&next_table_id_) || !cur.I32(&next_index_id_) ||
      !cur.U32(&table_count)) {
    return bad;
  }
  int64_t charge = 0;
  for (uint32_t t = 0; t < table_count; t++) {
    auto info = std::make_unique<TableInfo>();
    uint32_t column_count = 0;
    if (!cur.I32(&info->id) || !cur.Bytes(&info->name) ||
        !cur.U32(&column_count)) {
      return bad;
    }
    Schema schema;
    for (uint32_t c = 0; c < column_count; c++) {
      Column col;
      uint8_t type = 0, not_null = 0;
      if (!cur.Bytes(&col.name) || !cur.U8(&type) || !cur.U8(&not_null)) {
        return bad;
      }
      col.type = static_cast<TypeId>(type);
      col.not_null = not_null != 0;
      schema.AddColumn(std::move(col));
    }
    info->schema = std::move(schema);
    info->codec = std::make_unique<RowCodec>(info->schema.Types());
    PageId first_page = kInvalidPageId;
    uint32_t index_count = 0;
    if (!cur.I32(&first_page) || !cur.U32(&index_count)) return bad;

    const TableOverride* over = nullptr;
    auto oit = overrides.find(info->id);
    if (oit != overrides.end()) {
      over = &oit->second;
      first_page = over->first_page;
    }
    info->heap = std::make_unique<TableHeap>(pool_);
    info->heap->latch().SetOrderKey(HeapOrderKey(info->id));
    MTDB_RETURN_IF_ERROR(info->heap->AttachChain(first_page));

    for (uint32_t i = 0; i < index_count; i++) {
      auto idx = std::make_unique<IndexInfo>();
      uint8_t unique = 0;
      PageId root = kInvalidPageId;
      uint32_t key_count = 0;
      if (!cur.I32(&idx->id) || !cur.Bytes(&idx->name) || !cur.U8(&unique) ||
          !cur.I32(&root) || !cur.U32(&key_count)) {
        return bad;
      }
      idx->unique = unique != 0;
      for (uint32_t k = 0; k < key_count; k++) {
        uint32_t col = 0;
        if (!cur.U32(&col)) return bad;
        idx->key_columns.push_back(col);
      }
      if (over != nullptr) {
        for (const auto& [iid, moved_root] : over->index_roots) {
          if (iid == idx->id) root = moved_root;
        }
      }
      idx->tree = std::make_unique<BTree>(pool_, root);
      idx->tree->latch().SetOrderKey(IndexOrderKey(info->id, idx->id));
      MTDB_RETURN_IF_ERROR(idx->tree->RebuildFromRoot());
      index_to_table_.emplace(IdentLower(idx->name), info->id);
      info->indexes.push_back(std::move(idx));
    }

    charge += static_cast<int64_t>(
        costs_.bytes_per_table + costs_.bytes_per_column * info->schema.size() +
        costs_.bytes_per_index * info->indexes.size());
    tables_.emplace(IdentLower(info->name), std::move(info));
  }
  if (!cur.AtEnd()) return bad;
  Recharge(charge);
  return Status::OK();
}

std::vector<std::string> Catalog::TableNames() const {
  std::shared_lock<SharedLatch> lock(mu_);
  std::vector<std::string> out;
  out.reserve(tables_.size());
  for (const auto& [_, info] : tables_) out.push_back(info->name);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace mtdb
