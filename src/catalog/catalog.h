#ifndef MTDB_CATALOG_CATALOG_H_
#define MTDB_CATALOG_CATALOG_H_

#include <memory>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "catalog/schema.h"
#include "common/latch.h"
#include "common/result.h"
#include "index/btree.h"
#include "storage/row_codec.h"
#include "storage/table_heap.h"

namespace mtdb {

/// Per-object meta-data charges against the engine memory budget,
/// mirroring "IBM DB2 V9.1 allocates 4 KB of memory for each table, so
/// 100,000 tables consume 400 MB of memory up front" (§1.1).
struct MetadataCosts {
  uint64_t bytes_per_table = 4096;
  uint64_t bytes_per_column = 64;
  uint64_t bytes_per_index = 1024;
};

/// A secondary (or primary) index definition plus its B+Tree.
struct IndexInfo {
  IndexId id = -1;
  std::string name;
  std::vector<size_t> key_columns;  // positions in the table schema
  bool unique = false;
  std::unique_ptr<BTree> tree;

  /// Whether `row`'s key here has a NULL part. Such a key never conflicts
  /// in a unique index, as NULL equals no value, not even NULL; every
  /// unique check (insert, update, index build) applies this one rule.
  bool KeyHasNull(const Row& row) const;
};

/// A physical table: schema + heap + indexes + row codec.
struct TableInfo {
  TableId id = -1;
  std::string name;
  Schema schema;
  std::unique_ptr<RowCodec> codec;
  std::unique_ptr<TableHeap> heap;
  std::vector<std::unique_ptr<IndexInfo>> indexes;

  /// Finds an index whose key columns start with exactly `cols` (used by
  /// the planner for index selection).
  const IndexInfo* FindIndexOnPrefix(const std::vector<size_t>& cols) const;
};

/// The system catalog. Creating/dropping tables and indexes charges/
/// releases meta-data bytes against the shared memory budget and resizes
/// the buffer pool accordingly — the mechanism behind §5's scalability
/// limit ("the fundamental limitation ... is the number of tables the
/// database can handle, which is itself dependent on the amount of
/// available memory").
///
/// Thread-safety: lookups take an internal shared_mutex in shared mode,
/// so concurrent sessions resolve tables without contending; mutators
/// (CreateTable/DropTable/CreateIndex/DropIndex) take it exclusively.
/// The returned TableInfo* stays valid only while no DDL drops it — the
/// engine guarantees that by excluding DDL for the duration of every
/// statement (Database::ddl latch), so sessions may cache the pointer
/// for one statement but never across statements.
class Catalog {
 public:
  Catalog(BufferPool* pool, uint64_t memory_budget_bytes,
          MetadataCosts costs = MetadataCosts());

  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  Result<TableInfo*> CreateTable(const std::string& name, Schema schema);
  Status DropTable(const std::string& name);

  /// Creates a B+Tree index over `column_names` of `table`.
  Result<IndexInfo*> CreateIndex(const std::string& table,
                                 const std::string& index_name,
                                 const std::vector<std::string>& column_names,
                                 bool unique);
  Status DropIndex(const std::string& index_name);

  TableInfo* GetTable(const std::string& name);
  const TableInfo* GetTable(const std::string& name) const;
  TableInfo* GetTable(TableId id);

  size_t table_count() const;
  size_t index_count() const;
  std::vector<std::string> TableNames() const;

  uint64_t metadata_bytes() const;
  uint64_t memory_budget_bytes() const { return memory_budget_; }
  /// Buffer-pool frames left after the meta-data charge.
  size_t BufferFrames() const;

  /// Serializes every table/index definition plus its physical anchors
  /// (heap first page, index roots) into a deterministic blob. Logged by
  /// DDL group records and by checkpoints; the blob carries no page
  /// contents — those are the store's.
  std::string Snapshot() const;

  /// Physical locations that moved after the snapshot was taken (a heap
  /// grew its first page, a root split); recovery derives these from the
  /// per-table meta of replayed DML groups.
  struct TableOverride {
    PageId first_page = kInvalidPageId;
    std::vector<std::pair<IndexId, PageId>> index_roots;
  };

  /// Rebuilds the catalog from a Snapshot blob against an already-
  /// recovered page store: heaps re-walk their page chains, B-trees
  /// re-walk from their roots. Everything previously registered is
  /// discarded without freeing pages (the store was reset by recovery).
  /// An empty blob restores the empty catalog.
  Status Restore(const std::string& blob,
                 const std::unordered_map<TableId, TableOverride>& overrides);

 private:
  // Unlocked internals; callers hold mu_ (shared or exclusive as noted).
  TableInfo* FindTableLocked(const std::string& name) const;
  TableInfo* FindTableLocked(TableId id) const;
  size_t BufferFramesLocked() const;
  void Recharge(int64_t delta_bytes);  // caller holds mu_ exclusively

  BufferPool* pool_;
  uint64_t memory_budget_;
  MetadataCosts costs_;
  uint64_t metadata_bytes_ = 0;

  mutable SharedLatch mu_{LatchRank::kCatalog, "catalog"};
  std::unordered_map<std::string, std::unique_ptr<TableInfo>> tables_;
  std::unordered_map<std::string, TableId> index_to_table_;
  TableId next_table_id_ = 1;
  IndexId next_index_id_ = 1;
};

}  // namespace mtdb

#endif  // MTDB_CATALOG_CATALOG_H_
