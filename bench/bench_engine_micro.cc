// Google-benchmark microbenchmarks for the engine substrates: B+Tree
// point operations, key encoding, row codec, the page checksum, buffer
// pool fetch (hit and miss), and the SQL front door. These are the primitive costs underlying Figures 9-12.
#include <benchmark/benchmark.h>

#include "common/key_encoding.h"
#include "common/rng.h"
#include "engine/database.h"
#include "sql/parser.h"
#include "index/btree.h"
#include "storage/row_codec.h"

namespace mtdb {
namespace {

void BM_KeyEncodeComposite(benchmark::State& state) {
  std::vector<Value> key{Value::Int32(17), Value::Int32(3), Value::Int32(2),
                         Value::Int64(123456)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(KeyEncoder::EncodeKey(key));
  }
}
BENCHMARK(BM_KeyEncodeComposite);

void BM_RowCodecRoundTrip(benchmark::State& state) {
  RowCodec codec({TypeId::kInt64, TypeId::kInt32, TypeId::kString,
                  TypeId::kDate, TypeId::kDouble});
  Row row{Value::Int64(1), Value::Int32(2), Value::String("hello world"),
          Value::Date(12345), Value::Double(3.25)};
  for (auto _ : state) {
    std::string image;
    Status st = codec.Encode(row, &image);
    benchmark::DoNotOptimize(st);
    auto decoded = codec.Decode(image.data(),
                                static_cast<uint32_t>(image.size()));
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_RowCodecRoundTrip);

void BM_BTreeInsert(benchmark::State& state) {
  PageStore store;
  BufferPool pool(&store, 4096);
  BTree tree(&pool);
  Rng rng(1);
  int64_t i = 0;
  for (auto _ : state) {
    std::string key = KeyEncoder::EncodeKey({Value::Int64(rng.Next() % 1000000)});
    Status st = tree.Insert(key, Rid{static_cast<PageId>(i / 100),
                                     static_cast<uint16_t>(i % 100)});
    benchmark::DoNotOptimize(st);
    ++i;
  }
}
BENCHMARK(BM_BTreeInsert);

void BM_BTreeLookup(benchmark::State& state) {
  PageStore store;
  BufferPool pool(&store, 4096);
  BTree tree(&pool);
  for (int64_t i = 0; i < 100000; ++i) {
    std::string key = KeyEncoder::EncodeKey({Value::Int64(i)});
    Status st = tree.Insert(key, Rid{static_cast<PageId>(i / 100),
                                     static_cast<uint16_t>(i % 100)});
    benchmark::DoNotOptimize(st);
  }
  Rng rng(2);
  for (auto _ : state) {
    std::string key =
        KeyEncoder::EncodeKey({Value::Int64(rng.Uniform(0, 99999))});
    auto rids = tree.Lookup(key);
    benchmark::DoNotOptimize(rids);
  }
}
BENCHMARK(BM_BTreeLookup);

void BM_BufferPoolFetchHit(benchmark::State& state) {
  PageStore store;
  BufferPool pool(&store, 64);
  Page* page = pool.NewPage(PageType::kHeap);
  PageId id = page->id();
  pool.UnpinPage(id, false);
  for (auto _ : state) {
    auto p = pool.FetchPage(id);
    benchmark::DoNotOptimize(p);
    pool.UnpinPage(id, false);
  }
}
BENCHMARK(BM_BufferPoolFetchHit);

void BM_PageChecksum(benchmark::State& state) {
  std::vector<char> page(kDefaultPageSize);
  Rng rng(4);
  for (char& c : page) c = static_cast<char>(rng.Next());
  for (auto _ : state) {
    benchmark::DoNotOptimize(PageStore::Checksum(page.data(), page.size()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(page.size()));
}
BENCHMARK(BM_PageChecksum);

// Every fetch misses and its victim is dirty: two pages of one shard take
// turns in that shard's single frame, so each iteration is one physical
// read (copy + checksum check) and one write-back (checksum + copy).
void BM_BufferPoolFetchMiss(benchmark::State& state) {
  PageStore store;
  BufferPool pool(&store, kBufferPoolShards);
  std::vector<PageId> ids;
  while (ids.size() < 2) {
    Page* page = pool.NewPage(PageType::kHeap);
    if (BufferPool::ShardOf(page->id()) == 0) ids.push_back(page->id());
    pool.UnpinPage(page->id(), /*dirty=*/true);
  }
  size_t i = 0;
  for (auto _ : state) {
    const PageId id = ids[i++ & 1];
    auto p = pool.FetchPage(id);
    benchmark::DoNotOptimize(p);
    pool.UnpinPage(id, /*dirty=*/true);
  }
}
BENCHMARK(BM_BufferPoolFetchMiss);

void BM_SqlPointQuery(benchmark::State& state) {
  Database db;
  Status st = db.Execute("CREATE TABLE t (id BIGINT, v INT)").status();
  benchmark::DoNotOptimize(st);
  st = db.Execute("CREATE UNIQUE INDEX ux ON t (id)").status();
  for (int i = 0; i < 10000; ++i) {
    st = db.Execute("INSERT INTO t VALUES (" + std::to_string(i) + ", " +
                    std::to_string(i * 3) + ")")
             .status();
  }
  Rng rng(3);
  for (auto _ : state) {
    auto r = db.Query("SELECT v FROM t WHERE id = ?",
                      {Value::Int64(rng.Uniform(0, 9999))});
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_SqlPointQuery);

void BM_SqlParse(benchmark::State& state) {
  Database db;
  for (auto _ : state) {
    auto r = sql::ParseSelect(
        "SELECT p.id, p.a, c.b FROM parent p, child c "
        "WHERE p.id = c.parent AND p.id = ? AND c.x > 10 ORDER BY p.a");
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_SqlParse);

}  // namespace
}  // namespace mtdb

BENCHMARK_MAIN();
