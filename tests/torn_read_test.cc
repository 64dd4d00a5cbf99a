// Logical-row atomicity under concurrent readers: a logical UPDATE whose
// columns live in different physical sources (chunks, extension tables,
// pivot rows) is one engine write batch, so an autocommit reader's
// single physical SELECT sees either all of it or none of it. One writer
// keeps setting two such columns to the same value on one row; readers
// check that the two values they read are equal. Every layout, Chunk
// Table at two widths, and both Phase (b) DML modes. Labelled "tsan" in
// ctest so the ThreadSanitizer job runs it explicitly.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/tenant_session.h"
#include "mapping_test_util.h"

namespace mtdb {
namespace {

using mapping::AppSchema;
using mapping::ChunkLayoutOptions;
using mapping::ChunkShape;
using mapping::ChunkTableLayout;
using mapping::LayoutKind;
using mapping::LayoutKindName;
using mapping::SchemaMapping;
using mapping::TenantSession;

constexpr int kReaders = 2;
constexpr uint64_t kMinReads = 400;
constexpr uint64_t kMinWrites = 100;

/// `item` carries the paired columns q and r: q is a base column, r an
/// extension column, with three INT columns between them. So q and r
/// land in different sources on every multi-source layout: different
/// chunks at Chunk Table width 3 (one INT per chunk) and 6 (two), the
/// base vs. the extension table, different pivot rows, a conventional
/// table vs. a folded chunk. The Basic layout has no extensions and
/// pairs q with the base column s instead (one physical row either way).
AppSchema PairedSchema() {
  AppSchema app;
  mapping::LogicalTable item;
  item.name = "item";
  item.columns = {{"id", TypeId::kInt64, true},
                  {"q", TypeId::kInt32, false},
                  {"p1", TypeId::kInt32, false},
                  {"p2", TypeId::kInt32, false},
                  {"s", TypeId::kInt32, false}};
  EXPECT_TRUE(app.AddTable(std::move(item)).ok());
  mapping::ExtensionDef ext;
  ext.name = "paired";
  ext.base_table = "item";
  ext.columns = {{"r", TypeId::kInt32, false}};
  EXPECT_TRUE(app.AddExtension(std::move(ext)).ok());
  return app;
}

/// Param: (layout, Chunk Table width). The width applies to the Chunk
/// Table layout only; the others run once at width 0.
using TornParam = std::tuple<LayoutKind, int>;

std::unique_ptr<SchemaMapping> MakeParamLayout(const TornParam& p,
                                               Database* db,
                                               const AppSchema* app) {
  if (std::get<0>(p) == LayoutKind::kChunk) {
    ChunkLayoutOptions options;
    options.shape = ChunkShape::Uniform(std::get<1>(p));
    return std::make_unique<ChunkTableLayout>(db, app, options);
  }
  return mapping::MakeLayout(std::get<0>(p), db, app);
}

class TornReadTest : public ::testing::TestWithParam<TornParam> {};

TEST_P(TornReadTest, ReadersNeverSeeHalfALogicalUpdate) {
  AppSchema app = PairedSchema();
  Database db;
  std::unique_ptr<SchemaMapping> layout = MakeParamLayout(GetParam(), &db, &app);
  ASSERT_TRUE(layout->Bootstrap().ok());
  ASSERT_TRUE(layout->CreateTenant(1).ok());
  const bool extended = layout->EnableExtension(1, "paired").ok();
  ASSERT_EQ(extended, std::get<0>(GetParam()) != LayoutKind::kBasic);
  const std::string second = extended ? "r" : "s";
  ASSERT_TRUE(layout
                  ->Execute(1, "INSERT INTO item (id, q, p1, p2, " + second +
                                   ") VALUES (1, 0, 7, 8, 0)")
                  .ok());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0}, torn{0}, errors{0};
  std::vector<std::thread> readers;
  for (int i = 0; i < kReaders; ++i) {
    readers.emplace_back([&] {
      TenantSession session = layout->OpenSession(1);
      while (!stop.load(std::memory_order_acquire)) {
        auto r = session.Query("SELECT q, " + second +
                               " FROM item WHERE id = 1");
        if (!r.ok() || r->rows.size() != 1) {
          errors.fetch_add(1);
          continue;
        }
        const Row& row = r->rows[0];
        if (row[0].Compare(row[1]) != 0) torn.fetch_add(1);
        reads.fetch_add(1);
      }
    });
  }
  uint64_t writes = 0;
  {
    TenantSession session = layout->OpenSession(1);
    const auto give_up = std::chrono::steady_clock::now() +
                         std::chrono::seconds(30);
    while ((writes < kMinWrites || reads.load() < kMinReads) &&
           std::chrono::steady_clock::now() < give_up) {
      const std::string v = std::to_string(writes + 1);
      auto w = session.Execute("UPDATE item SET q = " + v + ", " + second +
                               " = " + v + " WHERE id = 1");
      if (w.ok() && *w == 1) {
        ++writes;
      } else {
        errors.fetch_add(1);
      }
    }
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(errors.load(), 0u);
  EXPECT_GE(writes, kMinWrites);
  EXPECT_GE(reads.load(), kMinReads);
  EXPECT_EQ(torn.load(), 0u) << "torn logical rows in " << reads.load()
                             << " reads over " << writes << " writes";
}

std::vector<TornParam> AllParams() {
  std::vector<TornParam> out;
  for (LayoutKind kind :
       {LayoutKind::kBasic, LayoutKind::kPrivate, LayoutKind::kExtension,
        LayoutKind::kUniversal, LayoutKind::kPivot, LayoutKind::kVertical,
        LayoutKind::kChunkFolding}) {
    out.emplace_back(kind, 0);
  }
  out.emplace_back(LayoutKind::kChunk, 3);
  out.emplace_back(LayoutKind::kChunk, 6);
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, TornReadTest, ::testing::ValuesIn(AllParams()),
    [](const ::testing::TestParamInfo<TornParam>& info) {
      std::string name = LayoutKindName(std::get<0>(info.param));
      if (std::get<1>(info.param) > 0) {
        name += std::to_string(std::get<1>(info.param));
      }
      return name;
    });

}  // namespace
}  // namespace mtdb
