#include <gtest/gtest.h>

#include "mapping_test_util.h"
#include "testbed/crm_schema.h"

namespace mtdb {
namespace {

using mapping::AppSchema;
using mapping::ChunkFoldingLayout;
using mapping::ChunkFoldingOptions;
using mapping::SchemaMapping;

/// End-to-end: the full CRM application schema running through Chunk
/// Folding, with multiple tenants, extensions, queries, and DML.
class CrmOnChunkFoldingTest : public ::testing::Test {
 protected:
  CrmOnChunkFoldingTest()
      : app_(testbed::BuildCrmAppSchema()) {
    layout_ = std::make_unique<ChunkFoldingLayout>(&db_, &app_);
    EXPECT_TRUE(layout_->Bootstrap().ok());
    for (TenantId t = 1; t <= 3; ++t) {
      EXPECT_TRUE(layout_->CreateTenant(t).ok());
    }
    EXPECT_TRUE(layout_->EnableExtension(1, "healthcare_account").ok());
    EXPECT_TRUE(layout_->EnableExtension(2, "automotive_account").ok());
    EXPECT_TRUE(layout_->EnableExtension(2, "project_opportunity").ok());
  }

  AppSchema app_;
  Database db_;
  std::unique_ptr<SchemaMapping> layout_;
};

TEST_F(CrmOnChunkFoldingTest, MultiTenantCrmLifecycle) {
  // Load a few accounts per tenant with tenant-specific extensions.
  for (int i = 1; i <= 5; ++i) {
    ASSERT_TRUE(layout_
                    ->Execute(1,
                              "INSERT INTO account (id, campaign_id, name, "
                              "status, hospital, beds) VALUES (?, 0, ?, "
                              "'open', ?, ?)",
                              {Value::Int64(i),
                               Value::String("clinic" + std::to_string(i)),
                               Value::String("hosp" + std::to_string(i)),
                               Value::Int32(i * 100)})
                    .ok());
    ASSERT_TRUE(layout_
                    ->Execute(2,
                              "INSERT INTO account (id, campaign_id, name, "
                              "status, dealers) VALUES (?, 0, ?, 'won', ?)",
                              {Value::Int64(i),
                               Value::String("motor" + std::to_string(i)),
                               Value::Int32(i)})
                    .ok());
    ASSERT_TRUE(layout_
                    ->Execute(3,
                              "INSERT INTO account (id, campaign_id, name, "
                              "status) VALUES (?, 0, ?, 'new')",
                              {Value::Int64(i),
                               Value::String("plain" + std::to_string(i))})
                    .ok());
  }

  // Tenant 1 queries across base + extension columns.
  auto r = layout_->Query(
      1, "SELECT name, beds FROM account WHERE beds >= 300 ORDER BY beds");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 3u);
  EXPECT_EQ(r->rows[0][1].AsInt64(), 300);

  // Tenant 2's extension is invisible to tenant 1 and vice versa.
  EXPECT_FALSE(layout_->Query(1, "SELECT dealers FROM account").ok());
  EXPECT_FALSE(layout_->Query(2, "SELECT beds FROM account").ok());

  // Aggregate per status across the shared physical tables.
  auto agg = layout_->Query(
      2, "SELECT status, COUNT(*) FROM account GROUP BY status");
  ASSERT_TRUE(agg.ok()) << agg.status().ToString();
  ASSERT_EQ(agg->rows.size(), 1u);
  EXPECT_EQ(agg->rows[0][1].AsInt64(), 5);

  // Update through the mapping, then verify.
  ASSERT_TRUE(
      layout_->Execute(1, "UPDATE account SET beds = beds + 10 WHERE id = 2")
          .ok());
  auto beds = layout_->Query(1, "SELECT beds FROM account WHERE id = 2");
  ASSERT_TRUE(beds.ok());
  EXPECT_EQ(beds->rows[0][0].AsInt64(), 210);

  // Delete and confirm isolation.
  ASSERT_TRUE(layout_->Execute(3, "DELETE FROM account WHERE id = 1").ok());
  auto t3 = layout_->Query(3, "SELECT COUNT(*) FROM account");
  ASSERT_TRUE(t3.ok());
  EXPECT_EQ(t3->rows[0][0].AsInt64(), 4);
  auto t1 = layout_->Query(1, "SELECT COUNT(*) FROM account");
  ASSERT_TRUE(t1.ok());
  EXPECT_EQ(t1->rows[0][0].AsInt64(), 5);
}

TEST_F(CrmOnChunkFoldingTest, ParentChildJoinThroughMapping) {
  ASSERT_TRUE(layout_
                  ->Execute(1,
                            "INSERT INTO account (id, campaign_id, name, "
                            "status) VALUES (1, 0, 'acme', 'open')")
                  .ok());
  for (int i = 1; i <= 4; ++i) {
    ASSERT_TRUE(layout_
                    ->Execute(1,
                              "INSERT INTO opportunity (id, account_id, name, "
                              "status, amount) VALUES (?, 1, ?, 'open', ?)",
                              {Value::Int64(i),
                               Value::String("opp" + std::to_string(i)),
                               Value::Double(i * 1000.0)})
                    .ok());
  }
  auto r = layout_->Query(
      1,
      "SELECT a.name, COUNT(*), SUM(o.amount) FROM account a, opportunity o "
      "WHERE o.account_id = a.id GROUP BY a.name");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][1].AsInt64(), 4);
  EXPECT_DOUBLE_EQ(r->rows[0][2].AsDouble(), 10000.0);
}

TEST_F(CrmOnChunkFoldingTest, OnlineExtensionEnableIsVisibleImmediately) {
  ASSERT_TRUE(layout_
                  ->Execute(3,
                            "INSERT INTO account (id, campaign_id, name, "
                            "status) VALUES (1, 0, 'n', 's')")
                  .ok());
  // Before: the extension column does not exist for tenant 3.
  EXPECT_FALSE(layout_->Query(3, "SELECT beds FROM account").ok());
  // Enabling an extension is pure meta-data bookkeeping for chunked
  // layouts — no physical DDL, usable immediately (§3's on-line schema
  // modification advantage of generic structures).
  size_t tables_before = db_.Stats().tables;
  ASSERT_TRUE(layout_->EnableExtension(3, "healthcare_account").ok());
  EXPECT_EQ(db_.Stats().tables, tables_before);
  auto r = layout_->Query(3, "SELECT name, beds FROM account");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_TRUE(r->rows[0][1].is_null());  // old rows: extension NULL
  ASSERT_TRUE(
      layout_->Execute(3, "UPDATE account SET beds = 50 WHERE id = 1").ok());
  auto updated = layout_->Query(3, "SELECT beds FROM account WHERE id = 1");
  ASSERT_TRUE(updated.ok());
  EXPECT_EQ(updated->rows[0][0].AsInt64(), 50);
}

/// The consolidation story: physical table counts per layout for the
/// full CRM app with N tenants (the Figure 2 / §3 tradeoff).
TEST(ConsolidationTest, TableCountsAcrossLayouts) {
  using mapping::LayoutKind;
  AppSchema app = testbed::BuildCrmAppSchema();
  std::map<LayoutKind, size_t> tables;
  for (LayoutKind kind :
       {LayoutKind::kPrivate, LayoutKind::kExtension, LayoutKind::kUniversal,
        LayoutKind::kPivot, LayoutKind::kChunk, LayoutKind::kChunkFolding}) {
    Database db;
    auto layout = MakeLayout(kind, &db, &app);
    ASSERT_TRUE(layout->Bootstrap().ok());
    for (TenantId t = 0; t < 8; ++t) {
      ASSERT_TRUE(layout->CreateTenant(t).ok());
      if (t % 2 == 0) {
        ASSERT_TRUE(layout->EnableExtension(t, "healthcare_account").ok());
      }
    }
    tables[kind] = db.Stats().tables;
  }
  // Private: 10 tables x 8 tenants. Extension: 10 base + 1 ext. Others
  // are tenant-independent.
  EXPECT_EQ(tables[LayoutKind::kPrivate], 80u);
  EXPECT_EQ(tables[LayoutKind::kExtension], 11u);
  EXPECT_EQ(tables[LayoutKind::kUniversal], 1u);
  EXPECT_EQ(tables[LayoutKind::kPivot], 4u);
  EXPECT_EQ(tables[LayoutKind::kChunk], 2u);
  EXPECT_EQ(tables[LayoutKind::kChunkFolding], 12u);  // 10 base + 2 chunk
}

}  // namespace
}  // namespace mtdb
