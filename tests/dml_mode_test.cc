#include <gtest/gtest.h>

#include <string>

#include "mapping_test_util.h"

namespace mtdb {
namespace mapping {
namespace {

/// §6.3's two-phase UPDATE and DELETE keep their logical meaning on every
/// extensible layout: a constant multi-row update, an update whose SET
/// reads the old row, and a multi-row delete.
class WriteSemanticsTest : public ::testing::TestWithParam<LayoutKind> {};

TEST_P(WriteSemanticsTest, UpdateAndDeleteSemanticsUnchanged) {
  AppSchema app = FigureFourSchema();
  Database db;
  auto layout = MakeLayout(GetParam(), &db, &app);
  ASSERT_TRUE(layout->Bootstrap().ok());
  ASSERT_TRUE(layout->CreateTenant(17).ok());
  ASSERT_TRUE(layout->EnableExtension(17, "healthcare").ok());

  for (int i = 1; i <= 30; ++i) {
    ASSERT_TRUE(layout
                    ->Execute(17,
                              "INSERT INTO account (aid, name, hospital, "
                              "beds) VALUES (?, ?, ?, ?)",
                              {Value::Int64(i),
                               Value::String("n" + std::to_string(i)),
                               Value::String("h" + std::to_string(i % 3)),
                               Value::Int64(i * 10)})
                    .ok());
  }

  // Constant multi-row update.
  auto updated = layout->Execute(
      17, "UPDATE account SET beds = 999 WHERE hospital = 'h1'");
  ASSERT_TRUE(updated.ok()) << updated.status().ToString();
  EXPECT_EQ(*updated, 10);
  auto check = layout->Query(
      17, "SELECT COUNT(*) FROM account WHERE beds = 999");
  ASSERT_TRUE(check.ok());
  EXPECT_EQ(check->rows[0][0].AsInt64(), 10);

  // Expression update: each row's new value reads its old one.
  auto expr_update = layout->Execute(
      17, "UPDATE account SET beds = beds + 1 WHERE hospital = 'h2'");
  ASSERT_TRUE(expr_update.ok()) << expr_update.status().ToString();
  EXPECT_EQ(*expr_update, 10);
  auto sum = layout->Query(
      17, "SELECT SUM(beds) FROM account WHERE hospital = 'h2'");
  ASSERT_TRUE(sum.ok());
  // h2 rows: aid 2,5,...,29 -> beds i*10 + 1 each.
  int64_t expected = 0;
  for (int i = 1; i <= 30; ++i) {
    if (i % 3 == 2) expected += i * 10 + 1;
  }
  EXPECT_EQ(sum->rows[0][0].AsInt64(), expected);

  // Multi-row delete.
  auto deleted = layout->Execute(
      17, "DELETE FROM account WHERE hospital = 'h0'");
  ASSERT_TRUE(deleted.ok()) << deleted.status().ToString();
  EXPECT_EQ(*deleted, 10);
  auto left = layout->Query(17, "SELECT COUNT(*) FROM account");
  ASSERT_TRUE(left.ok());
  EXPECT_EQ(left->rows[0][0].AsInt64(), 20);
}

/// A full-row INSERT and a bulk InsertRow take their values in the
/// tenant's effective column order — base columns, then each extension's
/// in declaration order — even where a layout stores an extension's
/// indexed column ahead of its plain one.
TEST_P(WriteSemanticsTest, FullRowInsertFollowsEffectiveColumnOrder) {
  AppSchema app;
  LogicalTable item;
  item.name = "item";
  item.columns = {{"id", TypeId::kInt64, true}, {"nm", TypeId::kString, false}};
  ASSERT_TRUE(app.AddTable(std::move(item)).ok());
  ExtensionDef ext;
  ext.name = "ext";
  ext.base_table = "item";
  ext.columns = {{"plain", TypeId::kString, false},
                 {"hot", TypeId::kInt64, true}};
  ASSERT_TRUE(app.AddExtension(std::move(ext)).ok());
  Database db;
  auto layout = MakeLayout(GetParam(), &db, &app);
  ASSERT_TRUE(layout->Bootstrap().ok());
  ASSERT_TRUE(layout->CreateTenant(1).ok());
  ASSERT_TRUE(layout->EnableExtension(1, "ext").ok());
  ASSERT_TRUE(layout->Execute(1, "INSERT INTO item VALUES (1, 'n', 'p', 7)").ok());
  ASSERT_TRUE(layout
                  ->InsertRow(1, "item",
                              {Value::Int64(2), Value::String("m"),
                               Value::String("q"), Value::Int64(8)})
                  .ok());
  auto r = layout->Query(1, "SELECT plain, hot FROM item ORDER BY id");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 2u);
  EXPECT_EQ(r->rows[0][0].AsString(), "p");
  EXPECT_EQ(r->rows[0][1].AsInt64(), 7);
  EXPECT_EQ(r->rows[1][0].AsString(), "q");
  EXPECT_EQ(r->rows[1][1].AsInt64(), 8);
}

INSTANTIATE_TEST_SUITE_P(
    AllExtensibleLayouts, WriteSemanticsTest,
    ::testing::Values(LayoutKind::kPrivate, LayoutKind::kExtension,
                      LayoutKind::kUniversal, LayoutKind::kPivot,
                      LayoutKind::kChunk, LayoutKind::kVertical,
                      LayoutKind::kChunkFolding),
    [](const ::testing::TestParamInfo<LayoutKind>& info) {
      return std::string(LayoutKindName(info.param));
    });

}  // namespace
}  // namespace mapping
}  // namespace mtdb
