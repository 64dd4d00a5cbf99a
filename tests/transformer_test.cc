#include <gtest/gtest.h>

#include "core/transformer.h"
#include "mapping_test_util.h"
#include "sql/parser.h"
#include "sql/printer.h"

namespace mtdb {
namespace mapping {
namespace {

/// A fixture that exposes the transformer against the chunk layout's
/// mappings, without executing queries.
class TransformerTest : public ::testing::Test {
 protected:
  TransformerTest() : app_(FigureFourSchema()) {
    layout_ = std::make_unique<ChunkTableLayout>(&db_, &app_);
    EXPECT_TRUE(layout_->Bootstrap().ok());
    EXPECT_TRUE(layout_->CreateTenant(17).ok());
    EXPECT_TRUE(layout_->EnableExtension(17, "healthcare").ok());
  }

  std::string Transform(TenantId tenant, const std::string& sql,
                        TransformOptions options) {
    auto stmt = sql::ParseSelect(sql);
    EXPECT_TRUE(stmt.ok());
    QueryTransformer transformer(layout_.get(), options);
    auto out = transformer.TransformSelect(tenant, **stmt);
    EXPECT_TRUE(out.ok()) << out.status().ToString();
    return out.ok() ? sql::ToSql(**out) : "";
  }

  AppSchema app_;
  Database db_;
  std::unique_ptr<ChunkTableLayout> layout_;
};

TEST_F(TransformerTest, NestedReconstructionHasMetadataPredicates) {
  TransformOptions options;
  options.emit_mode = EmitMode::kNested;
  std::string sql = Transform(
      17, "SELECT beds FROM account WHERE hospital = 'State'", options);
  // The paper's Q1-over-chunk-tables shape: nested derived table with
  // tenant/tbl/chunk predicates.
  EXPECT_NE(sql.find("(SELECT"), std::string::npos) << sql;
  EXPECT_NE(sql.find("tenant = 17"), std::string::npos) << sql;
  EXPECT_NE(sql.find("AS account"), std::string::npos) << sql;
}

TEST_F(TransformerTest, UnusedColumnsDoNotJoinTheirChunks) {
  TransformOptions options;
  options.emit_mode = EmitMode::kNested;
  // Q1 uses only hospital and beds; aid/name chunks must not appear.
  std::string sql = Transform(
      17, "SELECT beds FROM account WHERE hospital = 'State'", options);
  // aid is an indexed column => chunkidx would appear only if referenced.
  EXPECT_EQ(sql.find("chunkidx"), std::string::npos) << sql;
}

TEST_F(TransformerTest, ReferencingIndexedColumnJoinsChunkIndex) {
  TransformOptions options;
  options.emit_mode = EmitMode::kNested;
  std::string sql =
      Transform(17, "SELECT aid, beds FROM account", options);
  EXPECT_NE(sql.find("chunkidx"), std::string::npos) << sql;
  EXPECT_NE(sql.find("chunkdata"), std::string::npos) << sql;
  EXPECT_NE(sql.find(".row = "), std::string::npos) << sql;  // aligning join
}

TEST_F(TransformerTest, FlattenedPredicateOrderMetadataFirst) {
  TransformOptions options;
  options.emit_mode = EmitMode::kFlattened;
  options.predicate_order = PredicateOrder::kMetadataFirst;
  std::string sql = Transform(
      17, "SELECT beds FROM account WHERE hospital = 'State'", options);
  size_t meta = sql.find("tenant = 17");
  size_t user = sql.find("'State'");
  ASSERT_NE(meta, std::string::npos);
  ASSERT_NE(user, std::string::npos);
  EXPECT_LT(meta, user) << sql;
}

TEST_F(TransformerTest, FlattenedPredicateOrderSelectiveFirst) {
  TransformOptions options;
  options.emit_mode = EmitMode::kFlattened;
  options.predicate_order = PredicateOrder::kSelectiveFirst;
  std::string sql = Transform(
      17, "SELECT beds FROM account WHERE hospital = 'State'", options);
  size_t meta = sql.find("tenant = 17");
  size_t user = sql.find("'State'");
  ASSERT_NE(meta, std::string::npos);
  ASSERT_NE(user, std::string::npos);
  EXPECT_GT(meta, user) << sql;
}

TEST_F(TransformerTest, SelfJoinGetsDistinctAliases) {
  TransformOptions options;
  options.emit_mode = EmitMode::kFlattened;
  std::string sql = Transform(
      17,
      "SELECT a.name, b.name FROM account a, account b WHERE a.aid = b.aid",
      options);
  // Two logical bindings => at least two distinct physical aliases.
  EXPECT_NE(sql.find("a$"), std::string::npos) << sql;
  EXPECT_NE(sql.find("b$"), std::string::npos) << sql;
}

TEST_F(TransformerTest, UnknownColumnRejected) {
  auto stmt = sql::ParseSelect("SELECT nosuch FROM account");
  ASSERT_TRUE(stmt.ok());
  QueryTransformer transformer(layout_.get(), TransformOptions());
  auto out = transformer.TransformSelect(17, **stmt);
  EXPECT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kNotFound);
}

TEST_F(TransformerTest, UnknownTableRejected) {
  auto stmt = sql::ParseSelect("SELECT x FROM nosuch");
  ASSERT_TRUE(stmt.ok());
  QueryTransformer transformer(layout_.get(), TransformOptions());
  auto out = transformer.TransformSelect(17, **stmt);
  EXPECT_FALSE(out.ok());
}

TEST_F(TransformerTest, GroupByAndOrderByAreRewrittenToo) {
  TransformOptions options;
  options.emit_mode = EmitMode::kFlattened;
  std::string sql = Transform(
      17,
      "SELECT hospital, COUNT(*) FROM account GROUP BY hospital "
      "ORDER BY hospital",
      options);
  // No logical column names may survive in GROUP BY/ORDER BY.
  EXPECT_NE(sql.find("GROUP BY account$"), std::string::npos) << sql;
  EXPECT_NE(sql.find("ORDER BY account$"), std::string::npos) << sql;
}

/// The printed physical SQL must be executable verbatim: re-parsing the
/// ShowTransformed text and running it on the raw engine gives exactly
/// what the layer's Query path gives (printer/parser/transformer
/// round-trip through a real execution).
TEST_F(TransformerTest, TransformedSqlTextIsExecutable) {
  ASSERT_TRUE(layout_
                  ->Execute(17,
                            "INSERT INTO account (aid, name, hospital, beds) "
                            "VALUES (1, 'Acme', 'St. Mary', 135), "
                            "(2, 'Gump', 'State', 1042)")
                  .ok());
  const char* queries[] = {
      "SELECT beds FROM account WHERE hospital = 'State'",
      "SELECT aid, name, beds FROM account ORDER BY aid",
      "SELECT COUNT(*), SUM(beds) FROM account",
      "SELECT hospital, COUNT(*) FROM account GROUP BY hospital "
      "ORDER BY hospital",
  };
  for (EmitMode emit : {EmitMode::kNested, EmitMode::kFlattened}) {
    layout_->transform_options().emit_mode = emit;
    for (const char* q : queries) {
      auto via_layer = layout_->Query(17, q);
      ASSERT_TRUE(via_layer.ok()) << q;
      auto text = layout_->ShowTransformed(17, q);
      ASSERT_TRUE(text.ok()) << q;
      auto direct = db_.Query(*text);
      ASSERT_TRUE(direct.ok()) << *text << "\n"
                               << direct.status().ToString();
      ASSERT_EQ(via_layer->rows.size(), direct->rows.size()) << *text;
      for (size_t i = 0; i < via_layer->rows.size(); ++i) {
        for (size_t c = 0; c < via_layer->rows[i].size(); ++c) {
          EXPECT_EQ(via_layer->rows[i][c].Compare(direct->rows[i][c]), 0)
              << q << " row " << i << " col " << c;
        }
      }
    }
  }
}

TEST(BuildReconstructionTest, AtLeastOneSourceEvenWithoutColumns) {
  TableMapping mapping;
  PhysicalSource s;
  s.physical_table = "phys";
  s.partition.emplace_back("tenant", Value::Int32(1));
  s.row_column = "row";
  mapping.sources.push_back(std::move(s));
  auto stmt = BuildReconstruction(mapping, {}, "_row");
  ASSERT_NE(stmt, nullptr);
  EXPECT_EQ(stmt->from.size(), 1u);
  ASSERT_EQ(stmt->items.size(), 1u);  // just _row
  EXPECT_EQ(stmt->items[0].alias, "_row");
}

}  // namespace
}  // namespace mapping
}  // namespace mtdb
