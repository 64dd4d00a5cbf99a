#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "mapping_test_util.h"

namespace mtdb {
namespace mapping {
namespace {

/// Layouts that support extensibility (everything but Basic).
const LayoutKind kExtensibleLayouts[] = {
    LayoutKind::kPrivate,  LayoutKind::kExtension, LayoutKind::kUniversal,
    LayoutKind::kPivot,    LayoutKind::kChunk,     LayoutKind::kVertical,
    LayoutKind::kChunkFolding,
};

class MappingLayoutTest : public ::testing::TestWithParam<LayoutKind> {
 protected:
  MappingLayoutTest() : app_(FigureFourSchema()) {
    layout_ = MakeLayout(GetParam(), &db_, &app_);
  }

  void Load() {
    ASSERT_TRUE(layout_->Bootstrap().ok());
    ASSERT_TRUE(LoadFigureFourData(layout_.get()).ok());
  }

  AppSchema app_;
  Database db_;
  std::unique_ptr<SchemaMapping> layout_;
};

TEST_P(MappingLayoutTest, QueryQ1) {
  Load();
  // The paper's Q1: SELECT Beds FROM Account17 WHERE Hospital='State'.
  auto r = layout_->Query(17, "SELECT beds FROM account WHERE hospital = 'State'");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].AsInt64(), 1042);
}

TEST_P(MappingLayoutTest, TenantIsolation) {
  Load();
  // Tenant 35 sees only its own single account.
  auto r = layout_->Query(35, "SELECT aid, name FROM account");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][1].AsString(), "Ball");
}

TEST_P(MappingLayoutTest, SelectStarShowsTenantSchema) {
  Load();
  auto r17 = layout_->Query(17, "SELECT * FROM account ORDER BY aid");
  ASSERT_TRUE(r17.ok()) << r17.status().ToString();
  ASSERT_EQ(r17->columns.size(), 4u);  // aid, name, hospital, beds
  ASSERT_EQ(r17->rows.size(), 2u);
  EXPECT_EQ(r17->rows[0][1].AsString(), "Acme");
  EXPECT_EQ(r17->rows[0][2].AsString(), "St. Mary");
  EXPECT_EQ(r17->rows[0][3].AsInt64(), 135);

  auto r42 = layout_->Query(42, "SELECT * FROM account");
  ASSERT_TRUE(r42.ok());
  ASSERT_EQ(r42->columns.size(), 3u);  // aid, name, dealers
  EXPECT_EQ(r42->rows[0][2].AsInt64(), 65);

  auto r35 = layout_->Query(35, "SELECT * FROM account");
  ASSERT_TRUE(r35.ok());
  EXPECT_EQ(r35->columns.size(), 2u);  // no extension
}

TEST_P(MappingLayoutTest, ExtensionColumnInvisibleToOtherTenants) {
  Load();
  EXPECT_FALSE(layout_->Query(35, "SELECT beds FROM account").ok());
  EXPECT_FALSE(layout_->Query(42, "SELECT beds FROM account").ok());
}

TEST_P(MappingLayoutTest, UpdateThroughMapping) {
  Load();
  auto n = layout_->Execute(
      17, "UPDATE account SET beds = 200 WHERE hospital = 'St. Mary'");
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_EQ(*n, 1);
  auto r = layout_->Query(17,
                          "SELECT beds FROM account WHERE hospital = 'St. Mary'");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].AsInt64(), 200);
}

TEST_P(MappingLayoutTest, UpdateMixedBaseAndExtensionColumns) {
  Load();
  auto n = layout_->Execute(
      17, "UPDATE account SET name = 'Acme2', beds = beds + 1 WHERE aid = 1");
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_EQ(*n, 1);
  auto r = layout_->Query(17, "SELECT name, beds FROM account WHERE aid = 1");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0].AsString(), "Acme2");
  EXPECT_EQ(r->rows[0][1].AsInt64(), 136);
}

TEST_P(MappingLayoutTest, DeleteThroughMapping) {
  Load();
  auto n = layout_->Execute(17, "DELETE FROM account WHERE aid = 2");
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_EQ(*n, 1);
  auto r = layout_->Query(17, "SELECT COUNT(*) FROM account");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows[0][0].AsInt64(), 1);
  // Other tenants unaffected.
  auto other = layout_->Query(35, "SELECT COUNT(*) FROM account");
  ASSERT_TRUE(other.ok());
  EXPECT_EQ(other->rows[0][0].AsInt64(), 1);
}

TEST_P(MappingLayoutTest, ParameterizedLogicalQuery) {
  Load();
  auto r = layout_->Query(17, "SELECT name FROM account WHERE aid = ?",
                          {Value::Int64(2)});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].AsString(), "Gump");
}

TEST_P(MappingLayoutTest, AggregationOverLogicalTable) {
  Load();
  auto r = layout_->Query(17, "SELECT COUNT(*), SUM(beds) FROM account");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows[0][0].AsInt64(), 2);
  EXPECT_EQ(r->rows[0][1].AsInt64(), 135 + 1042);
}

TEST_P(MappingLayoutTest, DropTenantRemovesData) {
  Load();
  ASSERT_TRUE(layout_->DropTenant(17).ok());
  // Other tenants keep their data.
  auto r = layout_->Query(35, "SELECT COUNT(*) FROM account");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows[0][0].AsInt64(), 1);
  // The dropped tenant is gone.
  EXPECT_FALSE(layout_->Query(17, "SELECT * FROM account").ok());
}

INSTANTIATE_TEST_SUITE_P(
    AllExtensibleLayouts, MappingLayoutTest,
    ::testing::ValuesIn(kExtensibleLayouts),
    [](const ::testing::TestParamInfo<LayoutKind>& info) {
      return LayoutKindName(info.param);
    });

// --- DOUBLE values survive every layout bit for bit ----------------------

/// `meas` has a DOUBLE base column `v`; the `precise` extension adds a
/// DOUBLE column `w`. Universal and Chunk Table (whose uniform shapes
/// have no DOUBLE slots) store both in VARCHAR slots.
AppSchema DoubleSchema() {
  AppSchema app;
  LogicalTable meas;
  meas.name = "meas";
  meas.columns = {{"id", TypeId::kInt64, true}, {"v", TypeId::kDouble, false}};
  EXPECT_TRUE(app.AddTable(std::move(meas)).ok());
  ExtensionDef precise;
  precise.name = "precise";
  precise.base_table = "meas";
  precise.columns = {{"w", TypeId::kDouble, false}};
  EXPECT_TRUE(app.AddExtension(std::move(precise)).ok());
  return app;
}

/// Param: (layout, Chunk Table width); the width applies to kChunk only.
using DoubleParam = std::tuple<LayoutKind, int>;

class DoubleRoundTripTest : public ::testing::TestWithParam<DoubleParam> {};

TEST_P(DoubleRoundTripTest, NonRoundDoublesReadBackExactly) {
  const auto [kind, width] = GetParam();
  AppSchema app = DoubleSchema();
  Database db;
  std::unique_ptr<SchemaMapping> layout;
  if (kind == LayoutKind::kChunk) {
    ChunkLayoutOptions options;
    options.shape = ChunkShape::Uniform(width);
    layout = std::make_unique<ChunkTableLayout>(&db, &app, options);
  } else {
    layout = MakeLayout(kind, &db, &app);
  }
  ASSERT_TRUE(layout->Bootstrap().ok());
  ASSERT_TRUE(layout->CreateTenant(1).ok());
  const bool extended = layout->EnableExtension(1, "precise").ok();
  ASSERT_EQ(extended, kind != LayoutKind::kBasic);

  // Each needs more than %g's six significant digits.
  const double values[] = {0.1 + 0.2, 1234.56789012345, -2.718281828459045e-7,
                           1e300 / 3};
  std::vector<std::string> columns = {"v"};
  if (extended) columns.push_back("w");
  int64_t id = 0;
  for (double value : values) {
    ++id;
    std::vector<Value> params = {Value::Int64(id), Value::Double(value)};
    std::string sql = "INSERT INTO meas (id, v";
    if (extended) {
      sql += ", w) VALUES (?, ?, ?)";
      params.push_back(Value::Double(-value));
    } else {
      sql += ") VALUES (?, ?)";
    }
    ASSERT_TRUE(layout->Execute(1, sql, params).ok());
  }
  id = 0;
  for (double value : values) {
    ++id;
    for (size_t c = 0; c < columns.size(); ++c) {
      const double want = c == 0 ? value : -value;
      const std::string& col = columns[c];
      auto r = layout->Query(1, "SELECT " + col + " FROM meas WHERE id = ?",
                             {Value::Int64(id)});
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      ASSERT_EQ(r->rows.size(), 1u);
      EXPECT_EQ(r->rows[0][0].AsDouble(), want)
          << col << " read back as " << r->rows[0][0].ToSqlLiteral();
      auto found = layout->Query(1, "SELECT id FROM meas WHERE " + col + " = ?",
                                 {Value::Double(want)});
      ASSERT_TRUE(found.ok()) << found.status().ToString();
      ASSERT_EQ(found->rows.size(), 1u) << col << " = " << want;
      EXPECT_EQ(found->rows[0][0].AsInt64(), id);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllLayouts, DoubleRoundTripTest,
    ::testing::Values(DoubleParam{LayoutKind::kBasic, 0},
                      DoubleParam{LayoutKind::kPrivate, 0},
                      DoubleParam{LayoutKind::kExtension, 0},
                      DoubleParam{LayoutKind::kUniversal, 0},
                      DoubleParam{LayoutKind::kPivot, 0},
                      DoubleParam{LayoutKind::kChunk, 3},
                      DoubleParam{LayoutKind::kChunk, 6},
                      DoubleParam{LayoutKind::kVertical, 0},
                      DoubleParam{LayoutKind::kChunkFolding, 0}),
    [](const ::testing::TestParamInfo<DoubleParam>& info) {
      std::string name = LayoutKindName(std::get<0>(info.param));
      if (std::get<0>(info.param) == LayoutKind::kChunk) {
        name += std::to_string(std::get<1>(info.param));
      }
      return name;
    });

// --- layout-specific behaviours --------------------------------------

TEST(BasicLayoutTest, RejectsExtensions) {
  AppSchema app = FigureFourSchema();
  Database db;
  BasicLayout layout(&db, &app);
  ASSERT_TRUE(layout.Bootstrap().ok());
  ASSERT_TRUE(layout.CreateTenant(17).ok());
  EXPECT_EQ(layout.EnableExtension(17, "healthcare").code(),
            StatusCode::kNotImplemented);
}

TEST(BasicLayoutTest, SharedTableQueriesAndDml) {
  AppSchema app = FigureFourSchema();
  Database db;
  BasicLayout layout(&db, &app);
  ASSERT_TRUE(layout.Bootstrap().ok());
  ASSERT_TRUE(layout.CreateTenant(1).ok());
  ASSERT_TRUE(layout.CreateTenant(2).ok());
  ASSERT_TRUE(
      layout.Execute(1, "INSERT INTO account (aid, name) VALUES (1, 'a1')")
          .ok());
  ASSERT_TRUE(
      layout.Execute(2, "INSERT INTO account (aid, name) VALUES (1, 'a2')")
          .ok());
  // Only 10 = 1 physical table total (plus indexes).
  EXPECT_EQ(db.Stats().tables, 1u);
  auto r = layout.Query(2, "SELECT name FROM account");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].AsString(), "a2");
  ASSERT_TRUE(layout.Execute(1, "DELETE FROM account").ok());
  auto left = layout.Query(2, "SELECT COUNT(*) FROM account");
  ASSERT_TRUE(left.ok());
  EXPECT_EQ(left->rows[0][0].AsInt64(), 1);
}

TEST(PrivateLayoutTest, TableCountGrowsWithTenants) {
  AppSchema app = FigureFourSchema();
  Database db;
  PrivateTableLayout layout(&db, &app);
  ASSERT_TRUE(layout.Bootstrap().ok());
  for (int t = 0; t < 5; ++t) {
    ASSERT_TRUE(layout.CreateTenant(t).ok());
  }
  EXPECT_EQ(db.Stats().tables, 5u);  // one logical table x five tenants
}

TEST(UniversalLayoutTest, SingleTableHostsEveryone) {
  AppSchema app = FigureFourSchema();
  Database db;
  UniversalTableLayout layout(&db, &app, /*width=*/10);
  ASSERT_TRUE(layout.Bootstrap().ok());
  ASSERT_TRUE(LoadFigureFourData(&layout).ok());
  EXPECT_EQ(db.Stats().tables, 1u);
  // Physical data columns are VARCHAR: values round-trip through casts.
  auto r = layout.Query(17, "SELECT beds FROM account WHERE beds > 200");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].AsInt64(), 1042);
}

TEST(UniversalLayoutTest, WidthExhaustion) {
  AppSchema app = FigureFourSchema();
  Database db;
  UniversalTableLayout layout(&db, &app, /*width=*/2);
  ASSERT_TRUE(layout.Bootstrap().ok());
  ASSERT_TRUE(layout.CreateTenant(17).ok());
  // account for tenant 17 would need 4 columns > width 2: the layout
  // rejects the extension when rebuilding the mapping.
  Status st = layout.EnableExtension(17, "healthcare");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  // Base columns still work.
  auto r = layout.Query(17, "SELECT aid FROM account");
  EXPECT_TRUE(r.ok()) << r.status().ToString();
}

TEST(PivotLayoutTest, FourPivotTablesOnly) {
  AppSchema app = FigureFourSchema();
  Database db;
  PivotTableLayout layout(&db, &app);
  ASSERT_TRUE(layout.Bootstrap().ok());
  ASSERT_TRUE(LoadFigureFourData(&layout).ok());
  EXPECT_EQ(db.Stats().tables, 4u);  // pivot_int/dbl/date/str
  // Each value is its own physical row: tenant 17 has 2 rows x 2 int
  // columns = 4 rows in pivot_int (aid, beds).
  auto r = db.Query("SELECT COUNT(*) FROM pivot_int WHERE tenant = 17");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0].AsInt64(), 4);
}

TEST(ChunkLayoutTest, FoldedChunksShareTwoTables) {
  AppSchema app = FigureFourSchema();
  Database db;
  ChunkTableLayout layout(&db, &app);
  ASSERT_TRUE(layout.Bootstrap().ok());
  ASSERT_TRUE(LoadFigureFourData(&layout).ok());
  EXPECT_EQ(db.Stats().tables, 2u);  // chunkdata + chunkidx
}

TEST(ChunkLayoutTest, VerticalPartitioningCreatesMoreTables) {
  AppSchema app = FigureFourSchema();
  Database fold_db, vp_db;
  ChunkLayoutOptions fold_options;
  fold_options.fold = true;
  ChunkTableLayout folded(&fold_db, &app, fold_options);
  ASSERT_TRUE(folded.Bootstrap().ok());
  ASSERT_TRUE(LoadFigureFourData(&folded).ok());

  ChunkLayoutOptions vp_options;
  vp_options.fold = false;
  ChunkTableLayout vertical(&vp_db, &app, vp_options);
  ASSERT_TRUE(vertical.Bootstrap().ok());
  ASSERT_TRUE(LoadFigureFourData(&vertical).ok());

  EXPECT_GT(vp_db.Stats().tables, fold_db.Stats().tables);
  EXPECT_GT(vp_db.Stats().metadata_bytes, fold_db.Stats().metadata_bytes);
}

TEST(ChunkFoldingTest, BaseConventionalExtensionsChunked) {
  AppSchema app = FigureFourSchema();
  Database db;
  ChunkFoldingLayout layout(&db, &app);
  ASSERT_TRUE(layout.Bootstrap().ok());
  ASSERT_TRUE(LoadFigureFourData(&layout).ok());
  // cf_account + fold_chunkdata + fold_chunkidx = 3 physical tables.
  EXPECT_EQ(db.Stats().tables, 3u);
  // Base columns live in the conventional table...
  auto base = db.Query("SELECT COUNT(*) FROM cf_account");
  ASSERT_TRUE(base.ok());
  EXPECT_EQ(base->rows[0][0].AsInt64(), 4);  // all four accounts
  // ...extension values in the chunk tables (2 rows for tenant 17's
  // hospital/beds chunk + 1 for tenant 42's dealers chunk).
  auto chunks = db.Query("SELECT COUNT(*) FROM fold_chunkdata");
  ASSERT_TRUE(chunks.ok());
  EXPECT_EQ(chunks->rows[0][0].AsInt64(), 3);
}

TEST(ChunkFoldingTest, ConventionalExtensionOption) {
  AppSchema app = FigureFourSchema();
  Database db;
  ChunkFoldingOptions options;
  options.conventional_extensions = {"healthcare"};
  ChunkFoldingLayout layout(&db, &app, options);
  ASSERT_TRUE(layout.Bootstrap().ok());
  ASSERT_TRUE(LoadFigureFourData(&layout).ok());
  // healthcare got its own conventional table (the Figure 3 case where
  // AccountHealthCare is hot); automotive stays chunked.
  auto hc = db.Query("SELECT COUNT(*) FROM cfext_healthcare");
  ASSERT_TRUE(hc.ok());
  EXPECT_EQ(hc->rows[0][0].AsInt64(), 2);
  auto q = layout.Query(17, "SELECT beds FROM account WHERE hospital = 'State'");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q->rows.size(), 1u);
  EXPECT_EQ(q->rows[0][0].AsInt64(), 1042);
}

TEST(ShowTransformedTest, NestedEmissionShowsReconstruction) {
  AppSchema app = FigureFourSchema();
  Database db;
  ChunkTableLayout layout(&db, &app);
  ASSERT_TRUE(layout.Bootstrap().ok());
  ASSERT_TRUE(LoadFigureFourData(&layout).ok());
  layout.transform_options().emit_mode = EmitMode::kNested;
  auto sql = layout.ShowTransformed(
      17, "SELECT beds FROM account WHERE hospital = 'State'");
  ASSERT_TRUE(sql.ok());
  // The §6.1 shape: a derived table over the chunk table with meta-data
  // predicates.
  EXPECT_NE(sql->find("(SELECT"), std::string::npos) << *sql;
  EXPECT_NE(sql->find("tenant = 17"), std::string::npos) << *sql;
  EXPECT_NE(sql->find("chunk"), std::string::npos) << *sql;
}

TEST(ShowTransformedTest, FlattenedEmissionInlinesJoins) {
  AppSchema app = FigureFourSchema();
  Database db;
  ChunkTableLayout layout(&db, &app);
  ASSERT_TRUE(layout.Bootstrap().ok());
  ASSERT_TRUE(LoadFigureFourData(&layout).ok());
  layout.transform_options().emit_mode = EmitMode::kFlattened;
  auto sql = layout.ShowTransformed(
      17, "SELECT beds FROM account WHERE hospital = 'State'");
  ASSERT_TRUE(sql.ok());
  EXPECT_EQ(sql->find("(SELECT"), std::string::npos) << *sql;
  EXPECT_NE(sql->find("tenant = 17"), std::string::npos) << *sql;
}

TEST(FlattenedQueryTest, SameResultsAsNested) {
  AppSchema app = FigureFourSchema();
  Database db;
  ChunkTableLayout layout(&db, &app);
  ASSERT_TRUE(layout.Bootstrap().ok());
  ASSERT_TRUE(LoadFigureFourData(&layout).ok());
  const char* q = "SELECT name, beds FROM account WHERE beds > 100";
  layout.transform_options().emit_mode = EmitMode::kNested;
  auto nested = layout.Query(17, q);
  layout.transform_options().emit_mode = EmitMode::kFlattened;
  auto flat = layout.Query(17, q);
  ASSERT_TRUE(nested.ok()) << nested.status().ToString();
  ASSERT_TRUE(flat.ok()) << flat.status().ToString();
  ASSERT_EQ(nested->rows.size(), flat->rows.size());
  EXPECT_EQ(nested->rows.size(), 2u);
}

}  // namespace
}  // namespace mapping
}  // namespace mtdb
