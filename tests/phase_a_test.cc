// The mapped write paths' column resolution and §6.3 Phase (a).
//
// * Every layout resolves an UPDATE/DELETE's columns and its tenant
//   against the mapping before anything runs or is explained, so an
//   unknown column or tenant fails the same way on all eight.
// * Phase (a) reconstructs only the columns the write reads (its WHERE
//   columns and the columns non-constant SET expressions read), so on
//   Chunk Table and Chunk Folding it joins only the sources those map to.
//   EXPLAIN MAPPING shows the read.
// * SETs that read old values from another source than their WHERE and
//   their target still compute from the current row: a shadow model
//   sweep over every layout, Chunk Table at widths 3 and 6, both Phase
//   (b) DML modes.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "mapping_test_util.h"
#include "sql/parser.h"

namespace mtdb {
namespace mapping {
namespace {

const LayoutKind kAllLayouts[] = {
    LayoutKind::kBasic,     LayoutKind::kPrivate, LayoutKind::kExtension,
    LayoutKind::kUniversal, LayoutKind::kPivot,   LayoutKind::kChunk,
    LayoutKind::kVertical,  LayoutKind::kChunkFolding};

std::string LayoutParamName(const ::testing::TestParamInfo<LayoutKind>& info) {
  return LayoutKindName(info.param);
}

// --- one column and tenant resolver for every layout ------------------

class WriteResolutionTest : public ::testing::TestWithParam<LayoutKind> {
 protected:
  void SetUp() override {
    layout_ = MakeLayout(GetParam(), &db_, &app_);
    ASSERT_TRUE(layout_->Bootstrap().ok());
    ASSERT_TRUE(layout_->CreateTenant(35).ok());
    ASSERT_TRUE(layout_
                    ->Execute(35,
                              "INSERT INTO account (aid, name) VALUES "
                              "(1, 'Ball'), (2, 'Cone')")
                    .ok());
  }

  /// Tenant 35's rows as "aid:name" strings, in aid order.
  std::vector<std::string> Rows() {
    auto r = layout_->Query(35, "SELECT aid, name FROM account ORDER BY aid");
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    std::vector<std::string> out;
    if (!r.ok()) return out;
    for (const Row& row : r->rows) {
      out.push_back(row[0].ToString() + ":" + row[1].ToString());
    }
    return out;
  }

  AppSchema app_ = FigureFourSchema();
  Database db_;
  std::unique_ptr<SchemaMapping> layout_;
};

// Tenant 35 has no healthcare extension, so `beds` is not one of its
// columns: every layout answers NotFound at mapping time, and EXPLAIN
// MAPPING fails the same way instead of listing a physical statement.
TEST_P(WriteResolutionTest, UnknownColumnFailsAtMappingTime) {
  const std::vector<std::string> before = Rows();
  const char* kStatements[] = {
      "UPDATE account SET beds = 3",
      "UPDATE account SET beds = 3 WHERE aid = 1",
      "UPDATE account SET name = 'x' WHERE beds = 3",
      "UPDATE account SET name = name + beds WHERE aid = 1",
      "DELETE FROM account WHERE beds = 3",
      "DELETE FROM account WHERE account.beds = 3",
  };
  for (const char* logical : kStatements) {
    SCOPED_TRACE(logical);
    Result<int64_t> run = layout_->Execute(35, logical);
    ASSERT_FALSE(run.ok());
    EXPECT_EQ(run.status().code(), StatusCode::kNotFound);
    EXPECT_NE(run.status().message().find("no logical column"),
              std::string::npos)
        << run.status().ToString();
    EXPECT_NE(run.status().message().find("beds in account"),
              std::string::npos)
        << run.status().ToString();

    Result<MappingExplanation> explained = layout_->ExplainMapping(35, logical);
    ASSERT_FALSE(explained.ok()) << explained->ToText();
    EXPECT_EQ(explained.status().code(), StatusCode::kNotFound);
  }
  EXPECT_EQ(Rows(), before);
}

// An unregistered tenant gets NotFound "no such tenant" for every
// statement kind on every layout — Basic included, whose shared table
// would otherwise take the statement and match no rows.
TEST_P(WriteResolutionTest, UnregisteredTenantIsNotFound) {
  const std::vector<std::string> before = Rows();
  const char* kStatements[] = {
      "SELECT aid, name FROM account",
      "INSERT INTO account (aid, name) VALUES (9, 'Ghost')",
      "UPDATE account SET name = 'x'",
      "UPDATE account SET name = 'x' WHERE aid = 1",
      "DELETE FROM account",
      "DELETE FROM account WHERE aid = 1",
  };
  for (const char* logical : kStatements) {
    SCOPED_TRACE(logical);
    Status st = std::string(logical).rfind("SELECT", 0) == 0
                    ? layout_->Query(99, logical).status()
                    : layout_->Execute(99, logical).status();
    EXPECT_EQ(st.code(), StatusCode::kNotFound) << st.ToString();
    EXPECT_NE(st.message().find("no such tenant: 99"), std::string::npos)
        << st.ToString();
    Status explained = layout_->ExplainMapping(99, logical).status();
    EXPECT_EQ(explained.code(), StatusCode::kNotFound) << explained.ToString();
  }
  EXPECT_EQ(Rows(), before);
}

INSTANTIATE_TEST_SUITE_P(AllLayouts, WriteResolutionTest,
                         ::testing::ValuesIn(kAllLayouts), LayoutParamName);

// --- the projected Phase (a) read ---------------------------------------

/// (test name, Chunk Table width) of the multi-source layouts whose
/// Phase (a) projection the EXPLAIN test pins; width 0 is Chunk Folding.
using ProjectionParam = std::tuple<std::string, int>;

std::unique_ptr<SchemaMapping> MakeProjectionLayout(int width, Database* db,
                                                    const AppSchema* app) {
  if (width == 0) return std::make_unique<ChunkFoldingLayout>(db, app);
  ChunkLayoutOptions options;
  options.shape = ChunkShape::Uniform(width);
  return std::make_unique<ChunkTableLayout>(db, app, options);
}

/// A CRM account wide enough that its columns spread over several
/// chunks at widths 3 and 6 and over Chunk Folding's conventional table
/// and folded extension chunks.
AppSchema WideAccountSchema() {
  AppSchema app;
  LogicalTable account;
  account.name = "account";
  account.columns = {{"id", TypeId::kInt64, true},
                     {"name", TypeId::kString, false},
                     {"status", TypeId::kString, false},
                     {"amount", TypeId::kInt64, false},
                     {"employees", TypeId::kInt32, false},
                     {"region", TypeId::kString, false}};
  EXPECT_TRUE(app.AddTable(std::move(account)).ok());
  ExtensionDef health;
  health.name = "healthcare";
  health.base_table = "account";
  health.columns = {{"hospital", TypeId::kString, false},
                    {"beds", TypeId::kInt32, false},
                    {"wards", TypeId::kInt32, false}};
  EXPECT_TRUE(app.AddExtension(std::move(health)).ok());
  return app;
}

class PhaseAProjectionTest : public ::testing::TestWithParam<ProjectionParam> {
 protected:
  void SetUp() override {
    layout_ = MakeProjectionLayout(std::get<1>(GetParam()), &db_, &app_);
    ASSERT_TRUE(layout_->Bootstrap().ok());
    ASSERT_TRUE(layout_->CreateTenant(17).ok());
    ASSERT_TRUE(layout_->EnableExtension(17, "healthcare").ok());
    for (int i = 1; i <= 4; ++i) {
      ASSERT_TRUE(layout_
                      ->Execute(17,
                                "INSERT INTO account (id, name, status, amount, "
                                "employees, region, hospital, beds, wards) "
                                "VALUES (?, 'n', 's', 10, 5, 'r', 'h', 20, 2)",
                                {Value::Int64(i)})
                      .ok());
    }
    auto mapping = layout_->Mapping(17, "account");
    ASSERT_TRUE(mapping.ok());
    mapping_ = *mapping;
  }

  /// The distinct sources the named logical columns map to.
  std::set<size_t> SourcesOf(const std::vector<std::string>& columns) const {
    std::set<size_t> out;
    for (const std::string& c : columns) {
      out.insert(mapping_->columns.at(c).source);
    }
    return out;
  }

  /// The physical tables the Phase (a) SELECT of `logical` reads — the
  /// FROM list of its reconstruction subquery, one entry per joined
  /// source — read back from EXPLAIN MAPPING. Also checks that Phase (a)
  /// is the explanation's first statement and that Phase (b) follows.
  size_t PhaseASourceCount(const std::string& logical) {
    auto explained = layout_->ExplainMapping(17, logical, {Value::Int64(2)});
    EXPECT_TRUE(explained.ok()) << explained.status().ToString();
    if (!explained.ok() || explained->statements.size() < 2) {
      ADD_FAILURE() << "expected Phase (a) and Phase (b) statements";
      return 0;
    }
    const PhysicalStatementPlan& read = explained->statements[0];
    EXPECT_EQ(read.op, "select");
    auto parsed = sql::Parse(read.sql);
    EXPECT_TRUE(parsed.ok()) << read.sql;
    if (!parsed.ok() || parsed->kind != sql::StatementKind::kSelect ||
        parsed->select->from.size() != 1 ||
        !parsed->select->from[0].is_subquery()) {
      ADD_FAILURE() << "unexpected Phase (a) shape: " << read.sql;
      return 0;
    }
    for (size_t i = 1; i < explained->statements.size(); ++i) {
      EXPECT_NE(explained->statements[i].op, "select") << read.sql;
    }
    return parsed->select->from[0].subquery->from.size();
  }

  AppSchema app_ = WideAccountSchema();
  Database db_;
  std::unique_ptr<SchemaMapping> layout_;
  const TableMapping* mapping_ = nullptr;
};

TEST_P(PhaseAProjectionTest, ReadJoinsOnlyTheSourcesTheWriteReads) {
  // The layout spreads the row over several sources and `beds` does not
  // share `id`'s (the WHERE's), so a reconstruction of the whole row
  // would join more sources than any projection below needs.
  ASSERT_GE(mapping_->sources.size(), 2u);
  ASSERT_EQ(SourcesOf({"id", "beds"}).size(), 2u);
  ASSERT_LT(SourcesOf({"id"}).size(), mapping_->sources.size());

  // A constant SET reads nothing: the WHERE column's source alone.
  EXPECT_EQ(PhaseASourceCount("UPDATE account SET name = 'x' WHERE id = ?"),
            SourcesOf({"id"}).size());
  // So does a DELETE.
  EXPECT_EQ(PhaseASourceCount("DELETE FROM account WHERE id = ?"),
            SourcesOf({"id"}).size());
  // A SET that reads an old value adds the source of what it reads.
  EXPECT_EQ(
      PhaseASourceCount("UPDATE account SET name = 'x', beds = beds + 1 "
                        "WHERE id = ?"),
      SourcesOf({"id", "beds"}).size());
  EXPECT_EQ(PhaseASourceCount(
                "UPDATE account SET amount = beds * 2 WHERE id = ? AND "
                "employees > 1"),
            SourcesOf({"id", "beds", "employees"}).size());
}

INSTANTIATE_TEST_SUITE_P(
    ChunkLayouts, PhaseAProjectionTest,
    ::testing::Values(ProjectionParam{"chunk3", 3}, ProjectionParam{"chunk6", 6},
                      ProjectionParam{"chunkfolding", 0}),
    [](const ::testing::TestParamInfo<ProjectionParam>& info) {
      return std::get<0>(info.param);
    });

// --- SETs that read old values across sources ---------------------------

/// `item` spreads its columns so that on every multi-source layout a
/// statement's WHERE column, SET target and the column its SET reads can
/// sit in different sources: `hospital` and `beds` live in the extension,
/// `amount` and `qty` in the base table, with other columns between them.
/// Basic has no extensions and uses the base columns `tag` and `level`
/// in their place.
AppSchema ItemSchema() {
  AppSchema app;
  LogicalTable item;
  item.name = "item";
  item.columns = {{"id", TypeId::kInt64, true},
                  {"amount", TypeId::kInt64, false},
                  {"p1", TypeId::kInt32, false},
                  {"tag", TypeId::kString, false},
                  {"qty", TypeId::kInt32, false},
                  {"level", TypeId::kInt32, false}};
  EXPECT_TRUE(app.AddTable(std::move(item)).ok());
  ExtensionDef ext;
  ext.name = "extra";
  ext.base_table = "item";
  ext.columns = {{"hospital", TypeId::kString, false},
                 {"beds", TypeId::kInt32, false}};
  EXPECT_TRUE(app.AddExtension(std::move(ext)).ok());
  return app;
}

/// Param: (layout, Chunk Table width). The width applies to the Chunk
/// Table layout only; the others run once at width 0.
using SweepParam = std::tuple<LayoutKind, int>;

struct ShadowRow {
  int64_t amount;
  std::string hospital;
  int64_t beds;
  int64_t qty;
};

class CrossSourceSetTest : public ::testing::TestWithParam<SweepParam> {
 protected:
  void SetUp() override {
    const auto [kind, width] = GetParam();
    if (kind == LayoutKind::kChunk) {
      ChunkLayoutOptions options;
      options.shape = ChunkShape::Uniform(width);
      layout_ = std::make_unique<ChunkTableLayout>(&db_, &app_, options);
    } else {
      layout_ = MakeLayout(kind, &db_, &app_);
    }
    ASSERT_TRUE(layout_->Bootstrap().ok());
    ASSERT_TRUE(layout_->CreateTenant(1).ok());
    const bool extended = layout_->EnableExtension(1, "extra").ok();
    ASSERT_EQ(extended, kind != LayoutKind::kBasic);
    hospital_ = extended ? "hospital" : "tag";
    beds_ = extended ? "beds" : "level";
    for (int64_t id = 1; id <= 12; ++id) {
      ShadowRow row{id * 10, "h" + std::to_string(id % 3), id % 4, id};
      ASSERT_TRUE(layout_
                      ->Execute(1,
                                Sql("INSERT INTO item (id, amount, p1, {H}, "
                                    "qty, {B}) VALUES (?, ?, 7, ?, ?, ?)"),
                                {Value::Int64(id), Value::Int64(row.amount),
                                 Value::String(row.hospital),
                                 Value::Int64(row.qty), Value::Int64(row.beds)})
                      .ok());
      shadow_[id] = row;
    }
  }

  /// Substitutes the extension column names ({H}, {B}) for this layout.
  std::string Sql(std::string text) const {
    for (auto [from, to] : {std::pair<std::string, std::string>{"{H}", hospital_},
                            {"{B}", beds_}}) {
      for (size_t at; (at = text.find(from)) != std::string::npos;) {
        text.replace(at, from.size(), to);
      }
    }
    return text;
  }

  /// Runs `logical`, applies `apply` to every shadow row `match` selects,
  /// and checks the count and the full logical table against the model.
  template <typename Match, typename Apply>
  void Update(const std::string& logical, const std::vector<Value>& params,
              Match match, Apply apply) {
    SCOPED_TRACE(Sql(logical));
    int64_t expected = 0;
    for (auto& [id, row] : shadow_) {
      if (!match(id, row)) continue;
      apply(row);
      ++expected;
    }
    Result<int64_t> n = layout_->Execute(1, Sql(logical), params);
    ASSERT_TRUE(n.ok()) << n.status().ToString();
    EXPECT_EQ(*n, expected);
    ExpectTableMatchesShadow();
  }

  template <typename Match>
  void Delete(const std::string& logical, const std::vector<Value>& params,
              Match match) {
    SCOPED_TRACE(Sql(logical));
    int64_t expected = 0;
    for (auto it = shadow_.begin(); it != shadow_.end();) {
      if (match(it->first, it->second)) {
        it = shadow_.erase(it);
        ++expected;
      } else {
        ++it;
      }
    }
    Result<int64_t> n = layout_->Execute(1, Sql(logical), params);
    ASSERT_TRUE(n.ok()) << n.status().ToString();
    EXPECT_EQ(*n, expected);
    ExpectTableMatchesShadow();
  }

  void ExpectTableMatchesShadow() {
    auto r = layout_->Query(
        1, Sql("SELECT id, amount, {H}, {B}, qty FROM item ORDER BY id"));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(r->rows.size(), shadow_.size());
    size_t i = 0;
    for (const auto& [id, row] : shadow_) {
      const Row& got = r->rows[i++];
      EXPECT_EQ(got[0].AsInt64(), id);
      EXPECT_EQ(got[1].AsInt64(), row.amount) << "id " << id;
      EXPECT_EQ(got[2].ToString(), row.hospital) << "id " << id;
      EXPECT_EQ(got[3].AsInt64(), row.beds) << "id " << id;
      EXPECT_EQ(got[4].AsInt64(), row.qty) << "id " << id;
    }
  }

  AppSchema app_ = ItemSchema();
  Database db_;
  std::unique_ptr<SchemaMapping> layout_;
  std::string hospital_, beds_;
  std::map<int64_t, ShadowRow> shadow_;
};

TEST_P(CrossSourceSetTest, SetsReadCurrentValuesFromOtherSources) {
  // WHERE on hospital, SET beds from amount.
  Update("UPDATE item SET {B} = amount + 1 WHERE {H} = ?",
         {Value::String("h1")},
         [](int64_t, const ShadowRow& r) { return r.hospital == "h1"; },
         [](ShadowRow& r) { r.beds = r.amount + 1; });
  // WHERE on beds, SET amount from itself.
  Update("UPDATE item SET amount = amount * 2 WHERE {B} = ?",
         {Value::Int64(2)},
         [](int64_t, const ShadowRow& r) { return r.beds == 2; },
         [](ShadowRow& r) { r.amount *= 2; });
  // Two SETs reading each other's old values from different sources.
  Update("UPDATE item SET qty = {B} - qty, {B} = qty + amount WHERE id > ?",
         {Value::Int64(6)},
         [](int64_t id, const ShadowRow&) { return id > 6; },
         [](ShadowRow& r) {
           const int64_t qty = r.qty;
           r.qty = r.beds - qty;
           r.beds = qty + r.amount;
         });
  // A SET that reads the WHERE column, with a constant SET beside it.
  Update("UPDATE item SET {H} = ?, amount = qty * 3 WHERE qty < ?",
         {Value::String("moved"), Value::Int64(5)},
         [](int64_t, const ShadowRow& r) { return r.qty < 5; },
         [](ShadowRow& r) {
           r.hospital = "moved";
           r.amount = r.qty * 3;
         });
  // Constant SETs only, WHERE on a column no SET touches.
  Update("UPDATE item SET {B} = ? WHERE amount > ?",
         {Value::Int64(77), Value::Int64(100)},
         [](int64_t, const ShadowRow& r) { return r.amount > 100; },
         [](ShadowRow& r) { r.beds = 77; });
  // A SET reading a column that no longer matches the WHERE it chose by.
  Update("UPDATE item SET {H} = 'h9', qty = {B} WHERE {H} = ?",
         {Value::String("h2")},
         [](int64_t, const ShadowRow& r) { return r.hospital == "h2"; },
         [](ShadowRow& r) {
           r.hospital = "h9";
           r.qty = r.beds;
         });
  Delete("DELETE FROM item WHERE {B} = ?", {Value::Int64(77)},
         [](int64_t, const ShadowRow& r) { return r.beds == 77; });
  Delete("DELETE FROM item WHERE {H} = ? AND amount < ?",
         {Value::String("h9"), Value::Int64(1000)},
         [](int64_t, const ShadowRow& r) {
           return r.hospital == "h9" && r.amount < 1000;
         });
  ASSERT_FALSE(shadow_.empty());

  // A WHERE on an unknown column fails with the same code on every
  // layout and changes nothing.
  for (const char* logical :
       {"UPDATE item SET amount = 1 WHERE nosuch = 1",
        "UPDATE item SET amount = nosuch WHERE id = 1",
        "DELETE FROM item WHERE nosuch = 1"}) {
    SCOPED_TRACE(logical);
    Result<int64_t> n = layout_->Execute(1, logical);
    ASSERT_FALSE(n.ok());
    EXPECT_EQ(n.status().code(), StatusCode::kNotFound)
        << n.status().ToString();
  }
  ExpectTableMatchesShadow();
}

std::vector<SweepParam> SweepParams() {
  std::vector<SweepParam> out;
  for (LayoutKind kind : kAllLayouts) {
    if (kind == LayoutKind::kChunk) {
      out.emplace_back(kind, 3);
      out.emplace_back(kind, 6);
    } else {
      out.emplace_back(kind, 0);
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    AllLayouts, CrossSourceSetTest, ::testing::ValuesIn(SweepParams()),
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      std::string name = LayoutKindName(std::get<0>(info.param));
      if (std::get<1>(info.param) > 0) {
        name += std::to_string(std::get<1>(info.param));
      }
      return name;
    });

}  // namespace
}  // namespace mapping
}  // namespace mtdb
