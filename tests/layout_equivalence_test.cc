#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>

#include "common/rng.h"
#include "core/tenant_session.h"
#include "mapping_test_util.h"

namespace mtdb {
namespace mapping {
namespace {

/// Property test: every extensible layout must produce exactly the same
/// logical results for the same randomized workload — the mapping is an
/// implementation detail the application can never observe (§3's promise
/// that generic structures hide behind the query-transformation layer).
///
/// The reference model is a plain in-memory table per tenant.
struct ModelRow {
  int64_t aid;
  std::string name;
  // Extension columns (only meaningful for the tenant that has them).
  std::string hospital;
  int64_t beds = -1;      // -1 encodes NULL
  int64_t dealers = -1;
};

class LayoutEquivalenceTest : public ::testing::TestWithParam<LayoutKind> {};

TEST_P(LayoutEquivalenceTest, RandomizedWorkloadMatchesModel) {
  AppSchema app = FigureFourSchema();
  Database db;
  std::unique_ptr<SchemaMapping> layout = MakeLayout(GetParam(), &db, &app);
  ASSERT_TRUE(layout->Bootstrap().ok());
  ASSERT_TRUE(layout->CreateTenant(17).ok());
  ASSERT_TRUE(layout->CreateTenant(35).ok());
  ASSERT_TRUE(layout->EnableExtension(17, "healthcare").ok());

  std::vector<ModelRow> model17, model35;
  Rng rng(GetParam() == LayoutKind::kPivot ? 1 : 2);
  int64_t next_aid = 1;

  for (int op = 0; op < 120; ++op) {
    int choice = static_cast<int>(rng.Uniform(0, 9));
    if (choice < 5) {
      // Insert into tenant 17 (with extension columns).
      int64_t aid = next_aid++;
      std::string name = rng.Word(3, 8);
      std::string hospital = rng.Word(3, 8);
      int64_t beds = rng.Uniform(1, 2000);
      ASSERT_TRUE(layout
                      ->Execute(17,
                                "INSERT INTO account (aid, name, hospital, "
                                "beds) VALUES (?, ?, ?, ?)",
                                {Value::Int64(aid), Value::String(name),
                                 Value::String(hospital), Value::Int64(beds)})
                      .ok());
      model17.push_back({aid, name, hospital, beds, -1});
    } else if (choice < 7) {
      // Insert into tenant 35 (base columns only).
      int64_t aid = next_aid++;
      std::string name = rng.Word(3, 8);
      ASSERT_TRUE(
          layout
              ->Execute(35, "INSERT INTO account (aid, name) VALUES (?, ?)",
                        {Value::Int64(aid), Value::String(name)})
              .ok());
      model35.push_back({aid, name, "", -1, -1});
    } else if (choice < 8 && !model17.empty()) {
      // Update a random tenant-17 row's beds.
      size_t i = static_cast<size_t>(
          rng.Uniform(0, static_cast<int64_t>(model17.size()) - 1));
      int64_t new_beds = rng.Uniform(1, 5000);
      auto n = layout->Execute(
          17, "UPDATE account SET beds = ? WHERE aid = ?",
          {Value::Int64(new_beds), Value::Int64(model17[i].aid)});
      ASSERT_TRUE(n.ok()) << n.status().ToString();
      ASSERT_EQ(*n, 1);
      model17[i].beds = new_beds;
    } else if (!model17.empty()) {
      // Delete a random tenant-17 row.
      size_t i = static_cast<size_t>(
          rng.Uniform(0, static_cast<int64_t>(model17.size()) - 1));
      auto n = layout->Execute(17, "DELETE FROM account WHERE aid = ?",
                               {Value::Int64(model17[i].aid)});
      ASSERT_TRUE(n.ok()) << n.status().ToString();
      ASSERT_EQ(*n, 1);
      model17.erase(model17.begin() + static_cast<ptrdiff_t>(i));
    }
  }

  // Full-table comparison for tenant 17.
  auto r17 =
      layout->Query(17, "SELECT aid, name, hospital, beds FROM account "
                        "ORDER BY aid");
  ASSERT_TRUE(r17.ok()) << r17.status().ToString();
  std::sort(model17.begin(), model17.end(),
            [](const ModelRow& a, const ModelRow& b) { return a.aid < b.aid; });
  ASSERT_EQ(r17->rows.size(), model17.size());
  for (size_t i = 0; i < model17.size(); ++i) {
    EXPECT_EQ(r17->rows[i][0].AsInt64(), model17[i].aid);
    EXPECT_EQ(r17->rows[i][1].AsString(), model17[i].name);
    EXPECT_EQ(r17->rows[i][2].AsString(), model17[i].hospital);
    EXPECT_EQ(r17->rows[i][3].AsInt64(), model17[i].beds);
  }

  // Tenant 35 remains isolated and extension-free.
  auto r35 = layout->Query(35, "SELECT aid, name FROM account ORDER BY aid");
  ASSERT_TRUE(r35.ok());
  ASSERT_EQ(r35->rows.size(), model35.size());
  for (size_t i = 0; i < model35.size(); ++i) {
    EXPECT_EQ(r35->rows[i][0].AsInt64(), model35[i].aid);
    EXPECT_EQ(r35->rows[i][1].AsString(), model35[i].name);
  }

  // Predicate queries agree with a model-side filter.
  auto filtered = layout->Query(
      17, "SELECT COUNT(*) FROM account WHERE beds > 1000");
  ASSERT_TRUE(filtered.ok()) << filtered.status().ToString();
  int64_t expected = static_cast<int64_t>(
      std::count_if(model17.begin(), model17.end(),
                    [](const ModelRow& r) { return r.beds > 1000; }));
  EXPECT_EQ(filtered->rows[0][0].AsInt64(), expected);
}

INSTANTIATE_TEST_SUITE_P(
    AllExtensibleLayouts, LayoutEquivalenceTest,
    ::testing::Values(LayoutKind::kPrivate, LayoutKind::kExtension,
                      LayoutKind::kUniversal, LayoutKind::kPivot,
                      LayoutKind::kChunk, LayoutKind::kVertical,
                      LayoutKind::kChunkFolding),
    [](const ::testing::TestParamInfo<LayoutKind>& info) {
      return LayoutKindName(info.param);
    });

/// Emission-mode x layout sweep: nested and flattened transformations
/// must agree on every layout.
class EmissionEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<LayoutKind, EmitMode>> {};

TEST_P(EmissionEquivalenceTest, SameAnswerUnderBothPlanners) {
  auto [kind, emit] = GetParam();
  AppSchema app = FigureFourSchema();
  Database db;
  std::unique_ptr<SchemaMapping> layout = MakeLayout(kind, &db, &app);
  ASSERT_TRUE(layout->Bootstrap().ok());
  ASSERT_TRUE(LoadFigureFourData(layout.get()).ok());
  layout->transform_options().emit_mode = emit;
  for (PlannerMode mode : {PlannerMode::kNaive, PlannerMode::kAdvanced}) {
    db.set_planner_mode(mode);
    auto r = layout->Query(
        17, "SELECT name FROM account WHERE beds > 500 ORDER BY name");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(r->rows.size(), 1u);
    EXPECT_EQ(r->rows[0][0].AsString(), "Gump");
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EmissionEquivalenceTest,
    ::testing::Combine(::testing::Values(LayoutKind::kExtension,
                                         LayoutKind::kUniversal,
                                         LayoutKind::kPivot, LayoutKind::kChunk,
                                         LayoutKind::kChunkFolding),
                       ::testing::Values(EmitMode::kNested,
                                         EmitMode::kFlattened)),
    [](const ::testing::TestParamInfo<std::tuple<LayoutKind, EmitMode>>& info) {
      return std::string(LayoutKindName(std::get<0>(info.param))) +
             (std::get<1>(info.param) == EmitMode::kNested ? "_nested"
                                                           : "_flattened");
    });

constexpr LayoutKind kAllLayouts[] = {
    LayoutKind::kBasic,    LayoutKind::kPrivate, LayoutKind::kExtension,
    LayoutKind::kUniversal, LayoutKind::kPivot,  LayoutKind::kChunk,
    LayoutKind::kVertical, LayoutKind::kChunkFolding};

std::string LayoutParamName(const ::testing::TestParamInfo<LayoutKind>& info) {
  return LayoutKindName(info.param);
}

/// Counts the physical statements a layout emits.
class EmitCounter : public PhysicalStatementObserver {
 public:
  void OnSelect(TenantId, const sql::SelectStmt&) override { ++emitted; }
  void OnStatement(TenantId, const sql::Statement&) override { ++emitted; }
  int emitted = 0;
};

/// An INSERT's column list resolves like an UPDATE's SET list: an unknown
/// column is NotFound with ResolveWrite's message and a repeated one is
/// InvalidArgument, on every layout, before a row id is taken, a lock is
/// taken or a physical statement is emitted or explained.
class InsertColumnsTest : public ::testing::TestWithParam<LayoutKind> {};

TEST_P(InsertColumnsTest, UnknownAndRepeatedColumnsFailFirst) {
  AppSchema app = FigureFourSchema();
  Database db;
  auto layout = MakeLayout(GetParam(), &db, &app);
  ASSERT_TRUE(layout->Bootstrap().ok());
  ASSERT_TRUE(layout->CreateTenant(17).ok());
  TenantSession session = layout->OpenSession(17);
  EmitCounter counter;
  layout->set_statement_observer(&counter);
  const std::string probe = "INSERT INTO account (aid, name) VALUES (8, 'p')";
  auto explain_before = session.Explain(probe);
  ASSERT_TRUE(explain_before.ok()) << explain_before.status().ToString();
  const size_t locks_before = db.lock_manager()->entries();

  struct Case {
    const char* sql;
    StatusCode code;
    const char* message;
  };
  for (const Case& c :
       {Case{"INSERT INTO account (aid, name, nosuch) VALUES (9, 'x', 1)",
             StatusCode::kNotFound, "no logical column nosuch in account"},
        Case{"INSERT INTO account (aid, aid, name) VALUES (9, 10, 'x')",
             StatusCode::kInvalidArgument, "aid"}}) {
    SCOPED_TRACE(c.sql);
    auto n = session.Execute(c.sql);
    ASSERT_FALSE(n.ok());
    EXPECT_EQ(n.status().code(), c.code) << n.status().ToString();
    EXPECT_NE(n.status().message().find(c.message), std::string::npos)
        << n.status().ToString();
    auto explained = session.Explain(c.sql);
    ASSERT_FALSE(explained.ok());
    EXPECT_EQ(explained.status().code(), c.code);
  }
  EXPECT_EQ(counter.emitted, 0);
  EXPECT_EQ(db.lock_manager()->entries(), locks_before);
  layout->set_statement_observer(nullptr);
  // The next insert still gets the row id the probe explained.
  auto explain_after = session.Explain(probe);
  ASSERT_TRUE(explain_after.ok());
  EXPECT_EQ(explain_after->ToText(), explain_before->ToText());
  auto count = session.Query("SELECT COUNT(*) FROM account");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->rows[0][0].AsInt64(), 0);
}

INSTANTIATE_TEST_SUITE_P(AllLayouts, InsertColumnsTest,
                         ::testing::ValuesIn(kAllLayouts), LayoutParamName);

/// Unique keys follow one rule on every layout: a key with a NULL part
/// never conflicts, and an UPDATE that moves a row onto a taken id has the
/// outcome of INSERT-ing that duplicate. Basic and Private keep a unique
/// index on (tenant, first column), so both are ConstraintViolation there
/// and the table is left as it was; the row-id layouts keep no such index
/// and accept both.
class UniqueKeyTest : public ::testing::TestWithParam<LayoutKind> {};

TEST_P(UniqueKeyTest, NullKeysInsertAndUpdateDuplicatesMatchInsert) {
  AppSchema app = FigureFourSchema();
  Database db;
  auto layout = MakeLayout(GetParam(), &db, &app);
  ASSERT_TRUE(layout->Bootstrap().ok());
  ASSERT_TRUE(layout->CreateTenant(17).ok());
  TenantSession session = layout->OpenSession(17);
  auto nulls = session.Execute(
      "INSERT INTO account (aid, name) VALUES (NULL, 'a'), (NULL, 'b')");
  ASSERT_TRUE(nulls.ok()) << nulls.status().ToString();
  ASSERT_TRUE(
      session.Execute("INSERT INTO account (aid, name) VALUES (1, 'x'), "
                      "(2, 'y')")
          .ok());
  auto contents = [&] {
    std::vector<std::string> out;
    auto r = session.Query("SELECT aid, name FROM account ORDER BY name");
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (!r.ok()) return out;
    for (const Row& row : r->rows) {
      out.push_back(row[0].ToString() + ":" + row[1].ToString());
    }
    return out;
  };
  const std::vector<std::string> before = contents();
  ASSERT_EQ(before, (std::vector<std::string>{"NULL:a", "NULL:b", "1:x",
                                              "2:y"}));

  auto inserted = session.Execute(
      "INSERT INTO account (aid, name) VALUES (1, 'z')");
  if (inserted.ok()) {
    ASSERT_TRUE(session.Execute("DELETE FROM account WHERE name = 'z'").ok());
  } else {
    EXPECT_EQ(inserted.status().code(), StatusCode::kConstraintViolation)
        << inserted.status().ToString();
  }
  EXPECT_EQ(contents(), before);

  auto updated = session.Execute("UPDATE account SET aid = 1 WHERE aid = 2");
  EXPECT_EQ(updated.ok(), inserted.ok()) << updated.status().ToString();
  EXPECT_EQ(updated.status().code(), inserted.status().code());
  if (!updated.ok()) {
    EXPECT_EQ(contents(), before);
  }
}

INSTANTIATE_TEST_SUITE_P(AllLayouts, UniqueKeyTest,
                         ::testing::ValuesIn(kAllLayouts), LayoutParamName);

/// Runs statements on tenant 17 of one layout or, with no layout, on a
/// plain engine Session over a physical account table of the same shape.
class WriteTarget {
 public:
  explicit WriteTarget(std::optional<LayoutKind> kind) : app_(FigureFourSchema()) {
    if (kind.has_value()) {
      layout_ = MakeLayout(*kind, &db_, &app_);
      EXPECT_TRUE(layout_->Bootstrap().ok());
      EXPECT_TRUE(layout_->CreateTenant(17).ok());
      tenant_ = layout_->OpenSession(17);
    } else {
      EXPECT_TRUE(
          db_.Execute("CREATE TABLE account (aid BIGINT, name VARCHAR)").ok());
      engine_ = db_.OpenSession();
    }
  }

  Result<int64_t> Execute(const std::string& sql,
                          const std::vector<Value>& params = {}) {
    if (layout_ != nullptr) return tenant_.Execute(sql, params);
    MTDB_ASSIGN_OR_RETURN(StatementResult r, engine_.Execute(sql, params));
    return AffectedOf(r);
  }

  Result<QueryResult> Query(const std::string& sql,
                            const std::vector<Value>& params = {}) {
    return layout_ != nullptr ? tenant_.Query(sql, params)
                              : engine_.Query(sql, params);
  }

 private:
  AppSchema app_;
  Database db_;
  std::unique_ptr<SchemaMapping> layout_;
  TenantSession tenant_;
  Session engine_;
};

using WriteTargetParam = std::optional<LayoutKind>;

/// A write's SET and VALUES expressions compute what the same expression
/// computes in a SELECT: the same value, or the same error code, on all
/// eight layouts and on the plain engine — never a different error, and
/// never a crash.
class WriteExpressionTest : public ::testing::TestWithParam<WriteTargetParam> {
};

TEST_P(WriteExpressionTest, SetAndValuesMatchSelect) {
  struct Case {
    std::string write;
    std::vector<Value> params;
    /// The write's expression as a SELECT over the row it writes.
    std::string select;
    /// Reads the written value back (or, for a failed write, a state the
    /// failure must leave unchanged).
    std::string check;
    /// The expected outcome: the value, or the error code.
    std::optional<Value> value;
    StatusCode code = StatusCode::kOk;
  };
  const std::string row3 = " FROM account WHERE aid = 3";
  const std::vector<Case> cases = {
      {"UPDATE account SET aid = aid % 4 + 100 WHERE aid = 3", {},
       "SELECT aid % 4 + 100" + row3, "SELECT aid FROM account WHERE name = 'c'",
       Value::Int64(103)},
      {"INSERT INTO account (aid, name) VALUES (9 % 4 + 50, 'z')", {},
       "SELECT 9 % 4 + 50" + row3, "SELECT aid FROM account WHERE name = 'z'",
       Value::Int64(51)},
      {"UPDATE account SET name = name - 1 WHERE aid = 3", {},
       "SELECT name - 1" + row3, "SELECT name" + row3, std::nullopt,
       StatusCode::kTypeMismatch},
      {"INSERT INTO account (aid, name) VALUES (51, 'z' - 1)", {},
       "SELECT 'z' - 1" + row3, "SELECT COUNT(*) FROM account", std::nullopt,
       StatusCode::kTypeMismatch},
      {"UPDATE account SET aid = 7.5 % 2 WHERE aid = 3", {},
       "SELECT 7.5 % 2" + row3, "SELECT aid FROM account WHERE name = 'c'",
       std::nullopt, StatusCode::kTypeMismatch},
      {"UPDATE account SET aid = aid / 0 WHERE aid = 3", {},
       "SELECT aid / 0" + row3, "SELECT aid FROM account WHERE name = 'c'",
       std::nullopt, StatusCode::kInvalidArgument},
      {"INSERT INTO account (aid, name) VALUES (1 / 0, 'z')", {},
       "SELECT 1 / 0" + row3, "SELECT COUNT(*) FROM account", std::nullopt,
       StatusCode::kInvalidArgument},
      {"UPDATE account SET aid = -aid WHERE aid = 3", {}, "SELECT -aid" + row3,
       "SELECT aid FROM account WHERE name = 'c'", Value::Int64(-3)},
      {"UPDATE account SET name = -name WHERE aid = 3", {},
       "SELECT -name" + row3, "SELECT name" + row3, std::nullopt,
       StatusCode::kTypeMismatch},
      {"UPDATE account SET name = name + NULL WHERE aid = 3", {},
       "SELECT name + NULL" + row3, "SELECT name" + row3, Value::Null()},
      {"UPDATE account SET aid = NULL * aid WHERE aid = 3", {},
       "SELECT NULL * aid" + row3, "SELECT aid FROM account WHERE name = 'c'",
       Value::Null()},
      {"UPDATE account SET name = name + 'x' + aid WHERE aid = 3", {},
       "SELECT name + 'x' + aid" + row3, "SELECT name" + row3,
       Value::String("cx3")},
      {"UPDATE account SET name = account.name + 'q' WHERE account.aid = 3",
       {}, "SELECT account.name + 'q'" + row3, "SELECT name" + row3,
       Value::String("cq")},
      {"UPDATE account SET name = name + 1.5 WHERE aid = 3", {},
       "SELECT name + 1.5" + row3, "SELECT name" + row3,
       Value::String("c1.5")},
      {"UPDATE account SET name = name - 1.5 WHERE aid = 3", {},
       "SELECT name - 1.5" + row3, "SELECT name" + row3, std::nullopt,
       StatusCode::kTypeMismatch},
      {"INSERT INTO account (aid, name) VALUES (52, 'z' + 2.5)", {},
       "SELECT 'z' + 2.5" + row3, "SELECT name FROM account WHERE aid = 52",
       Value::String("z2.5")},
      {"UPDATE account SET name = name + ? WHERE aid = 3", {Value::Double(0.25)},
       "SELECT name + ?" + row3, "SELECT name" + row3, Value::String("c0.25")},
      {"UPDATE account SET aid = ? * 2 + aid WHERE aid = 3", {Value::Int64(20)},
       "SELECT ? * 2 + aid" + row3, "SELECT aid FROM account WHERE name = 'c'",
       Value::Int64(43)},
      {"INSERT INTO account (aid, name) VALUES (? + 1, ?)",
       {Value::Int64(60), Value::String("p")}, "SELECT ? + 1" + row3,
       "SELECT aid FROM account WHERE name = 'p'", Value::Int64(61)},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.write);
    WriteTarget target(GetParam());
    for (int64_t aid = 1; aid <= 4; ++aid) {
      ASSERT_TRUE(target
                      .Execute("INSERT INTO account (aid, name) VALUES (?, ?)",
                               {Value::Int64(aid),
                                Value::String(std::string(1, 'a' + aid - 1))})
                      .ok());
    }
    Result<QueryResult> selected = target.Query(c.select, c.params);
    Result<QueryResult> before = target.Query(c.check);
    ASSERT_TRUE(before.ok()) << before.status().ToString();
    Result<int64_t> written = target.Execute(c.write, c.params);
    Result<QueryResult> after = target.Query(c.check);
    ASSERT_TRUE(after.ok()) << after.status().ToString();
    ASSERT_EQ(after->rows.size(), 1u);
    const Value& got = after->rows[0][0];
    if (c.value.has_value()) {
      ASSERT_TRUE(selected.ok()) << selected.status().ToString();
      EXPECT_EQ(selected->rows[0][0].is_null(), c.value->is_null());
      if (!c.value->is_null()) {
        EXPECT_EQ(selected->rows[0][0].Compare(*c.value), 0);
      }
      ASSERT_TRUE(written.ok()) << written.status().ToString();
      EXPECT_EQ(*written, 1);
      EXPECT_EQ(got.is_null(), c.value->is_null()) << got.ToString();
      if (!c.value->is_null()) {
        EXPECT_EQ(got.Compare(*c.value), 0) << got.ToString();
      }
    } else {
      ASSERT_FALSE(selected.ok());
      EXPECT_EQ(selected.status().code(), c.code) << selected.status().ToString();
      ASSERT_FALSE(written.ok());
      EXPECT_EQ(written.status().code(), c.code) << written.status().ToString();
      EXPECT_EQ(got.Compare(before->rows[0][0]), 0) << got.ToString();
    }
  }
}

std::vector<WriteTargetParam> WriteTargets() {
  std::vector<WriteTargetParam> out(std::begin(kAllLayouts),
                                    std::end(kAllLayouts));
  out.push_back(std::nullopt);
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    AllLayoutsAndEngine, WriteExpressionTest, ::testing::ValuesIn(WriteTargets()),
    [](const ::testing::TestParamInfo<WriteTargetParam>& info) {
      return info.param.has_value() ? LayoutKindName(*info.param) : "engine";
    });

/// A NULL foreign key joins nothing on every layout: the logical join of
/// orders to customers by customer code must not pair an order without a
/// code with a customer without one.
class NullForeignKeyJoinTest : public ::testing::TestWithParam<LayoutKind> {};

TEST_P(NullForeignKeyJoinTest, NullKeysNeverMatch) {
  AppSchema app;
  {
    LogicalTable customer;
    customer.name = "customer";
    customer.columns = {{"id", TypeId::kInt64, true},
                        {"code", TypeId::kInt64, true},
                        {"cname", TypeId::kString, false}};
    ASSERT_TRUE(app.AddTable(std::move(customer)).ok());
    LogicalTable orders;
    orders.name = "orders";
    orders.columns = {{"oid", TypeId::kInt64, true},
                      {"code", TypeId::kInt64, true}};
    ASSERT_TRUE(app.AddTable(std::move(orders)).ok());
  }
  Database db;
  auto layout = MakeLayout(GetParam(), &db, &app);
  ASSERT_TRUE(layout->Bootstrap().ok());
  ASSERT_TRUE(layout->CreateTenant(5).ok());
  for (const char* sql :
       {"INSERT INTO customer (id, code, cname) VALUES (1, 1, 'one'), "
        "(2, 2, 'two'), (3, NULL, 'nobody'), (4, NULL, 'ghost')",
        "INSERT INTO orders (oid, code) VALUES (10, 1), (11, 1), (12, 2), "
        "(13, NULL), (14, NULL), (15, 3)"}) {
    auto n = layout->Execute(5, sql);
    ASSERT_TRUE(n.ok()) << n.status().ToString();
  }
  for (PlannerMode mode : {PlannerMode::kNaive, PlannerMode::kAdvanced}) {
    db.set_planner_mode(mode);
    for (const char* sql :
         {"SELECT o.oid, c.cname FROM orders o, customer c "
          "WHERE o.code = c.code",
          "SELECT o.oid, c.cname FROM customer c, orders o "
          "WHERE c.code = o.code"}) {
      SCOPED_TRACE(sql);
      auto r = layout->Query(5, sql);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      std::multiset<std::pair<int64_t, std::string>> got;
      for (const Row& row : r->rows) {
        got.insert({row[0].AsInt64(), row[1].AsString()});
      }
      const std::multiset<std::pair<int64_t, std::string>> want = {
          {10, "one"}, {11, "one"}, {12, "two"}};
      EXPECT_EQ(got, want);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllLayouts, NullForeignKeyJoinTest,
                         ::testing::ValuesIn(kAllLayouts), LayoutParamName);

}  // namespace
}  // namespace mapping
}  // namespace mtdb
