#include <gtest/gtest.h>

#include <functional>

#include "engine/database.h"
#include "mapping_test_util.h"

namespace mtdb {
namespace {

/// Plan-shape tests (the paper's Test 2 explains plans for Q2 over
/// chunked and conventional schemas).
class PlannerTest : public ::testing::Test {
 protected:
  PlannerTest() {
    // A chunk-table-like physical schema: meta columns + data columns.
    EXPECT_TRUE(db_.Execute("CREATE TABLE chunkdata (tenant INT, tbl INT, "
                            "chunk INT, row BIGINT, int1 BIGINT, str1 VARCHAR)")
                    .ok());
    EXPECT_TRUE(db_.Execute("CREATE UNIQUE INDEX ux_tcr ON chunkdata "
                            "(tenant, tbl, chunk, row)")
                    .ok());
    EXPECT_TRUE(db_.Execute("CREATE INDEX ix_itcr ON chunkdata "
                            "(int1, tenant, tbl, chunk)")
                    .ok());
    for (int row = 0; row < 50; ++row) {
      EXPECT_TRUE(db_.Execute("INSERT INTO chunkdata VALUES (17, 0, 0, " +
                              std::to_string(row) + ", " +
                              std::to_string(row * 2) + ", 'v" +
                              std::to_string(row) + "')")
                      .ok());
      EXPECT_TRUE(db_.Execute("INSERT INTO chunkdata VALUES (17, 0, 1, " +
                              std::to_string(row) + ", " +
                              std::to_string(row * 3) + ", 'w" +
                              std::to_string(row) + "')")
                      .ok());
    }
  }

  Database db_;
};

TEST_F(PlannerTest, MetadataPredicatesUseThePartitionedBTree) {
  auto plan = db_.Explain(
      "SELECT s0.int1 FROM chunkdata s0 "
      "WHERE s0.tenant = 17 AND s0.tbl = 0 AND s0.chunk = 1");
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("IndexScan"), std::string::npos) << *plan;
  EXPECT_NE(plan->find("ux_tcr"), std::string::npos) << *plan;
}

TEST_F(PlannerTest, AligningJoinUsesIndexNestedLoop) {
  auto plan = db_.Explain(
      "SELECT s0.int1, s1.str1 FROM chunkdata s0, chunkdata s1 "
      "WHERE s0.tenant = 17 AND s0.tbl = 0 AND s0.chunk = 0 "
      "AND s1.tenant = 17 AND s1.tbl = 0 AND s1.chunk = 1 "
      "AND s0.row = s1.row");
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("IndexNLJoin"), std::string::npos) << *plan;
}

TEST_F(PlannerTest, ValueIndexDrivesSelectiveProbe) {
  db_.set_planner_mode(PlannerMode::kAdvanced);
  auto plan = db_.Explain(
      "SELECT s0.row FROM chunkdata s0 "
      "WHERE s0.tenant = 17 AND s0.tbl = 0 AND s0.chunk = 0 AND s0.int1 = ?");
  ASSERT_TRUE(plan.ok());
  // The advanced planner must pick the itcr value index (int1 leading).
  EXPECT_NE(plan->find("ix_itcr"), std::string::npos) << *plan;
}

TEST_F(PlannerTest, NaivePlannerFollowsWrittenPredicateOrder) {
  db_.set_planner_mode(PlannerMode::kNaive);
  // Meta-data-first: naive picks the tcr index on the weak tenant prefix.
  auto meta_first = db_.Explain(
      "SELECT s0.row FROM chunkdata s0 "
      "WHERE s0.tenant = 17 AND s0.tbl = 0 AND s0.chunk = 0 AND s0.int1 = ?");
  ASSERT_TRUE(meta_first.ok());
  EXPECT_NE(meta_first->find("ux_tcr"), std::string::npos) << *meta_first;
  // Selective-first: naive now probes the value index.
  auto selective_first = db_.Explain(
      "SELECT s0.row FROM chunkdata s0 "
      "WHERE s0.int1 = ? AND s0.tenant = 17 AND s0.tbl = 0 AND s0.chunk = 0");
  ASSERT_TRUE(selective_first.ok());
  EXPECT_NE(selective_first->find("ix_itcr"), std::string::npos)
      << *selective_first;
}

TEST_F(PlannerTest, AdvancedIgnoresWrittenPredicateOrder) {
  db_.set_planner_mode(PlannerMode::kAdvanced);
  auto a = db_.Explain(
      "SELECT s0.row FROM chunkdata s0 "
      "WHERE s0.tenant = 17 AND s0.tbl = 0 AND s0.chunk = 0 AND s0.int1 = ?");
  auto b = db_.Explain(
      "SELECT s0.row FROM chunkdata s0 "
      "WHERE s0.int1 = ? AND s0.tenant = 17 AND s0.tbl = 0 AND s0.chunk = 0");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
}

TEST_F(PlannerTest, FullyMatchedIndexDrivesOverMetadataPrefix) {
  // The Chunk Folding reconstruction of `WHERE id = ?`: a base table with
  // a non-unique (tenant, id) index next to the chunk table, whose unique
  // (tenant, tbl, chunk, row) index has three of four columns matched by
  // meta-data constants. The meta-data prefix selects the tenant's whole
  // chunk; the fully matched id index selects one row.
  ASSERT_TRUE(db_.Execute("CREATE TABLE base (tenant INT, row BIGINT, "
                          "id BIGINT, name VARCHAR)")
                  .ok());
  ASSERT_TRUE(
      db_.Execute("CREATE UNIQUE INDEX ux_base_row ON base (tenant, row)")
          .ok());
  ASSERT_TRUE(db_.Execute("CREATE INDEX ix_base_id ON base (tenant, id)").ok());
  for (int row = 0; row < 50; ++row) {
    ASSERT_TRUE(db_.Execute("INSERT INTO base VALUES (17, " +
                            std::to_string(row) + ", " +
                            std::to_string(1000 + row) + ", 'n" +
                            std::to_string(row) + "')")
                    .ok());
  }
  db_.set_planner_mode(PlannerMode::kAdvanced);
  const std::string q =
      "SELECT b.name, c.str1 FROM chunkdata c, base b "
      "WHERE c.tenant = 17 AND c.tbl = 0 AND c.chunk = 1 AND "
      "b.tenant = 17 AND b.id = ? AND c.row = b.row";
  auto plan = db_.Explain(q);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan->find("IndexScan base (b) index=ix_base_id"),
            std::string::npos)
      << *plan;
  EXPECT_NE(plan->find("IndexNLJoin chunkdata (c) index=ux_tcr"),
            std::string::npos)
      << *plan;
  EXPECT_EQ(plan->find("SeqScan"), std::string::npos) << *plan;

  auto rows = db_.Query(q, {Value::Int64(1007)});
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->rows.size(), 1u);
  EXPECT_EQ(rows->rows[0][0].AsString(), "n7");
  EXPECT_EQ(rows->rows[0][1].AsString(), "w7");
}

TEST_F(PlannerTest, NestedQueryUnnestedByAdvancedPlanner) {
  db_.set_planner_mode(PlannerMode::kAdvanced);
  // The §6.1 reconstruction-query shape for Q1.
  auto plan = db_.Explain(
      "SELECT account17.beds FROM (SELECT s0.str1 AS hospital, "
      "s0.int1 AS beds FROM chunkdata s0 WHERE s0.tenant = 17 AND "
      "s0.tbl = 0 AND s0.chunk = 1) AS account17 "
      "WHERE account17.hospital = 'w3'");
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->find("Materialize"), std::string::npos) << *plan;
  EXPECT_NE(plan->find("IndexScan"), std::string::npos) << *plan;
}

TEST_F(PlannerTest, NestedAndFlattenedReturnSameRows) {
  const std::string nested =
      "SELECT account17.beds FROM (SELECT s0.str1 AS hospital, "
      "s0.int1 AS beds FROM chunkdata s0 WHERE s0.tenant = 17 AND "
      "s0.tbl = 0 AND s0.chunk = 1) AS account17 "
      "WHERE account17.hospital = 'w3'";
  const std::string flat =
      "SELECT s0.int1 FROM chunkdata s0 WHERE s0.str1 = 'w3' AND "
      "s0.tenant = 17 AND s0.tbl = 0 AND s0.chunk = 1";
  for (PlannerMode mode : {PlannerMode::kNaive, PlannerMode::kAdvanced}) {
    db_.set_planner_mode(mode);
    auto a = db_.Query(nested);
    auto b = db_.Query(flat);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ASSERT_EQ(a->rows.size(), 1u);
    ASSERT_EQ(b->rows.size(), 1u);
    EXPECT_EQ(a->rows[0][0].AsInt64(), b->rows[0][0].AsInt64());
  }
}

TEST_F(PlannerTest, JoinOrderIndependenceOfResults) {
  // Both FROM orders must give identical results in both modes.
  const std::string q1 =
      "SELECT s0.int1, s1.int1 FROM chunkdata s0, chunkdata s1 "
      "WHERE s0.chunk = 0 AND s1.chunk = 1 AND s0.tenant = 17 AND "
      "s1.tenant = 17 AND s0.tbl = 0 AND s1.tbl = 0 AND s0.row = s1.row "
      "AND s0.row < 5 ORDER BY s0.int1";
  const std::string q2 =
      "SELECT s0.int1, s1.int1 FROM chunkdata s1, chunkdata s0 "
      "WHERE s0.chunk = 0 AND s1.chunk = 1 AND s0.tenant = 17 AND "
      "s1.tenant = 17 AND s0.tbl = 0 AND s1.tbl = 0 AND s0.row = s1.row "
      "AND s0.row < 5 ORDER BY s0.int1";
  for (PlannerMode mode : {PlannerMode::kNaive, PlannerMode::kAdvanced}) {
    db_.set_planner_mode(mode);
    auto a = db_.Query(q1);
    auto b = db_.Query(q2);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ASSERT_EQ(a->rows.size(), 5u);
    ASSERT_EQ(b->rows.size(), 5u);
    for (size_t i = 0; i < 5; ++i) {
      EXPECT_EQ(a->rows[i][0].AsInt64(), b->rows[i][0].AsInt64());
      EXPECT_EQ(a->rows[i][1].AsInt64(), b->rows[i][1].AsInt64());
    }
  }
}

/// Point statements by key must read a bounded number of pages in every
/// layout, however many rows the tenant has: the access path is the key
/// index, never a scan of the tenant's partition or chunk. The Universal
/// Table is the exception: its only index is the (tenant, tbl, row) key,
/// none on the generic value columns, so it may scan the tenant's
/// partition once, but no more.
class PointStatementPagesTest
    : public ::testing::TestWithParam<mapping::LayoutKind> {
 protected:
  static constexpr int kRows = 400;
  static constexpr uint64_t kMaxPages = 100;

  uint64_t PagesRead(const std::function<void()>& statement) {
    BufferPool* pool = db_.buffer_pool();
    uint64_t before = pool->stats().logical_reads();
    statement();
    return pool->stats().logical_reads() - before;
  }

  Database db_;
};

TEST_P(PointStatementPagesTest, WideSelectUpdateDeleteByKey) {
  mapping::AppSchema app = mapping::FigureFourSchema();
  std::unique_ptr<mapping::SchemaMapping> layout =
      mapping::MakeLayout(GetParam(), &db_, &app);
  ASSERT_TRUE(layout->Bootstrap().ok());
  db_.set_planner_mode(PlannerMode::kAdvanced);
  const bool extended = GetParam() != mapping::LayoutKind::kBasic;
  for (TenantId tenant : {17, 35}) {
    ASSERT_TRUE(layout->CreateTenant(tenant).ok());
    if (extended) {
      ASSERT_TRUE(layout->EnableExtension(tenant, "healthcare").ok());
    }
    for (int i = 1; i <= kRows; ++i) {
      auto st =
          extended
              ? layout->Execute(tenant,
                                "INSERT INTO account (aid, name, hospital, "
                                "beds) VALUES (?, ?, ?, ?)",
                                {Value::Int64(i),
                                 Value::String("n" + std::to_string(i)),
                                 Value::String("h" + std::to_string(i)),
                                 Value::Int64(i % 90)})
              : layout->Execute(tenant,
                                "INSERT INTO account (aid, name) VALUES (?, ?)",
                                {Value::Int64(i),
                                 Value::String("n" + std::to_string(i))});
      ASSERT_TRUE(st.ok()) << st.status().ToString();
    }
  }

  uint64_t bound = kMaxPages;
  if (GetParam() == mapping::LayoutKind::kUniversal) {
    bound += PagesRead([&] {
      ASSERT_TRUE(layout->Query(17, "SELECT COUNT(*) FROM account").ok());
    });
  }

  const std::string wide = extended
                               ? "SELECT aid, name, hospital, beds FROM "
                                 "account WHERE aid = ?"
                               : "SELECT aid, name FROM account WHERE aid = ?";
  uint64_t select_pages = PagesRead([&] {
    auto r = layout->Query(17, wide, {Value::Int64(123)});
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(r->rows.size(), 1u);
    EXPECT_EQ(r->rows[0][1].AsString(), "n123");
    if (extended) EXPECT_EQ(r->rows[0][2].AsString(), "h123");
  });
  EXPECT_LE(select_pages, bound) << "wide point SELECT";

  const std::string update = extended
                                 ? "UPDATE account SET beds = ? WHERE aid = ?"
                                 : "UPDATE account SET name = ? WHERE aid = ?";
  Value new_value = extended ? Value::Int64(999) : Value::String("renamed");
  uint64_t update_pages = PagesRead([&] {
    auto n = layout->Execute(17, update, {new_value, Value::Int64(200)});
    ASSERT_TRUE(n.ok()) << n.status().ToString();
    EXPECT_EQ(*n, 1);
  });
  EXPECT_LE(update_pages, bound) << "single-row UPDATE";

  uint64_t delete_pages = PagesRead([&] {
    auto n = layout->Execute(17, "DELETE FROM account WHERE aid = ?",
                             {Value::Int64(300)});
    ASSERT_TRUE(n.ok()) << n.status().ToString();
    EXPECT_EQ(*n, 1);
  });
  EXPECT_LE(delete_pages, bound) << "single-row DELETE";

  auto count = layout->Query(17, "SELECT COUNT(*) FROM account");
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(count->rows[0][0].AsInt64(), kRows - 1);
  auto updated = layout->Query(17, wide, {Value::Int64(200)});
  ASSERT_TRUE(updated.ok()) << updated.status().ToString();
  ASSERT_EQ(updated->rows.size(), 1u);
  if (extended) {
    EXPECT_EQ(updated->rows[0][3].AsInt64(), 999);
  } else {
    EXPECT_EQ(updated->rows[0][1].AsString(), "renamed");
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllLayouts, PointStatementPagesTest,
    ::testing::Values(mapping::LayoutKind::kBasic,
                      mapping::LayoutKind::kPrivate,
                      mapping::LayoutKind::kExtension,
                      mapping::LayoutKind::kUniversal,
                      mapping::LayoutKind::kPivot, mapping::LayoutKind::kChunk,
                      mapping::LayoutKind::kVertical,
                      mapping::LayoutKind::kChunkFolding),
    [](const ::testing::TestParamInfo<mapping::LayoutKind>& info) {
      return mapping::LayoutKindName(info.param);
    });

}  // namespace
}  // namespace mtdb
