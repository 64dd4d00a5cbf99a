#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <set>
#include <tuple>

#include "common/rng.h"
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

TEST_F(PlannerTest, AligningJoinUsesMergeJoin) {
  // §6.1's aligning join of two whole chunk partitions: both come off the
  // (tenant, tbl, chunk, row) index in row order, so they merge.
  auto plan = db_.Explain(
      "SELECT s0.int1, s1.str1 FROM chunkdata s0, chunkdata s1 "
      "WHERE s0.tenant = 17 AND s0.tbl = 0 AND s0.chunk = 0 "
      "AND s1.tenant = 17 AND s1.tbl = 0 AND s1.chunk = 1 "
      "AND s0.row = s1.row");
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("MergeJoin chunkdata (s1) index=ux_tcr keys=[tenant=17, "
                       "tbl=0, chunk=1, row=s0.row]"),
            std::string::npos)
      << *plan;
  EXPECT_NE(plan->find("IndexScan chunkdata (s0) index=ux_tcr prefix=[tenant=17, "
                       "tbl=0, chunk=0]"),
            std::string::npos)
      << *plan;
  EXPECT_EQ(plan->find("IndexNLJoin"), std::string::npos) << *plan;
}

TEST_F(PlannerTest, ThreeWayAligningChainMergesTwice) {
  for (int row = 0; row < 50; ++row) {
    ASSERT_TRUE(db_.Execute("INSERT INTO chunkdata VALUES (17, 0, 2, " +
                            std::to_string(row) + ", " +
                            std::to_string(row * 5) + ", 'x" +
                            std::to_string(row) + "')")
                    .ok());
  }
  // Both ways the mapping can write the chain: every source aligned to
  // s0, or each source aligned to the previous one.
  for (const char* third : {"s0.row = s2.row", "s1.row = s2.row"}) {
    const std::string q =
        std::string("SELECT s0.int1, s1.int1, s2.str1 FROM chunkdata s0, "
                    "chunkdata s1, chunkdata s2 "
                    "WHERE s0.tenant = 17 AND s0.tbl = 0 AND s0.chunk = 0 "
                    "AND s1.tenant = 17 AND s1.tbl = 0 AND s1.chunk = 1 "
                    "AND s0.row = s1.row "
                    "AND s2.tenant = 17 AND s2.tbl = 0 AND s2.chunk = 2 AND ") +
        third;
    auto plan = db_.Explain(q);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    EXPECT_NE(plan->find("MergeJoin chunkdata (s2)"), std::string::npos)
        << *plan;
    EXPECT_NE(plan->find("MergeJoin chunkdata (s1)"), std::string::npos)
        << *plan;
    EXPECT_EQ(plan->find("IndexNLJoin"), std::string::npos) << *plan;
    auto rows = db_.Query(q);
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    ASSERT_EQ(rows->rows.size(), 50u);
    for (size_t i = 0; i < rows->rows.size(); ++i) {
      const int64_t row = static_cast<int64_t>(i);
      EXPECT_EQ(rows->rows[i][0].AsInt64(), row * 2);
      EXPECT_EQ(rows->rows[i][1].AsInt64(), row * 3);
      EXPECT_EQ(rows->rows[i][2].AsString(), "x" + std::to_string(row));
    }
  }
}

TEST_F(PlannerTest, SelectiveOrFilteredOuterKeepsIndexNestedLoop) {
  const std::string join =
      " AND s1.tenant = 17 AND s1.tbl = 0 AND s1.chunk = 1 "
      "AND s0.row = s1.row";
  const std::string outer =
      "SELECT s0.row, s1.str1 FROM chunkdata s0, chunkdata s1 "
      "WHERE s0.tenant = 17 AND s0.tbl = 0 AND s0.chunk = 0";
  // The value index fully matched: the outer is a selective probe.
  auto selective = db_.Explain(outer + " AND s0.int1 = ?" + join);
  ASSERT_TRUE(selective.ok());
  EXPECT_NE(selective->find("IndexScan chunkdata (s0) index=ix_itcr"),
            std::string::npos)
      << *selective;
  EXPECT_NE(selective->find("IndexNLJoin chunkdata (s1) index=ux_tcr"),
            std::string::npos)
      << *selective;
  EXPECT_EQ(selective->find("MergeJoin"), std::string::npos) << *selective;

  // A residual filter on the outer's partition.
  const std::string filtered_q = outer + " AND s0.row < 5" + join;
  auto filtered = db_.Explain(filtered_q);
  ASSERT_TRUE(filtered.ok());
  EXPECT_NE(filtered->find("IndexNLJoin chunkdata (s1) index=ux_tcr"),
            std::string::npos)
      << *filtered;
  EXPECT_EQ(filtered->find("MergeJoin"), std::string::npos) << *filtered;
  auto rows = db_.Query(filtered_q);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->rows.size(), 5u);

  // The partition's prefix comes from the outer row, not constants: each
  // outer row selects its own range, so there is no one ordered scan.
  const std::string correlated_q =
      outer +
      " AND s1.tenant = s0.tenant AND s1.tbl = 0 AND s1.chunk = 1 "
      "AND s0.row = s1.row";
  auto correlated = db_.Explain(correlated_q);
  ASSERT_TRUE(correlated.ok());
  EXPECT_NE(correlated->find("IndexNLJoin chunkdata (s1) index=ux_tcr keys=["
                             "tenant=s0.tenant"),
            std::string::npos)
      << *correlated;
  EXPECT_EQ(correlated->find("MergeJoin"), std::string::npos) << *correlated;
  auto correlated_rows = db_.Query(correlated_q);
  ASSERT_TRUE(correlated_rows.ok()) << correlated_rows.status().ToString();
  EXPECT_EQ(correlated_rows->rows.size(), 50u);

  // The naive planner never merges.
  db_.set_planner_mode(PlannerMode::kNaive);
  auto naive = db_.Explain(outer + join);
  ASSERT_TRUE(naive.ok());
  EXPECT_NE(naive->find("IndexNLJoin chunkdata (s1) index=ux_tcr"),
            std::string::npos)
      << *naive;
  EXPECT_EQ(naive->find("MergeJoin"), std::string::npos) << *naive;
}

/// Partitions with gaps: some rows are present in one chunk partition and
/// missing in the other. The merge join must return exactly the naive
/// planner's index nested-loop result, whichever partition drives.
TEST_F(PlannerTest, MergeJoinMatchesNaiveOnPartitionsWithGaps) {
  ASSERT_TRUE(db_.Execute("CREATE TABLE gaps (tenant INT, tbl INT, chunk INT, "
                          "row BIGINT, int1 BIGINT)")
                  .ok());
  ASSERT_TRUE(
      db_.Execute("CREATE UNIQUE INDEX ux_gaps ON gaps (tenant, tbl, chunk, row)")
          .ok());
  // Chunk 0 misses every third row, chunk 1 every fifth, chunk 2 holds
  // only the tail; tenant 18 sits on both sides of tenant 17's range.
  for (int row = 0; row < 120; ++row) {
    for (int chunk = 0; chunk < 3; ++chunk) {
      if (chunk == 0 && row % 3 == 0) continue;
      if (chunk == 1 && row % 5 == 0) continue;
      if (chunk == 2 && row < 90) continue;
      for (int tenant : {16, 17, 18}) {
        ASSERT_TRUE(db_.Execute("INSERT INTO gaps VALUES (" +
                                std::to_string(tenant) + ", 0, " +
                                std::to_string(chunk) + ", " +
                                std::to_string(row) + ", " +
                                std::to_string(row * 7 + chunk) + ")")
                        .ok());
      }
    }
  }
  const std::string where =
      " WHERE a.tenant = 17 AND a.tbl = 0 AND a.chunk = 0 "
      "AND b.tenant = 17 AND b.tbl = 0 AND b.chunk = 1 AND a.row = b.row";
  const std::string where3 =
      where + " AND c.tenant = 17 AND c.tbl = 0 AND c.chunk = 2 "
              "AND b.row = c.row";
  const std::vector<std::string> queries = {
      "SELECT a.row, a.int1, b.int1 FROM gaps a, gaps b" + where,
      "SELECT a.row, a.int1, b.int1 FROM gaps b, gaps a" + where,
      "SELECT a.row, b.int1, c.int1 FROM gaps a, gaps b, gaps c" + where3,
      "SELECT a.row, b.int1, c.int1 FROM gaps c, gaps b, gaps a" + where3,
  };
  // Rows present in every joined partition.
  const std::vector<size_t> expected_rows = {64, 64, 16, 16};
  for (size_t i = 0; i < queries.size(); ++i) {
    const std::string& q = queries[i];
    db_.set_planner_mode(PlannerMode::kAdvanced);
    auto plan = db_.Explain(q);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    EXPECT_NE(plan->find("MergeJoin"), std::string::npos) << *plan;
    EXPECT_EQ(plan->find("IndexNLJoin"), std::string::npos) << *plan;
    auto merged = db_.Query(q);
    ASSERT_TRUE(merged.ok()) << merged.status().ToString();
    db_.set_planner_mode(PlannerMode::kNaive);
    auto naive = db_.Query(q);
    ASSERT_TRUE(naive.ok()) << naive.status().ToString();
    ASSERT_EQ(merged->rows.size(), naive->rows.size()) << q;
    EXPECT_EQ(merged->rows.size(), expected_rows[i]) << q;
    for (size_t r = 0; r < merged->rows.size(); ++r) {
      ASSERT_EQ(merged->rows[r].size(), naive->rows[r].size());
      for (size_t c = 0; c < merged->rows[r].size(); ++c) {
        EXPECT_EQ(merged->rows[r][c].Compare(naive->rows[r][c]), 0)
            << q << " row " << r << " column " << c;
      }
    }
  }
}

/// Duplicate join keys on both sides, and NULL keys, under a non-unique
/// partition index: every pair of equal keys joins, NULL never matches.
TEST_F(PlannerTest, MergeJoinJoinsDuplicateKeysAndSkipsNulls) {
  ASSERT_TRUE(
      db_.Execute("CREATE TABLE dup (tenant INT, part INT, k BIGINT, v BIGINT)")
          .ok());
  ASSERT_TRUE(db_.Execute("CREATE INDEX ix_dup ON dup (tenant, part, k)").ok());
  // part 0: keys NULL, 1, 1, 2, 4, 4, 4; part 1: keys NULL, NULL, 1, 3,
  // 4, 4.
  const std::vector<std::pair<int, std::string>> data = {
      {0, "NULL"}, {0, "1"}, {0, "1"}, {0, "2"}, {0, "4"},    {0, "4"},
      {0, "4"},    {1, "NULL"}, {1, "NULL"}, {1, "1"}, {1, "3"}, {1, "4"},
      {1, "4"}};
  for (size_t i = 0; i < data.size(); ++i) {
    ASSERT_TRUE(db_.Execute("INSERT INTO dup VALUES (5, " +
                            std::to_string(data[i].first) + ", " +
                            data[i].second + ", " + std::to_string(i) + ")")
                    .ok());
  }
  const std::string q =
      "SELECT x.k, x.v, y.v FROM dup x, dup y WHERE x.tenant = 5 AND "
      "x.part = 0 AND y.tenant = 5 AND y.part = 1 AND x.k = y.k";
  auto plan = db_.Explain(q);
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("MergeJoin dup (y) index=ix_dup"), std::string::npos)
      << *plan;
  auto rows = db_.Query(q);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  // key 1: 2 x 1 pairs, key 4: 3 x 2 pairs.
  ASSERT_EQ(rows->rows.size(), 8u);
  std::multiset<std::tuple<int64_t, int64_t, int64_t>> got;
  for (const Row& r : rows->rows) {
    ASSERT_FALSE(r[0].is_null());
    got.insert({r[0].AsInt64(), r[1].AsInt64(), r[2].AsInt64()});
  }
  std::multiset<std::tuple<int64_t, int64_t, int64_t>> want = {
      {1, 1, 9},  {1, 2, 9},  {4, 4, 11}, {4, 4, 12},
      {4, 5, 11}, {4, 5, 12}, {4, 6, 11}, {4, 6, 12}};
  EXPECT_EQ(got, want);
  // Left order: keys never decrease.
  for (size_t i = 1; i < rows->rows.size(); ++i) {
    EXPECT_LE(rows->rows[i - 1][0].AsInt64(), rows->rows[i][0].AsInt64());
  }
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
    if (extended) {
      EXPECT_EQ(r->rows[0][2].AsString(), "h123");
    }
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

/// Joins never match NULL to NULL. Small random tables with NULL and
/// duplicate keys are joined 2 and 3 ways under every plan — both
/// planners, with and without indexes, so index nested-loop, merge and
/// hash joins all run — and each result must equal, as a multiset, what a
/// nested loop with three-valued logic returns.
class NullJoinDifferentialTest
    : public ::testing::TestWithParam<std::tuple<PlannerMode, bool>> {
 protected:
  struct RefRow {
    int64_t p;
    std::optional<int64_t> k, j;
    int64_t v;
  };
  /// a<l>.<lc> = a<r>.<rc>, or = a<r>.<rc> + 0 when `shifted`: the same
  /// condition, but no index or hash key, so it runs as a nested loop.
  struct Eq {
    int l;
    char lc;
    int r;
    char rc;
    bool shifted = false;
  };
  /// FROM t<tables[0]> a0, t<tables[1]> a1, ... WHERE a<n>.p = c (each
  /// partition) AND every Eq.
  struct JoinSpec {
    std::vector<int> tables;
    std::vector<std::pair<int, int64_t>> partitions;
    std::vector<Eq> eqs;
  };
  using Result = std::multiset<std::vector<int64_t>>;

  static std::optional<int64_t> Col(const RefRow& r, char c) {
    return c == 'k' ? r.k : r.j;
  }

  static std::string Sql(const JoinSpec& q) {
    std::string items, from, where;
    for (size_t a = 0; a < q.tables.size(); ++a) {
      const std::string alias = "a" + std::to_string(a);
      items += (a > 0 ? ", " : "") + alias + ".v";
      from += (a > 0 ? ", t" : "t") + std::to_string(q.tables[a]) + " " + alias;
    }
    auto conj = [&](const std::string& c) {
      where += (where.empty() ? "" : " AND ") + c;
    };
    for (const auto& [a, c] : q.partitions) {
      conj("a" + std::to_string(a) + ".p = " + std::to_string(c));
    }
    for (const Eq& e : q.eqs) {
      conj("a" + std::to_string(e.l) + "." + e.lc + " = a" +
           std::to_string(e.r) + "." + e.rc + (e.shifted ? " + 0" : ""));
    }
    return "SELECT " + items + " FROM " + from + " WHERE " + where;
  }

  /// The reference: every combination of rows, kept when each conjunct is
  /// TRUE — an equality with a NULL side is UNKNOWN, not TRUE.
  Result Reference(const JoinSpec& q) const {
    Result out;
    std::vector<const RefRow*> pick(q.tables.size());
    std::function<void(size_t)> loop = [&](size_t a) {
      if (a == q.tables.size()) {
        for (const auto& [alias, c] : q.partitions) {
          if (pick[alias]->p != c) return;
        }
        for (const Eq& e : q.eqs) {
          std::optional<int64_t> l = Col(*pick[e.l], e.lc);
          std::optional<int64_t> r = Col(*pick[e.r], e.rc);
          if (!l.has_value() || !r.has_value() || *l != *r) return;
        }
        std::vector<int64_t> row;
        for (const RefRow* p : pick) row.push_back(p->v);
        out.insert(std::move(row));
        return;
      }
      for (const RefRow& r : tables_[q.tables[a]]) {
        pick[a] = &r;
        loop(a + 1);
      }
    };
    loop(0);
    return out;
  }

  std::vector<RefRow> tables_[3];
};

TEST_P(NullJoinDifferentialTest, MatchesThreeValuedNestedLoop) {
  const auto [mode, indexed] = GetParam();
  const std::vector<JoinSpec> specs = {
      {{0, 1}, {}, {{0, 'k', 1, 'k'}}},
      {{0, 1}, {{0, 0}, {1, 1}}, {{0, 'k', 1, 'k'}}},
      {{0, 0}, {{0, 0}, {1, 1}}, {{0, 'k', 1, 'k'}}},
      {{0, 1}, {}, {{0, 'j', 1, 'j'}}},
      {{0, 1}, {}, {{0, 'k', 1, 'k'}, {0, 'j', 1, 'j'}}},
      {{0, 1, 2}, {}, {{0, 'k', 1, 'k'}, {1, 'k', 2, 'k'}}},
      {{0, 1, 2}, {{0, 0}, {1, 0}, {2, 0}}, {{0, 'k', 1, 'k'}, {0, 'k', 2, 'k'}}},
      {{0, 1, 2}, {}, {{0, 'k', 1, 'k'}, {1, 'j', 2, 'j'}}},
      {{2, 1, 0}, {{1, 1}}, {{0, 'j', 1, 'k'}, {1, 'k', 2, 'j'}}},
      {{0, 1}, {}, {{0, 'k', 1, 'k', true}}},
      {{0, 1, 2}, {}, {{0, 'k', 1, 'k'}, {1, 'j', 2, 'j', true}}},
  };
  std::set<std::string> joins_seen;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Database db;
    db.set_planner_mode(mode);
    Rng rng(seed);
    int64_t v = 0;
    auto nullable = [&](int64_t hi) -> std::optional<int64_t> {
      if (rng.Uniform(0, 3) == 0) return std::nullopt;
      return rng.Uniform(0, hi);
    };
    auto sql_of = [](const std::optional<int64_t>& x) {
      return x.has_value() ? std::to_string(*x) : std::string("NULL");
    };
    for (int t = 0; t < 3; ++t) {
      const std::string name = "t" + std::to_string(t);
      ASSERT_TRUE(db.Execute("CREATE TABLE " + name +
                             " (p INT, k BIGINT, j BIGINT, v BIGINT)")
                      .ok());
      if (indexed) {
        for (const char* cols : {"p, k", "k", "j"}) {
          const std::string ix = "ix_" + name + "_" + std::to_string(cols[0]);
          ASSERT_TRUE(db.Execute("CREATE INDEX " + ix + " ON " + name + " (" +
                                 cols + ")")
                          .ok());
        }
      }
      tables_[t].clear();
      const int64_t rows = rng.Uniform(6, 12);
      for (int64_t i = 0; i < rows; ++i) {
        RefRow r{rng.Uniform(0, 1), nullable(2), nullable(1), v++};
        ASSERT_TRUE(db.Execute("INSERT INTO " + name + " VALUES (" +
                               std::to_string(r.p) + ", " + sql_of(r.k) +
                               ", " + sql_of(r.j) + ", " +
                               std::to_string(r.v) + ")")
                        .ok());
        tables_[t].push_back(r);
      }
    }
    for (const JoinSpec& q : specs) {
      const std::string sql = Sql(q);
      SCOPED_TRACE(sql);
      auto plan = db.Explain(sql);
      ASSERT_TRUE(plan.ok()) << plan.status().ToString();
      for (const char* join :
           {"IndexNLJoin", "MergeJoin", "HashJoin", " NLJoin"}) {
        if (plan->find(join) != std::string::npos) joins_seen.insert(join);
      }
      auto rows = db.Query(sql);
      ASSERT_TRUE(rows.ok()) << rows.status().ToString();
      Result got;
      for (const Row& r : rows->rows) {
        std::vector<int64_t> out;
        for (const Value& x : r) out.push_back(x.AsInt64());
        got.insert(std::move(out));
      }
      EXPECT_EQ(got, Reference(q)) << *plan;
    }
  }
  // Every join operator the plan space offers ran.
  if (mode == PlannerMode::kNaive) {
    EXPECT_TRUE(joins_seen.contains(" NLJoin"));
  }
  if (!indexed) {
    EXPECT_TRUE(joins_seen.contains("HashJoin"));
  } else {
    EXPECT_TRUE(joins_seen.contains("IndexNLJoin"));
    if (mode == PlannerMode::kAdvanced) {
      EXPECT_TRUE(joins_seen.contains("MergeJoin"));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPlans, NullJoinDifferentialTest,
    ::testing::Combine(::testing::Values(PlannerMode::kNaive,
                                         PlannerMode::kAdvanced),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<PlannerMode, bool>>& info) {
      return std::string(std::get<0>(info.param) == PlannerMode::kNaive
                             ? "naive"
                             : "advanced") +
             (std::get<1>(info.param) ? "_indexed" : "_noindex");
    });

}  // namespace
}  // namespace mtdb
