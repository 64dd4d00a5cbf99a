#include <gtest/gtest.h>

#include "engine/database.h"
#include "engine/session.h"

namespace mtdb {
namespace {

class EngineTest : public ::testing::Test {
 protected:
  void SetUpParentChild() {
    ASSERT_TRUE(db_.Execute("CREATE TABLE parent (id BIGINT, name VARCHAR, "
                            "v INT)")
                    .ok());
    ASSERT_TRUE(db_.Execute("CREATE TABLE child (id BIGINT, parent BIGINT, "
                            "x INT, s VARCHAR)")
                    .ok());
    ASSERT_TRUE(
        db_.Execute("CREATE UNIQUE INDEX ux_parent ON parent (id)").ok());
    ASSERT_TRUE(
        db_.Execute("CREATE INDEX ix_child_parent ON child (parent)").ok());
    for (int p = 0; p < 20; ++p) {
      ASSERT_TRUE(db_.Execute("INSERT INTO parent VALUES (" +
                              std::to_string(p) + ", 'p" + std::to_string(p) +
                              "', " + std::to_string(p * 10) + ")")
                      .ok());
      for (int c = 0; c < 5; ++c) {
        ASSERT_TRUE(db_.Execute("INSERT INTO child VALUES (" +
                                std::to_string(p * 100 + c) + ", " +
                                std::to_string(p) + ", " + std::to_string(c) +
                                ", 'v" + std::to_string(c) + "')")
                        .ok());
      }
    }
  }

  Database db_;
};

TEST_F(EngineTest, CreateInsertSelect) {
  ASSERT_TRUE(db_.Execute("CREATE TABLE t (a INT, b VARCHAR)").ok());
  ASSERT_TRUE(db_.Execute("INSERT INTO t VALUES (1, 'x'), (2, 'y')").ok());
  auto r = db_.Query("SELECT a, b FROM t ORDER BY a");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 2u);
  EXPECT_EQ(r->rows[0][0].AsInt64(), 1);
  EXPECT_EQ(r->rows[1][1].AsString(), "y");
}

TEST_F(EngineTest, WhereFiltering) {
  SetUpParentChild();
  auto r = db_.Query("SELECT id FROM parent WHERE v >= 150");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 5u);  // v in {150,160,170,180,190}
}

TEST_F(EngineTest, ParameterBinding) {
  SetUpParentChild();
  auto r = db_.Query("SELECT name FROM parent WHERE id = ?",
                     {Value::Int64(7)});
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].AsString(), "p7");
}

TEST_F(EngineTest, JoinParentChild) {
  SetUpParentChild();
  auto r = db_.Query(
      "SELECT p.name, c.x FROM parent p, child c "
      "WHERE p.id = c.parent AND p.id = 3");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 5u);
  for (const Row& row : r->rows) {
    EXPECT_EQ(row[0].AsString(), "p3");
  }
}

TEST_F(EngineTest, JoinUsesIndexInAdvancedMode) {
  SetUpParentChild();
  auto plan = db_.Explain(
      "SELECT p.name, c.x FROM parent p, child c "
      "WHERE p.id = c.parent AND p.id = ?");
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("IndexScan"), std::string::npos) << *plan;
  EXPECT_NE(plan->find("IndexNLJoin"), std::string::npos) << *plan;
}

TEST_F(EngineTest, Aggregation) {
  SetUpParentChild();
  auto r = db_.Query(
      "SELECT c.parent, COUNT(*), SUM(c.x) FROM child c GROUP BY c.parent");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 20u);
  for (const Row& row : r->rows) {
    EXPECT_EQ(row[1].AsInt64(), 5);
    EXPECT_EQ(row[2].AsInt64(), 0 + 1 + 2 + 3 + 4);
  }
}

TEST_F(EngineTest, AggregationNoGroupByOnEmptyInput) {
  ASSERT_TRUE(db_.Execute("CREATE TABLE e (a INT)").ok());
  auto r = db_.Query("SELECT COUNT(*), SUM(a) FROM e");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].AsInt64(), 0);
  EXPECT_TRUE(r->rows[0][1].is_null());
}

TEST_F(EngineTest, Having) {
  SetUpParentChild();
  auto r = db_.Query(
      "SELECT c.parent, COUNT(*) FROM child c WHERE c.x < 2 "
      "GROUP BY c.parent HAVING COUNT(*) > 1");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 20u);  // every parent has x=0 and x=1
}

TEST_F(EngineTest, OrderByDescAndLimit) {
  SetUpParentChild();
  auto r = db_.Query("SELECT id FROM parent ORDER BY v DESC LIMIT 3");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 3u);
  EXPECT_EQ(r->rows[0][0].AsInt64(), 19);
  EXPECT_EQ(r->rows[1][0].AsInt64(), 18);
  EXPECT_EQ(r->rows[2][0].AsInt64(), 17);
}

TEST_F(EngineTest, OrderByHiddenColumn) {
  SetUpParentChild();
  // ORDER BY a column that is not projected.
  auto r = db_.Query("SELECT name FROM parent ORDER BY v DESC LIMIT 2");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 2u);
  EXPECT_EQ(r->columns.size(), 1u);
  EXPECT_EQ(r->rows[0][0].AsString(), "p19");
}

TEST_F(EngineTest, UpdateWithExpression) {
  SetUpParentChild();
  auto n = db_.Execute("UPDATE parent SET v = v + 1 WHERE id < 5");
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n->rows[0][0].AsInt64(), 5);
  auto r = db_.Query("SELECT v FROM parent WHERE id = 0");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0].AsInt64(), 1);
}

TEST_F(EngineTest, UpdateMaintainsIndexes) {
  SetUpParentChild();
  ASSERT_TRUE(db_.Execute("UPDATE parent SET id = 100 WHERE id = 3").ok());
  auto gone = db_.Query("SELECT name FROM parent WHERE id = 3");
  ASSERT_TRUE(gone.ok());
  EXPECT_TRUE(gone->rows.empty());
  auto moved = db_.Query("SELECT name FROM parent WHERE id = 100");
  ASSERT_TRUE(moved.ok());
  ASSERT_EQ(moved->rows.size(), 1u);
  EXPECT_EQ(moved->rows[0][0].AsString(), "p3");
}

TEST_F(EngineTest, DeleteRemovesRowsAndIndexEntries) {
  SetUpParentChild();
  auto n = db_.Execute("DELETE FROM child WHERE parent = 5");
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n->rows[0][0].AsInt64(), 5);
  auto r = db_.Query("SELECT COUNT(*) FROM child WHERE parent = 5");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0].AsInt64(), 0);
  auto total = db_.Query("SELECT COUNT(*) FROM child");
  EXPECT_EQ(total->rows[0][0].AsInt64(), 95);
}

TEST_F(EngineTest, UniqueConstraintViolation) {
  SetUpParentChild();
  auto st = db_.Execute("INSERT INTO parent VALUES (3, 'dup', 0)");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.status().code(), StatusCode::kConstraintViolation);
}

class UniqueIndexTest : public EngineTest {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.Execute("CREATE TABLE t (a INT, b VARCHAR)").ok());
    ASSERT_TRUE(db_.Execute("CREATE UNIQUE INDEX ux_t_a ON t (a)").ok());
  }

  std::vector<std::string> Contents() {
    auto r = db_.Query("SELECT a, b FROM t ORDER BY b");
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    std::vector<std::string> out;
    if (!r.ok()) return out;
    for (const Row& row : r->rows) {
      out.push_back(row[0].ToString() + ":" + row[1].ToString());
    }
    return out;
  }
};

TEST_F(UniqueIndexTest, UpdateOntoAnExistingKeyIsRejectedAndLeavesTheTable) {
  ASSERT_TRUE(db_.Execute("INSERT INTO t VALUES (1, 'x'), (2, 'y')").ok());
  const std::vector<std::string> before = Contents();
  auto st = db_.Execute("UPDATE t SET a = 1 WHERE a = 2");
  EXPECT_EQ(st.status().code(), StatusCode::kConstraintViolation)
      << st.status().ToString();
  EXPECT_EQ(Contents(), before);
  // The reverted row is reachable through the index again.
  auto r = db_.Query("SELECT b FROM t WHERE a = 2");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].AsString(), "y");
}

TEST_F(UniqueIndexTest, KeysShiftingThroughEachOtherAreNoConflict) {
  ASSERT_TRUE(db_.Execute("INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c'), "
                          "(4, 'd'), (5, 'e')")
                  .ok());
  auto n = db_.Execute("UPDATE t SET a = a + 1");
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_EQ(n->rows[0][0].AsInt64(), 5);
  EXPECT_EQ(Contents(), (std::vector<std::string>{"2:a", "3:b", "4:c", "5:d",
                                                  "6:e"}));
}

// A client rollback reverts one row image at a time, newest first, so
// undoing the shift moves row e from 6 back to 5 while row d still holds
// 5. The revert checks no unique index and restores every row.
TEST_F(UniqueIndexTest, RollingBackAKeyShiftRestoresEveryRow) {
  ASSERT_TRUE(db_.Execute("INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c'), "
                          "(4, 'd'), (5, 'e')")
                  .ok());
  const std::vector<std::string> before = Contents();
  Session session = db_.OpenSession();
  ASSERT_TRUE(session.Begin().ok());
  auto n = session.Execute("UPDATE t SET a = a + 1");
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  Status rolled_back = session.Rollback();
  EXPECT_TRUE(rolled_back.ok()) << rolled_back.ToString();
  EXPECT_EQ(Contents(), before);
  EXPECT_EQ(db_.Execute("INSERT INTO t VALUES (5, 'f')").status().code(),
            StatusCode::kConstraintViolation);
}

TEST_F(UniqueIndexTest, NullKeysNeverCollide) {
  ASSERT_TRUE(db_.Execute("INSERT INTO t VALUES (NULL, 'a')").ok());
  auto st = db_.Execute("INSERT INTO t VALUES (NULL, 'b')");
  ASSERT_TRUE(st.ok()) << st.status().ToString();
  // Updating a row onto a NULL key is no conflict either, and a non-NULL
  // duplicate still is.
  ASSERT_TRUE(db_.Execute("INSERT INTO t VALUES (7, 'c')").ok());
  ASSERT_TRUE(db_.Execute("UPDATE t SET a = NULL WHERE a = 7").ok());
  EXPECT_EQ(db_.Execute("INSERT INTO t VALUES (8, 'd'), (8, 'e')")
                .status()
                .code(),
            StatusCode::kConstraintViolation);
  EXPECT_EQ(Contents(),
            (std::vector<std::string>{"NULL:a", "NULL:b", "NULL:c"}));
}

TEST_F(EngineTest, UniqueIndexBuildsOverExistingNullKeys) {
  ASSERT_TRUE(db_.Execute("CREATE TABLE u (a INT, b VARCHAR)").ok());
  ASSERT_TRUE(
      db_.Execute("INSERT INTO u VALUES (NULL, 'a'), (NULL, 'b'), (1, 'c')")
          .ok());
  auto built = db_.Execute("CREATE UNIQUE INDEX ux_u_a ON u (a)");
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  EXPECT_EQ(db_.Execute("INSERT INTO u VALUES (1, 'd')").status().code(),
            StatusCode::kConstraintViolation);
}

TEST_F(EngineTest, NotNullConstraint) {
  ASSERT_TRUE(db_.Execute("CREATE TABLE n (a INT NOT NULL)").ok());
  EXPECT_EQ(db_.Execute("INSERT INTO n VALUES (NULL)").status().code(),
            StatusCode::kConstraintViolation);
}

TEST_F(EngineTest, NullComparisonSemantics) {
  ASSERT_TRUE(db_.Execute("CREATE TABLE t (a INT, b INT)").ok());
  ASSERT_TRUE(db_.Execute("INSERT INTO t VALUES (1, NULL), (2, 5)").ok());
  auto r = db_.Query("SELECT a FROM t WHERE b = 5");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 1u);  // NULL never equals
  auto isnull = db_.Query("SELECT a FROM t WHERE b IS NULL");
  ASSERT_TRUE(isnull.ok());
  EXPECT_EQ(isnull->rows.size(), 1u);
  EXPECT_EQ(isnull->rows[0][0].AsInt64(), 1);
}

TEST_F(EngineTest, SubqueryInFromAdvanced) {
  SetUpParentChild();
  db_.set_planner_mode(PlannerMode::kAdvanced);
  auto r = db_.Query(
      "SELECT q.n FROM (SELECT name AS n, v FROM parent WHERE v > 100) AS q "
      "WHERE q.v < 130");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 2u);  // v in {110, 120}
}

TEST_F(EngineTest, SubqueryInFromNaiveMaterializes) {
  SetUpParentChild();
  db_.set_planner_mode(PlannerMode::kNaive);
  auto plan = db_.Explain(
      "SELECT q.n FROM (SELECT name AS n, v FROM parent WHERE v > 100) AS q "
      "WHERE q.v < 130");
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("Materialize"), std::string::npos) << *plan;
  auto r = db_.Query(
      "SELECT q.n FROM (SELECT name AS n, v FROM parent WHERE v > 100) AS q "
      "WHERE q.v < 130");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 2u);
}

TEST_F(EngineTest, AdvancedFlattensSubquery) {
  SetUpParentChild();
  db_.set_planner_mode(PlannerMode::kAdvanced);
  auto plan = db_.Explain(
      "SELECT q.n FROM (SELECT name AS n, v FROM parent WHERE v > 100) AS q "
      "WHERE q.v < 130");
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->find("Materialize"), std::string::npos) << *plan;
}

TEST_F(EngineTest, CastFunctions) {
  ASSERT_TRUE(db_.Execute("CREATE TABLE g (s VARCHAR)").ok());
  ASSERT_TRUE(db_.Execute("INSERT INTO g VALUES ('42'), ('7')").ok());
  auto r = db_.Query("SELECT cast_int(s) FROM g WHERE cast_int(s) > 10");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].AsInt32(), 42);
}

TEST_F(EngineTest, DropTableFreesName) {
  ASSERT_TRUE(db_.Execute("CREATE TABLE d (a INT)").ok());
  ASSERT_TRUE(db_.Execute("DROP TABLE d").ok());
  EXPECT_FALSE(db_.Query("SELECT a FROM d").ok());
  ASSERT_TRUE(db_.Execute("CREATE TABLE d (a INT)").ok());
}

TEST_F(EngineTest, StatsTrackTablesAndMetadata) {
  EngineStats before = db_.Stats();
  ASSERT_TRUE(db_.Execute("CREATE TABLE s1 (a INT)").ok());
  ASSERT_TRUE(db_.Execute("CREATE TABLE s2 (a INT)").ok());
  EngineStats after = db_.Stats();
  EXPECT_EQ(after.tables, before.tables + 2);
  EXPECT_GT(after.metadata_bytes, before.metadata_bytes);
  EXPECT_LT(after.buffer_capacity, before.buffer_capacity);
}

TEST_F(EngineTest, ColdCacheForcesPhysicalReads) {
  SetUpParentChild();
  // Warm up.
  ASSERT_TRUE(db_.Query("SELECT COUNT(*) FROM child").ok());
  db_.ResetStats();
  ASSERT_TRUE(db_.Query("SELECT COUNT(*) FROM child").ok());
  uint64_t warm_misses = db_.Stats().buffer.misses();
  db_.ColdCache();
  db_.ResetStats();
  ASSERT_TRUE(db_.Query("SELECT COUNT(*) FROM child").ok());
  uint64_t cold_misses = db_.Stats().buffer.misses();
  EXPECT_GT(cold_misses, warm_misses);
}

TEST_F(EngineTest, InsertWithColumnSubset) {
  ASSERT_TRUE(db_.Execute("CREATE TABLE t (a INT, b VARCHAR, c INT)").ok());
  ASSERT_TRUE(db_.Execute("INSERT INTO t (c, a) VALUES (3, 1)").ok());
  auto r = db_.Query("SELECT a, b, c FROM t");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0].AsInt64(), 1);
  EXPECT_TRUE(r->rows[0][1].is_null());
  EXPECT_EQ(r->rows[0][2].AsInt64(), 3);
}

TEST_F(EngineTest, LikeFiltering) {
  ASSERT_TRUE(db_.Execute("CREATE TABLE w (s VARCHAR)").ok());
  ASSERT_TRUE(db_.Execute("INSERT INTO w VALUES ('apple'), ('apricot'), "
                          "('banana'), (NULL)")
                  .ok());
  auto r = db_.Query("SELECT s FROM w WHERE s LIKE 'ap%'");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 2u);
  auto neg = db_.Query("SELECT s FROM w WHERE s NOT LIKE '%an%'");
  ASSERT_TRUE(neg.ok());
  EXPECT_EQ(neg->rows.size(), 2u);  // NULL excluded
  auto underscore = db_.Query("SELECT s FROM w WHERE s LIKE '_pple'");
  ASSERT_TRUE(underscore.ok());
  EXPECT_EQ(underscore->rows.size(), 1u);
}

TEST_F(EngineTest, InPredicate) {
  SetUpParentChild();
  auto r = db_.Query("SELECT id FROM parent WHERE id IN (1, 3, 5, 99)");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 3u);
  auto neg = db_.Query(
      "SELECT COUNT(*) FROM parent WHERE id NOT IN (0, 1, 2)");
  ASSERT_TRUE(neg.ok());
  EXPECT_EQ(neg->rows[0][0].AsInt64(), 17);
}

TEST_F(EngineTest, Distinct) {
  ASSERT_TRUE(db_.Execute("CREATE TABLE d (a INT, b INT)").ok());
  ASSERT_TRUE(db_.Execute("INSERT INTO d VALUES (1, 1), (1, 2), (2, 1), "
                          "(1, 1)")
                  .ok());
  auto r = db_.Query("SELECT DISTINCT a FROM d ORDER BY a");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 2u);
  EXPECT_EQ(r->rows[0][0].AsInt64(), 1);
  EXPECT_EQ(r->rows[1][0].AsInt64(), 2);
  auto pairs = db_.Query("SELECT DISTINCT a, b FROM d");
  ASSERT_TRUE(pairs.ok());
  EXPECT_EQ(pairs->rows.size(), 3u);
}

TEST_F(EngineTest, DistinctStar) {
  ASSERT_TRUE(db_.Execute("CREATE TABLE e (a INT)").ok());
  ASSERT_TRUE(db_.Execute("INSERT INTO e VALUES (7), (7), (8)").ok());
  auto r = db_.Query("SELECT DISTINCT * FROM e");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 2u);
}

TEST_F(EngineTest, CrossJoinWithoutPredicate) {
  ASSERT_TRUE(db_.Execute("CREATE TABLE x (a INT)").ok());
  ASSERT_TRUE(db_.Execute("CREATE TABLE y (b INT)").ok());
  ASSERT_TRUE(db_.Execute("INSERT INTO x VALUES (1), (2)").ok());
  ASSERT_TRUE(db_.Execute("INSERT INTO y VALUES (10), (20), (30)").ok());
  auto r = db_.Query("SELECT a, b FROM x, y");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 6u);
}

TEST_F(EngineTest, HashJoinWithoutIndex) {
  ASSERT_TRUE(db_.Execute("CREATE TABLE l (k INT, s VARCHAR)").ok());
  ASSERT_TRUE(db_.Execute("CREATE TABLE r (k INT, t VARCHAR)").ok());
  ASSERT_TRUE(db_.Execute("INSERT INTO l VALUES (1,'a'), (2,'b')").ok());
  ASSERT_TRUE(db_.Execute("INSERT INTO r VALUES (2,'x'), (2,'y'), (3,'z')").ok());
  auto r = db_.Query("SELECT l.s, r.t FROM l, r WHERE l.k = r.k");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 2u);
}

}  // namespace
}  // namespace mtdb
