// Tests for client-visible cross-statement transactions: BEGIN / COMMIT /
// ROLLBACK through the SQL surface and the Session / TenantSession APIs
// (src/engine/txn_context.{h,cc} + the session front doors), including
// the poisoned/aborted state machine, DDL rejection, auto-rollback on
// deadline expiry and admission rejection, destructor rollback, the
// txn.* metric series, the tracer's transaction grouping, and the
// durable WAL bracket (open transactions survive checkpoints via the
// meta and are undone on reopen; committed ones persist).
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/verifier.h"
#include "common/deadline.h"
#include "common/trace.h"
#include "core/tenant_session.h"
#include "engine/database.h"
#include "engine/session.h"
#include "mapping_test_util.h"
#include "sql/printer.h"

namespace mtdb {
namespace {

namespace fs = std::filesystem;

std::string FreshDir(const std::string& tag) {
  std::string dir = ::testing::TempDir() + "mtdb_txn_" + tag;
  fs::remove_all(dir);
  return dir;
}

void AuditClean(mapping::SchemaMapping* layout, const char* when) {
  analysis::Verifier verifier(layout);
  auto diagnostics = verifier.Run();
  ASSERT_TRUE(diagnostics.ok()) << when << ": "
                                << diagnostics.status().ToString();
  EXPECT_FALSE(analysis::HasErrors(*diagnostics))
      << when << ": " << analysis::FormatDiagnostics(*diagnostics);
}

int64_t CountRows(Database* db, const std::string& table) {
  auto r = db->Query("SELECT COUNT(*) FROM " + table);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  if (!r.ok() || r->rows.empty()) return -1;
  return r->rows[0][0].AsInt64();
}

// ------------------------------------------------- engine sessions

class EngineTxnTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<Database>(EngineOptions{});
    ASSERT_TRUE(db_->Execute("CREATE TABLE t (id BIGINT, name VARCHAR)").ok());
    session_ = std::make_unique<Session>(db_->OpenSession());
    ASSERT_TRUE(
        session_->Execute("INSERT INTO t VALUES (1, 'keep')", {}).ok());
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<Session> session_;
};

TEST_F(EngineTxnTest, CommitMakesAllStatementsVisible) {
  ASSERT_TRUE(session_->Begin().ok());
  EXPECT_TRUE(session_->in_transaction());
  ASSERT_TRUE(session_->Execute("INSERT INTO t VALUES (2, 'a')", {}).ok());
  ASSERT_TRUE(session_->Execute("INSERT INTO t VALUES (3, 'b')", {}).ok());
  ASSERT_TRUE(
      session_->Execute("UPDATE t SET name = 'x' WHERE id = 1", {}).ok());
  ASSERT_TRUE(session_->Commit().ok());
  EXPECT_FALSE(session_->in_transaction());
  EXPECT_EQ(CountRows(db_.get(), "t"), 3);
  auto r = db_->Query("SELECT name FROM t WHERE id = 1");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].AsString(), "x");
  EXPECT_EQ(db_->metrics_registry()->GetCounter("txn.commit.t-1")->value(),
            1u);
}

TEST_F(EngineTxnTest, RollbackRestoresPreTransactionState) {
  ASSERT_TRUE(session_->Begin().ok());
  ASSERT_TRUE(session_->Execute("INSERT INTO t VALUES (2, 'a')", {}).ok());
  ASSERT_TRUE(
      session_->Execute("UPDATE t SET name = 'clobbered' WHERE id = 1", {})
          .ok());
  ASSERT_TRUE(session_->Execute("DELETE FROM t WHERE id = 2", {}).ok());
  ASSERT_TRUE(session_->Execute("INSERT INTO t VALUES (4, 'd')", {}).ok());
  ASSERT_TRUE(session_->Rollback().ok());
  EXPECT_FALSE(session_->in_transaction());
  EXPECT_EQ(CountRows(db_.get(), "t"), 1);
  auto r = db_->Query("SELECT name FROM t WHERE id = 1");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].AsString(), "keep");
  EXPECT_EQ(db_->metrics_registry()->GetCounter("txn.rollback.t-1")->value(),
            1u);
}

TEST_F(EngineTxnTest, SqlSurfaceRoutesToTransactionControl) {
  ASSERT_TRUE(session_->Execute("BEGIN", {}).ok());
  EXPECT_TRUE(session_->in_transaction());
  ASSERT_TRUE(session_->Execute("INSERT INTO t VALUES (2, 'a')", {}).ok());
  ASSERT_TRUE(session_->Execute("COMMIT", {}).ok());
  EXPECT_FALSE(session_->in_transaction());
  ASSERT_TRUE(session_->Execute("BEGIN TRANSACTION", {}).ok());
  ASSERT_TRUE(session_->Execute("DELETE FROM t WHERE id = 2", {}).ok());
  ASSERT_TRUE(session_->Execute("ROLLBACK", {}).ok());
  EXPECT_EQ(CountRows(db_.get(), "t"), 2);
}

TEST_F(EngineTxnTest, BracketMisuseIsRejected) {
  auto no_txn = session_->Commit();
  EXPECT_EQ(no_txn.code(), StatusCode::kFailedPrecondition);
  no_txn = session_->Rollback();
  EXPECT_EQ(no_txn.code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(session_->Begin().ok());
  auto nested = session_->Begin();
  EXPECT_EQ(nested.code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(session_->Rollback().ok());
}

TEST_F(EngineTxnTest, FailedStatementPoisonsUntilRollback) {
  ASSERT_TRUE(session_->Begin().ok());
  ASSERT_TRUE(session_->Execute("INSERT INTO t VALUES (2, 'a')", {}).ok());
  // Parseable but unexecutable: unknown table.
  auto bad = session_->Execute("INSERT INTO nope VALUES (1, 'x')", {});
  ASSERT_FALSE(bad.ok());
  // Everything but ROLLBACK is now rejected — including reads.
  auto blocked = session_->Execute("SELECT * FROM t", {});
  ASSERT_FALSE(blocked.ok());
  EXPECT_EQ(blocked.status().code(), StatusCode::kFailedPrecondition);
  auto commit = session_->Commit();
  EXPECT_EQ(commit.code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(session_->in_transaction());
  ASSERT_TRUE(session_->Rollback().ok());
  EXPECT_EQ(CountRows(db_.get(), "t"), 1);
  // The session is usable again after the acknowledgement.
  EXPECT_TRUE(session_->Execute("SELECT * FROM t", {}).ok());
}

TEST_F(EngineTxnTest, DdlIsRejectedInsideATransaction) {
  ASSERT_TRUE(session_->Begin().ok());
  ASSERT_TRUE(session_->Execute("INSERT INTO t VALUES (2, 'a')", {}).ok());
  auto ddl = session_->Execute("CREATE TABLE u (a INT)", {});
  ASSERT_FALSE(ddl.ok());
  EXPECT_EQ(ddl.status().code(), StatusCode::kFailedPrecondition);
  ddl = session_->Execute("DROP TABLE t", {});
  EXPECT_EQ(ddl.status().code(), StatusCode::kFailedPrecondition);
  // The rejection gates the statement up front: the transaction is
  // still active and commits cleanly.
  ASSERT_TRUE(session_->Commit().ok());
  EXPECT_EQ(CountRows(db_.get(), "t"), 2);
}

TEST_F(EngineTxnTest, SelectAndExplainRunInsideATransaction) {
  ASSERT_TRUE(session_->Begin().ok());
  ASSERT_TRUE(session_->Execute("INSERT INTO t VALUES (2, 'a')", {}).ok());
  auto rows = session_->Execute("SELECT * FROM t", {});
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(RowsOf(*rows).rows.size(), 2u);
  auto explained =
      session_->Execute("EXPLAIN MAPPING DELETE FROM t WHERE id = 2", {});
  ASSERT_TRUE(explained.ok()) << explained.status().ToString();
  EXPECT_TRUE(HasExplanation(*explained));
  // EXPLAIN only plans — it must stage nothing into the undo log.
  ASSERT_TRUE(session_->Rollback().ok());
  EXPECT_EQ(CountRows(db_.get(), "t"), 1);
}

TEST_F(EngineTxnTest, DeadlineExpiryAbortsAndRollsBack) {
  ASSERT_TRUE(session_->Begin().ok());
  ASSERT_TRUE(session_->Execute("INSERT INTO t VALUES (2, 'a')", {}).ok());
  auto expired = session_->Execute("INSERT INTO t VALUES (3, 'b')", {},
                                   deadline::Deadline::AfterMillis(-5));
  ASSERT_FALSE(expired.ok());
  EXPECT_EQ(expired.status().code(), StatusCode::kDeadlineExceeded);
  // The session already rolled the transaction back; statements are
  // rejected until ROLLBACK acknowledges.
  auto blocked = session_->Execute("INSERT INTO t VALUES (4, 'c')", {});
  EXPECT_EQ(blocked.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(
      db_->metrics_registry()->GetCounter("txn.auto_rollback.t-1")->value(),
      1u);
  ASSERT_TRUE(session_->Rollback().ok());
  EXPECT_EQ(CountRows(db_.get(), "t"), 1);
}

TEST_F(EngineTxnTest, SessionDestructionRollsBackOpenTransaction) {
  {
    Session doomed = db_->OpenSession();
    ASSERT_TRUE(doomed.Begin().ok());
    ASSERT_TRUE(doomed.Execute("INSERT INTO t VALUES (2, 'a')", {}).ok());
    ASSERT_TRUE(
        doomed.Execute("UPDATE t SET name = 'gone' WHERE id = 1", {}).ok());
  }
  EXPECT_EQ(CountRows(db_.get(), "t"), 1);
  auto r = db_->Query("SELECT name FROM t WHERE id = 1");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0].AsString(), "keep");
  EXPECT_EQ(
      db_->metrics_registry()->GetCounter("txn.auto_rollback.t-1")->value(),
      1u);
}

TEST_F(EngineTxnTest, OpenGaugeTracksTheBracket) {
  // Gauges are evaluated at Snapshot() time and land in `counters`.
  auto gauge = [&]() -> uint64_t {
    return db_->metrics_registry()->Snapshot().CounterValue("txn.open.t-1");
  };
  ASSERT_TRUE(session_->Begin().ok());
  EXPECT_EQ(gauge(), 1u);
  ASSERT_TRUE(session_->Commit().ok());
  EXPECT_EQ(gauge(), 0u);
  ASSERT_TRUE(session_->Begin().ok());
  ASSERT_TRUE(session_->Rollback().ok());
  EXPECT_EQ(gauge(), 0u);
  EXPECT_EQ(db_->metrics_registry()->GetCounter("txn.begin.t-1")->value(),
            2u);
}

// ------------------------------------------------- mapping sessions

class MappingTxnTest : public ::testing::TestWithParam<mapping::LayoutKind> {
 protected:
  void SetUp() override {
    app_ = mapping::FigureFourSchema();
    db_ = std::make_unique<Database>(EngineOptions{});
    layout_ = mapping::MakeLayout(GetParam(), db_.get(), &app_);
    ASSERT_TRUE(layout_->Bootstrap().ok());
    ASSERT_TRUE(layout_->CreateTenant(0).ok());
    ASSERT_TRUE(layout_->CreateTenant(1).ok());
    ASSERT_TRUE(layout_
                    ->Execute(0,
                              "INSERT INTO account (aid, name) VALUES "
                              "(1, 'base')",
                              {})
                    .ok());
  }

  std::vector<Row> Rows(TenantId t) {
    auto r = layout_->Query(t, "SELECT * FROM account ORDER BY aid");
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? r->rows : std::vector<Row>{};
  }

  mapping::AppSchema app_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<mapping::SchemaMapping> layout_;
};

TEST_P(MappingTxnTest, CommitAndRollbackAcrossLogicalStatements) {
  mapping::TenantSession session = layout_->OpenSession(0);

  ASSERT_TRUE(session.Begin().ok());
  ASSERT_TRUE(session
                  .Execute("INSERT INTO account (aid, name) VALUES (2, 'a'), "
                           "(3, 'b')")
                  .ok());
  ASSERT_TRUE(
      session.Execute("UPDATE account SET name = 'a2' WHERE aid = 2").ok());
  ASSERT_TRUE(session.Commit().ok());
  EXPECT_EQ(Rows(0).size(), 3u);

  ASSERT_TRUE(session.Begin().ok());
  ASSERT_TRUE(session.Execute("DELETE FROM account WHERE aid = 2").ok());
  ASSERT_TRUE(
      session.Execute("UPDATE account SET name = 'zz' WHERE aid = 3").ok());
  ASSERT_TRUE(
      session.Execute("INSERT INTO account (aid, name) VALUES (9, 'c')")
          .ok());
  ASSERT_TRUE(session.Rollback().ok());

  std::vector<Row> rows = Rows(0);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[1][0].AsInt64(), 2);
  EXPECT_EQ(rows[1][1].AsString(), "a2");
  EXPECT_EQ(rows[2][1].AsString(), "b");
  // Other tenants never see a neighbour's transaction.
  EXPECT_EQ(Rows(1).size(), 0u);
  AuditClean(layout_.get(), "after rollback");
  EXPECT_EQ(db_->metrics_registry()->GetCounter("txn.commit.t0")->value(),
            1u);
  EXPECT_EQ(db_->metrics_registry()->GetCounter("txn.rollback.t0")->value(),
            1u);
}

TEST_P(MappingTxnTest, SqlFirstWordRoutingControlsTheBracket) {
  mapping::TenantSession session = layout_->OpenSession(0);
  ASSERT_TRUE(session.Execute("BEGIN").ok());
  EXPECT_TRUE(session.in_transaction());
  ASSERT_TRUE(
      session.Execute("INSERT INTO account (aid, name) VALUES (2, 'a')")
          .ok());
  ASSERT_TRUE(session.Execute("  begin  ").ok() == false)
      << "nested BEGIN must be rejected";
  ASSERT_TRUE(session.Execute("commit").ok());
  EXPECT_FALSE(session.in_transaction());
  ASSERT_TRUE(session.Execute("BEGIN TRANSACTION").ok());
  ASSERT_TRUE(session.Execute("DELETE FROM account WHERE aid = 2").ok());
  ASSERT_TRUE(session.Execute("ROLLBACK").ok());
  EXPECT_EQ(Rows(0).size(), 2u);
}

TEST_P(MappingTxnTest, SessionTeardownRollsBackAndAuditsClean) {
  {
    mapping::TenantSession doomed = layout_->OpenSession(0);
    ASSERT_TRUE(doomed.Begin().ok());
    ASSERT_TRUE(
        doomed.Execute("INSERT INTO account (aid, name) VALUES (7, 'x')")
            .ok());
    ASSERT_TRUE(doomed.InsertRow("account", {Value::Int64(8),
                                             Value::String("y")})
                    .ok());
  }
  EXPECT_EQ(Rows(0).size(), 1u);
  AuditClean(layout_.get(), "after teardown rollback");
  EXPECT_EQ(
      db_->metrics_registry()->GetCounter("txn.auto_rollback.t0")->value(),
      1u);
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, MappingTxnTest,
    ::testing::Values(mapping::LayoutKind::kBasic,
                      mapping::LayoutKind::kPrivate,
                      mapping::LayoutKind::kUniversal,
                      mapping::LayoutKind::kChunkFolding),
    [](const ::testing::TestParamInfo<mapping::LayoutKind>& info) {
      return std::string(mapping::LayoutKindName(info.param));
    });

// Admission rejection mid-transaction: the statement never runs, the
// transaction is rolled back on the spot, and ROLLBACK acknowledges.
TEST(MappingTxnAdmissionTest, AdmissionRejectionAbortsTheTransaction) {
  DatabaseOptions dopts;
  dopts.admission.enabled = true;
  dopts.admission.tenant_rate = 0.1;  // no refill inside the test
  dopts.admission.tenant_burst = 2.0;
  Database db(dopts);
  mapping::AppSchema app = mapping::FigureFourSchema();
  std::unique_ptr<mapping::SchemaMapping> layout =
      mapping::MakeLayout(mapping::LayoutKind::kPrivate, &db, &app);
  ASSERT_TRUE(layout->Bootstrap().ok());
  ASSERT_TRUE(layout->CreateTenant(0).ok());
  ASSERT_TRUE(layout
                  ->Execute(0, "INSERT INTO account (aid, name) VALUES "
                               "(1, 'base')",
                            {})
                  .ok());

  mapping::TenantSession session = layout->OpenSession(0);
  // BEGIN itself is not admitted: it spends no token.
  ASSERT_TRUE(session.Begin().ok());
  ASSERT_TRUE(
      session.Execute("INSERT INTO account (aid, name) VALUES (2, 'a')")
          .ok());  // burst 1
  ASSERT_TRUE(
      session.Execute("UPDATE account SET name = 'b' WHERE aid = 2")
          .ok());  // burst 2
  auto rejected =
      session.Execute("INSERT INTO account (aid, name) VALUES (3, 'c')");
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(db.metrics_registry()->GetCounter("txn.auto_rollback.t0")->value(),
            1u);
  auto blocked = session.Execute("DELETE FROM account WHERE aid = 1");
  EXPECT_EQ(blocked.status().code(), StatusCode::kFailedPrecondition);
  // COMMIT and ROLLBACK stay executable with the bucket empty; COMMIT
  // refuses (aborted), ROLLBACK acknowledges.
  EXPECT_EQ(session.Commit().code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(session.Rollback().ok());
  // The compensations ran despite the empty bucket: only the base row
  // is left.
  auto r = layout->Query(0, "SELECT * FROM account");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows.size(), 1u);
}

// ------------------------------------------------- tracer grouping

TEST(TxnTracerTest, StatementsAttributeToTxnSeriesAndParentSpan) {
  Database db{EngineOptions{}};
  mapping::AppSchema app = mapping::FigureFourSchema();
  std::unique_ptr<mapping::SchemaMapping> layout =
      mapping::MakeLayout(mapping::LayoutKind::kBasic, &db, &app);
  ASSERT_TRUE(layout->Bootstrap().ok());
  ASSERT_TRUE(layout->CreateTenant(0).ok());

  mapping::TenantSession session = layout->OpenSession(0);
  session.EnableTracing();
  const std::string name = layout->name();

  // Autocommit statement: plain series, untouched by the feature.
  ASSERT_TRUE(
      session.Execute("INSERT INTO account (aid, name) VALUES (1, 'a')")
          .ok());
  EXPECT_EQ(db.metrics_registry()
                ->GetCounter("stmt.count." + name + ".insert.t0")
                ->value(),
            1u);

  ASSERT_TRUE(session.Begin().ok());
  ASSERT_TRUE(
      session.Execute("INSERT INTO account (aid, name) VALUES (2, 'b')")
          .ok());
  ASSERT_TRUE(session.Query("SELECT * FROM account").ok());
  ASSERT_TRUE(session.Commit().ok());

  // In-transaction statements land on the ".txn" series...
  EXPECT_EQ(db.metrics_registry()
                ->GetCounter("stmt.count." + name + ".insert.txn.t0")
                ->value(),
            1u);
  EXPECT_EQ(db.metrics_registry()
                ->GetCounter("stmt.count." + name + ".select.txn.t0")
                ->value(),
            1u);
  // ...and the autocommit series did not move.
  EXPECT_EQ(db.metrics_registry()
                ->GetCounter("stmt.count." + name + ".insert.t0")
                ->value(),
            1u);
  // The transaction itself aggregates once, and its parent span groups
  // one summary child per statement.
  EXPECT_EQ(db.metrics_registry()
                ->GetCounter("stmt.count." + name + ".txn.t0")
                ->value(),
            1u);
  const trace::StatementTrace* txn = session.tracer()->last_transaction();
  ASSERT_NE(txn, nullptr);
  EXPECT_TRUE(txn->ok);
  EXPECT_EQ(txn->kind, "txn");
  ASSERT_NE(txn->root, nullptr);
  EXPECT_EQ(txn->root->children.size(), 2u);
  EXPECT_EQ(txn->root->children[0]->name, "insert");
  EXPECT_EQ(txn->root->children[1]->name, "select");
}

// ------------------------------------------------- durable bracket

// Committed transactions survive reopen; a transaction whose bracket
// was still open when the process stopped is undone — even when a
// checkpoint ran mid-transaction, leaving the hints only in the
// checkpoint meta (v2) and not in the WAL.
TEST(TxnDurabilityTest, OpenBracketIsUndoneOnReopenCommittedOneSurvives) {
  const std::string dir = FreshDir("bracket");
  {
    auto opened = Database::Open(DatabaseOptions::WithPath(dir));
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    std::unique_ptr<Database> db = std::move(*opened);
    ASSERT_TRUE(db->Execute("CREATE TABLE t (id BIGINT, name VARCHAR)").ok());

    Session committed = db->OpenSession();
    ASSERT_TRUE(committed.Begin().ok());
    ASSERT_TRUE(
        committed.Execute("INSERT INTO t VALUES (1, 'keep')", {}).ok());
    ASSERT_TRUE(
        committed.Execute("INSERT INTO t VALUES (2, 'keep2')", {}).ok());
    ASSERT_TRUE(committed.Commit().ok());

    // Open bracket, checkpointed mid-transaction: the accumulated hints
    // ride the checkpoint meta while the WAL is truncated underneath.
    uint64_t open_txn = 0;
    {
      auto begun = db->BeginTxn();
      ASSERT_TRUE(begun.ok()) << begun.status().ToString();
      open_txn = *begun;
    }
    ASSERT_TRUE(
        db->StageTxnHint(open_txn, "DELETE FROM t WHERE id = 3").ok());
    ASSERT_TRUE(db->Execute("INSERT INTO t VALUES (3, 'undo me')").ok());
    ASSERT_TRUE(db->Checkpoint().ok());
    ASSERT_TRUE(
        db->StageTxnHint(open_txn,
                            "UPDATE t SET name = 'keep' WHERE id = 1")
            .ok());
    ASSERT_TRUE(
        db->Execute("UPDATE t SET name = 'dirty' WHERE id = 1").ok());
    // Process stops here with the bracket still open: no EndTxn.
  }
  auto reopened = Database::Open(DatabaseOptions::WithPath(dir));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  std::unique_ptr<Database> db = std::move(*reopened);
  EXPECT_EQ(CountRows(db.get(), "t"), 2)
      << "open transaction's insert survived recovery";
  auto r = db->Query("SELECT name FROM t WHERE id = 1");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].AsString(), "keep")
      << "open transaction's update survived recovery";
  auto r2 = db->Query("SELECT name FROM t WHERE id = 2");
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->rows.size(), 1u) << "committed transaction lost";
}

// A durable mapping-layer transaction: COMMIT makes the multi-statement
// group atomic across reopen, ROLLBACK leaves no trace on disk.
TEST(TxnDurabilityTest, MappingTransactionIsAtomicAcrossReopen) {
  const std::string dir = FreshDir("mapping");
  mapping::AppSchema app = mapping::FigureFourSchema();
  {
    auto opened = Database::Open(DatabaseOptions::WithPath(dir));
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    std::unique_ptr<Database> db = std::move(*opened);
    std::unique_ptr<mapping::SchemaMapping> layout =
        mapping::MakeLayout(mapping::LayoutKind::kChunkFolding, db.get(),
                            &app);
    ASSERT_TRUE(layout->Bootstrap().ok());
    ASSERT_TRUE(layout->CreateTenant(0).ok());
    mapping::TenantSession session = layout->OpenSession(0);
    ASSERT_TRUE(session.Begin().ok());
    ASSERT_TRUE(session
                    .Execute("INSERT INTO account (aid, name) VALUES "
                             "(1, 'a'), (2, 'b')")
                    .ok());
    ASSERT_TRUE(
        session.Execute("UPDATE account SET name = 'a2' WHERE aid = 1")
            .ok());
    ASSERT_TRUE(session.Commit().ok());
    ASSERT_TRUE(session.Begin().ok());
    ASSERT_TRUE(session.Execute("DELETE FROM account WHERE aid = 2").ok());
    ASSERT_TRUE(session.Rollback().ok());
  }
  auto reopened = Database::Open(DatabaseOptions::WithPath(dir));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  std::unique_ptr<Database> db = std::move(*reopened);
  std::unique_ptr<mapping::SchemaMapping> layout =
      mapping::MakeLayout(mapping::LayoutKind::kChunkFolding, db.get(), &app);
  ASSERT_TRUE(layout->Recover().ok());
  auto r = layout->Query(0, "SELECT * FROM account ORDER BY aid");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 2u);
  EXPECT_EQ(r->rows[0][1].AsString(), "a2");
  EXPECT_EQ(r->rows[1][1].AsString(), "b");
  AuditClean(layout.get(), "after reopen");
}

}  // namespace
}  // namespace mtdb
