// Tests for client-visible cross-statement transactions: BEGIN / COMMIT /
// ROLLBACK through the SQL surface and the Session / TenantSession APIs
// (src/engine/txn_context.{h,cc} + the session front doors), including
// the poisoned/aborted state machine, DDL rejection, auto-rollback on
// deadline expiry and admission rejection, destructor rollback, the
// txn.* metric series, the tracer's transaction grouping, and the
// durable WAL bracket (open transactions survive checkpoints via the
// meta and are undone on reopen; committed ones persist).
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
#include "scratch_dir.h"
#include "sql/printer.h"

namespace mtdb {
namespace {

std::string FreshDir(const std::string& tag) {
  return FreshScratchDir("mtdb_txn_" + tag);
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

// ------------------------------------------------- the front-door contract

// Both front doors run one statement pipeline, so one set of state-machine
// cases covers both: the engine Session over a physical table, and a
// TenantSession over the same logical table in a Chunk Folding layout.
enum class Door { kEngine, kTenant };

// One client connection through the door under test. Reads go through
// Query, everything else through Execute.
class Client {
 public:
  explicit Client(Session session) : engine_(std::move(session)) {}
  explicit Client(mapping::TenantSession session)
      : tenant_(std::move(session)) {}

  Status Execute(const std::string& sql, deadline::Deadline deadline = {}) {
    if (tenant_) return tenant_.Execute(sql, {}, deadline).status();
    return engine_.Execute(sql, {}, deadline).status();
  }
  Status Query(const std::string& sql) {
    if (tenant_) return tenant_.Query(sql).status();
    return engine_.Query(sql).status();
  }
  Status Begin() { return tenant_ ? tenant_.Begin() : engine_.Begin(); }
  Status Commit() { return tenant_ ? tenant_.Commit() : engine_.Commit(); }
  Status Rollback() {
    return tenant_ ? tenant_.Rollback() : engine_.Rollback();
  }
  bool in_transaction() const {
    return tenant_ ? tenant_.in_transaction() : engine_.in_transaction();
  }

 private:
  Session engine_;
  mapping::TenantSession tenant_;
};

class FrontDoorTest : public ::testing::TestWithParam<Door> {
 protected:
  void SetUp() override {
    db_ = std::make_unique<Database>();
    if (GetParam() == Door::kEngine) {
      ASSERT_TRUE(
          db_->Execute("CREATE TABLE account (aid BIGINT, name VARCHAR)")
              .ok());
      ASSERT_TRUE(db_->Execute("INSERT INTO account VALUES (1, 'keep')").ok());
    } else {
      app_ = mapping::FigureFourSchema();
      layout_ = mapping::MakeLayout(mapping::LayoutKind::kChunkFolding,
                                    db_.get(), &app_);
      ASSERT_TRUE(layout_->Bootstrap().ok());
      ASSERT_TRUE(layout_->CreateTenant(0).ok());
      ASSERT_TRUE(
          layout_
              ->Execute(0, "INSERT INTO account (aid, name) VALUES (1, 'keep')")
              .ok());
    }
    client_ = std::make_unique<Client>(Open());
  }

  Client Open() {
    return layout_ == nullptr ? Client(db_->OpenSession())
                              : Client(layout_->OpenSession(0));
  }

  /// The account rows (aid, name) in aid order, read outside any session.
  std::vector<Row> Rows() {
    const std::string sql = "SELECT aid, name FROM account ORDER BY aid";
    auto r = layout_ == nullptr ? db_->Query(sql) : layout_->Query(0, sql);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? r->rows : std::vector<Row>{};
  }

  /// A per-tenant series of the door's tenant (engine sessions run as
  /// tenant -1).
  uint64_t Count(const std::string& series) {
    const std::string tenant = layout_ == nullptr ? "-1" : "0";
    return db_->metrics_registry()->GetCounter(series + ".t" + tenant)->value();
  }
  uint64_t OpenGauge() {
    const std::string tenant = layout_ == nullptr ? "-1" : "0";
    // Gauges are evaluated at Snapshot() time and land in `counters`.
    return db_->metrics_registry()->Snapshot().CounterValue("txn.open.t" +
                                                            tenant);
  }

  std::unique_ptr<Database> db_;
  mapping::AppSchema app_;
  std::unique_ptr<mapping::SchemaMapping> layout_;
  std::unique_ptr<Client> client_;
};

TEST_P(FrontDoorTest, CommitMakesAllStatementsVisible) {
  ASSERT_TRUE(client_->Begin().ok());
  EXPECT_TRUE(client_->in_transaction());
  ASSERT_TRUE(
      client_->Execute("INSERT INTO account (aid, name) VALUES (2, 'a')").ok());
  ASSERT_TRUE(
      client_->Execute("INSERT INTO account (aid, name) VALUES (3, 'b')").ok());
  ASSERT_TRUE(
      client_->Execute("UPDATE account SET name = 'x' WHERE aid = 1").ok());
  ASSERT_TRUE(client_->Commit().ok());
  EXPECT_FALSE(client_->in_transaction());
  std::vector<Row> rows = Rows();
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0][1].AsString(), "x");
  EXPECT_EQ(Count("txn.commit"), 1u);
}

TEST_P(FrontDoorTest, RollbackRestoresPreTransactionState) {
  ASSERT_TRUE(client_->Begin().ok());
  ASSERT_TRUE(
      client_->Execute("INSERT INTO account (aid, name) VALUES (2, 'a')").ok());
  ASSERT_TRUE(
      client_->Execute("UPDATE account SET name = 'clobbered' WHERE aid = 1")
          .ok());
  ASSERT_TRUE(client_->Execute("DELETE FROM account WHERE aid = 2").ok());
  ASSERT_TRUE(
      client_->Execute("INSERT INTO account (aid, name) VALUES (4, 'd')").ok());
  ASSERT_TRUE(client_->Rollback().ok());
  EXPECT_FALSE(client_->in_transaction());
  std::vector<Row> rows = Rows();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][1].AsString(), "keep");
  EXPECT_EQ(Count("txn.rollback"), 1u);
}

TEST_P(FrontDoorTest, SqlSurfaceRoutesToTransactionControl) {
  ASSERT_TRUE(client_->Execute("BEGIN").ok());
  EXPECT_TRUE(client_->in_transaction());
  ASSERT_TRUE(
      client_->Execute("INSERT INTO account (aid, name) VALUES (2, 'a')").ok());
  EXPECT_EQ(client_->Execute("  begin  ").code(),
            StatusCode::kFailedPrecondition)
      << "nested BEGIN must be rejected";
  ASSERT_TRUE(client_->Execute("commit").ok());
  EXPECT_FALSE(client_->in_transaction());
  ASSERT_TRUE(client_->Execute("BEGIN TRANSACTION").ok());
  ASSERT_TRUE(client_->Execute("DELETE FROM account WHERE aid = 2").ok());
  ASSERT_TRUE(client_->Execute("ROLLBACK").ok());
  EXPECT_EQ(Rows().size(), 2u);
}

// Transaction control is recognised by parsing the whole statement, not
// by its first word: trailing text after a transaction keyword is a
// parse error that neither opens, commits nor rolls back anything, and
// does not poison an open transaction.
TEST_P(FrontDoorTest, TransactionKeywordPrefixesAreParseErrors) {
  EXPECT_EQ(client_->Execute("BEGIN; DELETE FROM account").code(),
            StatusCode::kParseError);
  EXPECT_FALSE(client_->in_transaction());
  EXPECT_EQ(Rows().size(), 1u) << "the DELETE after BEGIN must not run";

  int64_t aid = 2;
  for (const char* sql : {"ROLLBACK TO SAVEPOINT x", "COMMIT garbage"}) {
    SCOPED_TRACE(sql);
    Client client = Open();
    ASSERT_TRUE(client.Begin().ok());
    ASSERT_TRUE(client
                    .Execute("INSERT INTO account (aid, name) VALUES (" +
                             std::to_string(aid++) + ", 'a')")
                    .ok());
    EXPECT_EQ(client.Execute(sql).code(), StatusCode::kParseError);
    EXPECT_TRUE(client.in_transaction());
    EXPECT_TRUE(client.Commit().ok());
  }
  EXPECT_EQ(Rows().size(), 3u);
  EXPECT_EQ(Count("txn.commit"), 2u);
}

TEST_P(FrontDoorTest, BracketMisuseIsRejected) {
  EXPECT_EQ(client_->Commit().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(client_->Rollback().code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(client_->Begin().ok());
  EXPECT_EQ(client_->Begin().code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(client_->Rollback().ok());
}

TEST_P(FrontDoorTest, FailedStatementPoisonsUntilRollback) {
  ASSERT_TRUE(client_->Begin().ok());
  ASSERT_TRUE(
      client_->Execute("INSERT INTO account (aid, name) VALUES (2, 'a')").ok());
  // Parseable but unexecutable: unknown table.
  ASSERT_FALSE(client_->Execute("INSERT INTO nope VALUES (1, 'x')").ok());
  // Everything but ROLLBACK is now rejected — including reads.
  EXPECT_EQ(client_->Query("SELECT * FROM account").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(client_->Commit().code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(client_->in_transaction());
  ASSERT_TRUE(client_->Rollback().ok());
  EXPECT_EQ(Rows().size(), 1u);
  // The session is usable again after the acknowledgement.
  EXPECT_TRUE(client_->Query("SELECT * FROM account").ok());
}

TEST_P(FrontDoorTest, DdlIsRejectedInsideATransaction) {
  ASSERT_TRUE(client_->Begin().ok());
  ASSERT_TRUE(
      client_->Execute("INSERT INTO account (aid, name) VALUES (2, 'a')").ok());
  EXPECT_EQ(client_->Execute("CREATE TABLE u (a INT)").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(client_->Execute("DROP TABLE account").code(),
            StatusCode::kFailedPrecondition);
  // The rejection gates the statement up front: the transaction is
  // still active and commits cleanly.
  ASSERT_TRUE(client_->Commit().ok());
  EXPECT_EQ(Rows().size(), 2u);
}

TEST_P(FrontDoorTest, DeadlineExpiryAbortsAndRollsBack) {
  ASSERT_TRUE(client_->Begin().ok());
  ASSERT_TRUE(
      client_->Execute("INSERT INTO account (aid, name) VALUES (2, 'a')").ok());
  EXPECT_EQ(client_->Execute("INSERT INTO account (aid, name) VALUES (3, 'b')",
                             deadline::Deadline::AfterMillis(-5))
                .code(),
            StatusCode::kDeadlineExceeded);
  // The session already rolled the transaction back; statements are
  // rejected until ROLLBACK acknowledges.
  EXPECT_EQ(
      client_->Execute("INSERT INTO account (aid, name) VALUES (4, 'c')")
          .code(),
      StatusCode::kFailedPrecondition);
  EXPECT_EQ(Count("txn.auto_rollback"), 1u);
  // Both doors count the expiry engine-wide and per tenant.
  EXPECT_EQ(db_->metrics_registry()->GetCounter("deadline.exceeded")->value(),
            1u);
  EXPECT_EQ(Count("deadline.exceeded"), 1u);
  ASSERT_TRUE(client_->Rollback().ok());
  EXPECT_EQ(Rows().size(), 1u);
}

TEST_P(FrontDoorTest, SessionDestructionRollsBackOpenTransaction) {
  {
    Client doomed = Open();
    ASSERT_TRUE(doomed.Begin().ok());
    ASSERT_TRUE(
        doomed.Execute("INSERT INTO account (aid, name) VALUES (2, 'a')").ok());
    ASSERT_TRUE(
        doomed.Execute("UPDATE account SET name = 'gone' WHERE aid = 1").ok());
  }
  std::vector<Row> rows = Rows();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][1].AsString(), "keep");
  EXPECT_EQ(Count("txn.auto_rollback"), 1u);
}

TEST_P(FrontDoorTest, OpenGaugeTracksTheBracket) {
  ASSERT_TRUE(client_->Begin().ok());
  EXPECT_EQ(OpenGauge(), 1u);
  ASSERT_TRUE(client_->Commit().ok());
  EXPECT_EQ(OpenGauge(), 0u);
  ASSERT_TRUE(client_->Begin().ok());
  ASSERT_TRUE(client_->Rollback().ok());
  EXPECT_EQ(OpenGauge(), 0u);
  EXPECT_EQ(Count("txn.begin"), 2u);
}

INSTANTIATE_TEST_SUITE_P(
    Doors, FrontDoorTest, ::testing::Values(Door::kEngine, Door::kTenant),
    [](const ::testing::TestParamInfo<Door>& info) {
      return std::string(info.param == Door::kEngine ? "engine" : "tenant");
    });

// Engine-only: EXPLAIN MAPPING through Execute inside a transaction only
// plans and stages nothing. (A tenant session explains through
// TenantSession::Explain, outside the statement pipeline.)
TEST(EngineTxnTest, SelectAndExplainRunInsideATransaction) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE t (id BIGINT, name VARCHAR)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (1, 'keep')").ok());
  Session session = db.OpenSession();
  ASSERT_TRUE(session.Begin().ok());
  ASSERT_TRUE(session.Execute("INSERT INTO t VALUES (2, 'a')").ok());
  auto rows = session.Execute("SELECT * FROM t");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(RowsOf(*rows).rows.size(), 2u);
  auto explained =
      session.Execute("EXPLAIN MAPPING DELETE FROM t WHERE id = 2");
  ASSERT_TRUE(explained.ok()) << explained.status().ToString();
  EXPECT_TRUE(HasExplanation(*explained));
  ASSERT_TRUE(session.Rollback().ok());
  EXPECT_EQ(CountRows(&db, "t"), 1);
}

// ------------------------------------------------- mapping sessions

class MappingTxnTest : public ::testing::TestWithParam<mapping::LayoutKind> {
 protected:
  void SetUp() override {
    app_ = mapping::FigureFourSchema();
    db_ = std::make_unique<Database>();
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
  Database db;
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
