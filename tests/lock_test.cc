// Tests for the logical-row lock manager (src/engine/lock_manager.{h,cc}
// + the mapping layer's acquisition points, DESIGN.md §15): direct
// LockManager unit coverage (intent compatibility, idempotent
// re-acquisition, deadline timeouts with holder hints, youngest-victim
// deadlock resolution, no wait-for edge carried from one autocommit
// statement to the next) and scripted two-session write-write
// interleavings through the TenantSession front door — block-then-
// proceed with the winner's post-commit image, a rival committing and
// releasing inside the collect→lock window (the write-epoch TOCTOU
// check), deadlock victim abort + auto-rollback, autocommit waiter
// timing out against a bracket, and a poisoned bracket keeping its
// locks until ROLLBACK — asserted identical across all eight layouts,
// plus a chaos variant where storage faults fire while locks are held.
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/verifier.h"
#include "common/deadline.h"
#include "common/fault.h"
#include "common/metrics_registry.h"
#include "common/rng.h"
#include "core/tenant_session.h"
#include "engine/database.h"
#include "engine/lock_manager.h"
#include "mapping_test_util.h"
#include "storage/page_store.h"

namespace mtdb {
namespace {

using mapping::LayoutKind;

void AuditClean(mapping::SchemaMapping* layout, const char* when) {
  analysis::Verifier verifier(layout);
  auto diagnostics = verifier.Run();
  ASSERT_TRUE(diagnostics.ok()) << when << ": "
                                << diagnostics.status().ToString();
  EXPECT_FALSE(analysis::HasErrors(*diagnostics))
      << when << ": " << analysis::FormatDiagnostics(*diagnostics);
}

/// Polls a registry counter until it reaches `target` — how the main
/// thread learns that a peer statement has actually parked on a lock
/// (the lock.waits series bumps before the waiter blocks).
bool WaitForCounter(Counter* counter, uint64_t target,
                    int timeout_ms = 20000) {
  for (int waited = 0; waited < timeout_ms; ++waited) {
    if (counter->value() >= target) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return counter->value() >= target;
}

// ------------------------------------------------- LockManager unit

TEST(LockManagerTest, IntentsShareTablesWhileRowAndTableXExclude) {
  MetricsRegistry registry;
  lock::LockManager lm(&registry);
  lock::LockHolder a(&lm, 7);
  lock::LockHolder b(&lm, 7);
  ASSERT_NE(a.id(), 0u);
  ASSERT_LT(a.id(), b.id()) << "holder ids must be monotonic (age order)";

  const lock::LockKey table{7, "account", lock::kTableRowId};
  const lock::LockKey row{7, "account", 5};
  EXPECT_TRUE(a.Acquire(table, lock::LockMode::kIntentX).ok());
  EXPECT_TRUE(b.Acquire(table, lock::LockMode::kIntentX).ok())
      << "table intents are compatible";
  EXPECT_TRUE(a.Acquire(row, lock::LockMode::kX).ok());
  EXPECT_TRUE(a.Acquire(row, lock::LockMode::kX).ok())
      << "re-acquiring an owned lock is idempotent";
  EXPECT_EQ(lm.held(), 3u);

  // b conflicts on the row and on a whole-table X; both time out under
  // a deadline and the message names the blocking holder.
  {
    deadline::Scope scope(deadline::Deadline::AfterMillis(60));
    Status st = b.Acquire(row, lock::LockMode::kX);
    ASSERT_EQ(st.code(), StatusCode::kDeadlineExceeded) << st.ToString();
    EXPECT_NE(st.message().find("held by txn " + std::to_string(a.id()) +
                                " (tenant 7)"),
              std::string::npos)
        << st.ToString();
    st = b.Acquire(table, lock::LockMode::kX);
    EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded) << st.ToString();
  }
  EXPECT_GE(registry.GetCounter("lock.timeouts.t7")->value(), 2u);
  EXPECT_GE(registry.GetCounter("lock.waits.t7")->value(), 2u);

  a.ReleaseAll();
  EXPECT_TRUE(b.Acquire(row, lock::LockMode::kX).ok())
      << "release must unblock the row";
  b.ReleaseAll();
  EXPECT_EQ(lm.held(), 0u) << "every grant must be matched by a release";
}

TEST(LockManagerTest, BlockedAcquireProceedsWhenHolderReleases) {
  MetricsRegistry registry;
  lock::LockManager lm(&registry);
  lock::LockHolder a(&lm, 3);
  lock::LockHolder b(&lm, 3);
  const lock::LockKey row{3, "t", 1};
  ASSERT_TRUE(a.Acquire(row, lock::LockMode::kX).ok());

  Status blocked = Status::OK();
  bool waited = false;
  std::thread waiter([&] {
    blocked = b.Acquire(row, lock::LockMode::kX, &waited);
  });
  EXPECT_TRUE(WaitForCounter(registry.GetCounter("lock.waits.t3"), 1));
  a.ReleaseAll();
  waiter.join();
  EXPECT_TRUE(blocked.ok()) << blocked.ToString();
  EXPECT_TRUE(waited);
  EXPECT_GE(registry.GetCounter("lock.acquired.t3")->value(), 2u);
  b.ReleaseAll();
  EXPECT_EQ(lm.held(), 0u);
}

TEST(LockManagerTest, YoungestHolderLosesTheDeadlock) {
  MetricsRegistry registry;
  lock::LockManager lm(&registry);
  lock::LockHolder older(&lm, 9);
  lock::LockHolder younger(&lm, 9);
  const lock::LockKey r1{9, "t", 1};
  const lock::LockKey r2{9, "t", 2};
  ASSERT_TRUE(older.Acquire(r1, lock::LockMode::kX).ok());
  ASSERT_TRUE(younger.Acquire(r2, lock::LockMode::kX).ok());

  Status older_wait = Status::OK();
  std::thread parked([&] {
    older_wait = older.Acquire(r2, lock::LockMode::kX);
  });
  EXPECT_TRUE(WaitForCounter(registry.GetCounter("lock.waits.t9"), 1));

  // Closing the cycle from the younger holder picks it as the victim
  // synchronously — the older, parked holder must never abort.
  Status younger_wait = younger.Acquire(r1, lock::LockMode::kX);
  EXPECT_EQ(younger_wait.code(), StatusCode::kAborted)
      << younger_wait.ToString();
  EXPECT_TRUE(younger.aborted());
  younger.ReleaseAll();
  parked.join();
  EXPECT_TRUE(older_wait.ok()) << older_wait.ToString();
  EXPECT_FALSE(older.aborted());
  EXPECT_EQ(registry.GetCounter("lock.deadlocks.t9")->value(), 1u);
  older.ReleaseAll();
  EXPECT_EQ(lm.held(), 0u);
}

// Every autocommit statement owns a fresh holder. A bracket W that
// parked behind a thread's previous statement may still carry a
// wait-for edge to that statement's id when W wakes; the thread's next
// statement must not inherit the edge, or its own wait for W closes a
// cycle that does not exist and aborts it as the deadlock victim.
TEST(LockManagerTest, NextStatementInheritsNoWaitForEdge) {
  MetricsRegistry registry;
  lock::LockManager lm(&registry);
  Counter* waits = registry.GetCounter("lock.waits.t1");
  int aborted = 0;
  for (int i = 0; i < 300; ++i) {
    lock::LockHolder w(&lm, 1);
    ASSERT_TRUE(w.Acquire({1, "t", 2}, lock::LockMode::kX).ok());
    const uint64_t waits_before = waits->value();
    Status second = Status::OK();
    std::atomic<bool> first_locked{false};
    std::atomic<bool> w_parked{false};
    std::thread t([&] {
      {
        lock::StatementLockContext first(&lm, 1, nullptr);
        EXPECT_TRUE(first.LockRow("t", 1).ok());
        first_locked = true;
        while (!w_parked) std::this_thread::yield();
      }
      deadline::Scope scope(deadline::Deadline::AfterMillis(2000));
      lock::StatementLockContext next(&lm, 1, nullptr);
      second = next.LockRow("t", 2);
    });
    while (!first_locked) std::this_thread::yield();
    std::thread parked([&] {
      EXPECT_TRUE(w.Acquire({1, "t", 1}, lock::LockMode::kX).ok());
    });
    EXPECT_TRUE(WaitForCounter(waits, waits_before + 1));
    w_parked = true;
    parked.join();
    w.ReleaseAll();
    t.join();
    if (second.code() == StatusCode::kAborted) aborted++;
    EXPECT_TRUE(second.ok()) << "iteration " << i << ": " << second.ToString();
  }
  EXPECT_EQ(aborted, 0);
  EXPECT_EQ(registry.GetCounter("lock.deadlocks.t1")->value(), 0u);
  EXPECT_EQ(lm.held(), 0u);
}

// The write epoch is the freshness signal behind the mapping layer's
// collect→acquire validation (LockManager::WriteEpoch): it must advance
// exactly when an X lock is released — never on grants, never on
// intent-only releases.
TEST(LockManagerTest, WriteEpochAdvancesOnlyOnXRelease) {
  MetricsRegistry registry;
  lock::LockManager lm(&registry);
  lock::LockHolder a(&lm, 5);
  const uint64_t e0 = lm.WriteEpoch(5, "t");
  ASSERT_TRUE(
      a.Acquire({5, "t", lock::kTableRowId}, lock::LockMode::kIntentX).ok());
  ASSERT_TRUE(a.Acquire({5, "t", 1}, lock::LockMode::kX).ok());
  EXPECT_EQ(lm.WriteEpoch(5, "t"), e0) << "grants must not move the epoch";
  a.ReleaseAll();
  EXPECT_GT(lm.WriteEpoch(5, "t"), e0) << "an X release must move it";

  lock::LockHolder b(&lm, 5);
  const uint64_t e1 = lm.WriteEpoch(5, "t");
  ASSERT_TRUE(
      b.Acquire({5, "t", lock::kTableRowId}, lock::LockMode::kIntentX).ok());
  b.ReleaseAll();
  EXPECT_EQ(lm.WriteEpoch(5, "t"), e1)
      << "an intent-only release carries no committed write";
}

// A deleted row's id is never reused, so its lock entry is dropped when
// released instead of sitting in the lock table's empty-entry cache;
// a row that is only updated keeps its cached entry for the next lock.
TEST(LockManagerTest, DeletedRowsLeaveNoCachedEntries) {
  mapping::AppSchema app = mapping::FigureFourSchema();
  Database db;
  auto layout = mapping::MakeLayout(LayoutKind::kExtension, &db, &app);
  ASSERT_TRUE(layout->Bootstrap().ok());
  ASSERT_TRUE(layout->CreateTenant(17).ok());
  mapping::TenantSession session = layout->OpenSession(17);
  const lock::LockManager* lm = db.lock_manager();
  ASSERT_NE(lm, nullptr);
  for (int64_t aid = 1; aid <= 64; ++aid) {
    ASSERT_TRUE(session
                    .Execute("INSERT INTO account (aid, name) VALUES (?, 'x')",
                             {Value::Int64(aid)})
                    .ok());
    ASSERT_TRUE(
        session.Execute("DELETE FROM account WHERE aid = ?", {Value::Int64(aid)})
            .ok());
  }
  // Only the table intent's entry remains.
  EXPECT_EQ(lm->entries(), 1u);
  // A multi-row delete drops every row it deleted.
  for (int64_t aid = 1; aid <= 8; ++aid) {
    ASSERT_TRUE(session
                    .Execute("INSERT INTO account (aid, name) VALUES (?, 'x')",
                             {Value::Int64(aid)})
                    .ok());
  }
  EXPECT_EQ(lm->entries(), 9u);
  auto deleted = session.Execute("DELETE FROM account WHERE aid <= 4");
  ASSERT_TRUE(deleted.ok());
  EXPECT_EQ(*deleted, 4);
  EXPECT_EQ(lm->entries(), 5u);
  // An update leaves its row's entry cached.
  ASSERT_TRUE(
      session.Execute("UPDATE account SET name = 'y' WHERE aid = 5").ok());
  EXPECT_EQ(lm->entries(), 5u);
  EXPECT_EQ(lm->held(), 0u);
}

// ------------------------------------------------- two-session scripts

/// Figure 4 plus a second logical table, so deadlocks can form between
/// two distinct lock targets even on layouts whose fallback granularity
/// is the whole (logical, per-tenant) table.
class LockInterleavingTest : public ::testing::TestWithParam<LayoutKind> {
 protected:
  void SetUp() override {
    app_ = mapping::FigureFourSchema();
    {
      mapping::LogicalTable inventory;
      inventory.name = "inventory";
      inventory.columns = {{"iid", TypeId::kInt64, true},
                           {"qty", TypeId::kInt32, false}};
      ASSERT_TRUE(app_.AddTable(std::move(inventory)).ok());
    }
    db_ = std::make_unique<Database>();
    layout_ = mapping::MakeLayout(GetParam(), db_.get(), &app_);
    ASSERT_TRUE(layout_->Bootstrap().ok());
    ASSERT_TRUE(layout_->CreateTenant(17).ok());
    ASSERT_TRUE(layout_
                    ->Execute(17,
                              "INSERT INTO account (aid, name) VALUES "
                              "(1, 'Acme'), (2, 'Gump')")
                    .ok());
    ASSERT_TRUE(
        layout_->Execute(17, "INSERT INTO inventory (iid, qty) VALUES (1, 10)")
            .ok());
  }

  void TearDown() override {
    if (layout_ != nullptr) {
      AuditClean(layout_.get(), "at teardown");
      EXPECT_EQ(db_->lock_manager()->held(), 0u)
          << "all locks must be released once every session is quiesced";
    }
  }

  std::string NameOf(int64_t aid) {
    auto r = layout_->Query(
        17, "SELECT name FROM account WHERE aid = " + std::to_string(aid));
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (!r.ok() || r->rows.empty()) return "<missing>";
    return r->rows[0][0].AsString();
  }

  int64_t QtyOf(int64_t iid) {
    auto r = layout_->Query(
        17, "SELECT qty FROM inventory WHERE iid = " + std::to_string(iid));
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (!r.ok() || r->rows.empty()) return -1;
    return r->rows[0][0].AsInt64();
  }

  Counter* Waits() {
    return db_->metrics_registry()->GetCounter("lock.waits.t17");
  }

  mapping::AppSchema app_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<mapping::SchemaMapping> layout_;
};

// A bracket updates a row and inserts another; a concurrent write to the
// same logical rows blocks until COMMIT, then proceeds against the
// winner's post-commit image — including the row the winner inserted
// while the waiter was parked (Phase (a) re-collection).
TEST_P(LockInterleavingTest, BlockedWriterProceedsWithPostCommitImage) {
  mapping::TenantSession winner = layout_->OpenSession(17);
  mapping::TenantSession waiter = layout_->OpenSession(17);

  ASSERT_TRUE(winner.Begin().ok());
  ASSERT_TRUE(
      winner.Execute("UPDATE account SET name = 'A1' WHERE aid = 1").ok());
  ASSERT_TRUE(
      winner.Execute("INSERT INTO account (aid, name) VALUES (3, 'A3')")
          .ok());

  const uint64_t waits_before = Waits()->value();
  std::atomic<bool> done{false};
  Result<int64_t> touched = int64_t{0};
  std::thread blocked([&] {
    touched = waiter.Execute("UPDATE account SET name = 'B' WHERE aid >= 1");
    done.store(true);
  });
  EXPECT_TRUE(WaitForCounter(Waits(), waits_before + 1))
      << "the second writer never blocked on the bracket's locks";
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(done.load())
      << "the waiter must stay parked until the bracket commits";

  ASSERT_TRUE(winner.Commit().ok());
  blocked.join();
  ASSERT_TRUE(touched.ok()) << touched.status().ToString();
  // The waiter acted on the committed image: all three rows, including
  // the one inserted inside the bracket, carry its update.
  EXPECT_EQ(*touched, 3);
  EXPECT_EQ(NameOf(1), "B");
  EXPECT_EQ(NameOf(2), "B");
  EXPECT_EQ(NameOf(3), "B");
}

// A rival that writes, commits and RELEASES entirely inside the gap
// between this statement's Phase (a) collection and its lock
// acquisition never blocks it — only the write-epoch check can force
// the re-collect. Without it the SET expression evaluates against the
// stale image and silently overwrites the rival's committed value
// (the classic collect→acquire TOCTOU lost update).
TEST_P(LockInterleavingTest, CommitBetweenCollectAndLockIsNotLost) {
  std::atomic<bool> fired{false};
  layout_->SetPostCollectHookForTest([&] {
    if (fired.exchange(true)) return;  // only the victim's first collect
    // A separate thread keeps the rival's TLS (lock context, holder
    // lease) clean of the half-finished outer statement.
    std::thread rival([&] {
      mapping::TenantSession session = layout_->OpenSession(17);
      auto r =
          session.Execute("UPDATE inventory SET qty = qty + 100 WHERE iid = 1");
      EXPECT_TRUE(r.ok()) << r.status().ToString();
    });
    rival.join();  // committed and released before the victim locks
  });
  mapping::TenantSession session = layout_->OpenSession(17);
  auto r = session.Execute("UPDATE inventory SET qty = qty + 1 WHERE iid = 1");
  layout_->SetPostCollectHookForTest(nullptr);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  if (fired.load()) {
    EXPECT_EQ(QtyOf(1), 111)
        << "the rival's committed +100 was overwritten from a stale image";
  } else {
    // Pass-through layouts (Basic/Private) have no Phase (a) collection
    // and no collect→lock window: the lock-first rewrite is immune.
    EXPECT_EQ(QtyOf(1), 11);
  }
}

// Same window, but the rival's committed write changes WHICH rows match
// the victim's predicate: the epoch-forced re-collect must pick up the
// newly matching row, not just refresh the images of the old set.
TEST_P(LockInterleavingTest, CommitBetweenCollectAndLockGrowsTheRowSet) {
  std::atomic<bool> fired{false};
  layout_->SetPostCollectHookForTest([&] {
    if (fired.exchange(true)) return;
    std::thread rival([&] {
      mapping::TenantSession session = layout_->OpenSession(17);
      auto r = session.Execute(
          "UPDATE account SET name = 'Acme' WHERE aid = 2");
      EXPECT_TRUE(r.ok()) << r.status().ToString();
    });
    rival.join();
  });
  mapping::TenantSession session = layout_->OpenSession(17);
  auto r = session.Execute("UPDATE account SET name = 'X' WHERE name = 'Acme'");
  layout_->SetPostCollectHookForTest(nullptr);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(NameOf(1), "X");
  if (fired.load()) {
    EXPECT_EQ(*r, 2) << "the re-collect missed the newly matching row";
    EXPECT_EQ(NameOf(2), "X");
  } else {
    EXPECT_EQ(NameOf(2), "Gump");
  }
}

// Two brackets lock account and inventory in opposite orders. The
// younger bracket is chosen as the victim: its statement fails with
// kAborted, the session auto-rolls it back (releasing the locks the
// older bracket is parked on), ROLLBACK acknowledges, and the older
// bracket commits both writes.
TEST_P(LockInterleavingTest, DeadlockAbortsTheYoungestBracket) {
  mapping::TenantSession older = layout_->OpenSession(17);
  mapping::TenantSession younger = layout_->OpenSession(17);

  ASSERT_TRUE(older.Begin().ok());
  ASSERT_TRUE(
      older.Execute("UPDATE account SET name = 'A' WHERE aid = 1").ok());
  ASSERT_TRUE(younger.Begin().ok());
  ASSERT_TRUE(
      younger.Execute("UPDATE inventory SET qty = 20 WHERE iid = 1").ok());

  const uint64_t waits_before = Waits()->value();
  Result<int64_t> older_cross = int64_t{0};
  std::thread parked([&] {
    older_cross = older.Execute("UPDATE inventory SET qty = 30 WHERE iid = 1");
  });
  EXPECT_TRUE(WaitForCounter(Waits(), waits_before + 1));

  auto younger_cross =
      younger.Execute("UPDATE account SET name = 'B' WHERE aid = 1");
  ASSERT_FALSE(younger_cross.ok());
  EXPECT_EQ(younger_cross.status().code(), StatusCode::kAborted)
      << younger_cross.status().ToString();
  // The session already rolled the bracket back; statements are
  // rejected until ROLLBACK acknowledges the abort.
  auto rejected =
      younger.Execute("UPDATE inventory SET qty = 99 WHERE iid = 1");
  EXPECT_EQ(rejected.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(younger.Rollback().ok());
  EXPECT_EQ(
      db_->metrics_registry()->GetCounter("txn.auto_rollback.t17")->value(),
      1u);
  EXPECT_GE(db_->metrics_registry()->GetCounter("lock.deadlocks.t17")->value(),
            1u);

  parked.join();
  ASSERT_TRUE(older_cross.ok()) << older_cross.status().ToString();
  ASSERT_TRUE(older.Commit().ok());
  // The survivor's writes stuck; the victim's update was compensated.
  EXPECT_EQ(NameOf(1), "A");
  EXPECT_EQ(QtyOf(1), 30);
}

// An autocommit statement waiting on a bracket's lock is bounded by its
// deadline: it fails with kDeadlineExceeded naming the holder, and the
// same statement succeeds once the bracket commits.
TEST_P(LockInterleavingTest, AutocommitWaiterTimesOutAgainstABracket) {
  mapping::TenantSession bracket = layout_->OpenSession(17);
  mapping::TenantSession autocommit = layout_->OpenSession(17);

  ASSERT_TRUE(bracket.Begin().ok());
  ASSERT_TRUE(
      bracket.Execute("UPDATE account SET name = 'A1' WHERE aid = 1").ok());

  auto timed_out =
      autocommit.Execute("UPDATE account SET name = 'B1' WHERE aid = 1", {},
                         deadline::Deadline::AfterMillis(150));
  ASSERT_FALSE(timed_out.ok());
  EXPECT_EQ(timed_out.status().code(), StatusCode::kDeadlineExceeded)
      << timed_out.status().ToString();
  EXPECT_NE(timed_out.status().message().find("held by"), std::string::npos)
      << "the timeout must name the conflicting holder: "
      << timed_out.status().ToString();
  EXPECT_GE(db_->metrics_registry()->GetCounter("lock.timeouts.t17")->value(),
            1u);

  ASSERT_TRUE(bracket.Commit().ok());
  auto retried =
      autocommit.Execute("UPDATE account SET name = 'B1' WHERE aid = 1");
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  EXPECT_EQ(NameOf(1), "B1");
}

// A failed statement poisons the bracket but does NOT release its locks
// — earlier writes of the bracket stay protected until the client's
// ROLLBACK replays the compensations and only then lets waiters in.
TEST_P(LockInterleavingTest, PoisonedBracketKeepsLocksUntilRollback) {
  mapping::TenantSession poisoned = layout_->OpenSession(17);
  mapping::TenantSession waiter = layout_->OpenSession(17);

  ASSERT_TRUE(poisoned.Begin().ok());
  ASSERT_TRUE(
      poisoned.Execute("UPDATE account SET name = 'A1' WHERE aid = 1").ok());
  auto bad = poisoned.Execute("UPDATE nosuch SET name = 'x' WHERE aid = 1");
  ASSERT_FALSE(bad.ok());
  auto blocked_stmt =
      poisoned.Execute("UPDATE account SET name = 'A2' WHERE aid = 1");
  EXPECT_EQ(blocked_stmt.status().code(), StatusCode::kFailedPrecondition)
      << "the bracket must be poisoned";

  const uint64_t waits_before = Waits()->value();
  std::atomic<bool> done{false};
  Result<int64_t> touched = int64_t{0};
  std::thread blocked([&] {
    touched = waiter.Execute("UPDATE account SET name = 'B' WHERE aid = 1");
    done.store(true);
  });
  EXPECT_TRUE(WaitForCounter(Waits(), waits_before + 1));
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(done.load())
      << "a poisoned bracket must keep its locks until ROLLBACK";

  ASSERT_TRUE(poisoned.Rollback().ok());
  blocked.join();
  ASSERT_TRUE(touched.ok()) << touched.status().ToString();
  // The waiter saw the rolled-back image (compensation ran before the
  // locks dropped) and then applied its own write.
  EXPECT_EQ(NameOf(1), "B");
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, LockInterleavingTest,
    ::testing::Values(LayoutKind::kBasic, LayoutKind::kPrivate,
                      LayoutKind::kExtension, LayoutKind::kUniversal,
                      LayoutKind::kPivot, LayoutKind::kChunk,
                      LayoutKind::kVertical, LayoutKind::kChunkFolding),
    [](const ::testing::TestParamInfo<LayoutKind>& info) {
      return std::string(mapping::LayoutKindName(info.param));
    });

// ------------------------------------------------- chaos variant

// Storage faults fire while brackets hold locks: forward statements and
// compensation replays hit injected I/O errors mid-transaction while a
// contending autocommit writer hammers the same rows under short
// deadlines. Whatever mix of commits, rollbacks, aborts and timeouts
// results, the layout must audit clean and every lock must be released.
TEST(LockChaosTest, FaultsWhileLocksHeldStillReconcile) {
  for (LayoutKind kind : {LayoutKind::kBasic, LayoutKind::kChunkFolding}) {
    SCOPED_TRACE(mapping::LayoutKindName(kind));
    mapping::AppSchema app = mapping::FigureFourSchema();
    DatabaseOptions dopts;
    dopts.breaker_threshold = 1'000'000;
    Database db(dopts);
    std::unique_ptr<mapping::SchemaMapping> layout =
        mapping::MakeLayout(kind, &db, &app);
    ASSERT_TRUE(layout->Bootstrap().ok());
    ASSERT_TRUE(layout->CreateTenant(17).ok());
    ASSERT_TRUE(layout
                    ->Execute(17,
                              "INSERT INTO account (aid, name) VALUES "
                              "(1, 'a'), (2, 'b'), (3, 'c'), (4, 'd')")
                    .ok());

    FaultInjector injector(20260808);
    db.page_store()->set_fault_injector(&injector);
    db.buffer_pool()->SetCapacity(8);
    Rng rng(20260808ull * 7919 + 17);

    std::atomic<bool> stop{false};
    std::thread contender([&] {
      mapping::TenantSession side = layout->OpenSession(17);
      while (!stop.load()) {
        // Any outcome is legal — success, lock timeout, injected I/O
        // failure; the end-state audit is the oracle.
        (void)side.Execute("UPDATE account SET name = 'side' WHERE aid = 2",
                           {}, deadline::Deadline::AfterMillis(40));
      }
    });

    mapping::TenantSession session = layout->OpenSession(17);
    for (int round = 0; round < 25; ++round) {
      injector.DisarmAll();
      (void)db.buffer_pool()->EvictAll();
      FaultSpec spec;
      spec.probability = 0.2 + 0.1 * static_cast<double>(rng.Uniform(0, 3));
      spec.max_fires = static_cast<uint64_t>(rng.Uniform(1, 5));
      injector.Arm(rng.Bernoulli(0.5) ? FaultPoint::kPageRead
                                      : FaultPoint::kPageWrite,
                   spec);

      ASSERT_TRUE(layout.get() != nullptr);
      if (!session.Begin().ok()) continue;
      // Locks are held across both statements; faults can fail either
      // one (poisoning or aborting the bracket) or the compensation
      // replay below (which retries until the bounded burst drains).
      (void)session.Execute("UPDATE account SET name = 'r" +
                            std::to_string(round) + "' WHERE aid <= 2");
      (void)session.Execute("INSERT INTO account (aid, name) VALUES (" +
                            std::to_string(100 + round) + ", 'n')");
      if (rng.Bernoulli(0.5)) {
        if (!session.Commit().ok() && session.in_transaction()) {
          (void)session.Rollback();
        }
      } else if (session.in_transaction()) {
        (void)session.Rollback();
      }
      ASSERT_FALSE(session.in_transaction());
    }
    stop.store(true);
    contender.join();

    injector.DisarmAll();
    db.page_store()->set_fault_injector(nullptr);
    deadline::Scope no_deadline(deadline::Deadline::None());
    AuditClean(layout.get(), "after lock chaos");
    EXPECT_EQ(db.lock_manager()->held(), 0u)
        << "chaos must not leak locks: every holder releases on commit, "
           "rollback, abort, or statement teardown";
  }
}

}  // namespace
}  // namespace mtdb
