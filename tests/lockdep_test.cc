// Tests for the lockdep latch-order validator and WAL-protocol analyzer
// (src/common/latch.{h,cc}, src/analysis/lockdep.{h,cc}). Every seeded
// violation class must fire its rule; correct protocol must stay silent.
// The whole suite skips in builds without -DMTDB_LOCKDEP=ON — the
// wrappers compile down to the raw primitives there and record nothing.
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/lockdep.h"
#include "common/latch.h"
#include "engine/database.h"
#include "mapping_test_util.h"
#include "scratch_dir.h"
#include "storage/buffer_pool.h"
#include "storage/page_store.h"

namespace mtdb {
namespace {

bool HasRule(const std::vector<lockdep::Violation>& violations,
             const char* rule) {
  for (const lockdep::Violation& v : violations) {
    if (v.rule_id == rule) return true;
  }
  return false;
}

std::string RulesOf(const std::vector<lockdep::Violation>& violations) {
  std::string out;
  for (const lockdep::Violation& v : violations) {
    out += v.rule_id + ": " + v.message + "\n";
  }
  return out;
}

class LockdepTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!lockdep::CompiledIn()) {
      GTEST_SKIP() << "validator not compiled in (build with MTDB_LOCKDEP)";
    }
    // Seeded violations must record, not abort, regardless of the
    // environment's MTDB_LOCKDEP_FATAL.
    lockdep::SetFatal(false);
    lockdep::Drain();  // isolate from earlier tests
  }
};

// ------------------------------------------------------- latch ordering

TEST_F(LockdepTest, SeededRankInversionFires) {
  Latch table(LatchRank::kTableIndex, "c201-table");
  Latch ddl(LatchRank::kDdl, "c201-ddl");
  table.lock();
  ddl.lock();  // rank ascends while a latch is held: inversion
  ddl.unlock();
  table.unlock();
  auto violations = lockdep::Drain();
  EXPECT_TRUE(HasRule(violations, "C201")) << RulesOf(violations);
}

TEST_F(LockdepTest, DescendingAcquisitionIsClean) {
  Latch ddl(LatchRank::kDdl, "clean-ddl");
  Latch table(LatchRank::kTableIndex, "clean-table");
  Latch wal(LatchRank::kWal, "clean-wal");
  ddl.lock();
  table.lock();
  wal.lock();
  wal.unlock();
  table.unlock();
  ddl.unlock();
  auto violations = lockdep::Drain();
  EXPECT_TRUE(violations.empty()) << RulesOf(violations);
}

TEST_F(LockdepTest, SeededOrderKeyInversionFires) {
  Latch a(LatchRank::kTableIndex, "c202-a");
  Latch b(LatchRank::kTableIndex, "c202-b");
  a.SetOrderKey(5);
  b.SetOrderKey(3);
  a.lock();
  b.lock();  // same rank, key 3 after key 5: descending, not allowed
  b.unlock();
  a.unlock();
  auto violations = lockdep::Drain();
  EXPECT_TRUE(HasRule(violations, "C202")) << RulesOf(violations);

  // Strictly ascending keys are the sanctioned multi-table pattern.
  b.lock();
  a.lock();
  a.unlock();
  b.unlock();
  violations = lockdep::Drain();
  EXPECT_TRUE(violations.empty()) << RulesOf(violations);
}

TEST_F(LockdepTest, SeededCrossThreadAbbaCycleFires) {
  // Same rank, no order keys: legal to nest, but opposite nesting on two
  // threads is the classic ABBA deadlock the acquisition graph catches.
  Latch a(LatchRank::kBufferShard, "c203-a");
  Latch b(LatchRank::kBufferShard, "c203-b");
  std::thread first([&] {
    a.lock();
    b.lock();
    b.unlock();
    a.unlock();
  });
  first.join();
  std::thread second([&] {
    b.lock();
    a.lock();  // reversed: cycle with the edge the first thread recorded
    a.unlock();
    b.unlock();
  });
  second.join();
  auto violations = lockdep::Drain();
  EXPECT_TRUE(HasRule(violations, "C203")) << RulesOf(violations);
}

// --------------------------------------------------------- WAL protocol

TEST_F(LockdepTest, SeededUnloggedMutationFires) {
  // Run on a scratch thread so the capture-pending thread-local state
  // dies with the thread instead of leaking into later tests.
  std::thread t([] {
    PageStore store;
    BufferPool pool(&store, 16);
    pool.set_wal_protocol_checks(true);  // as the durable engine does
    Page* p = pool.NewPage(PageType::kHeap);  // no PageCaptureScope
    pool.UnpinPage(p->id(), /*dirty=*/true);
  });
  t.join();
  auto violations = lockdep::Drain();
  EXPECT_TRUE(HasRule(violations, "C301")) << RulesOf(violations);
}

TEST_F(LockdepTest, CapturedMutationIsClean) {
  std::thread t([] {
    PageStore store;
    BufferPool pool(&store, 16);
    pool.set_wal_protocol_checks(true);
    Latch table(LatchRank::kTableIndex, "c301-clean-table");
    table.lock();
    PageMutationCapture capture;
    {
      PageCaptureScope scope(&capture);
      Page* p = pool.NewPage(PageType::kHeap);
      pool.UnpinPage(p->id(), /*dirty=*/true);
    }
    lockdep::OnCaptureCommit(&capture);  // as Database::CommitDmlGroup does
    table.unlock();
  });
  t.join();
  auto violations = lockdep::Drain();
  EXPECT_TRUE(violations.empty()) << RulesOf(violations);
}

TEST_F(LockdepTest, SeededCaptureLeakPastLatchReleaseFires) {
  std::thread t([] {
    PageStore store;
    BufferPool pool(&store, 16);
    pool.set_wal_protocol_checks(true);
    Latch table(LatchRank::kTableIndex, "c302-table");
    table.lock();
    PageMutationCapture capture;
    {
      PageCaptureScope scope(&capture);
      Page* p = pool.NewPage(PageType::kHeap);
      pool.UnpinPage(p->id(), /*dirty=*/true);
    }
    table.unlock();  // released with the redo group never committed
  });
  t.join();
  auto violations = lockdep::Drain();
  EXPECT_TRUE(HasRule(violations, "C302")) << RulesOf(violations);
}

TEST_F(LockdepTest, SeededUnlatchedCommitFires) {
  std::thread t([] {
    PageStore store;
    BufferPool pool(&store, 16);
    pool.set_wal_protocol_checks(true);
    PageMutationCapture capture;
    {
      PageCaptureScope scope(&capture);
      Page* p = pool.NewPage(PageType::kHeap);
      pool.UnpinPage(p->id(), /*dirty=*/true);
    }
    lockdep::OnCaptureCommit(&capture);  // no exclusive table latch held
  });
  t.join();
  auto violations = lockdep::Drain();
  EXPECT_TRUE(HasRule(violations, "C303")) << RulesOf(violations);
}

/// Mutates an existing page under a latched capture, declaring write
/// intent first or not, and commits the capture as the engine does.
void MutateExistingPage(bool write_intent) {
  PageStore store;
  BufferPool pool(&store, 16);
  // The page predates the statement (created before the checks are on).
  Page* fresh = pool.NewPage(PageType::kHeap);
  const PageId id = fresh->id();
  pool.UnpinPage(id, /*dirty=*/true);
  pool.set_wal_protocol_checks(true);
  Latch table(LatchRank::kTableIndex, "c304-table");
  table.lock();
  PageMutationCapture capture;
  {
    PageCaptureScope scope(&capture);
    Result<Page*> page = pool.FetchPage(id);
    ASSERT_TRUE(page.ok());
    if (write_intent) pool.WillWrite(*page);
    (*page)->data()[100] = 'x';
    pool.UnpinPage(id, /*dirty=*/true);
  }
  lockdep::OnCaptureCommit(&capture);
  table.unlock();
}

TEST_F(LockdepTest, SeededMutationWithoutWriteIntentFires) {
  // A mutation site that skips BufferPool::WillWrite leaves the capture
  // without the page's before-image: its delta would be wrong.
  std::thread t([] { MutateExistingPage(/*write_intent=*/false); });
  t.join();
  auto violations = lockdep::Drain();
  EXPECT_TRUE(HasRule(violations, "C304")) << RulesOf(violations);
}

TEST_F(LockdepTest, MutationAfterWriteIntentIsClean) {
  std::thread t([] { MutateExistingPage(/*write_intent=*/true); });
  t.join();
  auto violations = lockdep::Drain();
  EXPECT_TRUE(violations.empty()) << RulesOf(violations);
}

// ------------------------------------------------- clean concurrent use

TEST_F(LockdepTest, ConcurrentEngineWorkloadIsClean) {
  // Eight sessions of real engine traffic (DDL, DML, point reads)
  // through every migrated latch layer must record zero violations.
  {
    Database db;
    ASSERT_TRUE(db.Execute("CREATE TABLE t (id BIGINT, v VARCHAR(16))").ok());
    std::vector<std::thread> threads;
    for (int w = 0; w < 8; ++w) {
      threads.emplace_back([&db, w] {
        for (int i = 0; i < 25; ++i) {
          int64_t id = w * 1000 + i;
          ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (" +
                                 std::to_string(id) + ", 'x')")
                          .ok());
          ASSERT_TRUE(db.Query("SELECT v FROM t WHERE id = " +
                               std::to_string(id))
                          .ok());
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  auto violations = lockdep::Drain();
  EXPECT_TRUE(violations.empty()) << RulesOf(violations);
}

// Regression for a C201 first caught by the recovery suite: on a durable
// engine, a multi-row logical INSERT opens the txn gate (shared) when the
// undo log stages its first compensation, and later rows of the same
// statement re-enter the mapping cache. Under the old rank table the
// cache latch outranked the gate, so that re-entry ascended; worse, the
// lazy table build under the cache latch could attempt an automatic
// checkpoint, which takes the gate exclusively — a genuine ABBA with
// concurrent writers. The re-ranked hierarchy plus the checkpoint
// deferral inside SchemaMapping::Mapping() must keep the path silent.
TEST_F(LockdepTest, DurableMultiRowInsertThroughMappingIsClean) {
  namespace fs = std::filesystem;
  const std::string dir = FreshScratchDir("mtdb_lockdep_c201");
  {
    mapping::AppSchema app = mapping::FigureFourSchema();
    EngineOptions options;
    // Make every WAL append tempt an automatic checkpoint, so one runs
    // inside the lazy DDL that Mapping() runs under its cache latch: it
    // takes the DDL latch (kDdl) below the cache latch (kMappingCache),
    // the same nesting as that DDL itself, which lockdep must accept.
    options.checkpoint_interval_bytes = 1;
    auto opened = Database::Open(DatabaseOptions::WithPath(dir, options));
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    std::unique_ptr<Database> db = std::move(*opened);
    std::unique_ptr<mapping::SchemaMapping> layout =
        mapping::MakeLayout(mapping::LayoutKind::kExtension, db.get(), &app);
    ASSERT_TRUE(layout->Bootstrap().ok());
    ASSERT_TRUE(layout->CreateTenant(1).ok());
    ASSERT_TRUE(layout->EnableExtension(1, "healthcare").ok());
    for (int i = 0; i < 4; ++i) {
      auto r = layout->Execute(
          1,
          "INSERT INTO account (aid, name, hospital, beds) "
          "VALUES (?, ?, ?, ?), (?, ?, ?, ?)",
          {Value::Int64(i * 2 + 1), Value::String("a"), Value::String("mercy"),
           Value::Int32(1), Value::Int64(i * 2 + 2), Value::String("b"),
           Value::String("grace"), Value::Int32(2)});
      ASSERT_TRUE(r.ok()) << r.status().ToString();
    }
  }
  fs::remove_all(dir);
  auto violations = lockdep::Drain();
  EXPECT_TRUE(violations.empty()) << RulesOf(violations);
}

// -------------------------------------------------- diagnostic adapter

TEST_F(LockdepTest, DrainsAsDiagnostics) {
  Latch table(LatchRank::kTableIndex, "adapter-table");
  Latch ddl(LatchRank::kDdl, "adapter-ddl");
  table.lock();
  ddl.lock();
  ddl.unlock();
  table.unlock();
  std::vector<analysis::Diagnostic> diagnostics =
      analysis::DrainLockdepDiagnostics();
  ASSERT_FALSE(diagnostics.empty());
  bool found = false;
  for (const analysis::Diagnostic& d : diagnostics) {
    if (d.rule_id == analysis::kRuleRankInversion) found = true;
    EXPECT_EQ(d.severity, analysis::Severity::kError);
  }
  EXPECT_TRUE(found);
  EXPECT_TRUE(analysis::LockdepCompiledIn());
}

TEST(LockdepReleaseTest, HooksCompileAwayWhenOff) {
  if (lockdep::CompiledIn()) {
    GTEST_SKIP() << "instrumented build";
  }
  // The wrappers must behave as plain mutexes and record nothing.
  Latch a(LatchRank::kTableIndex, "off-a");
  Latch b(LatchRank::kDdl, "off-b");
  a.lock();
  b.lock();  // would be C201 when instrumented
  b.unlock();
  a.unlock();
  EXPECT_EQ(lockdep::TotalViolations(), 0u);
  EXPECT_TRUE(lockdep::Drain().empty());
  EXPECT_FALSE(analysis::LockdepCompiledIn());
}

}  // namespace
}  // namespace mtdb
