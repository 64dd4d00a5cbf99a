#include <gtest/gtest.h>

#include "common/fault.h"
#include "engine/database.h"
#include "engine/session.h"
#include "mapping_test_util.h"
#include "storage/buffer_pool.h"
#include "storage/page_store.h"

namespace mtdb {
namespace {

// --- engine error surfaces --------------------------------------------

class EngineErrorTest : public ::testing::Test {
 protected:
  Database db_;
};

TEST_F(EngineErrorTest, QueryUnknownTable) {
  auto r = db_.Query("SELECT a FROM missing");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST_F(EngineErrorTest, QueryUnknownColumn) {
  ASSERT_TRUE(db_.Execute("CREATE TABLE t (a INT)").ok());
  auto r = db_.Query("SELECT b FROM t");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST_F(EngineErrorTest, AmbiguousUnqualifiedColumn) {
  ASSERT_TRUE(db_.Execute("CREATE TABLE x (a INT)").ok());
  ASSERT_TRUE(db_.Execute("CREATE TABLE y (a INT)").ok());
  ASSERT_TRUE(db_.Execute("INSERT INTO x VALUES (1)").ok());
  ASSERT_TRUE(db_.Execute("INSERT INTO y VALUES (1)").ok());
  auto r = db_.Query("SELECT a FROM x, y");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(EngineErrorTest, MissingBindParameter) {
  ASSERT_TRUE(db_.Execute("CREATE TABLE t (a INT)").ok());
  ASSERT_TRUE(db_.Execute("INSERT INTO t VALUES (1)").ok());
  auto r = db_.Query("SELECT a FROM t WHERE a = ?");  // no params bound
  EXPECT_FALSE(r.ok());
}

TEST_F(EngineErrorTest, DivisionByZeroSurfacesAsError) {
  ASSERT_TRUE(db_.Execute("CREATE TABLE t (a INT)").ok());
  ASSERT_TRUE(db_.Execute("INSERT INTO t VALUES (1)").ok());
  auto r = db_.Query("SELECT a / 0 FROM t");
  EXPECT_FALSE(r.ok());
}

TEST_F(EngineErrorTest, InsertArityMismatch) {
  ASSERT_TRUE(db_.Execute("CREATE TABLE t (a INT, b INT)").ok());
  EXPECT_FALSE(db_.Execute("INSERT INTO t VALUES (1)").ok());
  EXPECT_FALSE(db_.Execute("INSERT INTO t (a) VALUES (1, 2)").ok());
}

TEST_F(EngineErrorTest, UpdateUnknownColumn) {
  ASSERT_TRUE(db_.Execute("CREATE TABLE t (a INT)").ok());
  EXPECT_FALSE(db_.Execute("UPDATE t SET nope = 1").ok());
}

TEST_F(EngineErrorTest, DuplicateIndexName) {
  ASSERT_TRUE(db_.Execute("CREATE TABLE t (a INT)").ok());
  ASSERT_TRUE(db_.Execute("CREATE INDEX ix ON t (a)").ok());
  EXPECT_EQ(db_.Execute("CREATE INDEX ix ON t (a)").status().code(),
            StatusCode::kAlreadyExists);
}

TEST_F(EngineErrorTest, IndexOnUnknownColumn) {
  ASSERT_TRUE(db_.Execute("CREATE TABLE t (a INT)").ok());
  EXPECT_EQ(db_.Execute("CREATE INDEX ix ON t (zz)").status().code(),
            StatusCode::kNotFound);
}

TEST_F(EngineErrorTest, DropMissingObjects) {
  EXPECT_EQ(db_.Execute("DROP TABLE nope").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(db_.Execute("DROP INDEX nope").status().code(),
            StatusCode::kNotFound);
}

TEST_F(EngineErrorTest, GroupByReferencingNonGroupedColumn) {
  ASSERT_TRUE(db_.Execute("CREATE TABLE t (a INT, b INT)").ok());
  ASSERT_TRUE(db_.Execute("INSERT INTO t VALUES (1, 2)").ok());
  auto r = db_.Query("SELECT b, COUNT(*) FROM t GROUP BY a");
  EXPECT_FALSE(r.ok());
}

TEST_F(EngineErrorTest, ParseErrorsDoNotMutateState) {
  ASSERT_TRUE(db_.Execute("CREATE TABLE t (a INT)").ok());
  size_t tables = db_.Stats().tables;
  EXPECT_FALSE(db_.Execute("CREATE TABLE broken (").ok());
  EXPECT_EQ(db_.Stats().tables, tables);
}

// --- mapping-layer error surfaces ---------------------------------------

class MappingErrorTest : public ::testing::Test {
 protected:
  explicit MappingErrorTest(DatabaseOptions options = {})
      : app_(mapping::FigureFourSchema()),
        db_(std::move(options)),
        layout_(&db_, &app_) {
    EXPECT_TRUE(layout_.Bootstrap().ok());
    EXPECT_TRUE(layout_.CreateTenant(1).ok());
  }

  mapping::AppSchema app_;
  Database db_;
  mapping::ChunkFoldingLayout layout_;
};

TEST_F(MappingErrorTest, UnknownTenant) {
  auto r = layout_.Query(99, "SELECT * FROM account");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_FALSE(layout_.Execute(99, "DELETE FROM account").ok());
}

TEST_F(MappingErrorTest, DuplicateTenant) {
  EXPECT_EQ(layout_.CreateTenant(1).code(), StatusCode::kAlreadyExists);
}

TEST_F(MappingErrorTest, UnknownExtension) {
  EXPECT_EQ(layout_.EnableExtension(1, "nope").code(), StatusCode::kNotFound);
}

TEST_F(MappingErrorTest, EnableExtensionTwiceIsIdempotent) {
  ASSERT_TRUE(layout_.EnableExtension(1, "healthcare").ok());
  ASSERT_TRUE(layout_.EnableExtension(1, "healthcare").ok());
  auto cols = layout_.LogicalColumns(1, "account");
  ASSERT_TRUE(cols.ok());
  EXPECT_EQ(cols->size(), 4u);  // not 6: columns added once
}

TEST_F(MappingErrorTest, UnknownLogicalTable) {
  EXPECT_FALSE(layout_.Query(1, "SELECT * FROM nope").ok());
  EXPECT_FALSE(
      layout_.Execute(1, "INSERT INTO nope (a) VALUES (1)").ok());
}

TEST_F(MappingErrorTest, DdlStatementsRejectedAtLogicalLevel) {
  // Tenants do not get to issue physical DDL through the layer.
  EXPECT_FALSE(layout_.Execute(1, "CREATE TABLE evil (a INT)").ok());
  EXPECT_FALSE(layout_.Execute(1, "DROP TABLE account").ok());
}

TEST_F(MappingErrorTest, PhysicalTablesInvisibleToTenants) {
  // A tenant cannot name the generic structures directly.
  EXPECT_FALSE(layout_.Query(1, "SELECT * FROM fold_chunkdata").ok());
  EXPECT_FALSE(layout_.Query(1, "SELECT * FROM cf_account").ok());
}

// --- injected-fault status surfaces -------------------------------------

TEST(FaultStatusTest, SilentTornWriteSurfacesAsDataLoss) {
  PageStore store(512);
  FaultInjector injector(7);
  store.set_fault_injector(&injector);
  PageId id = store.Allocate(PageType::kHeap);
  std::vector<char> image(512, 'a');

  FaultSpec torn;
  torn.probability = 1.0;
  torn.max_fires = 1;
  torn.silent = true;  // the device lies: the write reports success
  injector.Arm(FaultPoint::kTornWrite, torn);
  ASSERT_TRUE(store.Write(id, image.data()).ok());

  // The checksum covers the full intended image, so the half-page that
  // actually landed is detected on read instead of returned as garbage.
  std::vector<char> out(512, 0);
  EXPECT_EQ(store.Read(id, out.data()).code(), StatusCode::kDataLoss);
  EXPECT_GT(store.io_counters().Snapshot().checksum_failures, 0u);

  // A later full write (the burst is spent) repairs the page.
  ASSERT_TRUE(store.Write(id, image.data()).ok());
  ASSERT_TRUE(store.Read(id, out.data()).ok());
  EXPECT_EQ(out, image);
}

TEST(FaultStatusTest, TransientReadFaultIsRetriedAndRecovers) {
  PageStore store(512);
  BufferPool pool(&store, 4);
  FaultInjector injector(7);
  Page* p = pool.NewPage(PageType::kHeap);
  PageId id = p->id();
  pool.UnpinPage(id, true);
  ASSERT_TRUE(pool.EvictAll().ok());

  store.set_fault_injector(&injector);
  FaultSpec spec;
  spec.probability = 1.0;
  spec.max_fires = 2;  // fewer than the 4 retry attempts
  injector.Arm(FaultPoint::kPageRead, spec);

  auto r = pool.FetchPage(id);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  pool.UnpinPage(id, false);
  IoFaultCountersSnapshot io = store.io_counters().Snapshot();
  EXPECT_EQ(io.read_faults, 2u);
  EXPECT_GE(io.read_retries, 2u);
  EXPECT_EQ(io.retry_exhaustions, 0u);
}

TEST(FaultStatusTest, ReadRetryExhaustionSurfacesIOError) {
  PageStore store(512);
  BufferPool pool(&store, 4);
  FaultInjector injector(7);
  Page* p = pool.NewPage(PageType::kHeap);
  PageId id = p->id();
  pool.UnpinPage(id, true);
  ASSERT_TRUE(pool.EvictAll().ok());

  store.set_fault_injector(&injector);
  FaultSpec spec;
  spec.probability = 1.0;  // unlimited fires: every attempt fails
  injector.Arm(FaultPoint::kPageRead, spec);

  auto r = pool.FetchPage(id);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
  IoFaultCountersSnapshot io = store.io_counters().Snapshot();
  EXPECT_GE(io.read_retries, 3u);  // 4 attempts = 3 retries
  EXPECT_GE(io.retry_exhaustions, 1u);

  // The fault was transient at the device: once it clears, the page is
  // intact (nothing was lost, the pool never cached a bad frame).
  injector.DisarmAll();
  auto again = pool.FetchPage(id);
  ASSERT_TRUE(again.ok());
  pool.UnpinPage(id, false);
}

TEST(FaultStatusTest, BitFlipIsCaughtByChecksumAndRereadRecovers) {
  PageStore store(512);
  BufferPool pool(&store, 4);
  FaultInjector injector(7);
  Page* p = pool.NewPage(PageType::kHeap);
  PageId id = p->id();
  std::memset(p->data(), 'q', 64);
  pool.UnpinPage(id, true);
  ASSERT_TRUE(pool.EvictAll().ok());

  store.set_fault_injector(&injector);
  FaultSpec flip;
  flip.probability = 1.0;
  flip.max_fires = 1;  // corrupts one delivered copy, not the device
  injector.Arm(FaultPoint::kBitFlip, flip);

  auto r = pool.FetchPage(id);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ((*r)->data()[0], 'q');
  pool.UnpinPage(id, false);
  IoFaultCountersSnapshot io = store.io_counters().Snapshot();
  EXPECT_GE(io.checksum_failures, 1u);
  EXPECT_GE(io.read_retries, 1u);
}

// --- exact codes through Session::Execute -------------------------------

TEST_F(EngineErrorTest, IOErrorSurfacesThroughSessionExecute) {
  ASSERT_TRUE(db_.Execute("CREATE TABLE t (a INT)").ok());
  ASSERT_TRUE(db_.Execute("INSERT INTO t VALUES (1)").ok());
  ASSERT_TRUE(db_.buffer_pool()->EvictAll().ok());

  FaultInjector injector(3);
  db_.page_store()->set_fault_injector(&injector);
  FaultSpec spec;
  spec.probability = 1.0;  // persistent: retries exhaust
  injector.Arm(FaultPoint::kPageRead, spec);

  Session session = db_.OpenSession();
  auto r = session.Execute("SELECT a FROM t");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);

  injector.DisarmAll();
  auto ok = session.Execute("SELECT a FROM t");
  ASSERT_TRUE(ok.ok());
  db_.page_store()->set_fault_injector(nullptr);
}

TEST_F(EngineErrorTest, ChecksumMismatchSurfacesThroughSessionExecute) {
  ASSERT_TRUE(db_.Execute("CREATE TABLE t (a INT)").ok());
  ASSERT_TRUE(db_.Execute("INSERT INTO t VALUES (1)").ok());

  FaultInjector injector(3);
  db_.page_store()->set_fault_injector(&injector);
  FaultSpec torn;
  torn.probability = 1.0;
  torn.max_fires = 1;
  torn.silent = true;  // flush "succeeds"; the tear persists on disk
  injector.Arm(FaultPoint::kTornWrite, torn);
  ASSERT_TRUE(db_.buffer_pool()->EvictAll().ok());

  // Every re-read hits the same torn stored image: retries cannot help
  // and the exact corruption code must reach the client.
  Session session = db_.OpenSession();
  auto r = session.Execute("SELECT a FROM t");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDataLoss);
  db_.page_store()->set_fault_injector(nullptr);
}

// --- tenant quarantine ---------------------------------------------------

// Two hard faults open a tenant's breaker, and its backoff is pinned far
// out so the "stays fenced" assertions cannot race a half-open probe on
// a slow machine.
class MappingQuarantineTest : public MappingErrorTest {
 protected:
  MappingQuarantineTest() : MappingErrorTest(Options()) {}

  static DatabaseOptions Options() {
    DatabaseOptions options;
    options.breaker_threshold = 2;
    options.breaker_backoff_initial_ms = 60'000;
    options.breaker_backoff_max_ms = 60'000;
    return options;
  }
};

TEST_F(MappingQuarantineTest, RepeatedHardFaultsQuarantineOnlyThatTenant) {
  ASSERT_TRUE(layout_
                  .Execute(1, "INSERT INTO account (aid, name) VALUES (?, ?)",
                           {Value::Int64(1), Value::String("alpha")})
                  .ok());
  ASSERT_TRUE(layout_.CreateTenant(2).ok());

  FaultInjector injector(5);
  db_.page_store()->set_fault_injector(&injector);
  FaultSpec spec;
  spec.probability = 1.0;  // the device stays broken
  injector.Arm(FaultPoint::kPageRead, spec);

  for (int i = 0;
       i < 4 && layout_.TenantBreakerState(1) == BreakerState::kClosed;
       ++i) {
    ASSERT_TRUE(db_.buffer_pool()->EvictAll().ok());  // force real I/O
    EXPECT_FALSE(layout_.Query(1, "SELECT * FROM account").ok());
  }
  EXPECT_NE(layout_.TenantBreakerState(1), BreakerState::kClosed);
  EXPECT_GE(db_.metrics_registry()->GetCounter("breaker.open.t1")->value(),
            1u);

  // Fail-fast with the exact code, even after the device recovers: the
  // tenant stays fenced until an operator clears it.
  injector.DisarmAll();
  EXPECT_EQ(layout_.Query(1, "SELECT * FROM account").status().code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(layout_.Execute(1, "DELETE FROM account").status().code(),
            StatusCode::kUnavailable);

  // The blast radius is one tenant: others keep serving.
  EXPECT_EQ(layout_.TenantBreakerState(2), BreakerState::kClosed);
  EXPECT_TRUE(layout_.Query(2, "SELECT * FROM account").ok());

  ASSERT_TRUE(layout_.ClearQuarantine(1).ok());
  EXPECT_EQ(layout_.TenantBreakerState(1), BreakerState::kClosed);
  auto r = layout_.Query(1, "SELECT * FROM account");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 1u);
  db_.page_store()->set_fault_injector(nullptr);
}

// --- mid-statement undo --------------------------------------------------

// A multi-row logical UPDATE of two base columns is one engine write
// batch on every layout: one physical statement on Basic and Private,
// one per touched source and row on the others. A fault inside it must
// revert the rows it already changed. Sweeping the injector's skip
// window walks the failure point through every I/O of the statement, so
// some iterations fail before any write (nothing to undo), some fail
// mid-statement (the batch reverts), and some succeed — in every case
// every row must read as the full old or the full new image, and the
// layout counts the reverted batches the same way everywhere.
class StatementAtomicityTest
    : public ::testing::TestWithParam<mapping::LayoutKind> {};

TEST_P(StatementAtomicityTest, MidStatementFaultRollsBackAppliedWrites) {
  mapping::AppSchema app;
  {
    mapping::LogicalTable item;
    item.name = "item";
    item.columns = {{"id", TypeId::kInt64, true},
                    {"a", TypeId::kString, false},
                    {"b", TypeId::kInt32, false}};
    ASSERT_TRUE(app.AddTable(std::move(item)).ok());
  }
  DatabaseOptions dopts;
  dopts.breaker_threshold = 1'000'000;
  Database db(dopts);
  std::unique_ptr<mapping::SchemaMapping> layout =
      mapping::MakeLayout(GetParam(), &db, &app);
  ASSERT_TRUE(layout->Bootstrap().ok());
  ASSERT_TRUE(layout->CreateTenant(1).ok());
  // Wide rows spread the table over several pages, so the statement
  // does physical I/O between its row writes.
  constexpr int kRows = 64;
  auto wide = [](const std::string& tag) {
    return tag + std::string(1000, '.');
  };
  std::string a = wide("init");
  int32_t b = 10;
  for (int id = 1; id <= kRows; ++id) {
    auto ins =
        layout->Execute(1, "INSERT INTO item (id, a, b) VALUES (?, ?, ?)",
                        {Value::Int64(id), Value::String(a), Value::Int32(b)});
    ASSERT_TRUE(ins.ok()) << ins.status().ToString();
  }

  FaultInjector injector(11);
  db.page_store()->set_fault_injector(&injector);
  db.buffer_pool()->SetCapacity(4);  // physical I/O inside the statement

  int failed = 0, succeeded = 0;
  // Dense over the first I/Os, then geometric: the last write of a
  // statement on a many-source layout is thousands of reads in.
  for (uint64_t skip = 0; skip < 1'000'000 && succeeded < 3;
       skip += 1 + skip / 8) {
    FaultSpec spec;
    spec.probability = 1.0;
    spec.skip = skip;
    // Exactly the retry budget: the faulted read fails for good, and the
    // burst is spent by the time the batch reverts its rows.
    spec.max_fires = 4;
    injector.Arm(FaultPoint::kPageRead, spec);

    const std::string new_a = wide("a" + std::to_string(skip));
    const int32_t new_b = static_cast<int32_t>(100 + skip);
    auto r = layout->Execute(1, "UPDATE item SET a = ?, b = ?",
                             {Value::String(new_a), Value::Int32(new_b)});
    if (r.ok()) {
      ++succeeded;
      a = new_a;
      b = new_b;
    } else {
      ++failed;
    }

    FaultInjectorPause pause(&injector);
    auto rows = layout->Query(1, "SELECT id, a, b FROM item");
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    ASSERT_EQ(rows->rows.size(), static_cast<size_t>(kRows));
    for (const Row& row : rows->rows) {
      ASSERT_EQ(row[1].Compare(Value::String(a)), 0)
          << "skip=" << skip << " id=" << row[0].ToString()
          << ": partial statement visible";
      ASSERT_EQ(row[2].Compare(Value::Int32(b)), 0)
          << "skip=" << skip << " id=" << row[0].ToString()
          << ": partial statement visible";
    }
  }
  // The sweep must have produced both outcomes and real rollbacks, or it
  // proved nothing.
  EXPECT_GT(failed, 0);
  EXPECT_GT(succeeded, 0);
  EXPECT_GT(layout->stats().statement_rollbacks.load(), 0u);
  EXPECT_GT(layout->stats().undo_statements.load(), 0u);
  db.page_store()->set_fault_injector(nullptr);
}

INSTANTIATE_TEST_SUITE_P(
    AllLayouts, StatementAtomicityTest,
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

TEST(AppSchemaErrorTest, RejectsCollidingDefinitions) {
  mapping::AppSchema app = mapping::FigureFourSchema();
  mapping::LogicalTable dup;
  dup.name = "ACCOUNT";  // case-insensitive collision
  dup.columns = {{"x", TypeId::kInt32, false}};
  EXPECT_EQ(app.AddTable(std::move(dup)).code(), StatusCode::kAlreadyExists);

  mapping::ExtensionDef bad;
  bad.name = "bad";
  bad.base_table = "missing";
  bad.columns = {{"x", TypeId::kInt32, false}};
  EXPECT_EQ(app.AddExtension(std::move(bad)).code(), StatusCode::kNotFound);

  mapping::ExtensionDef clash;
  clash.name = "clash";
  clash.base_table = "account";
  clash.columns = {{"name", TypeId::kString, false}};  // collides with base
  EXPECT_EQ(app.AddExtension(std::move(clash)).code(),
            StatusCode::kAlreadyExists);
}

}  // namespace
}  // namespace mtdb
