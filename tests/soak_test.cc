#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "analysis/lockdep.h"
#include "common/fault.h"
#include "common/rng.h"
#include "core/chunk_folding_layout.h"
#include "core/private_layout.h"
#include "mapping_test_util.h"
#include "scratch_dir.h"
#include "testbed/crm_schema.h"

namespace mtdb {
namespace mapping {
namespace {

/// Differential soak: a long randomized multi-tenant workload runs on
/// Chunk Folding and on private tables (the reference — it stores rows
/// natively); every logical observation must agree at every checkpoint.
class SoakTest : public ::testing::TestWithParam<int> {};

TEST_P(SoakTest, ChunkFoldingMatchesPrivateReference) {
  AppSchema app = testbed::BuildCrmAppSchema();
  Database fold_db, priv_db;
  ChunkFoldingLayout folded(&fold_db, &app);
  PrivateTableLayout reference(&priv_db, &app);
  ASSERT_TRUE(folded.Bootstrap().ok());
  ASSERT_TRUE(reference.Bootstrap().ok());

  constexpr int kTenants = 3;
  for (TenantId t = 0; t < kTenants; ++t) {
    ASSERT_TRUE(folded.CreateTenant(t).ok());
    ASSERT_TRUE(reference.CreateTenant(t).ok());
  }
  ASSERT_TRUE(folded.EnableExtension(0, "healthcare_account").ok());
  ASSERT_TRUE(reference.EnableExtension(0, "healthcare_account").ok());
  ASSERT_TRUE(folded.EnableExtension(1, "project_opportunity").ok());
  ASSERT_TRUE(reference.EnableExtension(1, "project_opportunity").ok());

  auto both_execute = [&](TenantId t, const std::string& sql,
                          const std::vector<Value>& params = {}) {
    auto a = folded.Execute(t, sql, params);
    auto b = reference.Execute(t, sql, params);
    ASSERT_TRUE(a.ok()) << sql << ": " << a.status().ToString();
    ASSERT_TRUE(b.ok()) << sql << ": " << b.status().ToString();
    EXPECT_EQ(*a, *b) << sql;
  };
  auto both_query_match = [&](TenantId t, const std::string& sql) {
    auto a = folded.Query(t, sql);
    auto b = reference.Query(t, sql);
    ASSERT_TRUE(a.ok()) << sql << ": " << a.status().ToString();
    ASSERT_TRUE(b.ok()) << sql << ": " << b.status().ToString();
    ASSERT_EQ(a->rows.size(), b->rows.size()) << sql;
    for (size_t i = 0; i < a->rows.size(); ++i) {
      ASSERT_EQ(a->rows[i].size(), b->rows[i].size());
      for (size_t c = 0; c < a->rows[i].size(); ++c) {
        EXPECT_EQ(a->rows[i][c].Compare(b->rows[i][c]), 0)
            << sql << " row " << i << " col " << c;
      }
    }
  };

  Rng rng(GetParam() * 1000 + 7);
  int64_t next_id = 1;
  std::vector<int64_t> live_ids[kTenants];

  for (int op = 0; op < 250; ++op) {
    TenantId t = static_cast<TenantId>(rng.Uniform(0, kTenants - 1));
    int kind = static_cast<int>(rng.Uniform(0, 9));
    if (kind < 4) {
      int64_t id = next_id++;
      std::string sql =
          "INSERT INTO account (id, campaign_id, name, status, amount) "
          "VALUES (?, 0, ?, ?, ?)";
      std::vector<Value> params{
          Value::Int64(id), Value::String(rng.Word(3, 9)),
          Value::String(rng.Bernoulli(0.5) ? "open" : "won"),
          Value::Double(static_cast<double>(rng.Uniform(1, 100000)))};
      both_execute(t, sql, params);
      live_ids[t].push_back(id);
    } else if (kind < 6 && !live_ids[t].empty()) {
      size_t i = static_cast<size_t>(
          rng.Uniform(0, static_cast<int64_t>(live_ids[t].size()) - 1));
      both_execute(t, "UPDATE account SET amount = amount + 1, owner = ? "
                      "WHERE id = ?",
                   {Value::String(rng.Word(3, 8)),
                    Value::Int64(live_ids[t][i])});
    } else if (kind < 7 && !live_ids[t].empty()) {
      size_t i = static_cast<size_t>(
          rng.Uniform(0, static_cast<int64_t>(live_ids[t].size()) - 1));
      both_execute(t, "DELETE FROM account WHERE id = ?",
                   {Value::Int64(live_ids[t][i])});
      live_ids[t].erase(live_ids[t].begin() + static_cast<ptrdiff_t>(i));
    } else if (kind < 8) {
      both_query_match(t, "SELECT status, COUNT(*), SUM(amount) FROM account "
                          "GROUP BY status ORDER BY status");
    } else {
      both_query_match(t, "SELECT id, name, amount FROM account "
                          "WHERE amount > 50000 ORDER BY id");
    }
    if (op % 50 == 49) {
      // Deep checkpoint: full logical contents per tenant.
      for (TenantId ct = 0; ct < kTenants; ++ct) {
        both_query_match(ct, "SELECT * FROM account ORDER BY id");
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SoakTest, ::testing::Values(1, 2, 3));

/// Concurrency-under-fire soak: eight threads hammer one Chunk Folding
/// layout while a low-rate fault schedule stays armed the whole run.
/// Each thread counts only the statements that reported success; at the
/// end (injection paused) the per-tenant row counts must reconcile with
/// those counters exactly — a failed statement that still inserted, or a
/// successful one that lost a row, shows up as a count drift.
class FaultSoakTest : public ::testing::TestWithParam<int> {};

TEST_P(FaultSoakTest, EightThreadsUnderLowRateFaultsReconcile) {
  AppSchema app = FigureFourSchema();
  // Low-rate faults are absorbed by retries; the rare statement failure
  // is legitimate, but it must never trip the tenant fence mid-soak.
  DatabaseOptions dopts;
  dopts.breaker_threshold = 1'000'000;
  Database db(dopts);
  ChunkFoldingLayout layout(&db, &app);
  ASSERT_TRUE(layout.Bootstrap().ok());

  constexpr int kThreads = 8;
  constexpr int kTenants = 4;
  constexpr int kOpsPerThread = 120;
  for (TenantId t = 0; t < kTenants; ++t) {
    ASSERT_TRUE(layout.CreateTenant(t).ok());
  }
  ASSERT_TRUE(layout.EnableExtension(0, "healthcare").ok());

  FaultInjector injector(static_cast<uint64_t>(GetParam()) * 31 + 5);
  db.page_store()->set_fault_injector(&injector);
  db.buffer_pool()->SetCapacity(16);  // real I/O under the workload

  FaultSpec low;
  low.probability = 0.02;  // unlimited fires for the whole run
  injector.Arm(FaultPoint::kPageRead, low);
  injector.Arm(FaultPoint::kPageWrite, low);
  FaultSpec torn = low;
  torn.silent = false;
  injector.Arm(FaultPoint::kTornWrite, torn);
  injector.Arm(FaultPoint::kBitFlip, low);

  std::atomic<int64_t> expected_rows[kTenants] = {};
  std::vector<std::thread> threads;
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      Rng rng(static_cast<uint64_t>(GetParam()) * 9973 +
              static_cast<uint64_t>(w) * 131 + 1);
      // Disjoint aid space per thread: no cross-thread logical conflicts.
      int64_t next_aid = static_cast<int64_t>(w + 1) * 1'000'000;
      std::vector<std::pair<TenantId, int64_t>> own;
      for (int op = 0; op < kOpsPerThread; ++op) {
        if (op % 16 == w) {
          // Lazy DDL inside the layout recharges the pool; shrink it
          // back and flush so the workload keeps meeting the injector.
          db.buffer_pool()->SetCapacity(16);
          (void)db.buffer_pool()->EvictAll();
        }
        TenantId t = static_cast<TenantId>(rng.Uniform(0, kTenants - 1));
        int kind = static_cast<int>(rng.Uniform(0, 9));
        if (kind < 4) {
          int64_t aid = next_aid++;
          auto r = layout.Execute(
              t, "INSERT INTO account (aid, name) VALUES (?, ?)",
              {Value::Int64(aid), Value::String(rng.Word(3, 8))});
          if (r.ok()) {
            expected_rows[t].fetch_add(1, std::memory_order_relaxed);
            own.emplace_back(t, aid);
          }
        } else if (kind < 6 && !own.empty()) {
          auto& [t2, aid] = own[static_cast<size_t>(
              rng.Uniform(0, static_cast<int64_t>(own.size()) - 1))];
          (void)layout.Execute(t2,
                               "UPDATE account SET name = ? WHERE aid = ?",
                               {Value::String(rng.Word(3, 8)),
                                Value::Int64(aid)});
        } else if (kind < 8 && !own.empty()) {
          size_t i = static_cast<size_t>(
              rng.Uniform(0, static_cast<int64_t>(own.size()) - 1));
          auto [t2, aid] = own[i];
          auto r = layout.Execute(t2, "DELETE FROM account WHERE aid = ?",
                                  {Value::Int64(aid)});
          if (r.ok()) {
            expected_rows[t2].fetch_sub(1, std::memory_order_relaxed);
            own.erase(own.begin() + static_cast<ptrdiff_t>(i));
          }
        } else {
          (void)layout.Query(t, "SELECT COUNT(*) FROM account");
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  // The schedule must actually have fired to make this a fault soak.
  IoFaultCountersSnapshot io = db.Stats().io_faults;
  EXPECT_GT(io.read_faults + io.write_faults + io.checksum_failures, 0u);

  FaultInjectorPause pause(&injector);
  for (TenantId t = 0; t < kTenants; ++t) {
    auto r = layout.Query(t, "SELECT COUNT(*) FROM account");
    ASSERT_TRUE(r.ok()) << "tenant " << t << ": " << r.status().ToString();
    ASSERT_EQ(r->rows.size(), 1u);
    EXPECT_EQ(r->rows[0][0].AsInt64(),
              expected_rows[t].load(std::memory_order_relaxed))
        << "tenant " << t << ": row count drifted under faults";
  }
  db.page_store()->set_fault_injector(nullptr);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultSoakTest, ::testing::Values(1, 2, 3));

/// Durable differential soak with one mid-run crash/reopen cycle: a
/// durable Chunk Folding engine runs the randomized CRM workload against
/// an in-memory private-table reference. Halfway through, an injected
/// kCrash kills the durable engine mid-statement; it is reopened from
/// disk (checkpoint + WAL replay + txn undo), the layout re-derives its
/// state, the killed statement is retried, and the workload continues.
/// Every observation before and after the crash must agree with the
/// reference — recovery resumed the soak, not a fresh database.
TEST(DurableSoakTest, CrashReopenMidSoakKeepsDifferentialAgreement) {
  AppSchema app = testbed::BuildCrmAppSchema();
  const std::string dir = FreshScratchDir("mtdb_soak_durable");

  auto opened = Database::Open(DatabaseOptions::WithPath(dir));
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<Database> fold_db = std::move(*opened);
  auto folded = std::make_unique<ChunkFoldingLayout>(fold_db.get(), &app);
  Database priv_db;
  PrivateTableLayout reference(&priv_db, &app);
  ASSERT_TRUE(folded->Bootstrap().ok());
  ASSERT_TRUE(reference.Bootstrap().ok());

  constexpr int kTenants = 3;
  for (TenantId t = 0; t < kTenants; ++t) {
    ASSERT_TRUE(folded->CreateTenant(t).ok());
    ASSERT_TRUE(reference.CreateTenant(t).ok());
  }
  ASSERT_TRUE(folded->EnableExtension(0, "healthcare_account").ok());
  ASSERT_TRUE(reference.EnableExtension(0, "healthcare_account").ok());

  FaultInjector injector(29);
  int reopens = 0;

  auto reopen_folded = [&]() {
    fold_db->page_store()->set_fault_injector(nullptr);
    folded.reset();
    fold_db.reset();
    auto r = Database::Open(DatabaseOptions::WithPath(dir));
    ASSERT_TRUE(r.ok()) << "reopen: " << r.status().ToString();
    fold_db = std::move(*r);
    folded = std::make_unique<ChunkFoldingLayout>(fold_db.get(), &app);
    Status rec = folded->Recover();
    ASSERT_TRUE(rec.ok()) << "layout recover: " << rec.ToString();
    ++reopens;
  };

  // Executes on the durable side first; an injected kill surfaces as a
  // failed statement on a frozen engine, after which the soak reopens and
  // retries (recovery removed every trace of the killed statement, so the
  // retry is clean). Only then does the reference apply the statement.
  auto both_execute = [&](TenantId t, const std::string& sql,
                          const std::vector<Value>& params = {}) {
    Result<int64_t> a = folded->Execute(t, sql, params);
    if (!a.ok()) {
      ASSERT_TRUE(fold_db->durability()->frozen())
          << sql << ": " << a.status().ToString();
      reopen_folded();
      if (::testing::Test::HasFatalFailure()) return;
      a = folded->Execute(t, sql, params);
    }
    Result<int64_t> b = reference.Execute(t, sql, params);
    ASSERT_TRUE(a.ok()) << sql << ": " << a.status().ToString();
    ASSERT_TRUE(b.ok()) << sql << ": " << b.status().ToString();
    EXPECT_EQ(*a, *b) << sql;
  };
  auto both_query_match = [&](TenantId t, const std::string& sql) {
    auto a = folded->Query(t, sql);
    auto b = reference.Query(t, sql);
    ASSERT_TRUE(a.ok()) << sql << ": " << a.status().ToString();
    ASSERT_TRUE(b.ok()) << sql << ": " << b.status().ToString();
    ASSERT_EQ(a->rows.size(), b->rows.size()) << sql;
    for (size_t i = 0; i < a->rows.size(); ++i) {
      ASSERT_EQ(a->rows[i].size(), b->rows[i].size());
      for (size_t c = 0; c < a->rows[i].size(); ++c) {
        EXPECT_EQ(a->rows[i][c].Compare(b->rows[i][c]), 0)
            << sql << " row " << i << " col " << c;
      }
    }
  };

  Rng rng(4177);
  int64_t next_id = 1;
  std::vector<int64_t> live_ids[kTenants];

  for (int op = 0; op < 160; ++op) {
    if (op == 80) {
      // Schedule the kill: the next durable appends run it into a crash
      // a few WAL operations from now, mid-statement.
      FaultSpec spec;
      spec.probability = 1.0;
      spec.skip = 3;
      spec.max_fires = 1;
      injector.Arm(FaultPoint::kCrash, spec);
      fold_db->page_store()->set_fault_injector(&injector);
    }
    TenantId t = static_cast<TenantId>(rng.Uniform(0, kTenants - 1));
    int kind = static_cast<int>(rng.Uniform(0, 9));
    if (kind < 4) {
      int64_t id = next_id++;
      both_execute(t,
                   "INSERT INTO account (id, campaign_id, name, status, "
                   "amount) VALUES (?, 0, ?, ?, ?)",
                   {Value::Int64(id), Value::String(rng.Word(3, 9)),
                    Value::String(rng.Bernoulli(0.5) ? "open" : "won"),
                    Value::Double(static_cast<double>(
                        rng.Uniform(1, 100000)))});
      live_ids[t].push_back(id);
    } else if (kind < 6 && !live_ids[t].empty()) {
      size_t i = static_cast<size_t>(
          rng.Uniform(0, static_cast<int64_t>(live_ids[t].size()) - 1));
      both_execute(t,
                   "UPDATE account SET amount = amount + 1, owner = ? "
                   "WHERE id = ?",
                   {Value::String(rng.Word(3, 8)),
                    Value::Int64(live_ids[t][i])});
    } else if (kind < 7 && !live_ids[t].empty()) {
      size_t i = static_cast<size_t>(
          rng.Uniform(0, static_cast<int64_t>(live_ids[t].size()) - 1));
      both_execute(t, "DELETE FROM account WHERE id = ?",
                   {Value::Int64(live_ids[t][i])});
      live_ids[t].erase(live_ids[t].begin() + static_cast<ptrdiff_t>(i));
    } else {
      both_query_match(t,
                       "SELECT status, COUNT(*), SUM(amount) FROM account "
                       "GROUP BY status ORDER BY status");
    }
    if (::testing::Test::HasFatalFailure()) return;
    if (op % 40 == 39) {
      for (TenantId ct = 0; ct < kTenants; ++ct) {
        both_query_match(ct, "SELECT * FROM account ORDER BY id");
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }

  EXPECT_EQ(reopens, 1) << "the scheduled mid-soak crash never fired";
  for (TenantId t = 0; t < kTenants; ++t) {
    both_query_match(t, "SELECT * FROM account ORDER BY id");
    if (::testing::Test::HasFatalFailure()) return;
  }
}

/// Multi-threaded durable crash soak: eight threads insert into eight
/// separate tables of one durable engine, so their statements hold
/// disjoint table latches and allocate pages from the shared store in an
/// interleaved global order while racing to the WAL — the exact shape
/// whose replay used to diverge when group append order disagreed with
/// store allocation order. A kCrash fires mid-run; after the freeze the
/// engine reopens from disk and every table must hold exactly the ids
/// whose INSERTs were acknowledged: a lost acknowledged row, a
/// resurrected unacknowledged one, or a kDataLoss from replay all fail
/// the test. A second (fault-free) eight-thread phase then runs on the
/// recovered engine and the final state is verified through one more
/// clean reopen.
TEST(DurableConcurrentSoakTest, EightThreadCrossTableCrashRecoversExactly) {
  const std::string dir = FreshScratchDir("mtdb_soak_durable_mt");

  constexpr int kThreads = 8;
  constexpr int kPhaseOps = 150;  // inserts per thread per phase

  EngineOptions options;
  // Small enough that automatic checkpoints run during the soak, so the
  // crash window covers checkpoint sites as well as append sites.
  options.checkpoint_interval_bytes = 1 * 1024 * 1024;

  auto opened = Database::Open(DatabaseOptions::WithPath(dir, options));
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<Database> db = std::move(*opened);
  auto table = [](int w) { return "t" + std::to_string(w); };
  for (int w = 0; w < kThreads; ++w) {
    ASSERT_TRUE(db->Execute("CREATE TABLE " + table(w) +
                            " (id BIGINT, payload VARCHAR)")
                    .ok());
    ASSERT_TRUE(db->Execute("CREATE UNIQUE INDEX ux_" + table(w) + " ON " +
                            table(w) + " (id)")
                    .ok());
  }

  // Per-thread acknowledged ids; disjoint id spaces. A statement is
  // acknowledged iff its redo group was durably appended, so after a
  // crash these sets are the exact expected table contents.
  std::vector<int64_t> acked[kThreads];
  auto run_phase = [&](int phase) {
    std::vector<std::thread> threads;
    for (int w = 0; w < kThreads; ++w) {
      threads.emplace_back([&, w] {
        Rng rng(static_cast<uint64_t>(phase) * 7919 +
                static_cast<uint64_t>(w) * 131 + 1);
        for (int op = 0; op < kPhaseOps; ++op) {
          int64_t id = static_cast<int64_t>(w + 1) * 1'000'000 +
                       phase * kPhaseOps + op;
          auto r = db->Execute(
              "INSERT INTO " + table(w) + " VALUES (?, ?)",
              {Value::Int64(id), Value::String(rng.Word(4, 24))});
          if (r.ok()) {
            acked[w].push_back(id);
          } else {
            // The only legitimate failure is the frozen engine after the
            // injected crash; anything else is a real bug.
            EXPECT_TRUE(db->durability()->frozen())
                << "thread " << w << ": " << r.status().ToString();
            break;
          }
        }
      });
    }
    for (auto& th : threads) th.join();
  };

  auto reconcile = [&](const char* when) {
    for (int w = 0; w < kThreads; ++w) {
      auto r = db->Query("SELECT id FROM " + table(w) + " ORDER BY id");
      ASSERT_TRUE(r.ok()) << when << " " << table(w) << ": "
                          << r.status().ToString();
      std::vector<int64_t> want = acked[w];
      std::sort(want.begin(), want.end());
      ASSERT_EQ(r->rows.size(), want.size())
          << when << " " << table(w)
          << ": acknowledged rows diverged after recovery";
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(r->rows[i][0].AsInt64(), want[i])
            << when << " " << table(w) << " row " << i;
      }
    }
  };

  // Phase 1 under a scheduled kill: with eight appenders the crash point
  // lands mid-flight in several statements at once.
  FaultInjector injector(97);
  FaultSpec spec;
  spec.probability = 1.0;
  spec.skip = 777;
  spec.max_fires = 1;
  injector.Arm(FaultPoint::kCrash, spec);
  db->page_store()->set_fault_injector(&injector);
  run_phase(0);
  EXPECT_TRUE(db->durability()->frozen())
      << "the scheduled mid-soak crash never fired";

  db->page_store()->set_fault_injector(nullptr);
  db.reset();
  auto reopened = Database::Open(DatabaseOptions::WithPath(dir, options));
  ASSERT_TRUE(reopened.ok()) << "recovery: " << reopened.status().ToString();
  db = std::move(*reopened);
  reconcile("post-crash");
  if (::testing::Test::HasFatalFailure()) return;

  // Phase 2, fault-free, proves the recovered engine (free list, op
  // sequence, indexes) sustains the same concurrent workload; one clean
  // reopen then checks the sealed durable state end to end.
  run_phase(1);
  reconcile("post-phase-2");
  if (::testing::Test::HasFatalFailure()) return;
  db.reset();
  reopened = Database::Open(DatabaseOptions::WithPath(dir, options));
  ASSERT_TRUE(reopened.ok()) << "clean reopen: "
                             << reopened.status().ToString();
  db = std::move(*reopened);
  reconcile("post-clean-reopen");
}

// Runs last in this binary: under an instrumented build
// (-DMTDB_LOCKDEP=ON) every test above must have left the lockdep
// registry empty — no latch-order or WAL-protocol violations anywhere
// in the suite's workload.
TEST(LockdepCleanliness, NoViolationsAcrossSuite) {
  if (!analysis::LockdepCompiledIn()) {
    GTEST_SKIP() << "validator not compiled in (build with MTDB_LOCKDEP)";
  }
  std::vector<analysis::Diagnostic> diagnostics =
      analysis::DrainLockdepDiagnostics();
  EXPECT_TRUE(diagnostics.empty()) << analysis::FormatDiagnostics(diagnostics);
}

}  // namespace
}  // namespace mapping
}  // namespace mtdb
