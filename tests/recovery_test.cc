#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "analysis/lockdep.h"
#include "analysis/verifier.h"
#include "common/fault.h"
#include "common/rng.h"
#include "core/tenant_session.h"
#include "mapping_test_util.h"
#include "scratch_dir.h"
#include "storage/wal.h"

namespace mtdb {
namespace mapping {
namespace {

namespace fs = std::filesystem;

/// Crash-recovery harness: a randomized logical workload runs over every
/// layout on a durable engine while a seeded FaultInjector kills the
/// durability layer (FaultPoint::kCrash) at scheduled points. A shadow
/// model applies exactly the statements that reported success; after each
/// kill the engine is reopened from disk (checkpoint + WAL replay + txn
/// undo), the layout re-derives its state with Recover(), and the logical
/// contents must equal the shadow — acknowledged statements survive,
/// killed ones vanish without a trace.
class RecoveryTest
    : public ::testing::TestWithParam<std::tuple<LayoutKind, uint64_t>> {};

/// One tenant's expected logical table: aid -> full effective row.
using ShadowTable = std::map<int64_t, std::vector<Value>>;

std::string FormatRow(const std::vector<Value>& row) {
  std::string out = "(";
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) out += ", ";
    out += row[i].is_null() ? "NULL" : row[i].ToString();
  }
  return out + ")";
}

std::string FreshDir(const std::string& tag) {
  return FreshScratchDir("mtdb_recovery_" + tag);
}

/// Full-content compare of one tenant's logical table against the shadow.
void VerifyTenant(SchemaMapping* layout, TenantId t, const ShadowTable& shadow,
                  const char* when) {
  auto r = layout->Query(t, "SELECT * FROM account ORDER BY aid");
  ASSERT_TRUE(r.ok()) << when << " tenant " << t << ": "
                      << r.status().ToString();
  ASSERT_EQ(r->rows.size(), shadow.size())
      << when << " tenant " << t
      << ": row count diverged after recovery (lost acknowledged rows or "
      << "resurrected killed ones)";
  size_t i = 0;
  for (const auto& [aid, expected] : shadow) {
    const Row& got = r->rows[i++];
    ASSERT_EQ(got.size(), expected.size()) << when << " tenant " << t;
    for (size_t c = 0; c < expected.size(); ++c) {
      ASSERT_EQ(got[c].Compare(expected[c]), 0)
          << when << " tenant " << t << " aid " << aid << " col " << c
          << ": got " << FormatRow(got) << " want " << FormatRow(expected);
    }
  }
}

void AuditLayout(SchemaMapping* layout, const char* when) {
  analysis::Verifier verifier(layout);
  auto diagnostics = verifier.Run();
  ASSERT_TRUE(diagnostics.ok()) << when << ": "
                                << diagnostics.status().ToString();
  EXPECT_FALSE(analysis::HasErrors(*diagnostics))
      << when << ": " << analysis::FormatDiagnostics(*diagnostics);
}

TEST_P(RecoveryTest, CrashKillReopenMatchesShadow) {
  const LayoutKind kind = std::get<0>(GetParam());
  const uint64_t seed = std::get<1>(GetParam());

  AppSchema app = FigureFourSchema();
  const std::string dir = FreshDir(std::string(LayoutKindName(kind)) +
                                   "_seed" + std::to_string(seed));

  DatabaseOptions options = DatabaseOptions::WithPath(dir);
  // Small enough that automatic checkpoints land inside the crash windows,
  // so kills hit checkpoint sites as well as append sites.
  options.engine.checkpoint_interval_bytes = 96 * 1024;
  // Faulted tenants keep serving: containment is not under test.
  options.breaker_threshold = 1'000'000;

  auto opened = Database::Open(options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<Database> db = std::move(*opened);
  std::unique_ptr<SchemaMapping> layout = MakeLayout(kind, db.get(), &app);
  ASSERT_TRUE(layout->Bootstrap().ok());

  constexpr TenantId kTenants = 3;
  // Admin ops (tenant/extension provisioning) run outside the crash
  // windows: CreateTenant spans several statements and is documented as
  // not crash-atomic (DESIGN.md §10).
  for (TenantId t = 0; t < kTenants; ++t) {
    ASSERT_TRUE(layout->CreateTenant(t).ok());
  }
  const bool extended = layout->EnableExtension(0, "healthcare").ok();

  FaultInjector injector(seed);
  Rng rng(seed * 6151 + 3);
  auto columns_of = [&](TenantId t) -> size_t {
    return (t == 0 && extended) ? 4u : 2u;
  };

  ShadowTable shadow[kTenants];
  int64_t next_aid = 1;
  int crashes = 0;

  // Simulated process death: the live engine (whose memory may be ahead
  // of disk after a freeze) is discarded and a new one recovers from the
  // checkpoint + WAL. The layout re-derives its per-tenant state from the
  // durable registry instead of re-running Bootstrap.
  auto reopen = [&]() {
    db->page_store()->set_fault_injector(nullptr);
    layout.reset();
    db.reset();
    auto r = Database::Open(options);
    ASSERT_TRUE(r.ok()) << "reopen: " << r.status().ToString();
    db = std::move(*r);
    layout = MakeLayout(kind, db.get(), &app);
    Status rec = layout->Recover();
    ASSERT_TRUE(rec.ok()) << "layout recover: " << rec.ToString();
    };

  constexpr int kCycles = 4;
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    db->page_store()->set_fault_injector(&injector);
    injector.DisarmAll();
    FaultSpec spec;
    spec.probability = 1.0;
    spec.skip = static_cast<uint64_t>(rng.Uniform(2, 35));
    spec.max_fires = 1;
    injector.Arm(FaultPoint::kCrash, spec);

    bool crashed = false;
    for (int op = 0; op < 60 && !crashed; ++op) {
      // A crash during the post-statement auto checkpoint freezes the
      // engine after the statement acknowledged; catch it here instead of
      // issuing doomed statements.
      if (db->durability()->frozen()) {
        crashed = true;
        break;
      }
      TenantId t = static_cast<TenantId>(rng.Uniform(0, kTenants - 1));
      const size_t cols = columns_of(t);
      const int action = static_cast<int>(rng.Uniform(0, 8));

      Result<int64_t> r = 0;
      if (action < 3) {  // single-row INSERT
        int64_t aid = next_aid++;
        std::vector<Value> row{Value::Int64(aid),
                               Value::String(rng.Word(3, 8)),
                               Value::Null(TypeId::kString),
                               Value::Null(TypeId::kInt32)};
        r = cols == 4
                ? layout->Execute(
                      t,
                      "INSERT INTO account (aid, name, hospital, beds) "
                      "VALUES (?, ?, ?, ?)",
                      {row[0], row[1],
                       (row[2] = Value::String(rng.Word(4, 10)), row[2]),
                       (row[3] = Value::Int32(
                            static_cast<int32_t>(rng.Uniform(1, 2000))),
                        row[3])})
                : layout->Execute(
                      t, "INSERT INTO account (aid, name) VALUES (?, ?)",
                      {row[0], row[1]});
        if (r.ok()) {
          EXPECT_EQ(*r, 1);
          row.resize(cols);
          shadow[t].emplace(aid, std::move(row));
        }
      } else if (action == 3) {  // multi-row INSERT: one logical statement
        int64_t a1 = next_aid++, a2 = next_aid++;
        std::string n1 = rng.Word(3, 8), n2 = rng.Word(3, 8);
        r = layout->Execute(
            t, "INSERT INTO account (aid, name) VALUES (?, ?), (?, ?)",
            {Value::Int64(a1), Value::String(n1), Value::Int64(a2),
             Value::String(n2)});
        if (r.ok()) {
          EXPECT_EQ(*r, 2);
          std::vector<Value> r1{Value::Int64(a1), Value::String(n1)};
          std::vector<Value> r2{Value::Int64(a2), Value::String(n2)};
          if (cols == 4) {
            r1.push_back(Value::Null(TypeId::kString));
            r1.push_back(Value::Null(TypeId::kInt32));
            r2.push_back(Value::Null(TypeId::kString));
            r2.push_back(Value::Null(TypeId::kInt32));
          }
          shadow[t].emplace(a1, std::move(r1));
          shadow[t].emplace(a2, std::move(r2));
        }
      } else if (action < 6 && !shadow[t].empty()) {  // UPDATE one row
        auto it = shadow[t].begin();
        std::advance(it, static_cast<ptrdiff_t>(rng.Uniform(
                             0, static_cast<int64_t>(shadow[t].size()) - 1)));
        std::string name = rng.Word(3, 8);
        r = layout->Execute(t, "UPDATE account SET name = ? WHERE aid = ?",
                            {Value::String(name), Value::Int64(it->first)});
        if (r.ok()) {
          EXPECT_EQ(*r, 1);
          it->second[1] = Value::String(name);
        }
      } else if (action == 6 && cols == 4 && !shadow[t].empty()) {
        // extension-column UPDATE (touches a different chunk/source)
        auto it = shadow[t].begin();
        std::advance(it, static_cast<ptrdiff_t>(rng.Uniform(
                             0, static_cast<int64_t>(shadow[t].size()) - 1)));
        int32_t beds = static_cast<int32_t>(rng.Uniform(1, 5000));
        r = layout->Execute(t, "UPDATE account SET beds = ? WHERE aid = ?",
                            {Value::Int32(beds), Value::Int64(it->first)});
        if (r.ok()) {
          EXPECT_EQ(*r, 1);
          it->second[3] = Value::Int32(beds);
        }
      } else if (!shadow[t].empty()) {  // DELETE one row
        auto it = shadow[t].begin();
        std::advance(it, static_cast<ptrdiff_t>(rng.Uniform(
                             0, static_cast<int64_t>(shadow[t].size()) - 1)));
        r = layout->Execute(t, "DELETE FROM account WHERE aid = ?",
                            {Value::Int64(it->first)});
        if (r.ok()) {
          EXPECT_EQ(*r, 1);
          shadow[t].erase(it);
        }
      }

      if (!r.ok()) {
        // The only legitimate failure in this workload is the injected
        // kill; everything else would be a real bug.
        ASSERT_TRUE(db->durability()->frozen()) << r.status().ToString();
        crashed = true;
      }
    }

    injector.DisarmAll();
    if (crashed) {
      ++crashes;
      reopen();
      if (::testing::Test::HasFatalFailure()) return;
    }
    for (TenantId t = 0; t < kTenants; ++t) {
      VerifyTenant(layout.get(), t, shadow[t], "after cycle");
      if (::testing::Test::HasFatalFailure()) return;
    }
  }

  // The kill schedule must actually have fired, or the run proved nothing.
  EXPECT_GT(crashes, 0) << "no cycle crashed; recovery never exercised";

  for (TenantId t = 0; t < kTenants; ++t) {
    VerifyTenant(layout.get(), t, shadow[t], "final");
    if (::testing::Test::HasFatalFailure()) return;
  }
  AuditLayout(layout.get(), "final audit");
}

INSTANTIATE_TEST_SUITE_P(
    LayoutsAndSeeds, RecoveryTest,
    ::testing::Combine(
        ::testing::Values(LayoutKind::kBasic, LayoutKind::kPrivate,
                          LayoutKind::kExtension, LayoutKind::kUniversal,
                          LayoutKind::kPivot, LayoutKind::kChunk,
                          LayoutKind::kVertical, LayoutKind::kChunkFolding),
        ::testing::Values(1u, 2u, 3u, 4u, 5u)),
    [](const ::testing::TestParamInfo<RecoveryTest::ParamType>& info) {
      return std::string(LayoutKindName(std::get<0>(info.param))) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

/// Deterministic site sweep: one fixed scripted workload (DML through a
/// multi-source layout plus an explicit checkpoint) is first dry-run to
/// count how many times the durability layer consults FaultPoint::kCrash,
/// then re-run once per site with the kill pinned to exactly that
/// evaluation. Every kill must recover to the shadow; the final run (skip
/// beyond the last site) must complete unkilled, proving the sweep
/// exhausted every crash site — append-begin, mid-append (torn tail),
/// checkpoint-begin, mid-flush, meta-uninstalled, and pre-truncate.
class RecoverySiteSweepTest : public ::testing::TestWithParam<LayoutKind> {};

TEST_P(RecoverySiteSweepTest, EveryCrashSiteRecoversToShadow) {
  const LayoutKind kind = GetParam();
  AppSchema app = FigureFourSchema();
  const std::string dir =
      FreshDir(std::string("sweep_") + LayoutKindName(kind));

  // One iteration: fresh store, fixed workload, kCrash armed as `spec`.
  // Reports how often kCrash was evaluated and whether the run was killed
  // (in which case the engine is reopened, recovered, and verified).
  auto run_iteration = [&](const FaultSpec& spec, uint64_t* evaluations,
                           bool* killed) {
    fs::remove_all(dir);
    auto opened = Database::Open(DatabaseOptions::WithPath(dir));
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    std::unique_ptr<Database> db = std::move(*opened);
    std::unique_ptr<SchemaMapping> layout = MakeLayout(kind, db.get(), &app);
    ASSERT_TRUE(layout->Bootstrap().ok());
    ASSERT_TRUE(layout->CreateTenant(0).ok());
    ASSERT_TRUE(layout->CreateTenant(1).ok());
    ASSERT_TRUE(layout->EnableExtension(0, "healthcare").ok());

    FaultInjector injector(7);
    injector.Arm(FaultPoint::kCrash, spec);
    db->page_store()->set_fault_injector(&injector);

    ShadowTable shadow[2];
    bool crashed = false;
    auto exec = [&](TenantId t, const std::string& sql,
                    const std::vector<Value>& params,
                    const std::function<void()>& apply) {
      if (crashed) return;
      Result<int64_t> r = layout->Execute(t, sql, params);
      if (r.ok()) {
        apply();
      } else {
        ASSERT_TRUE(db->durability()->frozen()) << sql << ": "
                                                << r.status().ToString();
        crashed = true;
      }
    };

    exec(0,
         "INSERT INTO account (aid, name, hospital, beds) "
         "VALUES (1, 'Acme', 'St. Mary', 135)",
         {}, [&] {
           shadow[0].emplace(
               1, std::vector<Value>{Value::Int64(1), Value::String("Acme"),
                                     Value::String("St. Mary"),
                                     Value::Int32(135)});
         });
    exec(0, "INSERT INTO account (aid, name) VALUES (2, 'Gump'), (3, 'Ball')",
         {}, [&] {
           shadow[0].emplace(
               2, std::vector<Value>{Value::Int64(2), Value::String("Gump"),
                                     Value::Null(TypeId::kString),
                                     Value::Null(TypeId::kInt32)});
           shadow[0].emplace(
               3, std::vector<Value>{Value::Int64(3), Value::String("Ball"),
                                     Value::Null(TypeId::kString),
                                     Value::Null(TypeId::kInt32)});
         });
    exec(1, "INSERT INTO account (aid, name) VALUES (1, 'Big')", {}, [&] {
      shadow[1].emplace(1, std::vector<Value>{Value::Int64(1),
                                              Value::String("Big")});
    });
    exec(0, "UPDATE account SET name = 'Acme2' WHERE aid = 1", {}, [&] {
      shadow[0][1][1] = Value::String("Acme2");
    });
    exec(0, "UPDATE account SET beds = 777 WHERE aid = 1", {}, [&] {
      shadow[0][1][3] = Value::Int32(777);
    });
    if (!crashed) {
      Status ck = db->Checkpoint();
      if (!ck.ok()) {
        ASSERT_TRUE(db->durability()->frozen()) << ck.ToString();
        crashed = true;
      }
    }
    exec(1, "INSERT INTO account (aid, name) VALUES (2, 'Cup')", {}, [&] {
      shadow[1].emplace(2, std::vector<Value>{Value::Int64(2),
                                              Value::String("Cup")});
    });
    exec(0, "DELETE FROM account WHERE aid = 2", {},
         [&] { shadow[0].erase(2); });
    exec(1, "UPDATE account SET name = 'Mug' WHERE aid = 2", {}, [&] {
      shadow[1][2][1] = Value::String("Mug");
    });

    *evaluations = injector.evaluations(FaultPoint::kCrash);
    *killed = crashed;

    if (crashed) {
      db->page_store()->set_fault_injector(nullptr);
      layout.reset();
      db.reset();
      auto r = Database::Open(DatabaseOptions::WithPath(dir));
      ASSERT_TRUE(r.ok()) << "reopen: " << r.status().ToString();
      db = std::move(*r);
      layout = MakeLayout(kind, db.get(), &app);
      Status rec = layout->Recover();
      ASSERT_TRUE(rec.ok()) << "layout recover: " << rec.ToString();
    } else {
      db->page_store()->set_fault_injector(nullptr);
    }
    VerifyTenant(layout.get(), 0, shadow[0], "sweep");
    VerifyTenant(layout.get(), 1, shadow[1], "sweep");
    AuditLayout(layout.get(), "sweep audit");
  };

  // Dry run: count the crash sites without firing (probability 0 still
  // advances the evaluation counter for the armed point).
  FaultSpec dry;
  dry.probability = 0.0;
  uint64_t total_sites = 0;
  bool killed = false;
  run_iteration(dry, &total_sites, &killed);
  if (::testing::Test::HasFatalFailure()) return;
  ASSERT_FALSE(killed);
  ASSERT_GT(total_sites, 0u) << "workload never consulted kCrash";

  for (uint64_t site = 0; site <= total_sites; ++site) {
    SCOPED_TRACE("crash site " + std::to_string(site) + " of " +
                 std::to_string(total_sites));
    FaultSpec spec;
    spec.probability = 1.0;
    spec.skip = site;
    spec.max_fires = 1;
    uint64_t evals = 0;
    run_iteration(spec, &evals, &killed);
    if (::testing::Test::HasFatalFailure()) return;
    // Killing at every site 0..total_sites-1 and surviving one past the
    // end proves the sweep covered every site exactly.
    EXPECT_EQ(killed, site < total_sites);
  }
}

INSTANTIATE_TEST_SUITE_P(Layouts, RecoverySiteSweepTest,
                         ::testing::Values(LayoutKind::kPrivate,
                                           LayoutKind::kChunkFolding),
                         [](const ::testing::TestParamInfo<LayoutKind>& info) {
                           return LayoutKindName(info.param);
                         });

// ---- Client-transaction crash matrix ----------------------------------
//
// Crashes inside open client transactions: the shadow holds only what
// COMMIT acknowledged. Statements acked inside a transaction that never
// reached its commit record must vanish on recovery; acked COMMITs must
// survive; a kill mid-ROLLBACK (at the undo batch's group append) must
// still erase the transaction.

/// Randomized matrix over every layout × seeds: autocommit statements
/// interleave with transactional bursts (BEGIN; 1..4 DML; COMMIT or
/// ROLLBACK) through the TenantSession front door while the seeded
/// injector kills the durability layer. The shadow applies autocommit
/// statements when they ack and a burst's statements only when its
/// COMMIT acks.
class TxnRecoveryTest
    : public ::testing::TestWithParam<std::tuple<LayoutKind, uint64_t>> {};

TEST_P(TxnRecoveryTest, CrashInsideTransactionsRecoversCommittedOnly) {
  const LayoutKind kind = std::get<0>(GetParam());
  const uint64_t seed = std::get<1>(GetParam());

  AppSchema app = FigureFourSchema();
  const std::string dir = FreshDir(std::string("txn_") +
                                   LayoutKindName(kind) + "_seed" +
                                   std::to_string(seed));
  DatabaseOptions options = DatabaseOptions::WithPath(dir);
  options.engine.checkpoint_interval_bytes = 96 * 1024;
  // Faulted tenants keep serving: containment is not under test.
  options.breaker_threshold = 1'000'000;

  auto opened = Database::Open(options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<Database> db = std::move(*opened);
  std::unique_ptr<SchemaMapping> layout = MakeLayout(kind, db.get(), &app);
  ASSERT_TRUE(layout->Bootstrap().ok());

  constexpr TenantId kTenants = 2;
  for (TenantId t = 0; t < kTenants; ++t) {
    ASSERT_TRUE(layout->CreateTenant(t).ok());
  }

  FaultInjector injector(seed);
  Rng rng(seed * 9173 + 29);

  ShadowTable shadow[kTenants];
  int64_t next_aid = 1;
  int crashes = 0;
  int commits = 0;

  auto reopen = [&]() {
    db->page_store()->set_fault_injector(nullptr);
    layout.reset();
    db.reset();
    auto r = Database::Open(options);
    ASSERT_TRUE(r.ok()) << "reopen: " << r.status().ToString();
    db = std::move(*r);
    layout = MakeLayout(kind, db.get(), &app);
    Status rec = layout->Recover();
    ASSERT_TRUE(rec.ok()) << "layout recover: " << rec.ToString();
    };

  // Even cycles arm a one-shot kill a random number of WAL appends in;
  // odd cycles run clean, guaranteeing committed bursts exist for the
  // kill cycles to preserve (chunk-family layouts burn many appends per
  // statement, so an always-armed schedule would never reach a COMMIT).
  constexpr int kCycles = 6;
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    db->page_store()->set_fault_injector(&injector);
    injector.DisarmAll();
    if (cycle % 2 == 0) {
      FaultSpec spec;
      spec.probability = 1.0;
      spec.skip = static_cast<uint64_t>(rng.Uniform(2, 80));
      spec.max_fires = 1;
      injector.Arm(FaultPoint::kCrash, spec);
    }

    bool crashed = false;
    for (int op = 0; op < 40 && !crashed; ++op) {
      if (db->durability()->frozen()) {
        crashed = true;
        break;
      }
      TenantId t = static_cast<TenantId>(rng.Uniform(0, kTenants - 1));

      if (rng.Bernoulli(0.4)) {  // autocommit single statement
        int64_t aid = next_aid++;
        std::string name = rng.Word(3, 8);
        auto r = layout->Execute(
            t, "INSERT INTO account (aid, name) VALUES (?, ?)",
            {Value::Int64(aid), Value::String(name)});
        if (r.ok()) {
          shadow[t].emplace(aid, std::vector<Value>{Value::Int64(aid),
                                                    Value::String(name)});
        } else {
          ASSERT_TRUE(db->durability()->frozen()) << r.status().ToString();
          crashed = true;
        }
        continue;
      }

      // Transactional burst. Pending mutations apply to the shadow only
      // if COMMIT acknowledges.
      TenantSession session = layout->OpenSession(t);
      if (!session.Begin().ok()) {
        ASSERT_TRUE(db->durability()->frozen());
        crashed = true;
        break;
      }
      ShadowTable pending = shadow[t];
      bool burst_ok = true;
      const int stmts = static_cast<int>(rng.Uniform(1, 4));
      for (int s = 0; s < stmts && burst_ok; ++s) {
        const int action = static_cast<int>(rng.Uniform(0, 3));
        Result<int64_t> r = 0;
        if (action == 0 || pending.empty()) {
          int64_t aid = next_aid++;
          std::string name = rng.Word(3, 8);
          r = session.Execute(
              "INSERT INTO account (aid, name) VALUES (?, ?)",
              {Value::Int64(aid), Value::String(name)});
          if (r.ok()) {
            pending.emplace(aid, std::vector<Value>{Value::Int64(aid),
                                                    Value::String(name)});
          }
        } else if (action == 1) {
          auto it = pending.begin();
          std::advance(it, static_cast<ptrdiff_t>(rng.Uniform(
                               0, static_cast<int64_t>(pending.size()) - 1)));
          std::string name = rng.Word(3, 8);
          r = session.Execute("UPDATE account SET name = ? WHERE aid = ?",
                              {Value::String(name), Value::Int64(it->first)});
          if (r.ok()) it->second[1] = Value::String(name);
        } else {
          auto it = pending.begin();
          std::advance(it, static_cast<ptrdiff_t>(rng.Uniform(
                               0, static_cast<int64_t>(pending.size()) - 1)));
          r = session.Execute("DELETE FROM account WHERE aid = ?",
                              {Value::Int64(it->first)});
          if (r.ok()) pending.erase(it);
        }
        if (!r.ok()) {
          ASSERT_TRUE(db->durability()->frozen()) << r.status().ToString();
          crashed = true;
          burst_ok = false;
        }
      }
      if (burst_ok && rng.Bernoulli(0.7)) {
        if (session.Commit().ok()) {
          shadow[t] = std::move(pending);
          ++commits;
        } else {
          // A failed COMMIT did not ack: the kill beat the end record
          // to the log and recovery erases the transaction.
          ASSERT_TRUE(db->durability()->frozen());
          crashed = true;
        }
      } else if (burst_ok) {
        // Runtime rollback. The kill can land mid-replay; the result is
        // the same either way — nothing of the burst survives.
        (void)session.Rollback();
        if (db->durability()->frozen()) crashed = true;
      }
      // Session teardown auto-rolls-back any bracket the crash left
      // open; on a frozen engine that is best-effort and recovery
      // finishes the job.
    }

    injector.DisarmAll();
    if (crashed) {
      ++crashes;
      reopen();
      if (::testing::Test::HasFatalFailure()) return;
    }
    for (TenantId t = 0; t < kTenants; ++t) {
      VerifyTenant(layout.get(), t, shadow[t], "after txn cycle");
      if (::testing::Test::HasFatalFailure()) return;
    }
  }

  EXPECT_GT(crashes, 0) << "no cycle crashed; txn recovery never exercised";
  EXPECT_GT(commits, 0) << "no burst committed; matrix is vacuous";
  for (TenantId t = 0; t < kTenants; ++t) {
    VerifyTenant(layout.get(), t, shadow[t], "final");
    if (::testing::Test::HasFatalFailure()) return;
  }
  AuditLayout(layout.get(), "final txn audit");
}

INSTANTIATE_TEST_SUITE_P(
    LayoutsAndSeeds, TxnRecoveryTest,
    ::testing::Combine(
        ::testing::Values(LayoutKind::kBasic, LayoutKind::kPrivate,
                          LayoutKind::kExtension, LayoutKind::kUniversal,
                          LayoutKind::kPivot, LayoutKind::kChunk,
                          LayoutKind::kVertical, LayoutKind::kChunkFolding),
        ::testing::Values(1u, 2u, 3u, 4u, 5u)),
    [](const ::testing::TestParamInfo<TxnRecoveryTest::ParamType>& info) {
      return std::string(LayoutKindName(std::get<0>(info.param))) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

/// Deterministic transactional site sweep: a fixed scripted workload —
/// a committed transaction, a checkpoint inside an open transaction, a
/// runtime ROLLBACK (whose undo batch appends its own WAL group), and a
/// transaction left open at teardown — is dry-run to
/// count kCrash evaluations, then re-run once per site with the kill
/// pinned there. Every kill must recover to the committed-only shadow:
/// crashes before the commit record erase the transaction, crashes
/// after it keep the whole group, and crashes mid-rollback still erase
/// it.
class TxnRecoverySiteSweepTest : public ::testing::TestWithParam<LayoutKind> {
};

TEST_P(TxnRecoverySiteSweepTest, EveryCrashSiteRecoversCommittedOnly) {
  const LayoutKind kind = GetParam();
  AppSchema app = FigureFourSchema();
  const std::string dir =
      FreshDir(std::string("txn_sweep_") + LayoutKindName(kind));

  auto run_iteration = [&](const FaultSpec& spec, uint64_t* evaluations,
                           bool* killed) {
    fs::remove_all(dir);
    auto opened = Database::Open(DatabaseOptions::WithPath(dir));
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    std::unique_ptr<Database> db = std::move(*opened);
    std::unique_ptr<SchemaMapping> layout = MakeLayout(kind, db.get(), &app);
    ASSERT_TRUE(layout->Bootstrap().ok());
    ASSERT_TRUE(layout->CreateTenant(0).ok());

    FaultInjector injector(13);
    injector.Arm(FaultPoint::kCrash, spec);
    db->page_store()->set_fault_injector(&injector);

    ShadowTable shadow;
    bool crashed = false;

    // Autocommit seed row.
    {
      auto r = layout->Execute(
          0, "INSERT INTO account (aid, name) VALUES (1, 'base')", {});
      if (r.ok()) {
        shadow.emplace(1, std::vector<Value>{Value::Int64(1),
                                             Value::String("base")});
      } else {
        ASSERT_TRUE(db->durability()->frozen()) << r.status().ToString();
        crashed = true;
      }
    }

    // Transaction 1: committed — all-or-nothing around the kill.
    if (!crashed) {
      TenantSession s = layout->OpenSession(0);
      bool ok = s.Begin().ok();
      ok = ok && s.Execute("INSERT INTO account (aid, name) VALUES (2, 'a'), "
                           "(3, 'b')")
                     .ok();
      ok = ok &&
           s.Execute("UPDATE account SET name = 'a2' WHERE aid = 2").ok();
      ok = ok && s.Commit().ok();
      if (ok) {
        shadow.emplace(2, std::vector<Value>{Value::Int64(2),
                                             Value::String("a2")});
        shadow.emplace(3, std::vector<Value>{Value::Int64(3),
                                             Value::String("b")});
      } else {
        ASSERT_TRUE(db->durability()->frozen());
        crashed = true;
      }
    }

    // Transaction 2: checkpoint lands mid-bracket (its undo records move
    // to meta v4), then the transaction rolls back at runtime — the undo
    // batch appends its own group, so kills land mid-rollback too.
    if (!crashed) {
      TenantSession s = layout->OpenSession(0);
      bool ok = s.Begin().ok();
      ok = ok &&
           s.Execute("INSERT INTO account (aid, name) VALUES (4, 'tmp')")
               .ok();
      if (ok) {
        Status ck = db->Checkpoint();
        if (!ck.ok()) {
          ASSERT_TRUE(db->durability()->frozen()) << ck.ToString();
          ok = false;
        }
      }
      ok = ok &&
           s.Execute("UPDATE account SET name = 'tmp2' WHERE aid = 4").ok();
      if (ok) {
        (void)s.Rollback();
      }
      if (!ok || db->durability()->frozen()) {
        crashed = db->durability()->frozen();
        if (!ok) {
          ASSERT_TRUE(crashed);
        }
      }
      // Rolled back (or killed): aid 4 is never in the shadow.
    }

    // Transaction 3: left open — teardown auto-rollback, and any kill
    // before/within it must still erase the insert.
    if (!crashed) {
      TenantSession s = layout->OpenSession(0);
      bool ok = s.Begin().ok();
      ok = ok &&
           s.Execute("INSERT INTO account (aid, name) VALUES (5, 'open')")
               .ok();
      if (!ok) {
        ASSERT_TRUE(db->durability()->frozen());
        crashed = true;
      }
      // Session destructor rolls the bracket back here.
    }
    if (!crashed && db->durability()->frozen()) crashed = true;

    *evaluations = injector.evaluations(FaultPoint::kCrash);
    *killed = crashed;

    db->page_store()->set_fault_injector(nullptr);
    if (crashed) {
      layout.reset();
      db.reset();
      auto r = Database::Open(DatabaseOptions::WithPath(dir));
      ASSERT_TRUE(r.ok()) << "reopen: " << r.status().ToString();
      db = std::move(*r);
      layout = MakeLayout(kind, db.get(), &app);
      Status rec = layout->Recover();
      ASSERT_TRUE(rec.ok()) << "layout recover: " << rec.ToString();
    }
    VerifyTenant(layout.get(), 0, shadow, "txn sweep");
    AuditLayout(layout.get(), "txn sweep audit");
  };

  FaultSpec dry;
  dry.probability = 0.0;
  uint64_t total_sites = 0;
  bool killed = false;
  run_iteration(dry, &total_sites, &killed);
  if (::testing::Test::HasFatalFailure()) return;
  ASSERT_FALSE(killed);
  ASSERT_GT(total_sites, 0u) << "workload never consulted kCrash";

  for (uint64_t site = 0; site <= total_sites; ++site) {
    SCOPED_TRACE("txn crash site " + std::to_string(site) + " of " +
                 std::to_string(total_sites));
    FaultSpec spec;
    spec.probability = 1.0;
    spec.skip = site;
    spec.max_fires = 1;
    uint64_t evals = 0;
    run_iteration(spec, &evals, &killed);
    if (::testing::Test::HasFatalFailure()) return;
    EXPECT_EQ(killed, site < total_sites);
  }
}

INSTANTIATE_TEST_SUITE_P(Layouts, TxnRecoverySiteSweepTest,
                         ::testing::Values(LayoutKind::kPrivate,
                                           LayoutKind::kChunkFolding),
                         [](const ::testing::TestParamInfo<LayoutKind>& info) {
                           return LayoutKindName(info.param);
                         });

/// Recovery reverts an open transaction from the row images its groups
/// logged, so non-round DOUBLE values (which a short decimal rendering
/// would not reproduce) come back bit for bit. They sit in a base column
/// and in an extension column, so the mapped layouts keep them in chunk,
/// pivot and extension tables; the Chunk Table layouts get a shape with
/// typed dbl columns for them.
class TxnRecoveryDoubleTest : public ::testing::TestWithParam<LayoutKind> {};

TEST_P(TxnRecoveryDoubleTest, OpenTransactionOverDoublesVanishesOnRecovery) {
  const LayoutKind kind = GetParam();
  AppSchema app;
  {
    LogicalTable account;
    account.name = "account";
    account.columns = {{"aid", TypeId::kInt64, true},
                       {"name", TypeId::kString, false},
                       {"balance", TypeId::kDouble, false}};
    ASSERT_TRUE(app.AddTable(std::move(account)).ok());
    ExtensionDef finance;
    finance.name = "finance";
    finance.base_table = "account";
    finance.columns = {{"rate", TypeId::kDouble, false}};
    ASSERT_TRUE(app.AddExtension(std::move(finance)).ok());
  }
  const std::string dir =
      FreshDir(std::string("txn_double_") + LayoutKindName(kind));
  auto make_layout = [&](Database* db) -> std::unique_ptr<SchemaMapping> {
    if (kind != LayoutKind::kChunk && kind != LayoutKind::kVertical) {
      return MakeLayout(kind, db, &app);
    }
    ChunkLayoutOptions options;
    options.shape.doubles = 2;
    options.fold = kind == LayoutKind::kChunk;
    return std::make_unique<ChunkTableLayout>(db, &app, options);
  };
  auto opened = Database::Open(DatabaseOptions::WithPath(dir));
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<Database> db = std::move(*opened);
  std::unique_ptr<SchemaMapping> layout = make_layout(db.get());
  ASSERT_TRUE(layout->Bootstrap().ok());
  ASSERT_TRUE(layout->CreateTenant(0).ok());
  ASSERT_TRUE(layout->EnableExtension(0, "finance").ok());
  auto seeded = layout->Execute(
      0,
      "INSERT INTO account (aid, name, balance, rate) VALUES "
      "(1, 'a', 1234.5678, 0.30000000000000004), "
      "(2, 'b', 98765.4321, 0.000123456789)");
  ASSERT_TRUE(seeded.ok()) << seeded.status().ToString();
  const std::string kScan = "SELECT aid, name, balance, rate FROM account "
                            "ORDER BY aid";
  auto before = layout->Query(0, kScan);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  ASSERT_EQ(before->rows.size(), 2u);

  {
    TenantSession s = layout->OpenSession(0);
    ASSERT_TRUE(s.Begin().ok());
    for (const char* sql :
         {"UPDATE account SET name = 'a2', balance = 2.718281828459045, "
          "rate = 1.0000001 WHERE aid = 1",
          "INSERT INTO account (aid, name, balance, rate) VALUES "
          "(3, 'c', 3.141592653589793, 0.1)",
          "DELETE FROM account WHERE aid = 2"}) {
      auto r = s.Execute(sql);
      ASSERT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
    }
    // Kill the durability layer at the COMMIT record: the transaction
    // has no end record, so recovery must undo it from its undo records.
    FaultInjector injector(7);
    FaultSpec spec;
    spec.probability = 1.0;
    spec.max_fires = 1;
    injector.Arm(FaultPoint::kCrash, spec);
    db->page_store()->set_fault_injector(&injector);
    EXPECT_FALSE(s.Commit().ok());
    EXPECT_TRUE(db->durability()->frozen());
    db->page_store()->set_fault_injector(nullptr);
  }  // Session teardown's rollback is best-effort on the frozen engine.

  layout.reset();
  db.reset();
  auto reopened = Database::Open(DatabaseOptions::WithPath(dir));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  db = std::move(*reopened);
  layout = make_layout(db.get());
  Status rec = layout->Recover();
  ASSERT_TRUE(rec.ok()) << rec.ToString();

  auto after = layout->Query(0, kScan);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  ASSERT_EQ(after->rows.size(), before->rows.size())
      << "the open transaction's insert or delete survived recovery";
  for (size_t i = 0; i < before->rows.size(); ++i) {
    for (size_t c = 0; c < before->rows[i].size(); ++c) {
      EXPECT_EQ(after->rows[i][c].Compare(before->rows[i][c]), 0)
          << "row " << i << " col " << c << ": got "
          << FormatRow(after->rows[i]) << " want "
          << FormatRow(before->rows[i]);
    }
  }
  AuditLayout(layout.get(), "double txn recovery audit");
}

// Every layout that supports extensions (Basic has none; its base
// table holds doubles the way Private's does).
INSTANTIATE_TEST_SUITE_P(
    Layouts, TxnRecoveryDoubleTest,
    ::testing::Values(LayoutKind::kPrivate,
                      LayoutKind::kExtension, LayoutKind::kUniversal,
                      LayoutKind::kPivot, LayoutKind::kChunk,
                      LayoutKind::kVertical, LayoutKind::kChunkFolding),
    [](const ::testing::TestParamInfo<LayoutKind>& info) {
      return LayoutKindName(info.param);
    });

/// Recovery reverts the transactions a crash left open with the same undo
/// batch as ROLLBACK, and a crash can land inside recovery too. One
/// crashed state — a committed transaction beside an open one that shifted
/// unique keys and was checkpointed mid-bracket — is recovered once per
/// kCrash site of recovery itself (the undo batch's group append, then the
/// sealing checkpoint), killed there, and opened again: every run must
/// reach the committed-only state.
TEST(TxnRecoveryUndoCrashTest, EveryCrashSiteInRecoveryReopensCommittedOnly) {
  const std::string image = FreshDir("txn_undo_crash_image");
  {
    auto opened = Database::Open(DatabaseOptions::WithPath(image));
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    std::unique_ptr<Database> db = std::move(*opened);
    for (const char* sql :
         {"CREATE TABLE t (id BIGINT, name VARCHAR)",
          "CREATE UNIQUE INDEX ux_t_id ON t (id)",
          "INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c')"}) {
      ASSERT_TRUE(db->Execute(sql).ok()) << sql;
    }
    Session committed = db->OpenSession();
    ASSERT_TRUE(committed.Begin().ok());
    ASSERT_TRUE(
        committed.Execute("UPDATE t SET name = 'b2' WHERE id = 2").ok());
    ASSERT_TRUE(committed.Commit().ok());
    Session open = db->OpenSession();
    ASSERT_TRUE(open.Begin().ok());
    for (const std::string& sql :
         {std::string("INSERT INTO t VALUES (4, 'd')"),
          std::string("UPDATE t SET id = id + 1"), std::string("CHECKPOINT"),
          std::string("DELETE FROM t WHERE id = 4"),
          "UPDATE t SET name = '" + std::string(300, 'x') + "' WHERE id = 3"}) {
      if (sql == "CHECKPOINT") {
        ASSERT_TRUE(db->Checkpoint().ok());
        continue;
      }
      auto r = open.Execute(sql);
      ASSERT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
    }
    // The process stops with the bracket open.
    db->durability()->Freeze();
  }
  const std::vector<std::string> want = {"1:a", "2:b2", "3:c"};
  auto rows = [](Database* db) {
    std::vector<std::string> out;
    auto r = db->Query("SELECT id, name FROM t ORDER BY id");
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (!r.ok()) return out;
    for (const Row& row : r->rows) {
      out.push_back(row[0].ToString() + ":" + row[1].ToString());
    }
    return out;
  };
  const std::string dir = FreshDir("txn_undo_crash");
  // Recovers a copy of the crashed state with `spec` armed at kCrash.
  auto recover = [&](const FaultSpec& spec, uint64_t* evaluations,
                     uint64_t* undo_rows) {
    fs::remove_all(dir);
    fs::copy(image, dir, fs::copy_options::recursive);
    Database db(DatabaseOptions::WithPath(dir));
    FaultInjector injector(5);
    injector.Arm(FaultPoint::kCrash, spec);
    db.page_store()->set_fault_injector(&injector);
    Status st = db.Recover();
    db.page_store()->set_fault_injector(nullptr);
    EXPECT_EQ(db.Recover().code(), StatusCode::kFailedPrecondition)
        << "an engine recovered twice";
    *evaluations = injector.evaluations(FaultPoint::kCrash);
    *undo_rows = db.Stats().durability.recovery_undo_rows;
    return st;
  };

  FaultSpec dry;
  dry.probability = 0.0;
  uint64_t sites = 0;
  uint64_t undo_rows = 0;
  Status clean = recover(dry, &sites, &undo_rows);
  ASSERT_TRUE(clean.ok()) << clean.ToString();
  // INSERT, four key-shifted rows, DELETE, UPDATE.
  EXPECT_EQ(undo_rows, 7u);
  ASSERT_GT(sites, 2u) << "recovery consulted kCrash too rarely";

  for (uint64_t site = 0; site <= sites; ++site) {
    SCOPED_TRACE("recovery crash site " + std::to_string(site) + " of " +
                 std::to_string(sites));
    FaultSpec spec;
    spec.probability = 1.0;
    spec.skip = site;
    spec.max_fires = 1;
    uint64_t evaluations = 0;
    Status st = recover(spec, &evaluations, &undo_rows);
    EXPECT_EQ(st.ok(), site == sites) << st.ToString();
    auto reopened = Database::Open(DatabaseOptions::WithPath(dir));
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    EXPECT_EQ(rows(reopened->get()), want);
  }
}

/// Two open brackets share a heap slot: the younger transaction deletes a
/// row, the older one inserts into the freed slot, and a checkpoint
/// moves both batches' undo records into the meta file before the
/// crash. Recovery must revert the batches in the order they ran, not
/// transaction by transaction, or the older transaction's revert looks
/// for its row where the restored delete put the other one, is refused,
/// and its uncommitted row survives.
TEST(TxnRecoveryInterleaveTest, SlotSharedByTwoOpenBracketsIsUndoneInOrder) {
  const std::string dir = FreshDir("txn_interleave");
  {
    auto opened = Database::Open(DatabaseOptions::WithPath(dir));
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    std::unique_ptr<Database> db = std::move(*opened);
    ASSERT_TRUE(db->Execute("CREATE TABLE t (id BIGINT, name VARCHAR)").ok());
    ASSERT_TRUE(db->Execute("INSERT INTO t VALUES (1, 'x'), (2, 'y')").ok());
    Session older = db->OpenSession();
    ASSERT_TRUE(older.Begin().ok());
    Session younger = db->OpenSession();
    ASSERT_TRUE(younger.Begin().ok());
    ASSERT_TRUE(younger.Execute("DELETE FROM t WHERE id = 1").ok());
    ASSERT_TRUE(older.Execute("INSERT INTO t VALUES (9, 'q')").ok());
    ASSERT_TRUE(db->Checkpoint().ok());
    // The process stops with both brackets open.
    db->durability()->Freeze();
  }
  auto reopened = Database::Open(DatabaseOptions::WithPath(dir));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto r = (*reopened)->Query("SELECT id, name FROM t ORDER BY id");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  std::vector<std::string> got;
  for (const Row& row : r->rows) {
    got.push_back(row[0].ToString() + ":" + row[1].ToString());
  }
  EXPECT_EQ(got, (std::vector<std::string>{"1:x", "2:y"}));
  EXPECT_EQ((*reopened)->Stats().durability.recovery_undo_rows, 2u);
}

/// Deallocation regression: DROP TABLE frees pages through the logged
/// free list. Recovery must replay those deallocations byte-exactly —
/// the reopened store's free list equals the pre-crash one in pop order,
/// no freed page stays resurrected, and later allocations slot into the
/// same ids instead of double-allocating (WAL replay asserts divergence).
TEST(RecoveryFreeListTest, DroppedPagesStayFreedAcrossRecovery) {
  const std::string dir = FreshDir("freelist");
  auto opened = Database::Open(DatabaseOptions::WithPath(dir));
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<Database> db = std::move(*opened);

  auto make_schema = [] {
    Schema s;
    s.AddColumn(Column{"id", TypeId::kInt64, true});
    s.AddColumn(Column{"name", TypeId::kString, false});
    return s;
  };
  ASSERT_TRUE(db->CreateTable("doomed", make_schema()).ok());
  ASSERT_TRUE(
      db->CreateIndex("doomed", "ux_doomed_id", {"id"}, /*unique=*/true).ok());
  ASSERT_TRUE(db->CreateTable("keeper", make_schema()).ok());
  Rng rng(11);
  for (int64_t i = 0; i < 200; ++i) {
    ASSERT_TRUE(db->InsertRow("doomed", {Value::Int64(i),
                                         Value::String(rng.Word(20, 40))})
                    .ok());
    ASSERT_TRUE(db->InsertRow("keeper", {Value::Int64(i),
                                         Value::String(rng.Word(5, 10))})
                    .ok());
  }
  // Checkpoint first so the drop's deallocations live only in the WAL and
  // recovery must replay them (not just reload them from meta).
  ASSERT_TRUE(db->Checkpoint().ok());
  ASSERT_TRUE(db->DropTable("doomed").ok());
  ASSERT_TRUE(
      db->InsertRow("keeper", {Value::Int64(200), Value::String("after")})
          .ok());

  const std::vector<PageId> free_before = db->page_store()->FreeListSnapshot();
  const size_t slots_before = db->page_store()->page_slots();
  ASSERT_FALSE(free_before.empty()) << "drop freed no pages; test is vacuous";

  // Process death without a checkpoint: recovery rebuilds the free list
  // from the checkpoint image plus the logged dealloc ops.
  db.reset();
  opened = Database::Open(DatabaseOptions::WithPath(dir));
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  db = std::move(*opened);

  EXPECT_EQ(db->page_store()->FreeListSnapshot(), free_before)
      << "recovered free list diverged: freed pages resurrected or reordered";
  for (PageId id : free_before) {
    EXPECT_FALSE(db->page_store()->IsAllocated(id))
        << "page " << id << " freed by DROP TABLE came back allocated";
  }

  // New allocations must reuse the freed ids cleanly: insert enough to
  // drain the free list, then verify over another recovery cycle.
  for (int64_t i = 201; i < 400; ++i) {
    ASSERT_TRUE(db->InsertRow("keeper", {Value::Int64(i),
                                         Value::String(rng.Word(20, 40))})
                    .ok());
  }
  EXPECT_LE(db->page_store()->page_slots(), slots_before + 8)
      << "allocations ignored the recovered free list";
  db.reset();
  opened = Database::Open(DatabaseOptions::WithPath(dir));
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  db = std::move(*opened);
  auto rows = db->Query("SELECT COUNT(*) FROM keeper");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->rows.size(), 1u);
  EXPECT_EQ(rows->rows[0][0].AsInt64(), 400);
  auto gone = db->Query("SELECT COUNT(*) FROM doomed");
  EXPECT_FALSE(gone.ok()) << "dropped table resurrected by recovery";
}

// ---- Byte-level replay equivalence --------------------------------------
//
// Redo groups log a page's changed bytes (a delta against its
// before-image) and a full image only on the page's first change after a
// checkpoint or its allocation. These tests compare recovery with the
// engine at the page level: after a kill, every page must come back
// byte-identical to the in-memory image of the committed state.

/// Every allocated page as the engine sees it now (read through the
/// pool, so unflushed changes count): id -> (type, bytes).
using PageImages = std::map<PageId, std::pair<PageType, std::string>>;

PageImages SnapshotPages(Database* db) {
  PageImages out;
  PageStore* store = db->page_store();
  for (size_t i = 0; i < store->page_slots(); ++i) {
    const PageId id = static_cast<PageId>(i);
    if (!store->IsAllocated(id)) continue;
    Result<Page*> page = db->buffer_pool()->FetchPage(id);
    EXPECT_TRUE(page.ok()) << "page " << id << ": "
                           << page.status().ToString();
    if (!page.ok()) continue;
    out[id] = {store->TypeOf(id),
               std::string((*page)->data(), (*page)->size())};
    db->buffer_pool()->UnpinPage(id, /*dirty=*/false);
  }
  return out;
}

void ExpectSameImages(const PageImages& want, const PageImages& got) {
  for (const auto& [id, image] : want) {
    auto it = got.find(id);
    if (it == got.end()) {
      ADD_FAILURE() << "page " << id << " not allocated after recovery";
      continue;
    }
    EXPECT_EQ(it->second.first, image.first) << "page " << id << " type";
    const std::string& a = image.second;
    const std::string& b = it->second.second;
    if (a != b) {
      size_t at = 0;
      while (at < a.size() && at < b.size() && a[at] == b[at]) ++at;
      ADD_FAILURE() << "page " << id << " differs from the committed image "
                    << "first at byte " << at;
    }
  }
  for (const auto& [id, image] : got) {
    if (want.count(id) == 0) {
      ADD_FAILURE() << "page " << id << " allocated only after recovery";
    }
  }
}

Schema KeyValueSchema() {
  Schema s;
  s.AddColumn(Column{"id", TypeId::kInt64, true});
  s.AddColumn(Column{"name", TypeId::kString, false});
  return s;
}

/// How a ReplayEquivalenceTest run ends.
enum class KillMode {
  /// Plain kill: the WAL is the only record since the first checkpoint.
  kKill,
  /// Crash the last checkpoint halfway through writing pages.db.
  kMidFlush,
  /// A small checkpoint interval and a run of mapped logical writes, each
  /// of which must commit as one redo group (so no automatic checkpoint
  /// can land between its physical writes), then a kill at the redo-group
  /// append of a multi-write logical write. Recovery must restore the
  /// pre-statement logical rows.
  kMidStatement,
};

const char* KillModeName(KillMode mode) {
  switch (mode) {
    case KillMode::kKill:
      return "kill";
    case KillMode::kMidFlush:
      return "midflush";
    case KillMode::kMidStatement:
      return "midstatement";
  }
  return "?";
}

/// Counts the physical writes the mapping layer emits.
class PhysicalWriteCounter : public PhysicalStatementObserver {
 public:
  void OnSelect(TenantId, const sql::SelectStmt&) override {}
  void OnStatement(TenantId, const sql::Statement&) override { ++writes; }
  uint64_t writes = 0;
};

std::vector<std::string> AccountRows(SchemaMapping* layout, TenantId t) {
  std::vector<std::string> out;
  auto r = layout->Query(t, "SELECT * FROM account ORDER BY aid");
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  if (!r.ok()) return out;
  for (const Row& row : r->rows) out.push_back(FormatRow(row));
  return out;
}

/// Param: (layout, how the run ends).
class ReplayEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<LayoutKind, KillMode>> {};

TEST_P(ReplayEquivalenceTest, RecoveredPagesAreByteIdenticalToCommitted) {
  const LayoutKind kind = std::get<0>(GetParam());
  const KillMode mode = std::get<1>(GetParam());
  AppSchema app = FigureFourSchema();
  const std::string dir = FreshDir(std::string("bytes_") +
                                   LayoutKindName(kind) + "_" +
                                   KillModeName(mode));
  EngineOptions options;
  if (mode == KillMode::kMidStatement) {
    // Small enough that automatic checkpoints fire during the run, large
    // enough not to thrash: each checkpoint makes every page's next
    // change log a full image again.
    options.checkpoint_interval_bytes = 256 * 1024;
  }
  auto opened = Database::Open(DatabaseOptions::WithPath(dir, options));
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<Database> db = std::move(*opened);
  std::unique_ptr<SchemaMapping> layout = MakeLayout(kind, db.get(), &app);
  ASSERT_TRUE(layout->Bootstrap().ok());
  ASSERT_TRUE(layout->CreateTenant(0).ok());
  ASSERT_TRUE(layout->CreateTenant(1).ok());
  // The Basic layout has no extensions.
  const bool extended = layout->EnableExtension(0, "healthcare").ok();

  auto exec = [&](TenantId t, const std::string& sql) {
    Result<int64_t> r = layout->Execute(t, sql);
    ASSERT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
  };
  // `count` rows with aids first, first + 2, ..., ten per statement.
  auto insert_rows = [&](TenantId t, int64_t first, int64_t count) {
    for (int64_t base = 0; base < count; base += 10) {
      std::string sql = "INSERT INTO account (aid, name) VALUES ";
      for (int64_t i = base; i < std::min(count, base + 10); ++i) {
        const std::string aid = std::to_string(first + 2 * i);
        if (i > base) sql += ", ";
        sql += "(";
        sql += aid;
        sql += ", 'account-";
        sql += aid;
        sql += "')";
      }
      exec(t, sql);
      if (::testing::Test::HasFatalFailure()) return;
    }
  };
  auto engine = [&](const std::string& sql) {
    Result<QueryResult> r = db->Execute(sql);
    ASSERT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
  };

  // Before the checkpoint: the layout's even rows, an engine table whose
  // pages are freed after it, and one that is compacted after it.
  for (TenantId t : {0, 1}) insert_rows(t, 0, 200);
  ASSERT_TRUE(db->CreateTable("doomed", KeyValueSchema()).ok());
  ASSERT_TRUE(db->CreateIndex("doomed", "ux_doomed", {"id"}, true).ok());
  ASSERT_TRUE(db->CreateTable("packed", KeyValueSchema()).ok());
  for (int64_t i = 0; i < 150; ++i) {
    ASSERT_TRUE(db->InsertRow("doomed", {Value::Int64(i),
                                         Value::String(std::string(60, 'd'))})
                    .ok());
    ASSERT_TRUE(db->InsertRow("packed", {Value::Int64(i),
                                         Value::String(std::string(60, 'p'))})
                    .ok());
  }
  if (::testing::Test::HasFatalFailure()) return;
  ASSERT_TRUE(db->Checkpoint().ok());
  const size_t pages_at_checkpoint = db->page_store()->allocated_pages();

  // After it: first touches log full images, later changes deltas.
  for (int round = 0; round < 2; ++round) {
    for (int64_t aid : {4, 100, 202, 398}) {
      exec(0, "UPDATE account SET name = 'renamed-" + std::to_string(round) +
                  "' WHERE aid = " + std::to_string(aid));
      exec(1, "UPDATE account SET name = 'other-" + std::to_string(round) +
                  "' WHERE aid = " + std::to_string(aid));
    }
    if (extended) {
      exec(0, "UPDATE account SET beds = " + std::to_string(round + 7) +
                  ", hospital = 'General' WHERE aid = 100");
    }
  }
  // Mid-leaf index removals and insertions (slot-array shifts), then
  // enough odd rows in between the even ones to split leaves.
  for (int64_t aid : {10, 12, 150, 152, 300}) {
    exec(0, "DELETE FROM account WHERE aid = " + std::to_string(aid));
    exec(1, "DELETE FROM account WHERE aid = " + std::to_string(aid));
  }
  for (TenantId t : {0, 1}) insert_rows(t, 1, 300);
  if (::testing::Test::HasFatalFailure()) return;
  // A table dropped after the checkpoint hands its pages to another one.
  ASSERT_TRUE(db->DropTable("doomed").ok());
  ASSERT_TRUE(db->CreateTable("heir", KeyValueSchema()).ok());
  for (int64_t i = 0; i < 150; ++i) {
    ASSERT_TRUE(db->InsertRow("heir", {Value::Int64(i),
                                       Value::String(std::string(40, 'h'))})
                    .ok());
  }
  engine("UPDATE heir SET name = 'heir-updated' WHERE id = 3");
  // Deleted space on a full heap page, then a row that only fits once
  // the page is compacted.
  for (int64_t i = 0; i < 60; i += 2) {
    engine("DELETE FROM packed WHERE id = " + std::to_string(i));
  }
  engine("UPDATE packed SET name = '" + std::string(200, 'P') +
         "' WHERE id = 1");
  if (::testing::Test::HasFatalFailure()) return;

  const DurabilityCountersSnapshot logged = db->Stats().durability;
  EXPECT_GT(logged.delta_records, 0u) << "workload logged no deltas";
  EXPECT_GT(logged.full_images, 0u);
  EXPECT_GT(db->page_store()->allocated_pages(), pages_at_checkpoint)
      << "no page allocated after the checkpoint (no split, no new page)";

  if (mode == KillMode::kMidStatement) {
    // Logical writes that span dozens of physical writes: per-row Phase
    // (b) UPDATEs (one per affected row and touched source) alternate
    // with 30-row INSERTs (one physical insert per row and source — the
    // only fan-out the single-table layouts have, whose UPDATE is one
    // physical statement).
    const std::vector<std::string> other_tenant = AccountRows(layout.get(), 1);
    PhysicalWriteCounter counter;
    layout->set_statement_observer(&counter);
    auto write_sql = [](int round) {
      if (round % 2 == 0) {
        return "UPDATE account SET name = 'round-" + std::to_string(round) +
               "' WHERE aid < 60";
      }
      std::string sql = "INSERT INTO account (aid, name) VALUES ";
      for (int i = 0; i < 30; ++i) {
        const std::string aid = std::to_string(10'000 + round * 30 + i);
        if (i > 0) sql += ", ";
        sql += "(" + aid + ", 'new-" + aid + "')";
      }
      return sql;
    };
    const DurabilityCountersSnapshot run_start = db->Stats().durability;
    int round = 0;
    for (; round < 200; ++round) {
      const DurabilityCountersSnapshot before = db->Stats().durability;
      if (before.checkpoints >= run_start.checkpoints + 2) break;
      exec(0, write_sql(round));
      if (::testing::Test::HasFatalFailure()) return;
      // All physical writes of the logical write share one redo group,
      // so an automatic checkpoint can only land before or after them.
      const DurabilityCountersSnapshot after = db->Stats().durability;
      ASSERT_EQ(after.group_commits, before.group_commits + 1)
          << "round " << round << ": a logical write spans redo groups";
    }
    const DurabilityCountersSnapshot run_end = db->Stats().durability;
    // Mapped writes alone honour checkpoint_interval_bytes.
    EXPECT_GE(run_end.checkpoints, run_start.checkpoints + 2)
        << "no automatic checkpoints during a run of mapped writes";
    EXPECT_EQ(run_end.txn_begins, run_start.txn_begins)
        << "an autocommit logical write opened a txn bracket";

    // Kill the next multi-write logical write at its redo-group append:
    // the batch's group is the first durable operation the write makes.
    const std::vector<std::string> before = AccountRows(layout.get(), 0);
    FaultInjector injector(1);
    FaultSpec spec;
    spec.probability = 1.0;
    spec.max_fires = 1;
    injector.Arm(FaultPoint::kCrash, spec);
    db->page_store()->set_fault_injector(&injector);
    const uint64_t writes_before = counter.writes;
    const uint64_t groups_before = db->Stats().durability.group_commits;
    Result<int64_t> killed = layout->Execute(0, write_sql(round | 1));
    EXPECT_FALSE(killed.ok()) << "the kill did not fail the statement";
    EXPECT_EQ(injector.fires(FaultPoint::kCrash), 1u);
    EXPECT_GE(counter.writes, writes_before + 30) << "not a multi-write batch";
    EXPECT_EQ(db->Stats().durability.group_commits, groups_before);
    ASSERT_TRUE(db->durability()->frozen());
    layout->set_statement_observer(nullptr);
    db->page_store()->set_fault_injector(nullptr);
    layout.reset();
    db.reset();

    opened = Database::Open(DatabaseOptions::WithPath(dir, options));
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    db = std::move(*opened);
    layout = MakeLayout(kind, db.get(), &app);
    Status rec = layout->Recover();
    ASSERT_TRUE(rec.ok()) << rec.ToString();
    EXPECT_EQ(AccountRows(layout.get(), 0), before)
        << "the killed logical write was not undone to its pre-image";
    EXPECT_EQ(AccountRows(layout.get(), 1), other_tenant);
    return;
  }

  const PageImages committed = SnapshotPages(db.get());
  if (mode == KillMode::kMidFlush) {
    // Kill the second checkpoint halfway through writing pages.db, so it
    // holds new images for some changed pages and old ones for others.
    ASSERT_TRUE(db->buffer_pool()->FlushAll().ok());
    size_t live_dirty = 0;
    for (PageId id : db->page_store()->DirtySinceCheckpoint()) {
      if (db->page_store()->IsAllocated(id)) ++live_dirty;
    }
    ASSERT_GT(live_dirty, 4u);
    FaultInjector injector(1);
    FaultSpec spec;
    spec.probability = 1.0;
    spec.skip = 1 + live_dirty / 2;  // checkpoint-begin, then one per page
    spec.max_fires = 1;
    injector.Arm(FaultPoint::kCrash, spec);
    db->page_store()->set_fault_injector(&injector);
    EXPECT_FALSE(db->Checkpoint().ok());
    EXPECT_EQ(injector.fires(FaultPoint::kCrash), 1u);
    ASSERT_TRUE(db->durability()->frozen());
    db->page_store()->set_fault_injector(nullptr);
  }
  layout.reset();
  db.reset();

  opened = Database::Open(DatabaseOptions::WithPath(dir));
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  db = std::move(*opened);
  ExpectSameImages(committed, SnapshotPages(db.get()));
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, ReplayEquivalenceTest,
    ::testing::Combine(
        ::testing::Values(LayoutKind::kBasic, LayoutKind::kPrivate,
                          LayoutKind::kExtension, LayoutKind::kUniversal,
                          LayoutKind::kPivot, LayoutKind::kChunk,
                          LayoutKind::kVertical, LayoutKind::kChunkFolding),
        ::testing::Values(KillMode::kKill, KillMode::kMidFlush,
                          KillMode::kMidStatement)),
    [](const ::testing::TestParamInfo<ReplayEquivalenceTest::ParamType>&
           info) {
      return std::string(LayoutKindName(std::get<0>(info.param))) + "_" +
             KillModeName(std::get<1>(info.param));
    });

// ---- Crafted-WAL replay-ordering regressions --------------------------
//
// These write a hand-built WAL into a fresh directory — the disk state a
// crash leaves when concurrent statements on different tables raced to
// the log — and open the database over it. They pin the exact
// interleavings the multi-threaded soak only hits probabilistically.

/// One-alloc redo group: alloc `page` at store sequence `seq` with a
/// recognizable after-image.
WalGroup AllocGroup(PageId page, uint64_t seq, char fill) {
  WalGroup g;
  g.ops.push_back({WalPageOp::Kind::kAlloc, page, PageType::kHeap, seq});
  WalPageImage img;
  img.page = page;
  img.type = PageType::kHeap;
  img.image.assign(kDefaultPageSize, fill);
  g.images.push_back(std::move(img));
  return g;
}

WalGroup DeallocGroup(PageId page, uint64_t seq) {
  WalGroup g;
  g.ops.push_back({WalPageOp::Kind::kDealloc, page, PageType::kFree, seq});
  return g;
}

void CraftWal(const std::string& dir,
              const std::vector<std::pair<uint64_t, WalGroup>>& groups) {
  WalWriter writer(dir + "/wal", 4ull * 1024 * 1024);
  ASSERT_TRUE(writer.Open().ok());
  for (const auto& [lsn, group] : groups) {
    ASSERT_TRUE(
        writer.Append(lsn, WalRecordType::kGroup, EncodeWalGroup(group)).ok());
  }
}

char FirstByteOf(PageStore* store, PageId id) {
  PageType type;
  std::vector<char> image;
  uint64_t sum;
  EXPECT_TRUE(store->RawRead(id, &type, &image, &sum).ok());
  return image.empty() ? '\0' : image[0];
}

/// Two statements on different tables: the one that allocated *second*
/// at the store (seq 2) won the race to the WAL (lsn 1). Replay must
/// follow store order, not log order — pop-order replay would hand page
/// 0 to the first group's recorded page 1 and fail recovery with
/// "replay alloc diverged", leaving the database permanently
/// unrecoverable.
TEST(CraftedWalReplayTest, CrossTableAppendRaceReplaysInStoreOrder) {
  const std::string dir = FreshDir("crafted_race");
  CraftWal(dir, {{1, AllocGroup(1, 2, 'B')}, {2, AllocGroup(0, 1, 'A')}});
  auto opened = Database::Open(DatabaseOptions::WithPath(dir));
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<Database> db = std::move(*opened);
  EXPECT_TRUE(db->page_store()->IsAllocated(0));
  EXPECT_TRUE(db->page_store()->IsAllocated(1));
  EXPECT_EQ(FirstByteOf(db->page_store(), 0), 'A');
  EXPECT_EQ(FirstByteOf(db->page_store(), 1), 'B');
}

/// Page 0 is freed by statement A (store seq 2) and immediately reused
/// by statement B on another table (seq 3), but A's dealloc group
/// reaches the log *after* B's alloc group. Sorted by seq the ops
/// replay alloc/dealloc/alloc, and the page must come back with the new
/// owner's image, not A's stale one.
TEST(CraftedWalReplayTest, DeallocReallocRaceKeepsNewOwnersImage) {
  const std::string dir = FreshDir("crafted_realloc");
  CraftWal(dir, {{1, AllocGroup(0, 1, 'A')},
                 {2, AllocGroup(0, 3, 'B')},
                 {3, DeallocGroup(0, 2)}});
  auto opened = Database::Open(DatabaseOptions::WithPath(dir));
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<Database> db = std::move(*opened);
  EXPECT_TRUE(db->page_store()->IsAllocated(0));
  EXPECT_EQ(FirstByteOf(db->page_store(), 0), 'B');
}

/// Delta-only redo group: `text` written at offset 0 of a page that is
/// all `base_fill`.
WalGroup DeltaGroup(PageId page, char base_fill, const std::string& text) {
  const std::string before(kDefaultPageSize, base_fill);
  std::string after = before;
  after.replace(0, text.size(), text);
  WalGroup g;
  g.deltas.push_back(
      {page, EncodePageDelta(before.data(), after.data(), before.size())});
  return g;
}

/// The delta twin of the race above: both owners log a full image and
/// then a delta, and A's dealloc group still reaches the log last. The
/// new owner's deltas must apply to the new owner's image — never to A's.
TEST(CraftedWalReplayTest, DeallocReallocRaceAppliesNewOwnersDeltas) {
  const std::string dir = FreshDir("crafted_realloc_delta");
  CraftWal(dir, {{1, AllocGroup(0, 1, 'A')},
                 {2, DeltaGroup(0, 'A', "old owner")},
                 {3, AllocGroup(0, 3, 'B')},
                 {4, DeltaGroup(0, 'B', "new owner")},
                 {5, DeallocGroup(0, 2)}});
  auto opened = Database::Open(DatabaseOptions::WithPath(dir));
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<Database> db = std::move(*opened);
  ASSERT_TRUE(db->page_store()->IsAllocated(0));
  PageType type;
  std::vector<char> image;
  uint64_t sum;
  ASSERT_TRUE(db->page_store()->RawRead(0, &type, &image, &sum).ok());
  std::string want(kDefaultPageSize, 'B');
  want.replace(0, 9, "new owner");
  EXPECT_EQ(std::string(image.begin(), image.end()), want);
}

/// Every page changed since the checkpoint logs a full image before its
/// first delta, so a delta with nothing to apply to is a damaged log:
/// recovery must refuse it rather than patch a stale checkpoint image.
TEST(CraftedWalReplayTest, DeltaWithoutFullImageFailsRecovery) {
  const std::string dir = FreshDir("crafted_delta_no_base");
  WalGroup alloc_only;
  alloc_only.ops.push_back({WalPageOp::Kind::kAlloc, 0, PageType::kHeap, 1});
  CraftWal(dir, {{1, alloc_only}, {2, DeltaGroup(0, '\0', "orphan")}});
  auto opened = Database::Open(DatabaseOptions::WithPath(dir));
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kDataLoss)
      << opened.status().ToString();
}

/// A logged alloc can sit above slots claimed by statements the crash
/// caught before their append: the log shows only page 2. Id-directed
/// replay must land on page 2 and hand the unlogged slots 0 and 1 back
/// to the free list instead of diverging.
TEST(CraftedWalReplayTest, UnloggedNeighbourSlotsReturnToFreeList) {
  const std::string dir = FreshDir("crafted_gap");
  CraftWal(dir, {{1, AllocGroup(2, 5, 'C')}});
  auto opened = Database::Open(DatabaseOptions::WithPath(dir));
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<Database> db = std::move(*opened);
  EXPECT_TRUE(db->page_store()->IsAllocated(2));
  EXPECT_EQ(FirstByteOf(db->page_store(), 2), 'C');
  EXPECT_FALSE(db->page_store()->IsAllocated(0));
  EXPECT_FALSE(db->page_store()->IsAllocated(1));
  const std::vector<PageId> free_list = db->page_store()->FreeListSnapshot();
  EXPECT_EQ(std::count(free_list.begin(), free_list.end(), 0), 1);
  EXPECT_EQ(std::count(free_list.begin(), free_list.end(), 1), 1);
}

// ---- WAL reader robustness ---------------------------------------------

/// A corrupted length field must not drive a multi-gigabyte allocation:
/// the moment the claimed payload exceeds the bytes left in the segment
/// the frame is a torn tail, checksum unseen.
TEST(WalReaderRobustnessTest, HugePayloadLengthIsATornTailNotABadAlloc) {
  const std::string dir = FreshDir("wal_hugelen");
  const std::string wal_dir = dir + "/wal";
  {
    WalWriter writer(wal_dir, 4ull * 1024 * 1024);
    ASSERT_TRUE(writer.Open().ok());
    ASSERT_TRUE(writer
                    .Append(1, WalRecordType::kGroup,
                            EncodeWalGroup(AllocGroup(0, 1, 'A')))
                    .ok());
  }
  // Frame header with valid magic and type but a ~4 GiB payload length
  // and a garbage checksum, as left by a corrupted header on disk.
  std::string header;
  const uint32_t magic = 0x4D57414Cu;  // "MWAL"
  const uint64_t lsn = 2;
  const uint32_t huge_len = 0xFFFFFF00u;
  const uint64_t bogus_sum = 0x1234;
  header.append(reinterpret_cast<const char*>(&magic), 4);
  header.append(reinterpret_cast<const char*>(&lsn), 8);
  header.push_back(1);  // kGroup
  header.append(3, '\0');
  header.append(reinterpret_cast<const char*>(&huge_len), 4);
  header.append(reinterpret_cast<const char*>(&bogus_sum), 8);
  {
    std::ofstream out(wal_dir + "/seg-00000000.wal",
                      std::ios::binary | std::ios::app);
    out << header;
  }
  WalReader reader(wal_dir);
  auto scan = reader.ReadAll();
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_EQ(scan->records.size(), 1u);
  EXPECT_EQ(scan->truncated_tails, 1u);
}

/// Files that merely resemble segments must be invisible to the WAL:
/// not scanned by the reader (a spurious torn tail), not counted by the
/// writer when picking the next segment index, and not deleted by
/// Truncate.
TEST(WalReaderRobustnessTest, StraySegmentLookalikesAreIgnored) {
  const std::string dir = FreshDir("wal_stray");
  const std::string wal_dir = dir + "/wal";
  {
    WalWriter writer(wal_dir, 4ull * 1024 * 1024);
    ASSERT_TRUE(writer.Open().ok());
    ASSERT_TRUE(writer
                    .Append(1, WalRecordType::kGroup,
                            EncodeWalGroup(AllocGroup(0, 1, 'A')))
                    .ok());
  }
  // A leftover temp file whose name embeds a *higher* index: a bare
  // sscanf match would both scan its garbage as a segment and make the
  // writer resume at segment 43.
  const std::string stray = wal_dir + "/seg-00000042.wal.tmp";
  {
    std::ofstream out(stray, std::ios::binary);
    out << "not a wal segment";
  }

  WalReader reader(wal_dir);
  auto scan = reader.ReadAll();
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_EQ(scan->records.size(), 1u);
  EXPECT_EQ(scan->truncated_tails, 0u) << "stray file scanned as a segment";

  WalWriter writer(wal_dir, 4ull * 1024 * 1024);
  ASSERT_TRUE(writer.Open().ok());
  ASSERT_TRUE(writer
                  .Append(2, WalRecordType::kGroup,
                          EncodeWalGroup(AllocGroup(1, 2, 'B')))
                  .ok());
  EXPECT_TRUE(fs::exists(wal_dir + "/seg-00000001.wal"))
      << "writer skipped indexes claimed by a stray file";
  ASSERT_TRUE(writer.Truncate().ok());
  EXPECT_TRUE(fs::exists(stray)) << "truncate deleted a non-segment file";
  EXPECT_FALSE(fs::exists(wal_dir + "/seg-00000001.wal"));
}

/// A log written in an older frame format is whole and valid, not a
/// torn tail: recovery must refuse it with an explicit error and leave
/// every byte on disk, instead of truncating acknowledged statements.
/// "MWAL" frames (full page images) were checksummed with FNV-1a from a
/// mistyped basis, "MWL2" frames (SQL undo hints) from the right one.
TEST(WalFormatTest, OldFormatLogFailsOpenAndStaysOnDisk) {
  struct OldFormat {
    const char* magic_text;
    uint32_t magic;
    uint64_t seed;
  };
  for (const OldFormat& format :
       {OldFormat{"MWAL", 0x4D57414Cu, 1469598103934665603ull},
        OldFormat{"MWL2", 0x4D574C32u, kFnv1aBasis}}) {
    SCOPED_TRACE(format.magic_text);
    const std::string dir =
        FreshDir(std::string("wal_old_format_") + format.magic_text);
    const std::string wal_dir = dir + "/wal";
    fs::create_directories(wal_dir);
    // Old kGroup payload: one alloc op, one full image, no table meta, no
    // catalog blob.
    std::string payload;
    auto put = [&payload](const auto& v) {
      payload.append(reinterpret_cast<const char*>(&v), sizeof(v));
    };
    put(uint32_t{1});
    put(uint8_t{1});
    put(int32_t{0});
    put(uint8_t{1});
    put(uint64_t{1});
    put(uint32_t{1});
    put(int32_t{0});
    put(uint8_t{1});
    put(static_cast<uint32_t>(kDefaultPageSize));
    payload.append(kDefaultPageSize, 'A');
    put(uint32_t{0});
    put(uint8_t{0});
    std::string frame;
    const uint64_t lsn = 1;
    const uint32_t len = static_cast<uint32_t>(payload.size());
    frame.append(reinterpret_cast<const char*>(&format.magic), 4);
    frame.append(reinterpret_cast<const char*>(&lsn), 8);
    frame.push_back(1);  // kGroup
    frame.append(3, '\0');
    frame.append(reinterpret_cast<const char*>(&len), 4);
    frame.append(8, '\0');  // checksum, computed over the zeroed field
    uint64_t sum = WalChecksum(frame.data(), frame.size(), format.seed);
    sum = WalChecksum(payload.data(), payload.size(), sum);
    std::memcpy(frame.data() + 20, &sum, 8);
    frame += payload;
    const std::string segment = wal_dir + "/seg-00000000.wal";
    {
      std::ofstream out(segment, std::ios::binary);
      out << frame;
    }

    auto opened = Database::Open(DatabaseOptions::WithPath(dir));
    ASSERT_FALSE(opened.ok()) << "an old-format log was replayed or dropped";
    EXPECT_EQ(opened.status().code(), StatusCode::kFailedPrecondition)
        << opened.status().ToString();
    EXPECT_NE(opened.status().ToString().find("format"), std::string::npos)
        << opened.status().ToString();
    EXPECT_NE(opened.status().ToString().find(format.magic_text),
              std::string::npos)
        << opened.status().ToString();
    std::ifstream in(segment, std::ios::binary);
    const std::string on_disk((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
    EXPECT_EQ(on_disk, frame) << "recovery rewrote the old-format segment";
    size_t segments = 0;
    for (const auto& entry : fs::directory_iterator(wal_dir)) {
      (void)entry;
      ++segments;
    }
    EXPECT_EQ(segments, 1u);
  }
}

/// Only ENOENT means "fresh database". Any other failure to open the
/// checkpoint meta (here ELOOP via a self-referencing symlink, which
/// defeats even root) must fail recovery instead of silently replaying
/// a bare WAL against an empty base.
TEST(RecoveryMetaTest, UnreadableMetaFailsOpenInsteadOfLookingFresh) {
  const std::string dir = FreshDir("meta_unreadable");
  fs::create_directories(dir);
  fs::create_symlink("meta", dir + "/meta");
  auto opened = Database::Open(DatabaseOptions::WithPath(dir));
  ASSERT_FALSE(opened.ok())
      << "an unreadable checkpoint meta was treated as a fresh database";
  EXPECT_EQ(opened.status().code(), StatusCode::kIOError);
  EXPECT_NE(opened.status().ToString().find("meta"), std::string::npos)
      << opened.status().ToString();
}

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteWholeFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

/// Rewrites the v4 checkpoint meta in `dir`, whose open-txn section is
/// empty, as the file an older build would have left: `version` in the
/// header, every allocated slot's sum the byte-wise FNV-1a of its pages.db
/// image when `version` is below 3, the open-txn section replaced by
/// `open_txns`, and last the FNV-1a sum of everything before it instead
/// of PageStore::Checksum. v2 to v4 share the rest of the layout: magic,
/// version, page size, checkpoint lsn, next txn id, the slot count, then
/// per slot a type byte and a 64-bit sum, then the free list and catalog
/// blob. v2 and v3 lay the open-txn section out as a txn count, then per
/// txn its id, its hint count and each SQL hint length-prefixed. Reports
/// the allocated slots in `allocated`.
void RewriteMetaAs(const std::string& dir, uint32_t version,
                   const std::string& open_txns,
                   std::vector<size_t>* allocated) {
  std::string meta = ReadWholeFile(dir + "/meta");
  const std::string pages = ReadWholeFile(dir + "/pages.db");
  ASSERT_GE(meta.size(), 52u);
  uint32_t old_version = 0;
  std::memcpy(&old_version, meta.data() + 4, 4);
  ASSERT_EQ(old_version, 4u);
  std::memcpy(meta.data() + 4, &version, 4);
  ASSERT_EQ(meta.substr(meta.size() - 16, 8), std::string(8, '\0'))
      << "the checkpoint carried an open transaction";
  meta.resize(meta.size() - 16);
  meta += open_txns;
  meta.append(8, '\0');
  uint64_t slots = 0;
  std::memcpy(&slots, meta.data() + 28, 8);
  size_t pos = 36;
  for (uint64_t i = 0; i < slots; ++i, pos += 9) {
    ASSERT_LE(pos + 9, meta.size() - 8);
    if (meta[pos] == static_cast<char>(PageType::kFree)) continue;
    allocated->push_back(i);
    if (version >= 3) continue;
    ASSERT_LE((i + 1) * kDefaultPageSize, pages.size());
    const uint64_t sum = WalChecksum(pages.data() + i * kDefaultPageSize,
                                     kDefaultPageSize, kFnv1aBasis);
    std::memcpy(meta.data() + pos + 1, &sum, 8);
  }
  ASSERT_FALSE(allocated->empty());
  const uint64_t meta_sum =
      WalChecksum(meta.data(), meta.size() - 8, kFnv1aBasis);
  std::memcpy(meta.data() + meta.size() - 8, &meta_sum, 8);
  WriteWholeFile(dir + "/meta", meta);
}

/// A checkpointed table of 300 rows, for the meta-format tests.
void CheckpointThreeHundredRows(const std::string& dir) {
  auto opened = Database::Open(DatabaseOptions::WithPath(dir));
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<Database> db = std::move(*opened);
  Schema schema;
  schema.AddColumn(Column{"id", TypeId::kInt64, true});
  schema.AddColumn(Column{"name", TypeId::kString, false});
  ASSERT_TRUE(db->CreateTable("t", schema).ok());
  ASSERT_TRUE(db->CreateIndex("t", "ux_t_id", {"id"}, /*unique=*/true).ok());
  for (int64_t i = 0; i < 300; ++i) {
    ASSERT_TRUE(
        db->InsertRow("t", {Value::Int64(i),
                            Value::String("row " + std::to_string(i))})
            .ok());
  }
  ASSERT_TRUE(db->Checkpoint().ok());
}

/// The 300 rows are all there with their ids.
void ExpectThreeHundredRows(Database* db) {
  auto rows = db->Query("SELECT COUNT(*), SUM(id) FROM t");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->rows[0][0].AsInt64(), 300);
  EXPECT_EQ(rows->rows[0][1].AsInt64(), 299 * 300 / 2);
}

/// Checkpoint meta v1 and v2 hold byte-wise FNV-1a page sums; v3 and v4
/// hold PageStore::Checksum sums. A database checkpointed under v2 still
/// opens, and its untouched pages are still verified: a corrupted one is
/// kDataLoss, not silently loaded.
TEST(RecoveryMetaTest, V2MetaWithFnvPageSumsRecoversAndStillVerifies) {
  const std::string dir = FreshDir("meta_v2");
  const std::string corrupt_dir = FreshDir("meta_v2_corrupt");
  CheckpointThreeHundredRows(dir);
  if (::testing::Test::HasFatalFailure()) return;
  std::vector<size_t> allocated;
  RewriteMetaAs(dir, 2, std::string(8, '\0'), &allocated);
  if (::testing::Test::HasFatalFailure()) return;
  fs::remove_all(corrupt_dir);
  fs::copy(dir, corrupt_dir, fs::copy_options::recursive);

  {
    auto opened = Database::Open(DatabaseOptions::WithPath(dir));
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    ExpectThreeHundredRows(opened->get());
  }

  // Flip one byte of an allocated page in pages.db. The checkpoint left
  // the log empty, so replay does not touch the page.
  std::string pages = ReadWholeFile(corrupt_dir + "/pages.db");
  pages[allocated.back() * kDefaultPageSize + kDefaultPageSize / 2] ^= 0x10;
  WriteWholeFile(corrupt_dir + "/pages.db", pages);
  auto opened = Database::Open(DatabaseOptions::WithPath(corrupt_dir));
  ASSERT_FALSE(opened.ok()) << "a corrupted page under a v2 meta loaded";
  EXPECT_EQ(opened.status().code(), StatusCode::kDataLoss)
      << opened.status().ToString();
}

/// v2 and v3 files kept open transactions as SQL undo hints, which this
/// build no longer replays: it undoes by row image. A v3 meta with an
/// empty open-txn section still loads. One that carries a hint fails Open
/// with kFailedPrecondition and leaves every file as it was, so an older
/// build can still recover it.
TEST(RecoveryMetaTest, V3MetaWithSqlUndoHintsFailsOpenAndStaysOnDisk) {
  const std::string clean_dir = FreshDir("meta_v3_clean");
  CheckpointThreeHundredRows(clean_dir);
  if (::testing::Test::HasFatalFailure()) return;
  const std::string dir = FreshDir("meta_v3_hints");
  fs::remove_all(dir);
  fs::copy(clean_dir, dir, fs::copy_options::recursive);

  std::vector<size_t> allocated;
  RewriteMetaAs(clean_dir, 3, std::string(8, '\0'), &allocated);
  if (::testing::Test::HasFatalFailure()) return;
  {
    auto opened = Database::Open(DatabaseOptions::WithPath(clean_dir));
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    ExpectThreeHundredRows(opened->get());
  }

  // One open transaction (id 7) with one compensation hint.
  const std::string hint = "DELETE FROM t WHERE id = 3";
  std::string open_txns;
  auto put = [&open_txns](uint64_t v) {
    open_txns.append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  put(1);
  put(7);
  put(1);
  put(hint.size());
  open_txns += hint;
  allocated.clear();
  RewriteMetaAs(dir, 3, open_txns, &allocated);
  if (::testing::Test::HasFatalFailure()) return;
  std::map<std::string, std::string> files;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) {
      files[entry.path().string()] = ReadWholeFile(entry.path().string());
    }
  }
  ASSERT_GE(files.size(), 2u);

  auto opened = Database::Open(DatabaseOptions::WithPath(dir));
  ASSERT_FALSE(opened.ok()) << "a meta with SQL undo hints was recovered";
  EXPECT_EQ(opened.status().code(), StatusCode::kFailedPrecondition)
      << opened.status().ToString();
  EXPECT_NE(opened.status().ToString().find("hint"), std::string::npos)
      << opened.status().ToString();
  std::map<std::string, std::string> after;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) {
      after[entry.path().string()] = ReadWholeFile(entry.path().string());
    }
  }
  EXPECT_TRUE(after == files) << "recovery changed a file it refused";
}

/// Recovery undoes an open transaction one row image at a time, newest
/// first. Undoing a key-shifting UPDATE under a unique index passes
/// through states where two rows share a key; the revert checks no
/// unique index, so the database reopens with every row restored.
TEST(RecoveryUniqueKeyTest, OpenKeyShiftUnderAUniqueIndexIsUndone) {
  const std::string dir = FreshDir("unique_shift");
  {
    auto opened = Database::Open(DatabaseOptions::WithPath(dir));
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    std::unique_ptr<Database> db = std::move(*opened);
    ASSERT_TRUE(db->Execute("CREATE TABLE t (a INT, b VARCHAR)").ok());
    ASSERT_TRUE(db->Execute("CREATE UNIQUE INDEX ux_t_a ON t (a)").ok());
    ASSERT_TRUE(db->Execute("INSERT INTO t VALUES (1, 'a'), (2, 'b'), "
                            "(3, 'c'), (4, 'd'), (5, 'e')")
                    .ok());
    Session session = db->OpenSession();
    ASSERT_TRUE(session.Begin().ok());
    auto n = session.Execute("UPDATE t SET a = a + 1");
    ASSERT_TRUE(n.ok()) << n.status().ToString();
    // Kill the durability layer at the COMMIT record: recovery must undo
    // the transaction from its undo records.
    FaultInjector injector(7);
    FaultSpec spec;
    spec.probability = 1.0;
    spec.max_fires = 1;
    injector.Arm(FaultPoint::kCrash, spec);
    db->page_store()->set_fault_injector(&injector);
    EXPECT_FALSE(session.Commit().ok());
    EXPECT_TRUE(db->durability()->frozen());
    db->page_store()->set_fault_injector(nullptr);
  }
  auto reopened = Database::Open(DatabaseOptions::WithPath(dir));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto rows = (*reopened)->Query("SELECT a, b FROM t ORDER BY b");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  std::vector<std::string> got;
  for (const Row& row : rows->rows) {
    got.push_back(row[0].ToString() + ":" + row[1].ToString());
  }
  EXPECT_EQ(got, (std::vector<std::string>{"1:a", "2:b", "3:c", "4:d",
                                           "5:e"}));
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
