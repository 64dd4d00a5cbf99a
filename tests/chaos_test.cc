#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "analysis/lockdep.h"
#include "analysis/verifier.h"
#include "common/deadline.h"
#include "common/fault.h"
#include "common/rng.h"
#include "core/tenant_session.h"
#include "mapping_test_util.h"

namespace mtdb {
namespace mapping {
namespace {

/// Chaos harness: a randomized logical workload runs over every layout
/// while a seeded FaultInjector throws bounded bursts of I/O errors,
/// torn writes, bit flips and latency spikes at the page store. A shadow
/// model applies exactly the statements that reported success; at every
/// checkpoint (injection paused) the layout's full logical contents must
/// equal the shadow — i.e. failed statements left no trace (statement
/// atomicity) and successful ones lost nothing (durable retries).
class ChaosTest
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

TEST_P(ChaosTest, FaultScheduleLeavesNoPartialStatements) {
  const LayoutKind kind = std::get<0>(GetParam());
  const uint64_t seed = std::get<1>(GetParam());

  // MTDB_CHAOS_DEADLINE_MS=<n> additionally installs an n-millisecond
  // deadline on every workload statement, so the run exercises the
  // cooperative-cancellation paths (and their rollbacks) on top of the
  // fault schedule. Statements cancelled by their deadline count as
  // failed: the shadow model already demands they leave no trace.
  const char* dl_env = std::getenv("MTDB_CHAOS_DEADLINE_MS");
  const int64_t deadline_ms = dl_env != nullptr ? std::atoll(dl_env) : 0;

  AppSchema app = FigureFourSchema();
  // Chaos exercises statement atomicity, not containment: push the
  // breaker threshold out of reach so faulted tenants keep serving.
  DatabaseOptions dopts;
  dopts.breaker_threshold = 1'000'000;
  Database db(dopts);
  std::unique_ptr<SchemaMapping> layout = MakeLayout(kind, &db, &app);
  ASSERT_TRUE(layout->Bootstrap().ok());

  constexpr TenantId kTenants = 3;
  for (TenantId t = 0; t < kTenants; ++t) {
    ASSERT_TRUE(layout->CreateTenant(t).ok());
  }
  // Tenant 0 runs extended (4 logical columns) where the layout supports
  // extensibility; Basic does not — the paper's point — and stays at 2.
  const bool extended = layout->EnableExtension(0, "healthcare").ok();

  FaultInjector injector(seed);
  db.page_store()->set_fault_injector(&injector);
  // Shrink the pool after setup DDL so the workload actually performs
  // physical I/O (and therefore meets the injector) instead of running
  // entirely out of cache.
  db.buffer_pool()->SetCapacity(8);

  Rng rng(seed * 7919 + 17);
  const size_t width = [&](TenantId t) {
    return t == 0 && extended ? 4u : 2u;
  }(0);
  auto columns_of = [&](TenantId t) -> size_t {
    return (t == 0 && extended) ? 4u : 2u;
  };
  (void)width;

  ShadowTable shadow[kTenants];
  int64_t next_aid = 1;

  // Re-arms one random fault point with a bounded burst. Bursts are
  // finite (max_fires) so retry loops and compensations always drain
  // them — the workload keeps converging instead of wedging.
  auto rearm = [&]() {
    // Lazy DDL inside a layout recharges the pool; pin it small again so
    // the workload keeps hitting the page store. Flushing the cache here
    // also forces write traffic (and cold re-reads) through the injector
    // even when the working set would otherwise fit in memory.
    db.buffer_pool()->SetCapacity(8);
    (void)db.buffer_pool()->EvictAll();
    injector.DisarmAll();
    FaultSpec spec;
    spec.probability = 0.1 + 0.1 * static_cast<double>(rng.Uniform(0, 4));
    spec.skip = static_cast<uint64_t>(rng.Uniform(0, 3));
    spec.max_fires = static_cast<uint64_t>(rng.Uniform(1, 6));
    FaultPoint point = FaultPoint::kPageRead;
    switch (rng.Uniform(0, 4)) {
      case 0:
        point = FaultPoint::kPageRead;
        break;
      case 1:
        point = FaultPoint::kPageWrite;
        break;
      case 2:
        point = FaultPoint::kTornWrite;
        spec.silent = false;  // detected at write time; retries repair
        break;
      case 3:
        point = FaultPoint::kBitFlip;
        break;
      default:
        point = FaultPoint::kLatencySpike;
        spec.latency_ns = 10 * 1000;
        break;
    }
    injector.Arm(point, spec);
  };

  // Full-content checkpoint with injection paused: the layout must agree
  // with the shadow model row for row, column for column.
  auto checkpoint = [&](const char* when) {
    FaultInjectorPause pause(&injector);
    // Verification reads must never be cancelled by the workload's
    // per-statement deadline.
    deadline::Scope no_deadline(deadline::Deadline::None());
    for (TenantId t = 0; t < kTenants; ++t) {
      auto r = layout->Query(t, "SELECT * FROM account ORDER BY aid");
      ASSERT_TRUE(r.ok()) << when << " tenant " << t << ": "
                          << r.status().ToString();
      ASSERT_EQ(r->rows.size(), shadow[t].size())
          << when << " tenant " << t << ": row count diverged (torn or "
          << "partial statement)";
      size_t i = 0;
      for (const auto& [aid, expected] : shadow[t]) {
        const Row& got = r->rows[i++];
        ASSERT_EQ(got.size(), expected.size()) << when << " tenant " << t;
        for (size_t c = 0; c < expected.size(); ++c) {
          ASSERT_EQ(got[c].Compare(expected[c]), 0)
              << when << " tenant " << t << " aid " << aid << " col " << c
              << ": got " << FormatRow(got) << " want "
              << FormatRow(expected);
        }
      }
    }
  };

  rearm();
  constexpr int kOps = 160;
  for (int op = 0; op < kOps; ++op) {
    if (op % 8 == 0) rearm();
    deadline::Scope op_deadline(deadline_ms > 0
                                    ? deadline::Deadline::AfterMillis(deadline_ms)
                                    : deadline::Deadline::None());
    TenantId t = static_cast<TenantId>(rng.Uniform(0, kTenants - 1));
    const size_t cols = columns_of(t);
    const int action = static_cast<int>(rng.Uniform(0, 9));

    if (action < 3) {  // single-row INSERT
      int64_t aid = next_aid++;
      std::vector<Value> row{Value::Int64(aid), Value::String(rng.Word(3, 8)),
                             Value::Null(TypeId::kString),
                             Value::Null(TypeId::kInt32)};
      Result<int64_t> r =
          cols == 4
              ? layout->Execute(
                    t,
                    "INSERT INTO account (aid, name, hospital, beds) VALUES "
                    "(?, ?, ?, ?)",
                    {row[0], row[1],
                     (row[2] = Value::String(rng.Word(4, 10)), row[2]),
                     (row[3] = Value::Int32(static_cast<int32_t>(
                          rng.Uniform(1, 2000))),
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
      Result<int64_t> r = layout->Execute(
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
      Result<int64_t> r =
          layout->Execute(t, "UPDATE account SET name = ? WHERE aid = ?",
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
      Result<int64_t> r =
          layout->Execute(t, "UPDATE account SET beds = ? WHERE aid = ?",
                          {Value::Int32(beds), Value::Int64(it->first)});
      if (r.ok()) {
        EXPECT_EQ(*r, 1);
        it->second[3] = Value::Int32(beds);
      }
    } else if (action == 7 && !shadow[t].empty()) {  // DELETE one row
      auto it = shadow[t].begin();
      std::advance(it, static_cast<ptrdiff_t>(rng.Uniform(
                           0, static_cast<int64_t>(shadow[t].size()) - 1)));
      Result<int64_t> r =
          layout->Execute(t, "DELETE FROM account WHERE aid = ?",
                          {Value::Int64(it->first)});
      if (r.ok()) {
        EXPECT_EQ(*r, 1);
        shadow[t].erase(it);
      }
    } else {  // COUNT under fire: success must mean a correct answer
      auto r = layout->Query(t, "SELECT COUNT(*) FROM account");
      if (r.ok()) {
        ASSERT_EQ(r->rows.size(), 1u);
        EXPECT_EQ(r->rows[0][0].AsInt64(),
                  static_cast<int64_t>(shadow[t].size()))
            << "tenant " << t << ": successful read returned stale/torn data";
      }
    }

    if (op % 20 == 19) checkpoint("mid-run checkpoint");
  }

  checkpoint("final checkpoint");

  // The storage tier must have actually been under fire, or the run
  // proved nothing.
  IoFaultCountersSnapshot faults = db.Stats().io_faults;
  EXPECT_GT(faults.read_faults + faults.write_faults + faults.latency_spikes,
            0u)
      << "fault schedule never fired; chaos run was vacuous";

  // Structural audit: the mapping layer itself must come out clean.
  {
    FaultInjectorPause pause(&injector);
    analysis::Verifier verifier(layout.get());
    auto diagnostics = verifier.Run();
    ASSERT_TRUE(diagnostics.ok()) << diagnostics.status().ToString();
    EXPECT_FALSE(analysis::HasErrors(*diagnostics))
        << analysis::FormatDiagnostics(*diagnostics);
  }
  db.page_store()->set_fault_injector(nullptr);
}

INSTANTIATE_TEST_SUITE_P(
    LayoutsAndSeeds, ChaosTest,
    ::testing::Combine(
        ::testing::Values(LayoutKind::kBasic, LayoutKind::kPrivate,
                          LayoutKind::kExtension, LayoutKind::kUniversal,
                          LayoutKind::kPivot, LayoutKind::kChunk,
                          LayoutKind::kVertical, LayoutKind::kChunkFolding),
        ::testing::Values(1u, 2u, 3u, 4u, 5u)),
    [](const ::testing::TestParamInfo<ChaosTest::ParamType>& info) {
      return std::string(LayoutKindName(std::get<0>(info.param))) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

/// Transactional bursts under fire: the workload above, but a share of
/// the mutations run as multi-statement client transactions through
/// TenantSession. Statements inside the bracket take the full fault
/// schedule; a failed statement must poison the bracket (subsequent
/// statements rejected with kFailedPrecondition) and ROLLBACK must
/// restore the pre-transaction state exactly. COMMIT/ROLLBACK replay
/// runs with injection paused: a commit ack or a completed rollback is
/// an exact promise, while fault-killed brackets are the recovery
/// sweep's business, not this test's.
class ChaosTxnTest
    : public ::testing::TestWithParam<std::tuple<LayoutKind, uint64_t>> {};

TEST_P(ChaosTxnTest, TransactionalBurstsKeepTheBracketAtomic) {
  const LayoutKind kind = std::get<0>(GetParam());
  const uint64_t seed = std::get<1>(GetParam());

  AppSchema app = FigureFourSchema();
  DatabaseOptions dopts;
  dopts.breaker_threshold = 1'000'000;
  Database db(dopts);
  std::unique_ptr<SchemaMapping> layout = MakeLayout(kind, &db, &app);
  ASSERT_TRUE(layout->Bootstrap().ok());

  constexpr TenantId kTenants = 2;
  for (TenantId t = 0; t < kTenants; ++t) {
    ASSERT_TRUE(layout->CreateTenant(t).ok());
  }

  FaultInjector injector(seed);
  db.page_store()->set_fault_injector(&injector);
  db.buffer_pool()->SetCapacity(8);

  Rng rng(seed * 6131 + 5);
  ShadowTable shadow[kTenants];
  int64_t next_aid = 1;
  int poisoned_rollbacks = 0;
  int commits = 0;

  auto rearm = [&]() {
    db.buffer_pool()->SetCapacity(8);
    (void)db.buffer_pool()->EvictAll();
    injector.DisarmAll();
    FaultSpec spec;
    spec.probability = 0.1 + 0.1 * static_cast<double>(rng.Uniform(0, 4));
    spec.skip = static_cast<uint64_t>(rng.Uniform(0, 3));
    spec.max_fires = static_cast<uint64_t>(rng.Uniform(1, 6));
    injector.Arm(rng.Bernoulli(0.5) ? FaultPoint::kPageRead
                                    : FaultPoint::kPageWrite,
                 spec);
  };

  auto checkpoint = [&](const char* when) {
    FaultInjectorPause pause(&injector);
    for (TenantId t = 0; t < kTenants; ++t) {
      auto r = layout->Query(t, "SELECT * FROM account ORDER BY aid");
      ASSERT_TRUE(r.ok()) << when << " tenant " << t << ": "
                          << r.status().ToString();
      ASSERT_EQ(r->rows.size(), shadow[t].size()) << when << " tenant " << t;
      size_t i = 0;
      for (const auto& [aid, expected] : shadow[t]) {
        const Row& got = r->rows[i++];
        ASSERT_EQ(got.size(), expected.size()) << when << " tenant " << t;
        for (size_t c = 0; c < expected.size(); ++c) {
          ASSERT_EQ(got[c].Compare(expected[c]), 0)
              << when << " tenant " << t << " aid " << aid << " col " << c
              << ": got " << FormatRow(got) << " want "
              << FormatRow(expected);
        }
      }
    }
  };

  rearm();
  constexpr int kBursts = 48;
  for (int burst = 0; burst < kBursts; ++burst) {
    if (burst % 4 == 0) rearm();
    TenantId t = static_cast<TenantId>(rng.Uniform(0, kTenants - 1));

    if (rng.Bernoulli(0.3)) {  // autocommit statement between brackets
      int64_t aid = next_aid++;
      std::string name = rng.Word(3, 8);
      auto r = layout->Execute(
          t, "INSERT INTO account (aid, name) VALUES (?, ?)",
          {Value::Int64(aid), Value::String(name)});
      if (r.ok()) {
        shadow[t].emplace(aid, std::vector<Value>{Value::Int64(aid),
                                                  Value::String(name)});
      }
      continue;
    }

    TenantSession session = layout->OpenSession(t);
    {
      FaultInjectorPause pause(&injector);
      ASSERT_TRUE(session.Begin().ok());
    }
    ShadowTable pending = shadow[t];
    bool poisoned = false;
    const int stmts = static_cast<int>(rng.Uniform(1, 4));
    for (int s = 0; s < stmts; ++s) {
      const int action = static_cast<int>(rng.Uniform(0, 3));
      Result<int64_t> r = 0;
      if (action == 0 || pending.empty()) {
        int64_t aid = next_aid++;
        std::string name = rng.Word(3, 8);
        r = session.Execute("INSERT INTO account (aid, name) VALUES (?, ?)",
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
        poisoned = true;
        // A poisoned bracket rejects everything but ROLLBACK.
        auto blocked = session.Execute("SELECT COUNT(*) FROM account");
        ASSERT_FALSE(blocked.ok());
        EXPECT_EQ(blocked.status().code(), StatusCode::kFailedPrecondition)
            << blocked.status().ToString();
        break;
      }
    }

    FaultInjectorPause pause(&injector);
    if (poisoned) {
      Status rb = session.Rollback();
      ASSERT_TRUE(rb.ok()) << rb.ToString();
      ++poisoned_rollbacks;
      // pending discarded: the bracket left no trace.
    } else if (rng.Bernoulli(0.7)) {
      Status ct = session.Commit();
      ASSERT_TRUE(ct.ok()) << ct.ToString();
      shadow[t] = std::move(pending);
      ++commits;
    } else {
      Status rb = session.Rollback();
      ASSERT_TRUE(rb.ok()) << rb.ToString();
    }

    if (burst % 8 == 7) checkpoint("mid-run checkpoint");
  }

  checkpoint("final checkpoint");
  EXPECT_GT(commits, 0) << "no bracket committed; run was vacuous";

  IoFaultCountersSnapshot faults = db.Stats().io_faults;
  EXPECT_GT(faults.read_faults + faults.write_faults, 0u)
      << "fault schedule never fired; transactional chaos run was vacuous";
  // Poisoned brackets are fault-schedule-dependent; when at least one
  // happened the rejection path above was exercised too.
  (void)poisoned_rollbacks;

  {
    FaultInjectorPause pause(&injector);
    analysis::Verifier verifier(layout.get());
    auto diagnostics = verifier.Run();
    ASSERT_TRUE(diagnostics.ok()) << diagnostics.status().ToString();
    EXPECT_FALSE(analysis::HasErrors(*diagnostics))
        << analysis::FormatDiagnostics(*diagnostics);
  }
  db.page_store()->set_fault_injector(nullptr);
}

INSTANTIATE_TEST_SUITE_P(
    LayoutsAndSeeds, ChaosTxnTest,
    ::testing::Combine(
        ::testing::Values(LayoutKind::kBasic, LayoutKind::kPrivate,
                          LayoutKind::kExtension, LayoutKind::kUniversal,
                          LayoutKind::kPivot, LayoutKind::kChunk,
                          LayoutKind::kVertical, LayoutKind::kChunkFolding),
        ::testing::Values(1u, 2u, 3u)),
    [](const ::testing::TestParamInfo<ChaosTxnTest::ParamType>& info) {
      return std::string(LayoutKindName(std::get<0>(info.param))) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

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
