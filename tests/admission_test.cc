// Tests for per-tenant admission control (src/engine/admission.{h,cc}),
// statement deadlines (src/common/deadline.h + the cooperative
// cancellation points threaded through the executor, B-tree, buffer
// pool and mapping layer), and the circuit-breaker quarantine
// (src/common/breaker.{h,cc} wired into SchemaMapping).
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/verifier.h"
#include "common/breaker.h"
#include "common/deadline.h"
#include "common/fault.h"
#include "core/tenant_session.h"
#include "engine/admission.h"
#include "engine/database.h"
#include "engine/session.h"
#include "mapping_test_util.h"
#include "storage/buffer_pool.h"
#include "storage/page_store.h"

namespace mtdb {
namespace {

void AuditClean(mapping::SchemaMapping* layout, const char* when) {
  analysis::Verifier verifier(layout);
  auto diagnostics = verifier.Run();
  ASSERT_TRUE(diagnostics.ok()) << when << ": "
                                << diagnostics.status().ToString();
  EXPECT_FALSE(analysis::HasErrors(*diagnostics))
      << when << ": " << analysis::FormatDiagnostics(*diagnostics);
}

// ------------------------------------------------------- token buckets

// An empty token bucket rejects immediately with kResourceExhausted and
// a parseable retry_after_ms hint; the rejection never executes the
// statement and other tenants' buckets are untouched.
TEST(AdmissionTest, TokenBucketExhaustionRejectsWithRetryHint) {
  DatabaseOptions dopts;
  dopts.admission.enabled = true;
  dopts.admission.tenant_rate = 0.1;  // ~10s per token: no refill mid-test
  dopts.admission.tenant_burst = 2.0;
  Database db(dopts);

  mapping::AppSchema app = mapping::FigureFourSchema();
  std::unique_ptr<mapping::SchemaMapping> layout =
      mapping::MakeLayout(mapping::LayoutKind::kBasic, &db, &app);
  ASSERT_TRUE(layout->Bootstrap().ok());
  ASSERT_TRUE(layout->CreateTenant(1).ok());
  ASSERT_TRUE(layout->CreateTenant(2).ok());
  // Setup above goes through the layout's internal (unadmitted) path;
  // only the session front doors spend tokens.
  ASSERT_TRUE(layout
                  ->Execute(1, "INSERT INTO account (aid, name) VALUES (?, ?)",
                            {Value::Int64(1), Value::String("alpha")})
                  .ok());

  mapping::TenantSession session = layout->OpenSession(1);
  ASSERT_TRUE(session.Query("SELECT * FROM account").ok());  // burst 1
  ASSERT_TRUE(session.Query("SELECT * FROM account").ok());  // burst 2
  auto r = session.Query("SELECT * FROM account");           // bucket empty
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_GT(AdmissionController::RetryAfterMs(r.status()), 0)
      << r.status().ToString();
  EXPECT_GE(
      db.metrics_registry()->GetCounter("admission.rejected.t1")->value(), 1u);

  // The blast radius is one bucket: tenant 2 still has its full burst.
  mapping::TenantSession other = layout->OpenSession(2);
  EXPECT_TRUE(other.Query("SELECT * FROM account").ok());

  // Raw engine sessions are admitted too, under the reserved engine
  // tenant (-1) with a bucket of their own. (Database::Execute bypasses
  // the session front door, so this setup spends no tokens.)
  ASSERT_TRUE(db.Execute("CREATE TABLE raw_t (a INT)").ok());
  Session raw = db.OpenSession();
  ASSERT_TRUE(raw.Execute("SELECT a FROM raw_t").ok());
  ASSERT_TRUE(raw.Execute("SELECT a FROM raw_t").ok());
  auto engine_r = raw.Execute("SELECT a FROM raw_t");
  ASSERT_FALSE(engine_r.ok());
  EXPECT_EQ(engine_r.status().code(), StatusCode::kResourceExhausted);
}

// A full wait queue also rejects rather than parking unboundedly.
TEST(AdmissionTest, FullQueueRejectsWithRetryHint) {
  AdmissionOptions opts;
  opts.enabled = true;
  opts.max_in_flight = 1;
  opts.max_queue = 0;  // no parking at all
  MetricsRegistry registry;
  AdmissionController ctrl(opts, &registry);

  AdmissionTicket first;
  ASSERT_TRUE(ctrl.Admit(1, deadline::Deadline::None(), &first).ok());
  EXPECT_EQ(ctrl.in_flight(), 1u);

  AdmissionTicket second;
  Status st = ctrl.Admit(2, deadline::Deadline::None(), &second);
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  EXPECT_GT(AdmissionController::RetryAfterMs(st), 0) << st.ToString();

  first.Release();
  EXPECT_EQ(ctrl.in_flight(), 0u);
  // With the slot free the next admit sails through.
  ASSERT_TRUE(ctrl.Admit(2, deadline::Deadline::None(), &second).ok());
}

// Re-admitting with a ticket that still holds a slot releases that slot
// before the controller latch is taken: regression for a self-deadlock
// when Admit() called ticket->Release() while holding mu_.
TEST(AdmissionTest, ReadmittingAHeldTicketReleasesItsSlotFirst) {
  AdmissionOptions opts;
  opts.enabled = true;
  opts.max_in_flight = 1;
  MetricsRegistry registry;
  AdmissionController ctrl(opts, &registry);

  AdmissionTicket ticket;
  ASSERT_TRUE(ctrl.Admit(1, deadline::Deadline::None(), &ticket).ok());
  EXPECT_EQ(ctrl.in_flight(), 1u);
  // The held slot is the only one; this would park (or deadlock) if the
  // incoming ticket weren't released up front.
  ASSERT_TRUE(ctrl.Admit(1, deadline::Deadline::None(), &ticket).ok());
  EXPECT_EQ(ctrl.in_flight(), 1u);
  ticket.Release();
  EXPECT_EQ(ctrl.in_flight(), 0u);
}

// A statement whose deadline passes while parked abandons the queue and
// reports kDeadlineExceeded without ever executing.
TEST(AdmissionTest, QueuedStatementAbandonsOnDeadline) {
  AdmissionOptions opts;
  opts.enabled = true;
  opts.max_in_flight = 1;
  opts.max_queue = 8;
  MetricsRegistry registry;
  AdmissionController ctrl(opts, &registry);

  AdmissionTicket holder;
  ASSERT_TRUE(ctrl.Admit(1, deadline::Deadline::None(), &holder).ok());

  AdmissionTicket parked;
  Status st =
      ctrl.Admit(2, deadline::Deadline::AfterMillis(30), &parked);
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded) << st.ToString();
  EXPECT_FALSE(parked.admitted());
  EXPECT_EQ(ctrl.queue_depth(), 0u) << "abandoned waiter left in queue";
  holder.Release();
  EXPECT_EQ(ctrl.in_flight(), 0u);
}

// ----------------------------------------------------------- fairness

// Weighted round-robin across tenants: six threads of one noisy tenant
// keep the in-flight slots and the queue saturated while a well-behaved
// tenant issues statements with a generous deadline. Starvation would
// surface as kDeadlineExceeded; fairness means every one of the
// well-behaved statements is served.
TEST(AdmissionTest, NoisyTenantCannotStarveWellBehavedTenant) {
  DatabaseOptions dopts;
  dopts.admission.enabled = true;
  dopts.admission.max_in_flight = 2;
  dopts.admission.max_queue = 64;
  Database db(dopts);

  mapping::AppSchema app = mapping::FigureFourSchema();
  std::unique_ptr<mapping::SchemaMapping> layout =
      mapping::MakeLayout(mapping::LayoutKind::kBasic, &db, &app);
  ASSERT_TRUE(layout->Bootstrap().ok());
  ASSERT_TRUE(layout->CreateTenant(0).ok());
  ASSERT_TRUE(layout->CreateTenant(1).ok());
  for (TenantId t = 0; t < 2; ++t) {
    mapping::TenantSession seed = layout->OpenSession(t);
    for (int i = 0; i < 400; ++i) {
      ASSERT_TRUE(seed.InsertRow("account", {Value::Int64(i),
                                             Value::String(std::string(64, 'x'))})
                      .ok());
    }
  }

  // In-memory point reads finish in microseconds — too fast for six
  // threads to ever collide on a cap of two. A pool smaller than one
  // tenant's table plus simulated device latency makes every statement
  // miss-bound so the queue is genuinely contended.
  db.buffer_pool()->SetCapacity(4);
  db.page_store()->set_read_latency_ns(200'000);

  constexpr int kNoisyThreads = 6;
  constexpr int kNoisyStatements = 150;
  constexpr int kPoliteStatements = 15;
  std::vector<std::thread> noisy;
  for (int w = 0; w < kNoisyThreads; ++w) {
    noisy.emplace_back([&layout] {
      mapping::TenantSession s = layout->OpenSession(0);
      for (int i = 0; i < kNoisyStatements; ++i) {
        auto r = s.Query("SELECT * FROM account WHERE aid >= 0");
        // Unbounded-deadline statements park rather than fail.
        ASSERT_TRUE(r.ok()) << r.status().ToString();
      }
    });
  }

  mapping::TenantSession polite = layout->OpenSession(1);
  for (int i = 0; i < kPoliteStatements; ++i) {
    auto r = polite.Query("SELECT * FROM account WHERE aid >= 0", {},
                          deadline::Deadline::AfterMillis(2000));
    EXPECT_TRUE(r.ok()) << "statement " << i
                        << " starved: " << r.status().ToString();
  }
  for (std::thread& t : noisy) t.join();

  // The cap was actually contended (the test proved something) and all
  // slots drained back.
  EXPECT_GT(db.metrics_registry()->GetCounter("admission.queued.t0")->value(),
            0u);
  EXPECT_EQ(db.admission()->in_flight(), 0u);
  EXPECT_EQ(db.admission()->queue_depth(), 0u);
}

// ----------------------------------------------------------- deadlines

// A deadline expiring between the physical statements of one logical
// UPDATE must roll the applied half back: after every iteration the row
// reads as the full old or the full new image, never a mixture. The
// injector's latency spike walks through the statement's I/Os so the
// expiry lands at a different point each iteration. Deadline expiry is
// NOT a hard fault: the tenant's breaker must stay closed throughout.
TEST(DeadlineTest, MidStatementExpiryRollsBackAppliedWrites) {
  mapping::AppSchema app = mapping::FigureFourSchema();
  // Deliberately hair-trigger: if deadline expiry ever counted as a hard
  // fault the breaker would trip within one iteration.
  DatabaseOptions dopts;
  dopts.breaker_threshold = 2;
  Database db(dopts);
  std::unique_ptr<mapping::SchemaMapping> layout =
      mapping::MakeLayout(mapping::LayoutKind::kPivot, &db, &app);
  ASSERT_TRUE(layout->Bootstrap().ok());
  ASSERT_TRUE(layout->CreateTenant(1).ok());
  ASSERT_TRUE(layout->EnableExtension(1, "healthcare").ok());
  ASSERT_TRUE(layout
                  ->Execute(1,
                            "INSERT INTO account (aid, name, hospital, beds) "
                            "VALUES (?, ?, ?, ?)",
                            {Value::Int64(1), Value::String("init"),
                             Value::String("mercy"), Value::Int32(10)})
                  .ok());

  FaultInjector injector(23);
  db.page_store()->set_fault_injector(&injector);
  db.buffer_pool()->SetCapacity(4);  // physical I/O inside the statement

  mapping::TenantSession session = layout->OpenSession(1);
  std::string name = "init";
  int32_t beds = 10;
  int expired = 0, succeeded = 0;
  for (uint64_t skip = 0; skip < 40; ++skip) {
    FaultSpec spike;
    spike.probability = 1.0;
    spike.skip = skip;
    spike.max_fires = 1;
    spike.latency_ns = 120'000'000;  // one 120ms stall vs a 40ms budget
    injector.Arm(FaultPoint::kLatencySpike, spike);

    std::string new_name = "name" + std::to_string(skip);
    int32_t new_beds = static_cast<int32_t>(100 + skip);
    auto r = session.Execute(
        "UPDATE account SET name = ?, beds = ? WHERE aid = ?",
        {Value::String(new_name), Value::Int32(new_beds), Value::Int64(1)},
        deadline::Deadline::AfterMillis(40));
    if (r.ok()) {
      ++succeeded;
      name = new_name;
      beds = new_beds;
    } else {
      ASSERT_EQ(r.status().code(), StatusCode::kDeadlineExceeded)
          << "skip=" << skip << ": " << r.status().ToString();
      ++expired;
    }
    injector.DisarmAll();

    auto row = layout->Query(1, "SELECT * FROM account");
    ASSERT_TRUE(row.ok()) << "skip=" << skip << ": "
                          << row.status().ToString();
    ASSERT_EQ(row->rows.size(), 1u)
        << "skip=" << skip << " update=" << r.status().ToString();
    // Columns: aid, name, hospital, beds.
    EXPECT_EQ(row->rows[0][1].Compare(Value::String(name)), 0)
        << "skip=" << skip << ": partial statement visible";
    EXPECT_EQ(row->rows[0][3].Compare(Value::Int32(beds)), 0)
        << "skip=" << skip << ": partial statement visible";
  }
  // The sweep must have cancelled some statements and completed others,
  // or it proved nothing.
  EXPECT_GT(expired, 0);
  EXPECT_GT(succeeded, 0);
  EXPECT_GE(
      db.metrics_registry()->GetCounter("deadline.exceeded.t1")->value(),
      static_cast<uint64_t>(expired));
  // Cancellation is service, not a fault.
  EXPECT_EQ(layout->TenantBreakerState(1), BreakerState::kClosed);
  AuditClean(layout.get(), "after deadline sweep");
  db.page_store()->set_fault_injector(nullptr);
}

// An already-expired deadline cancels before any work happens.
TEST(DeadlineTest, ExpiredDeadlineCancelsUpFront) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE t (a INT)").ok());
  ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (1)").ok());
  Session session = db.OpenSession();
  auto r = session.Execute("SELECT a FROM t", {},
                           deadline::Deadline::AfterMillis(-5));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_GE(db.metrics_registry()->GetCounter("deadline.exceeded")->value(),
            1u);
  // The same statement without a deadline is untouched.
  EXPECT_TRUE(session.Execute("SELECT a FROM t").ok());
}

// A deadline that expires while the statement waits in the admission
// queue counts like any other expiry, through either front door: once
// engine-wide (deadline.exceeded) and once for the session's tenant
// (deadline.exceeded.t<id>; engine sessions run as tenant -1).
TEST(DeadlineTest, ExpiryWhileQueuedCountsForEveryFrontDoor) {
  DatabaseOptions dopts;
  dopts.admission.enabled = true;
  dopts.admission.max_in_flight = 1;
  Database db(dopts);
  ASSERT_TRUE(db.Execute("CREATE TABLE t (a INT)").ok());
  mapping::AppSchema app = mapping::FigureFourSchema();
  std::unique_ptr<mapping::SchemaMapping> layout =
      mapping::MakeLayout(mapping::LayoutKind::kBasic, &db, &app);
  ASSERT_TRUE(layout->Bootstrap().ok());
  ASSERT_TRUE(layout->CreateTenant(1).ok());

  // The one in-flight slot is taken: every statement queues.
  AdmissionTicket holder;
  ASSERT_TRUE(
      db.admission()->Admit(99, deadline::Deadline::None(), &holder).ok());
  auto counter = [&](const std::string& name) {
    return db.metrics_registry()->GetCounter(name)->value();
  };

  mapping::TenantSession tenant = layout->OpenSession(1);
  auto r = tenant.Query("SELECT * FROM account", {},
                        deadline::Deadline::AfterMillis(20));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(r.status().ToString().find("queued for admission"),
            std::string::npos)
      << r.status().ToString();
  EXPECT_EQ(counter("deadline.exceeded"), 1u);
  EXPECT_EQ(counter("deadline.exceeded.t1"), 1u);

  Session engine = db.OpenSession();
  auto e = engine.Query("SELECT a FROM t", {},
                        deadline::Deadline::AfterMillis(20));
  ASSERT_FALSE(e.ok());
  EXPECT_EQ(e.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(counter("deadline.exceeded"), 2u);
  EXPECT_EQ(counter("deadline.exceeded.t-1"), 1u);
}

// ------------------------------------------------------ circuit breaker

// The breaker's full lifecycle under a synthetic clock: deterministic
// down to the nanosecond, no sleeps.
TEST(CircuitBreakerTest, LifecycleUnderSyntheticClock) {
  CircuitBreaker b;
  CircuitBreaker::Options opts;
  opts.threshold = 2;
  opts.initial_backoff_ns = 100;
  opts.max_backoff_ns = 400;
  uint64_t now = 1'000;

  // Two consecutive hard faults trip it open.
  EXPECT_EQ(b.Admit(now, opts), CircuitBreaker::Decision::kAllow);
  EXPECT_EQ(b.OnResult(true, now, opts), CircuitBreaker::Transition::kNone);
  EXPECT_EQ(b.Admit(now, opts), CircuitBreaker::Decision::kAllow);
  EXPECT_EQ(b.OnResult(true, now, opts), CircuitBreaker::Transition::kOpened);
  EXPECT_EQ(b.state(), BreakerState::kOpen);
  EXPECT_EQ(b.trips(), 1u);

  // Open: rejects with the time left in the backoff window.
  uint64_t retry = 0;
  EXPECT_EQ(b.Admit(now + 60, opts, &retry),
            CircuitBreaker::Decision::kReject);
  EXPECT_EQ(retry, 40u);

  // Backoff elapsed: exactly one probe; concurrent arrivals bounce.
  EXPECT_EQ(b.Admit(now + 100, opts), CircuitBreaker::Decision::kAllowProbe);
  EXPECT_EQ(b.state(), BreakerState::kHalfOpen);
  EXPECT_EQ(b.Admit(now + 100, opts, &retry),
            CircuitBreaker::Decision::kReject);

  // Failed probe: re-opens with the backoff doubled.
  EXPECT_EQ(b.OnResult(true, now + 110, opts),
            CircuitBreaker::Transition::kOpened);
  EXPECT_EQ(b.Admit(now + 110 + 150, opts, &retry),
            CircuitBreaker::Decision::kReject);
  EXPECT_EQ(retry, 50u);  // 200ns window, 150 elapsed

  // Successful probe: closed, strike and backoff state cleared.
  EXPECT_EQ(b.Admit(now + 110 + 200, opts),
            CircuitBreaker::Decision::kAllowProbe);
  EXPECT_EQ(b.OnResult(false, now + 110 + 210, opts),
            CircuitBreaker::Transition::kClosed);
  EXPECT_EQ(b.state(), BreakerState::kClosed);
  EXPECT_EQ(b.open_until_ns(), 0u);

  // One success between faults resets the strike count: a single new
  // fault does not trip a threshold of two.
  EXPECT_EQ(b.OnResult(true, now + 500, opts),
            CircuitBreaker::Transition::kNone);
  EXPECT_EQ(b.OnResult(false, now + 500, opts),
            CircuitBreaker::Transition::kNone);
  EXPECT_EQ(b.OnResult(true, now + 500, opts),
            CircuitBreaker::Transition::kNone);
  EXPECT_EQ(b.state(), BreakerState::kClosed);
  EXPECT_EQ(b.trips(), 2u);
}

// A probe that aborts before producing an outcome hands the half-open
// slot back: regression for probe_in_flight_ leaking when the probe
// statement died early (parse error, outcome-less explain), which left
// the breaker rejecting the tenant forever.
TEST(CircuitBreakerTest, AbandonedProbeFreesTheHalfOpenSlot) {
  CircuitBreaker b;
  CircuitBreaker::Options opts;
  opts.threshold = 1;
  opts.initial_backoff_ns = 100;
  opts.max_backoff_ns = 100;
  uint64_t now = 1'000;

  b.AbandonProbe();  // no-op while closed
  EXPECT_EQ(b.state(), BreakerState::kClosed);

  EXPECT_EQ(b.Admit(now, opts), CircuitBreaker::Decision::kAllow);
  EXPECT_EQ(b.OnResult(true, now, opts), CircuitBreaker::Transition::kOpened);

  // The probe aborts: the slot frees, the breaker stays half-open, and
  // the NEXT arrival becomes the probe instead of bouncing forever.
  EXPECT_EQ(b.Admit(now + 100, opts), CircuitBreaker::Decision::kAllowProbe);
  b.AbandonProbe();
  EXPECT_EQ(b.state(), BreakerState::kHalfOpen);
  EXPECT_EQ(b.Admit(now + 101, opts), CircuitBreaker::Decision::kAllowProbe);
  EXPECT_EQ(b.OnResult(false, now + 102, opts),
            CircuitBreaker::Transition::kClosed);
  EXPECT_EQ(b.state(), BreakerState::kClosed);
}

// End to end through the mapping layer: a probe statement that dies
// parsing and an EXPLAIN MAPPING (which never reports an outcome) both
// hand the probe slot back, so the tenant still self-heals afterwards.
TEST(CircuitBreakerTest, AbortedProbeStatementsDoNotWedgeTheBreaker) {
  mapping::AppSchema app = mapping::FigureFourSchema();
  DatabaseOptions dopts;
  dopts.breaker_threshold = 1;
  dopts.breaker_backoff_initial_ms = 50;
  dopts.breaker_backoff_max_ms = 50;
  Database db(dopts);
  std::unique_ptr<mapping::SchemaMapping> layout =
      mapping::MakeLayout(mapping::LayoutKind::kBasic, &db, &app);
  ASSERT_TRUE(layout->Bootstrap().ok());
  ASSERT_TRUE(layout->CreateTenant(1).ok());
  ASSERT_TRUE(layout
                  ->Execute(1, "INSERT INTO account (aid, name) VALUES (?, ?)",
                            {Value::Int64(1), Value::String("alpha")})
                  .ok());

  FaultInjector injector(7);
  db.page_store()->set_fault_injector(&injector);
  FaultSpec spec;
  spec.probability = 1.0;
  injector.Arm(FaultPoint::kPageRead, spec);
  for (int i = 0;
       i < 4 && layout->TenantBreakerState(1) == BreakerState::kClosed;
       ++i) {
    ASSERT_TRUE(db.buffer_pool()->EvictAll().ok());
    EXPECT_FALSE(layout->Query(1, "SELECT * FROM account").ok());
  }
  ASSERT_EQ(layout->TenantBreakerState(1), BreakerState::kOpen);
  injector.DisarmAll();

  // Burn the probe slot with statements that never reach
  // NoteTenantOutcome. First a transform error (an unknown column aborts
  // right after winning the probe); kUnavailable means the backoff
  // window hadn't elapsed yet, so keep trying.
  bool burned_transform = false;
  for (int i = 0; i < 40 && !burned_transform; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    Status st = layout->Query(1, "SELECT nonsense FROM account").status();
    burned_transform = st.code() != StatusCode::kUnavailable;
  }
  ASSERT_TRUE(burned_transform);
  EXPECT_EQ(layout->TenantBreakerState(1), BreakerState::kHalfOpen);
  // Then an explain, which completes without feeding the breaker — it
  // must hand the slot straight back rather than consume it.
  EXPECT_TRUE(layout->ExplainMapping(1, "SELECT * FROM account", {}).ok());
  EXPECT_EQ(layout->TenantBreakerState(1), BreakerState::kHalfOpen);

  // The next valid statement takes the (returned) probe slot and closes
  // the breaker — before the fix it bounced off probe_in_flight_ forever.
  auto healed = layout->Query(1, "SELECT * FROM account");
  ASSERT_TRUE(healed.ok()) << healed.status().ToString();
  EXPECT_EQ(layout->TenantBreakerState(1), BreakerState::kClosed);
  EXPECT_GE(db.metrics_registry()->GetCounter("breaker.close.t1")->value(),
            1u);
  AuditClean(layout.get(), "after aborted probes");
  db.page_store()->set_fault_injector(nullptr);
}

// End to end through the mapping layer: repeated injected I/O faults
// open one tenant's breaker; once the device heals, the next probe after
// the backoff closes it again — no ClearQuarantine required.
TEST(CircuitBreakerTest, QuarantineSelfHealsAfterDeviceRecovers) {
  mapping::AppSchema app = mapping::FigureFourSchema();
  DatabaseOptions dopts;
  dopts.breaker_threshold = 2;
  dopts.breaker_backoff_initial_ms = 250;
  dopts.breaker_backoff_max_ms = 250;
  Database db(dopts);
  std::unique_ptr<mapping::SchemaMapping> layout =
      mapping::MakeLayout(mapping::LayoutKind::kBasic, &db, &app);
  ASSERT_TRUE(layout->Bootstrap().ok());
  ASSERT_TRUE(layout->CreateTenant(1).ok());
  ASSERT_TRUE(layout->CreateTenant(2).ok());
  ASSERT_TRUE(layout
                  ->Execute(1, "INSERT INTO account (aid, name) VALUES (?, ?)",
                            {Value::Int64(1), Value::String("alpha")})
                  .ok());

  FaultInjector injector(7);
  db.page_store()->set_fault_injector(&injector);
  FaultSpec spec;
  spec.probability = 1.0;  // the device stays broken
  injector.Arm(FaultPoint::kPageRead, spec);

  for (int i = 0;
       i < 4 && layout->TenantBreakerState(1) == BreakerState::kClosed;
       ++i) {
    ASSERT_TRUE(db.buffer_pool()->EvictAll().ok());  // force real I/O
    EXPECT_FALSE(layout->Query(1, "SELECT * FROM account").ok());
  }
  EXPECT_EQ(layout->TenantBreakerState(1), BreakerState::kOpen);
  EXPECT_GE(db.metrics_registry()->GetCounter("breaker.open.t1")->value(), 1u);

  // Inside the backoff window: fail-fast with a retry hint, no I/O.
  auto rejected = layout->Query(1, "SELECT * FROM account");
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kUnavailable);
  EXPECT_GT(AdmissionController::RetryAfterMs(rejected.status()), 0)
      << rejected.status().ToString();
  // Other tenants keep serving off the same (broken) device's cache.
  EXPECT_EQ(layout->TenantBreakerState(2), BreakerState::kClosed);

  // Device heals; within a few backoff windows a half-open probe runs,
  // succeeds and closes the breaker with no operator involved.
  injector.DisarmAll();
  bool healed = false;
  for (int i = 0; i < 40 && !healed; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    healed = layout->Query(1, "SELECT * FROM account").ok();
  }
  EXPECT_TRUE(healed) << "breaker never self-healed after device recovery";
  EXPECT_EQ(layout->TenantBreakerState(1), BreakerState::kClosed);
  EXPECT_GE(db.metrics_registry()->GetCounter("breaker.half_open.t1")->value(),
            1u);
  EXPECT_GE(db.metrics_registry()->GetCounter("breaker.close.t1")->value(),
            1u);

  auto r = layout->Query(1, "SELECT * FROM account");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 1u);
  AuditClean(layout.get(), "after self-heal");
  db.page_store()->set_fault_injector(nullptr);
}

}  // namespace
}  // namespace mtdb
