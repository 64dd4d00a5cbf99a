// Worker-count sweep over the concurrent session engine: the same
// read-mostly MTD workload (Q-heavy mix, fully-shared Basic layout) run
// with 1, 2, 4 and 8 worker sessions against one database. With the
// statement big lock gone, worker threads overlap their simulated
// device stalls (buffer-pool misses against a small memory budget), so
// throughput should scale with the worker count even on one core —
// exactly the claim this benchmark guards: >= 3x at 8 workers over 1.
//
// Emits BENCH_concurrency.json (throughput per worker count, p95
// response times from merged per-worker SampleSets, speedup).
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "core/basic_layout.h"
#include "core/tenant_session.h"
#include "engine/database.h"

namespace mtdb {
namespace bench {
namespace {

using mapping::AppSchema;
using mapping::BasicLayout;
using mapping::LogicalColumn;
using mapping::LogicalTable;
using mapping::TenantSession;

struct BenchConfig {
  int tenants = 8;
  int64_t rows_per_tenant = 4000;
  /// Total statements per run, split evenly across the workers so every
  /// sweep point does the same amount of work.
  int total_ops = 1200;
  /// Sized well below the data set so point lookups keep missing the
  /// buffer pool: the workload stays I/O-latency-bound, which is the
  /// regime the paper's testbed models (§5) and where session
  /// concurrency pays off.
  uint64_t memory_budget_bytes = 512 * 1024;
  /// Simulated device latency per physical page read while measuring.
  /// High enough that a single session is firmly latency-bound — the
  /// paper's NFS-appliance regime — rather than bound by this host's
  /// CPU, so the sweep isolates what session concurrency buys.
  uint64_t read_latency_ns = 1500000;  // 1.5 ms
  /// Q-heavy Figure 6-style mix: this percentage of actions are point
  /// SELECTs, the rest single-row INSERTs.
  int select_pct = 95;
  uint64_t seed = 42;
};

int EnvInt(const char* name, int fallback) {
  if (const char* env = std::getenv(name)) return std::atoi(env);
  return fallback;
}

/// The fully-shared schema under test: several CRM-style entity tables
/// (the MTD testbed's application shape), every tenant's rows in the
/// same shared heaps and indexes. Multiple tables matter: the engine
/// latches per table, so a writer convoys only the readers of its own
/// table — the scaling this benchmark measures is exactly that
/// granularity win over the old whole-engine statement lock.
const char* const kBenchTables[] = {"account", "contact", "lead", "asset"};
constexpr int kBenchTableCount = 4;

AppSchema BenchSchema() {
  AppSchema app;
  for (const char* name : kBenchTables) {
    LogicalTable t;
    t.name = name;
    t.columns = {{"id", TypeId::kInt64, true},
                 {"name", TypeId::kString, false},
                 {"region", TypeId::kString, false},
                 {"score", TypeId::kDouble, false}};
    Status st = app.AddTable(std::move(t));
    (void)st;
  }
  return app;
}

struct RunResult {
  int workers = 0;
  double elapsed_s = 0;
  uint64_t actions = 0;
  double throughput_per_s = 0;
  double p95_select_ms = 0;
  double p95_insert_ms = 0;
  double hit_ratio_data = 0;
};

Status LoadData(BasicLayout* layout, const BenchConfig& config) {
  Rng rng(config.seed);
  int64_t rows_per_table = config.rows_per_tenant / kBenchTableCount;
  for (TenantId t = 0; t < config.tenants; ++t) {
    MTDB_RETURN_IF_ERROR(layout->CreateTenant(t));
    TenantSession session = layout->OpenSession(t);
    for (const char* table : kBenchTables) {
      for (int64_t i = 0; i < rows_per_table; ++i) {
        Row row{Value::Int64(i), Value::String(rng.Word(8, 16)),
                Value::String(rng.Word(4, 8)),
                Value::Double(static_cast<double>(rng.Uniform(0, 1000)))};
        MTDB_RETURN_IF_ERROR(session.InsertRow(table, row).status());
      }
    }
  }
  return Status::OK();
}

Result<RunResult> RunSweepPoint(int workers, const BenchConfig& config) {
  DatabaseOptions options;
  options.engine.memory_budget_bytes = config.memory_budget_bytes;
  options.engine.read_latency_ns = 0;  // load fast, dial latency up afterwards
  Database db(options);
  AppSchema app = BenchSchema();
  BasicLayout layout(&db, &app);
  MTDB_RETURN_IF_ERROR(layout.Bootstrap());
  MTDB_RETURN_IF_ERROR(LoadData(&layout, config));

  // Measured phase: cold cache, simulated device latency on.
  db.ColdCache();
  db.ResetStats();
  db.page_store()->set_read_latency_ns(config.read_latency_ns);

  int per_worker = config.total_ops / workers;
  std::atomic<int> errors{0};
  std::vector<SampleSet> select_partials(workers), insert_partials(workers);
  std::vector<std::thread> threads;
  threads.reserve(workers);
  auto start = std::chrono::steady_clock::now();
  for (int w = 0; w < workers; ++w) {
    threads.emplace_back([&, w]() {
      Rng rng(config.seed + 1000 + static_cast<uint64_t>(w));
      // Every worker mixes all tenants (one session per tenant, like a
      // connection pool), so the aggregate working set — and thus the
      // buffer-pool hit ratio — is identical at every sweep point.
      std::vector<TenantSession> sessions;
      sessions.reserve(config.tenants);
      for (TenantId t = 0; t < config.tenants; ++t) {
        sessions.push_back(layout.OpenSession(t));
      }
      int64_t rows_per_table = config.rows_per_tenant / kBenchTableCount;
      for (int i = 0; i < per_worker; ++i) {
        TenantSession& session =
            sessions[rng.Uniform(0, config.tenants - 1)];
        bool is_select =
            rng.Uniform(0, 99) < static_cast<int64_t>(config.select_pct);
        std::string table = kBenchTables[rng.Uniform(0, kBenchTableCount - 1)];
        auto t0 = std::chrono::steady_clock::now();
        Status st;
        if (is_select) {
          st = session
                   .Query("SELECT * FROM " + table + " WHERE id = ?",
                          {Value::Int64(rng.Uniform(0, rows_per_table - 1))})
                   .status();
        } else {
          int64_t id = 1000000 + static_cast<int64_t>(w) * 100000 + i;
          st = session
                   .Execute("INSERT INTO " + table +
                                " (id, name, region, score) "
                                "VALUES (?, ?, ?, ?)",
                            {Value::Int64(id), Value::String(rng.Word(8, 16)),
                             Value::String(rng.Word(4, 8)),
                             Value::Double(1.0)})
                   .status();
        }
        auto t1 = std::chrono::steady_clock::now();
        if (!st.ok()) {
          errors.fetch_add(1);
          continue;
        }
        double ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
        (is_select ? select_partials[w] : insert_partials[w]).Add(ms);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  auto end = std::chrono::steady_clock::now();
  if (errors.load() > 0) {
    return Status::Internal(std::to_string(errors.load()) +
                            " bench actions failed");
  }

  SampleSet selects, inserts;
  for (const SampleSet& s : select_partials) selects.Merge(s);
  for (const SampleSet& s : insert_partials) inserts.Merge(s);

  RunResult result;
  result.workers = workers;
  result.elapsed_s = std::chrono::duration<double>(end - start).count();
  result.actions = selects.count() + inserts.count();
  result.throughput_per_s =
      static_cast<double>(result.actions) / result.elapsed_s;
  result.p95_select_ms = selects.Quantile(0.95);
  result.p95_insert_ms = inserts.Quantile(0.95);
  result.hit_ratio_data = db.Stats().buffer.HitRatioData();
  return result;
}

int Main() {
  BenchConfig config;
  config.tenants = EnvInt("MTDB_BENCH_TENANTS", config.tenants);
  config.rows_per_tenant =
      EnvInt("MTDB_BENCH_ROWS", static_cast<int>(config.rows_per_tenant));
  config.total_ops = EnvInt("MTDB_BENCH_OPS", config.total_ops);
  config.select_pct = EnvInt("MTDB_BENCH_SELECT_PCT", config.select_pct);
  config.read_latency_ns =
      static_cast<uint64_t>(EnvInt(
          "MTDB_BENCH_READ_LATENCY_US",
          static_cast<int>(config.read_latency_ns / 1000))) *
      1000;

  const int kWorkerCounts[] = {1, 2, 4, 8};
  std::vector<RunResult> results;
  std::printf(
      "# concurrency sweep: %d tenants, %lld rows/tenant, %d ops, "
      "%.0f us/read, %d%% selects\n",
      config.tenants, static_cast<long long>(config.rows_per_tenant),
      config.total_ops, static_cast<double>(config.read_latency_ns) / 1000.0,
      config.select_pct);
  std::printf("%8s %12s %14s %12s %12s %10s\n", "workers", "elapsed[s]",
              "thruput[1/s]", "p95 sel[ms]", "p95 ins[ms]", "hit data");
  for (int workers : kWorkerCounts) {
    auto result = RunSweepPoint(workers, config);
    if (!result.ok()) {
      std::fprintf(stderr, "sweep point %d failed: %s\n", workers,
                   result.status().ToString().c_str());
      return 1;
    }
    results.push_back(*result);
    std::printf("%8d %12.2f %14.1f %12.2f %12.2f %9.1f%%\n", result->workers,
                result->elapsed_s, result->throughput_per_s,
                result->p95_select_ms, result->p95_insert_ms,
                result->hit_ratio_data * 100.0);
  }

  double speedup =
      results.back().throughput_per_s / results.front().throughput_per_s;
  std::printf("# speedup 8 vs 1 workers: %.2fx\n", speedup);

  const char* out_path = std::getenv("MTDB_BENCH_OUT");
  if (out_path == nullptr) out_path = "BENCH_concurrency.json";
  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path);
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"concurrency\",\n");
  std::fprintf(f,
               "  \"config\": {\"tenants\": %d, \"rows_per_tenant\": %lld, "
               "\"total_ops\": %d, \"memory_budget_bytes\": %llu, "
               "\"read_latency_ns\": %llu, \"select_pct\": %d, "
               "\"layout\": \"basic\"},\n",
               config.tenants, static_cast<long long>(config.rows_per_tenant),
               config.total_ops,
               static_cast<unsigned long long>(config.memory_budget_bytes),
               static_cast<unsigned long long>(config.read_latency_ns),
               config.select_pct);
  std::fprintf(f, "  \"runs\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const RunResult& r = results[i];
    std::fprintf(f,
                 "    {\"workers\": %d, \"elapsed_s\": %.4f, \"actions\": "
                 "%llu, \"throughput_per_s\": %.2f, \"p95_select_ms\": %.3f, "
                 "\"p95_insert_ms\": %.3f, \"hit_ratio_data\": %.4f}%s\n",
                 r.workers, r.elapsed_s,
                 static_cast<unsigned long long>(r.actions),
                 r.throughput_per_s, r.p95_select_ms, r.p95_insert_ms,
                 r.hit_ratio_data, i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"speedup_8_vs_1\": %.3f\n}\n", speedup);
  std::fclose(f);
  std::printf("# wrote %s\n", out_path);

  // The acceptance gate: the session engine must actually scale.
  if (speedup < 3.0) {
    std::fprintf(stderr,
                 "FAIL: 8-worker speedup %.2fx is below the 3x floor\n",
                 speedup);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace mtdb

int main() { return mtdb::bench::Main(); }
