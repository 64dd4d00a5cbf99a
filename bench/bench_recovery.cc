// Recovery-time sweep over the durability subsystem: how long a
// crashed engine takes to come back as a function of (a) the WAL length
// it must replay and (b) the automatic checkpoint interval that bounds
// that length. Each point loads a durable database, runs a fixed insert
// workload, simulates process death (the engine is dropped without a
// final checkpoint), and times Database::Open — checkpoint load, WAL
// replay, and the sealing checkpoint included.
//
// A last point runs mapped writes instead: Chunk Folding UPDATEs that
// each touch the base table and a folded chunk (two physical writes in
// one engine write batch, logged as one redo group) at the tightest
// interval, and gates that automatic checkpoints fire during them.
//
// Emits BENCH_recovery.json: recovery time, replayed-group counts and
// what each statement logged (WAL bytes, full page images and delta
// records per op) per log length (checkpoints disabled), per
// checkpoint interval (fixed workload) and for the mapped-write point,
// plus the headline ratio between the longest-log recovery and the
// tightest-interval recovery.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/chunk_folding_layout.h"
#include "engine/database.h"

namespace mtdb {
namespace bench {
namespace {

struct BenchConfig {
  /// Statements in the checkpoint-interval sweep's fixed workload.
  int interval_sweep_ops = 2000;
  /// Log-length sweep points (statements whose groups recovery replays).
  std::vector<int> log_lengths = {250, 500, 1000, 2000};
  /// Checkpoint-interval sweep points in WAL bytes (0 = disabled).
  std::vector<uint64_t> intervals = {64 * 1024, 256 * 1024, 1024 * 1024, 0};
  /// The mapped-write point: logical UPDATEs over `mapped_rows` rows.
  int mapped_update_ops = 2000;
  int mapped_rows = 200;
  uint64_t seed = 17;
  /// Gate on the unbounded-log point: WAL bytes per insert statement.
  /// Full page after-images cost 16.6 KB per statement; delta redo
  /// records must log at most a tenth of that.
  double max_wal_bytes_per_op = 1660.0;
};

int EnvInt(const char* name, int fallback) {
  if (const char* env = std::getenv(name)) return std::atoi(env);
  return fallback;
}

struct RunResult {
  int ops = 0;
  uint64_t checkpoint_interval = 0;
  double load_s = 0;
  double recovery_ms = 0;
  uint64_t replayed_groups = 0;
  uint64_t wal_bytes = 0;
  uint64_t full_images = 0;
  uint64_t delta_records = 0;
  /// Automatic checkpoints inside the timed write loop (the sealing
  /// checkpoint of the initial open is not counted).
  uint64_t checkpoints_during_load = 0;

  double PerOp(uint64_t v) const {
    return ops > 0 ? static_cast<double>(v) / ops : 0.0;
  }
};

/// One sweep point: load `ops` insert statements into a fresh durable
/// database under `interval`, kill it, time the reopen.
Result<RunResult> RunPoint(const std::string& dir, int ops,
                           uint64_t interval, uint64_t seed) {
  std::filesystem::remove_all(dir);
  EngineOptions options;
  options.checkpoint_interval_bytes = interval;

  RunResult result;
  result.ops = ops;
  result.checkpoint_interval = interval;
  {
    MTDB_ASSIGN_OR_RETURN(std::unique_ptr<Database> db,
                          Database::Open(DatabaseOptions::WithPath(dir, options)));
    Schema schema;
    schema.AddColumn(Column{"id", TypeId::kInt64, true});
    schema.AddColumn(Column{"name", TypeId::kString, false});
    schema.AddColumn(Column{"score", TypeId::kDouble, false});
    MTDB_RETURN_IF_ERROR(db->CreateTable("kv", std::move(schema)));
    MTDB_RETURN_IF_ERROR(
        db->CreateIndex("kv", "ux_kv_id", {"id"}, /*unique=*/true));

    Rng rng(seed);
    const uint64_t checkpoints_at_start = db->Stats().durability.checkpoints;
    auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < ops; ++i) {
      MTDB_RETURN_IF_ERROR(db->InsertRow(
          "kv", {Value::Int64(i), Value::String(rng.Word(8, 24)),
                 Value::Double(static_cast<double>(rng.Uniform(0, 1000)))}));
    }
    auto end = std::chrono::steady_clock::now();
    result.load_s = std::chrono::duration<double>(end - start).count();
    DurabilityCountersSnapshot d = db->Stats().durability;
    result.wal_bytes = d.wal_bytes;
    result.full_images = d.full_images;
    result.delta_records = d.delta_records;
    result.checkpoints_during_load = d.checkpoints - checkpoints_at_start;
    // Process death: the engine is dropped without a final checkpoint, so
    // everything since the last one must come back through WAL replay.
  }

  auto start = std::chrono::steady_clock::now();
  MTDB_ASSIGN_OR_RETURN(std::unique_ptr<Database> db,
                        Database::Open(DatabaseOptions::WithPath(dir, options)));
  auto end = std::chrono::steady_clock::now();
  result.recovery_ms =
      std::chrono::duration<double, std::milli>(end - start).count();
  result.replayed_groups = db->Stats().durability.replayed_groups;

  // Recovery must actually have restored the data, or the timing is for
  // an engine that lost rows.
  MTDB_ASSIGN_OR_RETURN(QueryResult rows,
                        db->Query("SELECT COUNT(*) FROM kv"));
  if (rows.rows.size() != 1 ||
      rows.rows[0][0].AsInt64() != static_cast<int64_t>(ops)) {
    return Status::Internal("recovered row count mismatch at " +
                            std::to_string(ops) + " ops");
  }
  return result;
}

/// The mapped-write point: one Chunk Folding tenant whose account rows
/// span the base table and a folded chunk (the healthcare extension's
/// columns), loaded, then updated in both at once — every logical
/// UPDATE is two physical statements under one logical-transaction
/// bracket. Counters cover the update loop only; the recovered rows
/// must match what the updates acknowledged.
Result<RunResult> RunMappedPoint(const std::string& dir, int rows, int ops,
                                 uint64_t interval, uint64_t seed) {
  std::filesystem::remove_all(dir);
  EngineOptions options;
  options.checkpoint_interval_bytes = interval;
  mapping::AppSchema app;
  {
    mapping::LogicalTable account;
    account.name = "account";
    account.columns = {{"aid", TypeId::kInt64, true},
                       {"name", TypeId::kString, false}};
    MTDB_RETURN_IF_ERROR(app.AddTable(std::move(account)));
    mapping::ExtensionDef health;
    health.name = "healthcare";
    health.base_table = "account";
    health.columns = {{"hospital", TypeId::kString, false},
                      {"beds", TypeId::kInt32, false}};
    MTDB_RETURN_IF_ERROR(app.AddExtension(std::move(health)));
  }
  constexpr TenantId kTenant = 0;
  const char* const kCheck = "SELECT aid, name, beds FROM account ORDER BY aid";

  RunResult result;
  result.ops = ops;
  result.checkpoint_interval = interval;
  std::vector<std::pair<std::string, int32_t>> expected(rows);
  {
    MTDB_ASSIGN_OR_RETURN(std::unique_ptr<Database> db,
                          Database::Open(DatabaseOptions::WithPath(dir, options)));
    mapping::ChunkFoldingLayout layout(db.get(), &app);
    MTDB_RETURN_IF_ERROR(layout.Bootstrap());
    MTDB_RETURN_IF_ERROR(layout.CreateTenant(kTenant));
    MTDB_RETURN_IF_ERROR(layout.EnableExtension(kTenant, "healthcare"));
    Rng rng(seed);
    for (int aid = 0; aid < rows; ++aid) {
      expected[aid] = {rng.Word(8, 16), static_cast<int32_t>(aid)};
      MTDB_RETURN_IF_ERROR(
          layout
              .Execute(kTenant,
                       "INSERT INTO account (aid, name, hospital, beds) "
                       "VALUES (?, ?, 'General', ?)",
                       {Value::Int64(aid), Value::String(expected[aid].first),
                        Value::Int32(expected[aid].second)})
              .status());
    }

    const DurabilityCountersSnapshot before = db->Stats().durability;
    auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < ops; ++i) {
      const int aid = static_cast<int>(rng.Uniform(0, rows - 1));
      expected[aid] = {rng.Word(8, 16),
                       static_cast<int32_t>(rng.Uniform(1, 5000))};
      MTDB_RETURN_IF_ERROR(
          layout
              .Execute(kTenant,
                       "UPDATE account SET name = ?, beds = ? WHERE aid = ?",
                       {Value::String(expected[aid].first),
                        Value::Int32(expected[aid].second),
                        Value::Int64(aid)})
              .status());
    }
    auto end = std::chrono::steady_clock::now();
    result.load_s = std::chrono::duration<double>(end - start).count();
    const DurabilityCountersSnapshot d = db->Stats().durability;
    result.wal_bytes = d.wal_bytes - before.wal_bytes;
    result.full_images = d.full_images - before.full_images;
    result.delta_records = d.delta_records - before.delta_records;
    result.checkpoints_during_load = d.checkpoints - before.checkpoints;
    // Process death, as in RunPoint.
  }

  auto start = std::chrono::steady_clock::now();
  MTDB_ASSIGN_OR_RETURN(std::unique_ptr<Database> db,
                        Database::Open(DatabaseOptions::WithPath(dir, options)));
  auto end = std::chrono::steady_clock::now();
  result.recovery_ms =
      std::chrono::duration<double, std::milli>(end - start).count();
  result.replayed_groups = db->Stats().durability.replayed_groups;

  mapping::ChunkFoldingLayout layout(db.get(), &app);
  MTDB_RETURN_IF_ERROR(layout.Recover());
  MTDB_ASSIGN_OR_RETURN(QueryResult got, layout.Query(kTenant, kCheck));
  bool match = got.rows.size() == expected.size();
  for (size_t i = 0; match && i < got.rows.size(); ++i) {
    match = got.rows[i][0].AsInt64() == static_cast<int64_t>(i) &&
            got.rows[i][1].AsString() == expected[i].first &&
            got.rows[i][2].AsInt64() == expected[i].second;
  }
  if (!match) {
    return Status::Internal("recovered mapped rows differ from the updates");
  }
  return result;
}

int Main() {
  BenchConfig config;
  config.interval_sweep_ops =
      EnvInt("MTDB_BENCH_OPS", config.interval_sweep_ops);

  const std::string dir =
      std::filesystem::temp_directory_path() / "mtdb_bench_recovery";

  std::printf("# recovery sweep: insert workload, kill, reopen\n");
  std::printf("%8s %14s %12s %10s %8s %8s %10s %12s %8s\n", "ops",
              "ckpt-int[B]", "wal[KiB]", "wal[B/op]", "img/op", "delta/op",
              "groups", "recover[ms]", "ckpts");

  auto print_row = [](const RunResult& r) {
    std::printf("%8d %14llu %12.1f %10.1f %8.3f %8.3f %10llu %12.2f %8llu\n",
                r.ops, static_cast<unsigned long long>(r.checkpoint_interval),
                static_cast<double>(r.wal_bytes) / 1024.0,
                r.PerOp(r.wal_bytes), r.PerOp(r.full_images),
                r.PerOp(r.delta_records),
                static_cast<unsigned long long>(r.replayed_groups),
                r.recovery_ms,
                static_cast<unsigned long long>(r.checkpoints_during_load));
  };

  std::vector<RunResult> log_sweep;
  for (int ops : config.log_lengths) {
    auto r = RunPoint(dir, ops, /*interval=*/0, config.seed);
    if (!r.ok()) {
      std::fprintf(stderr, "log-length point %d failed: %s\n", ops,
                   r.status().ToString().c_str());
      return 1;
    }
    log_sweep.push_back(*r);
    print_row(*r);
  }
  std::vector<RunResult> interval_sweep;
  for (uint64_t interval : config.intervals) {
    auto r = RunPoint(dir, config.interval_sweep_ops, interval, config.seed);
    if (!r.ok()) {
      std::fprintf(stderr, "interval point %llu failed: %s\n",
                   static_cast<unsigned long long>(interval),
                   r.status().ToString().c_str());
      return 1;
    }
    interval_sweep.push_back(*r);
    print_row(*r);
  }
  auto mapped = RunMappedPoint(dir, config.mapped_rows,
                               config.mapped_update_ops,
                               config.intervals.front(), config.seed);
  if (!mapped.ok()) {
    std::fprintf(stderr, "mapped-write point failed: %s\n",
                 mapped.status().ToString().c_str());
    return 1;
  }
  std::printf("# mapped writes: chunk folding multi-chunk UPDATE\n");
  print_row(*mapped);
  std::filesystem::remove_all(dir);

  // Headline: checkpointing bounds recovery. The tightest interval must
  // replay (far) fewer groups than the unbounded log at the same ops.
  const RunResult& unbounded = interval_sweep.back();
  const RunResult& tightest = interval_sweep.front();
  double group_ratio =
      tightest.replayed_groups > 0
          ? static_cast<double>(unbounded.replayed_groups) /
                static_cast<double>(tightest.replayed_groups)
          : static_cast<double>(unbounded.replayed_groups);
  std::printf("# replay reduction, unbounded vs %llu-byte interval: %.1fx\n",
              static_cast<unsigned long long>(tightest.checkpoint_interval),
              group_ratio);

  const char* out_path = std::getenv("MTDB_BENCH_OUT");
  if (out_path == nullptr) out_path = "BENCH_recovery.json";
  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path);
    return 1;
  }
  auto emit_runs = [&](const char* key, const std::vector<RunResult>& runs,
                       const char* tail) {
    std::fprintf(f, "  \"%s\": [\n", key);
    for (size_t i = 0; i < runs.size(); ++i) {
      const RunResult& r = runs[i];
      std::fprintf(
          f,
          "    {\"ops\": %d, \"checkpoint_interval_bytes\": %llu, "
          "\"wal_bytes\": %llu, \"wal_bytes_per_op\": %.1f, "
          "\"full_images_per_op\": %.4f, \"delta_records_per_op\": %.4f, "
          "\"replayed_groups\": %llu, "
          "\"recovery_ms\": %.3f, \"checkpoints_during_load\": %llu}%s\n",
          r.ops, static_cast<unsigned long long>(r.checkpoint_interval),
          static_cast<unsigned long long>(r.wal_bytes),
          r.PerOp(r.wal_bytes), r.PerOp(r.full_images),
          r.PerOp(r.delta_records),
          static_cast<unsigned long long>(r.replayed_groups), r.recovery_ms,
          static_cast<unsigned long long>(r.checkpoints_during_load),
          i + 1 < runs.size() ? "," : "");
    }
    std::fprintf(f, "  ]%s\n", tail);
  };
  std::fprintf(f, "{\n  \"bench\": \"recovery\",\n");
  std::fprintf(f,
               "  \"config\": {\"interval_sweep_ops\": %d, \"workload\": "
               "\"single-table insert, unique index\", "
               "\"mapped_update_ops\": %d, \"mapped_rows\": %d, "
               "\"mapped_workload\": \"chunk folding UPDATE of a base and "
               "a folded column\"},\n",
               config.interval_sweep_ops, config.mapped_update_ops,
               config.mapped_rows);
  emit_runs("log_length_sweep", log_sweep, ",");
  emit_runs("checkpoint_interval_sweep", interval_sweep, ",");
  emit_runs("mapped_update_point", {*mapped}, ",");
  const double wal_bytes_per_op = unbounded.PerOp(unbounded.wal_bytes);
  std::fprintf(f, "  \"replay_reduction_tightest_interval\": %.3f,\n",
               group_ratio);
  std::fprintf(f, "  \"wal_bytes_per_op\": %.1f\n}\n", wal_bytes_per_op);
  std::fclose(f);
  std::printf("# wrote %s\n", out_path);

  // Sanity gates: replay work must grow with the log and shrink with
  // checkpoint pressure, or the durability accounting is broken.
  if (log_sweep.back().replayed_groups <= log_sweep.front().replayed_groups) {
    std::fprintf(stderr, "FAIL: replayed groups did not grow with the log\n");
    return 1;
  }
  if (group_ratio < 2.0) {
    std::fprintf(stderr,
                 "FAIL: tight checkpointing reduced replay only %.2fx\n",
                 group_ratio);
    return 1;
  }
  // Mapped writes must honour the checkpoint interval like engine writes.
  if (mapped->checkpoints_during_load < 1) {
    std::fprintf(stderr,
                 "FAIL: no automatic checkpoint during %d mapped writes\n",
                 mapped->ops);
    return 1;
  }
  std::printf("# wal bytes per insert statement (unbounded log): %.1f\n",
              wal_bytes_per_op);
  if (wal_bytes_per_op > config.max_wal_bytes_per_op) {
    std::fprintf(stderr, "FAIL: %.1f WAL bytes per statement (limit %.0f)\n",
                 wal_bytes_per_op, config.max_wal_bytes_per_op);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace mtdb

int main() { return mtdb::bench::Main(); }
