// Recovery-time sweep over the durability subsystem: how long a
// crashed engine takes to come back as a function of (a) the WAL length
// it must replay and (b) the automatic checkpoint interval that bounds
// that length. Each point loads a durable database, runs a fixed insert
// workload, simulates process death (the engine is dropped without a
// final checkpoint), and times Database::Open — checkpoint load, WAL
// replay, and the sealing checkpoint included.
//
// Emits BENCH_recovery.json: recovery time, replayed-group counts and
// what each statement logged (WAL bytes, full page images and delta
// records per op) per log length (checkpoints disabled) and per
// checkpoint interval (fixed workload), plus the headline ratio between
// the longest-log recovery and the tightest-interval recovery.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
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
    result.checkpoints_during_load = d.checkpoints;
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
               "\"single-table insert, unique index\"},\n",
               config.interval_sweep_ops);
  emit_runs("log_length_sweep", log_sweep, ",");
  emit_runs("checkpoint_interval_sweep", interval_sweep, ",");
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
