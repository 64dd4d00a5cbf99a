#ifndef PERFBENCH_BENCH_WORKLOAD_H_
#define PERFBENCH_BENCH_WORKLOAD_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// The six logical statement types every workload runs (README.md
/// lists their SQL).
enum class Op { kPointSelect, kWideSelect, kReport, kUpdate, kInsert, kDelete };
inline constexpr int kOps = 6;
const char* OpName(Op op);
inline bool IsWrite(Op op) { return op >= Op::kUpdate; }

/// One named workload: set-up, client count and statement mix.
struct WorkloadSpec {
  std::string name;
  /// false: ChunkFoldingLayout; true: ChunkTableLayout (width 6).
  bool chunk_table_layout = false;
  /// Writes a WAL + checkpoints into a fresh directory per set-up.
  bool durable = false;
  int clients = 1;
  int tenants = 16;
  /// Mean accounts per tenant; sizes vary per tenant, the total does not.
  int rows_per_tenant = 600;
  uint64_t memory_budget_bytes = 64ull * 1024 * 1024;
  /// Untimed warm-up after load (false: the pool is emptied instead).
  bool warm_up = true;
  /// >0: updates draw their ids from this many rows per tenant.
  int hot_rows = 0;
  /// Statement shares in Op order; they sum to 1.
  std::array<double, kOps> mix{};
};

/// The named workloads ("oltp_mem", "oltp_durable", "report_cold"), or
/// nullptr. `smoke` shrinks the data to a few hundred rows.
const WorkloadSpec* FindWorkload(const std::string& name, bool smoke);

struct RunOptions {
  WorkloadSpec spec;
  uint64_t seed = 1;
  double seconds = 10;
  /// false: end-to-end metrics; true: the traced run's per-layer metrics.
  bool trace = false;
  /// Scratch directory for durable data and the span dump.
  std::string work_dir;
  /// Self-test hook: corrupts one expected value so the correctness
  /// checks must fail.
  bool break_check = false;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunReport {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// First few correctness or set-up problems, for stderr.
  std::vector<std::string> problems;
};

/// Builds the workload's database from `options.seed`, runs its clients
/// for `options.seconds`, checks every result against a shadow model and
/// reconciles the whole database at the end. Returns false (with
/// `report->problems` filled) when set-up itself fails.
bool RunWorkload(const RunOptions& options, RunReport* report);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_WORKLOAD_H_
