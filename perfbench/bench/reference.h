#ifndef PERFBENCH_BENCH_REFERENCE_H_
#define PERFBENCH_BENCH_REFERENCE_H_

#include <cstdint>
#include <vector>

namespace perfbench {

/// A fixed piece of work owned by the benchmark, not by the program it
/// measures: calls through 2,000 distinct small functions (about 300 KB
/// of machine code) with table reads and data-dependent branches. Clients
/// run it between statements to measure how fast the host is at that
/// moment. On a shared host that speed moves by 20–30% over minutes, as
/// neighbours load the caches and cores the VM shares. Code with a large
/// instruction footprint, like a statement's path through parser,
/// mapper, planner and executor, slows the most, and so does this loop.
/// A change to the program does not change the loop's work.
class SpeedReference {
 public:
  /// Duration of one Run() on the reference machine (4-vCPU VM on a
  /// shared host), about midway between its fast and slow phases.
  /// Calibrated times are scaled to it.
  static constexpr double kNominalUs = 450;

  SpeedReference();

  /// Runs the loop once; returns its duration in microseconds.
  double Run();

 private:
  std::vector<uint64_t> table_;
  uint64_t state_ = 1;
};

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_REFERENCE_H_
