#ifndef MTDB_COMMON_METRICS_H_
#define MTDB_COMMON_METRICS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace mtdb {

/// Point-in-time copy of IoFaultCounters, safe to pass around.
struct IoFaultCountersSnapshot {
  uint64_t read_faults = 0;
  uint64_t write_faults = 0;
  uint64_t checksum_failures = 0;
  uint64_t read_retries = 0;
  uint64_t write_retries = 0;
  uint64_t retry_exhaustions = 0;
  uint64_t latency_spikes = 0;
};

/// Storage-tier fault and retry counters. One instance lives in the
/// BufferPool and is bumped with relaxed atomics on the I/O path; tests
/// and the chaos harness read a Snapshot() to assert that retries
/// actually happened (or that none did with injection disabled).
class IoFaultCounters {
 public:
  void OnReadFault() { read_faults_.fetch_add(1, std::memory_order_relaxed); }
  void OnWriteFault() { write_faults_.fetch_add(1, std::memory_order_relaxed); }
  void OnChecksumFailure() {
    checksum_failures_.fetch_add(1, std::memory_order_relaxed);
  }
  void OnReadRetry() { read_retries_.fetch_add(1, std::memory_order_relaxed); }
  void OnWriteRetry() {
    write_retries_.fetch_add(1, std::memory_order_relaxed);
  }
  void OnRetryExhausted() {
    retry_exhaustions_.fetch_add(1, std::memory_order_relaxed);
  }
  void OnLatencySpike() {
    latency_spikes_.fetch_add(1, std::memory_order_relaxed);
  }

  IoFaultCountersSnapshot Snapshot() const {
    IoFaultCountersSnapshot s;
    s.read_faults = read_faults_.load(std::memory_order_relaxed);
    s.write_faults = write_faults_.load(std::memory_order_relaxed);
    s.checksum_failures = checksum_failures_.load(std::memory_order_relaxed);
    s.read_retries = read_retries_.load(std::memory_order_relaxed);
    s.write_retries = write_retries_.load(std::memory_order_relaxed);
    s.retry_exhaustions = retry_exhaustions_.load(std::memory_order_relaxed);
    s.latency_spikes = latency_spikes_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  std::atomic<uint64_t> read_faults_{0};
  std::atomic<uint64_t> write_faults_{0};
  std::atomic<uint64_t> checksum_failures_{0};
  std::atomic<uint64_t> read_retries_{0};
  std::atomic<uint64_t> write_retries_{0};
  std::atomic<uint64_t> retry_exhaustions_{0};
  std::atomic<uint64_t> latency_spikes_{0};
};

/// Point-in-time copy of DurabilityCounters, safe to pass around.
struct DurabilityCountersSnapshot {
  uint64_t wal_appends = 0;
  uint64_t wal_bytes = 0;
  uint64_t group_commits = 0;
  /// Page records inside committed groups: full images vs deltas.
  uint64_t full_images = 0;
  uint64_t delta_records = 0;
  uint64_t checkpoints = 0;
  uint64_t recoveries = 0;
  uint64_t replayed_groups = 0;
  uint64_t truncated_tails = 0;
  uint64_t txn_begins = 0;
  uint64_t txn_ends = 0;
  uint64_t recovery_undo_statements = 0;
  uint64_t injected_crashes = 0;
};

/// Durability-tier counters. One instance lives in the Durability
/// manager; bumped with relaxed atomics on the log/checkpoint path so
/// recovery tests can assert the run exercised what it claims (appends
/// happened, tails were truncated, undo actually ran).
class DurabilityCounters {
 public:
  void OnWalAppend(uint64_t bytes) {
    wal_appends_.fetch_add(1, std::memory_order_relaxed);
    wal_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  }
  void OnGroupCommit(uint64_t full_images, uint64_t delta_records) {
    group_commits_.fetch_add(1, std::memory_order_relaxed);
    full_images_.fetch_add(full_images, std::memory_order_relaxed);
    delta_records_.fetch_add(delta_records, std::memory_order_relaxed);
  }
  void OnCheckpoint() { checkpoints_.fetch_add(1, std::memory_order_relaxed); }
  void OnRecovery() { recoveries_.fetch_add(1, std::memory_order_relaxed); }
  void OnReplayedGroup() {
    replayed_groups_.fetch_add(1, std::memory_order_relaxed);
  }
  void OnTruncatedTail() {
    truncated_tails_.fetch_add(1, std::memory_order_relaxed);
  }
  void OnTxnBegin() { txn_begins_.fetch_add(1, std::memory_order_relaxed); }
  void OnTxnEnd() { txn_ends_.fetch_add(1, std::memory_order_relaxed); }
  void OnRecoveryUndoStatement() {
    recovery_undo_statements_.fetch_add(1, std::memory_order_relaxed);
  }
  void OnInjectedCrash() {
    injected_crashes_.fetch_add(1, std::memory_order_relaxed);
  }

  DurabilityCountersSnapshot Snapshot() const {
    DurabilityCountersSnapshot s;
    s.wal_appends = wal_appends_.load(std::memory_order_relaxed);
    s.wal_bytes = wal_bytes_.load(std::memory_order_relaxed);
    s.group_commits = group_commits_.load(std::memory_order_relaxed);
    s.full_images = full_images_.load(std::memory_order_relaxed);
    s.delta_records = delta_records_.load(std::memory_order_relaxed);
    s.checkpoints = checkpoints_.load(std::memory_order_relaxed);
    s.recoveries = recoveries_.load(std::memory_order_relaxed);
    s.replayed_groups = replayed_groups_.load(std::memory_order_relaxed);
    s.truncated_tails = truncated_tails_.load(std::memory_order_relaxed);
    s.txn_begins = txn_begins_.load(std::memory_order_relaxed);
    s.txn_ends = txn_ends_.load(std::memory_order_relaxed);
    s.recovery_undo_statements =
        recovery_undo_statements_.load(std::memory_order_relaxed);
    s.injected_crashes = injected_crashes_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  std::atomic<uint64_t> wal_appends_{0};
  std::atomic<uint64_t> wal_bytes_{0};
  std::atomic<uint64_t> group_commits_{0};
  std::atomic<uint64_t> full_images_{0};
  std::atomic<uint64_t> delta_records_{0};
  std::atomic<uint64_t> checkpoints_{0};
  std::atomic<uint64_t> recoveries_{0};
  std::atomic<uint64_t> replayed_groups_{0};
  std::atomic<uint64_t> truncated_tails_{0};
  std::atomic<uint64_t> txn_begins_{0};
  std::atomic<uint64_t> txn_ends_{0};
  std::atomic<uint64_t> recovery_undo_statements_{0};
  std::atomic<uint64_t> injected_crashes_{0};
};

/// Accumulates response-time (or other scalar) samples and reports
/// order statistics. Used by the MTD testbed for the 95% quantiles and
/// baseline-compliance metrics of Table 2.
///
/// Thread-safety contract: a SampleSet is NOT thread-safe — not even
/// for concurrent Add() calls, and the accessors sort lazily through
/// `mutable` state, so even concurrent *reads* race. The intended
/// multi-threaded pattern is one SampleSet per worker thread, with the
/// driver calling Merge() on the partial sets strictly after joining
/// the workers (see testbed::ResultDatabase). This keeps the recording
/// hot path free of any synchronization.
class SampleSet {
 public:
  void Add(double v) {
    samples_.push_back(v);
    sorted_ = false;
  }
  void Merge(const SampleSet& other) {
    samples_.insert(samples_.end(), other.samples_.begin(),
                    other.samples_.end());
    sorted_ = false;
  }

  size_t count() const { return samples_.size(); }
  double Mean() const;
  /// q in [0,1]; nearest-rank quantile. Returns 0 on an empty set.
  double Quantile(double q) const;
  double Min() const;
  double Max() const;
  /// Fraction of samples <= threshold (the "baseline compliance" test).
  double FractionBelow(double threshold) const;

  const std::vector<double>& samples() const { return samples_; }

 private:
  // Sorted lazily by the accessors.
  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;

  void EnsureSorted() const;
};

}  // namespace mtdb

#endif  // MTDB_COMMON_METRICS_H_
