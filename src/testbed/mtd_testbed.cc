#include "testbed/mtd_testbed.h"

#include <chrono>
#include <cstdio>
#include <thread>

#include "common/metrics_registry.h"
#include "testbed/data_generator.h"

namespace mtdb {
namespace testbed {

int InstancesFor(double variability, int num_tenants) {
  if (variability <= 0.0) return 1;
  int instances = static_cast<int>(variability * num_tenants + 0.5);
  return instances < 1 ? 1 : instances;
}

MtdTestbed::MtdTestbed(TestbedConfig config) : config_(config) {
  DatabaseOptions options;
  options.engine.memory_budget_bytes = config_.memory_budget_bytes;
  options.engine.read_latency_ns = config_.read_latency_ns;
  db_ = std::make_unique<Database>(options);
}

Status MtdTestbed::Setup() {
  instances_ = InstancesFor(config_.schema_variability, config_.num_tenants);
  for (int i = 0; i < instances_; ++i) {
    MTDB_RETURN_IF_ERROR(CreateCrmInstance(db_.get(), i));
  }
  DataGenerator gen(config_.seed);
  for (int t = 0; t < config_.num_tenants; ++t) {
    MTDB_RETURN_IF_ERROR(gen.LoadTenant(db_.get(), t % instances_, t,
                                        config_.rows_per_table_per_tenant));
  }
  db_->ResetStats();
  return Status::OK();
}

Result<TestbedReport> MtdTestbed::Run(
    const std::map<ActionClass, double>* baseline) {
  Controller controller(config_.seed + 1, config_.num_tenants);
  std::vector<ActionCard> deck = controller.Deal(config_.deck_size);

  // Deal cards round-robin to the worker sessions.
  std::vector<std::vector<ActionCard>> hands(config_.worker_sessions);
  for (size_t i = 0; i < deck.size(); ++i) {
    hands[i % hands.size()].push_back(deck[i]);
  }

  // One session and one private ResultDatabase per worker thread: the
  // hot path records samples lock-free; the partial sets are folded
  // together only after the threads join.
  Counter errors;
  std::vector<ResultDatabase> partials(hands.size());
  auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(hands.size());
  for (size_t w = 0; w < hands.size(); ++w) {
    threads.emplace_back([&, w]() {
      Worker worker(db_.get(), instances_, config_.rows_per_table_per_tenant,
                    config_.seed + 100 + w);
      for (const ActionCard& card : hands[w]) {
        Status st = worker.RunCard(card, &partials[w]);
        if (!st.ok()) errors.Add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const ResultDatabase& partial : partials) results_.Merge(partial);
  auto end = std::chrono::steady_clock::now();
  double elapsed = std::chrono::duration<double>(end - start).count();
  if (errors.value() > 0) {
    return Status::Internal(std::to_string(errors.value()) +
                            " worker actions failed");
  }

  TestbedReport report;
  report.schema_variability = config_.schema_variability;
  report.total_tables = static_cast<int>(db_->Stats().tables);
  report.elapsed_seconds = elapsed;
  report.throughput_per_min =
      static_cast<double>(results_.TotalActions()) / elapsed * 60.0;
  static const ActionClass kClasses[] = {
      ActionClass::kSelectLight, ActionClass::kSelectHeavy,
      ActionClass::kInsertLight, ActionClass::kInsertHeavy,
      ActionClass::kUpdateLight, ActionClass::kUpdateHeavy,
  };
  for (ActionClass c : kClasses) {
    report.p95_ms[c] = results_.Samples(c).Quantile(0.95);
  }
  EngineStats stats = db_->Stats();
  report.hit_ratio_data = stats.buffer.HitRatioData();
  report.hit_ratio_index = stats.buffer.HitRatioIndex();

  // Baseline compliance: percentage of all actions whose response time
  // is within the variability-0.0 baseline's per-class 95% quantile.
  if (baseline != nullptr) {
    uint64_t total = 0, within = 0;
    for (ActionClass c : kClasses) {
      auto it = baseline->find(c);
      if (it == baseline->end()) continue;
      const SampleSet& s = results_.Samples(c);
      total += s.count();
      within += static_cast<uint64_t>(s.FractionBelow(it->second) *
                                      static_cast<double>(s.count()) + 0.5);
    }
    report.baseline_compliance_pct =
        total == 0 ? 0.0
                   : 100.0 * static_cast<double>(within) /
                         static_cast<double>(total);
  } else {
    report.baseline_compliance_pct = 95.0;  // by definition (§5)
  }
  return report;
}

void PrintReport(const TestbedReport& report) {
  std::printf("variability=%.2f tables=%d\n", report.schema_variability,
              report.total_tables);
  std::printf("  Baseline Compliance [%%]   %8.1f\n",
              report.baseline_compliance_pct);
  std::printf("  Throughput [1/min]        %10.1f\n",
              report.throughput_per_min);
  for (const auto& [action, p95] : report.p95_ms) {
    std::printf("  95%% Response %-14s %8.2f ms\n", ActionClassName(action),
                p95);
  }
  std::printf("  Bufferpool Hit Ratio Data  %7.2f %%\n",
              report.hit_ratio_data * 100.0);
  std::printf("  Bufferpool Hit Ratio Index %7.2f %%\n",
              report.hit_ratio_index * 100.0);
}

}  // namespace testbed
}  // namespace mtdb
