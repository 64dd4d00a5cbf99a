// Ablation (DESIGN.md E10): the meta-data budget as a first-class
// resource. Sweeps the number of tables in a fixed memory budget and
// reports the buffer-pool capacity, index-root residency, and point-
// lookup latency — the raw mechanism behind §5's "performance on a blade
// server begins to degrade beyond about 50,000 tables".
#include <chrono>
#include <cstdio>

#include "common/rng.h"
#include "engine/database.h"

namespace mtdb {
namespace {

int Main() {
  std::printf("=== Ablation: meta-data budget vs. table count ===\n");
  std::printf("memory budget: 8 MB, 4 KB meta-data charge per table\n\n");
  std::printf("%-8s %-10s %-10s %-12s %-12s %-10s\n", "tables", "frames",
              "meta(KB)", "lookup(us)", "idx hit(%)", "data hit(%)");

  for (int tables : {10, 50, 100, 200, 400, 800}) {
    DatabaseOptions options;
    options.engine.memory_budget_bytes = 8ull * 1024 * 1024;
    Database db(options);
    Rng rng(1);
    for (int t = 0; t < tables; ++t) {
      std::string name = "t" + std::to_string(t);
      Status st = db.Execute("CREATE TABLE " + name +
                             " (id BIGINT, a INT, b VARCHAR)")
                      .status();
      if (!st.ok()) return 1;
      st = db.Execute("CREATE UNIQUE INDEX ux_" + name + " ON " + name +
                      " (id)")
               .status();
      if (!st.ok()) return 1;
      for (int r = 0; r < 20; ++r) {
        st = db.Execute("INSERT INTO " + name + " VALUES (" +
                        std::to_string(r) + ", " +
                        std::to_string(rng.Uniform(0, 1000)) + ", '" +
                        rng.Word(8, 16) + "')")
                 .status();
        if (!st.ok()) return 1;
      }
    }
    db.ResetStats();
    // Random point lookups across all tables: with many tables the index
    // roots no longer fit in the shrunken buffer pool.
    const int lookups = 3000;
    auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < lookups; ++i) {
      std::string name = "t" + std::to_string(rng.Uniform(0, tables - 1));
      auto r = db.Query("SELECT a FROM " + name + " WHERE id = ?",
                        {Value::Int64(rng.Uniform(0, 19))});
      if (!r.ok()) return 1;
    }
    auto end = std::chrono::steady_clock::now();
    double us_per_lookup =
        std::chrono::duration<double, std::micro>(end - start).count() /
        lookups;
    EngineStats stats = db.Stats();
    std::printf("%-8d %-10zu %-10llu %-12.2f %-12.2f %-10.2f\n", tables,
                stats.buffer_capacity,
                static_cast<unsigned long long>(stats.metadata_bytes / 1024),
                us_per_lookup, stats.buffer.HitRatioIndex() * 100.0,
                stats.buffer.HitRatioData() * 100.0);
  }
  std::printf(
      "\nExpected shape: as tables rise, the meta-data charge shrinks the\n"
      "buffer pool, the index hit ratio collapses first (roots compete\n"
      "for frames), and lookup latency climbs — §5's mechanism.\n");
  return 0;
}

}  // namespace
}  // namespace mtdb

int main() { return mtdb::Main(); }
