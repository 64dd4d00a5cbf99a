// Reproduces Figure 10: "Number of logical page reads" for Q2 across the
// conventional layout and Chunk Tables of various widths. Every join
// with an additional base table increases the logical page reads — the
// trade-off between compile-time and runtime meta-data interpretation.
//
// Exits 1 unless the figure's shape holds: conventional is flat, each
// chunk width is non-decreasing in the scale factor, and each width
// steps up whenever Q2 touches another chunk.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "chunk_bench_common.h"

namespace mtdb {
namespace bench {
namespace {

/// Chunk-table sources in Q2's physical form: one `chunk = <n>` meta-data
/// predicate per source (0 for the conventional layout).
Result<int> ChunksTouched(Deployment* d, const std::string& sql) {
  MTDB_ASSIGN_OR_RETURN(std::string physical,
                        d->layout->ShowTransformed(0, sql));
  int n = 0;
  for (size_t at = physical.find("chunk = "); at != std::string::npos;
       at = physical.find("chunk = ", at + 1)) {
    n++;
  }
  return n;
}

int Main() {
  ChunkBenchConfig config;
  if (const char* env = std::getenv("MTDB_BENCH_PARENTS")) {
    config.parents = std::atoi(env);
  }
  std::printf("=== Figure 10: Q2 logical page reads per execution ===\n");

  std::vector<std::unique_ptr<Deployment>> deployments;
  {
    auto conv = MakeDeployment(config, 0);
    if (!conv.ok()) return 1;
    deployments.push_back(std::move(*conv));
  }
  for (int width : config.widths) {
    auto d = MakeDeployment(config, width);
    if (!d.ok()) return 1;
    deployments.push_back(std::move(*d));
  }

  std::printf("%-6s", "scale");
  for (const auto& d : deployments) std::printf(" %12s", d->label.c_str());
  std::printf("\n");

  std::vector<Value> params{Value::Int64(config.parents / 2)};
  // reads[d][i] and chunks[d][i]: deployment d at the i-th scale factor.
  std::vector<std::vector<double>> reads(deployments.size());
  std::vector<std::vector<int>> chunks(deployments.size());
  std::vector<int> scales;
  for (int scale = 6; scale <= 90; scale += 6) {
    scales.push_back(scale);
    std::printf("%-6d", scale);
    const std::string q2 = BuildQ2(scale);
    for (size_t d = 0; d < deployments.size(); ++d) {
      auto r = RunQuery(deployments[d].get(), q2, params, /*reps=*/3,
                        /*cold=*/false);
      auto touched = ChunksTouched(deployments[d].get(), q2);
      if (!r.ok() || !touched.ok()) {
        std::fprintf(stderr, "\nquery: %s\n",
                     (r.ok() ? touched.status() : r.status()).ToString().c_str());
        return 1;
      }
      std::printf(" %12.1f", r->logical_reads);
      reads[d].push_back(r->logical_reads);
      chunks[d].push_back(*touched);
    }
    std::printf("\n");
  }
  std::printf(
      "\nExpected shape: reads grow with the number of chunks touched;\n"
      "chunk3 reads an order of magnitude more pages than conventional\n"
      "at high scale factors (Fig. 10).\n");

  int violations = 0;
  auto fail = [&](const std::string& label, int scale, const char* what) {
    std::printf("shape violation: %s at scale %d: %s\n", label.c_str(), scale,
                what);
    violations++;
  };
  for (size_t d = 0; d < deployments.size(); ++d) {
    const std::string& label = deployments[d]->label;
    for (size_t i = 1; i < scales.size(); ++i) {
      if (deployments[d]->width == 0) {
        if (reads[d][i] != reads[d][0]) fail(label, scales[i], "not flat");
        continue;
      }
      if (reads[d][i] < reads[d][i - 1]) {
        fail(label, scales[i], "fewer reads than at the previous scale");
      }
      if (chunks[d][i] > chunks[d][i - 1] && reads[d][i] <= reads[d][i - 1]) {
        fail(label, scales[i], "touches another chunk without a step up");
      }
    }
  }
  const double ratio = reads[1].back() / reads[0].back();
  std::printf("%s / conventional at scale %d: %.1fx\n",
              deployments[1]->label.c_str(), scales.back(), ratio);
  if (violations > 0) {
    std::printf("FAIL: %d shape violations\n", violations);
    return 1;
  }
  std::printf("shape check: ok\n");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace mtdb

int main() { return mtdb::bench::Main(); }
