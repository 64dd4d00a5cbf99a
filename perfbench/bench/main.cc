// The logical-statement benchmark: runs one named workload against the
// mapping layer's front door (SchemaMapping::OpenSession ->
// TenantSession::Query/Execute) and prints, as its last line, one JSON
// object with the correctness verdict, the attempted and failed
// statement counts and the metrics. See perfbench/README.md.
//
//   perfbench --workload oltp_mem --seed 1 --seconds 10 --trace 0
//             --work-dir <dir> [--smoke 1] [--break-check 1]
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "bench/workload.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <oltp_mem|oltp_durable|"
               "report_cold> --seed <n> --seconds <s> --trace <0|1> "
               "--work-dir <dir> [--smoke 0|1] "
               "[--break-check 0|1]\n");
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  perfbench::RunOptions options;
  bool smoke = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string val = argv[i + 1];
    if (key == "--workload") {
      workload = val;
    } else if (key == "--seed") {
      options.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      options.seconds = std::atof(val.c_str());
    } else if (key == "--trace") {
      options.trace = val == "1";
    } else if (key == "--work-dir") {
      options.work_dir = val;
    } else if (key == "--smoke") {
      smoke = val == "1";
    } else if (key == "--break-check") {
      options.break_check = val == "1";
    } else {
      Usage();
      return 2;
    }
  }
  const perfbench::WorkloadSpec* spec = perfbench::FindWorkload(workload, smoke);
  if (spec == nullptr || options.seconds <= 0 || options.work_dir.empty() ||
      argc % 2 == 0) {
    Usage();
    return 2;
  }
  options.spec = *spec;
  std::error_code ec;
  std::filesystem::create_directories(options.work_dir, ec);

  perfbench::RunReport report;
  bool ran = perfbench::RunWorkload(options, &report);
  for (const std::string& p : report.problems) {
    std::fprintf(stderr, "perfbench %s: %s\n", workload.c_str(), p.c_str());
  }
  if (!ran) return 1;

  std::string json = "{\"correct\": ";
  json += report.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const perfbench::Metric& m = report.metrics[i];
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + JsonNumber(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
