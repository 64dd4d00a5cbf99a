#ifndef MTDB_ANALYSIS_VERIFIER_H_
#define MTDB_ANALYSIS_VERIFIER_H_

#include <vector>

#include "analysis/diagnostic.h"
#include "common/result.h"
#include "core/layout.h"

namespace mtdb {
namespace analysis {

/// What the verifier runs. All passes default on.
struct VerifyOptions {
  /// Static audit of every (tenant, table) mapping (L-rules).
  bool audit_layout = true;
  /// Replays the §6.1 query transformer over every (tenant, table) in
  /// both emit modes and lints the emitted physical SELECTs (I-rules).
  bool lint_queries = true;
  /// Drives real UPDATE/DELETE probes through the layout (§6.3's
  /// two-phase DML), capturing the emitted physical statements via the
  /// PhysicalStatementObserver hook and linting them (I101/I102/I104).
  /// NOTE: this pass MUTATES the layout's data — it inserts sentinel
  /// probe rows and deletes them again. Run it against a dedicated
  /// verification instance (as examples/verify_layouts.cc does), not a
  /// production database.
  bool probe_dml = true;
};

/// Drives the static mapping verifier over one live layout: layout-
/// invariant audit, query-emission lint (kNested and kFlattened), and
/// two-phase DML probes. Returns every finding; a hard failure of the
/// harness itself (not of a probe) is a Status.
class Verifier {
 public:
  explicit Verifier(mapping::SchemaMapping* layout) : layout_(layout) {}

  Result<std::vector<Diagnostic>> Run(const VerifyOptions& options = {});

 private:
  void LintQueries(std::vector<Diagnostic>* out);
  void ProbeDml(std::vector<Diagnostic>* out);

  mapping::SchemaMapping* layout_;
};

}  // namespace analysis
}  // namespace mtdb

#endif  // MTDB_ANALYSIS_VERIFIER_H_
