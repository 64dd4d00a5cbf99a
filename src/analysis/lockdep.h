#ifndef MTDB_ANALYSIS_LOCKDEP_H_
#define MTDB_ANALYSIS_LOCKDEP_H_

#include <vector>

#include "analysis/diagnostic.h"
#include "common/latch.h"

namespace mtdb {
namespace analysis {

/// Diagnostic-layer view of the lockdep latch-order validator and WAL-
/// protocol analyzer. The runtime itself lives in common/latch.h/.cc
/// (the analysis library sits above catalog/core, so the latch layer
/// cannot depend on it); this adapter renders its raw violations as
/// rule-cataloged Diagnostics (C201–C206, C301–C304).
///
/// Only meaningful in instrumented builds (-DMTDB_LOCKDEP=ON); in
/// release builds the wrappers compile down to raw primitives and every
/// call here reports a clean slate.

/// True when the validator is compiled into this build.
inline bool LockdepCompiledIn() { return lockdep::CompiledIn(); }

/// Fatal mode: abort the process on the first violation (what the CI
/// lockdep job runs under, via MTDB_LOCKDEP_FATAL=1). Tests that seed
/// deliberate violations turn this off before provoking them.
inline void LockdepSetFatal(bool fatal) { lockdep::SetFatal(fatal); }

/// Drains every violation recorded since the previous drain, rendered as
/// Diagnostics (severity kError, acquisition backtraces appended to the
/// message). Empty means a clean run.
std::vector<Diagnostic> DrainLockdepDiagnostics();

/// Total violations recorded since process start (Drain does not reset
/// this). Useful for cheap "still clean?" assertions between test
/// phases.
inline uint64_t LockdepTotalViolations() {
  return lockdep::TotalViolations();
}

}  // namespace analysis
}  // namespace mtdb

#endif  // MTDB_ANALYSIS_LOCKDEP_H_
