#ifndef MTDB_ANALYSIS_DIAGNOSTIC_H_
#define MTDB_ANALYSIS_DIAGNOSTIC_H_

#include <string>
#include <vector>

namespace mtdb {
namespace analysis {

enum class Severity { kWarning, kError };

const char* SeverityName(Severity severity);

/// One violation found by a static analysis pass. `rule_id` names the
/// rule in the catalog (DESIGN.md "Static verification"): "Lxxx" for the
/// layout auditor, "Ixxx" for the tenant-isolation linter, "Vxxx" for
/// the verifier driver itself.
struct Diagnostic {
  Severity severity = Severity::kError;
  std::string rule_id;
  /// Where the violation sits, e.g. "tenant 17, table account, source 2
  /// (chunkdata)" or "tenant 35, UPDATE pivot_int".
  std::string location;
  std::string message;

  /// "error L004 [tenant 17, table account]: ...".
  std::string ToString() const;
};

/// One line per diagnostic, newline-terminated; empty string when clean.
std::string FormatDiagnostics(const std::vector<Diagnostic>& diagnostics);

bool HasErrors(const std::vector<Diagnostic>& diagnostics);

// ---------------------------------------------------------- rule catalog

// Layout-invariant auditor (layout_auditor.h).
inline constexpr const char* kRuleUnmappedColumn = "L001";
inline constexpr const char* kRuleSlotCollision = "L002";
inline constexpr const char* kRuleColumnOrderMismatch = "L003";
inline constexpr const char* kRuleTypeNarrowing = "L004";
inline constexpr const char* kRuleOrphanSource = "L005";
inline constexpr const char* kRuleDanglingTable = "L006";
inline constexpr const char* kRuleMissingPhysicalColumn = "L007";
inline constexpr const char* kRulePartialRowKey = "L008";
inline constexpr const char* kRuleSharedTableUnscoped = "L009";
inline constexpr const char* kRulePartitionTypeMismatch = "L010";
inline constexpr const char* kRuleBadSourceIndex = "L011";
inline constexpr const char* kRuleDuplicateSource = "L012";

// Tenant-isolation linter (isolation_linter.h).
inline constexpr const char* kRuleMissingTenantConjunct = "I101";
inline constexpr const char* kRuleWrongTenantLiteral = "I102";
inline constexpr const char* kRuleUnalignedReconstruction = "I103";
inline constexpr const char* kRuleDmlTenantWidening = "I104";
inline constexpr const char* kRuleCrossTenantLockCoupling = "I105";

// Verifier driver (verifier.h).
inline constexpr const char* kRuleProbeFailed = "V001";

// Lockdep latch-order validator (lockdep.h; runtime in common/latch.h).
inline constexpr const char* kRuleRankInversion = "C201";
inline constexpr const char* kRuleOrderKeyInversion = "C202";
inline constexpr const char* kRuleAcquisitionCycle = "C203";
inline constexpr const char* kRuleRecursiveAcquisition = "C204";
inline constexpr const char* kRuleReleaseNotHeld = "C205";
inline constexpr const char* kRuleThreadExitHolding = "C206";

// WAL-protocol analyzer (lockdep.h).
inline constexpr const char* kRuleUnloggedPageMutation = "C301";
inline constexpr const char* kRuleCaptureLeak = "C302";
inline constexpr const char* kRuleUnlatchedCommit = "C303";
inline constexpr const char* kRuleMissingWriteIntent = "C304";

}  // namespace analysis
}  // namespace mtdb

#endif  // MTDB_ANALYSIS_DIAGNOSTIC_H_
