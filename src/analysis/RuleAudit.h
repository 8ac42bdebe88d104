//===- RuleAudit.h - Rule-library and IR-file linting ------------*- C++ -*-===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The audit engine behind tools/selgen-lint. Three kinds of subjects:
///
/// * Prepared rule libraries: rules whose shift precondition is
///   unsatisfiable (the dataflow analysis proves the amount out of
///   range, one SMT query per flagged rule confirms P+ is unsat),
///   rules shadowed by an earlier more-general rule (discrimination
///   tree walk proposes candidates, a structural pattern-as-subject
///   match plus an SMT subsumption query on the preconditions
///   confirms), rules additionally cost-dominated by such a subsumer
///   (no cheaper under any shipped cost model, so even the latency and
///   size models' tiling never selects them), jump rules the selection
///   engine can never try, and rules the normalizer would reject today.
///
/// * Textual IR files: parse errors, ir::Verifier findings, and shift
///   operations whose UB-freedom the analysis cannot discharge.
///
/// Findings carry a stable machine-readable code and a severity
/// ("error" | "warning" | "note"); CI fails the build on any error.
///
//===----------------------------------------------------------------------===//

#ifndef SELGEN_ANALYSIS_RULEAUDIT_H
#define SELGEN_ANALYSIS_RULEAUDIT_H

#include "isel/PreparedLibrary.h"

#include <set>
#include <string>
#include <vector>

namespace selgen {

/// One lint finding.
struct LintFinding {
  std::string Code;     ///< Stable finding code, e.g. "unsat-precondition".
  std::string Severity; ///< "error", "warning", or "note".
  std::string Message;  ///< Human-readable explanation.
  std::string Library;  ///< Library path (library findings only).
  std::string Goal;     ///< Goal name (library findings only).
  int RuleIndex = -1;   ///< Prepared priority index (library findings).
  std::string File;     ///< IR file path (file findings only).
  /// Stable identity for baselining: crc32 over the finding code plus
  /// the rule's goal and canonical pattern fingerprint (library
  /// findings) or the file and message (file findings). Survives rule
  /// reordering and unrelated library edits; a changed pattern is a
  /// new finding by design.
  std::string Fingerprint;
};

struct LintOptions {
  unsigned SmtTimeoutMs = 10000; ///< Per-query solver budget.
  bool CheckPreconditions = true;
  bool CheckShadowing = true;
  /// Report every subsuming pair instead of deduplicating to one
  /// shadowed-rule and one cost-dominated finding per rule. The
  /// default keeps the human-facing report readable; consumers that
  /// need the full relation (the minimizer's certificates, relation
  /// dumps) flip this on.
  bool ReportAllSubsumers = false;
};

/// Audits a prepared rule library. \p LibraryName labels the findings
/// (typically the .dat path).
std::vector<LintFinding> auditPreparedLibrary(const PreparedLibrary &Library,
                                              unsigned Width,
                                              const std::string &LibraryName,
                                              const LintOptions &Options = {});

/// Audits one textual IR file.
std::vector<LintFinding> auditIrText(const std::string &Text,
                                     const std::string &FileName);

/// Renders findings as the JSON document CI consumes. Each finding is
/// stamped with its stable fingerprint; \p Suppressed records how many
/// findings a baseline filtered out before rendering.
std::string findingsToJson(const std::vector<LintFinding> &Findings,
                           size_t Suppressed = 0);

/// Extracts the set of finding fingerprints from a previously-published
/// findings JSON document (the --baseline file).
std::set<std::string> parseBaselineFingerprints(
    const std::string &BaselineJson);

/// Removes findings whose fingerprint appears in \p Baseline (the
/// previously-acknowledged set); returns how many were suppressed.
/// Findings without a fingerprint are never suppressed.
size_t suppressBaselinedFindings(std::vector<LintFinding> &Findings,
                                 const std::set<std::string> &Baseline);

/// True if any finding carries severity "error".
bool lintHasErrors(const std::vector<LintFinding> &Findings);

} // namespace selgen

#endif // SELGEN_ANALYSIS_RULEAUDIT_H
