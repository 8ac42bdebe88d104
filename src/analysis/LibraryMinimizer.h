//===- LibraryMinimizer.h - Proof-carrying dead-rule elimination -*- C++ -*-===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The whole-library minimization pass behind tools/selgen-minimize:
/// computes the full subsumption relation (analysis/Subsumption) over
/// a prepared library, classifies every rule as live, unfireable (its
/// shift precondition P+ is unsatisfiable), shadowed (unreachable
/// under first-match priority, i.e. the unit cost model), or
/// cost-dominated (never selected by the tiling DP under a given
/// latency or size model either), and emits a minimized library plus
/// one machine-checkable deletion certificate per removed rule.
///
/// Soundness contract (DESIGN.md section 4g):
///
/// * An unfireable deletion requires every live shift amount in the
///   pattern to be a literal constant: only then does the selection
///   engine's precondition gate reduce to the matched-constant check
///   (sound dataflow facts can never prove an out-of-range constant
///   in range), so an SMT-verified unsatisfiable P+ means the gate
///   rejects every match and the rule can never fire — under either
///   policy. Rules whose unsatisfiability flows through computed
///   amounts are kept: the runtime gate does not re-check those.
/// * A rule is deleted only against a *kept* subsumer, resolved in
///   ascending priority order — in a shadow chain A > B > C the
///   certificates for both B and C name the transitive survivor A,
///   never each other.
/// * An SMT timeout or Unknown on the entailment query keeps the rule
///   (the pair never enters the relation); minimization degrades to
///   "delete less", never to an unsound delete.
/// * Under the first-match policy, deletions preserve the selection of
///   every first-match selector byte-for-byte; the dominated policy
///   additionally requires the surviving subsumer to cost no more
///   under the chosen model, which the certificates record and the
///   benchmarks validate empirically (a more general survivor can tile
///   a subject differently, so dominance is cost-validated, not
///   proof-preserving).
/// * Rules the preparation step cannot see (unresolved goals, rootless
///   identity-move rules, inapplicable jump rules' siblings) pass
///   through untouched.
///
//===----------------------------------------------------------------------===//

#ifndef SELGEN_ANALYSIS_LIBRARYMINIMIZER_H
#define SELGEN_ANALYSIS_LIBRARYMINIMIZER_H

#include "analysis/Subsumption.h"
#include "cost/CostModel.h"
#include "pattern/PatternDatabase.h"
#include "x86/Goals.h"

#include <cstdint>
#include <string>
#include <vector>

namespace selgen {

/// What the pass concluded about one prepared rule.
enum class RuleClass {
  Live,          ///< No kept subsumer; the rule stays.
  Unfireable,    ///< Shift precondition P+ unsatisfiable (and every
                 ///< live shift amount is a literal constant): the
                 ///< precondition gate rejects every match, so the
                 ///< rule can never fire under any selector.
  Shadowed,      ///< Unreachable under first-match priority.
  CostDominated, ///< Shadowed, and the kept subsumer costs no more
                 ///< under the requested model.
};

const char *ruleClassName(RuleClass Class);

/// Which deletions the pass is allowed to take.
enum class MinimizePolicy {
  /// Delete every shadowed rule. Sound for all first-match selectors
  /// (linear, automaton, server): selection is byte-identical.
  FirstMatch,
  /// Delete only cost-dominated rules: deletions the selection
  /// engine's tiling DP can also never regret under the chosen model.
  Dominated,
};

const char *minimizePolicyName(MinimizePolicy Policy);

struct MinimizeOptions {
  unsigned SmtTimeoutMs = 10000;
  MinimizePolicy Policy = MinimizePolicy::FirstMatch;
  /// Cost model consulted for the CostDominated classification and by
  /// the Dominated policy.
  CostKind Model = CostKind::Latency;
};

/// One deletion, with everything needed to re-check it: the deleted
/// rule, the surviving subsumer the deletion leans on (unfireable
/// deletions lean on no subsumer — the subsumer fields stay empty),
/// the fingerprint of the SMT query that proved the precondition
/// entailment or unsatisfiability (empty for purely structural
/// subsumption), and the cost comparison.
struct DeletionCertificate {
  uint32_t RuleIndex = 0; ///< Prepared priority index of the deleted rule.
  std::string Goal;
  std::string PatternFingerprint; ///< crc32 hex of the canonical pattern.
  RuleClass Class = RuleClass::Shadowed;
  uint32_t SubsumerIndex = 0; ///< Prepared index of the kept survivor.
  std::string SubsumerGoal;
  std::string SubsumerPatternFingerprint;
  bool NeededSmt = false;
  std::string SmtQueryFingerprint; ///< Empty when !NeededSmt.
  RuleCost Cost;         ///< Deleted rule's cost vector.
  RuleCost SubsumerCost; ///< Survivor's cost vector.
};

struct MinimizeResult {
  PatternDatabase Minimized;
  std::vector<DeletionCertificate> Certificates;
  /// Per prepared index: the classification (deletion depends on the
  /// policy; a CostDominated rule survives nothing, a Shadowed rule
  /// survives the Dominated policy).
  std::vector<RuleClass> Classes;
  uint64_t RulesBefore = 0;    ///< Database rules in.
  uint64_t RulesAfter = 0;     ///< Database rules out.
  uint64_t PreparedRules = 0;  ///< Rules the analysis could see.
  uint64_t UnpreparedKept = 0; ///< Pass-through rules (kept verbatim).
  uint64_t SmtQueries = 0;
  uint64_t SmtInconclusive = 0; ///< Timeouts/Unknowns; each kept a rule.
  std::string FingerprintBefore; ///< Prepared-library fingerprint in.
  std::string FingerprintAfter;  ///< Prepared-library fingerprint out.
};

/// Runs the pass. \p Database should carry the shipped library
/// unfiltered (the minimizer re-sorts defensively, exactly like
/// preparation); \p Goals must outlive the call.
MinimizeResult minimizeLibrary(const PatternDatabase &Database,
                               const GoalLibrary &Goals,
                               const MinimizeOptions &Options = {});

/// Renders the deletion certificates as the JSON document CI archives.
/// \p LibraryName labels the header (typically the input .dat path).
std::string certificatesToJson(const MinimizeResult &Result,
                               const MinimizeOptions &Options,
                               const std::string &LibraryName);

} // namespace selgen

#endif // SELGEN_ANALYSIS_LIBRARYMINIMIZER_H
