//===- PreparedLibrary.h - Rules prepared for matching -----------*- C++ -*-===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The rule-library preparation shared by every rule-driven selector
/// and by the matcher-automaton compiler (src/matchergen): a sorted,
/// goal-resolved copy of a PatternDatabase with per-rule matching
/// metadata (pattern root, jump-rule classification, priority index).
/// Keeping this in one place guarantees that the linear selector, the
/// automaton selector, and a serialized automaton all agree on the
/// rule priority order — the property the byte-identical-output
/// differential tests rely on.
///
//===----------------------------------------------------------------------===//

#ifndef SELGEN_ISEL_PREPAREDLIBRARY_H
#define SELGEN_ISEL_PREPAREDLIBRARY_H

#include "cost/CostModel.h"
#include "pattern/PatternDatabase.h"
#include "x86/Goals.h"

#include <cstdint>
#include <string>
#include <vector>

namespace selgen {

/// A rule prepared for matching.
struct PreparedRule {
  const Rule *TheRule = nullptr;
  const GoalInstruction *Goal = nullptr;
  const Node *Root = nullptr; ///< Pattern root operation (never null here).
  bool IsJumpRule = false;    ///< Goal is a compare-and-jump pair.
  /// Jump rules only: the pattern's first boolean result is the Cond
  /// node's taken output (result 0). A rule wired the other way around
  /// would need inverted branch targets, which the prototype does not
  /// do; such rules never fire.
  bool TakenIsCondZero = false;
  /// Position in the most-specific-first priority order. Leaves of the
  /// matching automaton refer to rules by this index.
  uint32_t Index = 0;
  /// Cost vector of the goal's emission recipe (cost/CostModel.h),
  /// derived at prepare time. Identical for all rules of one goal.
  RuleCost Cost;
};

/// A priority-ordered, goal-resolved rule library ready for matching.
class PreparedLibrary {
public:
  /// \p Database provides the rules; \p Goals the emission recipes (a
  /// rule whose goal is missing from \p Goals is ignored). The
  /// database should already be filtered (Section 5.6). Preparation
  /// copies the rules in specificFirstOrder(), so an unsorted database
  /// gets the same priority order; on a sorted one the stable order
  /// keeps it. Rules are copied and rooted in parallel (parallelFor).
  /// \p Goals must outlive this object.
  PreparedLibrary(const PatternDatabase &Database, const GoalLibrary &Goals);

  PreparedLibrary(const PreparedLibrary &) = delete;
  PreparedLibrary &operator=(const PreparedLibrary &) = delete;

  /// Moving is safe: every PreparedRule pointer targets the heap
  /// buffer of OwnedRules (which a vector move preserves) or the
  /// external GoalLibrary. Lets a caller prepare once and hand the
  /// result to a selector without a redundant re-prepare.
  PreparedLibrary(PreparedLibrary &&) = default;
  PreparedLibrary &operator=(PreparedLibrary &&) = default;

  /// Usable (goal-resolved, rooted) rules in priority order.
  const std::vector<PreparedRule> &rules() const { return Rules; }

  /// The goal used to materialize constants (a single-Imm-argument
  /// identity rule, mov_ri), or null if the library has none.
  const GoalInstruction *immediateMoveGoal() const {
    return ImmediateMoveGoal;
  }

  /// Stable content hash over the prepared rule sequence (goal names +
  /// pattern fingerprints in priority order). A serialized matching
  /// automaton records this so a stale automaton file is rejected, not
  /// misread, when the rule library changes.
  const std::string &fingerprint() const { return Fingerprint; }

private:
  std::vector<Rule> OwnedRules; ///< Sorted copy of the database rules.
  std::vector<PreparedRule> Rules;
  const GoalInstruction *ImmediateMoveGoal = nullptr;
  std::string Fingerprint;
};

/// Loads the rule library a selector runs off, the one way the
/// selector tools (selgen-compile, selgen-served, selgen-matchergen)
/// do it: PatternDatabase::loadFromFile(), filterNonNormalized(),
/// sortSpecificFirst(). Adds the elapsed microseconds to the
/// pattern.load_us counter (Statistics). Aborts on an unreadable or
/// corrupt file, like loadFromFile().
PatternDatabase loadSelectorLibrary(const std::string &Path);

/// PreparedLibrary(Database, Goals), adding the elapsed microseconds
/// to the isel.prepare_us counter.
PreparedLibrary prepareSelectorLibrary(const PatternDatabase &Database,
                                       const GoalLibrary &Goals);

} // namespace selgen

#endif // SELGEN_ISEL_PREPAREDLIBRARY_H
