//===- GeneratedSelector.h - Rule-library-driven selector --------*- C++ -*-===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The prototype instruction selector generated from a synthesized
/// rule library (paper Sections 3/5.6/7.3): a greedy DAG selector that
/// tries the library's rules most-specific-first at every uncovered
/// node and rewrites matched subgraphs to the goal instruction's
/// machine code. Rules are tried one by one — the paper reports (and
/// we reproduce) that this makes the full-library selector orders of
/// magnitude slower than the handwritten one; it is a property of the
/// prototype matcher, not of the synthesized library. The
/// discrimination-tree MappedAutomatonSelector (isel/AutomatonSelector.h)
/// removes that linear scan while producing identical machine code.
///
/// Uncovered operations fall back to a naive per-operation lowering
/// and are counted against coverage (Section 7.3's metric).
///
//===----------------------------------------------------------------------===//

#ifndef SELGEN_ISEL_GENERATEDSELECTOR_H
#define SELGEN_ISEL_GENERATEDSELECTOR_H

#include "isel/PreparedLibrary.h"
#include "isel/Selector.h"

namespace selgen {

/// Instruction selector driven by a synthesized pattern database.
/// Candidate rules for each subject node are found by a linear scan
/// over the whole library.
class GeneratedSelector : public InstructionSelector {
public:
  /// \p Database provides the rules; \p Goals the emission recipes (a
  /// rule whose goal is missing from \p Goals is ignored). The
  /// database should already be filtered and sorted (Section 5.6);
  /// construction re-sorts defensively.
  GeneratedSelector(const PatternDatabase &Database,
                    const GoalLibrary &Goals);

  std::string name() const override { return "synthesized"; }
  SelectionResult select(const Function &F) override;

  /// Number of usable (goal-resolved) rules.
  size_t numRules() const { return Library.rules().size(); }

  /// The prepared (priority-ordered) rule library.
  const PreparedLibrary &library() const { return Library; }

private:
  PreparedLibrary Library;
};

} // namespace selgen

#endif // SELGEN_ISEL_GENERATEDSELECTOR_H
