//===- GeneratedSelector.cpp - Rule-library-driven selector -------------------===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//

#include "isel/GeneratedSelector.h"

#include "isel/SelectionEngine.h"

using namespace selgen;

namespace {

/// Candidate discovery by a linear scan over the whole library — the
/// paper prototype's strategy. The only filter is the root opcode, so
/// every rule whose root could align with the subject node is offered
/// in priority order.
class LinearCandidateSource : public RuleCandidateSource {
public:
  explicit LinearCandidateSource(const PreparedLibrary &Library)
      : Library(Library) {}

  void forEachBodyCandidate(
      const Node *S,
      const std::function<bool(const PreparedRule &)> &TryRule) override {
    for (const PreparedRule &R : Library.rules()) {
      if (R.IsJumpRule || R.Root->opcode() != S->opcode())
        continue;
      if (TryRule(R))
        return;
    }
  }

  void forEachJumpCandidate(
      NodeRef Condition,
      const std::function<bool(const PreparedRule &)> &TryRule) override {
    (void)Condition;
    for (const PreparedRule &R : Library.rules()) {
      // The goal's "taken" result must be the Cond node's taken output;
      // a rule wired the other way around would need inverted branch
      // targets, which the prototype does not do.
      if (!R.IsJumpRule || R.Root->opcode() != Opcode::Cond ||
          !R.TakenIsCondZero)
        continue;
      if (TryRule(R))
        return;
    }
  }

private:
  const PreparedLibrary &Library;
};

} // namespace

GeneratedSelector::GeneratedSelector(const PatternDatabase &Database,
                                     const GoalLibrary &Goals)
    : Library(Database, Goals) {}

SelectionResult GeneratedSelector::select(const Function &F) {
  LinearCandidateSource Source(Library);
  SelectionResult Result = runRuleSelection(F, Library, Source, CostKind::Unit, name());
  noteSelectionStatistics(Result);
  return Result;
}
