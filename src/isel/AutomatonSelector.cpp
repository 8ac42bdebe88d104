//===- AutomatonSelector.cpp - Discrimination-tree selector -------------------===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//

#include "isel/AutomatonSelector.h"

#include "isel/SelectionEngine.h"
#include "support/Error.h"

#include <utility>

using namespace selgen;

namespace {

/// Selector name under cost model \p Kind; it is part of the emitted
/// machine function's header line.
const char *selectorName(CostKind Kind) {
  return Kind == CostKind::Unit ? "automaton" : "tiling";
}

} // namespace

MatcherAutomaton selgen::buildMatcherAutomaton(const PreparedLibrary &Library) {
  std::vector<AutomatonPattern> Patterns;
  for (const PreparedRule &R : Library.rules()) {
    if (R.IsJumpRule &&
        (R.Root->opcode() != Opcode::Cond || !R.TakenIsCondZero))
      continue; // Never tried by the selection engine either.
    AutomatonPattern P;
    P.Pattern = &R.TheRule->Pattern;
    P.Root = R.Root;
    P.IsJump = R.IsJumpRule;
    P.RuleIndex = R.Index;
    Patterns.push_back(P);
  }
  return MatcherAutomaton::compile(
      Patterns, Library.fingerprint(),
      static_cast<uint32_t>(Library.rules().size()));
}

std::string
selgen::automatonStalenessError(const BinaryAutomatonView &View,
                                const PreparedLibrary &Library) {
  if (View.libraryFingerprint() != Library.fingerprint())
    return "automaton image was compiled for library fingerprint " +
           View.libraryFingerprint() + ", current library is " +
           Library.fingerprint() + " (stale automaton; re-run "
           "selgen-matchergen)";
  if (View.numRules() != Library.rules().size())
    return "automaton image indexes " + std::to_string(View.numRules()) +
           " rules, library has " +
           std::to_string(Library.rules().size()) +
           " (stale automaton; re-run selgen-matchergen)";
  return "";
}

void MappedCandidateSource::forEachBodyCandidate(
    const Node *S,
    const std::function<bool(const PreparedRule &)> &TryRule) {
  Indices.clear();
  View.matchBody(S, Indices, &StatesVisited);
  for (uint32_t Index : Indices)
    if (TryRule(Library.rules()[Index]))
      return;
}

void MappedCandidateSource::forEachJumpCandidate(
    NodeRef Condition,
    const std::function<bool(const PreparedRule &)> &TryRule) {
  Indices.clear();
  View.matchJump(Condition, Indices, &StatesVisited);
  for (uint32_t Index : Indices) {
    const PreparedRule &R = Library.rules()[Index];
    if (!R.IsJumpRule || !R.TakenIsCondZero)
      continue;
    if (TryRule(R))
      return;
  }
}

uint64_t MappedCandidateSource::takeNodesVisited() {
  return std::exchange(StatesVisited, 0);
}

SelectionResult selgen::runAutomatonSelection(const Function &F,
                                              const PreparedLibrary &Library,
                                              const BinaryAutomatonView &View,
                                              CostKind Kind) {
  MappedCandidateSource Source(Library, View);
  return runRuleSelection(F, Library, Source, Kind, selectorName(Kind));
}

MappedAutomatonSelector::MappedAutomatonSelector(
    const PatternDatabase &Database, const GoalLibrary &Goals, CostKind Kind)
    : Library(Database, Goals), Compiled(buildMatcherAutomaton(Library)),
      View(Compiled->view()), Kind(Kind) {
  noteAutomatonStatistics(View);
}

MappedAutomatonSelector::MappedAutomatonSelector(
    PreparedLibrary &&PrebuiltLibrary, const BinaryAutomatonView &View,
    CostKind Kind)
    : Library(std::move(PrebuiltLibrary)), View(View), Kind(Kind) {
  std::string Stale = automatonStalenessError(View, Library);
  if (!Stale.empty())
    reportFatalError(Stale);
  noteAutomatonStatistics(View);
}

std::string MappedAutomatonSelector::name() const {
  return selectorName(Kind);
}

SelectionResult MappedAutomatonSelector::select(const Function &F) {
  SelectionResult Result = runAutomatonSelection(F, Library, View, Kind);
  noteSelectionStatistics(Result);
  return Result;
}
