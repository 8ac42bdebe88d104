//===- AutomatonSelector.h - Discrimination-tree selector --------*- C++ -*-===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The discrimination-tree instruction selector: a drop-in replacement
/// for the linear GeneratedSelector that discovers candidate rules
/// through a matcher automaton (src/matchergen) compiled from the rule
/// library. One traversal of the subject DAG tests all candidate rules
/// at once; the shared selection engine then re-runs the full matcher
/// on the (few) surviving candidates in library priority order, so the
/// machine code produced is byte-identical to the linear selector's —
/// only the time to find it changes.
///
/// The cost model is the selector's only setting. Under the unit model
/// (the default) it is the paper's greedy most-specific-first matcher
/// described above. Under the latency or size model the engine's tiling
/// DP (isel/SelectionEngine.h) first prices each block, and the engine
/// tries each node's cheapest legal tile first.
///
/// The automaton has one form, the bin-v3 image: compiled in memory
/// (buildMatcherAutomaton) or mapped from a .matb file written by the
/// selgen-matchergen tool. Either way selection runs over a
/// BinaryAutomatonView, and the image's library fingerprint is checked
/// so a stale automaton is rejected rather than silently applied to
/// the wrong library. The image holds patterns only: the tiling DP
/// prices tiles with the costs the prepared library derives, so a
/// cost-model change needs no new image.
///
//===----------------------------------------------------------------------===//

#ifndef SELGEN_ISEL_AUTOMATONSELECTOR_H
#define SELGEN_ISEL_AUTOMATONSELECTOR_H

#include "cost/CostModel.h"
#include "isel/PreparedLibrary.h"
#include "isel/SelectionEngine.h"
#include "isel/Selector.h"
#include "matchergen/MatcherAutomaton.h"

#include <optional>

namespace selgen {

/// Compiles the discrimination tree for \p Library. Rules that can
/// never fire (jump rules not wired taken-first) are left out; the
/// candidate sets the tree produces are exactly the rules the linear
/// selector would attempt a full match for.
MatcherAutomaton buildMatcherAutomaton(const PreparedLibrary &Library);

/// Returns an explanation if \p View was not compiled from \p Library
/// (fingerprint or rule-count mismatch), or the empty string if it is
/// current.
std::string automatonStalenessError(const BinaryAutomatonView &View,
                                    const PreparedLibrary &Library);

/// Candidate discovery through one discrimination-tree traversal per
/// subject position, directly off an automaton image (zero
/// deserialization). One instance per selection thread; not
/// thread-safe itself, but many instances can share the library and
/// the read-only image.
class MappedCandidateSource : public RuleCandidateSource {
public:
  MappedCandidateSource(const PreparedLibrary &Library,
                        const BinaryAutomatonView &View)
      : Library(Library), View(View) {}

  void forEachBodyCandidate(
      const Node *S,
      const std::function<bool(const PreparedRule &)> &TryRule) override;
  void forEachJumpCandidate(
      NodeRef Condition,
      const std::function<bool(const PreparedRule &)> &TryRule) override;
  uint64_t takeNodesVisited() override;

private:
  const PreparedLibrary &Library;
  const BinaryAutomatonView &View;
  std::vector<uint32_t> Indices;
  uint64_t StatesVisited = 0;
};

/// Selects \p F with candidates discovered through \p View, under cost
/// model \p Kind (runRuleSelection over a MappedCandidateSource). The
/// one entry point shared by MappedAutomatonSelector and the compile
/// server's workers. Like runRuleSelection, it returns its counters in
/// the result and writes nothing global.
SelectionResult runAutomatonSelection(const Function &F,
                                      const PreparedLibrary &Library,
                                      const BinaryAutomatonView &View,
                                      CostKind Kind);

/// Instruction selector driven by a synthesized pattern database, with
/// automaton-based candidate discovery. Its name is "automaton" under
/// the unit cost model and "tiling" under latency and size, whichever
/// way the image was obtained — the differential tests rely on output
/// files from the in-memory and mapped paths comparing equal.
class MappedAutomatonSelector : public InstructionSelector {
public:
  /// Prepares the library and compiles the automaton in memory from
  /// \p Database (same parameters as GeneratedSelector; under the unit
  /// model the two are interchangeable). The selector owns the
  /// compiled image.
  MappedAutomatonSelector(const PatternDatabase &Database,
                          const GoalLibrary &Goals,
                          CostKind Kind = CostKind::Unit);

  /// Adopts an already-prepared library and runs off \p View (e.g. a
  /// mapped .matb file), which must outlive the selector. Aborts if
  /// \p View is stale — check automatonStalenessError() first for a
  /// graceful error.
  MappedAutomatonSelector(PreparedLibrary &&Library,
                          const BinaryAutomatonView &View,
                          CostKind Kind = CostKind::Unit);

  std::string name() const override;
  SelectionResult select(const Function &F) override;

  /// Number of usable (goal-resolved) rules.
  size_t numRules() const { return Library.rules().size(); }
  const PreparedLibrary &library() const { return Library; }
  const BinaryAutomatonView &view() const { return View; }

private:
  PreparedLibrary Library;
  /// The image compiled by the (Database, Goals) constructor; empty
  /// when running off a caller's view.
  std::optional<MatcherAutomaton> Compiled;
  BinaryAutomatonView View;
  CostKind Kind;
};

} // namespace selgen

#endif // SELGEN_ISEL_AUTOMATONSELECTOR_H
