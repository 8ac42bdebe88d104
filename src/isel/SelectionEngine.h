//===- SelectionEngine.h - Shared rule-driven selection ----------*- C++ -*-===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The greedy DAG selection engine shared by the linear-scan
/// GeneratedSelector and the discrimination-tree
/// MappedAutomatonSelector, under every cost model. The first-match
/// selectors pick the same rules and emit the same machine code; they
/// differ only in how candidate rules for a subject node are
/// discovered, which is abstracted as a RuleCandidateSource (a linear
/// scan, or MappedCandidateSource walking the automaton image). The
/// engine performs all semantic checks (full structural match,
/// shift preconditions, produced-value/overlap analysis) and the
/// emission, so a candidate source only has to enumerate a superset of
/// the matching rules in library priority order.
///
/// Each block is selected from one state: its live nodes, the users of
/// each value and the terminator's uses. Under the unit cost model the
/// engine tries each node's candidates in priority order (first match).
/// Under latency and size the tiling DP first prices every node's
/// candidates on that same state, CSE-aware so a shared DAG value is
/// priced once at its own root, and the engine tries them cheapest
/// first; legality checks and emission are the same under every model.
///
/// The engine returns its matching counters in the SelectionResult and
/// writes nothing global; the selectors' select() adds them to the
/// Statistics registry, the compile server to its replies.
///
//===----------------------------------------------------------------------===//

#ifndef SELGEN_ISEL_SELECTIONENGINE_H
#define SELGEN_ISEL_SELECTIONENGINE_H

#include "isel/PreparedLibrary.h"
#include "isel/Selector.h"

#include <functional>

namespace selgen {

class BinaryAutomatonView;

/// Enumerates candidate rules for one subject position. An
/// implementation must call \p TryRule on candidates in ascending
/// PreparedRule::Index order (most-specific-first library priority)
/// and stop as soon as TryRule returns true. It may over-approximate
/// (offer rules the full match then rejects) but must never skip a
/// rule that would match — that is what keeps every source
/// byte-identical in output.
class RuleCandidateSource {
public:
  virtual ~RuleCandidateSource() = default;

  /// Candidates whose pattern root could align with subject node \p S.
  virtual void
  forEachBodyCandidate(const Node *S,
                       const std::function<bool(const PreparedRule &)>
                           &TryRule) = 0;

  /// Candidates for a compare-and-jump rule whose condition pattern
  /// could align with the branch condition value \p Condition.
  virtual void
  forEachJumpCandidate(NodeRef Condition,
                       const std::function<bool(const PreparedRule &)>
                           &TryRule) = 0;

  /// Candidate-discovery work performed since the last call (automaton
  /// state visits); drained into SelectionResult::NodesVisited so that
  /// counter reflects total matching work.
  virtual uint64_t takeNodesVisited() { return 0; }
};

/// Runs rule-driven selection of \p F using candidates from \p Source
/// under cost model \p Kind and returns the selection result, including
/// its matching counters (RulesTried, NodesVisited, PrecondProved,
/// SelectionSeconds). Under unit each node takes the first legal
/// candidate in priority order; under latency and size the tiling DP
/// first prices every block's candidates and the engine tries them
/// cheapest first. A pure function of its inputs: it touches no global
/// state, so any number of threads may run it concurrently over a
/// shared library and image.
SelectionResult runRuleSelection(const Function &F,
                                 const PreparedLibrary &Library,
                                 RuleCandidateSource &Source, CostKind Kind,
                                 const std::string &SelectorName);

/// Adds \p Result's counters to the global Statistics registry
/// (selector.rules_tried, matcher.nodes_visited,
/// matcher.precond_proved, selector.select_us). The rule-driven
/// select()s call this, so --stats-json reports selection totals.
void noteSelectionStatistics(const SelectionResult &Result);

/// Adds \p View's size (automaton.states, automaton.transitions) to
/// the global Statistics registry; called once per automaton-driven
/// selector, whichever way its image was obtained, and by
/// selgen-matchergen for the image it writes.
void noteAutomatonStatistics(const BinaryAutomatonView &View);

/// Toggles the dataflow-based elision of runtime shift-precondition
/// checks: when the known-bits/range analysis proves every shift
/// amount a match binds to be in range, the engine skips the
/// per-match constant re-check. A proof implies the re-check would
/// have passed, so selection decisions — and machine code — are
/// byte-identical either way; the differential tests flip this to
/// verify exactly that. Enabled by default.
void setStaticPrecondElision(bool Enabled);
bool staticPrecondElisionEnabled();

} // namespace selgen

#endif // SELGEN_ISEL_SELECTIONENGINE_H
