//===- TilingSelector.h - Cost-minimal DAG tiling pre-pass -------*- C++ -*-===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The cost-driven half of MappedAutomatonSelector (AutomatonSelector.h),
/// run under the latency and size cost models. Instead of committing
/// to the first rule that matches (the library's most-specific-first
/// priority order), a bottom-up dynamic program computes, for every
/// selectable IR node, the cheapest way to cover its operand cone
/// under the chosen model, and re-orders the automaton's candidate
/// sets so the engine tries the cheapest legal tile first. Emission,
/// legality checking, and fallback lowering stay in the engine — tiling
/// only changes the order candidates are offered in, so it inherits
/// every correctness property of first-match selection.
///
/// Cost accounting (CSE-aware, DAG re-convergence safe):
///   * A tile rooted at node S costs its rule's RuleCost component
///     under the active model, plus the cost of producing each distinct
///     frontier input.
///   * Inputs defined by block arguments cost nothing; so do inputs
///     that are *shared* (two or more distinct users, or used by the
///     terminator): a shared value is produced exactly once no matter
///     which tile consumes it, so its cone is priced at its own root
///     and contributes zero at every consumer. This is what makes the
///     DP a sound approximation on DAGs rather than double-counting
///     re-converging subtrees.
///   * A single-use operation input contributes the memoized best cost
///     of its own cone (computed earlier in the bottom-up pass).
///   * A constant input bound to an Imm-role argument is encoded into
///     the instruction and contributes zero; bound to a Reg/Addr role
///     it contributes the cost of the library's immediate-move rule
///     (the engine will materialize it with exactly that rule).
///   * A cone no rule covers is priced as the engine's per-opcode
///     fallback lowering.
///
/// The unit model needs no DP: it is the library's priority order,
/// which the automaton's candidate sets already follow, so
/// runAutomatonSelection never builds this source for it.
///
//===----------------------------------------------------------------------===//

#ifndef SELGEN_ISEL_TILINGSELECTOR_H
#define SELGEN_ISEL_TILINGSELECTOR_H

#include "cost/CostModel.h"
#include "isel/PreparedLibrary.h"
#include "isel/SelectionEngine.h"

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

namespace selgen {

/// A candidate source that replays DP-computed, cost-sorted candidate
/// orderings. prepare() runs the bottom-up tiling DP over every block
/// of one function using \p Inner to enumerate candidates; afterwards
/// the source serves the recorded orderings without touching the
/// automaton again. Candidates the DP could not match structurally are
/// appended after the costed ones in priority order (never dropped —
/// the engine has the final say on legality, preserving the
/// RuleCandidateSource contract of only over-approximating).
class TilingCandidateSource : public RuleCandidateSource {
public:
  TilingCandidateSource(const PreparedLibrary &Library,
                        RuleCandidateSource &Inner, CostKind Kind)
      : Library(Library), Inner(Inner), Kind(Kind) {}

  /// Runs the tiling DP over \p F and records the candidate orderings.
  /// Must be called before the engine consumes this source.
  void prepare(const Function &F);

  void forEachBodyCandidate(
      const Node *S,
      const std::function<bool(const PreparedRule &)> &TryRule) override;
  void forEachJumpCandidate(
      NodeRef Condition,
      const std::function<bool(const PreparedRule &)> &TryRule) override;
  uint64_t takeNodesVisited() override;

  /// Total best-cover cost over all selection roots of the prepared
  /// function (the DP objective value).
  uint64_t bestCoverCost() const { return BestCoverCost; }

private:
  using ValueKey = std::pair<const Node *, unsigned>;

  void prepareBlock(const BasicBlock *BB);

  const PreparedLibrary &Library;
  RuleCandidateSource &Inner;
  CostKind Kind;
  /// Pattern positions the DP's own match walks examined (merged into
  /// SelectionResult::NodesVisited alongside Inner's automaton state
  /// visits).
  uint64_t MatchWork = 0;
  uint64_t BestCoverCost = 0;
  /// Cost of materializing a constant into a register (the library's
  /// immediate-move rule under the active model).
  uint64_t ConstMaterializeCost = 0;
  bool ConstCostComputed = false;
  std::map<const Node *, std::vector<uint32_t>> BodyOrder;
  std::map<ValueKey, std::vector<uint32_t>> JumpOrder;
};

} // namespace selgen

#endif // SELGEN_ISEL_TILINGSELECTOR_H
