//===- TilingSelector.cpp - Cost-minimal DAG tiling pre-pass -------------===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//

#include "isel/TilingSelector.h"

#include "ir/Function.h"
#include "isel/Matcher.h"

#include <algorithm>
#include <set>
#include <utility>

using namespace selgen;

namespace {

/// Per-node cost estimate of the engine's naive fallback lowering,
/// used for cones no rule covers; mirrors emitFallback's instruction
/// choices.
RuleCost fallbackNodeCost(const Node *N) {
  switch (N->opcode()) {
  case Opcode::Mul:
    return RuleCost{1, 3, 3}; // imul
  case Opcode::Load:
  case Opcode::Store:
    return RuleCost{1, 4, 3}; // mov with one memory operand
  case Opcode::Mux:
    return RuleCost{2, 2, 5}; // cmp + cmov
  case Opcode::Arg:
  case Opcode::Const:
  case Opcode::Cond:
    return RuleCost{0, 0, 0};
  default:
    return RuleCost{1, 1, 2}; // single reg-reg ALU instruction
  }
}

/// True for nodes the engine never offers to rules as a body root
/// (boolean producers are lowered through their consumers).
bool isBoolOnlyProducer(const Node *S) {
  return S->numResults() == 1 && S->resultSort(0).isBool();
}

} // namespace

void TilingCandidateSource::prepare(const Function &F) {
  if (!ConstCostComputed) {
    ConstCostComputed = true;
    if (const GoalInstruction *Mov = Library.immediateMoveGoal())
      ConstMaterializeCost = deriveRuleCost(*Mov).get(Kind);
  }
  for (const auto &BB : F.blocks())
    prepareBlock(BB.get());
}

void TilingCandidateSource::prepareBlock(const BasicBlock *BB) {
  // Replicate the engine's liveness view: which values the terminator
  // consumes, which nodes are live, and who uses each definition.
  // Sharing is a property of *values*, not nodes, and memory tokens do
  // not count: they thread through loads/stores for free (a rule that
  // folds a load reproduces the token, see producedValues in the
  // engine), so a token use must never make its producer look shared.
  auto isMemoryRef = [](const NodeRef &Ref) {
    return Ref.Def->resultSort(Ref.Index).isMemory();
  };

  const std::vector<NodeRef> Roots = BB->terminatorOperands();
  std::set<const Node *> TerminatorUsedDefs;
  for (const NodeRef &Ref : Roots)
    if (!isMemoryRef(Ref))
      TerminatorUsedDefs.insert(Ref.Def);
  if (BB->terminator().TermKind == Terminator::Kind::Branch)
    TerminatorUsedDefs.insert(BB->terminator().Condition.Def);

  std::vector<Node *> Live = BB->body().liveNodesFrom(Roots);
  std::map<const Node *, std::set<const Node *>> DistinctUsers;
  for (const Node *N : Live)
    for (const NodeRef &Operand : N->operands())
      if (!isMemoryRef(Operand))
        DistinctUsers[Operand.Def].insert(N);

  // A definition with more than one distinct user (or a terminator
  // use) is produced exactly once regardless of which tile consumes
  // it: its cone is priced at its own root and contributes nothing at
  // consumers. This cuts the DP at DAG re-convergence points.
  auto isSharedDef = [&](const Node *D) {
    if (TerminatorUsedDefs.count(D))
      return true;
    auto It = DistinctUsers.find(D);
    return It != DistinctUsers.end() && It->second.size() >= 2;
  };

  // Best known cost of covering the cone rooted at a definition.
  std::map<const Node *, uint64_t> Best;

  // Cost a matched tile pays for its frontier inputs: each distinct
  // input definition is charged once, at the cheapest role it is
  // bound under.
  auto inputContribution = [&](const MatchResult &Match,
                               const std::vector<ArgRole> &Roles) {
    std::set<const Node *> Covered(Match.CoveredNodes.begin(),
                                   Match.CoveredNodes.end());
    std::map<const Node *, uint64_t> PerDef;
    for (size_t I = 0; I < Match.ArgBindings.size(); ++I) {
      const NodeRef &Ref = Match.ArgBindings[I];
      if (!Ref.isValid())
        continue;
      // Memory-token inputs thread for free; never charge the
      // producing load/store cone to a consumer tile.
      if (Ref.Def->resultSort(Ref.Index).isMemory())
        continue;
      const Node *D = Ref.Def;
      uint64_t C = 0;
      if (D->opcode() == Opcode::Arg || Covered.count(D)) {
        C = 0; // Free, or already priced inside the tile.
      } else if (D->opcode() == Opcode::Const) {
        ArgRole Role = I < Roles.size() ? Roles[I] : ArgRole::Reg;
        C = Role == ArgRole::Imm ? 0 : ConstMaterializeCost;
      } else if (isSharedDef(D)) {
        C = 0; // Produced once at its own root.
      } else {
        auto It = Best.find(D);
        C = It != Best.end() ? It->second : 0;
      }
      auto It = PerDef.find(D);
      if (It == PerDef.end())
        PerDef.emplace(D, C);
      else if (C < It->second)
        It->second = C;
    }
    uint64_t Sum = 0;
    for (const auto &Entry : PerDef)
      Sum += Entry.second;
    return Sum;
  };

  // What covering one node costs when no rule fires (the engine's
  // per-opcode fallback), with the same input accounting.
  auto fallbackCoverCost = [&](const Node *S) {
    uint64_t Total = fallbackNodeCost(S).get(Kind);
    std::set<const Node *> Seen;
    for (const NodeRef &Operand : S->operands()) {
      const Node *D = Operand.Def;
      if (isMemoryRef(Operand) || !Seen.insert(D).second)
        continue;
      if (D->opcode() == Opcode::Arg || isSharedDef(D))
        continue;
      if (D->opcode() == Opcode::Const) {
        Total += ConstMaterializeCost;
        continue;
      }
      auto It = Best.find(D);
      Total += It != Best.end() ? It->second : 0;
    }
    return Total;
  };

  // Bottom-up pass: Live is in creation order, so every operand's
  // cone is priced before its users look it up.
  for (const Node *S : Live) {
    if (S->opcode() == Opcode::Arg)
      continue;
    if (S->opcode() == Opcode::Const) {
      Best[S] = ConstMaterializeCost;
      continue;
    }
    if (isBoolOnlyProducer(S)) {
      // Never a selection root; priced as engine fallback if a tile
      // ever stops at it.
      Best[S] = fallbackCoverCost(S);
      continue;
    }

    std::vector<std::pair<uint64_t, uint32_t>> Costed; // (total, index)
    std::vector<uint32_t> Unmatched;
    Inner.forEachBodyCandidate(S, [&](const PreparedRule &R) {
      std::optional<MatchResult> Match =
          matchPattern(R.TheRule->Pattern, R.Goal->Spec->argRoles(), R.Root,
                       S, &MatchWork);
      if (!Match) {
        Unmatched.push_back(R.Index);
        return false;
      }
      Costed.emplace_back(
          R.Cost.get(Kind) +
              inputContribution(*Match, R.Goal->Spec->argRoles()),
          R.Index);
      return false; // Enumerate everything; the DP picks the order.
    });

    std::sort(Costed.begin(), Costed.end());
    std::vector<uint32_t> Order;
    Order.reserve(Costed.size() + Unmatched.size());
    for (const auto &Entry : Costed)
      Order.push_back(Entry.second);
    // Structurally unmatchable candidates stay in the set (the
    // contract forbids dropping), after the costed ones, in priority
    // order — the engine rejects them the same way either way.
    Order.insert(Order.end(), Unmatched.begin(), Unmatched.end());
    BodyOrder[S] = std::move(Order);

    Best[S] = Costed.empty() ? fallbackCoverCost(S) : Costed.front().first;
    // The emitted cover decomposes into roots: shared definitions,
    // terminator-used values, and nodes live only through the memory
    // chain (stores). Sum their cones as the DP objective.
    bool HasValueUse =
        TerminatorUsedDefs.count(S) || DistinctUsers.count(S);
    if (isSharedDef(S) || !HasValueUse)
      BestCoverCost += Best[S];
  }

  // Branch condition: order the compare-and-jump candidates by the
  // same cost rule.
  if (BB->terminator().TermKind != Terminator::Kind::Branch)
    return;
  NodeRef Condition = BB->terminator().Condition;
  std::vector<std::pair<uint64_t, uint32_t>> Costed;
  std::vector<uint32_t> Unmatched;
  Inner.forEachJumpCandidate(Condition, [&](const PreparedRule &R) {
    std::optional<MatchResult> Match =
        matchPatternValue(R.TheRule->Pattern, R.Goal->Spec->argRoles(),
                          R.Root->operand(0), Condition, &MatchWork);
    if (!Match) {
      Unmatched.push_back(R.Index);
      return false;
    }
    Costed.emplace_back(R.Cost.get(Kind) +
                            inputContribution(*Match,
                                              R.Goal->Spec->argRoles()),
                        R.Index);
    return false;
  });
  std::sort(Costed.begin(), Costed.end());
  std::vector<uint32_t> Order;
  Order.reserve(Costed.size() + Unmatched.size());
  for (const auto &Entry : Costed)
    Order.push_back(Entry.second);
  Order.insert(Order.end(), Unmatched.begin(), Unmatched.end());
  JumpOrder[{Condition.Def, Condition.Index}] = std::move(Order);
  if (!Costed.empty())
    BestCoverCost += Costed.front().first;
}

void TilingCandidateSource::forEachBodyCandidate(
    const Node *S,
    const std::function<bool(const PreparedRule &)> &TryRule) {
  auto It = BodyOrder.find(S);
  if (It == BodyOrder.end()) {
    // Unprepared position (defensive; prepare() visits every node the
    // engine can query) — fall through to the automaton's order.
    Inner.forEachBodyCandidate(S, TryRule);
    return;
  }
  for (uint32_t Index : It->second)
    if (TryRule(Library.rules()[Index]))
      return;
}

void TilingCandidateSource::forEachJumpCandidate(
    NodeRef Condition,
    const std::function<bool(const PreparedRule &)> &TryRule) {
  auto It = JumpOrder.find({Condition.Def, Condition.Index});
  if (It == JumpOrder.end()) {
    Inner.forEachJumpCandidate(Condition, TryRule);
    return;
  }
  for (uint32_t Index : It->second) {
    const PreparedRule &R = Library.rules()[Index];
    if (!R.IsJumpRule || !R.TakenIsCondZero)
      continue; // Defensive re-filter, as in the automaton sources.
    if (TryRule(R))
      return;
  }
}

uint64_t TilingCandidateSource::takeNodesVisited() {
  return std::exchange(MatchWork, 0) + Inner.takeNodesVisited();
}
