//===- PreparedLibrary.cpp - Rules prepared for matching ----------------------===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//

#include "isel/PreparedLibrary.h"

#include "isel/Matcher.h"
#include "support/Hashing.h"

#include <cassert>
#include <map>

using namespace selgen;

PreparedLibrary::PreparedLibrary(const PatternDatabase &Database,
                                 const GoalLibrary &Goals) {
  // Own a sorted copy of the rules (the database may outlive us or
  // not; cloning decouples lifetimes). The database holds no duplicates,
  // and each clone carries its stored fingerprint over.
  OwnedRules.reserve(Database.size());
  for (const Rule &R : Database.rules())
    OwnedRules.push_back(R.clone());
  sortRulesSpecificFirst(OwnedRules);

  StableHasher Hasher;
  Hasher.str("selgen-prepared-library-v1");

  // One cost probe per goal: all rules of a goal share its emission
  // recipe, and probing runs Emit, which is not free at 12k rules.
  std::map<const GoalInstruction *, RuleCost> CostCache;
  auto goalCost = [&CostCache](const GoalInstruction &Goal) {
    auto It = CostCache.find(&Goal);
    if (It == CostCache.end())
      It = CostCache.emplace(&Goal, deriveRuleCost(Goal)).first;
    return It->second;
  };

  for (const Rule &R : OwnedRules) {
    assert(R.fingerprint() == R.Pattern.fingerprint() &&
           "stored rule fingerprint is stale");
    const GoalInstruction *Goal = Goals.find(R.GoalName);
    if (!Goal)
      continue; // Rule for a goal outside this target subset.
    PreparedRule Prepared;
    Prepared.TheRule = &R;
    Prepared.Goal = Goal;
    Prepared.Root = patternRoot(R.Pattern);
    Prepared.IsJumpRule = false;
    for (const Sort &S : Goal->Spec->resultSorts())
      if (S.isBool())
        Prepared.IsJumpRule = true;
    if (!Prepared.Root) {
      // Identity pattern: a single Imm-role argument wired straight to
      // the result is the mov-immediate rule used to materialize
      // constants. Other rootless patterns (disconnected results)
      // cannot be matched and are dropped.
      if (R.Pattern.numOperations() == 0 &&
          Goal->Spec->argSorts().size() == 1 &&
          Goal->Spec->argRole(0) == ArgRole::Imm && !ImmediateMoveGoal)
        ImmediateMoveGoal = Goal;
      continue;
    }
    if (Prepared.IsJumpRule) {
      // The goal's "taken" result (its first boolean result) must be
      // the Cond node's taken output.
      for (const NodeRef &Ref : R.Pattern.results()) {
        if (!Ref.sort().isBool())
          continue;
        Prepared.TakenIsCondZero =
            Ref.Def == Prepared.Root && Ref.Index == 0;
        break;
      }
    }
    Prepared.Index = static_cast<uint32_t>(Rules.size());
    Prepared.Cost = goalCost(*Goal);
    Hasher.str(R.GoalName);
    Hasher.str(R.fingerprint());
    Rules.push_back(Prepared);
  }
  Hasher.u64(Rules.size());
  Fingerprint = Hasher.hex();
}
