//===- PreparedLibrary.cpp - Rules prepared for matching ----------------------===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//

#include "isel/PreparedLibrary.h"

#include "isel/Matcher.h"
#include "support/Hashing.h"
#include "support/Parallel.h"
#include "support/Statistics.h"

#include <cassert>
#include <chrono>
#include <map>
#include <optional>

using namespace selgen;

PreparedLibrary::PreparedLibrary(const PatternDatabase &Database,
                                 const GoalLibrary &Goals) {
  // Own a copy of the rules in priority order (the database may outlive
  // us or not; cloning decouples lifetimes). The database holds no
  // duplicates, and each clone carries its stored fingerprint over.
  // Cloning, goal lookup and rooting are per rule, so they run in
  // parallel; a clone keeps its nodes' addresses when it is moved into
  // OwnedRules, so its root stays valid.
  const std::vector<Rule> &Source = Database.rules();
  std::vector<uint32_t> Order = specificFirstOrder(Source);
  std::vector<std::optional<Rule>> Clones(Order.size());
  std::vector<const GoalInstruction *> RuleGoals(Order.size());
  std::vector<const Node *> Roots(Order.size());
  parallelFor(Order.size(), [&](size_t I) {
    const Rule &R = Clones[I].emplace(Source[Order[I]].clone());
    RuleGoals[I] = Goals.find(R.GoalName);
    if (RuleGoals[I])
      Roots[I] = patternRoot(R.Pattern);
  });
  OwnedRules.reserve(Order.size());
  for (std::optional<Rule> &R : Clones)
    OwnedRules.push_back(std::move(*R));

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

  for (size_t I = 0; I < OwnedRules.size(); ++I) {
    const Rule &R = OwnedRules[I];
    assert(R.fingerprint() == R.Pattern.fingerprint() &&
           "stored rule fingerprint is stale");
    const GoalInstruction *Goal = RuleGoals[I];
    if (!Goal)
      continue; // Rule for a goal outside this target subset.
    PreparedRule Prepared;
    Prepared.TheRule = &R;
    Prepared.Goal = Goal;
    Prepared.Root = Roots[I];
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

namespace {

/// Adds the microseconds since \p Start to counter \p Name.
void addMicrosSince(const std::string &Name,
                    std::chrono::steady_clock::time_point Start) {
  Statistics::get().add(
      Name, std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - Start)
                .count());
}

} // namespace

PatternDatabase selgen::loadSelectorLibrary(const std::string &Path) {
  auto Start = std::chrono::steady_clock::now();
  PatternDatabase Database = PatternDatabase::loadFromFile(Path);
  Database.filterNonNormalized();
  Database.sortSpecificFirst();
  addMicrosSince("pattern.load_us", Start);
  return Database;
}

PreparedLibrary selgen::prepareSelectorLibrary(const PatternDatabase &Database,
                                               const GoalLibrary &Goals) {
  auto Start = std::chrono::steady_clock::now();
  PreparedLibrary Library(Database, Goals);
  addMicrosSince("isel.prepare_us", Start);
  return Library;
}
