//===- PreparedLibrary.cpp - Rules prepared for matching ----------------------===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//

#include "isel/PreparedLibrary.h"

#include "isel/Matcher.h"
#include "support/Hashing.h"
#include "support/Statistics.h"

#include <cassert>
#include <chrono>
#include <optional>
#include <string_view>
#include <unordered_map>

using namespace selgen;

PreparedLibrary::PreparedLibrary(const PatternDatabase &Database,
                                 const GoalLibrary &Goals)
    : SharedRules(Database.sharedRules()) {
  // The rules stay where the database's store keeps them; sharing the
  // store keeps them alive and unchanged for as long as this library.
  const std::vector<Rule> &Source = *SharedRules;

  // One goal lookup and one cost probe per goal name:
  // GoalLibrary::find() is a linear scan, all rules of a goal share its
  // emission recipe, and probing runs Emit, which is not free at 12k
  // rules.
  struct GoalInfo {
    const GoalInstruction *Goal = nullptr;
    std::optional<RuleCost> Cost;
  };
  std::unordered_map<std::string_view, GoalInfo> ByName;
  auto goalInfo = [&](const std::string &Name) -> GoalInfo & {
    auto [It, Inserted] = ByName.try_emplace(Name);
    if (Inserted)
      It->second.Goal = Goals.find(Name);
    return It->second;
  };

  StableHasher Hasher;
  Hasher.str("selgen-prepared-library-v1");
  std::vector<uint32_t> Order = specificFirstOrder(Source);
  Rules.reserve(Order.size());
  for (uint32_t Position : Order) {
    const Rule &R = Source[Position];
    assert(R.fingerprint() == R.Pattern.fingerprint() &&
           "stored rule fingerprint is stale");
    GoalInfo &Info = goalInfo(R.GoalName);
    const GoalInstruction *Goal = Info.Goal;
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
    if (!Info.Cost)
      Info.Cost = deriveRuleCost(*Goal);
    Prepared.Cost = *Info.Cost;
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
