//===- LibraryBuilder.cpp - Algorithm 1: goals -> rule library ----------------===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//

#include "pattern/LibraryBuilder.h"

#include <map>

using namespace selgen;

PatternDatabase selgen::synthesizeRuleLibrary(SmtContext &Smt,
                                              const GoalLibrary &Library,
                                              const SynthesisOptions &Options,
                                              LibraryBuildReport *Report) {
  std::vector<GoalSynthesisResult> Results;
  for (const GoalInstruction &Goal : Library.goals()) {
    SynthesisOptions GoalOptions = Options;
    GoalOptions.MaxPatternSize = Goal.MaxPatternSize;
    Results.push_back(Synthesizer(Smt, GoalOptions).synthesize(*Goal.Spec));
  }
  return collectRuleLibrary(Library, std::move(Results), Report);
}

PatternDatabase selgen::collectRuleLibrary(
    const GoalLibrary &Library, std::vector<GoalSynthesisResult> Results,
    LibraryBuildReport *Report) {
  PatternDatabase Database;
  std::map<std::string, GroupReport> Groups;
  for (size_t I = 0; I < Results.size(); ++I) {
    const GoalInstruction &Goal = Library.goals()[I];
    GoalSynthesisResult &Result = Results[I];
    GroupReport &Group = Groups[Goal.Group];
    Group.Group = Goal.Group;
    ++Group.Goals;
    Group.Seconds += Result.Seconds;
    if (!Result.Complete)
      ++Group.IncompleteGoals;
    for (Graph &Pattern : Result.Patterns) {
      Group.MaxPatternSize =
          std::max(Group.MaxPatternSize, Pattern.numOperations());
      if (Database.add(Goal.Name, std::move(Pattern)))
        ++Group.Patterns;
    }
  }

  if (Report) {
    for (auto &[Name, Group] : Groups) {
      (void)Name;
      Report->Groups.push_back(Group);
      Report->TotalSeconds += Group.Seconds;
      Report->TotalPatterns += Group.Patterns;
      Report->TotalGoals += Group.Goals;
    }
  }
  return Database;
}
