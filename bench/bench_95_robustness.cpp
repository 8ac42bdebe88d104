//===- bench_95_robustness.cpp - Retry-escalation measurements ------------===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
// The robustness layer's supervised solver budgets must rescue hard
// queries instead of giving up on them. This benchmark runs a
// deliberately starved synthesis (tiny Z3 rlimit) with a flat retry
// policy versus the escalating 1x/4x/16x ladder, comparing how many
// goals end incomplete. (Crash safety costs nothing extra here: the
// synthesis cache's atomic shard writes are the only durable record
// of finished goals, so resume has no overhead of its own to measure.)
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "pattern/ParallelBuilder.h"
#include "support/Statistics.h"
#include "support/Timer.h"

#include <cstdio>
#include <string>

using namespace selgen;
using namespace selgen::bench;

namespace {

SynthesisOptions baseOptions() {
  SynthesisOptions Options;
  Options.Width = Width;
  Options.FindAllMinimal = true;
  Options.TimeBudgetSeconds = 30;
  Options.QueryTimeoutMs = 20000;
  Options.MaxPatternsPerMultiset = 8;
  Options.MaxPatternsPerGoal = 128;
  return Options;
}

struct TimedRun {
  double Seconds = 0;
  size_t Rules = 0;
  unsigned Incomplete = 0;
};

TimedRun timedRun(const GoalLibrary &Goals, const SynthesisOptions &Options,
                  ParallelBuildOptions Build) {
  LibraryBuildReport Report;
  Timer Clock;
  PatternDatabase Database =
      synthesizeRuleLibraryParallel(Goals, Options, Build, &Report);
  TimedRun Result;
  Result.Seconds = Clock.elapsedSeconds();
  Result.Rules = Database.size();
  for (const GroupReport &Group : Report.Groups)
    Result.Incomplete += Group.IncompleteGoals;
  return Result;
}

} // namespace

int main() {
  printBenchHeader(
      "Robustness layer: retry-escalation cost",
      "supervised solver budgets on top of Buchwald et al., CGO'18, "
      "Section 5.5 parallel synthesis");

  BenchGoals Bench = makeBenchGoals("basic");

  // A tiny deterministic rlimit starves most queries on the first try;
  // the escalating ladder buys the hard ones a bigger budget instead
  // of giving up.
  SynthesisOptions Starved = baseOptions();
  Starved.QueryRlimit = 2000;
  ParallelBuildOptions NoCache;
  NoCache.TotalModeGoals = Bench.TotalModeGoals;

  int64_t RetriesBefore = Statistics::get().value("smt.retries");
  Starved.QueryRetryScale = {1};
  TimedRun Flat = timedRun(Bench.Goals, Starved, NoCache);
  int64_t FlatRetries =
      Statistics::get().value("smt.retries") - RetriesBefore;

  RetriesBefore = Statistics::get().value("smt.retries");
  Starved.QueryRetryScale = {1, 4, 16};
  TimedRun Ladder = timedRun(Bench.Goals, Starved, NoCache);
  int64_t LadderRetries =
      Statistics::get().value("smt.retries") - RetriesBefore;

  TablePrinter RetryTable(
      {"Retry policy", "Incomplete", "Retries", "Rules", "Wall"});
  RetryTable.addRow({"flat (1x)", std::to_string(Flat.Incomplete),
                  std::to_string(FlatRetries), std::to_string(Flat.Rules),
                  formatDuration(Flat.Seconds)});
  RetryTable.addRow({"ladder (1x/4x/16x)", std::to_string(Ladder.Incomplete),
                  std::to_string(LadderRetries),
                  std::to_string(Ladder.Rules),
                  formatDuration(Ladder.Seconds)});
  std::printf("%s", RetryTable.render().c_str());
  return 0;
}
