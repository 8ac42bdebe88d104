//===- SynthStage.cpp - Cold and warm rule-library synthesis --------------===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//

#include "Stages.h"

#include "pattern/ParallelBuilder.h"
#include "support/Error.h"
#include "support/Statistics.h"
#include "synth/Cegis.h"
#include "synth/ConcreteGoalEval.h"
#include "synth/SpecFingerprint.h"

#include <cstdio>
#include <filesystem>
#include <optional>

using namespace selgen;
using namespace perfbench;

namespace {

/// The synthesis settings of the bench harnesses at default scale.
SynthesisOptions synthesisOptions() {
  SynthesisOptions Options;
  Options.Width = Width;
  Options.FindAllMinimal = true;
  Options.TimeBudgetSeconds = 8.0;
  Options.QueryTimeoutMs = 20000;
  Options.MaxPatternsPerMultiset = 8;
  Options.MaxPatternsPerGoal = 128;
  return Options;
}

double counter(const char *Name) {
  return static_cast<double>(Statistics::get().value(Name));
}

/// Concrete re-screen of every rule of \p Library against its goal on
/// seeded tests: a Kill means the rule computes something else than
/// its goal.
void rescreen(const PatternDatabase &Library, const GoalLibrary &Goals,
                  const std::vector<SynthGoal> &Drawn, uint64_t Seed,
                  Tally &Checks) {
  SmtContext Smt;
  std::map<std::string, std::unique_ptr<ConcreteGoalEval>> Evals;
  std::map<std::string, std::vector<TestCase>> Tests;
  std::map<std::string, std::vector<std::optional<ConcreteGoalOutcome>>>
      Outcomes;
  for (const Rule &R : Library.rules()) {
    const GoalInstruction *Goal = Goals.find(R.GoalName);
    bool Total = false;
    for (const SynthGoal &G : Drawn)
      Total |= G.Name == R.GoalName && G.TotalMode;
    ++Checks.Attempted;
    if (!Goal) {
      Checks.fail("synth: rule for unknown goal " + R.GoalName);
      continue;
    }
    if (!Evals.count(R.GoalName)) {
      Evals[R.GoalName] =
          std::make_unique<ConcreteGoalEval>(Smt, Width, *Goal->Spec);
      Tests[R.GoalName] = makeInitialTests(*Goal->Spec, Width, Smt, Seed, 16);
      for (const TestCase &T : Tests[R.GoalName])
        Outcomes[R.GoalName].push_back(Evals[R.GoalName]->evaluateGoal(T));
    }
    const std::vector<TestCase> &GoalTests = Tests[R.GoalName];
    for (size_t I = 0; I < GoalTests.size(); ++I) {
      const std::optional<ConcreteGoalOutcome> &Outcome =
          Outcomes[R.GoalName][I];
      if (Outcome && Evals[R.GoalName]->screen(R.Pattern, GoalTests[I],
                                               *Outcome, Total) ==
                         ScreenVerdict::Kill) {
        Checks.fail("synth: a " + R.GoalName +
                    " rule fails its concrete re-screen");
        break;
      }
    }
  }
}

} // namespace

GoalLibrary perfbench::buildSynthGoals(const std::vector<SynthGoal> &Goals) {
  std::vector<std::string> Names;
  for (const SynthGoal &G : Goals)
    Names.push_back(G.Name);
  return GoalLibrary::subset(
      GoalLibrary::build(Width, GoalLibrary::allGroups()), Names);
}

void perfbench::runSynthStage(const std::vector<SynthGoal> &Goals,
                              uint64_t Seed, const std::string &CacheDir,
                              unsigned Threads, int ColdRuns, Tally &Checks,
                              MetricMap &EndToEnd, MetricMap &Layers) {
  GoalLibrary Library = buildSynthGoals(Goals);
  SynthesisOptions Options = synthesisOptions();
  ParallelBuildOptions Build;
  Build.NumThreads = Threads;
  for (const SynthGoal &G : Goals)
    if (G.TotalMode)
      Build.TotalModeGoals.push_back(G.Name);

  // Cold runs, each into an empty cache; the per-layer counters are
  // those of the last.
  std::vector<double> ColdSeconds;
  std::vector<std::string> Libraries;
  std::optional<SynthesisCache> Cache;
  PatternDatabase Cold;
  double ColdUs = 0;
  for (int Run = 0; Run < ColdRuns; ++Run) {
    std::filesystem::remove_all(CacheDir);
    Cache.emplace(CacheDir);
    if (!Cache->usable())
      reportFatalError("cannot create the synthesis cache " + CacheDir);
    Build.Cache = &*Cache;
    Statistics::get().clear();
    {
      ScopedSpan Span("pattern.synthesize_cold");
      Cold = synthesizeRuleLibraryParallel(Library, Options, Build);
      ColdUs = Span.finish();
    }
    ColdSeconds.push_back(ColdUs / 1e6);
    Cold.sortSpecificFirst();
    Libraries.push_back(Cold.serialize());
  }
  double QueueWait = 0, Stolen = 0, Chunks = 0, Incomplete = 0;
  for (const GoalTelemetry &G : Statistics::get().goals()) {
    std::printf("synth goal %-16s %7.3f s %s\n", G.Goal.c_str(),
                G.WallSeconds, G.IncompleteCause.c_str());
    QueueWait += G.QueueWaitSeconds;
    Stolen += G.StolenChunks;
    Chunks += G.Chunks;
    Incomplete += !G.Complete;
  }
  double Candidates = counter("prescreen.candidates");
  Layers["smt.check_us"] = counter("smt.check_us");
  Layers["smt.checks"] = counter("smt.checks");
  Layers["smt.busy_frac"] = counter("smt.check_us") / (Threads * ColdUs);
  Layers["synth.synthesis_queries"] = counter("cegis.synthesis_queries");
  Layers["synth.verification_queries"] = counter("cegis.verification_queries");
  Layers["synth.prescreen_us"] = counter("prescreen.eval_us");
  Layers["synth.prescreen_yield"] =
      Candidates ? counter("prescreen.kills") / Candidates : 0;
  Layers["synth.multisets_run"] = counter("synth.multisets_run");
  Layers["pattern.queue_wait_s"] = QueueWait;
  Layers["pattern.stolen_chunks"] = Stolen;
  Layers["pattern.chunks"] = Chunks;
  Layers["pattern.incomplete_goals"] = Incomplete;

  // Warm runs: the same goals against the cache the cold run wrote. A
  // warm run takes milliseconds, so synth_warm_s is read off the
  // quietest of several.
  constexpr int WarmRuns = 25;
  LibraryBuildReport WarmReport;
  PatternDatabase Warm;
  std::vector<double> WarmSeconds;
  for (int Run = 0; Run < WarmRuns; ++Run) {
    Statistics::get().clear();
    ScopedSpan Span("pattern.synthesize_warm");
    Warm = synthesizeRuleLibraryParallel(Library, Options, Build, &WarmReport);
    WarmSeconds.push_back(Span.finish() / 1e6);
  }
  Layers["pattern.cache_hits"] = WarmReport.CacheHits;

  // Isolated cache reads: one lookup per goal, keyed the way
  // synthesizeRuleLibraryParallel keys them.
  {
    SmtContext Smt;
    std::vector<std::string> Keys;
    for (const GoalInstruction &Goal : Library.goals()) {
      SynthesisOptions GoalOptions = Options;
      GoalOptions.MaxPatternSize = Goal.MaxPatternSize;
      for (const SynthGoal &G : Goals)
        GoalOptions.RequireTotalPatterns |= G.Name == Goal.Name && G.TotalMode;
      Keys.push_back(synthesisCacheKey(Smt, *Goal.Spec, GoalOptions));
    }
    ScopedSpan Span("pattern.cache_read");
    for (const std::string &Key : Keys)
      Cache->lookup(Key);
    Layers["pattern.cache_read_ms"] = Span.finish() / 1e3;
  }

  EndToEnd["synth_cold_s"] = quantile(ColdSeconds, Quiet);
  EndToEnd["synth_warm_s"] = quantile(WarmSeconds, Quiet);
  EndToEnd["synth_goals"] = static_cast<double>(Goals.size());

  // Output checks, outside the timed region.
  Warm.sortSpecificFirst();
  Libraries.push_back(Warm.serialize());
  for (const std::string &Other : Libraries) {
    ++Checks.Attempted;
    if (Other != Libraries.front())
      Checks.fail("synth: a library differs from the first cold one");
  }
  rescreen(Cold, Library, Goals, Seed, Checks);
}
