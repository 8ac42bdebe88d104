//===- selgen-synth.cpp - Rule-library synthesis driver -------------------------===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
// The command-line face of Algorithm 1's Synthesizer procedure (the
// artifact's full-synthesis.sh): synthesize instruction selection
// rules for a set of goal instructions and write the rule library to
// disk. Libraries from separate runs (different machines, different
// goal subsets) can be merged by re-running with --merge-into.
//
//   selgen-synth --groups Basic,Bmi --output rules.dat
//   selgen-synth --goals andn,blsr --total --width 16 --output bmi.dat
//   selgen-synth --groups Flags --merge-into rules.dat
//
// Long runs are fault tolerant: every finished goal is published
// crash-safely to the synthesis cache, so rerunning a killed run on the
// same --cache-dir re-synthesizes only the goals that had not finished:
//
//   selgen-synth --groups Basic --cache-dir cache/   # killed mid-way
//   selgen-synth --groups Basic --cache-dir cache/   # picks up the rest
//
//===----------------------------------------------------------------------===//

#include "pattern/ParallelBuilder.h"
#include "smt/SmtContext.h"
#include "smt/SolverPool.h"
#include "support/AtomicFile.h"
#include "support/CommandLine.h"
#include "support/FaultInjection.h"
#include "support/Json.h"
#include "support/Statistics.h"
#include "support/StringUtils.h"
#include "support/Timer.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>

using namespace selgen;

namespace {

/// Ensures the robustness counters exist (at zero) in every stats
/// dump, so sweeps and dashboards can gate on them without probing for
/// presence first.
void touchRobustnessCounters() {
  for (const char *Name :
       {"smt.checks", "smt.retries", "smt.exceptions", "smt.rlimit_exhausted",
        "smt.deadline_expired", "smt.stale_interrupts_suppressed",
        "cegis.bad_models", "cache.hits", "cache.misses",
        "cache.corrupt_shards", "synth.escalations",
        "pool.spawns", "pool.recycles", "pool.crashes",
        "pool.respawn_retries", "pool.deadline_kills", "pool.queries",
        "pool.stalled_ms"})
    Statistics::get().add(Name, 0);
}

/// The structured failure report for --failures-json: one entry per
/// goal that ended incomplete (last telemetry record per goal wins, so
/// an escalation retry that succeeded clears the earlier failure).
std::string buildFailureReport() {
  std::map<std::string, const GoalTelemetry *> Last;
  std::vector<GoalTelemetry> Goals = Statistics::get().goals();
  for (const GoalTelemetry &G : Goals)
    Last[G.Goal] = &G;

  std::string Out = "{\n  \"incomplete_goals\": [";
  bool First = true;
  for (const auto &[Name, G] : Last) {
    (void)Name;
    if (G->Complete)
      continue;
    Out += First ? "\n" : ",\n";
    Out += "    {\"goal\": \"" + jsonEscape(G->Goal) + "\", \"group\": \"" +
           jsonEscape(G->Group) + "\", \"cause\": \"" +
           jsonEscape(G->IncompleteCause) + "\"}";
    First = false;
  }
  Out += "\n  ],\n";
  Out += "  \"smt_retries\": " +
         std::to_string(Statistics::get().value("smt.retries")) + ",\n";
  Out += "  \"smt_exceptions\": " +
         std::to_string(Statistics::get().value("smt.exceptions")) + ",\n";
  Out += "  \"smt_rlimit_exhausted\": " +
         std::to_string(Statistics::get().value("smt.rlimit_exhausted")) +
         ",\n";
  Out += "  \"escalations\": " +
         std::to_string(Statistics::get().value("synth.escalations")) + "\n";
  Out += "}\n";
  return Out;
}

} // namespace

int main(int argc, char **argv) {
  const std::vector<std::string> Flags = {
      "groups",        "goals",        "width",        "budget",
      "total",         "threads",      "output",       "merge-into",
      "max-size",      "cache-dir",    "no-cache",     "stats-json",
      "no-prescreen",  "corpus-size",  "failures-json", "rlimit",
      "retry-scale",   "escalation",   "solver-pool",  "pool-recycle",
      "pool-grace",    "pool-worker",  "help"};
  CommandLine Cli(argc, argv, Flags);
  if (!Cli.errors().empty() || Cli.hasFlag("help")) {
    for (const std::string &Error : Cli.errors())
      std::fprintf(stderr, "%s\n", Error.c_str());
    std::fprintf(stderr, "%s\n",
                 CommandLine::usage("selgen-synth", Flags).c_str());
    std::fprintf(stderr,
                 "  --groups   comma list of Basic,LoadStore,Unary,Binary,"
                 "Flags,Bmi (default Basic)\n"
                 "  --goals    comma list of goal names (overrides groups)\n"
                 "  --width    data width in bits, a power of two >= 8 "
                 "(default 8)\n"
                 "  --budget   per-goal budget in seconds (default 10)\n"
                 "  --total    require total patterns\n"
                 "  --threads  worker threads (default hardware)\n"
                 "  --max-size override the iterative-deepening cap\n"
                 "  --output   rule library file (default rules.dat)\n"
                 "  --merge-into  merge results into an existing library\n"
                 "  --cache-dir   persistent synthesis cache directory\n"
                 "                (default $SELGEN_CACHE_DIR or "
                 "~/.cache/selgen)\n"
                 "  --no-cache    disable the persistent synthesis cache\n"
                 "  --stats-json  write counters and per-goal telemetry "
                 "to a JSON file\n"
                 "  --no-prescreen  disable the concrete counterexample "
                 "pre-screen (every candidate goes straight to the "
                 "verifier)\n"
                 "  --corpus-size   per-goal counterexample corpus capacity "
                 "(default 512; LRU-evicted beyond that)\n"
                 "  --failures-json  write a structured report of "
                 "incomplete goals and their causes\n"
                 "  --rlimit   deterministic Z3 resource budget per query "
                 "(0 = off)\n"
                 "  --retry-scale  escalating per-query budget multipliers "
                 "(default 1,4,16)\n"
                 "  --escalation   end-of-run budget multiplier for one "
                 "retry of incomplete goals (default 4; 0 = off)\n"
                 "  --solver-pool  run solver work in N out-of-process "
                 "selgen-solverd workers (0 = in-process, the default); "
                 "the produced library is byte-identical either way\n"
                 "  --pool-recycle recycle a pool worker after this many "
                 "queries (default 64; 0 = never)\n"
                 "  --pool-grace   seconds past a chunk's budget before a "
                 "hung worker is SIGKILLed (default 15)\n"
                 "  --pool-worker  path of the worker binary (default "
                 "$SELGEN_SOLVERD or selgen-solverd next to this tool)\n");
    return Cli.hasFlag("help") ? 0 : 1;
  }

  // Reject bad numbers before any goal work: a negative thread count
  // would wrap to ~4 billion workers, and the x86 shift goals mask
  // their count to width-1 bits, which is only right for powers of two.
  std::string BadNumber;
  std::optional<unsigned> WidthOption =
      Cli.checkedOption("width", 8, NumberRule::Width, BadNumber);
  std::optional<unsigned> ThreadsOption =
      Cli.checkedOption("threads", 0, NumberRule::Count, BadNumber);
  if (!WidthOption || !ThreadsOption) {
    std::fprintf(stderr, "error: %s\n", BadNumber.c_str());
    return 1;
  }
  unsigned Width = *WidthOption;
  GoalLibrary All = GoalLibrary::build(Width, GoalLibrary::allGroups());

  GoalLibrary Selected;
  std::string GoalsOption = Cli.stringOption("goals", "");
  if (!GoalsOption.empty()) {
    Selected = GoalLibrary::subset(std::move(All),
                                   splitString(GoalsOption, ','));
  } else {
    std::vector<std::string> Names;
    for (const std::string &Group :
         splitString(Cli.stringOption("groups", "Basic"), ','))
      for (const GoalInstruction *Goal : All.group(Group))
        Names.push_back(Goal->Name);
    if (Names.empty()) {
      std::fprintf(stderr, "error: no goals selected\n");
      return 1;
    }
    Selected = GoalLibrary::subset(std::move(All), Names);
  }

  SynthesisOptions Options;
  Options.Width = Width;
  Options.FindAllMinimal = true;
  Options.RequireTotalPatterns = Cli.hasFlag("total");
  Options.TimeBudgetSeconds = Cli.doubleOption("budget", 10.0);
  Options.QueryTimeoutMs = 30000;
  Options.QueryRlimit =
      static_cast<uint64_t>(std::max<int64_t>(0, Cli.intOption("rlimit", 0)));
  Options.UsePrescreen = !Cli.hasFlag("no-prescreen");
  {
    std::vector<unsigned> Scale;
    for (const std::string &Part :
         splitString(Cli.stringOption("retry-scale", "1,4,16"), ','))
      if (int64_t Value = std::atoll(trimString(Part).c_str()); Value > 0)
        Scale.push_back(static_cast<unsigned>(Value));
    if (Scale.empty()) {
      std::fprintf(stderr, "error: bad --retry-scale\n");
      return 1;
    }
    Options.QueryRetryScale = std::move(Scale);
  }
  if (int64_t CorpusSize = Cli.intOption("corpus-size", 0); CorpusSize > 0)
    Options.CorpusCapacity = static_cast<unsigned>(CorpusSize);
  if (int64_t MaxSize = Cli.intOption("max-size", 0); MaxSize > 0)
    for (const GoalInstruction &Goal : Selected.goals())
      const_cast<GoalInstruction &>(Goal).MaxPatternSize =
          static_cast<unsigned>(MaxSize);

  ParallelBuildOptions Build;
  Build.NumThreads = *ThreadsOption;
  Build.EscalationFactor =
      static_cast<unsigned>(std::max<int64_t>(0, Cli.intOption("escalation", 4)));

  // Out-of-process solver pool: crash isolation for the Z3 work. Off
  // by default — the in-process path stays untouched (and the library
  // is byte-identical either way).
  std::unique_ptr<SolverPool> Pool;
  if (int64_t PoolSize = Cli.intOption("solver-pool", 0); PoolSize > 0) {
    SolverPoolOptions PoolOptions;
    PoolOptions.NumWorkers = static_cast<unsigned>(PoolSize);
    PoolOptions.WorkerPath =
        Cli.stringOption("pool-worker", SolverPool::defaultWorkerPath());
    PoolOptions.RecycleAfterQueries = static_cast<unsigned>(
        std::max<int64_t>(0, Cli.intOption("pool-recycle", 64)));
    if (double Grace = Cli.doubleOption("pool-grace", 15.0); Grace > 0)
      PoolOptions.GraceSeconds = Grace;
    Pool = std::make_unique<SolverPool>(PoolOptions);
    if (!Pool->start()) {
      std::fprintf(stderr,
                   "error: cannot start solver pool worker %s "
                   "(set --pool-worker or $SELGEN_SOLVERD)\n",
                   PoolOptions.WorkerPath.c_str());
      return 1;
    }
    Build.Pool = Pool.get();
    std::printf("solver pool: %u workers (%s)\n", PoolOptions.NumWorkers,
                PoolOptions.WorkerPath.c_str());
  }

  std::unique_ptr<SynthesisCache> Cache;
  if (!Cli.hasFlag("no-cache")) {
    std::string CacheDir =
        Cli.stringOption("cache-dir", SynthesisCache::defaultDirectory());
    Cache = std::make_unique<SynthesisCache>(CacheDir);
    if (Cache->usable())
      Build.Cache = Cache.get();
    else
      std::fprintf(stderr, "warning: cache directory %s unusable, "
                           "continuing without cache\n",
                   CacheDir.c_str());
  }

  touchRobustnessCounters();
  if (FaultInjector::get().armed())
    std::printf("fault injection armed: %s\n",
                FaultInjector::get().describe().c_str());

  std::printf("synthesizing %zu goals at %u bit (%.0fs budget, %s)\n",
              Selected.goals().size(), Width, Options.TimeBudgetSeconds,
              Options.RequireTotalPatterns ? "total patterns"
                                           : "paper partial semantics");
  Timer Clock;
  LibraryBuildReport Report;
  PatternDatabase Database =
      synthesizeRuleLibraryParallel(Selected, Options, Build, &Report);

  for (const GroupReport &Group : Report.Groups)
    std::printf("  %-10s %3u goals  %4zu patterns  max size %u  %s"
                "  (%u capped)\n",
                Group.Group.c_str(), Group.Goals, Group.Patterns,
                Group.MaxPatternSize,
                formatDuration(Group.Seconds).c_str(),
                Group.IncompleteGoals);
  if (Build.Cache)
    std::printf("  cache: %u hits, %u misses (%s)\n", Report.CacheHits,
                Report.CacheMisses, Build.Cache->directory().c_str());

  std::string StatsPath = Cli.stringOption("stats-json", "");
  if (!StatsPath.empty()) {
    Statistics::get().add("driver.wall_ms",
                          static_cast<int64_t>(Clock.elapsedSeconds() * 1e3));
    Statistics::get().add("smt.contexts_created",
                          static_cast<int64_t>(SmtContext::contextsCreated()));
    Statistics::get().add("smt.contexts_peak_live",
                          static_cast<int64_t>(SmtContext::peakLiveContexts()));
    if (Statistics::get().writeJsonFile(StatsPath))
      std::printf("wrote stats to %s\n", StatsPath.c_str());
    else
      std::fprintf(stderr, "warning: could not write %s\n", StatsPath.c_str());
  }

  std::string FailuresPath = Cli.stringOption("failures-json", "");
  if (!FailuresPath.empty()) {
    if (writeFileAtomic(FailuresPath, buildFailureReport()))
      std::printf("wrote failure report to %s\n", FailuresPath.c_str());
    else
      std::fprintf(stderr, "warning: could not write %s\n",
                   FailuresPath.c_str());
  }

  std::string MergeTarget = Cli.stringOption("merge-into", "");
  if (!MergeTarget.empty()) {
    std::ifstream Probe(MergeTarget);
    PatternDatabase Existing =
        Probe.good() ? PatternDatabase::loadFromFile(MergeTarget)
                     : PatternDatabase();
    size_t Before = Existing.size();
    Existing.merge(std::move(Database));
    Existing.saveToFile(MergeTarget);
    std::printf("merged into %s: %zu -> %zu rules (%s total)\n",
                MergeTarget.c_str(), Before, Existing.size(),
                formatDuration(Clock.elapsedSeconds()).c_str());
    return 0;
  }

  std::string Output = Cli.stringOption("output", "rules.dat");
  Database.saveToFile(Output);
  std::printf("wrote %zu rules to %s in %s\n", Database.size(),
              Output.c_str(), formatDuration(Clock.elapsedSeconds()).c_str());
  return 0;
}
