//===- BenchCommon.cpp - Shared benchmark-harness plumbing --------------------===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>

#include "support/Error.h"
#include "support/Rng.h"
#include "support/Statistics.h"
#include "pattern/ParallelBuilder.h"

#include <thread>

using namespace selgen;
using namespace selgen::bench;

const unsigned selgen::bench::Width = [] {
  unsigned Candidate = 8;
  if (const char *Env = std::getenv("SELGEN_BENCH_WIDTH"))
    Candidate = static_cast<unsigned>(std::atoi(Env));
  return Candidate == 8 || Candidate == 16 || Candidate == 32 ? Candidate
                                                              : 8u;
}();

bool selgen::bench::fullScale() {
  const char *Scale = std::getenv("SELGEN_BENCH_SCALE");
  return Scale && std::string(Scale) == "full";
}

static double goalBudgetSeconds() {
  if (const char *Budget = std::getenv("SELGEN_BENCH_GOAL_BUDGET"))
    return std::atof(Budget);
  return fullScale() ? 60.0 : 8.0;
}

BenchGoals selgen::bench::makeBenchGoals(const std::string &Kind) {
  BenchGoals Result;
  if (Kind == "basic") {
    Result.Goals = GoalLibrary::build(Width, {"Basic"});
    return Result;
  }
  if (Kind != "full")
    reportFatalError("unknown bench goal kind: " + Kind);

  GoalLibrary All = GoalLibrary::build(Width, GoalLibrary::allGroups());

  std::vector<std::string> Names;
  for (const GoalInstruction *Goal : All.group("Basic"))
    Names.push_back(Goal->Name);
  // Bounded addressing-mode coverage by default; everything at full
  // scale.
  std::vector<std::string> LoadStoreSuffixes =
      fullScale() ? std::vector<std::string>{"b", "bd", "bi", "bid", "bis2",
                                             "bis4", "bis8", "bisd2",
                                             "bisd4", "bisd8"}
                  : std::vector<std::string>{"b", "bd", "bi", "bis2",
                                             "bis4"};
  for (const std::string &Suffix : LoadStoreSuffixes) {
    Names.push_back("mov_load_" + Suffix);
    Names.push_back("mov_store_" + Suffix);
  }
  Names.push_back("mov_storei_b");
  Names.push_back("mov_storei_bd");
  for (const char *Name : {"inc_r", "dec_r", "neg_m_b", "not_m_b",
                           "inc_m_b", "dec_m_b"})
    Names.push_back(Name);
  if (fullScale())
    for (const char *Name :
         {"neg_m_bd", "not_m_bd", "inc_m_bd", "dec_m_bd"})
      Names.push_back(Name);
  for (const char *Name :
       {"add_ri", "sub_ri", "and_ri", "or_ri", "xor_ri", "imul_ri",
        "add_rm_b", "add_rm_bd", "sub_rm_b", "and_rm_b", "or_rm_b",
        "xor_rm_b", "add_mr_b", "xor_mr_b", "lea_bd", "lea_bid",
        "lea_bis2", "lea_bis4"})
    Names.push_back(Name);
  for (const char *Name : {"cmpi_je", "cmpi_jne", "cmpi_jl", "cmpi_jge",
                           "cmpi_jb", "cmpi_jae", "cmove", "cmovne",
                           "cmovl", "cmovb", "cmpm_b_je", "cmpm_b_jl"})
    Names.push_back(Name);
  for (const char *Name : {"test_je", "test_jne", "test_js", "test_jns"})
    Names.push_back(Name);
  for (const char *Name : {"andn", "blsr", "blsi", "blsmsk"})
    Names.push_back(Name);

  Result.Goals = GoalLibrary::subset(std::move(All), Names);
  // Total-pattern mode for the goals whose canonical patterns sit
  // above the partial-mode junk size (see DESIGN.md Section 4).
  Result.TotalModeGoals = {"andn",    "blsr",    "blsi",   "blsmsk",
                           "test_je", "test_jne", "test_js", "test_jns"};
  return Result;
}

std::string selgen::bench::libraryCachePath(const std::string &Kind) {
  std::string Name =
      "rule-library-" + Kind + "-w" + std::to_string(Width) + ".dat";
  // The shipped libraries live in artifacts/ (repo layout); prefer one
  // there — from the repo root or from bench/ — before falling back to
  // a cwd-local cache file that a synthesis run will create.
  for (const std::string &Dir : {std::string("artifacts/"),
                                 std::string("../artifacts/")}) {
    std::ifstream Probe(Dir + Name);
    if (Probe.good())
      return Dir + Name;
  }
  return Name;
}

PatternDatabase selgen::bench::loadOrSynthesizeLibrary(
    SmtContext &, const std::string &Kind, const GoalLibrary &Goals,
    LibraryBuildReport *Report, bool *WasCached) {
  std::string Path = libraryCachePath(Kind);
  {
    std::ifstream Probe(Path);
    if (Probe.good()) {
      std::printf("[bench] loading cached %s rule library from %s\n",
                  Kind.c_str(), Path.c_str());
      if (WasCached)
        *WasCached = true;
      return PatternDatabase::loadFromFile(Path);
    }
  }
  if (WasCached)
    *WasCached = false;

  BenchGoals Bench = makeBenchGoals(Kind); // For the Total-mode list.
  auto IsTotalMode = [&Bench](const std::string &Name) {
    return std::find(Bench.TotalModeGoals.begin(),
                     Bench.TotalModeGoals.end(),
                     Name) != Bench.TotalModeGoals.end();
  };

  unsigned Threads = std::max(1u, std::thread::hardware_concurrency());
  if (const char *Env = std::getenv("SELGEN_BENCH_THREADS"))
    Threads = std::max(1, std::atoi(Env));

  // CI warms a persistent cache across runs; opt in via env var so
  // default local bench runs stay hermetic.
  std::unique_ptr<SynthesisCache> Cache;
  if (const char *CacheDir = std::getenv("SELGEN_CACHE_DIR"))
    if (*CacheDir) {
      Cache = std::make_unique<SynthesisCache>(CacheDir);
      if (!Cache->usable())
        Cache.reset();
    }

  std::printf("[bench] synthesizing the %s rule library "
              "(%zu goals, %.0fs per-goal budget, %u threads; "
              "paper Section 5.5 parallel mode)...\n",
              Kind.c_str(), Goals.goals().size(), goalBudgetSeconds(),
              Threads);
  std::fflush(stdout);

  SynthesisOptions Options;
  Options.Width = Width;
  Options.FindAllMinimal = true;
  Options.TimeBudgetSeconds = goalBudgetSeconds();
  Options.QueryTimeoutMs = 20000;
  Options.MaxPatternsPerMultiset = 8;
  Options.MaxPatternsPerGoal = 128;

  Timer Total;
  ParallelBuildOptions Build;
  Build.NumThreads = Threads;
  Build.TotalModeGoals = Bench.TotalModeGoals;
  Build.Cache = Cache.get();
  LibraryBuildReport LocalReport;
  PatternDatabase Database =
      synthesizeRuleLibraryParallel(Goals, Options, Build, &LocalReport);
  (void)IsTotalMode;
  if (Report)
    *Report = LocalReport;

  std::printf("[bench] %s library: %zu rules in %s; caching to %s\n",
              Kind.c_str(), Database.size(),
              formatDuration(Total.elapsedSeconds()).c_str(), Path.c_str());
  if (Cache)
    std::printf("[bench] synthesis cache: %u hits, %u misses\n",
                LocalReport.CacheHits, LocalReport.CacheMisses);
  if (const char *StatsPath = std::getenv("SELGEN_STATS_JSON"))
    if (*StatsPath)
      Statistics::get().writeJsonFile(StatsPath);
  Database.saveToFile(Path);
  return Database;
}

void selgen::bench::printBenchHeader(const std::string &Title,
                                     const std::string &PaperRef) {
  std::printf("\n================================================================"
              "===============\n");
  std::printf("%s\n", Title.c_str());
  std::printf("reproduces: %s\n", PaperRef.c_str());
  std::printf("=================================================================="
              "=============\n");
  std::fflush(stdout);
}

PatternDatabase selgen::bench::inflateLibrary(const PatternDatabase &Base,
                                              size_t TargetSize) {
  PatternDatabase Inflated;
  for (const Rule &R : Base.rules())
    Inflated.add(R.GoalName, R.Pattern.clone());
  Rng Random(0xBEEF);
  size_t Stuck = 0;
  while (Inflated.size() < TargetSize && Stuck < 10 * TargetSize) {
    for (const Rule &R : Base.rules()) {
      if (Inflated.size() >= TargetSize)
        break;
      Graph Clone = R.Pattern.clone();
      bool Mutated = false;
      for (Node *N : Clone.liveNodes()) {
        if (N->opcode() == Opcode::Const) {
          N->setConstValue(Random.nextBitValue(N->constValue().width()));
          Mutated = true;
        } else if (N->numOperands() == 2 && Random.nextBelow(2) == 1) {
          NodeRef A = N->operand(0), B = N->operand(1);
          if (A.Def->resultSort(A.Index) == B.Def->resultSort(B.Index)) {
            N->setOperand(0, B);
            N->setOperand(1, A);
            Mutated = true;
          }
        }
      }
      if (!Mutated)
        continue;
      if (!Inflated.add(R.GoalName, std::move(Clone)))
        ++Stuck;
    }
  }
  return Inflated;
}
