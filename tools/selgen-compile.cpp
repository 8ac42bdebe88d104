//===- selgen-compile.cpp - Compile workloads with a rule library ---------------===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
// The build-compiler.sh/spec.sh analogue: load a synthesized rule
// library, generate an instruction selector from it, compile one of
// the synthetic CINT2000-profile workloads (or all of them), and
// report machine code, coverage, and emulator cycles against the
// hand-tuned baseline.
//
//   selgen-compile --library rules.dat --benchmark 186.crafty --print-asm
//   selgen-compile --library rules.dat            # all benchmarks
//   selgen-compile --library rules.dat --selector linear
//   selgen-compile --library rules.dat --automaton rules.matb --stats-json s.json
//   selgen-compile --library rules.dat --cost-model latency
//
// --selector picks how rules are matched: "auto" (default) compiles
// the library into a discrimination-tree automaton, "linear" tries the
// rules one by one as the paper's prototype does (same machine code,
// slower matching), "handwritten" bypasses the rule library entirely.
// --cost-model (auto only) picks what the automaton selector
// minimizes: "unit" (default) is first-match in library priority
// order; "latency" and "size" add the cost-minimal DAG-tiling
// pre-pass.
// --automaton maps a pre-compiled .matb image emitted by
// selgen-matchergen (mmap'ed, zero deserialization) instead of
// compiling in memory; a file that is not a current image, or a stale
// one (whose library fingerprint does not match), is rejected with
// exit code 1. Mapping an image reuses the staleness check's prepared
// library (selector.prepare_skipped). --dump-asm DIR writes the primary
// selector's machine code to DIR/<benchmark>.s, one file per
// benchmark — the byte-identity anchor for the compile-server tests.
// The Check column reads MISMATCH when, on one of the --runs seeded
// inputs, the selected code's return values differ from the IR
// interpreter's, or a byte differs at any address that either final
// memory holds (so a machine store the interpreter never made counts
// too), or when the interpreter run is undefined or either run hits
// its step limit (checkTranslation in x86/Emulator.h).
//
//===----------------------------------------------------------------------===//

#include "eval/Workloads.h"
#include "isel/AutomatonSelector.h"
#include "isel/GeneratedSelector.h"
#include "isel/HandwrittenSelector.h"
#include "isel/PreparedLibrary.h"
#include "support/CommandLine.h"
#include "support/Rng.h"
#include "support/Statistics.h"
#include "support/StringUtils.h"
#include "x86/Emulator.h"

#include <cstdio>
#include <fstream>
#include <memory>

#include <sys/stat.h>

using namespace selgen;

namespace {

struct RunOutcome {
  uint64_t Cycles = 0;
  bool Mismatch = false;
};

/// Runs \p MF on \p Runs seeded inputs, each checked against the IR
/// interpreter; an undefined or step-limited interpreter run counts as
/// a mismatch.
RunOutcome runSelected(const Function &F, const MachineFunction &MF,
                       unsigned Width, unsigned Runs) {
  RunOutcome Outcome;
  Rng Random(1234);
  for (unsigned Run = 0; Run < Runs; ++Run) {
    std::vector<BitValue> Args = {Random.nextBitValue(Width),
                                  Random.nextBitValue(Width),
                                  Random.nextBitValue(Width)};
    MemoryState Memory;
    for (unsigned B = 0; B < 256; ++B)
      Memory.storeByte(B, static_cast<uint8_t>(Random.nextBelow(256)));
    TranslationCheck Check = checkTranslation(F, MF, Args, Memory);
    Outcome.Cycles += Check.Cycles;
    Outcome.Mismatch |= !Check.agrees();
  }
  return Outcome;
}

} // namespace

int main(int argc, char **argv) {
  const std::vector<std::string> Flags = {
      "library",    "benchmark", "width",      "runs",     "print-asm",
      "selector",   "automaton", "stats-json", "dump-asm", "cost-model",
      "help"};
  CommandLine Cli(argc, argv, Flags);
  if (!Cli.errors().empty() || Cli.hasFlag("help")) {
    for (const std::string &Error : Cli.errors())
      std::fprintf(stderr, "%s\n", Error.c_str());
    std::fprintf(stderr, "%s\n",
                 CommandLine::usage("selgen-compile", Flags).c_str());
    return Cli.hasFlag("help") ? 0 : 1;
  }

  std::string BadNumber;
  std::optional<unsigned> WidthOption =
      Cli.checkedOption("width", 8, NumberRule::Width, BadNumber);
  std::optional<unsigned> RunsOption =
      Cli.checkedOption("runs", 3, NumberRule::Count, BadNumber);
  if (!WidthOption || !RunsOption) {
    std::fprintf(stderr, "error: %s\n", BadNumber.c_str());
    return 1;
  }
  unsigned Width = *WidthOption;
  unsigned Runs = *RunsOption;
  std::string LibraryPath = Cli.stringOption("library", "rules.dat");
  std::string SelectorName = Cli.stringOption("selector", "auto");
  std::string AutomatonPath = Cli.stringOption("automaton", "");
  if (SelectorName != "auto" && SelectorName != "linear" &&
      SelectorName != "handwritten") {
    std::fprintf(stderr,
                 "error: unknown --selector '%s' (auto|linear|handwritten)\n",
                 SelectorName.c_str());
    return 1;
  }
  if (!AutomatonPath.empty() && SelectorName != "auto") {
    std::fprintf(stderr, "error: --automaton requires --selector auto\n");
    return 1;
  }
  std::string CostModelName = Cli.stringOption("cost-model", "unit");
  std::optional<CostKind> CostModel = parseCostKind(CostModelName);
  if (!CostModel) {
    std::fprintf(stderr,
                 "error: unknown --cost-model '%s' (unit|latency|size)\n",
                 CostModelName.c_str());
    return 1;
  }
  if (Cli.stringOption("cost-model", "").size() && SelectorName != "auto") {
    std::fprintf(stderr, "error: --cost-model requires --selector auto\n");
    return 1;
  }

  PatternDatabase Database = loadSelectorLibrary(LibraryPath);
  GoalLibrary Goals = GoalLibrary::build(Width, GoalLibrary::allGroups());

  HandwrittenSelector Handwritten;
  std::unique_ptr<InstructionSelector> RuleDriven;
  // The automaton the selector runs off: a mapped binary image, or one
  // compiled in memory. Either outlives the selector borrowing it.
  std::unique_ptr<MappedAutomaton> Mapped;
  std::optional<MatcherAutomaton> Compiled;
  size_t UsableRules = 0;
  if (SelectorName == "auto") {
    PreparedLibrary Prepared = prepareSelectorLibrary(Database, Goals);
    if (!AutomatonPath.empty()) {
      // Pre-built image: mmap, validate, and match off the mapped bytes.
      std::string LoadError;
      Mapped = MatcherAutomaton::mapBinary(AutomatonPath, &LoadError);
      if (!Mapped) {
        std::fprintf(stderr, "error: %s\n", LoadError.c_str());
        return 1;
      }
      std::string Stale =
          automatonStalenessError(Mapped->view(), Prepared);
      if (!Stale.empty()) {
        std::fprintf(stderr, "error: %s\n", Stale.c_str());
        return 1;
      }
      // The staleness check above already prepared the library; hand
      // it to the selector instead of re-preparing (re-sorting) it.
      Statistics::get().add("selector.prepare_skipped", 1);
    } else {
      Compiled = buildMatcherAutomaton(Prepared);
    }
    const BinaryAutomatonView &View =
        Mapped ? Mapped->view() : Compiled->view();
    std::printf("automaton: %zu states, %llu transitions (%s), cost model "
                "%s\n",
                View.numStates(),
                static_cast<unsigned long long>(View.numTransitions()),
                Mapped ? ("mapped from " + AutomatonPath).c_str()
                       : "in memory",
                costKindName(*CostModel));
    UsableRules = Prepared.rules().size();
    RuleDriven = std::make_unique<MappedAutomatonSelector>(
        std::move(Prepared), View, *CostModel);
  } else if (SelectorName == "linear") {
    auto Linear = std::make_unique<GeneratedSelector>(
        prepareSelectorLibrary(Database, Goals));
    UsableRules = Linear->numRules();
    RuleDriven = std::move(Linear);
  }
  std::printf("library %s: %zu rules (%zu usable)\n", LibraryPath.c_str(),
              Database.size(), UsableRules);

  InstructionSelector &Primary =
      RuleDriven ? *RuleDriven : static_cast<InstructionSelector &>(
                                     Handwritten);

  std::string Wanted = Cli.stringOption("benchmark", "");
  std::string DumpDir = Cli.stringOption("dump-asm", "");
  if (!DumpDir.empty())
    ::mkdir(DumpDir.c_str(), 0777); // EEXIST is fine.
  TablePrinter Table({"Benchmark", "Coverage", Primary.name(), "Handwritten",
                      "Ratio", "Check"});
  for (const WorkloadProfile &Profile : cint2000Profiles()) {
    if (!Wanted.empty() && Profile.Name != Wanted)
      continue;
    Function F = buildWorkload(Profile, Width);
    SelectionResult Gen = Primary.select(F);
    SelectionResult Hand = Handwritten.select(F);

    if (Cli.hasFlag("print-asm"))
      std::printf("\n%s\n", printMachineFunction(*Gen.MF).c_str());
    if (!DumpDir.empty()) {
      std::string AsmPath = DumpDir + "/" + Profile.Name + ".s";
      std::ofstream AsmOut(AsmPath);
      AsmOut << printMachineFunction(*Gen.MF);
      if (!AsmOut) {
        std::fprintf(stderr, "error: cannot write %s\n", AsmPath.c_str());
        return 1;
      }
    }

    RunOutcome GenRun = runSelected(F, *Gen.MF, Width, Runs);
    RunOutcome HandRun = runSelected(F, *Hand.MF, Width, Runs);
    Table.addRow(
        {Profile.Name, formatDouble(100 * Gen.coverage(), 1) + " %",
         formatGrouped(GenRun.Cycles), formatGrouped(HandRun.Cycles),
         formatDouble(100.0 * GenRun.Cycles /
                          std::max<uint64_t>(1, HandRun.Cycles),
                      1) +
             " %",
         GenRun.Mismatch || HandRun.Mismatch ? "MISMATCH" : "ok"});
  }
  std::printf("\n%s", Table.render().c_str());

  std::string StatsPath = Cli.stringOption("stats-json", "");
  if (!StatsPath.empty() &&
      !Statistics::get().writeJsonFile(StatsPath)) {
    std::fprintf(stderr, "error: cannot write %s\n", StatsPath.c_str());
    return 1;
  }
  return 0;
}
