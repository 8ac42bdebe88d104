//===- bench_10_table1_codequality.cpp - Paper Table 1 + compile time ----------===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
// Reproduces Table 1 (runtime of generated executables under the
// handwritten, basic-library, and full-library selectors, plus
// coverage) and the Section 7.3 in-text compile-time comparison
// (basic 1.66x, full 1217x-1804x selector-phase slowdown).
//
// Substitutions: SPEC CINT2000 -> synthetic workloads with per-
// benchmark operation-mix profiles; hardware seconds -> cost-weighted
// dynamic instruction counts on the x86 emulator (see DESIGN.md).
// The paper's reading — ratios close to 100% for the full setup,
// noticeably above 100% for the basic setup — is what to compare.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "eval/Evaluation.h"
#include "eval/Workloads.h"
#include "isel/AutomatonSelector.h"
#include "isel/GeneratedSelector.h"
#include "isel/HandwrittenSelector.h"
#include "support/Rng.h"
#include "support/Statistics.h"
#include "support/StringUtils.h"
#include "x86/Emulator.h"

#include <cstdio>
#include <cstdlib>

using namespace selgen;
using namespace selgen::bench;

namespace {

struct DynTotals {
  uint64_t Instructions = 0; ///< Dynamic instructions executed.
  uint64_t Cycles = 0;       ///< Cost-weighted dynamic count.
  bool Ok = true;            ///< Every run agreed with the interpreter.
};

/// Executes \p MF on the Table 1 experiment's \p Runs inputs,
/// checking every run against the IR interpreter.
DynTotals runDynamic(const MachineFunction &MF, const Function &F,
                     const WorkloadProfile &Profile, unsigned Runs) {
  DynTotals Totals;
  for (const WorkloadInput &Input : makeWorkloadInputs(Profile, Width, Runs)) {
    TranslationCheck Check = checkTranslation(F, MF, Input.Args, Input.Memory);
    Totals.Instructions += Check.InstructionCount;
    Totals.Cycles += Check.Cycles;
    Totals.Ok = Totals.Ok && Check.agrees();
  }
  return Totals;
}

} // namespace

int main() {
  printBenchHeader(
      "Table 1: code quality of the generated instruction selector",
      "Buchwald et al., CGO'18, Table 1 (paper geomeans: coverage "
      "75.46 %, Basic/Handwritten 111.56 %, Full/Handwritten 101.13 %)");

  SmtContext Smt;
  BenchGoals BasicGoals = makeBenchGoals("basic");
  BenchGoals FullGoals = makeBenchGoals("full");
  PatternDatabase BasicDb =
      loadOrSynthesizeLibrary(Smt, "basic", BasicGoals.Goals);
  PatternDatabase FullDb =
      loadOrSynthesizeLibrary(Smt, "full", FullGoals.Goals);

  // Code-generator post-processing (Section 5.6).
  BasicDb.filterNonNormalized();
  BasicDb.sortSpecificFirst();
  FullDb.filterNonNormalized();
  FullDb.sortSpecificFirst();

  HandwrittenSelector Handwritten;
  GeneratedSelector Basic(BasicDb, FullGoals.Goals);
  GeneratedSelector Full(FullDb, FullGoals.Goals);
  std::printf("selectors: basic %zu rules, full %zu rules\n",
              Basic.numRules(), Full.numRules());

  CodeQualityResult Result = runCodeQualityExperiment(
      Handwritten, Basic, Full, Width, /*RunsPerWorkload=*/3);

  TablePrinter Table({"Benchmark", "Coverage", "Handwritten", "Basic",
                      "Full", "Basic/Handw.", "Full/Handw.", "Check"});
  for (const CodeQualityRow &Row : Result.Rows)
    Table.addRow({Row.Benchmark,
                  formatDouble(100.0 * Row.Coverage, 2) + " %",
                  formatGrouped(Row.HandwrittenCycles),
                  formatGrouped(Row.BasicCycles),
                  formatGrouped(Row.FullCycles),
                  formatDouble(Row.BasicOverHandwritten, 2) + " %",
                  formatDouble(Row.FullOverHandwritten, 2) + " %",
                  Row.Mismatch ? "MISMATCH" : "ok"});
  Table.addRow({"Geom. Mean",
                formatDouble(100.0 * Result.GeoMeanCoverage, 2) + " %", "",
                "", "", formatDouble(Result.GeoMeanBasicRatio, 2) + " %",
                formatDouble(Result.GeoMeanFullRatio, 2) + " %", ""});
  std::printf("\n%s", Table.render().c_str());
  std::printf("\n(runtime = cost-weighted dynamic instruction count on the "
              "emulator; every run is\nchecked against the IR interpreter "
              "— the Check column must read ok)\n");

  // --- Cost-minimal tiling vs first-match (full library) ---------------
  // Beyond-paper extension: under the latency cost model the
  // selection engine's tiling DP orders each node's candidates by cost
  // so the engine commits to the cheapest legal cover instead of the
  // first (most-specific) match. It must never produce a statically
  // costlier function, and its dynamic instruction count must not
  // regress.
  printBenchHeader(
      "Cost-minimal DAG tiling vs first-match selection (full library)",
      "beyond-paper extension (DESIGN.md Section 4f): --cost-model "
      "latency");

  MappedAutomatonSelector FirstMatch(FullDb, FullGoals.Goals);
  MappedAutomatonSelector TilingLatency(FullDb, FullGoals.Goals,
                                        CostKind::Latency);

  uint64_t FmStaticCost = 0, TiStaticCost = 0;
  uint64_t FmStaticInstrs = 0, TiStaticInstrs = 0;
  uint64_t FmDynInstrs = 0, TiDynInstrs = 0;
  uint64_t FmDynCycles = 0, TiDynCycles = 0;
  unsigned StrictlyCheaper = 0;
  bool TilingOk = true;

  TablePrinter TileTable({"Benchmark", "Static instrs", "Static latency",
                          "Dyn instrs", "Dyn cycles", "Check"});
  for (const WorkloadProfile &Profile : cint2000Profiles()) {
    Function F = buildWorkload(Profile, Width);
    SelectionResult Fm = FirstMatch.select(F);
    SelectionResult Tile = TilingLatency.select(F);

    uint64_t FmCost = machineStaticCost(*Fm.MF, CostKind::Latency);
    uint64_t TiCost = machineStaticCost(*Tile.MF, CostKind::Latency);
    DynTotals FmDyn = runDynamic(*Fm.MF, F, Profile, 3);
    DynTotals TiDyn = runDynamic(*Tile.MF, F, Profile, 3);

    FmStaticCost += FmCost;
    TiStaticCost += TiCost;
    FmStaticInstrs += Fm.MF->numInstructions();
    TiStaticInstrs += Tile.MF->numInstructions();
    FmDynInstrs += FmDyn.Instructions;
    TiDynInstrs += TiDyn.Instructions;
    FmDynCycles += FmDyn.Cycles;
    TiDynCycles += TiDyn.Cycles;
    if (TiCost < FmCost)
      ++StrictlyCheaper;

    bool RowOk = FmDyn.Ok && TiDyn.Ok && TiCost <= FmCost &&
                 TiDyn.Instructions <= FmDyn.Instructions;
    TilingOk = TilingOk && RowOk;
    TileTable.addRow(
        {Profile.Name,
         formatGrouped(Fm.MF->numInstructions()) + " -> " +
             formatGrouped(Tile.MF->numInstructions()),
         formatGrouped(FmCost) + " -> " + formatGrouped(TiCost),
         formatGrouped(FmDyn.Instructions) + " -> " +
             formatGrouped(TiDyn.Instructions),
         formatGrouped(FmDyn.Cycles) + " -> " + formatGrouped(TiDyn.Cycles),
         RowOk ? "ok" : "FAIL"});
  }
  std::printf("\n%s", TileTable.render().c_str());
  std::printf("\n(each cell reads first-match -> latency tiling; Check "
              "requires interpreter\nagreement, static latency cost <=, "
              "and dynamic instruction count <=)\n");
  std::printf("\nworkloads with strictly lower static cost: %u of %zu\n",
              StrictlyCheaper, cint2000Profiles().size());
  std::printf("first_match_static_cost = %llu\n",
              static_cast<unsigned long long>(FmStaticCost));
  std::printf("tiling_static_cost = %llu\n",
              static_cast<unsigned long long>(TiStaticCost));
  std::printf("tiling_static_instructions = %llu (first-match %llu)\n",
              static_cast<unsigned long long>(TiStaticInstrs),
              static_cast<unsigned long long>(FmStaticInstrs));
  std::printf("tiling_dynamic_instructions = %llu (first-match %llu)\n",
              static_cast<unsigned long long>(TiDynInstrs),
              static_cast<unsigned long long>(FmDynInstrs));
  std::printf("tiling_dynamic_cycles = %llu (first-match %llu)\n",
              static_cast<unsigned long long>(TiDynCycles),
              static_cast<unsigned long long>(FmDynCycles));
  Statistics::get().add("tiling.static_cost",
                        static_cast<int64_t>(TiStaticCost));
  if (!TilingOk || StrictlyCheaper == 0 || TiStaticCost >= FmStaticCost) {
    std::printf("FAILURE: tiling arm violated its cost guarantees\n");
    return 1;
  }

  // --- Compile-time companion experiment (Section 7.3 in-text) --------
  printBenchHeader(
      "Selection-phase compile time",
      "Buchwald et al., CGO'18, Section 7.3 (paper: basic 1.66x, full "
      "1217x-1804x the handwritten selector's time)");

  CompileTimeResult Compile = runCompileTimeExperiment(
      Handwritten, Basic, Full, Width, /*Repetitions=*/5);
  TablePrinter CompileTable(
      {"Benchmark", "Handwritten", "Basic", "Full", "Basic/Handw.",
       "Full/Handw."});
  for (const CompileTimeRow &Row : Compile.Rows)
    CompileTable.addRow(
        {Row.Benchmark, formatDouble(Row.HandwrittenSeconds * 1e3, 2) + " ms",
         formatDouble(Row.BasicSeconds * 1e3, 2) + " ms",
         formatDouble(Row.FullSeconds * 1e3, 2) + " ms",
         formatDouble(Row.BasicSeconds / Row.HandwrittenSeconds, 1) + "x",
         formatDouble(Row.FullSeconds / Row.HandwrittenSeconds, 1) + "x"});
  CompileTable.addRow(
      {"Total", formatDouble(Compile.TotalHandwritten * 1e3, 2) + " ms",
       formatDouble(Compile.TotalBasic * 1e3, 2) + " ms",
       formatDouble(Compile.TotalFull * 1e3, 2) + " ms",
       formatDouble(Compile.TotalBasic / Compile.TotalHandwritten, 1) + "x",
       formatDouble(Compile.TotalFull / Compile.TotalHandwritten, 1) + "x"});
  std::printf("\n%s", CompileTable.render().c_str());
  std::printf("\n(the prototype tries rules one by one — the full library's "
              "slowdown is the paper's\nSection 7.3 observation, \"only a "
              "deficiency of the prototype instruction selector\")\n");

  // --- Library-size scaling -------------------------------------------
  // The paper's full library has ~60 000 rules after post-processing,
  // which makes the linear-scan prototype 1217x-1804x slower than the
  // handwritten selector. Our synthesized library is smaller, so we
  // additionally inflate it with distinct constant variants of its
  // rules (structurally valid rules that simply never match) to show
  // the same blow-up at the paper's library scale.
  printBenchHeader(
      "Selection time vs rule-library size (linear-scan prototype)",
      "Buchwald et al., CGO'18, Section 7.3 (the 60 000-rule library "
      "behind the 1217x slowdown)");

  auto inflate = [&](size_t TargetSize) {
    PatternDatabase Inflated;
    for (const Rule &R : FullDb.rules())
      Inflated.add(R.GoalName, R.Pattern.clone());
    Rng Random(0xBEEF);
    size_t Stuck = 0;
    while (Inflated.size() < TargetSize && Stuck < 10 * TargetSize) {
      for (const Rule &R : FullDb.rules()) {
        if (Inflated.size() >= TargetSize)
          break;
        Graph Clone = R.Pattern.clone();
        bool HasConst = false;
        for (Node *N : Clone.liveNodes())
          if (N->opcode() == Opcode::Const) {
            N->setConstValue(
                Random.nextBitValue(N->constValue().width()));
            HasConst = true;
          }
        if (!HasConst)
          continue;
        if (!Inflated.add(R.GoalName, std::move(Clone)))
          ++Stuck;
      }
    }
    return Inflated;
  };

  Function Probe = buildWorkload(cint2000Profiles()[2], Width);
  double HandSeconds = 0;
  for (int Rep = 0; Rep < 20; ++Rep)
    HandSeconds += Handwritten.select(Probe).SelectionSeconds;

  TablePrinter ScaleTable({"Library size", "Selection time",
                           "vs handwritten"});
  for (size_t Target : {FullDb.size(), size_t(1000), size_t(4000),
                        size_t(16000)}) {
    PatternDatabase Inflated = inflate(Target);
    GeneratedSelector Selector(Inflated, FullGoals.Goals);
    double Seconds = 0;
    int Reps = Target > 4000 ? 3 : 10;
    for (int Rep = 0; Rep < Reps; ++Rep)
      Seconds += Selector.select(Probe).SelectionSeconds;
    Seconds /= Reps;
    ScaleTable.addRow(
        {formatGrouped(Inflated.size()),
         formatDouble(Seconds * 1e3, 2) + " ms",
         formatDouble(Seconds / (HandSeconds / 20), 0) + "x"});
  }
  std::printf("\n%s", ScaleTable.render().c_str());
  std::printf("\n(rule variants with distinct constants; the scan cost "
              "grows linearly with the\nlibrary, reaching the paper's "
              "three-orders-of-magnitude regime at its 60k scale)\n");
  if (const char *StatsPath = std::getenv("SELGEN_STATS_JSON"))
    if (*StatsPath)
      Statistics::get().writeJsonFile(StatsPath);
  return 0;
}
