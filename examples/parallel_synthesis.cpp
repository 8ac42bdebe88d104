//===- parallel_synthesis.cpp - Section 5.5 aggregation workflow ----------------===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
// The paper's Section 5.5 workflow as an API example: "Either we can
// run the synthesizer in parallel on multiple machines, or we can
// first synthesize patterns for a basic set of instructions and expand
// on these as needed." This program
//   1. synthesizes a basic rule set with the multi-threaded driver,
//   2. separately synthesizes an extension group (as a second machine
//      or a later session would),
//   3. merges the two databases and shows the selector picking up the
//      new rules — incremental extension without re-synthesis.
//
//===----------------------------------------------------------------------===//

#include "ir/Normalizer.h"
#include "isel/GeneratedSelector.h"
#include "pattern/ParallelBuilder.h"
#include "support/Timer.h"

#include <cstdio>

using namespace selgen;

namespace {

/// f(a, b) = popcount-ish bit trick mix exercising both rule sets.
Function makeProbeFunction(unsigned Width) {
  Function F("probe", Width);
  BasicBlock *Entry = F.createBlock(
      "entry", {Sort::memory(), Sort::value(Width), Sort::value(Width)});
  Graph &G = Entry->body();
  NodeRef ClearLowest = G.createBinary( // blsr shape.
      Opcode::And, G.arg(1),
      G.createBinary(Opcode::Sub, G.arg(1),
                     G.createConst(BitValue(Width, 1))));
  NodeRef Mixed = G.createBinary(Opcode::Xor, ClearLowest, G.arg(2));
  Entry->setReturn({G.arg(0), Mixed});
  Function Result = std::move(F);
  normalizeFunction(Result);
  return Result;
}

size_t countGoalUses(const MachineFunction &MF, MOpcode Op) {
  size_t Count = 0;
  for (const auto &Block : MF.blocks())
    for (const MachineInstr &Instr : Block->instructions())
      Count += Instr.Op == Op ? 1 : 0;
  return Count;
}

} // namespace

int main() {
  const unsigned Width = 8;
  GoalLibrary Goals = GoalLibrary::build(Width, {"Basic", "Bmi"});

  SynthesisOptions Options;
  Options.Width = Width;
  Options.QueryTimeoutMs = 30000;
  Options.TimeBudgetSeconds = 15;

  // Step 1: the basic set, on "machine A" (multi-threaded driver).
  Timer Clock;
  GoalLibrary BasicGoals = GoalLibrary::subset(
      GoalLibrary::build(Width, {"Basic"}),
      {"mov_ri", "add_rr", "sub_rr", "and_rr", "xor_rr", "neg_r", "not_r"});
  PatternDatabase BasicDb = synthesizeRuleLibraryParallel(
      BasicGoals, Options, ParallelBuildOptions{});
  std::printf("machine A: %zu basic rules in %.1fs\n", BasicDb.size(),
              Clock.elapsedSeconds());

  // Without the BMI extension the probe's blsr idiom costs and+sub.
  Function Probe = makeProbeFunction(Width);
  {
    GeneratedSelector Selector(BasicDb, Goals);
    SelectionResult Selected = Selector.select(Probe);
    std::printf("basic-only selector: %u instructions, %zu blsr\n",
                Selected.MF->numInstructions(),
                countGoalUses(*Selected.MF, MOpcode::Blsr));
  }

  // Step 2: the BMI extension, on "machine B".
  Clock.reset();
  GoalLibrary BmiGoals = GoalLibrary::build(Width, {"Bmi"});
  PatternDatabase BmiDb = synthesizeRuleLibraryParallel(
      BmiGoals, Options,
      {.TotalModeGoals = {"andn", "blsr", "blsi", "blsmsk"}});
  std::printf("machine B: %zu BMI rules in %.1fs\n", BmiDb.size(),
              Clock.elapsedSeconds());

  // Step 3: aggregate and re-generate the selector (Section 5.5).
  BasicDb.merge(std::move(BmiDb));
  BasicDb.filterNonNormalized();
  BasicDb.sortSpecificFirst();
  GeneratedSelector Extended(BasicDb, Goals);
  SelectionResult Selected = Extended.select(Probe);
  std::printf("merged selector (%zu rules): %u instructions, %zu blsr\n",
              BasicDb.size(), Selected.MF->numInstructions(),
              countGoalUses(*Selected.MF, MOpcode::Blsr));
  std::printf("%s", printMachineFunction(*Selected.MF).c_str());

  return countGoalUses(*Selected.MF, MOpcode::Blsr) == 1 ? 0 : 1;
}
