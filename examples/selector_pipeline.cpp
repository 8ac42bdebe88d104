//===- selector_pipeline.cpp - Compiling a workload end to end ------------------===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
// Compiles one synthetic CINT2000-profile workload with the hand-tuned
// baseline selector and with a selector generated from hand-curated
// reference rules, prints both machine-code listings, and compares
// dynamic cost on the emulator — the per-program view of Table 1.
//
//===----------------------------------------------------------------------===//

#include "eval/Workloads.h"
#include "isel/GeneratedSelector.h"
#include "isel/HandwrittenSelector.h"
#include "refsel/ReferenceSelectors.h"
#include "support/Rng.h"
#include "x86/Emulator.h"

#include <cstdio>
#include <cstring>

using namespace selgen;

int main(int argc, char **argv) {
  const unsigned Width = 8;
  std::string Benchmark = argc > 1 ? argv[1] : "186.crafty";

  const WorkloadProfile *Profile = nullptr;
  for (const WorkloadProfile &Candidate : cint2000Profiles())
    if (Candidate.Name == Benchmark)
      Profile = &Candidate;
  if (!Profile) {
    std::printf("unknown benchmark %s; available:\n", Benchmark.c_str());
    for (const WorkloadProfile &Candidate : cint2000Profiles())
      std::printf("  %s\n", Candidate.Name.c_str());
    return 1;
  }

  WorkloadProfile Small = *Profile;
  Small.BodyOps = 14; // Keep the listing readable.
  Small.Iterations = 25;
  Function F = buildWorkload(Small, Width);
  std::printf("workload %s: %u IR operations in %zu blocks\n\n",
              Small.Name.c_str(), F.numOperations(), F.blocks().size());

  HandwrittenSelector Handwritten;
  GoalLibrary Goals = GoalLibrary::build(Width, GoalLibrary::allGroups());
  PatternDatabase Rules = buildGnuLikeRules(Width);
  GeneratedSelector Generated(Rules, Goals);

  SelectionResult Hand = Handwritten.select(F);
  SelectionResult Gen = Generated.select(F);

  std::printf("--- handwritten selector (%u instructions) ---\n%s\n",
              Hand.MF->numInstructions(),
              printMachineFunction(*Hand.MF).c_str());
  std::printf("--- generated selector (%u instructions, coverage "
              "%.0f%%) ---\n%s\n",
              Gen.MF->numInstructions(), 100 * Gen.coverage(),
              printMachineFunction(*Gen.MF).c_str());

  // Run both and compare against the IR interpreter.
  Rng Random(7);
  uint64_t HandCycles = 0, GenCycles = 0;
  bool AllMatch = true;
  for (int Run = 0; Run < 5; ++Run) {
    std::vector<BitValue> Args = {Random.nextBitValue(Width),
                                  Random.nextBitValue(Width),
                                  Random.nextBitValue(Width)};
    MemoryState Memory;
    for (int B = 0; B < 256; ++B)
      Memory.storeByte(B, static_cast<uint8_t>(Random.nextBelow(256)));

    for (auto [Selected, Cycles] :
         {std::pair{&Hand, &HandCycles}, std::pair{&Gen, &GenCycles}}) {
      TranslationCheck Check =
          checkTranslation(F, *Selected->MF, Args, Memory);
      *Cycles += Check.Cycles;
      AllMatch &= Check.agrees();
    }
  }

  std::printf("dynamic cost over 5 runs: handwritten %lu cycles, "
              "generated %lu cycles (%.1f%%); oracle check: %s\n",
              (unsigned long)HandCycles, (unsigned long)GenCycles,
              100.0 * GenCycles / HandCycles,
              AllMatch ? "ok" : "MISMATCH");
  return AllMatch ? 0 : 1;
}
