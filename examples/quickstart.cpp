//===- quickstart.cpp - selgen in five minutes ----------------------------------===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
// The whole pipeline on one page:
//   1. pick goal machine instructions,
//   2. synthesize all minimal IR patterns for them (iterative CEGIS),
//   3. generate an instruction selector from the rule library,
//   4. compile an IR function,
//   5. run the machine code and check it against the IR interpreter.
//
// Build and run:
//   cmake -B build -G Ninja && cmake --build build --target quickstart
//   ./build/examples/quickstart
//
//===----------------------------------------------------------------------===//

#include "ir/Printer.h"
#include "isel/GeneratedSelector.h"
#include "pattern/PatternDatabase.h"
#include "synth/Synthesizer.h"
#include "x86/Emulator.h"
#include "x86/Goals.h"

#include <cstdio>

using namespace selgen;

int main() {
  const unsigned Width = 8; // The engine is width-agnostic; 8 is fast.
  SmtContext Smt;

  // 1. Goal instructions: a few x86 integer instructions with formal
  //    semantics (see src/x86/Goals.cpp for the whole library).
  GoalLibrary Goals = GoalLibrary::build(Width, {"Basic", "Bmi"});
  const char *Wanted[] = {"mov_ri", "neg_r", "add_rr", "xor_rr",
                          "cmp_jl", "andn"};

  // 2. Synthesize all minimal IR patterns per goal (Algorithm 2).
  PatternDatabase Library;
  for (const char *Name : Wanted) {
    const GoalInstruction *Goal = Goals.find(Name);
    SynthesisOptions Options;
    Options.Width = Width;
    Options.MaxPatternSize = Goal->MaxPatternSize;
    Options.QueryTimeoutMs = 30000;
    Synthesizer Synth(Smt, Options);
    GoalSynthesisResult Result = Synth.synthesize(*Goal->Spec);
    std::printf("%-8s -> %zu minimal patterns (size %u, %.2fs):\n", Name,
                Result.Patterns.size(), Result.MinimalSize, Result.Seconds);
    for (size_t I = 0; I < Result.Patterns.size() && I < 4; ++I)
      std::printf("           %s\n",
                  printGraphExpression(Result.Patterns[I]).c_str());
    for (Graph &Pattern : Result.Patterns)
      Library.add(Name, std::move(Pattern));
  }

  // 3. Post-process (Sections 5.5/5.6) and generate the selector.
  Library.filterNonNormalized();
  Library.sortSpecificFirst();
  GeneratedSelector Selector(Library, Goals);
  std::printf("\nrule library: %zu rules -> selector with %zu usable "
              "rules\n",
              Library.size(), Selector.numRules());

  // 4. Compile f(a, b) = -(a ^ b) + (~a & b).
  Function F("demo", Width);
  BasicBlock *Entry = F.createBlock(
      "entry", {Sort::memory(), Sort::value(Width), Sort::value(Width)});
  {
    Graph &G = Entry->body();
    NodeRef Mixed = G.createBinary(Opcode::Xor, G.arg(1), G.arg(2));
    NodeRef AndNot = G.createBinary(
        Opcode::And, G.createUnary(Opcode::Not, G.arg(1)), G.arg(2));
    NodeRef Sum = G.createBinary(
        Opcode::Add, G.createUnary(Opcode::Minus, Mixed), AndNot);
    Entry->setReturn({G.arg(0), Sum});
  }

  SelectionResult Selected = Selector.select(F);
  std::printf("\ncompiled with the synthesized selector "
              "(coverage %.0f%%):\n%s\n",
              100 * Selected.coverage(),
              printMachineFunction(*Selected.MF).c_str());

  // 5. Run it on the emulator and check it against the IR interpreter.
  TranslationCheck Check = checkTranslation(
      F, *Selected.MF, {BitValue(Width, 0x35), BitValue(Width, 0x1F)},
      MemoryState());
  std::printf("f(0x35, 0x1f) on the emulator vs the IR interpreter: %s "
              "(%lu cycles)\n",
              Check.agrees() ? "agree" : Check.Difference.c_str(),
              (unsigned long)Check.Cycles);
  return Check.agrees() ? 0 : 1;
}
