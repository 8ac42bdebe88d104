//===- test_widths.cpp - Width-parametric behaviour tests ----------------------===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//
//
// The paper works at 32 bits; our benchmarks default to 8 bits for
// speed. These tests pin down that nothing in the pipeline is
// specialized to one width: synthesis, selection, and emulation run
// at 8, 16, and 32 bits.
//
//===----------------------------------------------------------------------===//

#include "ir/Printer.h"
#include "isel/GeneratedSelector.h"
#include "isel/HandwrittenSelector.h"
#include "support/Rng.h"
#include "synth/Synthesizer.h"
#include "x86/Emulator.h"
#include "x86/Goals.h"

#include <gtest/gtest.h>

using namespace selgen;

class WidthTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(WidthTest, SynthesizeBasicGoals) {
  unsigned Width = GetParam();
  SmtContext Smt;
  GoalLibrary Goals = GoalLibrary::build(Width, {"Basic"});

  for (const char *Name : {"neg_r", "add_rr", "cmp_jb"}) {
    const GoalInstruction *Goal = Goals.find(Name);
    ASSERT_NE(Goal, nullptr);
    SynthesisOptions Options;
    Options.Width = Width;
    Options.MaxPatternSize = Goal->MaxPatternSize;
    Options.QueryTimeoutMs = 60000;
    Synthesizer Synth(Smt, Options);
    GoalSynthesisResult Result = Synth.synthesize(*Goal->Spec);
    EXPECT_FALSE(Result.Patterns.empty())
        << Name << " at width " << Width;
    for (const Graph &Pattern : Result.Patterns)
      EXPECT_TRUE(
          verifyPatternAgainstGoal(Smt, Width, *Goal->Spec, Pattern))
          << Name << "@" << Width << ": "
          << printGraphExpression(Pattern);
  }
}

TEST_P(WidthTest, MemoryGoalRoundTrip) {
  unsigned Width = GetParam();
  SmtContext Smt;
  GoalLibrary Goals = GoalLibrary::build(Width, {"LoadStore"});
  const GoalInstruction *Goal = Goals.find("mov_store_b");
  ASSERT_NE(Goal, nullptr);

  SynthesisOptions Options;
  Options.Width = Width;
  Options.MaxPatternSize = 1;
  Options.QueryTimeoutMs = 60000;
  Synthesizer Synth(Smt, Options);
  GoalSynthesisResult Result = Synth.synthesize(*Goal->Spec);
  ASSERT_EQ(Result.Patterns.size(), 1u);
  EXPECT_EQ(printGraphExpression(Result.Patterns[0]),
            "Store(a0, a1, a2)");
  // Width/8 bytes means Width/8 valid pointers: M is (w+1)*bytes bits.
  // Check via the initial-test helper.
  std::vector<TestCase> Tests =
      makeInitialTests(*Goal->Spec, Width, Smt, 1, 1);
  EXPECT_EQ(Tests[0][0].width(), (Width / 8) * 9);
}

TEST_P(WidthTest, SelectorsAgreeWithInterpreter) {
  unsigned Width = GetParam();
  Function F("wide", Width);
  BasicBlock *Entry = F.createBlock(
      "entry", {Sort::memory(), Sort::value(Width), Sort::value(Width)});
  {
    Graph &G = Entry->body();
    NodeRef Scaled = G.createBinary(Opcode::Shl, G.arg(2),
                                    G.createConst(BitValue(Width, 2)));
    NodeRef Address = G.createBinary(Opcode::Add, G.arg(1), Scaled);
    NodeRef Stored = G.createStore(G.arg(0), Address, G.arg(2));
    Node *Load = G.createLoad(Stored, Address);
    NodeRef Sum = G.createBinary(Opcode::Add, NodeRef(Load, 1),
                                 G.createUnary(Opcode::Not, G.arg(1)));
    Entry->setReturn({NodeRef(Load, 0), Sum});
  }

  HandwrittenSelector Handwritten;
  SelectionResult Selected = Handwritten.select(F);
  Rng Random(Width);
  for (int Run = 0; Run < 40; ++Run) {
    std::vector<BitValue> Args = {Random.nextBitValue(Width),
                                  Random.nextBitValue(Width)};
    TranslationCheck Check =
        checkTranslation(F, *Selected.MF, Args, MemoryState());
    EXPECT_TRUE(Check.agrees())
        << "width " << Width << " run " << Run << ": " << Check.Difference;
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, WidthTest,
                         ::testing::Values(8u, 16u, 32u));
