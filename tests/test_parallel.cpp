//===- test_parallel.cpp - Parallel synthesis and edge-move tests --------------===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//

#include "isel/HandwrittenSelector.h"
#include "pattern/ParallelBuilder.h"
#include "x86/Emulator.h"

#include <gtest/gtest.h>

#include <set>

using namespace selgen;

namespace {
constexpr unsigned W = 8;
} // namespace

TEST(ParallelBuilder, MatchesSequentialResult) {
  GoalLibrary All = GoalLibrary::build(W, {"Basic"});
  GoalLibrary Goals = GoalLibrary::subset(
      std::move(All), {"neg_r", "not_r", "add_rr", "xor_rr", "cmp_je"});

  SynthesisOptions Options;
  Options.Width = W;
  Options.QueryTimeoutMs = 30000;
  Options.TimeBudgetSeconds = 30;

  LibraryBuildReport SequentialReport, ParallelReport;
  SmtContext Smt;
  PatternDatabase Sequential =
      synthesizeRuleLibrary(Smt, Goals, Options, &SequentialReport);
  ParallelBuildOptions Build;
  Build.NumThreads = 3;
  PatternDatabase Parallel =
      synthesizeRuleLibraryParallel(Goals, Options, Build, &ParallelReport);

  ASSERT_EQ(Sequential.size(), Parallel.size());
  // Same rule sets (fingerprint multisets are equal).
  std::multiset<std::string> A, B;
  for (const Rule &R : Sequential.rules())
    A.insert(R.GoalName + "|" + R.Pattern.fingerprint());
  for (const Rule &R : Parallel.rules())
    B.insert(R.GoalName + "|" + R.Pattern.fingerprint());
  EXPECT_EQ(A, B);
  EXPECT_EQ(SequentialReport.TotalGoals, ParallelReport.TotalGoals);
  EXPECT_EQ(SequentialReport.TotalPatterns, ParallelReport.TotalPatterns);
}

TEST(ParallelBuilder, OneLiveContextPerWorker) {
  GoalLibrary All = GoalLibrary::build(W, {"Basic"});
  GoalLibrary Goals = GoalLibrary::subset(
      std::move(All), {"add_rr", "and_rr", "neg_r", "not_r", "xor_rr"});

  SynthesisOptions Options;
  Options.Width = W;
  Options.QueryTimeoutMs = 30000;
  Options.TimeBudgetSeconds = 30;

  PatternDatabase Sequential;
  {
    SmtContext Smt;
    Sequential = synthesizeRuleLibrary(Smt, Goals, Options);
  }

  constexpr unsigned Threads = 3;
  ParallelBuildOptions Build;
  Build.NumThreads = Threads;
  uint64_t CreatedBefore = SmtContext::contextsCreated();
  SmtContext::resetPeakLiveContexts();
  PatternDatabase Parallel =
      synthesizeRuleLibraryParallel(Goals, Options, Build);
  // Each worker holds one context at a time: the per-chunk context
  // replaces, rather than joins, the one it used for goal start-up.
  EXPECT_LE(SmtContext::peakLiveContexts(), Threads);
  EXPECT_GT(SmtContext::contextsCreated(), CreatedBefore);

  Sequential.sortSpecificFirst();
  Parallel.sortSpecificFirst();
  EXPECT_EQ(Sequential.serialize(), Parallel.serialize());
}

TEST(ParallelBuilder, TotalModeListApplies) {
  GoalLibrary All = GoalLibrary::build(W, {"Bmi"});
  GoalLibrary Goals = GoalLibrary::subset(std::move(All), {"blsr"});

  SynthesisOptions Options;
  Options.Width = W;
  Options.QueryTimeoutMs = 30000;
  Options.TimeBudgetSeconds = 60;

  PatternDatabase Database = synthesizeRuleLibraryParallel(
      Goals, Options, {.NumThreads = 2, .TotalModeGoals = {"blsr"}});
  // Total mode pushes the minimal size to 3 (the canonical idiom).
  for (const Rule &R : Database.rules())
    EXPECT_GE(R.Pattern.numOperations(), 3u);
  EXPECT_FALSE(Database.rules().empty());
}

TEST(EdgeMoves, ParallelSwapSemantics) {
  // A loop block that swaps its two arguments each iteration: the edge
  // moves (x <- y, y <- x) must be parallel, not sequential.
  Function F("swap", W);
  BasicBlock *Entry = F.createBlock(
      "entry", {Sort::memory(), Sort::value(W), Sort::value(W)});
  BasicBlock *Loop = F.createBlock(
      "loop",
      {Sort::memory(), Sort::value(W), Sort::value(W), Sort::value(W)});
  BasicBlock *Exit = F.createBlock("exit", {Sort::memory(), Sort::value(W)});
  {
    Graph &G = Entry->body();
    Entry->setJump(Loop, {G.arg(0), G.createConst(BitValue::zero(W)),
                          G.arg(1), G.arg(2)});
  }
  {
    Graph &G = Loop->body();
    NodeRef I = G.arg(1), X = G.arg(2), Y = G.arg(3);
    NodeRef NextI =
        G.createBinary(Opcode::Add, I, G.createConst(BitValue(W, 1)));
    NodeRef Continue = G.createCmp(Relation::Ult, NextI,
                                   G.createConst(BitValue(W, 2)));
    // Swap x and y on the back edge.
    Loop->setBranch(Continue, Loop, {G.arg(0), NextI, Y, X}, Exit,
                    {G.arg(0), X});
  }
  {
    Graph &G = Exit->body();
    Exit->setReturn({G.arg(0), G.arg(1)});
  }

  // Two iterations mean exactly one swap on the back edge, so the
  // interpreter returns the original y; the machine code must agree
  // (a sequential-move bug would collapse x and y).
  std::vector<BitValue> Args = {BitValue(W, 0xAA), BitValue(W, 0x55)};
  FunctionResult Reference = runFunction(F, Args, MemoryState());
  ASSERT_EQ(Reference.ReturnValues.size(), 1u);
  EXPECT_EQ(Reference.ReturnValues[0].zextValue(), 0x55u);

  HandwrittenSelector Selector;
  SelectionResult Selected = Selector.select(F);
  TranslationCheck Check =
      checkTranslation(F, *Selected.MF, Args, MemoryState());
  EXPECT_TRUE(Check.agrees()) << Check.Difference;
}
