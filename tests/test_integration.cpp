//===- test_integration.cpp - End-to-end pipeline tests ------------------------===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//
//
// The full pipeline of the paper's Algorithm 1, in miniature:
// synthesize a small rule library with iterative CEGIS, filter and
// sort it, generate an instruction selector, compile programs, and
// check the machine code against the IR interpreter.
//
//===----------------------------------------------------------------------===//

#include "eval/Workloads.h"
#include "ir/Normalizer.h"
#include "isel/GeneratedSelector.h"
#include "isel/HandwrittenSelector.h"
#include "pattern/LibraryBuilder.h"
#include "support/Rng.h"
#include "testgen/TestCaseGenerator.h"
#include "x86/Emulator.h"

#include <gtest/gtest.h>

#include <set>

using namespace selgen;

namespace {

constexpr unsigned W = 8;

/// Synthesizes a small but useful library once for the whole suite.
class IntegrationTest : public ::testing::Test {
protected:
  static SmtContext *Smt;
  static GoalLibrary *Goals;
  static PatternDatabase *Database;
  static LibraryBuildReport Report;

  static void SetUpTestSuite() {
    Smt = new SmtContext();
    Goals = new GoalLibrary(GoalLibrary::build(W, {"Basic", "LoadStore"}));

    // Restrict the synthesis to the goals this test exercises so the
    // suite stays fast.
    GoalLibrary Subset;
    for (const char *Name :
         {"mov_ri", "neg_r", "not_r", "add_rr", "sub_rr", "and_rr",
          "or_rr", "xor_rr", "shl_rc", "shr_rc", "sar_rc", "cmp_jl",
          "cmp_jb", "cmp_je", "cmp_jne", "mov_load_b", "mov_store_b"}) {
      const GoalInstruction *Goal = Goals->find(Name);
      ASSERT_NE(Goal, nullptr) << Name;
    }

    SynthesisOptions Options;
    Options.Width = W;
    Options.QueryTimeoutMs = 30000;
    Options.TimeBudgetSeconds = 20;
    Options.MaxPatternsPerMultiset = 8;
    Options.FindAllMinimal = true; // Algorithm 2 semantics.

    Database = new PatternDatabase();
    for (const GoalInstruction &Goal : Goals->goals()) {
      static const std::set<std::string> Wanted = {
          "mov_ri", "neg_r", "not_r", "add_rr", "sub_rr", "and_rr",
          "or_rr",  "xor_rr", "shl_rc", "shr_rc", "sar_rc", "cmp_jl",
          "cmp_jb", "cmp_je", "cmp_jne", "mov_load_b", "mov_store_b"};
      if (!Wanted.count(Goal.Name))
        continue;
      SynthesisOptions GoalOptions = Options;
      GoalOptions.MaxPatternSize = Goal.MaxPatternSize;
      Synthesizer Synth(*Smt, GoalOptions);
      GoalSynthesisResult Result = Synth.synthesize(*Goal.Spec);
      EXPECT_FALSE(Result.Patterns.empty()) << Goal.Name;
      for (Graph &Pattern : Result.Patterns)
        Database->add(Goal.Name, std::move(Pattern));
    }
    Database->filterNonNormalized();
    Database->sortSpecificFirst();
  }

  static void TearDownTestSuite() {
    delete Database;
    delete Goals;
    delete Smt;
    Database = nullptr;
    Goals = nullptr;
    Smt = nullptr;
  }
};

SmtContext *IntegrationTest::Smt = nullptr;
GoalLibrary *IntegrationTest::Goals = nullptr;
PatternDatabase *IntegrationTest::Database = nullptr;
LibraryBuildReport IntegrationTest::Report;

} // namespace

TEST_F(IntegrationTest, LibraryHasRulesForEveryGoal) {
  EXPECT_GE(Database->size(), 17u);
  for (const char *Name : {"add_rr", "cmp_jl", "mov_load_b", "mov_ri"})
    EXPECT_FALSE(Database->rulesForGoal(Name).empty()) << Name;
}

TEST_F(IntegrationTest, DatabaseSurvivesSerialization) {
  std::string Error;
  PatternDatabase Loaded =
      PatternDatabase::deserialize(Database->serialize(), &Error);
  EXPECT_TRUE(Error.empty()) << Error;
  EXPECT_EQ(Loaded.size(), Database->size());
}

TEST_F(IntegrationTest, SynthesizedSelectorMatchesInterpreter) {
  GeneratedSelector Selector(*Database, *Goals);
  EXPECT_GT(Selector.numRules(), 10u);

  // A small program using arithmetic, memory, and a branch.
  Function F("prog", W);
  BasicBlock *Entry = F.createBlock(
      "entry", {Sort::memory(), Sort::value(W), Sort::value(W)});
  BasicBlock *Then = F.createBlock("then", {Sort::memory(), Sort::value(W)});
  BasicBlock *Else = F.createBlock("else", {Sort::memory(), Sort::value(W)});
  {
    Graph &G = Entry->body();
    NodeRef T = G.createBinary(Opcode::Xor, G.arg(1), G.arg(2));
    NodeRef Stored = G.createStore(G.arg(0), G.arg(1), T);
    NodeRef Less = G.createCmp(Relation::Slt, T, G.arg(2));
    Entry->setBranch(Less, Then, {Stored, G.arg(1)}, Else, {Stored, T});
  }
  {
    Graph &G = Then->body();
    Node *Load = G.createLoad(G.arg(0), G.arg(1));
    Then->setReturn({NodeRef(Load, 0),
                     G.createUnary(Opcode::Not, NodeRef(Load, 1))});
  }
  {
    Graph &G = Else->body();
    Else->setReturn({G.arg(0), G.createUnary(Opcode::Minus, G.arg(1))});
  }
  normalizeFunction(F);

  SelectionResult Selected = Selector.select(F);
  EXPECT_GT(Selected.coverage(), 0.8);

  Rng Random(17);
  for (int Run = 0; Run < 100; ++Run) {
    std::vector<BitValue> Args = {Random.nextBitValue(W),
                                  Random.nextBitValue(W)};
    MemoryState Memory;
    for (int B = 0; B < 10; ++B)
      Memory.storeByte(Random.nextBelow(256),
                       static_cast<uint8_t>(Random.nextBelow(256)));
    TranslationCheck Check =
        checkTranslation(F, *Selected.MF, Args, Memory);
    EXPECT_TRUE(Check.agrees()) << "run " << Run << ": " << Check.Difference;
  }
}

TEST_F(IntegrationTest, SynthesizedSelectorHandlesWorkloads) {
  GeneratedSelector Selector(*Database, *Goals);
  HandwrittenSelector Handwritten;
  Rng Random(4);

  WorkloadProfile Profile = cint2000Profiles()[1]; // vpr-like.
  Profile.Iterations = 12;
  Function F = buildWorkload(Profile, W);

  SelectionResult Synth = Selector.select(F);
  SelectionResult Hand = Handwritten.select(F);
  EXPECT_GT(Synth.coverage(), 0.4);

  for (int Run = 0; Run < 5; ++Run) {
    std::vector<BitValue> Args = {Random.nextBitValue(W),
                                  Random.nextBitValue(W),
                                  Random.nextBitValue(W)};
    MemoryState Memory;
    for (int B = 0; B < 256; ++B)
      Memory.storeByte(B, static_cast<uint8_t>(Random.nextBelow(256)));
    for (SelectionResult *Selected : {&Synth, &Hand}) {
      TranslationCheck Check =
          checkTranslation(F, *Selected->MF, Args, Memory);
      EXPECT_TRUE(Check.agrees())
          << Selected->MF->name() << " run " << Run << ": "
          << Check.Difference;
    }
  }
}

TEST_F(IntegrationTest, EveryRulePassesItsOwnTestCase) {
  // The Section 5.7 pipeline applied to our own selector: every rule's
  // generated test program, compiled with the generated selector, must
  // behave like the interpreter.
  GeneratedSelector Selector(*Database, *Goals);
  std::vector<InstructionSelector *> Compilers = {&Selector};
  MissingPatternReport Report = runMissingPatternExperiment(
      *Database, W, Compilers, /*ValidationRuns=*/15);
  EXPECT_EQ(Report.TotalTests, Database->size());
  for (const MissingPatternRow &Row : Report.Rows)
    EXPECT_FALSE(Row.BehaviourMismatch)
        << Row.GoalName << ": " << Row.PatternExpression;
}
