//===- test_concrete_goal_eval.cpp - Pre-screen cross-validation ---------------===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//
//
// The concrete pre-screen (synth/ConcreteGoalEval, synth/TestCorpus)
// may only ever kill candidates the symbolic verifier would also
// reject — otherwise the synthesized library silently loses rules.
// This suite cross-validates the concrete goal evaluation against the
// SMT goal semantics on every x86 goal, checks that screening verdicts
// agree with PatternVerifier, covers the corpus dedupe/LRU behaviour,
// and asserts the rule library is byte-identical with the pre-screen
// on and off.
//
//===----------------------------------------------------------------------===//

#include "ir/Printer.h"
#include "pattern/ParallelBuilder.h"
#include "synth/Synthesizer.h"
#include "x86/Goals.h"

#include <gtest/gtest.h>

#include <set>

using namespace selgen;

namespace {

constexpr unsigned Width = 8;

struct ConcreteGoalEvalTest : public ::testing::Test {
  SmtContext Smt;
  GoalLibrary Library = GoalLibrary::build(Width, GoalLibrary::allGroups());

  const InstrSpec &goal(const std::string &Name) {
    const GoalInstruction *Goal = Library.find(Name);
    EXPECT_NE(Goal, nullptr) << Name;
    return *Goal->Spec;
  }
};

/// The goal's behaviour on \p Test according to the SMT semantics:
/// substitute literals, then read the ground terms back through a
/// solver model. This is the oracle the pre-screen must agree with.
ConcreteGoalOutcome smtReference(SmtContext &Smt, const InstrSpec &Goal,
                                 const TestCase &Test) {
  GoalInstance Instance = makeConcreteGoalInstance(Smt, Width, Goal, Test);
  SemanticsContext Context{Smt, Width, Instance.Memory.get(), {}};
  std::vector<z3::expr> Results =
      Goal.computeResults(Context, Instance.Args, {});
  z3::expr Precondition = Goal.precondition(Context, Instance.Args, {});

  SmtSolver Solver(Smt);
  EXPECT_EQ(Solver.check(), SmtResult::Sat);
  z3::model Model = Solver.model();

  ConcreteGoalOutcome Outcome;
  Outcome.Defined = Smt.evalBool(Model, Precondition);
  if (!Outcome.Defined)
    return Outcome;
  for (unsigned R = 0; R < Results.size(); ++R) {
    if (Goal.resultSorts()[R].isBool())
      Outcome.Results.push_back(
          BitValue(1, Smt.evalBool(Model, Results[R]) ? 1 : 0));
    else
      Outcome.Results.push_back(Smt.evalBits(Model, Results[R]));
  }
  return Outcome;
}

} // namespace

TEST_F(ConcreteGoalEvalTest, EveryGoalMatchesSmtSemantics) {
  // For every goal in the library (registers, memory, flags — both
  // the interpreter fast path and the simplify fallback), the concrete
  // evaluation must reproduce the SMT semantics exactly on the
  // deterministic test seeds.
  for (const GoalInstruction &Goal : Library.goals()) {
    const InstrSpec &Spec = *Goal.Spec;
    ASSERT_TRUE(Spec.internalSorts().empty()) << Goal.Name;
    ConcreteGoalEval Eval(Smt, Width, Spec);
    for (uint64_t Seed : {1u, 2u, 3u}) {
      for (const TestCase &Test :
           makeInitialTests(Spec, Width, Smt, Seed * 0x9e3779b9, 3)) {
        std::optional<ConcreteGoalOutcome> Concrete = Eval.evaluateGoal(Test);
        ASSERT_TRUE(Concrete.has_value()) << Goal.Name;
        ConcreteGoalOutcome Reference = smtReference(Smt, Spec, Test);
        ASSERT_EQ(Concrete->Defined, Reference.Defined) << Goal.Name;
        if (!Concrete->Defined)
          continue;
        ASSERT_EQ(Concrete->Results.size(), Reference.Results.size())
            << Goal.Name;
        for (unsigned R = 0; R < Concrete->Results.size(); ++R)
          EXPECT_EQ(Concrete->Results[R], Reference.Results[R])
              << Goal.Name << " result " << R;
      }
    }
  }
}

TEST_F(ConcreteGoalEvalTest, ScreenAgreesWithVerifier) {
  const InstrSpec &AddGoal = goal("add_rr");
  ConcreteGoalEval Eval(Smt, Width, AddGoal);
  PatternVerifier Verifier(Smt, Width, AddGoal);

  Graph Right(Width, {Sort::value(Width), Sort::value(Width)});
  Right.setResults(
      {Right.createBinary(Opcode::Add, Right.arg(0), Right.arg(1))});
  Graph Wrong(Width, {Sort::value(Width), Sort::value(Width)});
  Wrong.setResults(
      {Wrong.createBinary(Opcode::Sub, Wrong.arg(0), Wrong.arg(1))});

  // The correct pattern passes every test the wrong one is killed by.
  EXPECT_TRUE(Verifier.verify(Right));
  TestCase Counterexample;
  ASSERT_FALSE(Verifier.verify(Wrong, &Counterexample));
  ASSERT_EQ(Counterexample.size(), 2u);

  std::optional<ConcreteGoalOutcome> Outcome =
      Eval.evaluateGoal(Counterexample);
  ASSERT_TRUE(Outcome.has_value());
  EXPECT_EQ(Eval.screen(Wrong, Counterexample, *Outcome,
                        /*RequireTotal=*/false),
            ScreenVerdict::Kill);
  EXPECT_EQ(Eval.screen(Right, Counterexample, *Outcome,
                        /*RequireTotal=*/false),
            ScreenVerdict::Pass);
}

TEST_F(ConcreteGoalEvalTest, MemoryGoalScreeningIsExact) {
  // Memory goals use the simplify fallback; make sure it reaches a
  // ground verdict (not Inconclusive) on a real store pattern.
  const InstrSpec &Store = goal("mov_store_b");
  ConcreteGoalEval Eval(Smt, Width, Store);

  std::vector<TestCase> Tests = makeInitialTests(Store, Width, Smt, 7, 3);
  ASSERT_FALSE(Tests.empty());
  std::optional<ConcreteGoalOutcome> Outcome = Eval.evaluateGoal(Tests[0]);
  ASSERT_TRUE(Outcome.has_value());

  Graph Pattern(Width,
                {Sort::memory(), Sort::value(Width), Sort::value(Width)});
  Pattern.setResults({Pattern.createStore(Pattern.arg(0), Pattern.arg(1),
                                          Pattern.arg(2))});
  EXPECT_EQ(Eval.screen(Pattern, Tests[0], *Outcome, /*RequireTotal=*/false),
            ScreenVerdict::Pass);
}

TEST_F(ConcreteGoalEvalTest, CegisPrescreenKillsWithoutChangingResults) {
  // add_rr over {Add}: same pattern set with the pre-screen on and
  // off; with it on, wrong candidates die concretely.
  auto run = [&](bool Prescreen) {
    TestCorpus Corpus;
    CegisOptions Options;
    Options.UsePrescreen = Prescreen;
    return runCegisAllPatterns(Smt, Width, goal("add_rr"), {Opcode::Add},
                               Corpus, Options);
  };
  CegisOutcome On = run(true);
  CegisOutcome Off = run(false);
  EXPECT_TRUE(On.Exhausted);
  EXPECT_TRUE(Off.Exhausted);
  EXPECT_EQ(Off.PrescreenKills, 0u);

  std::multiset<std::string> OnExprs, OffExprs;
  for (const Graph &P : On.Patterns)
    OnExprs.insert(printGraphExpression(P));
  for (const Graph &P : Off.Patterns)
    OffExprs.insert(printGraphExpression(P));
  EXPECT_EQ(OnExprs, OffExprs);

  // With wrong-only templates every candidate disagrees with the goal
  // on some seed test, so the pre-screen must kill at least once and
  // save that many verification queries.
  TestCorpus Corpus;
  CegisOptions Options;
  CegisOutcome WrongOnly = runCegisAllPatterns(
      Smt, Width, goal("add_rr"), {Opcode::Sub}, Corpus, Options);
  EXPECT_TRUE(WrongOnly.Patterns.empty());
  EXPECT_GE(WrongOnly.PrescreenKills, 1u);
}

TEST(TestCorpusBehaviour, RejectsDuplicatesByValue) {
  // Regression: SharedTests used to collect the same counterexample
  // twice (push_back with no value check).
  TestCorpus Corpus;
  TestCase First = {BitValue(8, 5), BitValue(8, 7)};
  TestCase SameValue = {BitValue(8, 5), BitValue(8, 7)};
  EXPECT_TRUE(Corpus.insert(First, std::nullopt));
  EXPECT_FALSE(Corpus.insert(SameValue, std::nullopt));
  EXPECT_EQ(Corpus.size(), 1u);
  // Different value, same widths: accepted.
  EXPECT_TRUE(Corpus.insert({BitValue(8, 7), BitValue(8, 5)}, std::nullopt));
  EXPECT_EQ(Corpus.size(), 2u);
}

TEST(TestCorpusBehaviour, LruEvictionKeepsKillers) {
  TestCorpus Corpus(/*Capacity=*/2);
  TestCase A = {BitValue(8, 1)}, B = {BitValue(8, 2)}, C = {BitValue(8, 3)};
  EXPECT_TRUE(Corpus.insert(A, std::nullopt));
  EXPECT_TRUE(Corpus.insert(B, std::nullopt));

  // A kill refreshes A's eviction priority, so the full corpus evicts
  // B (stale) when C arrives.
  std::vector<TestCorpus::EntryPtr> Entries = Corpus.snapshot();
  ASSERT_EQ(Entries.size(), 2u);
  Corpus.recordKill(Entries[0]);
  EXPECT_TRUE(Corpus.insert(C, std::nullopt));
  EXPECT_EQ(Corpus.size(), 2u);
  EXPECT_EQ(Corpus.evictions(), 1u);

  std::set<std::string> Keys;
  for (const TestCase &Test : Corpus.allTests())
    Keys.insert(testCaseKey(Test));
  EXPECT_TRUE(Keys.count(testCaseKey(A)));
  EXPECT_TRUE(Keys.count(testCaseKey(C)));
  EXPECT_FALSE(Keys.count(testCaseKey(B)));
  // The evicted value may re-enter later.
  EXPECT_TRUE(Corpus.insert(B, std::nullopt));
}

TEST(PrescreenDeterminism, LibraryByteIdenticalWithAndWithoutPrescreen) {
  // The acceptance bar for the pre-screen: it only skips solver work,
  // it never changes the synthesized library.
  auto build = [](bool Prescreen) {
    GoalLibrary All = GoalLibrary::build(Width, {"Basic"});
    GoalLibrary Goals = GoalLibrary::subset(
        std::move(All), {"neg_r", "add_rr", "xor_rr", "cmp_je"});
    SynthesisOptions Options;
    Options.Width = Width;
    Options.QueryTimeoutMs = 30000;
    Options.TimeBudgetSeconds = 60;
    Options.UsePrescreen = Prescreen;
    ParallelBuildOptions Build;
    Build.NumThreads = 2;
    return synthesizeRuleLibraryParallel(Goals, Options, Build).serialize();
  };
  EXPECT_EQ(build(true), build(false));
}
