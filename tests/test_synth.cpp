//===- test_synth.cpp - Encoding / CEGIS / iterative-CEGIS tests ---------------===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//

#include "ir/Parser.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "synth/Synthesizer.h"
#include "x86/Goals.h"

#include <gtest/gtest.h>

#include <set>

using namespace selgen;

namespace {

constexpr unsigned Width = 8;

struct SynthTest : public ::testing::Test {
  SmtContext Smt;
  GoalLibrary Library =
      GoalLibrary::build(Width, GoalLibrary::allGroups());

  const InstrSpec &goal(const std::string &Name) {
    const GoalInstruction *Goal = Library.find(Name);
    EXPECT_NE(Goal, nullptr) << Name;
    return *Goal->Spec;
  }

  SynthesisOptions options(unsigned MaxSize, bool Total = false) {
    SynthesisOptions Opts;
    Opts.Width = Width;
    Opts.MaxPatternSize = MaxSize;
    Opts.RequireTotalPatterns = Total;
    Opts.QueryTimeoutMs = 30000;
    return Opts;
  }

  std::set<std::string> expressions(const GoalSynthesisResult &Result) {
    std::set<std::string> Exprs;
    for (const Graph &Pattern : Result.Patterns)
      Exprs.insert(printGraphExpression(Pattern));
    return Exprs;
  }
};

} // namespace

TEST_F(SynthTest, EncodingWellFormedIsSatisfiable) {
  ProgramEncoding Encoding(Smt, Width, goal("add_rr"),
                           {Opcode::Add, Opcode::Not});
  SmtSolver Solver(Smt);
  Solver.add(Encoding.wellFormed());
  EXPECT_EQ(Solver.check(), SmtResult::Sat);
  EXPECT_EQ(Encoding.numTemplates(), 2u);
  EXPECT_FALSE(Encoding.decisionVariables().empty());
}

TEST_F(SynthTest, CegisFindsNegPattern) {
  std::vector<TestCase> Tests;
  CegisOutcome Outcome = runCegisAllPatterns(
      Smt, Width, goal("neg_r"), {Opcode::Minus}, Tests, CegisOptions());
  ASSERT_EQ(Outcome.Patterns.size(), 1u);
  EXPECT_TRUE(Outcome.Exhausted);
  EXPECT_EQ(printGraphExpression(Outcome.Patterns[0]), "Minus(a0)");
}

TEST_F(SynthTest, CegisRejectsWrongTemplates) {
  std::vector<TestCase> Tests;
  CegisOutcome Outcome = runCegisAllPatterns(
      Smt, Width, goal("neg_r"), {Opcode::Not}, Tests, CegisOptions());
  EXPECT_TRUE(Outcome.Patterns.empty());
  EXPECT_TRUE(Outcome.Exhausted);
  // CEGIS needed at least one counterexample to rule Not out.
  EXPECT_GE(Outcome.Counterexamples + Outcome.SynthesisQueries, 1u);
}

TEST_F(SynthTest, CegisFindsBothCommutativeOrders) {
  std::vector<TestCase> Tests;
  CegisOutcome Outcome = runCegisAllPatterns(
      Smt, Width, goal("add_rr"), {Opcode::Add}, Tests, CegisOptions());
  EXPECT_TRUE(Outcome.Exhausted);
  std::set<std::string> Exprs;
  for (const Graph &P : Outcome.Patterns)
    Exprs.insert(printGraphExpression(P));
  EXPECT_TRUE(Exprs.count("Add(a0, a1)"));
  EXPECT_TRUE(Exprs.count("Add(a1, a0)"));
  EXPECT_EQ(Exprs.size(), 2u);
}

TEST_F(SynthTest, VerifyRejectsWrongPattern) {
  // Claim Sub(a0, a1) implements add_rr: must fail with a witness.
  Graph Wrong(Width, {Sort::value(Width), Sort::value(Width)});
  Wrong.setResults(
      {Wrong.createBinary(Opcode::Sub, Wrong.arg(0), Wrong.arg(1))});
  TestCase Counterexample;
  EXPECT_FALSE(verifyPatternAgainstGoal(Smt, Width, goal("add_rr"), Wrong,
                                        &Counterexample));
  ASSERT_EQ(Counterexample.size(), 2u);
  // The witness actually distinguishes them.
  BitValue A = Counterexample[0], B = Counterexample[1];
  EXPECT_NE(A.add(B), A.sub(B));
}

TEST_F(SynthTest, VerifyAcceptsAndnVariants) {
  // The four andn patterns from the paper's introduction.
  const InstrSpec &Andn = goal("andn");
  auto check = [&](std::function<NodeRef(Graph &)> Build) {
    Graph G(Width, {Sort::value(Width), Sort::value(Width)});
    G.setResults({Build(G)});
    EXPECT_TRUE(verifyPatternAgainstGoal(Smt, Width, Andn, G))
        << printGraphExpression(G);
  };
  // ~x & y
  check([](Graph &G) {
    return G.createBinary(Opcode::And, G.createUnary(Opcode::Not, G.arg(0)),
                          G.arg(1));
  });
  // x ^ (x | y)
  check([](Graph &G) {
    return G.createBinary(Opcode::Xor, G.arg(0),
                          G.createBinary(Opcode::Or, G.arg(0), G.arg(1)));
  });
  // y ^ (x & y)
  check([](Graph &G) {
    return G.createBinary(Opcode::Xor, G.arg(1),
                          G.createBinary(Opcode::And, G.arg(0), G.arg(1)));
  });
  // y - (x & y)
  check([](Graph &G) {
    return G.createBinary(Opcode::Sub, G.arg(1),
                          G.createBinary(Opcode::And, G.arg(0), G.arg(1)));
  });
}

TEST_F(SynthTest, MemoryRequirementAnalysis) {
  Synthesizer Synth(Smt, options(3));
  auto ops = [&](const std::string &Name) {
    return Synth.requiredMemoryOps(goal(Name));
  };
  EXPECT_EQ(ops("add_rr"), std::vector<Opcode>{});
  EXPECT_EQ(ops("mov_load_b"), std::vector<Opcode>{Opcode::Load});
  EXPECT_EQ(ops("mov_store_b"), std::vector<Opcode>{Opcode::Store});
  // Destination addressing mode needs both.
  EXPECT_EQ(ops("add_mr_b"),
            (std::vector<Opcode>{Opcode::Load, Opcode::Store}));
  // A compare with memory operand only loads.
  EXPECT_EQ(ops("cmpm_b_je"), std::vector<Opcode>{Opcode::Load});
}

TEST_F(SynthTest, SkipCriteria) {
  const InstrSpec &AddRR = goal("add_rr");
  // Criterion 2: Load consumes Memory but add_rr offers no source.
  EXPECT_TRUE(Synthesizer::shouldSkipMultiset(AddRR, {Opcode::Load}, Width));
  EXPECT_TRUE(
      Synthesizer::shouldSkipMultiset(AddRR, {Opcode::Store}, Width));
  // Cond needs a Bool source.
  EXPECT_TRUE(Synthesizer::shouldSkipMultiset(AddRR, {Opcode::Cond}, Width));
  EXPECT_FALSE(
      Synthesizer::shouldSkipMultiset(AddRR, {Opcode::Cmp, Opcode::Mux},
                                      Width));
  // Criterion 1: two single-result producers, one consumer slot... a
  // lone Add for add_rr is fine (one value result consumed by the
  // goal).
  EXPECT_FALSE(Synthesizer::shouldSkipMultiset(AddRR, {Opcode::Add}, Width));
  // Two Consts for a goal with one value result and no consumers:
  // one result necessarily dangles.
  EXPECT_TRUE(Synthesizer::shouldSkipMultiset(
      goal("mov_ri"), {Opcode::Const, Opcode::Const}, Width));
  // Goal-result criterion: cmp_jl needs a Bool producer.
  EXPECT_TRUE(Synthesizer::shouldSkipMultiset(goal("cmp_jl"),
                                              {Opcode::Add}, Width));
}

TEST_F(SynthTest, IterativeFindsIncAtSizeTwo) {
  Synthesizer Synth(Smt, options(2));
  GoalSynthesisResult Result = Synth.synthesize(goal("inc_r"));
  EXPECT_EQ(Result.MinimalSize, 2u);
  std::set<std::string> Exprs = expressions(Result);
  EXPECT_TRUE(Exprs.count("Add(a0, Const(1))"));
  EXPECT_TRUE(Exprs.count("Sub(a0, Const(-1))"));
  EXPECT_TRUE(Exprs.count("Minus(Not(a0))"));
  EXPECT_GT(Result.MultisetsSkipped, 0u);
}

TEST_F(SynthTest, IdentityPatternForImmediateMove) {
  Synthesizer Synth(Smt, options(1));
  GoalSynthesisResult Result = Synth.synthesize(goal("mov_ri"));
  EXPECT_EQ(Result.MinimalSize, 0u);
  ASSERT_FALSE(Result.Patterns.empty());
  EXPECT_EQ(Result.Patterns[0].numOperations(), 0u);
}

TEST_F(SynthTest, TotalModeFindsBlsrAtSizeThree) {
  Synthesizer Synth(Smt, options(3, /*Total=*/true));
  GoalSynthesisResult Result = Synth.synthesize(goal("blsr"));
  EXPECT_EQ(Result.MinimalSize, 3u);
  std::set<std::string> Exprs = expressions(Result);
  // The classic idiom plus the paper's x + (x | -x).
  EXPECT_TRUE(Exprs.count("And(a0, Add(a0, Const(-1)))") ||
              Exprs.count("And(Add(a0, Const(-1)), a0)"))
      << "blsr idiom missing";
  bool HasOrMinus = false;
  for (const std::string &E : Exprs)
    HasOrMinus |= E.find("Or(") != std::string::npos &&
                  E.find("Minus(") != std::string::npos;
  EXPECT_TRUE(HasOrMinus) << "x + (x | -x) variant missing";
}

TEST_F(SynthTest, MemoryGoalSynthesis) {
  Synthesizer Synth(Smt, options(2));
  GoalSynthesisResult Result = Synth.synthesize(goal("add_rm_b"));
  EXPECT_EQ(Result.MinimalSize, 2u);
  std::set<std::string> Exprs = expressions(Result);
  EXPECT_TRUE(Exprs.count("Load(a0, a1).0; Add(Load(a0, a1).1, a2)"));
}

TEST_F(SynthTest, JumpGoalSynthesis) {
  Synthesizer Synth(Smt, options(2));
  GoalSynthesisResult Result = Synth.synthesize(goal("cmp_jl"));
  EXPECT_EQ(Result.MinimalSize, 2u);
  bool HasCondCmp = false;
  for (const Graph &P : Result.Patterns) {
    std::string E = printGraphExpression(P);
    HasCondCmp |= E.find("Cond(Cmp<slt>(a0, a1))") != std::string::npos;
  }
  EXPECT_TRUE(HasCondCmp);
}

TEST_F(SynthTest, AllPatternsAreVerified) {
  // Every pattern the synthesizer returns must independently pass the
  // standalone verifier.
  Synthesizer Synth(Smt, options(2));
  for (const char *Name : {"not_r", "lea_bi", "sub_rr", "mov_store_b"}) {
    GoalSynthesisResult Result = Synth.synthesize(goal(Name));
    EXPECT_FALSE(Result.Patterns.empty()) << Name;
    for (const Graph &Pattern : Result.Patterns)
      EXPECT_TRUE(
          verifyPatternAgainstGoal(Smt, Width, goal(Name), Pattern))
          << Name << ": " << printGraphExpression(Pattern);
  }
}

TEST_F(SynthTest, ClassicCegisSolvesSmallGoal) {
  SynthesisOptions Opts = options(2);
  Opts.Alphabet = {Opcode::Minus, Opcode::Not, Opcode::Add};
  Synthesizer Synth(Smt, Opts);
  GoalSynthesisResult Result =
      Synth.synthesizeClassic(goal("neg_r"), /*Copies=*/1);
  ASSERT_FALSE(Result.Patterns.empty());
  EXPECT_TRUE(verifyPatternAgainstGoal(Smt, Width, goal("neg_r"),
                                       Result.Patterns[0]));
}

TEST_F(SynthTest, InitialTestsRespectMemoryWidth) {
  std::vector<TestCase> Tests =
      makeInitialTests(goal("mov_store_b"), Width, Smt, 1, 3);
  ASSERT_EQ(Tests.size(), 3u);
  // Goal args: [memory, base, value]; one 8-bit access => M is 9 bits.
  EXPECT_EQ(Tests[0][0].width(), 9u);
  EXPECT_EQ(Tests[0][1].width(), Width);
  EXPECT_EQ(Tests[0][2].width(), Width);
}

TEST_F(SynthTest, EncodingReconstructRoundTrip) {
  // Pin the location variables to a known placement by asserting the
  // synthesis condition on the Figure 1 goal, then check that the
  // reconstructed graph is exactly the expected pattern — the
  // Section 5.2 "reconstruct this pattern from L* and vi*" step.
  const InstrSpec &Goal = goal("add_rm_b");
  ProgramEncoding Encoding(Smt, Width, Goal,
                           {Opcode::Load, Opcode::Add});
  std::vector<TestCase> Tests = makeInitialTests(Goal, Width, Smt, 7, 4);

  CegisOptions Options;
  Options.MaxPatterns = 4;
  CegisOutcome Outcome = runCegisAllPatterns(
      Smt, Width, Goal, {Opcode::Load, Opcode::Add}, Tests, Options);
  ASSERT_FALSE(Outcome.Patterns.empty());
  std::set<std::string> Expected = {
      "Load(a0, a1).0; Add(Load(a0, a1).1, a2)",
      "Load(a0, a1).0; Add(a2, Load(a0, a1).1)"};
  for (const Graph &Pattern : Outcome.Patterns) {
    EXPECT_TRUE(Expected.count(printGraphExpression(Pattern)))
        << printGraphExpression(Pattern);
    EXPECT_TRUE(isWellFormed(Pattern));
    // Reconstruction drops nothing: both template operations are live.
    EXPECT_EQ(Pattern.numOperations(), 2u);
  }
  EXPECT_TRUE(Outcome.Exhausted);
  EXPECT_EQ(Outcome.Patterns.size(), 2u);
}

TEST_F(SynthTest, ExclusionClausesTerminate) {
  // CEGISAllPatterns must exhaust a finite pattern space rather than
  // loop: {Not, Not} for not_r can only place the two Nots in 2 ways,
  // and all candidates using both are non-equivalent.
  std::vector<TestCase> Tests;
  CegisOutcome Outcome = runCegisAllPatterns(
      Smt, Width, goal("not_r"), {Opcode::Not, Opcode::Not}, Tests,
      CegisOptions());
  EXPECT_TRUE(Outcome.Exhausted);
  // Not(Not(x)) = x != ~x, and a dangling Not is forbidden by the
  // all-used refinement, so nothing can be found.
  EXPECT_TRUE(Outcome.Patterns.empty());
}

TEST_F(SynthTest, SharedTestCasesCarryAcrossMultisets) {
  // Counterexamples found while trying one multiset are reused for the
  // next (they are plain goal-argument tuples).
  std::vector<TestCase> Tests;
  CegisOptions Options;
  CegisOutcome First = runCegisAllPatterns(
      Smt, Width, goal("add_rr"), {Opcode::Sub}, Tests, Options);
  EXPECT_TRUE(First.Patterns.empty());
  size_t TestsAfterFirst = Tests.size();
  EXPECT_GE(TestsAfterFirst, 3u); // Initial seeds at least.
  CegisOutcome Second = runCegisAllPatterns(
      Smt, Width, goal("add_rr"), {Opcode::Add}, Tests, Options);
  EXPECT_EQ(Second.Patterns.size(), 2u);
  EXPECT_GE(Tests.size(), TestsAfterFirst);
}

TEST_F(SynthTest, MultiResultIdentitySynthesis) {
  // xchg r1, r2 is implemented by pure wiring: both results are
  // argument pass-throughs, crossed. The encoding must find the
  // zero-operation pattern with lRes0 = a1, lRes1 = a0.
  SynthesisOptions Opts = options(0);
  Synthesizer Synth(Smt, Opts);
  GoalSynthesisResult Result = Synth.synthesize(goal("xchg_rr"));
  ASSERT_EQ(Result.Patterns.size(), 1u);
  EXPECT_EQ(Result.MinimalSize, 0u);
  EXPECT_EQ(printGraphExpression(Result.Patterns[0]), "a1; a0");
  EXPECT_TRUE(
      verifyPatternAgainstGoal(Smt, Width, goal("xchg_rr"),
                               Result.Patterns[0]));
}

TEST(SynthesisResult, MergeAddsCountersDedupesUnderCapKeepsWorstCause) {
  auto pattern = [](const char *Operands) {
    std::optional<Graph> G =
        parseGraph(std::string("graph w8 args(bv8, bv8) {\n  n0 = Add(") +
                   Operands + ")\n  results(n0)\n}\n");
    EXPECT_TRUE(G);
    return std::move(*G);
  };
  GoalSynthesisResult Result;
  std::set<std::string> Fingerprints;

  GoalSynthesisResult First;
  First.Patterns.push_back(pattern("a0, a1"));
  First.MultisetsRun = 2;
  First.SynthesisQueries = 3;
  mergeSynthesisResult(Result, Fingerprints, std::move(First), 2);
  EXPECT_TRUE(Result.Complete);

  // A part that ran out of budget names no cause; the merge does.
  GoalSynthesisResult Second;
  Second.Patterns.push_back(pattern("a0, a1")); // A duplicate.
  Second.Patterns.push_back(pattern("a1, a0"));
  Second.Patterns.push_back(pattern("a0, a0")); // Over the cap of 2.
  Second.Complete = false;
  Second.MultisetsRun = 1;
  Second.SynthesisQueries = 4;
  mergeSynthesisResult(Result, Fingerprints, std::move(Second), 2);
  EXPECT_FALSE(Result.Complete);
  EXPECT_EQ(Result.Cause, IncompleteCause::Budget);
  EXPECT_EQ(Result.MultisetsRun, 3u);
  EXPECT_EQ(Result.SynthesisQueries, 7u);
  ASSERT_EQ(Result.Patterns.size(), 2u);
  EXPECT_EQ(printGraph(Result.Patterns[1]), printGraph(pattern("a1, a0")));

  // The most severe cause wins, whatever the merge order.
  GoalSynthesisResult Third;
  Third.markIncomplete(IncompleteCause::Rlimit);
  mergeSynthesisResult(Result, Fingerprints, std::move(Third), 2);
  GoalSynthesisResult Fourth;
  Fourth.markIncomplete(IncompleteCause::Timeout);
  mergeSynthesisResult(Result, Fingerprints, std::move(Fourth), 2);
  EXPECT_EQ(Result.Cause, IncompleteCause::Rlimit);
}
