//===- test_smt.cpp - SMT layer and CommandLine tests --------------------------===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//

#include "smt/SmtContext.h"
#include "support/CommandLine.h"
#include "support/FaultInjection.h"
#include "support/Statistics.h"

#include <gtest/gtest.h>

#include <chrono>

using namespace selgen;

TEST(SmtContext, LiteralRoundTrip) {
  SmtContext Smt;
  for (unsigned Width : {1u, 8u, 36u, 64u, 100u}) {
    BitValue Value = BitValue::allOnes(Width).lshr(Width / 3);
    z3::expr Literal = Smt.literal(Value);
    EXPECT_EQ(Literal.get_sort().bv_size(), Width);
    SmtSolver Solver(Smt);
    ASSERT_EQ(Solver.check(), SmtResult::Sat);
    EXPECT_EQ(Smt.evalBits(Solver.model(), Literal), Value)
        << "width " << Width;
  }
}

TEST(SmtContext, SolveAndExtract) {
  SmtContext Smt;
  z3::expr X = Smt.bvConst("x", 16);
  SmtSolver Solver(Smt);
  Solver.add(X * Smt.ctx().bv_val(3, 16) == Smt.ctx().bv_val(0x2A, 16));
  ASSERT_EQ(Solver.check(), SmtResult::Sat);
  BitValue Solution = Smt.evalBits(Solver.model(), X);
  EXPECT_EQ(Solution.mul(BitValue(16, 3)).zextValue(), 0x2Au);
}

TEST(SmtContext, UnsatAndPushPop) {
  SmtContext Smt;
  z3::expr X = Smt.bvConst("y", 8);
  SmtSolver Solver(Smt);
  Solver.add(z3::ult(X, Smt.ctx().bv_val(5, 8)));
  Solver.push();
  Solver.add(z3::ugt(X, Smt.ctx().bv_val(10, 8)));
  EXPECT_EQ(Solver.check(), SmtResult::Unsat);
  Solver.pop();
  EXPECT_EQ(Solver.check(), SmtResult::Sat);
}

TEST(SmtContext, CheckAssuming) {
  SmtContext Smt;
  z3::expr B = Smt.boolConst("b");
  SmtSolver Solver(Smt);
  Solver.add(B || !B);
  EXPECT_EQ(Solver.checkAssuming({B}), SmtResult::Sat);
  EXPECT_EQ(Solver.checkAssuming({B, !B}), SmtResult::Unsat);
  EXPECT_EQ(Solver.check(), SmtResult::Sat); // Assumptions don't stick.
}

TEST(SmtContext, AndOrHelpers) {
  SmtContext Smt;
  EXPECT_TRUE(Smt.mkAnd({}).is_true());
  EXPECT_TRUE(Smt.mkOr({}).is_false());
  z3::expr B = Smt.boolConst("c");
  SmtSolver Solver(Smt);
  Solver.add(Smt.mkAnd({B, !B}));
  EXPECT_EQ(Solver.check(), SmtResult::Unsat);
}

TEST(SmtContext, StatisticsCountChecks) {
  Statistics::get().clear();
  SmtContext Smt;
  SmtSolver Solver(Smt);
  Solver.add(Smt.boolVal(true));
  Solver.check();
  Solver.check();
  EXPECT_EQ(Statistics::get().value("smt.checks"), 2);
  EXPECT_EQ(Statistics::get().value("smt.sat"), 2);
  Statistics::get().clear();
}

TEST(SmtContext, EvalBool) {
  SmtContext Smt;
  z3::expr B = Smt.boolConst("d");
  SmtSolver Solver(Smt);
  Solver.add(B);
  ASSERT_EQ(Solver.check(), SmtResult::Sat);
  EXPECT_TRUE(Smt.evalBool(Solver.model(), B));
  EXPECT_FALSE(Smt.evalBool(Solver.model(), !B));
}

// --- CommandLine ---------------------------------------------------------

namespace {

std::vector<char *> argvOf(std::vector<std::string> &Storage) {
  std::vector<char *> Result;
  for (std::string &S : Storage)
    Result.push_back(S.data());
  return Result;
}

} // namespace

TEST(CommandLine, ParsesFlagsValuesAndPositionals) {
  // Note: "--flag value" greedily binds the next non-option token, so
  // valueless flags go last or use "--flag=" syntax.
  std::vector<std::string> Args = {"prog", "--width",  "16",
                                   "--scale=full", "pos1", "pos2",
                                   "--verbose"};
  std::vector<char *> Argv = argvOf(Args);
  CommandLine Cli(static_cast<int>(Argv.size()), Argv.data(),
                  {"width", "scale", "verbose"});
  EXPECT_TRUE(Cli.errors().empty());
  EXPECT_EQ(Cli.intOption("width", 8), 16);
  EXPECT_EQ(Cli.stringOption("scale", "small"), "full");
  EXPECT_TRUE(Cli.hasFlag("verbose"));
  EXPECT_FALSE(Cli.hasFlag("quiet"));
  EXPECT_EQ(Cli.positional(),
            (std::vector<std::string>{"pos1", "pos2"}));
  EXPECT_EQ(Cli.doubleOption("budget", 2.5), 2.5);
}

TEST(CommandLine, ReportsUnknownOptions) {
  std::vector<std::string> Args = {"prog", "--bogus", "--width", "8"};
  std::vector<char *> Argv = argvOf(Args);
  CommandLine Cli(static_cast<int>(Argv.size()), Argv.data(), {"width"});
  ASSERT_EQ(Cli.errors().size(), 1u);
  EXPECT_NE(Cli.errors()[0].find("bogus"), std::string::npos);
  EXPECT_EQ(Cli.intOption("width", 0), 8);
}

TEST(CommandLine, CheckedOptionsEnforceWidthAndCountRules) {
  auto check = [](const std::string &Value, NumberRule Rule) {
    std::vector<std::string> Args = {"prog", "--n=" + Value};
    std::vector<char *> Argv = argvOf(Args);
    CommandLine Cli(static_cast<int>(Argv.size()), Argv.data(), {"n"});
    std::string Error;
    std::optional<unsigned> Result = Cli.checkedOption("n", 7, Rule, Error);
    EXPECT_EQ(Result.has_value(), Error.empty()) << Value;
    return Result;
  };
  EXPECT_EQ(check("", NumberRule::Width), 7u); // Empty reads the default.
  EXPECT_EQ(check("8", NumberRule::Width), 8u);
  EXPECT_EQ(check("2147483648", NumberRule::Width), 1u << 31);
  for (const char *Bad : {"0", "4", "12", "-8", "4294967296", "8x", "eight"})
    EXPECT_FALSE(check(Bad, NumberRule::Width)) << Bad;
  EXPECT_EQ(check("0", NumberRule::Count), 0u);
  EXPECT_EQ(check("4294967295", NumberRule::Count), 4294967295u);
  for (const char *Bad : {"-1", "4294967296", "3 ", "three"})
    EXPECT_FALSE(check(Bad, NumberRule::Count)) << Bad;

  std::vector<std::string> Args = {"prog", "--width", "12"};
  std::vector<char *> Argv = argvOf(Args);
  CommandLine Cli(static_cast<int>(Argv.size()), Argv.data(), {"width"});
  std::string Error;
  EXPECT_FALSE(Cli.checkedOption("width", 8, NumberRule::Width, Error));
  EXPECT_EQ(Error, "--width must be a power of two from 8 to 2^31 (got 12)");
}

TEST(CommandLine, Usage) {
  std::string Text = CommandLine::usage("prog", {"width", "runs"});
  EXPECT_NE(Text.find("--width"), std::string::npos);
  EXPECT_NE(Text.find("--runs"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Solver supervision: budgets, retries, containment, deadlines.
//===----------------------------------------------------------------------===//

namespace {

/// A factoring query Z3 cannot discharge quickly: x * y == c for a
/// 128-bit semiprime ((2^64 - 59) * (2^61 - 1)), x and y nontrivial.
void addHardQuery(SmtContext &Smt, SmtSolver &Solver) {
  z3::expr X = Smt.bvConst("hard_x", 128);
  z3::expr Y = Smt.bvConst("hard_y", 128);
  z3::expr One = Smt.ctx().bv_val(1, 128);
  z3::expr Product =
      Smt.ctx().bv_val("42535295865117307778430344311653531707", 128);
  Solver.add(X * Y == Product);
  Solver.add(z3::ugt(X, One));
  Solver.add(z3::ugt(Y, One));
}

} // namespace

TEST(SmtSupervision, RlimitExhaustionIsClassified) {
  SmtContext Smt;
  SmtSolver Solver(Smt);
  addHardQuery(Smt, Solver);
  Solver.setRlimit(1000); // Far too small for a factoring query.

  int64_t Before = Statistics::get().value("smt.rlimit_exhausted");
  EXPECT_EQ(Solver.check(), SmtResult::Unknown);
  EXPECT_EQ(Solver.lastFailure(), SmtFailure::Rlimit);
  EXPECT_EQ(Statistics::get().value("smt.rlimit_exhausted"), Before + 1);
}

TEST(SmtSupervision, RetryLadderRecoversFromTransientUnknown) {
  // The first attempt is forced inconclusive by fault injection; the
  // escalation ladder's second attempt answers the (easy) query.
  ASSERT_TRUE(FaultInjector::get().configure("solver_unknown@n=1"));
  SmtContext Smt;
  SmtSolver Solver(Smt);
  z3::expr X = Smt.bvConst("x", 8);
  Solver.add(X == Smt.ctx().bv_val(7, 8));
  Solver.setRetryScale({1, 4});

  int64_t Before = Statistics::get().value("smt.retries");
  EXPECT_EQ(Solver.check(), SmtResult::Sat);
  EXPECT_EQ(Solver.lastFailure(), SmtFailure::None);
  EXPECT_EQ(Statistics::get().value("smt.retries"), Before + 1);
  FaultInjector::get().disarm();
}

TEST(SmtSupervision, ExceptionsAreContained) {
  ASSERT_TRUE(FaultInjector::get().configure("solver_throw@n=1"));
  SmtContext Smt;
  SmtSolver Solver(Smt);
  z3::expr X = Smt.bvConst("x", 8);
  Solver.add(X == Smt.ctx().bv_val(7, 8));

  int64_t Before = Statistics::get().value("smt.exceptions");
  // One attempt only: the injected throw surfaces as Unknown, the
  // worker survives.
  EXPECT_EQ(Solver.check(), SmtResult::Unknown);
  EXPECT_EQ(Solver.lastFailure(), SmtFailure::Exception);
  EXPECT_EQ(Statistics::get().value("smt.exceptions"), Before + 1);

  // The solver remains usable afterwards.
  EXPECT_EQ(Solver.check(), SmtResult::Sat);
  EXPECT_EQ(Solver.lastFailure(), SmtFailure::None);
  FaultInjector::get().disarm();
}

TEST(SmtSupervision, RetryLadderRidesOverInjectedThrow) {
  ASSERT_TRUE(FaultInjector::get().configure("solver_throw@n=1"));
  SmtContext Smt;
  SmtSolver Solver(Smt);
  z3::expr X = Smt.bvConst("x", 8);
  Solver.add(X == Smt.ctx().bv_val(7, 8));
  Solver.setRetryScale({1, 1});

  EXPECT_EQ(Solver.check(), SmtResult::Sat);
  EXPECT_EQ(Solver.lastFailure(), SmtFailure::None);
  FaultInjector::get().disarm();
}

TEST(SmtSupervision, PassedDeadlineShortCircuits) {
  SmtContext Smt;
  SmtSolver Solver(Smt);
  z3::expr X = Smt.bvConst("x", 8);
  Solver.add(X == Smt.ctx().bv_val(7, 8));
  Solver.setDeadline(std::chrono::steady_clock::now() -
                     std::chrono::seconds(1));

  EXPECT_EQ(Solver.check(), SmtResult::Unknown);
  EXPECT_EQ(Solver.lastFailure(), SmtFailure::Deadline);

  Solver.clearDeadline();
  EXPECT_EQ(Solver.check(), SmtResult::Sat);
}

TEST(SmtSupervision, DeadlineInterruptsInFlightQuery) {
  SmtContext Smt;
  SmtSolver Solver(Smt);
  addHardQuery(Smt, Solver);
  Solver.setDeadline(std::chrono::steady_clock::now() +
                     std::chrono::milliseconds(200));

  auto Start = std::chrono::steady_clock::now();
  EXPECT_EQ(Solver.check(), SmtResult::Unknown);
  EXPECT_EQ(Solver.lastFailure(), SmtFailure::Deadline);
  // The watchdog cancels via Z3_interrupt; allow generous slack for
  // slow CI machines, but the point is it does not run unbounded.
  EXPECT_LT(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          Start)
                .count(),
            30.0);
}

TEST(SmtSupervision, StaleWatchdogInterruptIsSuppressed) {
  // Regression (PR 6): a deadline watchdog that wakes after its
  // fast-returning query already completed must not call Z3_interrupt
  // — the interrupt would land on the *next* query using the recycled
  // solver and spuriously cancel it. The watchdog_late fault parks the
  // check thread past the deadline after the check returned, so the
  // watchdog deterministically wakes with its check already retired;
  // the retire() guard (serialized on the watchdog mutex, so there is
  // no load-vs-interrupt window) must swallow the interrupt and count
  // it.
  ASSERT_TRUE(FaultInjector::get().configure("watchdog_late@n=1"));
  SmtContext Smt;
  SmtSolver Solver(Smt);
  z3::expr X = Smt.bvConst("x", 8);
  Solver.add(X == Smt.ctx().bv_val(7, 8));
  // Generous deadline: the trivial query returns well before it even
  // on a loaded CI machine; the injected sleep then carries the check
  // thread across it with the watchdog still armed.
  Solver.setDeadline(std::chrono::steady_clock::now() +
                     std::chrono::seconds(2));

  int64_t Before = Statistics::get().value("smt.stale_interrupts_suppressed");
  EXPECT_EQ(Solver.check(), SmtResult::Sat);
  EXPECT_EQ(Solver.lastFailure(), SmtFailure::None);
  EXPECT_EQ(Statistics::get().value("smt.stale_interrupts_suppressed"),
            Before + 1);

  // The recycled solver is untouched by the suppressed interrupt.
  Solver.clearDeadline();
  EXPECT_EQ(Solver.check(), SmtResult::Sat);
  EXPECT_EQ(Solver.lastFailure(), SmtFailure::None);
  FaultInjector::get().disarm();
}

TEST(SmtSupervision, PolicyAppliesAllKnobs) {
  SmtContext Smt;
  SmtSolver Solver(Smt);
  addHardQuery(Smt, Solver);
  SolverPolicy Policy;
  Policy.RlimitPerQuery = 500;
  Policy.RetryScale = {1, 2};
  Solver.applyPolicy(Policy);

  int64_t Retries = Statistics::get().value("smt.retries");
  EXPECT_EQ(Solver.check(), SmtResult::Unknown);
  EXPECT_EQ(Solver.lastFailure(), SmtFailure::Rlimit);
  // Both rungs of the ladder were tried.
  EXPECT_EQ(Statistics::get().value("smt.retries"), Retries + 1);
}
