//===- test_minimizer.cpp - Proof-carrying library minimization ----------===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
// The minimizer's contract: deletions lean only on kept survivors (in
// a shadow chain the certificates name the transitive survivor, never
// a rule that is itself deleted), an SMT timeout keeps the rule, the
// cost policy only deletes what the chosen model says the survivor
// matches at no extra cost, rules the preparation cannot see pass
// through untouched — and, end to end, first-match minimization of the
// shipped basic library leaves every workload's machine code
// byte-identical while linting clean of shadowed rules.
//
//===----------------------------------------------------------------------===//

#include "analysis/LibraryMinimizer.h"
#include "analysis/RuleAudit.h"
#include "eval/Workloads.h"
#include "isel/AutomatonSelector.h"
#include "support/AtomicFile.h"
#include "support/FaultInjection.h"
#include "x86/Goals.h"
#include "x86/MachineIR.h"

#include <gtest/gtest.h>

using namespace selgen;

namespace {

constexpr unsigned W = 8;

struct MinimizerTest : public ::testing::Test {
  GoalLibrary Goals = GoalLibrary::build(W, GoalLibrary::allGroups());

  PatternDatabase parse(const std::string &Text) {
    std::string Error;
    PatternDatabase Db = PatternDatabase::deserialize(Text, &Error);
    EXPECT_EQ(Error, "");
    return Db;
  }
};

/// printMachineFunction output minus the header line (which carries
/// the selector name); everything below must be byte-identical.
std::string asmBody(const MachineFunction &MF) {
  std::string Text = printMachineFunction(MF);
  size_t Newline = Text.find('\n');
  return Newline == std::string::npos ? std::string()
                                      : Text.substr(Newline + 1);
}

} // namespace

TEST_F(MinimizerTest, ShadowChainCitesTransitiveSurvivor) {
  // Three structurally identical rules: under first-match the first
  // one claims every subject. Both deletions must cite rule #0 — the
  // transitive survivor — never the middle rule, which is itself dead.
  PatternDatabase Db = parse("rule add_rr\n"
                             "graph w8 args(bv8, bv8) {\n"
                             "  n0 = Add(a0, a1)\n"
                             "  results(n0)\n"
                             "}\n"
                             "endrule\n"
                             "rule or_rr\n"
                             "graph w8 args(bv8, bv8) {\n"
                             "  n0 = Add(a0, a1)\n"
                             "  results(n0)\n"
                             "}\n"
                             "endrule\n"
                             "rule xor_rr\n"
                             "graph w8 args(bv8, bv8) {\n"
                             "  n0 = Add(a0, a1)\n"
                             "  results(n0)\n"
                             "}\n"
                             "endrule\n");
  MinimizeResult Result = minimizeLibrary(Db, Goals);
  EXPECT_EQ(Result.RulesBefore, 3u);
  EXPECT_EQ(Result.RulesAfter, 1u);
  ASSERT_EQ(Result.Certificates.size(), 2u);
  for (const DeletionCertificate &C : Result.Certificates) {
    EXPECT_EQ(C.SubsumerIndex, 0u);
    EXPECT_EQ(C.SubsumerGoal, "add_rr");
    EXPECT_NE(C.Class, RuleClass::Live);
    EXPECT_FALSE(C.PatternFingerprint.empty());
    // Identical patterns carry no shift precondition: the subsumption
    // is purely structural, no SMT query to fingerprint.
    EXPECT_FALSE(C.NeededSmt);
  }
  ASSERT_EQ(Result.Classes.size(), 3u);
  EXPECT_EQ(Result.Classes[0], RuleClass::Live);
  EXPECT_NE(Result.Classes[1], RuleClass::Live);
  EXPECT_NE(Result.Classes[2], RuleClass::Live);
  EXPECT_EQ(Result.Minimized.rules().front().GoalName, "add_rr");

  // Fixpoint: minimizing the output again deletes nothing.
  MinimizeResult Again = minimizeLibrary(Result.Minimized, Goals);
  EXPECT_EQ(Again.Certificates.size(), 0u);
  EXPECT_EQ(Again.RulesAfter, Again.RulesBefore);
}

TEST_F(MinimizerTest, SmtTimeoutKeepsTheRule) {
  // Two identical shifted patterns: the subsumption needs an SMT
  // entailment query (the subsumer has a live shift). When the solver
  // comes back unknown, the pair must stay out of the relation — the
  // rule is kept, never unsoundly deleted.
  const std::string Text = "rule shl_rc\n"
                           "graph w8 args(bv8, bv8) {\n"
                           "  n0 = Shl(a0, a1)\n"
                           "  results(n0)\n"
                           "}\n"
                           "endrule\n"
                           "rule shr_rc\n"
                           "graph w8 args(bv8, bv8) {\n"
                           "  n0 = Shl(a0, a1)\n"
                           "  results(n0)\n"
                           "}\n"
                           "endrule\n";
  PatternDatabase Db = parse(Text);

  ASSERT_TRUE(FaultInjector::get().configure("solver_unknown@p=1,seed=1"));
  MinimizeResult Timeout = minimizeLibrary(Db, Goals);
  FaultInjector::get().disarm();
  EXPECT_EQ(Timeout.Certificates.size(), 0u);
  EXPECT_EQ(Timeout.RulesAfter, 2u);
  EXPECT_GE(Timeout.SmtInconclusive, 1u);
  EXPECT_EQ(Timeout.Classes[0], RuleClass::Live);
  EXPECT_EQ(Timeout.Classes[1], RuleClass::Live);

  // With a working solver the same pair is provable and carries the
  // query fingerprint in its certificate.
  MinimizeResult Sound = minimizeLibrary(Db, Goals);
  ASSERT_EQ(Sound.Certificates.size(), 1u);
  EXPECT_TRUE(Sound.Certificates[0].NeededSmt);
  EXPECT_FALSE(Sound.Certificates[0].SmtQueryFingerprint.empty());
  EXPECT_EQ(Sound.RulesAfter, 1u);
}

TEST_F(MinimizerTest, DominatedPolicyRespectsTheCostModel) {
  // sete's recipe emits two instructions (cmp + setcc, 1 + 2 cycles);
  // imul_rr emits one 3-cycle imul. With identical patterns the
  // earlier sete rule shadows the imul rule, and it dominates under
  // the latency model (3 <= 3) but not under the unit model (2 > 1):
  // the dominated policy must keep the rule there.
  const GoalInstruction *Sete = Goals.find("sete");
  const GoalInstruction *Imul = Goals.find("imul_rr");
  ASSERT_TRUE(Sete && Imul);
  RuleCost SeteCost = deriveRuleCost(*Sete);
  RuleCost ImulCost = deriveRuleCost(*Imul);
  ASSERT_GT(SeteCost.Instructions, ImulCost.Instructions);
  ASSERT_LE(SeteCost.Latency, ImulCost.Latency);

  const std::string Text = "rule sete\n"
                           "graph w8 args(bv8, bv8) {\n"
                           "  n0 = Mul(a0, a1)\n"
                           "  results(n0)\n"
                           "}\n"
                           "endrule\n"
                           "rule imul_rr\n"
                           "graph w8 args(bv8, bv8) {\n"
                           "  n0 = Mul(a0, a1)\n"
                           "  results(n0)\n"
                           "}\n"
                           "endrule\n";
  PatternDatabase Db = parse(Text);

  MinimizeOptions Unit;
  Unit.Policy = MinimizePolicy::Dominated;
  Unit.Model = CostKind::Unit;
  MinimizeResult KeptResult = minimizeLibrary(Db, Goals, Unit);
  EXPECT_EQ(KeptResult.Certificates.size(), 0u);
  EXPECT_EQ(KeptResult.RulesAfter, 2u);
  // Still *classified* shadowed — just not deletable under this model.
  EXPECT_EQ(KeptResult.Classes[1], RuleClass::Shadowed);

  MinimizeOptions Latency;
  Latency.Policy = MinimizePolicy::Dominated;
  Latency.Model = CostKind::Latency;
  MinimizeResult DeletedResult = minimizeLibrary(Db, Goals, Latency);
  ASSERT_EQ(DeletedResult.Certificates.size(), 1u);
  EXPECT_EQ(DeletedResult.Certificates[0].Class, RuleClass::CostDominated);
  EXPECT_EQ(DeletedResult.Certificates[0].Goal, "imul_rr");
  EXPECT_EQ(DeletedResult.Certificates[0].SubsumerGoal, "sete");
  EXPECT_EQ(DeletedResult.RulesAfter, 1u);
}

TEST_F(MinimizerTest, UnsatisfiablePreconditionRuleIsDeleted) {
  // Three shift rules: an in-range constant amount (live), an
  // out-of-range constant amount (P+ unsatisfiable and the engine's
  // matched-constant gate rejects every match: unfireable), and a
  // *computed* amount that is provably always out of range. The last
  // one must be kept — the runtime precondition gate never re-checks
  // computed amounts, so deleting it could change selection.
  const std::string Text = "rule shl_rc\n"
                           "graph w8 args(bv8) {\n"
                           "  n0 = Const[0x03:8]()\n"
                           "  n1 = Shl(a0, n0)\n"
                           "  results(n1)\n"
                           "}\n"
                           "endrule\n"
                           "rule shl_rc\n"
                           "graph w8 args(bv8) {\n"
                           "  n0 = Const[0x0c:8]()\n"
                           "  n1 = Shl(a0, n0)\n"
                           "  results(n1)\n"
                           "}\n"
                           "endrule\n"
                           "rule shl_rc\n"
                           "graph w8 args(bv8, bv8) {\n"
                           "  n0 = Const[0x08:8]()\n"
                           "  n1 = Or(a1, n0)\n"
                           "  n2 = Shl(a0, n1)\n"
                           "  results(n2)\n"
                           "}\n"
                           "endrule\n";
  PatternDatabase Db = parse(Text);

  MinimizeResult Result = minimizeLibrary(Db, Goals);
  ASSERT_EQ(Result.Certificates.size(), 1u);
  const DeletionCertificate &C = Result.Certificates[0];
  EXPECT_EQ(C.Class, RuleClass::Unfireable);
  EXPECT_EQ(C.Goal, "shl_rc");
  EXPECT_TRUE(C.NeededSmt);
  EXPECT_FALSE(C.SmtQueryFingerprint.empty());
  // No subsumer backs an unfireable deletion.
  EXPECT_TRUE(C.SubsumerGoal.empty());
  EXPECT_EQ(Result.RulesAfter, 2u);
  bool KeptInRange = false, KeptComputed = false, KeptOutOfRange = false;
  for (const Rule &R : Result.Minimized.rules()) {
    std::string Fp = R.Pattern.fingerprint();
    KeptInRange |= Fp.find("0x03") != std::string::npos;
    KeptComputed |= Fp.find("Or") != std::string::npos;
    KeptOutOfRange |= Fp.find("0x0c") != std::string::npos;
  }
  EXPECT_TRUE(KeptInRange);
  EXPECT_TRUE(KeptComputed);
  EXPECT_FALSE(KeptOutOfRange);

  // A wedged solver keeps the rule: the deletion needs the Unsat
  // verdict, and Unknown is not Unsat.
  ASSERT_TRUE(FaultInjector::get().configure("solver_unknown@p=1,seed=1"));
  MinimizeResult Timeout = minimizeLibrary(Db, Goals);
  FaultInjector::get().disarm();
  EXPECT_EQ(Timeout.Certificates.size(), 0u);
  EXPECT_EQ(Timeout.RulesAfter, 3u);
  EXPECT_GE(Timeout.SmtInconclusive, 1u);
}

TEST_F(MinimizerTest, UnpreparedRulesPassThrough) {
  // The rootless immediate-move identity rule and a rule whose goal no
  // target provides are invisible to preparation; the minimizer must
  // carry them into the output untouched.
  PatternDatabase Db = parse("rule mov_ri\n"
                             "graph w8 args(bv8) {\n"
                             "  results(a0)\n"
                             "}\n"
                             "endrule\n"
                             "rule no_such_goal\n"
                             "graph w8 args(bv8) {\n"
                             "  n0 = Not(a0)\n"
                             "  results(n0)\n"
                             "}\n"
                             "endrule\n"
                             "rule not_r\n"
                             "graph w8 args(bv8) {\n"
                             "  n0 = Not(a0)\n"
                             "  results(n0)\n"
                             "}\n"
                             "endrule\n");
  MinimizeResult Result = minimizeLibrary(Db, Goals);
  EXPECT_EQ(Result.Certificates.size(), 0u);
  EXPECT_EQ(Result.RulesAfter, 3u);
  EXPECT_GE(Result.UnpreparedKept, 2u);
  bool HasMovRi = false, HasForeign = false;
  for (const Rule &R : Result.Minimized.rules()) {
    HasMovRi |= R.GoalName == "mov_ri";
    HasForeign |= R.GoalName == "no_such_goal";
  }
  EXPECT_TRUE(HasMovRi);
  EXPECT_TRUE(HasForeign);
}

TEST_F(MinimizerTest, MinimizedShippedBasicLibraryPreservesSelection) {
  // The end-to-end anchor on a real artifact: first-match minimization
  // of the shipped basic library must delete something, leave every
  // workload's machine code byte-identical, and lint clean of
  // shadowed rules afterwards (the pass reaches a fixpoint).
  std::optional<std::string> Text = readFileToString(
      std::string(SELGEN_ARTIFACTS_DIR) + "/rule-library-basic-w8.dat");
  ASSERT_TRUE(Text) << "shipped rule library not found";

  PatternDatabase Db = parse(*Text);
  MinimizeResult Result = minimizeLibrary(Db, Goals);
  EXPECT_GT(Result.Certificates.size(), 0u);
  EXPECT_EQ(Result.RulesBefore - Result.Certificates.size(),
            Result.RulesAfter);

  MappedAutomatonSelector Before(Db, Goals);
  MappedAutomatonSelector After(Result.Minimized, Goals);
  for (const WorkloadProfile &Profile : cint2000Profiles()) {
    Function F = buildWorkload(Profile, W);
    SelectionResult B = Before.select(F);
    SelectionResult A = After.select(F);
    ASSERT_TRUE(B.MF && A.MF) << Profile.Name;
    EXPECT_EQ(asmBody(*B.MF), asmBody(*A.MF)) << Profile.Name;
  }

  PreparedLibrary Prepared(Result.Minimized, Goals);
  LintOptions Options;
  for (const LintFinding &F :
       auditPreparedLibrary(Prepared, W, "minimized.dat", Options))
    EXPECT_NE(F.Code, "shadowed-rule") << F.Message;
}
