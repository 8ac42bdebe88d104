//===- test_tiling.cpp - Cost-minimal DAG tiling --------------------------===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
// Under the latency and size cost models the selection engine prices
// each block with the tiling DP before it selects. It must never emit statically
// costlier code than first-match (the unit model), and on libraries
// with same-pattern/different-cost rule collisions (add_rr vs add_ri)
// it must do strictly better. These tests enforce that, the DAG
// re-convergence accounting, and the typed refusal of an automaton
// image of the previous format version.
//
//===----------------------------------------------------------------------===//

#include "StampedImage.h"
#include "cost/CostModel.h"
#include "eval/Workloads.h"
#include "ir/Normalizer.h"
#include "isel/AutomatonSelector.h"
#include "matchergen/BinaryAutomaton.h"
#include "refsel/ReferenceSelectors.h"
#include "support/AtomicFile.h"
#include "x86/MachineIR.h"

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>

using namespace selgen;

namespace {

constexpr unsigned W = 8;

struct TilingTest : public ::testing::Test {
  GoalLibrary Goals = GoalLibrary::build(W, GoalLibrary::allGroups());
  PatternDatabase GnuRules = buildGnuLikeRules(W);
  PatternDatabase ClangRules = buildClangLikeRules(W);
};

/// One-block function over [mem, a, b].
Function singleBlock(const std::function<NodeRef(Graph &)> &Build) {
  Function F("f", W);
  BasicBlock *Entry = F.createBlock(
      "entry", {Sort::memory(), Sort::value(W), Sort::value(W)});
  Graph &G = Entry->body();
  NodeRef Result = Build(G);
  Entry->setReturn({G.arg(0), Result});
  return F;
}

} // namespace

TEST_F(TilingTest, StaticCostNeverWorseOnWorkloads) {
  // The DP minimizes the modeled cost of the cover it hands the
  // engine. Under the latency model the per-rule costs are
  // operand-independent, so the guarantee transfers to the measured
  // machine code: tiling must never emit a statically costlier
  // function than first-match. (The size model's per-rule costs are
  // operand-context-free by design — the encoded size of a memory
  // fold depends on the addressing mode only known at emission — so
  // its measured size carries no such bound; it is exercised for
  // validity only.)
  for (const PatternDatabase *Db : {&GnuRules, &ClangRules}) {
    MappedAutomatonSelector Auto(*Db, Goals);
    MappedAutomatonSelector Latency(*Db, Goals, CostKind::Latency);
    MappedAutomatonSelector Size(*Db, Goals, CostKind::Size);
    for (const WorkloadProfile &Profile : cint2000Profiles()) {
      Function F = buildWorkload(Profile, W);
      SelectionResult A = Auto.select(F);
      SelectionResult T = Latency.select(F);
      SelectionResult S = Size.select(F);
      ASSERT_TRUE(A.MF && T.MF && S.MF);
      EXPECT_LE(machineStaticCost(*T.MF, CostKind::Latency),
                machineStaticCost(*A.MF, CostKind::Latency))
          << Profile.Name;
      EXPECT_EQ(A.TotalOperations, S.TotalOperations) << Profile.Name;
    }
  }
}

TEST_F(TilingTest, CostModelPicksCheaperSamePatternRule) {
  // The shipped libraries' key collision in miniature: add_rr and
  // add_ri share the byte-identical pattern Add(a0, a1) (the roles
  // live in the goal spec). Insertion order puts add_rr first and the
  // deterministic priority sort is stable, so first-match commits to
  // add_rr and must materialize the constant with a mov (2
  // instructions). The latency model knows add_ri is one instruction
  // with the constant folded in.
  PatternDatabase Db;
  for (const char *Goal : {"mov_ri", "add_rr", "add_ri"}) {
    Graph Pattern(W, {Sort::value(W), Sort::value(W)});
    if (std::strcmp(Goal, "mov_ri") == 0) {
      Graph Identity(W, {Sort::value(W)});
      Identity.setResults({Identity.arg(0)});
      Db.add(Goal, normalizeGraph(Identity));
      continue;
    }
    Pattern.setResults(
        {Pattern.createBinary(Opcode::Add, Pattern.arg(0), Pattern.arg(1))});
    Db.add(Goal, normalizeGraph(Pattern));
  }

  Function F = singleBlock([](Graph &G) {
    return G.createBinary(Opcode::Add, G.arg(1),
                          G.createConst(BitValue(W, 60)));
  });

  MappedAutomatonSelector Auto(Db, Goals);
  MappedAutomatonSelector Latency(Db, Goals, CostKind::Latency);

  SelectionResult A = Auto.select(F);
  SelectionResult L = Latency.select(F);
  ASSERT_TRUE(A.MF && L.MF);

  // First-match: mov $60 + add_rr. Latency tiling: one add_ri.
  EXPECT_EQ(A.MF->numInstructions(), L.MF->numInstructions() + 1);
  EXPECT_LT(machineStaticCost(*L.MF, CostKind::Latency),
            machineStaticCost(*A.MF, CostKind::Latency));
}

TEST_F(TilingTest, DagReconvergencePricedOnce) {
  // The pricing of a shared value decides the cover. In
  //   t = (a + b) + b;  u = t ^ a;  result = u & t
  // t has two users, so its cone (two adds, latency 2) is produced
  // once and is free at both. The library adds a fused rule for
  // And(Xor(x, y), x), deliberately bound to imul_rr (latency 3), next
  // to the one-instruction add_rr, xor_rr and and_rr (latency 1).
  // Priced correctly, and_rr + xor_rr costs 2 against the fused rule's
  // 3, so latency tiling emits and, xor and the two adds. A DP that
  // priced t once per consumer would charge and_rr 1 + (1 + 2) + 2 = 6
  // against the fused rule's 3 + 2 = 5 and emit the imul instead.
  // First match takes the fused rule: it is legal, and it is the more
  // specific pattern.
  auto binaryRule = [](Opcode Op) {
    Graph Pattern(W, {Sort::value(W), Sort::value(W)});
    Pattern.setResults({Pattern.createBinary(Op, Pattern.arg(0),
                                             Pattern.arg(1))});
    return normalizeGraph(Pattern);
  };
  PatternDatabase Db;
  Db.add("add_rr", binaryRule(Opcode::Add));
  Db.add("xor_rr", binaryRule(Opcode::Xor));
  Db.add("and_rr", binaryRule(Opcode::And));
  Graph Fused(W, {Sort::value(W), Sort::value(W)});
  Fused.setResults({Fused.createBinary(
      Opcode::And,
      Fused.createBinary(Opcode::Xor, Fused.arg(0), Fused.arg(1)),
      Fused.arg(0))});
  Db.add("imul_rr", normalizeGraph(Fused));

  Function F = singleBlock([](Graph &G) {
    NodeRef Inner = G.createBinary(Opcode::Add, G.arg(1), G.arg(2));
    NodeRef T = G.createBinary(Opcode::Add, Inner, G.arg(2));
    NodeRef U = G.createBinary(Opcode::Xor, T, G.arg(1));
    return G.createBinary(Opcode::And, U, T);
  });

  auto countImul = [](const MachineFunction &MF) {
    unsigned Count = 0;
    for (const auto &MB : MF.blocks())
      for (const MachineInstr &I : MB->instructions())
        Count += I.Op == MOpcode::Imul;
    return Count;
  };

  MappedAutomatonSelector Auto(Db, Goals);
  MappedAutomatonSelector Latency(Db, Goals, CostKind::Latency);
  SelectionResult A = Auto.select(F);
  SelectionResult L = Latency.select(F);
  ASSERT_TRUE(A.MF && L.MF);
  EXPECT_EQ(countImul(*A.MF), 1u) << printMachineFunction(*A.MF);
  EXPECT_EQ(A.MF->numInstructions(), 3u) << printMachineFunction(*A.MF);
  EXPECT_EQ(countImul(*L.MF), 0u) << printMachineFunction(*L.MF);
  EXPECT_EQ(L.MF->numInstructions(), 4u) << printMachineFunction(*L.MF);
  EXPECT_EQ(machineStaticCost(*L.MF, CostKind::Latency), 4u);

  // Re-converging xors under GnuLike, which has one reg-reg ALU rule
  // per opcode: the shared add is emitted once, four instructions.
  Function Diamond = singleBlock([](Graph &G) {
    NodeRef T = G.createBinary(Opcode::Add, G.arg(1), G.arg(2));
    NodeRef U = G.createBinary(Opcode::Xor, T, G.arg(1));
    NodeRef V = G.createBinary(Opcode::Xor, T, G.arg(2));
    return G.createBinary(Opcode::And, U, V);
  });
  MappedAutomatonSelector GnuLatency(GnuRules, Goals, CostKind::Latency);
  SelectionResult R = GnuLatency.select(Diamond);
  ASSERT_TRUE(R.MF);
  EXPECT_EQ(R.MF->numInstructions(), 4u);
  EXPECT_EQ(machineStaticCost(*R.MF, CostKind::Latency), 4u);
}

TEST_F(TilingTest, BinaryV2ImageRejectedAsBadVersion) {
  PreparedLibrary Library(GnuRules, Goals);
  MatcherAutomaton Automaton = buildMatcherAutomaton(Library);
  std::string Image(Automaton.bytes());

  // Stamp the previous version (v2, which still carried a rule-cost
  // section), simulating a structurally intact v2 image. The binary
  // format has no upgrade path: the only valid answer is a typed
  // BadVersion rejection naming the fix.
  ASSERT_EQ(binfmt::Version, 3u);
  Image = withFormatVersion(Image, 2);

  std::string Path = ::testing::TempDir() + "tiling_v2.matb";
  {
    std::ofstream Out(Path, std::ios::binary);
    Out.write(Image.data(), static_cast<std::streamsize>(Image.size()));
  }
  std::string Error;
  std::unique_ptr<MappedAutomaton> Mapped =
      MatcherAutomaton::mapBinary(Path, &Error);
  EXPECT_FALSE(Mapped);
  EXPECT_NE(Error.find(binaryAutomatonErrorName(
                BinaryAutomatonError::BadVersion)),
            std::string::npos)
      << Error;
  EXPECT_NE(Error.find("selgen-matchergen --library <rules.dat> --output "
                       "<file>.matb"),
            std::string::npos)
      << Error;
}

TEST_F(TilingTest, ShippedLibraryLatencyTilingStrictlyCheaper) {
  // The acceptance anchor on real artifacts: on the shipped full
  // library the latency model must beat first-match somewhere (the
  // add_rr/add_ri family collides), and never lose anywhere.
  std::optional<std::string> Text = readFileToString(
      std::string(SELGEN_ARTIFACTS_DIR) + "/rule-library-full-w8.dat");
  ASSERT_TRUE(Text) << "shipped rule library not found";

  std::string Error;
  PatternDatabase Db = PatternDatabase::deserialize(*Text, &Error);
  ASSERT_TRUE(Error.empty()) << Error;

  MappedAutomatonSelector Auto(Db, Goals);
  MappedAutomatonSelector Latency(Db, Goals, CostKind::Latency);
  uint64_t AutoTotal = 0, TilingTotal = 0;
  for (const WorkloadProfile &Profile : cint2000Profiles()) {
    Function F = buildWorkload(Profile, W);
    SelectionResult A = Auto.select(F);
    SelectionResult L = Latency.select(F);
    ASSERT_TRUE(A.MF && L.MF);
    uint64_t ACost = machineStaticCost(*A.MF, CostKind::Latency);
    uint64_t LCost = machineStaticCost(*L.MF, CostKind::Latency);
    EXPECT_LE(LCost, ACost) << Profile.Name;
    AutoTotal += ACost;
    TilingTotal += LCost;
  }
  EXPECT_LT(TilingTotal, AutoTotal);
}
