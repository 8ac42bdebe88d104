//===- test_automaton_selector.cpp - Automaton selector equivalence ------------===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
// The automaton selector's contract is byte-identical machine code:
// for every function, it must pick the same rules and emit the same
// instructions as the linear GeneratedSelector, because both run the
// same selection engine and the automaton only accelerates candidate
// discovery. These tests enforce that equivalence across the
// hand-curated rule libraries, the per-pattern test functions of the
// testgen subsystem, the synthetic evaluation workloads at several
// widths, and the matcher edge cases (identity patterns, Imm-role
// binding, DAG re-convergence, compare-and-jump rules).
//
//===----------------------------------------------------------------------===//

#include "InflatedLibrary.h"
#include "eval/Workloads.h"
#include "ir/Normalizer.h"
#include "isel/AutomatonSelector.h"
#include "isel/GeneratedSelector.h"
#include "isel/SelectionEngine.h"
#include "refsel/ReferenceSelectors.h"
#include "support/Rng.h"
#include "support/Statistics.h"
#include "testgen/TestCaseGenerator.h"
#include "x86/Emulator.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <optional>

using namespace selgen;

namespace {

constexpr unsigned W = 8;

/// printMachineFunction output minus the first line: the header line
/// carries the machine function's name, which includes the selector
/// name ("f.synthesized" vs "f.automaton") by design. Everything
/// below it — every block, instruction, and operand — must be
/// byte-identical.
std::string asmBody(const MachineFunction &MF) {
  std::string Text = printMachineFunction(MF);
  size_t Newline = Text.find('\n');
  return Newline == std::string::npos ? std::string() :
                                        Text.substr(Newline + 1);
}

/// Selects \p F with both selectors and asserts byte-identical output
/// and identical coverage accounting.
void expectByteIdentical(const Function &F, GeneratedSelector &Linear,
                         MappedAutomatonSelector &Automaton,
                         const std::string &Context) {
  SelectionResult LinearResult = Linear.select(F);
  SelectionResult AutomatonResult = Automaton.select(F);
  ASSERT_TRUE(LinearResult.MF && AutomatonResult.MF) << Context;
  EXPECT_EQ(asmBody(*LinearResult.MF), asmBody(*AutomatonResult.MF))
      << Context;
  EXPECT_EQ(LinearResult.TotalOperations, AutomatonResult.TotalOperations)
      << Context;
  EXPECT_EQ(LinearResult.CoveredOperations,
            AutomatonResult.CoveredOperations)
      << Context;
  EXPECT_EQ(LinearResult.FallbackOperations,
            AutomatonResult.FallbackOperations)
      << Context;
}

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

struct AutomatonSelectorTest : public ::testing::Test {
  GoalLibrary Goals = GoalLibrary::build(W, GoalLibrary::allGroups());
  PatternDatabase GnuRules = buildGnuLikeRules(W);
  PatternDatabase ClangRules = buildClangLikeRules(W);
  GeneratedSelector Linear{GnuRules, Goals};
  MappedAutomatonSelector Automaton{GnuRules, Goals};
};

} // namespace

TEST_F(AutomatonSelectorTest, ByteIdenticalOnPatternTestFunctions) {
  // Every rule of both libraries as a runnable test function (the
  // testgen workload). Covers identity patterns, immediate forms,
  // memory rules, and the compare-and-jump rules, which testgen turns
  // into two-way branches.
  for (const PatternDatabase *Db : {&GnuRules, &ClangRules}) {
    GeneratedSelector Lin(*Db, Goals);
    MappedAutomatonSelector Auto(*Db, Goals);
    unsigned Index = 0;
    for (const Rule &R : Db->rules()) {
      Function F = buildPatternTestFunction(
          R, W, "pattest_" + std::to_string(Index));
      expectByteIdentical(F, Lin, Auto,
                          "rule " + std::to_string(Index) + " for " +
                              R.GoalName);
      ++Index;
    }
    EXPECT_GT(Index, 20u);
  }
}

TEST_F(AutomatonSelectorTest, ByteIdenticalOnEvalWorkloadsAllWidths) {
  // The synthetic CINT2000-profile workloads, both libraries, all the
  // widths the seed tests exercise.
  for (unsigned Width : {8u, 16u, 32u}) {
    GoalLibrary WidthGoals =
        GoalLibrary::build(Width, GoalLibrary::allGroups());
    for (bool UseClang : {false, true}) {
      PatternDatabase Db = UseClang ? buildClangLikeRules(Width)
                                    : buildGnuLikeRules(Width);
      GeneratedSelector Lin(Db, WidthGoals);
      MappedAutomatonSelector Auto(Db, WidthGoals);
      for (const WorkloadProfile &Profile : cint2000Profiles()) {
        Function F = buildWorkload(Profile, Width);
        expectByteIdentical(F, Lin, Auto,
                            Profile.Name + " w" + std::to_string(Width) +
                                (UseClang ? " clang" : " gnu"));
      }
    }
  }
}

TEST_F(AutomatonSelectorTest, ByteIdenticalOnRandomPrograms) {
  Rng Random(271828);
  for (int Trial = 0; Trial < 40; ++Trial) {
    Function F = singleBlock([&](Graph &G) {
      std::vector<NodeRef> Pool = {G.arg(1), G.arg(2)};
      auto pick = [&] { return Pool[Random.nextBelow(Pool.size())]; };
      for (int I = 0; I < 10; ++I) {
        switch (Random.nextBelow(8)) {
        case 0:
          Pool.push_back(G.createBinary(Opcode::Add, pick(), pick()));
          break;
        case 1:
          Pool.push_back(G.createBinary(Opcode::Sub, pick(), pick()));
          break;
        case 2:
          Pool.push_back(G.createBinary(Opcode::And, pick(), pick()));
          break;
        case 3:
          Pool.push_back(G.createBinary(Opcode::Or, pick(), pick()));
          break;
        case 4:
          Pool.push_back(G.createUnary(Opcode::Not, pick()));
          break;
        case 5:
          Pool.push_back(G.createUnary(Opcode::Minus, pick()));
          break;
        case 6:
          Pool.push_back(G.createConst(Random.nextInterestingBitValue(W)));
          break;
        case 7: {
          NodeRef Cmp = G.createCmp(
              allRelations()[Random.nextBelow(allRelations().size())],
              pick(), pick());
          Pool.push_back(G.createMux(Cmp, pick(), pick()));
          break;
        }
        }
      }
      return Pool.back();
    });
    normalizeFunction(F);
    expectByteIdentical(F, Linear, Automaton,
                        "random trial " + std::to_string(Trial));
  }
}

TEST_F(AutomatonSelectorTest, IdentityPatternMaterializesImmediates) {
  // A returned constant exercises the identity (argument-only) mov_ri
  // rule: it has no root operation, lives outside the discrimination
  // tree, and must still fire in both selectors.
  Function F = singleBlock(
      [](Graph &G) { return G.createConst(BitValue(W, 42)); });
  expectByteIdentical(F, Linear, Automaton, "returned constant");

  SelectionResult R = Automaton.select(F);
  EXPECT_EQ(R.FallbackOperations, 0u) << "mov_ri identity rule missing";
}

TEST_F(AutomatonSelectorTest, ImmRoleBindsOnlyConstants) {
  // add_ri's pattern argument has the Imm role: Add(a, 7) may use it,
  // Add(a, b) must not. The automaton's wildcard edges do not test
  // roles — the full matcher at the leaf does — so both subjects must
  // still produce identical code in both selectors.
  Function WithConst = singleBlock([](Graph &G) {
    return G.createBinary(Opcode::Add, G.arg(1),
                          G.createConst(BitValue(W, 7)));
  });
  Function WithValue = singleBlock([](Graph &G) {
    return G.createBinary(Opcode::Add, G.arg(1), G.arg(2));
  });
  expectByteIdentical(WithConst, Linear, Automaton, "add imm");
  expectByteIdentical(WithValue, Linear, Automaton, "add reg");
}

TEST_F(AutomatonSelectorTest, CompareAndJumpRules) {
  for (Relation Rel : allRelations()) {
    Function F("jump", W);
    BasicBlock *Entry = F.createBlock(
        "entry", {Sort::memory(), Sort::value(W), Sort::value(W)});
    BasicBlock *Then = F.createBlock("then", {Sort::memory()});
    BasicBlock *Else = F.createBlock("else", {Sort::memory()});
    {
      Graph &G = Entry->body();
      NodeRef Cond = G.createCmp(Rel, G.arg(1), G.arg(2));
      Entry->setBranch(Cond, Then, {G.arg(0)}, Else, {G.arg(0)});
    }
    {
      Graph &G = Then->body();
      Then->setReturn({G.arg(0), G.createConst(BitValue(W, 1))});
    }
    {
      Graph &G = Else->body();
      Else->setReturn({G.arg(0), G.createConst(BitValue(W, 0))});
    }
    expectByteIdentical(F, Linear, Automaton,
                        std::string("jump ") + relationName(Rel));
    SelectionResult R = Automaton.select(F);
    EXPECT_EQ(R.MF->entry()->terminator().TermKind, MTerminator::Kind::Jcc)
        << relationName(Rel);
  }
}

TEST_F(AutomatonSelectorTest, ShiftPreconditionStillBlocksRules) {
  // shl by an out-of-range constant: the full matcher's precondition
  // check must reject the rule in both selectors identically.
  Function F = singleBlock([](Graph &G) {
    return G.createBinary(Opcode::Shl, G.arg(1),
                          G.createConst(BitValue(W, 12)));
  });
  expectByteIdentical(F, Linear, Automaton, "out-of-range shl");
}

TEST_F(AutomatonSelectorTest, DagReconvergentSubjectsMatch) {
  // Subject re-convergence: both operands of the And are the same
  // Sub node (the blsr idiom built as a DAG).
  Function F = singleBlock([](Graph &G) {
    NodeRef Dec = G.createBinary(Opcode::Sub, G.arg(1),
                                 G.createConst(BitValue(W, 1)));
    return G.createBinary(Opcode::And, G.arg(1), Dec);
  });
  normalizeFunction(F);
  expectByteIdentical(F, Linear, Automaton, "blsr DAG");
}

TEST_F(AutomatonSelectorTest, SelectionRunsAgreeWithInterpreter) {
  // Not only identical to the linear selector, but actually correct:
  // differential against the IR interpreter.
  Function F = singleBlock([](Graph &G) {
    NodeRef Blsr = G.createBinary(
        Opcode::And, G.arg(1),
        G.createBinary(Opcode::Sub, G.arg(1),
                       G.createConst(BitValue(W, 1))));
    return G.createBinary(Opcode::Add, Blsr, G.arg(2));
  });
  normalizeFunction(F);
  SelectionResult R = Automaton.select(F);

  Rng Random(7);
  for (int Run = 0; Run < 40; ++Run) {
    std::vector<BitValue> Args = {Random.nextInterestingBitValue(W),
                                  Random.nextInterestingBitValue(W)};
    // An undefined interpreter run leaves nothing to check.
    TranslationCheck Check =
        checkTranslation(F, *R.MF, Args, MemoryState());
    EXPECT_TRUE(Check.agrees() || Check.referenceFailed())
        << "run " << Run << ": " << Check.Difference;
  }
}

TEST_F(AutomatonSelectorTest, StaticElisionPreservesByteIdentity) {
  // The known-bits analysis elides runtime shift-precondition re-checks
  // only where a static proof shows the check could never reject; the
  // emitted machine code must therefore be byte-identical with the
  // elision disabled.
  ASSERT_TRUE(staticPrecondElisionEnabled());
  struct ElisionOff {
    ElisionOff() { setStaticPrecondElision(false); }
    ~ElisionOff() { setStaticPrecondElision(true); }
  };
  for (unsigned Width : {8u, 16u, 32u}) {
    GoalLibrary WidthGoals =
        GoalLibrary::build(Width, GoalLibrary::allGroups());
    PatternDatabase Db = buildGnuLikeRules(Width);
    GeneratedSelector Lin(Db, WidthGoals);
    MappedAutomatonSelector Auto(Db, WidthGoals);
    for (const WorkloadProfile &Profile : cint2000Profiles()) {
      Function F = buildWorkload(Profile, Width);
      SelectionResult LinOn = Lin.select(F);
      SelectionResult AutoOn = Auto.select(F);
      std::string LinOnBody, AutoOnBody;
      ASSERT_TRUE(LinOn.MF && AutoOn.MF);
      LinOnBody = asmBody(*LinOn.MF);
      AutoOnBody = asmBody(*AutoOn.MF);
      {
        ElisionOff Off;
        SelectionResult LinOff = Lin.select(F);
        SelectionResult AutoOff = Auto.select(F);
        ASSERT_TRUE(LinOff.MF && AutoOff.MF);
        EXPECT_EQ(LinOnBody, asmBody(*LinOff.MF))
            << Profile.Name << " w" << Width << " linear";
        EXPECT_EQ(AutoOnBody, asmBody(*AutoOff.MF))
            << Profile.Name << " w" << Width << " automaton";
      }
    }
  }
}

TEST_F(AutomatonSelectorTest, ElisionProvesPreconditionsOnWorkloads) {
  // The workloads use the masked-amount shift idiom (And(x, W-1)) and
  // constant amounts, both of which the analysis discharges: the
  // counter must move, and must stay flat with the elision off.
  Statistics::get().clear();
  for (const WorkloadProfile &Profile : cint2000Profiles())
    (void)Automaton.select(buildWorkload(Profile, W));
  EXPECT_GT(Statistics::get().value("matcher.precond_proved"), 0);

  Statistics::get().clear();
  setStaticPrecondElision(false);
  for (const WorkloadProfile &Profile : cint2000Profiles())
    (void)Automaton.select(buildWorkload(Profile, W));
  setStaticPrecondElision(true);
  EXPECT_EQ(Statistics::get().value("matcher.precond_proved"), 0);
}

TEST_F(AutomatonSelectorTest, TelemetryCountersRecorded) {
  Statistics::get().clear();
  Function F = singleBlock([](Graph &G) {
    return G.createBinary(Opcode::Add, G.arg(1), G.arg(2));
  });
  MappedAutomatonSelector Fresh(GnuRules, Goals);
  GeneratedSelector LinearFresh(GnuRules, Goals);
  SelectionResult Auto = Fresh.select(F);
  SelectionResult Linear = LinearFresh.select(F);

  EXPECT_GT(Auto.RulesTried, 0u);
  EXPECT_GT(Auto.NodesVisited, 0u);
  EXPECT_GT(Linear.RulesTried, 0u);
  EXPECT_GT(Linear.NodesVisited, 0u);

  // select() adds exactly the counters it returns to the registry.
  Statistics &Stats = Statistics::get();
  EXPECT_GT(Stats.value("automaton.states"), 0);
  EXPECT_GT(Stats.value("automaton.transitions"), 0);
  EXPECT_EQ(Stats.value("selector.rules_tried"),
            static_cast<int64_t>(Auto.RulesTried + Linear.RulesTried));
  EXPECT_EQ(Stats.value("matcher.nodes_visited"),
            static_cast<int64_t>(Auto.NodesVisited + Linear.NodesVisited));

  // Candidate discovery is the whole point: the automaton must try
  // strictly fewer rules than the linear scan on the same function.
  EXPECT_LT(Auto.RulesTried, Linear.RulesTried);
}

TEST_F(AutomatonSelectorTest, StatisticsStayBoundedAcrossSelections) {
  // A long-lived caller on the default select() path must not grow the
  // registry per call: 200 selections leave the same keys as one, and
  // the JSON dump differs only in the digits of the counter totals.
  Function F = buildWorkload(cint2000Profiles().front(), W);
  Statistics::get().clear();
  (void)Automaton.select(F);
  size_t AfterOne = Statistics::get().toJson().size();
  for (int I = 1; I < 200; ++I)
    (void)Automaton.select(F);
  size_t AfterMany = Statistics::get().toJson().size();
  EXPECT_LE(AfterMany, AfterOne + 64);
}

TEST_F(AutomatonSelectorTest, MappedImageByteIdenticalOnPatternTestFunctions) {
  // The selector running off the mmap'ed image file: on every rule's
  // test function of both libraries, its full output — including the
  // machine-function header, since both selectors report the name
  // "automaton" — must equal the in-memory image's byte for byte.
  unsigned LibraryIndex = 0;
  for (const PatternDatabase *Db : {&GnuRules, &ClangRules}) {
    std::string Path = ::testing::TempDir() + "mapped_identity_" +
                       std::to_string(LibraryIndex++) + ".matb";
    {
      PreparedLibrary Lib(*Db, Goals);
      ASSERT_TRUE(buildMatcherAutomaton(Lib).writeBinaryFile(Path));
    }
    std::string Error;
    std::unique_ptr<MappedAutomaton> Mapped =
        MatcherAutomaton::mapBinary(Path, &Error);
    ASSERT_TRUE(Mapped) << Error;

    MappedAutomatonSelector InMemory(*Db, Goals);
    MappedAutomatonSelector FromImage(PreparedLibrary(*Db, Goals),
                                      Mapped->view());
    EXPECT_EQ(FromImage.numRules(), InMemory.numRules());
    unsigned Index = 0;
    for (const Rule &R : Db->rules()) {
      Function F = buildPatternTestFunction(
          R, W, "pattest_" + std::to_string(Index));
      SelectionResult FromMemory = InMemory.select(F);
      SelectionResult FromView = FromImage.select(F);
      ASSERT_TRUE(FromMemory.MF && FromView.MF);
      EXPECT_EQ(printMachineFunction(*FromMemory.MF),
                printMachineFunction(*FromView.MF))
          << "rule " << Index << " for " << R.GoalName;
      EXPECT_EQ(FromMemory.CoveredOperations, FromView.CoveredOperations);
      EXPECT_EQ(FromMemory.FallbackOperations,
                FromView.FallbackOperations);
      ++Index;
    }
    EXPECT_GT(Index, 20u);
  }
}

TEST_F(AutomatonSelectorTest, MappedImageByteIdenticalOnWorkloads) {
  std::string Path = ::testing::TempDir() + "mapped_workloads.matb";
  {
    PreparedLibrary Lib(GnuRules, Goals);
    ASSERT_TRUE(buildMatcherAutomaton(Lib).writeBinaryFile(Path));
  }
  std::string Error;
  std::unique_ptr<MappedAutomaton> Mapped =
      MatcherAutomaton::mapBinary(Path, &Error);
  ASSERT_TRUE(Mapped) << Error;
  MappedAutomatonSelector FromImage(PreparedLibrary(GnuRules, Goals),
                                    Mapped->view());
  for (const WorkloadProfile &Profile : cint2000Profiles()) {
    Function F = buildWorkload(Profile, W);
    SelectionResult FromMemory = Automaton.select(F);
    SelectionResult FromView = FromImage.select(F);
    ASSERT_TRUE(FromMemory.MF && FromView.MF);
    EXPECT_EQ(printMachineFunction(*FromMemory.MF),
              printMachineFunction(*FromView.MF))
        << Profile.Name;
  }
}

TEST_F(AutomatonSelectorTest, MappedImageRecordsAutomatonCounters) {
  // The selector built from a mapped image records the automaton size
  // counters just like the in-memory one: both land in --stats-json
  // whichever way selgen-compile obtained the automaton.
  std::string Path = ::testing::TempDir() + "mapped_counters.matb";
  PreparedLibrary Lib(GnuRules, Goals);
  MatcherAutomaton Compiled = buildMatcherAutomaton(Lib);
  ASSERT_TRUE(Compiled.writeBinaryFile(Path));
  std::string Error;
  std::unique_ptr<MappedAutomaton> Mapped =
      MatcherAutomaton::mapBinary(Path, &Error);
  ASSERT_TRUE(Mapped) << Error;

  Statistics::get().clear();
  MappedAutomatonSelector FromImage(std::move(Lib), Mapped->view());
  Statistics &Stats = Statistics::get();
  EXPECT_EQ(Stats.value("automaton.states"),
            static_cast<int64_t>(Compiled.view().numStates()));
  EXPECT_EQ(Stats.value("automaton.transitions"),
            static_cast<int64_t>(Compiled.view().numTransitions()));
  EXPECT_GT(Stats.value("automaton.states"), 0);

  // A cost-model selector over the same image records the same
  // counters.
  Statistics::get().clear();
  MappedAutomatonSelector Tiling(PreparedLibrary(GnuRules, Goals),
                                 Mapped->view(), CostKind::Latency);
  EXPECT_EQ(Stats.value("automaton.states"),
            static_cast<int64_t>(Compiled.view().numStates()));
  EXPECT_EQ(Stats.value("automaton.transitions"),
            static_cast<int64_t>(Compiled.view().numTransitions()));
}

TEST_F(AutomatonSelectorTest, EngineReturnsCountersAndWritesNoGlobals) {
  // The selection engine is a pure function, so a resident
  // multi-threaded server can call it without touching the
  // mutex-guarded global registry: the counters come back in the
  // result, nothing lands in the registry, and the machine code is
  // what the selectors' select() emits.
  Function F = buildWorkload(cint2000Profiles().front(), W);
  PreparedLibrary Lib(GnuRules, Goals);
  MatcherAutomaton Compiled = buildMatcherAutomaton(Lib);
  MappedAutomatonSelector FirstMatch(PreparedLibrary(GnuRules, Goals),
                                     Compiled.view());
  MappedAutomatonSelector Tiling(PreparedLibrary(GnuRules, Goals),
                                 Compiled.view(), CostKind::Latency);
  SelectionResult ViaFirstMatch = FirstMatch.select(F);
  SelectionResult ViaTiling = Tiling.select(F);

  Statistics::get().clear();
  std::string Empty = Statistics::get().toJson();
  MappedCandidateSource Source(Lib, Compiled.view());
  SelectionResult Rule =
      runRuleSelection(F, Lib, Source, CostKind::Unit, "automaton");
  SelectionResult Tiled =
      runAutomatonSelection(F, Lib, Compiled.view(), CostKind::Latency);
  EXPECT_EQ(Statistics::get().toJson(), Empty)
      << "the engine must not write the global registry";

  for (const SelectionResult *R : {&Rule, &Tiled}) {
    EXPECT_GT(R->RulesTried, 0u);
    EXPECT_GT(R->NodesVisited, 0u);
  }
  EXPECT_EQ(Rule.RulesTried, ViaFirstMatch.RulesTried);
  EXPECT_EQ(Rule.NodesVisited, ViaFirstMatch.NodesVisited);
  EXPECT_EQ(Rule.PrecondProved, ViaFirstMatch.PrecondProved);
  EXPECT_EQ(Tiled.RulesTried, ViaTiling.RulesTried);
  EXPECT_EQ(Tiled.NodesVisited, ViaTiling.NodesVisited);
  ASSERT_TRUE(Rule.MF && ViaFirstMatch.MF && Tiled.MF && ViaTiling.MF);
  EXPECT_EQ(printMachineFunction(*Rule.MF),
            printMachineFunction(*ViaFirstMatch.MF));
  EXPECT_EQ(printMachineFunction(*Tiled.MF),
            printMachineFunction(*ViaTiling.MF));
}

//===----------------------------------------------------------------------===//
// Shared rule store: a prepared library outlives its database.
//===----------------------------------------------------------------------===//

namespace {

/// A selector set up the way the serve benchmark's set-up does it: the
/// database is local to the set-up and destroyed before the selector
/// runs, so the prepared library and the selector live off the rule
/// store they share with it.
struct DetachedSelector {
  std::unique_ptr<MappedAutomaton> Image;
  std::unique_ptr<MappedAutomatonSelector> Selector;
};

DetachedSelector setUpFromLocalDatabase(const std::string &LibraryPath,
                                        const GoalLibrary &Goals,
                                        const std::string &ImagePath) {
  DetachedSelector Setup;
  PatternDatabase Database;
  Database = PatternDatabase::loadFromFile(LibraryPath);
  Database.filterNonNormalized();
  Database.sortSpecificFirst();
  std::optional<PreparedLibrary> Prepared;
  Prepared.emplace(Database, Goals);
  {
    MatcherAutomaton Automaton = buildMatcherAutomaton(*Prepared);
    EXPECT_TRUE(Automaton.writeBinaryFile(ImagePath));
  }
  std::string Error;
  Setup.Image = MatcherAutomaton::mapBinary(ImagePath, &Error);
  EXPECT_TRUE(Setup.Image) << Error;
  if (!Setup.Image)
    return Setup;
  EXPECT_EQ(automatonStalenessError(Setup.Image->view(), *Prepared), "");
  Setup.Selector = std::make_unique<MappedAutomatonSelector>(
      std::move(*Prepared), Setup.Image->view());
  return Setup;
}

} // namespace

TEST(SharedRuleStore, PreparedLibraryAndSelectorOutliveTheirDatabase) {
  // Both shipped libraries and the 10 000-rule library: every workload
  // selects byte-identically to a control whose database stays alive.
  GoalLibrary Goals = GoalLibrary::build(W, GoalLibrary::allGroups());
  std::string Inflated = ::testing::TempDir() + "/lifetime-10k.dat";
  inflated(shippedLibrary("rule-library-full-w8.dat"), 10000)
      .saveToFile(Inflated);
  const std::string Shipped = std::string(SELGEN_ARTIFACTS_DIR) + "/";
  for (const std::string &Path :
       {Shipped + "rule-library-basic-w8.dat",
        Shipped + "rule-library-full-w8.dat", Inflated}) {
    SCOPED_TRACE(Path);
    std::string ImagePath = ::testing::TempDir() + "/lifetime.matb";
    DetachedSelector Detached =
        setUpFromLocalDatabase(Path, Goals, ImagePath);
    ASSERT_TRUE(Detached.Selector);

    PatternDatabase Control = loadSelectorLibrary(Path);
    MappedAutomatonSelector Reference(Control, Goals);
    EXPECT_EQ(Detached.Selector->library().fingerprint(),
              Reference.library().fingerprint());
    size_t Workloads = 0;
    for (const WorkloadProfile &Profile : cint2000Profiles()) {
      Function F = buildWorkload(Profile, W);
      SelectionResult Expected = Reference.select(F);
      SelectionResult Actual = Detached.Selector->select(F);
      ASSERT_TRUE(Expected.MF && Actual.MF) << Profile.Name;
      EXPECT_EQ(printMachineFunction(*Expected.MF),
                printMachineFunction(*Actual.MF))
          << Profile.Name;
      ++Workloads;
    }
    EXPECT_EQ(Workloads, 11u);
    std::remove(ImagePath.c_str());
  }
  std::remove(Inflated.c_str());
}
