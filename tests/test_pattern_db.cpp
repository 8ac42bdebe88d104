//===- test_pattern_db.cpp - Pattern database tests ----------------------------===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//

#include "InflatedLibrary.h"
#include "RandomGraph.h"
#include "ir/Normalizer.h"
#include "ir/Printer.h"
#include "isel/PreparedLibrary.h"
#include "pattern/PatternDatabase.h"
#include "support/AtomicFile.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <random>

using namespace selgen;

namespace {

constexpr unsigned W = 8;

Graph addPattern(bool Swapped) {
  Graph G(W, {Sort::value(W), Sort::value(W)});
  NodeRef Lhs = Swapped ? G.arg(1) : G.arg(0);
  NodeRef Rhs = Swapped ? G.arg(0) : G.arg(1);
  G.setResults({G.createBinary(Opcode::Add, Lhs, Rhs)});
  return G;
}

Graph blsrPattern() {
  Graph G(W, {Sort::value(W)});
  G.setResults({G.createBinary(
      Opcode::And,
      G.createBinary(Opcode::Add, G.arg(0),
                     G.createConst(BitValue::allOnes(W))),
      G.arg(0))});
  return G;
}

Graph nonNormalizedPattern() {
  // Const on the left of a commutative op: the normalizer reorders it.
  Graph G(W, {Sort::value(W)});
  G.setResults({G.createBinary(Opcode::Add, G.createConst(BitValue(W, 1)),
                               G.arg(0))});
  return G;
}

/// Every rule's stored fingerprint and sort key must equal fresh ones.
void expectFingerprintsFresh(const PatternDatabase &DB) {
  for (const Rule &R : DB.rules()) {
    EXPECT_EQ(R.fingerprint(), R.Pattern.fingerprint()) << R.GoalName;
    EXPECT_EQ(R.numOperations(), R.Pattern.numOperations()) << R.GoalName;
    std::vector<Node *> Live = R.Pattern.liveNodes();
    EXPECT_EQ(R.numConstants(),
              std::count_if(Live.begin(), Live.end(), [](const Node *N) {
                return N->opcode() == Opcode::Const;
              }))
        << R.GoalName;
  }
}

/// (goal, fingerprint) pairs in library order.
std::vector<std::pair<std::string, std::string>>
ruleSequence(const PatternDatabase &DB) {
  std::vector<std::pair<std::string, std::string>> Sequence;
  for (const Rule &R : DB.rules())
    Sequence.emplace_back(R.GoalName, R.fingerprint());
  return Sequence;
}

} // namespace

TEST(PatternDatabase, AddRejectsExactDuplicates) {
  PatternDatabase DB;
  EXPECT_TRUE(DB.add("add_rr", addPattern(false)));
  EXPECT_FALSE(DB.add("add_rr", addPattern(false)));
  EXPECT_TRUE(DB.add("add_rr", addPattern(true))); // Different wiring.
  EXPECT_TRUE(DB.add("lea_bi", addPattern(false))); // Different goal.
  EXPECT_EQ(DB.size(), 3u);
  EXPECT_EQ(DB.rulesForGoal("add_rr").size(), 2u);
}

TEST(PatternDatabase, MergeAggregates) {
  PatternDatabase A, B;
  A.add("add_rr", addPattern(false));
  B.add("add_rr", addPattern(false)); // Duplicate across runs.
  B.add("blsr", blsrPattern());
  A.merge(std::move(B));
  EXPECT_EQ(A.size(), 2u);
}

TEST(PatternDatabase, MergedFromDatabaseIsReusable) {
  PatternDatabase A, B;
  B.add("blsr", blsrPattern());
  A.merge(std::move(B));
  EXPECT_EQ(B.size(), 0u);
  // The drained database must not remember the moved-out rule.
  EXPECT_TRUE(B.add("blsr", blsrPattern()));
  EXPECT_EQ(B.size(), 1u);
  EXPECT_FALSE(A.add("blsr", blsrPattern()));
  EXPECT_EQ(A.size(), 1u);
}

TEST(PatternDatabase, StoredFingerprintsStayFresh) {
  PatternDatabase A, B;
  A.add("add_rr", addPattern(false));
  A.add("add_ri", nonNormalizedPattern());
  B.add("add_rr", addPattern(true));
  B.add("blsr", blsrPattern());
  expectFingerprintsFresh(A);
  A.merge(std::move(B));
  expectFingerprintsFresh(A);

  std::string Error;
  PatternDatabase Loaded = PatternDatabase::deserialize(A.serialize(), &Error);
  ASSERT_TRUE(Error.empty()) << Error;
  EXPECT_EQ(ruleSequence(Loaded), ruleSequence(A));
  expectFingerprintsFresh(Loaded);

  EXPECT_EQ(Loaded.filterCommutativeDuplicates(), 1u);
  expectFingerprintsFresh(Loaded);
  EXPECT_EQ(Loaded.filterNonNormalized(), 1u);
  expectFingerprintsFresh(Loaded);
  Loaded.sortSpecificFirst();
  expectFingerprintsFresh(Loaded);
  ASSERT_EQ(Loaded.size(), 2u);
  EXPECT_EQ(Loaded.rules()[0].GoalName, "blsr");
  // The index follows the reordering: re-adding either rule is a no-op.
  EXPECT_FALSE(Loaded.add("blsr", blsrPattern()));
  EXPECT_FALSE(Loaded.add("add_rr", addPattern(false)));
  EXPECT_EQ(Loaded.size(), 2u);
}

TEST(PatternDatabase, CommutativeDuplicateFilter) {
  PatternDatabase DB;
  DB.add("add_rr", addPattern(false));
  DB.add("add_rr", addPattern(true));
  EXPECT_EQ(DB.filterCommutativeDuplicates(), 1u);
  EXPECT_EQ(DB.size(), 1u);
}

TEST(PatternDatabase, NonNormalizedFilter) {
  PatternDatabase DB;
  DB.add("add_ri", nonNormalizedPattern());
  DB.add("blsr", blsrPattern());
  EXPECT_EQ(DB.filterNonNormalized(), 1u);
  ASSERT_EQ(DB.size(), 1u);
  EXPECT_EQ(DB.rules()[0].GoalName, "blsr");
}

TEST(PatternDatabase, StoredNormalFormMatchesNormalizer) {
  // A rule's stored verdict must be the Section 5.6 filter's
  // definition, computed the long way: normalization leaves the
  // pattern's fingerprint unchanged. A rule built from a cloned
  // pattern computes it afresh.
  size_t Normal = 0, NotNormal = 0;
  auto check = [&](const Rule &R) {
    bool Expected =
        normalizeGraph(R.Pattern).fingerprint() == R.Pattern.fingerprint();
    (Expected ? Normal : NotNormal) += 1;
    EXPECT_EQ(R.inNormalForm(), Expected)
        << R.GoalName << "\n" << printGraph(R.Pattern);
    EXPECT_EQ(Rule(R.GoalName, R.Pattern.clone()).inNormalForm(), Expected)
        << R.GoalName;
  };

  // The libraries load through deserialize, so their verdicts are
  // taken on the worker threads' scratch.
  for (const char *Name :
       {"rule-library-basic-w8.dat", "rule-library-full-w8.dat"}) {
    SCOPED_TRACE(Name);
    PatternDatabase Library = shippedLibrary(Name);
    for (const Rule &R : Library.rules())
      check(R);
  }
  {
    SCOPED_TRACE("10k inflated library");
    PatternDatabase Inflated = PatternDatabase::deserialize(
        inflated(shippedLibrary("rule-library-full-w8.dat"), 10000)
            .serialize());
    ASSERT_EQ(Inflated.size(), 10000u);
    for (const Rule &R : Inflated.rules())
      check(R);
  }
  // Random graphs add Mux, Cmp and shared subexpressions the libraries
  // rarely carry, and rules the normalizer merges by CSE.
  Rng Random(25);
  for (int Trial = 0; Trial < 2000; ++Trial)
    check(Rule("random", randomGraph(Random, 8, 2 + Random.nextBelow(12))));
  // Both verdicts occur, so neither constant answer would pass.
  EXPECT_GT(Normal, 3000u);
  EXPECT_GT(NotNormal, 7000u);
}

TEST(PatternDatabase, SortSpecificFirst) {
  PatternDatabase DB;
  DB.add("add_rr", addPattern(false)); // 1 op, 0 consts.
  DB.add("blsr", blsrPattern());       // 3 ops.
  DB.add("inc_r", [&] {
    Graph G(W, {Sort::value(W)});
    G.setResults({G.createBinary(Opcode::Add, G.arg(0),
                                 G.createConst(BitValue(W, 1)))});
    return G;
  }());
  DB.sortSpecificFirst();
  EXPECT_EQ(DB.rules()[0].GoalName, "blsr");
  EXPECT_EQ(DB.rules()[1].GoalName, "inc_r");
  EXPECT_EQ(DB.rules()[2].GoalName, "add_rr");
}

TEST(PatternDatabase, DuplicatesStayRejectedAfterFiltersAndSort) {
  // The filters and the sort move rules and drop the duplicate index;
  // the next add() or merge() must rebuild it before deciding.
  const std::pair<const char *, size_t (*)(PatternDatabase &)> Steps[] = {
      {"filterCommutativeDuplicates",
       [](PatternDatabase &DB) { return DB.filterCommutativeDuplicates(); }},
      {"filterNonNormalized",
       [](PatternDatabase &DB) { return DB.filterNonNormalized(); }},
      {"sortSpecificFirst", [](PatternDatabase &DB) {
         DB.sortSpecificFirst();
         return size_t(0);
       }}};
  for (const auto &[Name, Step] : Steps) {
    SCOPED_TRACE(Name);
    PatternDatabase DB = shippedLibrary("rule-library-full-w8.dat");
    Step(DB);
    size_t Size = DB.size();
    ASSERT_GT(Size, 0u);
    for (const Rule &R : DB.rules())
      EXPECT_FALSE(DB.add(R.GoalName, R.Pattern.clone())) << R.GoalName;
    EXPECT_EQ(DB.size(), Size);

    Step(DB);
    PatternDatabase Other;
    for (const Rule &R : DB.rules())
      Other.add(R.GoalName, R.Pattern.clone());
    Other.add("probe", blsrPattern());
    DB.merge(std::move(Other));
    EXPECT_EQ(DB.size(), Size + 1);
    EXPECT_FALSE(DB.add("probe", blsrPattern()));
    expectFingerprintsFresh(DB);
  }
}

TEST(PatternDatabase, SortSpecificFirstIgnoresInputOrder) {
  // On the shipped library many rules tie on operation and constant
  // counts, so the order below them rests on the fingerprint tie-break.
  PatternDatabase FileOrder = PatternDatabase::loadFromFile(
      std::string(SELGEN_ARTIFACTS_DIR) + "/rule-library-full-w8.dat");
  ASSERT_GT(FileOrder.size(), 100u);
  std::vector<const Rule *> Shuffled;
  for (const Rule &R : FileOrder.rules())
    Shuffled.push_back(&R);
  std::shuffle(Shuffled.begin(), Shuffled.end(), std::mt19937(12));
  PatternDatabase ShuffledOrder;
  for (const Rule *R : Shuffled)
    ShuffledOrder.add(R->GoalName, R->Pattern.clone());
  ASSERT_NE(ruleSequence(ShuffledOrder), ruleSequence(FileOrder));

  FileOrder.sortSpecificFirst();
  ShuffledOrder.sortSpecificFirst();
  // Rules of different goals can share a pattern; the stable sort keeps
  // such rules in input order, so only those runs may differ, by goal.
  auto tiesByGoal = [](const PatternDatabase &DB) {
    auto Sequence = ruleSequence(DB);
    for (auto Run = Sequence.begin(); Run != Sequence.end();) {
      auto RunEnd = std::find_if(Run, Sequence.end(), [&](const auto &Entry) {
        return Entry.second != Run->second;
      });
      std::sort(Run, RunEnd);
      Run = RunEnd;
    }
    return Sequence;
  };
  EXPECT_EQ(tiesByGoal(ShuffledOrder), tiesByGoal(FileOrder));
  expectFingerprintsFresh(ShuffledOrder);
}

TEST(PatternDatabase, SerializationRoundTrip) {
  PatternDatabase DB;
  DB.add("add_rr", addPattern(false));
  DB.add("blsr", blsrPattern());
  DB.add("mov_ri", [&] {
    Graph G(W, {Sort::value(W)});
    G.setResults({G.arg(0)}); // Identity pattern.
    return G;
  }());

  std::string Error;
  PatternDatabase Loaded = PatternDatabase::deserialize(DB.serialize(),
                                                        &Error);
  EXPECT_TRUE(Error.empty()) << Error;
  ASSERT_EQ(Loaded.size(), DB.size());
  for (size_t I = 0; I < DB.size(); ++I) {
    EXPECT_EQ(Loaded.rules()[I].GoalName, DB.rules()[I].GoalName);
    EXPECT_EQ(Loaded.rules()[I].Pattern.fingerprint(),
              DB.rules()[I].Pattern.fingerprint());
  }
}

TEST(PatternDatabase, DeserializeRejectsGarbage) {
  std::string Error;
  PatternDatabase DB = PatternDatabase::deserialize("lorem ipsum", &Error);
  EXPECT_EQ(DB.size(), 0u);
  EXPECT_FALSE(Error.empty());

  Error.clear();
  DB = PatternDatabase::deserialize("rule foo\ngraph w8 args(bv8) {\n",
                                    &Error);
  EXPECT_FALSE(Error.empty());
}

TEST(PatternDatabase, FileRoundTrip) {
  PatternDatabase DB;
  DB.add("blsr", blsrPattern());
  std::string Path = ::testing::TempDir() + "/selgen_rules_test.dat";
  DB.saveToFile(Path);
  PatternDatabase Loaded = PatternDatabase::loadFromFile(Path);
  ASSERT_EQ(Loaded.size(), 1u);
  EXPECT_EQ(Loaded.rules()[0].Pattern.fingerprint(),
            DB.rules()[0].Pattern.fingerprint());
  std::remove(Path.c_str());
}

TEST(PatternDatabase, SaveReplacesAnExistingLibraryAtomically) {
  std::filesystem::path Dir =
      std::filesystem::path(::testing::TempDir()) / "selgen_save_test";
  std::filesystem::remove_all(Dir);
  std::filesystem::create_directories(Dir);
  std::string Path = (Dir / "rules.dat").string();
  // An older, longer library: a plain overwrite that stopped early
  // would leave its tail behind.
  PatternDatabase Old;
  for (int I = 0; I < 50; ++I)
    Old.add("blsr_" + std::to_string(I), blsrPattern());
  Old.saveToFile(Path);

  PatternDatabase New;
  New.add("add_rr", addPattern(false));
  New.add("blsr", blsrPattern());
  New.saveToFile(Path);
  EXPECT_EQ(readFileToString(Path), New.serialize());
  std::vector<std::string> Entries;
  for (const auto &Entry : std::filesystem::directory_iterator(Dir))
    Entries.push_back(Entry.path().filename().string());
  EXPECT_EQ(Entries, std::vector<std::string>{"rules.dat"});
  std::filesystem::remove_all(Dir);
}

TEST(PatternDatabaseDeathTest, SaveFailureIsFatal) {
  PatternDatabase DB;
  DB.add("blsr", blsrPattern());
  EXPECT_DEATH(DB.saveToFile("/nonexistent-selgen-dir/rules.dat"),
               "cannot write pattern database");
}

TEST(PatternDatabaseDeathTest, ChangesToRulesAPreparedLibrarySharesAreRefused) {
  // A prepared library points into its database's rule store; every
  // change to a database whose store it shares is refused, so the
  // prepared library's rules and fingerprint stay as prepared.
  GoalLibrary Goals = GoalLibrary::build(W, GoalLibrary::allGroups());
  const std::pair<const char *, void (*)(PatternDatabase &)> Changes[] = {
      {"add", [](PatternDatabase &DB) { DB.add("inc_r", addPattern(true)); }},
      {"merge into",
       [](PatternDatabase &DB) {
         PatternDatabase Other;
         Other.add("inc_r", addPattern(true));
         DB.merge(std::move(Other));
       }},
      {"merge from",
       [](PatternDatabase &DB) {
         PatternDatabase Other;
         Other.merge(std::move(DB));
       }},
      {"filterCommutativeDuplicates",
       [](PatternDatabase &DB) { DB.filterCommutativeDuplicates(); }},
      {"filterNonNormalized",
       [](PatternDatabase &DB) { DB.filterNonNormalized(); }},
      {"sortSpecificFirst",
       [](PatternDatabase &DB) { DB.sortSpecificFirst(); }},
  };
  for (const auto &[Name, Change] : Changes) {
    SCOPED_TRACE(Name);
    PatternDatabase DB;
    DB.add("add_rr", addPattern(false));
    DB.add("add_rr", addPattern(true));
    DB.add("add_ri", nonNormalizedPattern());
    DB.add("blsr", blsrPattern());
    std::vector<std::pair<std::string, std::string>> Before = ruleSequence(DB);
    {
      PreparedLibrary Library(DB, Goals);
      std::string Fingerprint = Library.fingerprint();
      std::vector<const Rule *> Prepared;
      for (const PreparedRule &R : Library.rules())
        Prepared.push_back(R.TheRule);
      EXPECT_DEATH(Change(DB), "prepared library shares");
      EXPECT_EQ(Library.fingerprint(), Fingerprint);
      ASSERT_EQ(Library.rules().size(), Prepared.size());
      for (size_t I = 0; I < Prepared.size(); ++I)
        EXPECT_EQ(Library.rules()[I].TheRule, Prepared[I]);
      EXPECT_EQ(ruleSequence(DB), Before);
    }
    // With the prepared library gone, the database may change again.
    Change(DB);
  }
}

TEST(PatternDatabase, SharedRulesOutliveTheDatabase) {
  // sharedRules() keeps the rules alive and unchanged after the
  // database is gone or has been replaced.
  std::shared_ptr<const std::vector<Rule>> Shared;
  std::vector<std::pair<std::string, std::string>> Before;
  {
    PatternDatabase DB;
    DB.add("add_ri", nonNormalizedPattern());
    DB.add("blsr", blsrPattern());
    Before = ruleSequence(DB);
    Shared = DB.sharedRules();
    DB = PatternDatabase();
    DB.add("add_rr", addPattern(false));
  }
  ASSERT_EQ(Shared->size(), Before.size());
  for (size_t I = 0; I < Before.size(); ++I) {
    EXPECT_EQ((*Shared)[I].GoalName, Before[I].first);
    EXPECT_EQ((*Shared)[I].fingerprint(), Before[I].second);
    EXPECT_EQ((*Shared)[I].Pattern.fingerprint(), Before[I].second);
  }
}

TEST(PatternDatabase, WideConstantLibraryLoadsFiltersAndSorts) {
  // A constant wider than 64 bits keeps its words on the heap. A load
  // that drops a duplicate of such a rule, a filter that rejects one and
  // moves the survivors, and a sort must free each exactly once (the
  // sanitizer jobs run this test).
  constexpr unsigned Wide = 128;
  BitValue Mask = BitValue::concat(BitValue(64, 0x00ff00ff00ff00ffULL),
                                   BitValue::allOnes(64));
  BitValue Step = BitValue::concat(BitValue(64, 1), BitValue(64, 3));
  auto withConstant = [&](Opcode Op, const BitValue &C, bool ConstFirst) {
    Graph G(Wide, {Sort::value(Wide)});
    NodeRef Const = G.createConst(C);
    G.setResults({ConstFirst ? G.createBinary(Op, Const, G.arg(0))
                             : G.createBinary(Op, G.arg(0), Const)});
    return G;
  };
  PatternDatabase Source;
  Source.add("and_ri", withConstant(Opcode::And, Mask, false));
  Source.add("add_ri", withConstant(Opcode::Add, Step, true));
  Source.add("add_ri", withConstant(Opcode::Add, Step, false));
  Source.add("xor_ri", withConstant(Opcode::Xor, Mask, false));
  ASSERT_EQ(Source.size(), 4u);
  ASSERT_FALSE(Source.rules()[1].inNormalForm());
  std::string Text = Source.serialize();
  std::string Duplicate = Text.substr(0, Text.find("endrule\n") + 8);
  // Each wide rule again, after the originals: duplicates to drop.
  std::string Path = (std::filesystem::temp_directory_path() /
                       "selgen-wide-constant-library.dat")
                          .string();
  ASSERT_TRUE(writeFileAtomic(Path, Text + Duplicate + Text));

  PatternDatabase DB = PatternDatabase::loadFromFile(Path);
  std::remove(Path.c_str());
  EXPECT_EQ(ruleSequence(DB), ruleSequence(Source));
  EXPECT_EQ(DB.filterNonNormalized(), 1u);
  DB.sortSpecificFirst();
  ASSERT_EQ(DB.size(), 3u);
  expectFingerprintsFresh(DB);
  for (const Rule &R : DB.rules()) {
    EXPECT_TRUE(R.inNormalForm()) << R.GoalName;
    EXPECT_EQ(R.Pattern.results()[0].Def->operand(1).Def->constValue().width(),
              Wide)
        << R.GoalName;
  }
}

// --- Parallel load ----------------------------------------------------------

namespace {

/// The full shipped library followed by seeded variants of its rules,
/// serialized: 3 000 records, enough that deserialize() parses them on
/// several threads.
const std::string &largeLibraryText() {
  static const std::string Text =
      inflated(shippedLibrary("rule-library-full-w8.dat"), 3000).serialize();
  return Text;
}

/// \p Text split into lines, each keeping its '\n'.
std::vector<std::string> splitLines(const std::string &Text) {
  std::vector<std::string> Lines;
  for (size_t Start = 0; Start < Text.size();) {
    size_t End = std::min(Text.find('\n', Start), Text.size() - 1) + 1;
    Lines.push_back(Text.substr(Start, End - Start));
    Start = End;
  }
  return Lines;
}

std::string joinLines(const std::vector<std::string> &Lines) {
  std::string Text;
  for (const std::string &Line : Lines)
    Text += Line;
  return Text;
}

/// Line index of the "rule" line of record \p Record.
size_t recordLine(const std::vector<std::string> &Lines, size_t Record) {
  for (size_t I = 0; I < Lines.size(); ++I)
    if (Lines[I].rfind("rule ", 0) == 0 && Record-- == 0)
      return I;
  ADD_FAILURE() << "no record " << Record;
  return 0;
}

/// deserialize()'s outcome: the exact error text, or the loaded rules.
std::string loadOutcome(const std::string &Text) {
  std::string Error;
  PatternDatabase Database = PatternDatabase::deserialize(Text, &Error);
  if (!Error.empty()) {
    EXPECT_EQ(Database.size(), 0u);
    return "error " + Error + "\n";
  }
  std::string Rules;
  for (const Rule &R : Database.rules())
    Rules += R.GoalName + " " + R.fingerprint() + "\n";
  return "library " + std::to_string(Database.size()) + " " +
         crc32Hex(Rules) + "\n";
}

} // namespace

TEST(PatternDatabase, ParallelLoadMatchesFileOrder) {
  // Seeded mutants of the large library, each with one to three line
  // edits (truncation, dropped, duplicated or swapped lines, byte
  // flips), so a mutant often carries several errors and the pin
  // checks that the earliest one in the file is reported. The pin is
  // the sequential loader's outcome for every mutant.
  const std::string &Text = largeLibraryText();
  std::vector<std::string> Lines = splitLines(Text);
  ASSERT_EQ(loadOutcome(Text).substr(0, 13), "library 3000 ");
  Rng Random(0x10AD);
  std::string Outcomes;
  size_t Accepted = 0;
  for (int Trial = 0; Trial < 120; ++Trial) {
    std::vector<std::string> Mutant = Lines;
    for (uint64_t Edits = 1 + Random.nextBelow(3); Edits > 0; --Edits) {
      size_t At = Random.nextBelow(Mutant.size());
      switch (Random.nextBelow(5)) {
      case 0:
        Mutant.resize(std::max<size_t>(At, Mutant.size() * 3 / 4));
        break;
      case 1:
        Mutant.erase(Mutant.begin() + At);
        break;
      case 2:
        Mutant.insert(Mutant.begin() + At, Mutant[At]);
        break;
      case 3:
        std::swap(Mutant[At], Mutant[Random.nextBelow(Mutant.size())]);
        break;
      default:
        if (!Mutant[At].empty())
          Mutant[At][Random.nextBelow(Mutant[At].size())] ^=
              static_cast<char>(1 + Random.nextBelow(255));
      }
    }
    std::string Outcome = loadOutcome(joinLines(Mutant));
    Accepted += Outcome.rfind("library ", 0) == 0;
    Outcomes += Outcome;
  }
  EXPECT_EQ(Accepted, 15u);
  EXPECT_EQ(crc32(Outcomes), 0x7275571au);
}

TEST(PatternDatabase, ParallelLoadReportsBadBodyBeforeLaterStructuralError) {
  std::vector<std::string> Lines = splitLines(largeLibraryText());
  size_t Late = recordLine(Lines, 2500), Early = recordLine(Lines, 100);
  Lines.insert(Lines.begin() + Late, "stray\n");
  Lines.insert(Lines.begin() + Early + 2, "  n99 = Frob(a0)\n");
  std::string Goal = Lines[Early].substr(5, Lines[Early].size() - 6);
  std::string Outcome = loadOutcome(joinLines(Lines));
  EXPECT_EQ(Outcome.rfind("error bad pattern for " + Goal + ": ", 0), 0u)
      << Outcome;
}

TEST(PatternDatabase, ParallelLoadReportsStructuralErrorBeforeLaterBadBody) {
  std::vector<std::string> Lines = splitLines(largeLibraryText());
  size_t Late = recordLine(Lines, 2500), Early = recordLine(Lines, 100);
  Lines.insert(Lines.begin() + Late + 2, "  n99 = Frob(a0)\n");
  Lines.insert(Lines.begin() + Early, "stray\n");
  EXPECT_EQ(loadOutcome(joinLines(Lines)),
            "error unexpected line outside rule record: stray\n");
}
