//===- test_pattern_db.cpp - Pattern database tests ----------------------------===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//

#include "pattern/PatternDatabase.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
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

/// Every rule's stored fingerprint must equal a fresh one.
void expectFingerprintsFresh(const PatternDatabase &DB) {
  for (const Rule &R : DB.rules())
    EXPECT_EQ(R.fingerprint(), R.Pattern.fingerprint()) << R.GoalName;
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
