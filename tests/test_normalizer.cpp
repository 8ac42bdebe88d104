//===- test_normalizer.cpp - IR normalization tests ----------------------------===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//

#include "InflatedLibrary.h"
#include "ir/Interpreter.h"
#include "ir/Normalizer.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "pattern/PatternDatabase.h"
#include "support/AtomicFile.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <functional>

using namespace selgen;

namespace {

Graph unary(Opcode Op, std::function<NodeRef(Graph &)> MakeOperand) {
  Graph G(8, {Sort::value(8), Sort::value(8)});
  G.setResults({G.createUnary(Op, MakeOperand(G))});
  return G;
}

std::string normalizedExpr(const Graph &G) {
  return printGraphExpression(normalizeGraph(G));
}

} // namespace

TEST(Normalizer, ConstantFolding) {
  Graph G(8, {});
  NodeRef Sum = G.createBinary(Opcode::Add, G.createConst(BitValue(8, 40)),
                               G.createConst(BitValue(8, 2)));
  G.setResults({Sum});
  EXPECT_EQ(normalizedExpr(G), "Const(42)");
}

TEST(Normalizer, ShiftFoldingRespectsPrecondition) {
  Graph G(8, {});
  NodeRef V = G.createBinary(Opcode::Shl, G.createConst(BitValue(8, 1)),
                             G.createConst(BitValue(8, 9)));
  G.setResults({V});
  // Amount 9 >= width: undefined, must NOT fold.
  EXPECT_EQ(normalizedExpr(G), "Shl(Const(1), Const(9))");
}

TEST(Normalizer, ConstantsMoveRight) {
  Graph G(8, {Sort::value(8)});
  G.setResults({G.createBinary(Opcode::Add, G.createConst(BitValue(8, 7)),
                               G.arg(0))});
  EXPECT_EQ(normalizedExpr(G), "Add(a0, Const(7))");
}

TEST(Normalizer, SubOfConstantBecomesAdd) {
  Graph G(8, {Sort::value(8)});
  G.setResults({G.createBinary(Opcode::Sub, G.arg(0),
                               G.createConst(BitValue(8, 1)))});
  EXPECT_EQ(normalizedExpr(G), "Add(a0, Const(-1))");
}

TEST(Normalizer, StrengthReduction) {
  Graph G(8, {Sort::value(8)});
  G.setResults({G.createBinary(Opcode::Mul, G.arg(0),
                               G.createConst(BitValue(8, 8)))});
  EXPECT_EQ(normalizedExpr(G), "Shl(a0, Const(3))");
}

TEST(Normalizer, Identities) {
  // x + 0 -> x.
  Graph G1(8, {Sort::value(8)});
  G1.setResults({G1.createBinary(Opcode::Add, G1.arg(0),
                                 G1.createConst(BitValue::zero(8)))});
  EXPECT_EQ(normalizedExpr(G1), "a0");

  // x ^ x -> 0.
  Graph G2(8, {Sort::value(8)});
  G2.setResults({G2.createBinary(Opcode::Xor, G2.arg(0), G2.arg(0))});
  EXPECT_EQ(normalizedExpr(G2), "Const(0)");

  // x & ~0 -> x; x | ~0 -> ~0.
  Graph G3(8, {Sort::value(8)});
  G3.setResults({G3.createBinary(Opcode::And, G3.arg(0),
                                 G3.createConst(BitValue::allOnes(8)))});
  EXPECT_EQ(normalizedExpr(G3), "a0");

  // x ^ ~0 -> ~x.
  Graph G4(8, {Sort::value(8)});
  G4.setResults({G4.createBinary(Opcode::Xor, G4.arg(0),
                                 G4.createConst(BitValue::allOnes(8)))});
  EXPECT_EQ(normalizedExpr(G4), "Not(a0)");

  // 0 - x -> -x.
  Graph G5(8, {Sort::value(8)});
  G5.setResults({G5.createBinary(Opcode::Sub,
                                 G5.createConst(BitValue::zero(8)),
                                 G5.arg(0))});
  EXPECT_EQ(normalizedExpr(G5), "Minus(a0)");
}

TEST(Normalizer, DoubleInversion) {
  EXPECT_EQ(normalizedExpr(unary(Opcode::Not, [](Graph &G) {
              return G.createUnary(Opcode::Not, G.arg(0));
            })),
            "a0");
  EXPECT_EQ(normalizedExpr(unary(Opcode::Minus, [](Graph &G) {
              return G.createUnary(Opcode::Minus, G.arg(1));
            })),
            "a1");
}

TEST(Normalizer, ConstantReassociation) {
  // (x + 3) + 4 -> x + 7.
  Graph G(8, {Sort::value(8)});
  NodeRef Inner = G.createBinary(Opcode::Add, G.arg(0),
                                 G.createConst(BitValue(8, 3)));
  G.setResults({G.createBinary(Opcode::Add, Inner,
                               G.createConst(BitValue(8, 4)))});
  EXPECT_EQ(normalizedExpr(G), "Add(a0, Const(7))");
}

TEST(Normalizer, CommonSubexpressionElimination) {
  Graph G(8, {Sort::value(8), Sort::value(8)});
  NodeRef A = G.createBinary(Opcode::Add, G.arg(0), G.arg(1));
  NodeRef B = G.createBinary(Opcode::Add, G.arg(0), G.arg(1));
  G.setResults({G.createBinary(Opcode::Xor, A, B)});
  // Identical Adds merge, then x ^ x -> 0.
  EXPECT_EQ(normalizedExpr(G), "Const(0)");
}

TEST(Normalizer, CmpConstantMovesRight) {
  Graph G(8, {Sort::value(8)});
  G.setResults({G.createCmp(Relation::Slt, G.createConst(BitValue(8, 5)),
                            G.arg(0))});
  // 5 < x becomes x > 5.
  EXPECT_EQ(normalizedExpr(G), "Cmp<sgt>(a0, Const(5))");
}

TEST(Normalizer, MuxSameOperands) {
  Graph G(8, {Sort::value(8), Sort::value(8)});
  NodeRef Cmp = G.createCmp(Relation::Eq, G.arg(0), G.arg(1));
  G.setResults({G.createMux(Cmp, G.arg(0), G.arg(0))});
  EXPECT_EQ(normalizedExpr(G), "a0");
}

TEST(Normalizer, IsNormalizedFilter) {
  // Already canonical.
  Graph Canonical(8, {Sort::value(8)});
  Canonical.setResults({Canonical.createBinary(
      Opcode::Add, Canonical.arg(0), Canonical.createConst(BitValue(8, 1)))});
  EXPECT_TRUE(isNormalized(Canonical));

  // Constant on the left: the compiler would never emit this.
  Graph Reversed(8, {Sort::value(8)});
  Reversed.setResults({Reversed.createBinary(
      Opcode::Add, Reversed.createConst(BitValue(8, 1)), Reversed.arg(0))});
  EXPECT_FALSE(isNormalized(Reversed));
}

// --- Property tests ------------------------------------------------------

namespace {

/// Builds a random graph over two value arguments.
Graph randomGraph(Rng &Random, unsigned Width, unsigned NumOps) {
  Graph G(Width, {Sort::value(Width), Sort::value(Width)});
  std::vector<NodeRef> Pool = {G.arg(0), G.arg(1)};
  auto pick = [&] { return Pool[Random.nextBelow(Pool.size())]; };
  for (unsigned I = 0; I < NumOps; ++I) {
    switch (Random.nextBelow(12)) {
    case 0:
      Pool.push_back(G.createConst(Random.nextInterestingBitValue(Width)));
      break;
    case 1:
      Pool.push_back(G.createBinary(Opcode::Add, pick(), pick()));
      break;
    case 2:
      Pool.push_back(G.createBinary(Opcode::Sub, pick(), pick()));
      break;
    case 3:
      Pool.push_back(G.createBinary(Opcode::Mul, pick(), pick()));
      break;
    case 4:
      Pool.push_back(G.createBinary(Opcode::And, pick(), pick()));
      break;
    case 5:
      Pool.push_back(G.createBinary(Opcode::Or, pick(), pick()));
      break;
    case 6:
      Pool.push_back(G.createBinary(Opcode::Xor, pick(), pick()));
      break;
    case 7:
      Pool.push_back(G.createUnary(Opcode::Not, pick()));
      break;
    case 8:
      Pool.push_back(G.createUnary(Opcode::Minus, pick()));
      break;
    case 9:
      Pool.push_back(G.createBinary(
          Opcode::Shl, pick(),
          G.createConst(BitValue(Width, Random.nextBelow(Width)))));
      break;
    case 10:
      Pool.push_back(G.createBinary(
          Opcode::Shr, pick(),
          G.createConst(BitValue(Width, Random.nextBelow(Width)))));
      break;
    case 11: {
      NodeRef Cmp = G.createCmp(
          allRelations()[Random.nextBelow(allRelations().size())], pick(),
          pick());
      Pool.push_back(G.createMux(Cmp, pick(), pick()));
      break;
    }
    }
  }
  G.setResults({Pool.back()});
  return G;
}

} // namespace

TEST(NormalizerProperty, IdempotentAndSemanticsPreserving) {
  Rng Random(2026);
  for (int Trial = 0; Trial < 150; ++Trial) {
    Graph G = randomGraph(Random, 8, 2 + Random.nextBelow(10));
    Graph N = normalizeGraph(G);
    EXPECT_TRUE(isWellFormed(N));

    // Idempotence: normalizing twice changes nothing.
    EXPECT_EQ(normalizeGraph(N).fingerprint(), N.fingerprint());

    // Semantics preservation on random inputs (shift preconditions are
    // met by construction: all shift amounts are constants < width).
    for (int Input = 0; Input < 10; ++Input) {
      std::vector<EvalValue> Args = {
          EvalValue::fromBits(Random.nextBitValue(8)),
          EvalValue::fromBits(Random.nextBitValue(8))};
      EvalResult Before = evaluateGraph(G, Args);
      EvalResult After = evaluateGraph(N, Args);
      ASSERT_FALSE(Before.Undefined);
      ASSERT_FALSE(After.Undefined);
      EXPECT_EQ(Before.Results[0].Bits, After.Results[0].Bits)
          << "graph: " << printGraphExpression(G)
          << "\nnormalized: " << printGraphExpression(N);
    }
  }
}

TEST(NormalizerProperty, NeverGrows) {
  Rng Random(777);
  for (int Trial = 0; Trial < 100; ++Trial) {
    Graph G = randomGraph(Random, 8, 2 + Random.nextBelow(8));
    Graph N = normalizeGraph(G);
    EXPECT_LE(N.numOperations(), G.numOperations());
  }
}

// --- Canonical-form identity pin ----------------------------------------

namespace {

struct CanonicalForms {
  uint32_t FingerprintCrc; ///< Of every normalizeGraph(G).fingerprint().
  size_t Survivors;        ///< Rules filterNonNormalized() keeps.
};

CanonicalForms canonicalForms(PatternDatabase Database) {
  std::string Fingerprints;
  for (const Rule &R : Database.rules())
    Fingerprints += normalizeGraph(R.Pattern).fingerprint();
  Database.filterNonNormalized();
  return {crc32(Fingerprints), Database.size()};
}

} // namespace

TEST(NormalizerIdentity, CanonicalFormsArePinned) {
  // Values the string-keyed normalizer produced. Any change to a
  // canonical form, commutative-operand order included, changes a CRC.
  PatternDatabase Basic = shippedLibrary("rule-library-basic-w8.dat");
  PatternDatabase Full = shippedLibrary("rule-library-full-w8.dat");
  PatternDatabase Base = shippedLibrary("rule-library-full-w8.dat");
  Base.filterNonNormalized();
  Base.sortSpecificFirst();
  PatternDatabase Variants = inflated(Base, 2000);
  ASSERT_EQ(Variants.size(), 2000u);

  CanonicalForms BasicForms = canonicalForms(std::move(Basic));
  EXPECT_EQ(BasicForms.FingerprintCrc, 0x9f7f8530u);
  EXPECT_EQ(BasicForms.Survivors, 136u);
  CanonicalForms FullForms = canonicalForms(std::move(Full));
  EXPECT_EQ(FullForms.FingerprintCrc, 0x34a3bbbcu);
  EXPECT_EQ(FullForms.Survivors, 309u);
  CanonicalForms VariantForms = canonicalForms(std::move(Variants));
  EXPECT_EQ(VariantForms.FingerprintCrc, 0x288be8ffu);
  EXPECT_EQ(VariantForms.Survivors, 990u);

  // Random graphs add Mux, Cmp and shared subexpressions the libraries
  // rarely carry.
  Rng Random(15);
  std::string Fingerprints;
  for (int Trial = 0; Trial < 2000; ++Trial)
    Fingerprints +=
        normalizeGraph(randomGraph(Random, 8, 2 + Random.nextBelow(12)))
            .fingerprint();
  EXPECT_EQ(crc32(Fingerprints), 0x41566aeeu);
}
