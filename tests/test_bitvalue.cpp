//===- test_bitvalue.cpp - BitValue unit and property tests ------------------===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/BitValue.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

using namespace selgen;

TEST(BitValue, ConstructionTruncates) {
  BitValue V(8, 0x1234);
  EXPECT_EQ(V.zextValue(), 0x34u);
  EXPECT_EQ(V.width(), 8u);
}

TEST(BitValue, ZeroAllOnesSignBit) {
  EXPECT_TRUE(BitValue::zero(13).isZero());
  EXPECT_TRUE(BitValue::allOnes(13).isAllOnes());
  EXPECT_EQ(BitValue::allOnes(13).zextValue(), 0x1FFFu);
  EXPECT_TRUE(BitValue::signBit(13).isNegative());
  EXPECT_EQ(BitValue::signBit(13).zextValue(), 1u << 12);
}

TEST(BitValue, SextValue) {
  EXPECT_EQ(BitValue(8, 0xFF).sextValue(), -1);
  EXPECT_EQ(BitValue(8, 0x7F).sextValue(), 127);
  EXPECT_EQ(BitValue(16, 0x8000).sextValue(), -32768);
  EXPECT_EQ(BitValue(64, ~uint64_t(0)).sextValue(), -1);
}

TEST(BitValue, BitAccess) {
  BitValue V(70, 0);
  V.setBit(69, true);
  V.setBit(3, true);
  EXPECT_TRUE(V.bit(69));
  EXPECT_TRUE(V.bit(3));
  EXPECT_FALSE(V.bit(68));
  V.setBit(69, false);
  EXPECT_FALSE(V.bit(69));
}

TEST(BitValue, WideArithmeticCarries) {
  // 2^64 - 1 + 1 carries into the second word.
  BitValue Low = BitValue(128, ~uint64_t(0));
  BitValue One(128, 1);
  BitValue Sum = Low.add(One);
  EXPECT_FALSE(Sum.bit(63));
  EXPECT_TRUE(Sum.bit(64));
  EXPECT_EQ(Sum.sub(One), Low);
}

TEST(BitValue, MulMatchesShift) {
  for (unsigned Width : {8u, 16u, 32u, 64u, 96u}) {
    BitValue X(Width, 0x5B);
    EXPECT_EQ(X.mul(BitValue(Width, 8)), X.shl(3))
        << "width " << Width;
  }
}

TEST(BitValue, DivisionConventions) {
  BitValue X(8, 100);
  EXPECT_EQ(X.udiv(BitValue(8, 7)).zextValue(), 14u);
  EXPECT_EQ(X.urem(BitValue(8, 7)).zextValue(), 2u);
  // SMT-LIB conventions for division by zero.
  EXPECT_TRUE(X.udiv(BitValue::zero(8)).isAllOnes());
  EXPECT_EQ(X.urem(BitValue::zero(8)), X);
}

TEST(BitValue, ShiftsBeyondWidth) {
  BitValue X(8, 0x80);
  EXPECT_TRUE(X.shl(8).isZero());
  EXPECT_TRUE(X.lshr(8).isZero());
  EXPECT_TRUE(X.ashr(8).isAllOnes()); // Sign fill.
  EXPECT_TRUE(BitValue(8, 0x40).ashr(8).isZero());
}

TEST(BitValue, ArithmeticShiftKeepsSign) {
  EXPECT_EQ(BitValue(8, 0xF0).ashr(2).zextValue(), 0xFCu);
  EXPECT_EQ(BitValue(8, 0x70).ashr(2).zextValue(), 0x1Cu);
}

TEST(BitValue, Rotates) {
  BitValue X(8, 0b10010110);
  EXPECT_EQ(X.rotl(3).zextValue(), 0b10110100u);
  EXPECT_EQ(X.rotr(3).zextValue(), 0b11010010u);
  EXPECT_EQ(X.rotl(8), X);
  EXPECT_EQ(X.rotl(11), X.rotl(3));
}

TEST(BitValue, ExtensionAndTruncation) {
  BitValue X(8, 0x9C);
  EXPECT_EQ(X.zext(16).zextValue(), 0x009Cu);
  EXPECT_EQ(X.sext(16).zextValue(), 0xFF9Cu);
  EXPECT_EQ(X.sext(16).trunc(8), X);
  EXPECT_EQ(X.zext(100).trunc(8), X);
}

TEST(BitValue, ExtractInsertConcat) {
  BitValue X(16, 0xABCD);
  EXPECT_EQ(X.extract(15, 8).zextValue(), 0xABu);
  EXPECT_EQ(X.extract(7, 0).zextValue(), 0xCDu);
  EXPECT_EQ(X.extract(11, 4).zextValue(), 0xBCu);
  EXPECT_EQ(BitValue::concat(X.extract(15, 8), X.extract(7, 0)), X);
  BitValue Patched = X.insert(4, BitValue(8, 0x55));
  EXPECT_EQ(Patched.zextValue(), 0xA55Du);
}

TEST(BitValue, Comparisons) {
  BitValue A(8, 0x01), B(8, 0xFF);
  EXPECT_TRUE(A.ult(B));
  EXPECT_TRUE(B.slt(A)); // 0xFF is -1 signed.
  EXPECT_TRUE(A.sgt(B));
  EXPECT_TRUE(A.ule(A));
  EXPECT_TRUE(A.sge(A));
  EXPECT_FALSE(A.ugt(B));
}

TEST(BitValue, CountingOperations) {
  BitValue X(16, 0x0F30);
  EXPECT_EQ(X.popcount(), 6u);
  EXPECT_EQ(X.countLeadingZeros(), 4u);
  EXPECT_EQ(X.countTrailingZeros(), 4u);
  EXPECT_EQ(BitValue::zero(16).countLeadingZeros(), 16u);
  EXPECT_EQ(BitValue::zero(16).countTrailingZeros(), 16u);
}

TEST(BitValue, Strings) {
  BitValue X(16, 0xABCD);
  EXPECT_EQ(X.toHexString(), "0xabcd");
  EXPECT_EQ(X.toUnsignedString(), "43981");
  EXPECT_EQ(X.toSignedString(), "-21555");
  EXPECT_EQ(BitValue::zero(8).toUnsignedString(), "0");
  EXPECT_EQ(BitValue::fromString(16, "abcd", 16), X);
  EXPECT_EQ(BitValue::fromString(16, "43981", 10), X);
  EXPECT_EQ(BitValue::fromString(16, "-21555", 10), X);
  EXPECT_EQ(BitValue::fromString(8, "10010110", 2).zextValue(), 0x96u);
}

TEST(BitValue, WideStringsRoundTrip) {
  Rng Random(7);
  for (int Trial = 0; Trial < 20; ++Trial) {
    BitValue X = Random.nextBitValue(100);
    EXPECT_EQ(BitValue::fromString(100, X.toUnsignedString(), 10), X);
    EXPECT_EQ(BitValue::fromString(100, X.toHexString().substr(2), 16), X);
  }
}

TEST(BitValue, HashDistinguishesWidths) {
  EXPECT_NE(BitValue(8, 5).hash(), BitValue(16, 5).hash());
  EXPECT_EQ(BitValue(8, 5).hash(), BitValue(8, 5).hash());
}

// --- Property tests against native 64-bit arithmetic -------------------

class BitValueProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(BitValueProperty, MatchesNativeArithmetic) {
  unsigned Width = GetParam();
  uint64_t Mask =
      Width == 64 ? ~uint64_t(0) : ((uint64_t(1) << Width) - 1);
  Rng Random(Width * 7919);
  for (int Trial = 0; Trial < 200; ++Trial) {
    uint64_t A = Random.nextUInt64() & Mask;
    uint64_t B = Random.nextUInt64() & Mask;
    BitValue X(Width, A), Y(Width, B);
    EXPECT_EQ(X.add(Y).zextValue(), (A + B) & Mask);
    EXPECT_EQ(X.sub(Y).zextValue(), (A - B) & Mask);
    EXPECT_EQ(X.mul(Y).zextValue(), (A * B) & Mask);
    EXPECT_EQ(X.bitAnd(Y).zextValue(), A & B);
    EXPECT_EQ(X.bitOr(Y).zextValue(), A | B);
    EXPECT_EQ(X.bitXor(Y).zextValue(), A ^ B);
    EXPECT_EQ(X.bitNot().zextValue(), ~A & Mask);
    EXPECT_EQ(X.neg().zextValue(), (~A + 1) & Mask);
    unsigned Shift = static_cast<unsigned>(B % Width);
    EXPECT_EQ(X.shl(Shift).zextValue(), (A << Shift) & Mask);
    EXPECT_EQ(X.lshr(Shift).zextValue(), A >> Shift);
    EXPECT_EQ(X.ult(Y), A < B);
    if (B != 0) {
      EXPECT_EQ(X.udiv(Y).zextValue(), A / B);
      EXPECT_EQ(X.urem(Y).zextValue(), A % B);
    }
  }
}

TEST_P(BitValueProperty, AlgebraicIdentities) {
  unsigned Width = GetParam();
  Rng Random(Width * 31337);
  for (int Trial = 0; Trial < 100; ++Trial) {
    BitValue X = Random.nextBitValue(Width);
    BitValue Y = Random.nextBitValue(Width);
    EXPECT_EQ(X.add(Y), Y.add(X));
    EXPECT_EQ(X.sub(Y), Y.sub(X).neg());
    EXPECT_EQ(X.bitXor(X), BitValue::zero(Width));
    EXPECT_EQ(X.bitNot().bitNot(), X);
    EXPECT_EQ(X.neg().neg(), X);
    EXPECT_EQ(X.rotl(5).rotr(5), X);
    // Division identity: x = q * y + r with r < y.
    if (!Y.isZero()) {
      BitValue Q = X.udiv(Y), R = X.urem(Y);
      EXPECT_EQ(Q.mul(Y).add(R), X);
      EXPECT_TRUE(R.ult(Y));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, BitValueProperty,
                         ::testing::Values(7u, 8u, 16u, 24u, 32u, 64u));

// --- Storage boundaries: one inline word up to 64 bits, heap above ------

namespace {

constexpr unsigned BoundaryWidths[] = {1, 63, 64, 65, 128, 129};

/// A value of \p Width bits with every third bit and the sign bit set,
/// so every backing word is distinct from zero and all-ones.
BitValue patterned(unsigned Width) {
  BitValue V = BitValue::zero(Width);
  for (unsigned I = 0; I < Width; I += 3)
    V.setBit(I, true);
  V.setBit(Width - 1, true);
  return V;
}

} // namespace

TEST(BitValueStorage, WordLayoutAtBoundaries) {
  for (unsigned Width : BoundaryWidths) {
    BitValue Ones = BitValue::allOnes(Width);
    ASSERT_EQ(Ones.wordCount(), (Width + 63) / 64) << Width;
    for (unsigned I = 0; I < Ones.wordCount(); ++I) {
      unsigned Bits = std::min(64u, Width - 64 * I);
      EXPECT_EQ(Ones.word(I), ~uint64_t(0) >> (64 - Bits)) << Width;
    }
    EXPECT_EQ(Ones.popcount(), Width);
    EXPECT_EQ(BitValue(Width, ~uint64_t(0)).popcount(), std::min(Width, 64u));
  }
}

TEST(BitValueStorage, CopyMoveAndSelfAssignmentAcrossStorage) {
  for (unsigned From : BoundaryWidths) {
    const BitValue Source = patterned(From);
    for (unsigned To : BoundaryWidths) {
      BitValue Copied(Source);
      EXPECT_EQ(Copied, Source);
      BitValue CopyAssigned = patterned(To);
      CopyAssigned = Source;
      ASSERT_EQ(CopyAssigned.width(), From);
      EXPECT_EQ(CopyAssigned, Source);

      BitValue Donor = Source;
      BitValue MoveAssigned = patterned(To);
      MoveAssigned = std::move(Donor);
      EXPECT_EQ(MoveAssigned, Source);
      // A moved-from value is the zero value of width 1 and reusable.
      EXPECT_EQ(Donor.width(), 1u);
      EXPECT_TRUE(Donor.isZero());
      Donor = patterned(To);
      EXPECT_EQ(Donor, patterned(To));
      BitValue MoveConstructed(std::move(Donor));
      EXPECT_EQ(MoveConstructed, patterned(To));
      EXPECT_EQ(Donor.width(), 1u);
    }
    BitValue Self = Source;
    BitValue &Alias = Self;
    Self = Alias;
    EXPECT_EQ(Self, Source);
    Self = std::move(Alias);
    EXPECT_EQ(Self, Source);
  }
}

TEST(BitValueStorage, CompareAndResizeAcross64Bits) {
  for (unsigned Width : BoundaryWidths) {
    BitValue V = patterned(Width);
    EXPECT_EQ(V, patterned(Width));
    EXPECT_NE(V, BitValue::zero(Width));
    EXPECT_TRUE(BitValue::zero(Width).ult(V));
    EXPECT_FALSE(V.ult(V));
    EXPECT_TRUE(V.slt(BitValue::zero(Width))); // The sign bit is set.
    for (unsigned Wider : BoundaryWidths) {
      if (Wider < Width)
        continue;
      BitValue Extended = V.zext(Wider);
      EXPECT_EQ(Extended.trunc(Width), V) << Width << " -> " << Wider;
      EXPECT_EQ(Extended.popcount(), V.popcount());
      EXPECT_EQ(V.sext(Wider).trunc(Width), V);
      if (Wider > Width) {
        EXPECT_TRUE(V.sext(Wider).isNegative());
        EXPECT_FALSE(Extended.isNegative());
      }
    }
  }
  // The high word decides unsigned order; only the low word differs in
  // the second pair.
  BitValue LowOnes(129, ~uint64_t(0)), High = BitValue::signBit(129);
  EXPECT_TRUE(LowOnes.ult(High));
  EXPECT_TRUE(High.slt(LowOnes));
  EXPECT_TRUE(BitValue(65, 1).ult(BitValue(65, 2)));
  EXPECT_EQ(BitValue::allOnes(65).trunc(64), BitValue::allOnes(64));
  EXPECT_EQ(BitValue::allOnes(64).zext(65).add(BitValue(65, 1)),
            BitValue::signBit(65));
  EXPECT_EQ(BitValue::signBit(65).trunc(64), BitValue::zero(64));
  EXPECT_EQ(BitValue::signBit(129).lshr(65).trunc(64),
            BitValue::signBit(64));
}

TEST(BitValueStorage, HashIsUnchanged) {
  // hash() is FNV-1a over the width and the backing words; storage
  // does not enter it. Values pinned from the vector-backed layout.
  std::vector<size_t> Hashes;
  for (unsigned Width : BoundaryWidths) {
    Hashes.push_back(BitValue::zero(Width).hash());
    Hashes.push_back(patterned(Width).hash());
  }
  EXPECT_EQ(Hashes, (std::vector<size_t>{
      0x9a65ad00c545d5d2ull, 0x9a65ae00c545d785ull,
      0x9b2ac900c5ed4d1cull, 0xead374561b42a5a7ull,
      0x9b429300c601833bull, 0x2b18c4561b8d1d30ull,
      0xcaf98a506fa9fe96ull, 0xb3e17e50c1f98194ull,
      0x5486c54cc692fd01ull, 0x48532b15d9172e3cull,
      0x9403966d158e2c22ull, 0xb8f81b360f53412eull}));
}
