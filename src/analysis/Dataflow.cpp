//===- Dataflow.cpp - Known-bits and value-range dataflow --------------------===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//

#include "analysis/Dataflow.h"

#include "support/Error.h"

#include <algorithm>
#include <cassert>

using namespace selgen;

namespace {

/// The mask with the low \p Count bits set.
BitValue lowMask(unsigned Width, unsigned Count) {
  if (Count == 0)
    return BitValue::zero(Width);
  if (Count >= Width)
    return BitValue::allOnes(Width);
  return BitValue::allOnes(Width).lshr(Width - Count);
}

const BitValue &uminOf(const BitValue &A, const BitValue &B) {
  return A.ult(B) ? A : B;
}
const BitValue &umaxOf(const BitValue &A, const BitValue &B) {
  return A.ult(B) ? B : A;
}
const BitValue &sminOf(const BitValue &A, const BitValue &B) {
  return A.slt(B) ? A : B;
}
const BitValue &smaxOf(const BitValue &A, const BitValue &B) {
  return A.slt(B) ? B : A;
}

/// Number of low bits whose value is known (contiguously from bit 0).
unsigned knownTrailingBits(const BitValue &KnownZero,
                           const BitValue &KnownOne) {
  BitValue Unknown = KnownZero.bitOr(KnownOne).bitNot();
  return Unknown.isZero() ? KnownZero.width() : Unknown.countTrailingZeros();
}

/// Number of low bits known to hold zero (contiguously from bit 0).
unsigned knownTrailingZeros(const BitValue &KnownZero) {
  BitValue NotKnown = KnownZero.bitNot();
  return NotKnown.isZero() ? KnownZero.width() : NotKnown.countTrailingZeros();
}

} // namespace

//===----------------------------------------------------------------------===//
// ValueFact basics
//===----------------------------------------------------------------------===//

ValueFact::ValueFact(unsigned Width)
    : KnownZero(BitValue::zero(Width)), KnownOne(BitValue::zero(Width)),
      UMin(BitValue::zero(Width)), UMax(BitValue::allOnes(Width)),
      SMin(BitValue::signBit(Width)),
      SMax(BitValue::signBit(Width).bitNot()) {}

ValueFact ValueFact::constant(const BitValue &Value) {
  ValueFact F(Value.width());
  F.KnownOne = Value;
  F.KnownZero = Value.bitNot();
  F.UMin = F.UMax = Value;
  F.SMin = F.SMax = Value;
  return F;
}

ValueFact ValueFact::fromKnownBits(const BitValue &Zeros,
                                   const BitValue &Ones) {
  ValueFact F(Zeros.width());
  F.KnownZero = Zeros.bitAnd(Ones.bitNot()); // Keep the invariant.
  F.KnownOne = Ones;
  F.tighten();
  return F;
}

ValueFact ValueFact::fromUnsignedRange(const BitValue &Lo,
                                       const BitValue &Hi) {
  ValueFact F(Lo.width());
  F.UMin = uminOf(Lo, Hi);
  F.UMax = umaxOf(Lo, Hi);
  F.tighten();
  return F;
}

ValueFact ValueFact::fromSignedRange(const BitValue &Lo, const BitValue &Hi) {
  ValueFact F(Lo.width());
  F.SMin = sminOf(Lo, Hi);
  F.SMax = smaxOf(Lo, Hi);
  F.tighten();
  return F;
}

std::optional<BitValue> ValueFact::asConstant() const {
  if (isConstant())
    return UMin;
  return std::nullopt;
}

bool ValueFact::isTop() const { return *this == ValueFact(width()); }

bool ValueFact::contains(const BitValue &Value) const {
  if (!Value.bitAnd(KnownZero).isZero())
    return false;
  if (Value.bitAnd(KnownOne) != KnownOne)
    return false;
  if (Value.ult(UMin) || UMax.ult(Value))
    return false;
  if (Value.slt(SMin) || SMax.slt(Value))
    return false;
  return true;
}

ValueFact ValueFact::join(const ValueFact &Other) const {
  ValueFact F(width());
  F.KnownZero = KnownZero.bitAnd(Other.KnownZero);
  F.KnownOne = KnownOne.bitAnd(Other.KnownOne);
  F.UMin = uminOf(UMin, Other.UMin);
  F.UMax = umaxOf(UMax, Other.UMax);
  F.SMin = sminOf(SMin, Other.SMin);
  F.SMax = smaxOf(SMax, Other.SMax);
  F.tighten();
  return F;
}

ValueFact ValueFact::meet(const ValueFact &Other) const {
  ValueFact F(width());
  F.KnownZero = KnownZero.bitOr(Other.KnownZero);
  F.KnownOne = KnownOne.bitOr(Other.KnownOne);
  if (!F.KnownZero.bitAnd(F.KnownOne).isZero())
    return ValueFact(width()); // Contradiction: degrade to top.
  F.UMin = umaxOf(UMin, Other.UMin);
  F.UMax = uminOf(UMax, Other.UMax);
  F.SMin = smaxOf(SMin, Other.SMin);
  F.SMax = sminOf(SMax, Other.SMax);
  if (F.UMin.ugt(F.UMax) || F.SMin.sgt(F.SMax))
    return ValueFact(width());
  F.tighten();
  return F;
}

bool ValueFact::operator==(const ValueFact &Other) const {
  return KnownZero == Other.KnownZero && KnownOne == Other.KnownOne &&
         UMin == Other.UMin && UMax == Other.UMax && SMin == Other.SMin &&
         SMax == Other.SMax;
}

void ValueFact::tighten() {
  unsigned W = width();
  for (int Round = 0; Round < 2; ++Round) {
    // Known bits bound the unsigned range: the largest member has a
    // one wherever the bit is not known zero, the smallest is exactly
    // the known ones.
    UMax = uminOf(UMax, KnownZero.bitNot());
    UMin = umaxOf(UMin, KnownOne);

    // The common leading prefix of UMin and UMax is known outright.
    if (UMin == UMax) {
      KnownOne = UMin;
      KnownZero = UMin.bitNot();
    } else if (!UMin.ugt(UMax)) {
      BitValue Diff = UMin.bitXor(UMax);
      unsigned PrefixLen = Diff.countLeadingZeros();
      if (PrefixLen > 0) {
        BitValue PrefixMask = lowMask(W, PrefixLen).shl(W - PrefixLen);
        KnownOne = KnownOne.bitOr(UMin.bitAnd(PrefixMask));
        KnownZero = KnownZero.bitOr(UMin.bitNot().bitAnd(PrefixMask));
      }
    }

    // Same-sign members order identically under both comparisons, so
    // the ranges constrain each other.
    if (!UMax.isNegative() || UMin.isNegative()) {
      SMin = smaxOf(SMin, UMin);
      SMax = sminOf(SMax, UMax);
    }
    if (!SMin.isNegative() || SMax.isNegative()) {
      UMin = umaxOf(UMin, SMin);
      UMax = uminOf(UMax, SMax);
    }

    // Defensive: an over-tightened empty intersection (possible only
    // around undefined executions) degrades back to full ranges.
    if (UMin.ugt(UMax)) {
      UMin = BitValue::zero(W);
      UMax = BitValue::allOnes(W);
    }
    if (SMin.sgt(SMax)) {
      SMin = BitValue::signBit(W);
      SMax = BitValue::signBit(W).bitNot();
    }
  }
}

//===----------------------------------------------------------------------===//
// Transfer functions
//===----------------------------------------------------------------------===//

namespace {

/// a + b (+1): the common core of Add, Sub (a + ~b + 1), and Minus.
ValueFact transferAddLike(const ValueFact &A, const ValueFact &B,
                          bool CarryIn) {
  unsigned W = A.width();
  ValueFact F(W);
  BitValue Carry(W + 1, CarryIn ? 1 : 0);

  // Unsigned range in W+1 bits: exact modulo 2^W when both interval
  // endpoints wrap equally often.
  BitValue Lo = A.umin().zext(W + 1).add(B.umin().zext(W + 1)).add(Carry);
  BitValue Hi = A.umax().zext(W + 1).add(B.umax().zext(W + 1)).add(Carry);
  if (Lo.bit(W) == Hi.bit(W))
    F = F.meet(ValueFact::fromUnsignedRange(Lo.trunc(W), Hi.trunc(W)));

  // Signed range: exact when both endpoints fit back into W bits.
  BitValue SLo = A.smin().sext(W + 1).add(B.smin().sext(W + 1)).add(Carry);
  BitValue SHi = A.smax().sext(W + 1).add(B.smax().sext(W + 1)).add(Carry);
  if (SLo.trunc(W).sext(W + 1) == SLo && SHi.trunc(W).sext(W + 1) == SHi)
    F = F.meet(ValueFact::fromSignedRange(SLo.trunc(W), SHi.trunc(W)));

  // Low bits are exact while both operands' low bits are known: the
  // carry into bit i depends only on bits below i.
  unsigned K = std::min(knownTrailingBits(A.knownZero(), A.knownOne()),
                        knownTrailingBits(B.knownZero(), B.knownOne()));
  if (K > 0) {
    BitValue Sum = A.knownOne().add(B.knownOne());
    if (CarryIn)
      Sum = Sum.add(BitValue(W, 1));
    BitValue Mask = lowMask(W, K);
    F = F.meet(ValueFact::fromKnownBits(Sum.bitNot().bitAnd(Mask),
                                        Sum.bitAnd(Mask)));
  }
  return F;
}

ValueFact transferNot(const ValueFact &A) {
  ValueFact F = ValueFact::fromKnownBits(A.knownOne(), A.knownZero());
  // Bitwise complement reverses both orders.
  F = F.meet(ValueFact::fromUnsignedRange(A.umax().bitNot(),
                                          A.umin().bitNot()));
  return F.meet(ValueFact::fromSignedRange(A.smax().bitNot(),
                                           A.smin().bitNot()));
}

ValueFact transferAnd(const ValueFact &A, const ValueFact &B) {
  ValueFact F = ValueFact::fromKnownBits(A.knownZero().bitOr(B.knownZero()),
                                         A.knownOne().bitAnd(B.knownOne()));
  // Clearing bits never increases the unsigned value.
  BitValue Hi = uminOf(A.umax(), B.umax());
  return F.meet(ValueFact::fromUnsignedRange(BitValue::zero(A.width()), Hi));
}

ValueFact transferOr(const ValueFact &A, const ValueFact &B) {
  ValueFact F = ValueFact::fromKnownBits(A.knownZero().bitAnd(B.knownZero()),
                                         A.knownOne().bitOr(B.knownOne()));
  // Setting bits never decreases the unsigned value.
  BitValue Lo = umaxOf(A.umin(), B.umin());
  return F.meet(
      ValueFact::fromUnsignedRange(Lo, BitValue::allOnes(A.width())));
}

ValueFact transferXor(const ValueFact &A, const ValueFact &B) {
  BitValue Ones = A.knownOne().bitAnd(B.knownZero()).bitOr(
      A.knownZero().bitAnd(B.knownOne()));
  BitValue Zeros = A.knownZero().bitAnd(B.knownZero()).bitOr(
      A.knownOne().bitAnd(B.knownOne()));
  return ValueFact::fromKnownBits(Zeros, Ones);
}

ValueFact transferMul(const ValueFact &A, const ValueFact &B) {
  unsigned W = A.width();
  ValueFact F(W);

  // Range: exact when the product of the maxima cannot wrap.
  BitValue WideMax = A.umax().zext(2 * W).mul(B.umax().zext(2 * W));
  if (WideMax.countLeadingZeros() >= W)
    F = F.meet(ValueFact::fromUnsignedRange(A.umin().mul(B.umin()),
                                            A.umax().mul(B.umax())));

  // Trailing zeros add up: (a * 2^i) * (b * 2^j) = ab * 2^(i+j).
  unsigned TZ = std::min(W, knownTrailingZeros(A.knownZero()) +
                                knownTrailingZeros(B.knownZero()));
  if (TZ > 0)
    F = F.meet(ValueFact::fromKnownBits(lowMask(W, TZ),
                                        BitValue::zero(W)));
  return F;
}

/// One shift by a single concrete in-range amount.
ValueFact shiftByConstAmount(Opcode Op, const ValueFact &A, unsigned C) {
  unsigned W = A.width();
  switch (Op) {
  case Opcode::Shl: {
    ValueFact F = ValueFact::fromKnownBits(
        A.knownZero().shl(C).bitOr(lowMask(W, C)), A.knownOne().shl(C));
    // The range shifts exactly when the topmost set bit cannot fall off.
    if (A.umax().countLeadingZeros() >= C)
      F = F.meet(
          ValueFact::fromUnsignedRange(A.umin().shl(C), A.umax().shl(C)));
    return F;
  }
  case Opcode::Shr: {
    ValueFact F = ValueFact::fromKnownBits(
        A.knownZero().lshr(C).bitOr(lowMask(W, C).shl(W - C)),
        A.knownOne().lshr(C));
    return F.meet(
        ValueFact::fromUnsignedRange(A.umin().lshr(C), A.umax().lshr(C)));
  }
  case Opcode::Shrs: {
    // ashr on the masks is itself correct: a known sign bit propagates
    // through the matching mask, an unknown sign fills neither.
    ValueFact F = ValueFact::fromKnownBits(A.knownZero().ashr(C),
                                           A.knownOne().ashr(C));
    return F.meet(
        ValueFact::fromSignedRange(A.smin().ashr(C), A.smax().ashr(C)));
  }
  default:
    SELGEN_UNREACHABLE("not a shift opcode");
  }
}

ValueFact transferShift(Opcode Op, const ValueFact &A, const ValueFact &B) {
  unsigned W = A.width();
  // An amount that may reach the width makes the operation potentially
  // undefined; any result is then sound, so nothing useful is known.
  if (B.umax().uge(BitValue(W, W)))
    return ValueFact(W);
  unsigned AmtLo = unsigned(B.umin().zextValue());
  unsigned AmtHi = unsigned(B.umax().zextValue());
  std::optional<ValueFact> F;
  for (unsigned C = AmtLo; C <= AmtHi; ++C) {
    if (!B.contains(BitValue(W, C)))
      continue; // Known bits exclude this amount.
    ValueFact One = shiftByConstAmount(Op, A, C);
    F = F ? F->join(One) : One;
  }
  return F ? *F : ValueFact(W);
}

} // namespace

ValueFact ValueFact::transferBinary(Opcode Op, const ValueFact &A,
                                    const ValueFact &B) {
  unsigned W = A.width();

  // Singleton operands fold exactly (shifts only when defined).
  if (A.isConstant() && B.isConstant()) {
    const BitValue X = *A.asConstant();
    const BitValue Y = *B.asConstant();
    switch (Op) {
    case Opcode::Add:
      return constant(X.add(Y));
    case Opcode::Sub:
      return constant(X.sub(Y));
    case Opcode::Mul:
      return constant(X.mul(Y));
    case Opcode::And:
      return constant(X.bitAnd(Y));
    case Opcode::Or:
      return constant(X.bitOr(Y));
    case Opcode::Xor:
      return constant(X.bitXor(Y));
    case Opcode::Shl:
    case Opcode::Shr:
    case Opcode::Shrs: {
      if (Y.uge(BitValue(W, W)))
        return ValueFact(W); // Undefined: everything is sound.
      unsigned C = unsigned(Y.zextValue());
      return constant(Op == Opcode::Shl   ? X.shl(C)
                      : Op == Opcode::Shr ? X.lshr(C)
                                          : X.ashr(C));
    }
    default:
      SELGEN_UNREACHABLE("not a binary transfer opcode");
    }
  }

  switch (Op) {
  case Opcode::Add:
    return transferAddLike(A, B, /*CarryIn=*/false);
  case Opcode::Sub:
    return transferAddLike(A, transferNot(B), /*CarryIn=*/true);
  case Opcode::Mul:
    return transferMul(A, B);
  case Opcode::And:
    return transferAnd(A, B);
  case Opcode::Or:
    return transferOr(A, B);
  case Opcode::Xor:
    return transferXor(A, B);
  case Opcode::Shl:
  case Opcode::Shr:
  case Opcode::Shrs:
    return transferShift(Op, A, B);
  default:
    SELGEN_UNREACHABLE("not a binary transfer opcode");
  }
}

ValueFact ValueFact::transferUnary(Opcode Op, const ValueFact &A) {
  switch (Op) {
  case Opcode::Not:
    return transferNot(A);
  case Opcode::Minus:
    // -a = ~a + 1.
    return transferAddLike(transferNot(A),
                           constant(BitValue::zero(A.width())),
                           /*CarryIn=*/true);
  default:
    SELGEN_UNREACHABLE("not a unary transfer opcode");
  }
}

std::optional<bool> ValueFact::evalRelation(Relation Rel, const ValueFact &A,
                                            const ValueFact &B) {
  switch (Rel) {
  case Relation::Eq: {
    if (A.isConstant() && B.isConstant())
      return *A.asConstant() == *B.asConstant();
    // Disjoint ranges or conflicting known bits exclude equality.
    if (A.UMax.ult(B.UMin) || B.UMax.ult(A.UMin))
      return false;
    if (A.SMax.slt(B.SMin) || B.SMax.slt(A.SMin))
      return false;
    if (!A.KnownOne.bitAnd(B.KnownZero).isZero() ||
        !B.KnownOne.bitAnd(A.KnownZero).isZero())
      return false;
    return std::nullopt;
  }
  case Relation::Ne: {
    std::optional<bool> Eq = evalRelation(Relation::Eq, A, B);
    if (Eq)
      return !*Eq;
    return std::nullopt;
  }
  case Relation::Ult:
    if (A.UMax.ult(B.UMin))
      return true;
    if (A.UMin.uge(B.UMax))
      return false;
    return std::nullopt;
  case Relation::Ule:
    if (A.UMax.ule(B.UMin))
      return true;
    if (A.UMin.ugt(B.UMax))
      return false;
    return std::nullopt;
  case Relation::Ugt:
    return evalRelation(Relation::Ult, B, A);
  case Relation::Uge:
    return evalRelation(Relation::Ule, B, A);
  case Relation::Slt:
    if (A.SMax.slt(B.SMin))
      return true;
    if (A.SMin.sge(B.SMax))
      return false;
    return std::nullopt;
  case Relation::Sle:
    if (A.SMax.sle(B.SMin))
      return true;
    if (A.SMin.sgt(B.SMax))
      return false;
    return std::nullopt;
  case Relation::Sgt:
    return evalRelation(Relation::Slt, B, A);
  case Relation::Sge:
    return evalRelation(Relation::Sle, B, A);
  }
  SELGEN_UNREACHABLE("bad relation");
}

//===----------------------------------------------------------------------===//
// GraphFacts
//===----------------------------------------------------------------------===//

GraphFacts::NodeMemo &GraphFacts::memo(const Node *N) {
  if (N->id() >= Memo.size())
    Memo.resize(G.idBound());
  return Memo[N->id()];
}

const ValueFact &GraphFacts::fact(NodeRef Ref) {
  assert(Ref.Index < 2 && "no opcode has more than two results");
  if (uint32_t Slot = memo(Ref.Def).Fact[Ref.Index])
    return Facts[Slot - 1];

  const Node *N = Ref.Def;
  unsigned W = G.width();
  ValueFact F(W);
  switch (N->opcode()) {
  case Opcode::Const:
    F = ValueFact::constant(N->constValue());
    break;
  case Opcode::Add:
  case Opcode::Sub:
  case Opcode::Mul:
  case Opcode::And:
  case Opcode::Or:
  case Opcode::Xor:
  case Opcode::Shl:
  case Opcode::Shr:
  case Opcode::Shrs:
    F = ValueFact::transferBinary(N->opcode(), fact(N->operand(0)),
                                  fact(N->operand(1)));
    break;
  case Opcode::Not:
  case Opcode::Minus:
    F = ValueFact::transferUnary(N->opcode(), fact(N->operand(0)));
    break;
  case Opcode::Mux: {
    std::optional<bool> Cond = boolFact(N->operand(0));
    if (Cond)
      F = fact(N->operand(*Cond ? 1 : 2));
    else
      F = fact(N->operand(1)).join(fact(N->operand(2)));
    break;
  }
  case Opcode::Arg:
  case Opcode::Load: // The loaded value is unconstrained.
  default:
    break; // Top.
  }
  Facts.push_back(std::move(F));
  memo(N).Fact[Ref.Index] = static_cast<uint32_t>(Facts.size());
  return Facts.back();
}

std::optional<bool> GraphFacts::boolFact(NodeRef Ref) {
  assert(Ref.Index < 2 && "no opcode has more than two results");
  if (const std::optional<std::optional<bool>> &Memoized =
          memo(Ref.Def).Bool[Ref.Index])
    return *Memoized;

  std::optional<bool> Known;
  const Node *N = Ref.Def;
  if (N->opcode() == Opcode::Cmp)
    Known = ValueFact::evalRelation(N->relation(), fact(N->operand(0)),
                                    fact(N->operand(1)));
  memo(N).Bool[Ref.Index] = Known;
  return Known;
}

bool GraphFacts::provesShiftInRange(const Node *Shift) {
  unsigned W = G.width();
  return fact(Shift->operand(1)).umax().ult(BitValue(W, W));
}

bool GraphFacts::provesShiftOutOfRange(const Node *Shift) {
  unsigned W = G.width();
  return fact(Shift->operand(1)).umin().uge(BitValue(W, W));
}

std::vector<const Node *> GraphFacts::unprovenShifts() {
  std::vector<const Node *> Result;
  for (const auto &NPtr : G.nodes()) {
    const Node *N = NPtr.get();
    Opcode Op = N->opcode();
    if (Op != Opcode::Shl && Op != Opcode::Shr && Op != Opcode::Shrs)
      continue;
    if (!provesShiftInRange(N))
      Result.push_back(N);
  }
  return Result;
}
