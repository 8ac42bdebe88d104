//===- BitValue.cpp - Arbitrary-width bit-vector values -------------------===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/BitValue.h"

#include <algorithm>
#include <vector>

using namespace selgen;

void BitValue::allocateWide(uint64_t LowWord) {
  WideWords = new uint64_t[numWords()]();
  WideWords[0] = LowWord;
}

void BitValue::copyWide(const BitValue &Other) {
  WideWords = new uint64_t[numWords()];
  std::copy_n(Other.WideWords, numWords(), WideWords);
}

BitValue &BitValue::assignWide(const BitValue &Other) {
  if (this == &Other)
    return *this;
  if (Other.isInline()) {
    release();
    Width = Other.Width;
    InlineWord = Other.InlineWord;
    return *this;
  }
  if (isInline() || numWords() != Other.numWords()) {
    uint64_t *Fresh = new uint64_t[Other.numWords()];
    release();
    WideWords = Fresh;
  }
  Width = Other.Width;
  std::copy_n(Other.WideWords, numWords(), WideWords);
  return *this;
}

void BitValue::clearUnusedBits() {
  unsigned Used = Width % 64;
  if (Used != 0)
    words()[numWords() - 1] &= lowBits(Used);
}

BitValue BitValue::allOnes(unsigned Width) {
  BitValue Result(Width, 0);
  std::fill_n(Result.words(), Result.numWords(), ~uint64_t(0));
  Result.clearUnusedBits();
  return Result;
}

BitValue BitValue::signBit(unsigned Width) {
  BitValue Result(Width, 0);
  Result.setBit(Width - 1, true);
  return Result;
}

BitValue BitValue::fromString(unsigned Width, const std::string &Str,
                              unsigned Base) {
  assert((Base == 2 || Base == 10 || Base == 16) && "unsupported base");
  assert(!Str.empty() && "empty string");
  size_t Pos = 0;
  bool Negate = Str[0] == '-';
  if (Negate)
    ++Pos;
  assert(Pos < Str.size() && "string has no digits");
  BitValue Result(Width, 0);
  BitValue BaseValue(Width, Base);
  for (; Pos < Str.size(); ++Pos) {
    char C = Str[Pos];
    unsigned Digit;
    if (C >= '0' && C <= '9')
      Digit = C - '0';
    else if (C >= 'a' && C <= 'f')
      Digit = C - 'a' + 10;
    else if (C >= 'A' && C <= 'F')
      Digit = C - 'A' + 10;
    else {
      assert(false && "invalid digit");
      Digit = 0;
    }
    assert(Digit < Base && "digit out of range for base");
    Result = Result.mul(BaseValue).add(BitValue(Width, Digit));
  }
  return Negate ? Result.neg() : Result;
}

uint64_t BitValue::zextValue() const {
  for (unsigned I = 1, E = numWords(); I < E; ++I)
    assert(words()[I] == 0 && "value does not fit into 64 bits");
  return words()[0];
}

int64_t BitValue::sextValue() const {
  assert(Width <= 64 && "value wider than 64 bits");
  uint64_t Value = InlineWord;
  if (Width < 64 && isNegative())
    Value |= (~uint64_t(0)) << Width;
  return static_cast<int64_t>(Value);
}

bool BitValue::bit(unsigned Index) const {
  assert(Index < Width && "bit index out of range");
  return (words()[Index / 64] >> (Index % 64)) & 1;
}

void BitValue::setBit(unsigned Index, bool Value) {
  assert(Index < Width && "bit index out of range");
  uint64_t Mask = uint64_t(1) << (Index % 64);
  if (Value)
    words()[Index / 64] |= Mask;
  else
    words()[Index / 64] &= ~Mask;
}

bool BitValue::isZero() const {
  const uint64_t *Words = words();
  return std::all_of(Words, Words + numWords(),
                     [](uint64_t W) { return W == 0; });
}

bool BitValue::isAllOnes() const { return *this == allOnes(Width); }

unsigned BitValue::popcount() const {
  unsigned Count = 0;
  for (unsigned I = 0, E = numWords(); I < E; ++I)
    Count += __builtin_popcountll(words()[I]);
  return Count;
}

unsigned BitValue::countLeadingZeros() const {
  for (unsigned I = Width; I-- > 0;)
    if (bit(I))
      return Width - 1 - I;
  return Width;
}

unsigned BitValue::countTrailingZeros() const {
  for (unsigned I = 0; I < Width; ++I)
    if (bit(I))
      return I;
  return Width;
}

BitValue BitValue::add(const BitValue &RHS) const {
  assert(Width == RHS.Width && "width mismatch");
  BitValue Result(Width, 0);
  const uint64_t *Words = words(), *RHSWords = RHS.words();
  uint64_t *ResultWords = Result.words();
  uint64_t Carry = 0;
  for (unsigned I = 0, E = numWords(); I < E; ++I) {
    uint64_t Sum = Words[I] + Carry;
    uint64_t CarryOut = Sum < Words[I];
    Sum += RHSWords[I];
    CarryOut |= Sum < RHSWords[I];
    ResultWords[I] = Sum;
    Carry = CarryOut;
  }
  Result.clearUnusedBits();
  return Result;
}

BitValue BitValue::sub(const BitValue &RHS) const {
  return add(RHS.neg());
}

BitValue BitValue::neg() const {
  return bitNot().add(BitValue(Width, 1));
}

BitValue BitValue::mul(const BitValue &RHS) const {
  assert(Width == RHS.Width && "width mismatch");
  // Schoolbook multiplication over 32-bit half-words so that partial
  // products fit into uint64_t without overflow.
  unsigned HalfWords = numWords() * 2;
  auto half = [](const uint64_t *Words, unsigned I) {
    uint64_t Word = Words[I / 2];
    return (I % 2) ? (Word >> 32) : (Word & 0xFFFFFFFFu);
  };
  uint64_t InlineAcc[2] = {0, 0};
  std::vector<uint64_t> WideAcc;
  uint64_t *Acc = InlineAcc;
  if (!isInline()) {
    WideAcc.assign(HalfWords, 0);
    Acc = WideAcc.data();
  }
  for (unsigned I = 0; I < HalfWords; ++I) {
    uint64_t Carry = 0;
    for (unsigned J = 0; I + J < HalfWords; ++J) {
      uint64_t Product = half(words(), I) * half(RHS.words(), J);
      uint64_t Sum = Acc[I + J] + (Product & 0xFFFFFFFFu) + Carry;
      Acc[I + J] = Sum & 0xFFFFFFFFu;
      Carry = (Sum >> 32) + (Product >> 32);
    }
  }
  BitValue Result(Width, 0);
  for (unsigned I = 0, E = numWords(); I < E; ++I)
    Result.words()[I] = Acc[2 * I] | (Acc[2 * I + 1] << 32);
  Result.clearUnusedBits();
  return Result;
}

BitValue BitValue::udiv(const BitValue &RHS) const {
  assert(Width == RHS.Width && "width mismatch");
  if (RHS.isZero())
    return allOnes(Width); // SMT-LIB bvudiv convention.
  // Restoring long division bit by bit, most significant bit first.
  BitValue Quotient(Width, 0);
  BitValue Remainder(Width, 0);
  for (unsigned I = Width; I-- > 0;) {
    Remainder = Remainder.shl(1);
    Remainder.setBit(0, bit(I));
    if (Remainder.uge(RHS)) {
      Remainder = Remainder.sub(RHS);
      Quotient.setBit(I, true);
    }
  }
  return Quotient;
}

BitValue BitValue::urem(const BitValue &RHS) const {
  assert(Width == RHS.Width && "width mismatch");
  if (RHS.isZero())
    return *this; // SMT-LIB bvurem convention.
  return sub(udiv(RHS).mul(RHS));
}

BitValue BitValue::bitAnd(const BitValue &RHS) const {
  assert(Width == RHS.Width && "width mismatch");
  BitValue Result(Width, 0);
  for (unsigned I = 0, E = numWords(); I < E; ++I)
    Result.words()[I] = words()[I] & RHS.words()[I];
  return Result;
}

BitValue BitValue::bitOr(const BitValue &RHS) const {
  assert(Width == RHS.Width && "width mismatch");
  BitValue Result(Width, 0);
  for (unsigned I = 0, E = numWords(); I < E; ++I)
    Result.words()[I] = words()[I] | RHS.words()[I];
  return Result;
}

BitValue BitValue::bitXor(const BitValue &RHS) const {
  assert(Width == RHS.Width && "width mismatch");
  BitValue Result(Width, 0);
  for (unsigned I = 0, E = numWords(); I < E; ++I)
    Result.words()[I] = words()[I] ^ RHS.words()[I];
  return Result;
}

BitValue BitValue::bitNot() const {
  BitValue Result(Width, 0);
  for (unsigned I = 0, E = numWords(); I < E; ++I)
    Result.words()[I] = ~words()[I];
  Result.clearUnusedBits();
  return Result;
}

BitValue BitValue::shl(unsigned Amount) const {
  BitValue Result(Width, 0);
  if (Amount >= Width)
    return Result;
  for (unsigned I = Width; I-- > Amount;)
    Result.setBit(I, bit(I - Amount));
  return Result;
}

BitValue BitValue::lshr(unsigned Amount) const {
  BitValue Result(Width, 0);
  if (Amount >= Width)
    return Result;
  for (unsigned I = 0, E = Width - Amount; I < E; ++I)
    Result.setBit(I, bit(I + Amount));
  return Result;
}

BitValue BitValue::ashr(unsigned Amount) const {
  bool Sign = isNegative();
  if (Amount >= Width)
    return Sign ? allOnes(Width) : zero(Width);
  BitValue Result = lshr(Amount);
  if (Sign)
    for (unsigned I = Width - Amount; I < Width; ++I)
      Result.setBit(I, true);
  return Result;
}

BitValue BitValue::rotl(unsigned Amount) const {
  Amount %= Width;
  if (Amount == 0)
    return *this;
  return shl(Amount).bitOr(lshr(Width - Amount));
}

BitValue BitValue::rotr(unsigned Amount) const {
  Amount %= Width;
  if (Amount == 0)
    return *this;
  return lshr(Amount).bitOr(shl(Width - Amount));
}

BitValue BitValue::zext(unsigned NewWidth) const {
  assert(NewWidth >= Width && "zext must not shrink");
  BitValue Result(NewWidth, 0);
  std::copy_n(words(), numWords(), Result.words());
  return Result;
}

BitValue BitValue::sext(unsigned NewWidth) const {
  assert(NewWidth >= Width && "sext must not shrink");
  BitValue Result = zext(NewWidth);
  if (isNegative())
    for (unsigned I = Width; I < NewWidth; ++I)
      Result.setBit(I, true);
  return Result;
}

BitValue BitValue::trunc(unsigned NewWidth) const {
  assert(NewWidth <= Width && "trunc must not grow");
  BitValue Result(NewWidth, 0);
  std::copy_n(words(), Result.numWords(), Result.words());
  Result.clearUnusedBits();
  return Result;
}

BitValue BitValue::extract(unsigned Hi, unsigned Lo) const {
  assert(Lo <= Hi && Hi < Width && "invalid extract range");
  return lshr(Lo).trunc(Hi - Lo + 1);
}

BitValue BitValue::concat(const BitValue &High, const BitValue &Low) {
  unsigned NewWidth = High.Width + Low.Width;
  BitValue Result = Low.zext(NewWidth);
  return Result.bitOr(High.zext(NewWidth).shl(Low.Width));
}

BitValue BitValue::insert(unsigned Lo, const BitValue &Patch) const {
  assert(Lo + Patch.Width <= Width && "patch out of range");
  BitValue Result = *this;
  for (unsigned I = 0; I < Patch.Width; ++I)
    Result.setBit(Lo + I, Patch.bit(I));
  return Result;
}

bool BitValue::operator==(const BitValue &RHS) const {
  assert(Width == RHS.Width && "width mismatch");
  return std::equal(words(), words() + numWords(), RHS.words());
}

bool BitValue::ult(const BitValue &RHS) const {
  assert(Width == RHS.Width && "width mismatch");
  for (unsigned I = numWords(); I-- > 0;) {
    if (words()[I] != RHS.words()[I])
      return words()[I] < RHS.words()[I];
  }
  return false;
}

bool BitValue::ule(const BitValue &RHS) const {
  return !RHS.ult(*this);
}

bool BitValue::slt(const BitValue &RHS) const {
  assert(Width == RHS.Width && "width mismatch");
  bool LhsNeg = isNegative(), RhsNeg = RHS.isNegative();
  if (LhsNeg != RhsNeg)
    return LhsNeg;
  return ult(RHS);
}

bool BitValue::sle(const BitValue &RHS) const {
  return !RHS.slt(*this);
}

std::string BitValue::toHexString() const {
  static const char Digits[] = "0123456789abcdef";
  unsigned NumDigits = (Width + 3) / 4;
  std::string Result = "0x";
  for (unsigned I = NumDigits; I-- > 0;) {
    unsigned Nibble = 0;
    for (unsigned B = 0; B < 4; ++B) {
      unsigned Index = I * 4 + B;
      if (Index < Width && bit(Index))
        Nibble |= 1u << B;
    }
    Result += Digits[Nibble];
  }
  return Result;
}

std::string BitValue::toUnsignedString() const {
  if (isZero())
    return "0";
  std::string Digits;
  BitValue Ten(Width, 10);
  BitValue Value = *this;
  while (!Value.isZero()) {
    BitValue Rem = Value.urem(Ten);
    Digits += static_cast<char>('0' + Rem.zextValue());
    Value = Value.udiv(Ten);
  }
  std::reverse(Digits.begin(), Digits.end());
  return Digits;
}

std::string BitValue::toSignedString() const {
  if (!isNegative())
    return toUnsignedString();
  return "-" + neg().toUnsignedString();
}

size_t BitValue::hash() const {
  // FNV-1a over width and words.
  size_t Hash = 1469598103934665603ull;
  auto mix = [&Hash](uint64_t Value) {
    Hash ^= Value;
    Hash *= 1099511628211ull;
  };
  mix(Width);
  for (unsigned I = 0, E = numWords(); I < E; ++I)
    mix(words()[I]);
  return Hash;
}
