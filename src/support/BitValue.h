//===- BitValue.h - Arbitrary-width bit-vector values ----------*- C++ -*-===//
//
// Part of the selgen project: a reproduction of "Synthesizing an
// Instruction Selection Rule Library from Semantic Specifications"
// (Buchwald, Fried, Hack; CGO 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Defines BitValue, a dynamically sized two's-complement bit-vector
/// value. It is the concrete counterpart of the SMT-LIB BitVec sorts
/// used throughout the synthesizer: the IR interpreter, the x86
/// emulator, and SMT model extraction all exchange BitValues.
///
//===----------------------------------------------------------------------===//

#ifndef SELGEN_SUPPORT_BITVALUE_H
#define SELGEN_SUPPORT_BITVALUE_H

#include <cassert>
#include <cstdint>
#include <string>

namespace selgen {

/// An arbitrary-width bit-vector value with two's-complement semantics.
///
/// The width is fixed at construction time and all operands of binary
/// operations must agree on it (checked by assertion). Unused high bits
/// of the internal word storage are kept at zero as a class invariant.
///
/// Values of up to 64 bits, which is every constant of the IR widths
/// the library uses, keep their one word inline; wider values own a
/// heap array. A moved-from value is the zero value of width 1.
class BitValue {
public:
  /// Builds the zero value of width 1. Needed so BitValue can live in
  /// standard containers; prefer the explicit constructors.
  constexpr BitValue() : Width(1), InlineWord(0) {}

  /// Builds a value of \p Width bits from the low bits of \p Value.
  BitValue(unsigned Width, uint64_t Value) : Width(Width) {
    assert(Width >= 1 && "bit-vector width must be positive");
    if (isInline())
      InlineWord = Value & lowBits(Width);
    else
      allocateWide(Value);
  }

  BitValue(const BitValue &Other) : Width(Other.Width) {
    if (isInline())
      InlineWord = Other.InlineWord;
    else
      copyWide(Other);
  }
  BitValue(BitValue &&Other) noexcept : Width(Other.Width) {
    if (isInline())
      InlineWord = Other.InlineWord;
    else
      WideWords = Other.WideWords;
    Other.Width = 1;
    Other.InlineWord = 0;
  }
  BitValue &operator=(const BitValue &Other) {
    if (isInline() && Other.isInline()) {
      Width = Other.Width;
      InlineWord = Other.InlineWord;
      return *this;
    }
    return assignWide(Other);
  }
  BitValue &operator=(BitValue &&Other) noexcept {
    if (this != &Other) {
      release();
      Width = Other.Width;
      if (isInline())
        InlineWord = Other.InlineWord;
      else
        WideWords = Other.WideWords;
      Other.Width = 1;
      Other.InlineWord = 0;
    }
    return *this;
  }
  ~BitValue() { release(); }

  /// Returns the all-zero value of \p Width bits.
  static BitValue zero(unsigned Width) { return BitValue(Width, 0); }

  /// Returns the all-ones value of \p Width bits.
  static BitValue allOnes(unsigned Width);

  /// Returns the value with only the sign bit set.
  static BitValue signBit(unsigned Width);

  /// Parses a value from a string in the given base (2, 10, or 16).
  /// A leading '-' negates the parsed magnitude modulo 2^Width.
  /// Asserts on malformed input.
  static BitValue fromString(unsigned Width, const std::string &Str,
                             unsigned Base);

  unsigned width() const { return Width; }

  /// Returns the value zero-extended to uint64_t.
  /// Asserts that the value fits into 64 bits.
  uint64_t zextValue() const;

  /// Returns the value sign-extended to int64_t.
  /// Asserts that the width is at most 64 bits.
  int64_t sextValue() const;

  bool bit(unsigned Index) const;
  void setBit(unsigned Index, bool Value);

  bool isZero() const;
  bool isAllOnes() const;
  bool isNegative() const { return bit(Width - 1); }

  unsigned popcount() const;
  unsigned countLeadingZeros() const;
  unsigned countTrailingZeros() const;

  // Arithmetic. All results are truncated to the common width.
  BitValue add(const BitValue &RHS) const;
  BitValue sub(const BitValue &RHS) const;
  BitValue mul(const BitValue &RHS) const;
  BitValue neg() const;

  /// Unsigned division. Division by zero yields all-ones (the SMT-LIB
  /// bvudiv convention).
  BitValue udiv(const BitValue &RHS) const;

  /// Unsigned remainder. Remainder by zero yields the dividend (the
  /// SMT-LIB bvurem convention).
  BitValue urem(const BitValue &RHS) const;

  // Bitwise operations.
  BitValue bitAnd(const BitValue &RHS) const;
  BitValue bitOr(const BitValue &RHS) const;
  BitValue bitXor(const BitValue &RHS) const;
  BitValue bitNot() const;

  /// Logical shift left; shift amounts >= width yield zero.
  BitValue shl(unsigned Amount) const;
  /// Logical shift right; shift amounts >= width yield zero.
  BitValue lshr(unsigned Amount) const;
  /// Arithmetic shift right; shift amounts >= width fill with the sign.
  BitValue ashr(unsigned Amount) const;

  /// Rotates; the amount is taken modulo the width.
  BitValue rotl(unsigned Amount) const;
  BitValue rotr(unsigned Amount) const;

  // Width changes.
  BitValue zext(unsigned NewWidth) const;
  BitValue sext(unsigned NewWidth) const;
  BitValue trunc(unsigned NewWidth) const;

  /// Extracts bits [Lo, Hi] (inclusive, SMT-LIB extract order).
  BitValue extract(unsigned Hi, unsigned Lo) const;

  /// Concatenation; \p High occupies the high-order bits of the result
  /// (SMT-LIB concat order).
  static BitValue concat(const BitValue &High, const BitValue &Low);

  /// Replaces bits [Lo, Lo + Patch.width() - 1] with \p Patch. This is
  /// the replace() helper from the paper's M-value store definition.
  BitValue insert(unsigned Lo, const BitValue &Patch) const;

  // Comparisons. Equality requires equal widths.
  bool operator==(const BitValue &RHS) const;
  bool operator!=(const BitValue &RHS) const { return !(*this == RHS); }
  bool ult(const BitValue &RHS) const;
  bool ule(const BitValue &RHS) const;
  bool slt(const BitValue &RHS) const;
  bool sle(const BitValue &RHS) const;
  bool ugt(const BitValue &RHS) const { return RHS.ult(*this); }
  bool uge(const BitValue &RHS) const { return RHS.ule(*this); }
  bool sgt(const BitValue &RHS) const { return RHS.slt(*this); }
  bool sge(const BitValue &RHS) const { return RHS.sle(*this); }

  /// Renders as "0x..." with the full width in hex digits.
  std::string toHexString() const;
  /// Renders as an unsigned decimal number.
  std::string toUnsignedString() const;
  /// Renders as a signed decimal number.
  std::string toSignedString() const;

  /// Hash suitable for unordered containers.
  size_t hash() const;

  /// Number of 64-bit backing words: (width + 63) / 64.
  unsigned wordCount() const { return numWords(); }

  /// The \p Index'th backing word, least-significant first. Unused
  /// high bits of the top word are zero (class invariant) — two
  /// equal-width values are equal iff all their words are.
  uint64_t word(unsigned Index) const {
    assert(Index < numWords() && "word index out of range");
    return words()[Index];
  }

private:
  unsigned Width;
  /// The single word of a value of up to 64 bits; the numWords()-word
  /// heap array of a wider one.
  union {
    uint64_t InlineWord;
    uint64_t *WideWords;
  };

  bool isInline() const { return Width <= 64; }
  unsigned numWords() const { return (Width + 63) / 64; }
  uint64_t *words() { return isInline() ? &InlineWord : WideWords; }
  const uint64_t *words() const {
    return isInline() ? &InlineWord : WideWords;
  }
  /// The mask of the low \p Bits bits, 1 <= Bits <= 64.
  static uint64_t lowBits(unsigned Bits) {
    return ~uint64_t(0) >> (64 - Bits);
  }

  /// Out-of-line halves of the special members, for wide values.
  void allocateWide(uint64_t LowWord);
  void copyWide(const BitValue &Other);
  BitValue &assignWide(const BitValue &Other);
  void release() {
    if (!isInline())
      delete[] WideWords;
  }
  /// Zeroes the unused bits of the most significant word.
  void clearUnusedBits();
};

/// std::hash adapter support.
struct BitValueHash {
  size_t operator()(const BitValue &V) const { return V.hash(); }
};

} // namespace selgen

#endif // SELGEN_SUPPORT_BITVALUE_H
