//===- Hashing.cpp - Stable content hashing -----------------------------------===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/Hashing.h"

using namespace selgen;

void StableHasher::raw(const void *Data, size_t Size) {
  const unsigned char *Bytes = static_cast<const unsigned char *>(Data);
  for (size_t I = 0; I < Size; ++I) {
    State ^= Bytes[I];
    State *= FnvPrime;
  }
}

StableHasher &StableHasher::bytes(const void *Data, size_t Size) {
  // Length prefix keeps field boundaries unambiguous.
  uint64_t Length = Size;
  unsigned char Prefix[8];
  for (unsigned I = 0; I < 8; ++I)
    Prefix[I] = static_cast<unsigned char>(Length >> (8 * I));
  raw(Prefix, sizeof(Prefix));
  raw(Data, Size);
  return *this;
}

StableHasher &StableHasher::str(const std::string &Value) {
  return bytes(Value.data(), Value.size());
}

StableHasher &StableHasher::u64(uint64_t Value) {
  unsigned char Encoded[8];
  for (unsigned I = 0; I < 8; ++I)
    Encoded[I] = static_cast<unsigned char>(Value >> (8 * I));
  return bytes(Encoded, sizeof(Encoded));
}

std::string StableHasher::hex() const {
  static const char Digits[] = "0123456789abcdef";
  std::string Result(16, '0');
  uint64_t Value = State;
  for (int I = 15; I >= 0; --I) {
    Result[I] = Digits[Value & 0xf];
    Value >>= 4;
  }
  return Result;
}
