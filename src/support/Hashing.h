//===- Hashing.h - Stable content hashing ------------------------*- C++ -*-===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A stable (process- and platform-independent) content hash used to
/// build cache keys for the persistent synthesis cache: FNV-1a over a
/// length-prefixed field stream, so "ab" + "c" and "a" + "bc" hash
/// differently. Not cryptographic — collisions only cost a wrong cache
/// hit on adversarial input, and the cache stores the goal name in the
/// shard for a cheap sanity check.
///
//===----------------------------------------------------------------------===//

#ifndef SELGEN_SUPPORT_HASHING_H
#define SELGEN_SUPPORT_HASHING_H

#include <cstdint>
#include <string>

namespace selgen {

/// Accumulates length-prefixed fields into a 64-bit FNV-1a digest.
class StableHasher {
public:
  StableHasher &bytes(const void *Data, size_t Size);
  StableHasher &str(const std::string &Value);
  StableHasher &u64(uint64_t Value);
  StableHasher &boolean(bool Value) { return u64(Value ? 1 : 0); }

  uint64_t digest() const { return State; }
  /// 16-digit lowercase hex rendering of the digest.
  std::string hex() const;

private:
  static constexpr uint64_t FnvOffset = 0xcbf29ce484222325ull;
  static constexpr uint64_t FnvPrime = 0x100000001b3ull;
  uint64_t State = FnvOffset;

  void raw(const void *Data, size_t Size);
};

} // namespace selgen

#endif // SELGEN_SUPPORT_HASHING_H
