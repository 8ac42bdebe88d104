//===- InflatedLibrary.h - Shipped and inflated test libraries --*- C++ -*-===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Rule libraries for the tests that pin library-load behaviour: the
/// shipped libraries, read from SELGEN_ARTIFACTS_DIR, and seeded
/// variants of one that make it as large as a test needs.
///
//===----------------------------------------------------------------------===//

#ifndef SELGEN_TESTS_INFLATEDLIBRARY_H
#define SELGEN_TESTS_INFLATEDLIBRARY_H

#include "pattern/PatternDatabase.h"
#include "support/Rng.h"

#include <string>

namespace selgen {

inline PatternDatabase shippedLibrary(const char *Name) {
  return PatternDatabase::loadFromFile(std::string(SELGEN_ARTIFACTS_DIR) +
                                       "/" + Name);
}

/// Variants of \p Base's rules built the way bench_85 inflates its
/// library (bench::inflateLibrary): every pass re-draws each constant
/// and swaps the operands of two-operand nodes at random, seed 0xBEEF,
/// until the library holds \p TargetSize distinct rules.
inline PatternDatabase inflated(const PatternDatabase &Base,
                                size_t TargetSize) {
  PatternDatabase Inflated;
  for (const Rule &R : Base.rules())
    Inflated.add(R.GoalName, R.Pattern.clone());
  Rng Random(0xBEEF);
  size_t Stuck = 0;
  while (Inflated.size() < TargetSize && Stuck < 10 * TargetSize) {
    for (const Rule &R : Base.rules()) {
      if (Inflated.size() >= TargetSize)
        break;
      Graph Clone = R.Pattern.clone();
      bool Mutated = false;
      for (Node *N : Clone.liveNodes()) {
        if (N->opcode() == Opcode::Const) {
          N->setConstValue(Random.nextBitValue(N->constValue().width()));
          Mutated = true;
        } else if (N->numOperands() == 2 && Random.nextBelow(2) == 1) {
          NodeRef A = N->operand(0), B = N->operand(1);
          if (A.sort() == B.sort()) {
            N->setOperand(0, B);
            N->setOperand(1, A);
            Mutated = true;
          }
        }
      }
      if (Mutated && !Inflated.add(R.GoalName, std::move(Clone)))
        ++Stuck;
    }
  }
  return Inflated;
}

} // namespace selgen

#endif // SELGEN_TESTS_INFLATEDLIBRARY_H
