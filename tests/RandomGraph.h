//===- RandomGraph.h - Random IR graphs for property tests ------*- C++ -*-===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Seeded random graphs for the normalizer's property tests and the
/// stored normal-form verdict's differential: arithmetic, shifts by
/// in-range constants, and Cmp-fed Muxes over two value arguments,
/// with operands drawn from everything built so far, so subexpressions
/// get shared.
///
//===----------------------------------------------------------------------===//

#ifndef SELGEN_TESTS_RANDOMGRAPH_H
#define SELGEN_TESTS_RANDOMGRAPH_H

#include "ir/Graph.h"
#include "support/Rng.h"

#include <vector>

namespace selgen {

/// Builds a random graph over two value arguments.
inline Graph randomGraph(Rng &Random, unsigned Width, unsigned NumOps) {
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

} // namespace selgen

#endif // SELGEN_TESTS_RANDOMGRAPH_H
