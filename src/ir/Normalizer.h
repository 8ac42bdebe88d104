//===- Normalizer.h - IR canonicalization ------------------------*- C++ -*-===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Canonicalization of IR graphs, playing the role of the compiler's
/// local optimizer. The paper relies on this twice:
///
/// * "If a pattern is not minimal, it is very unlikely to occur,
///   because the compiler will have already optimized the IR"
///   (Section 2.4) — the workload programs are normalized before
///   instruction selection, exactly like a production front end would.
/// * The code generator "removes all rules with non-normalized IR
///   patterns" (Section 5.6) — isNormalized() implements that filter.
///
/// The rule set covers constant folding, operand canonicalization for
/// commutative operations (constants to the right, smaller fingerprint
/// first), and the usual algebraic identities.
///
//===----------------------------------------------------------------------===//

#ifndef SELGEN_IR_NORMALIZER_H
#define SELGEN_IR_NORMALIZER_H

#include "ir/Graph.h"

namespace selgen {

/// Returns a canonicalized copy of \p G (same interface, same
/// semantics for all inputs satisfying the preconditions).
Graph normalizeGraph(const Graph &G);

/// Returns true if normalization leaves \p G unchanged (up to
/// structural identity): exactly
/// `normalizeGraph(G).fingerprint() == G.fingerprint()`. Patterns
/// failing this check are filtered out of generated instruction
/// selectors (paper Section 5.6). Every Rule takes this verdict at
/// construction, so it runs the normalizer into per-thread scratch
/// (output graph, facts, value-number table, operand keys, mapping)
/// and compares the output with \p G in one walk in the fingerprint's
/// post-order; once the scratch has grown, it allocates nothing.
bool isNormalized(const Graph &G);

} // namespace selgen

#endif // SELGEN_IR_NORMALIZER_H
