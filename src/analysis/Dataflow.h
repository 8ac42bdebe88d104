//===- Dataflow.h - Known-bits and value-range dataflow ----------*- C++ -*-===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A forward dataflow framework over mini-Firm graphs. Each value-sorted
/// result gets a ValueFact: known-bits masks plus unsigned and signed
/// ranges, all over BitValue so every width the IR supports works. The
/// graphs are acyclic single-block bodies, so one bottom-up pass per
/// value suffices; GraphFacts memoizes facts on demand.
///
/// Soundness contract: a fact's concretization over-approximates the
/// set of values the node can take on any *defined* execution. Where an
/// operation has undefined behavior (shifts by an amount >= width), any
/// fact is vacuously sound, and the transfer functions return top. The
/// exhaustive w8 tests and the Z3 validity queries in test_analysis.cpp
/// pin this contract down per opcode.
///
/// On top of the facts sits the UB-freedom analysis: a shift whose
/// amount fact proves 0 <= amount < width needs no runtime
/// precondition re-check (SelectionEngine), and a shift whose amount
/// fact proves amount >= width can never execute defined (selgen-lint
/// flags the rule).
///
//===----------------------------------------------------------------------===//

#ifndef SELGEN_ANALYSIS_DATAFLOW_H
#define SELGEN_ANALYSIS_DATAFLOW_H

#include "ir/Graph.h"
#include "support/BitValue.h"

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

namespace selgen {

/// Known-bits + unsigned/signed range abstraction of one bitvector
/// value. Invariants (maintained by every constructor and transfer):
/// KnownZero & KnownOne == 0, UMin <=u UMax, SMin <=s SMax, and every
/// concrete member satisfies all four constraint families.
class ValueFact {
public:
  /// The top fact: nothing known.
  explicit ValueFact(unsigned Width);

  static ValueFact top(unsigned Width) { return ValueFact(Width); }

  /// The singleton fact of one concrete value.
  static ValueFact constant(const BitValue &Value);

  /// A fact from explicit known-bit masks (ranges start unconstrained
  /// and are tightened from the masks).
  static ValueFact fromKnownBits(const BitValue &Zeros, const BitValue &Ones);

  /// A fact from an unsigned range [Lo, Hi] (inclusive, Lo <=u Hi).
  static ValueFact fromUnsignedRange(const BitValue &Lo, const BitValue &Hi);

  /// A fact from a signed range [Lo, Hi] (inclusive, Lo <=s Hi).
  static ValueFact fromSignedRange(const BitValue &Lo, const BitValue &Hi);

  unsigned width() const { return KnownZero.width(); }
  const BitValue &knownZero() const { return KnownZero; }
  const BitValue &knownOne() const { return KnownOne; }
  const BitValue &umin() const { return UMin; }
  const BitValue &umax() const { return UMax; }
  const BitValue &smin() const { return SMin; }
  const BitValue &smax() const { return SMax; }

  /// True if the fact pins the value down to a single constant.
  bool isConstant() const { return UMin == UMax; }
  std::optional<BitValue> asConstant() const;

  /// True if nothing is known (the top fact).
  bool isTop() const;

  /// Membership of a concrete value in the concretization.
  bool contains(const BitValue &Value) const;

  /// Least upper bound: the union over-approximation used at Mux.
  ValueFact join(const ValueFact &Other) const;

  /// Greatest lower bound: intersects two facts about the *same*
  /// value (used to combine independently derived constraint
  /// families). A contradictory intersection degrades to top, which is
  /// sound: contradictions only arise on undefined executions.
  ValueFact meet(const ValueFact &Other) const;

  bool operator==(const ValueFact &Other) const;

  /// Transfer function of a binary integer opcode (Add..Shrs). UB
  /// inputs (shift amounts >= width) yield top.
  static ValueFact transferBinary(Opcode Op, const ValueFact &A,
                                  const ValueFact &B);

  /// Transfer function of Not/Minus.
  static ValueFact transferUnary(Opcode Op, const ValueFact &A);

  /// Decides a comparison from the operand facts if possible.
  static std::optional<bool> evalRelation(Relation Rel, const ValueFact &A,
                                          const ValueFact &B);

private:
  /// Cross-propagates the constraint families (known bits <-> unsigned
  /// range <-> signed range) by sound intersections.
  void tighten();

  BitValue KnownZero; ///< Bits known to be 0.
  BitValue KnownOne;  ///< Bits known to be 1.
  BitValue UMin, UMax; ///< Unsigned range, inclusive.
  BitValue SMin, SMax; ///< Signed range, inclusive (signed order).
};

/// On-demand, memoized facts for every value of one graph. The graph
/// must outlive this object and must not mutate under it; nodes added
/// after construction are still handled (the normalizer grows its
/// output graph while querying).
class GraphFacts {
public:
  explicit GraphFacts(const Graph &G) : G(G) {}

  GraphFacts(const GraphFacts &) = delete;
  GraphFacts &operator=(const GraphFacts &) = delete;

  /// The fact of a value-sorted reference.
  const ValueFact &fact(NodeRef Ref);

  /// Three-valued knowledge about a bool-sorted reference (Cmp
  /// results): nullopt when undecided.
  std::optional<bool> boolFact(NodeRef Ref);

  /// UB-freedom: proves 0 <= amount < width for one Shl/Shr/Shrs node.
  bool provesShiftInRange(const Node *Shift);

  /// Proves the shift amount is *always* out of range: the operation
  /// can never execute with defined behavior.
  bool provesShiftOutOfRange(const Node *Shift);

  /// Shift nodes of the graph whose precondition the analysis cannot
  /// discharge (creation order).
  std::vector<const Node *> unprovenShifts();

private:
  /// Memo slots of one node, indexed by result index (no opcode has
  /// more than two results).
  struct NodeMemo {
    /// Position of the fact in Facts plus one; 0 until computed.
    uint32_t Fact[2] = {0, 0};
    /// boolFact()'s answer; empty until computed.
    std::optional<std::optional<bool>> Bool[2];
  };

  /// The memo of \p N, growing the table to the graph's current id
  /// bound first.
  NodeMemo &memo(const Node *N);

  const Graph &G;
  /// Indexed by Node::id().
  std::vector<NodeMemo> Memo;
  /// A deque keeps references to earlier facts valid while the memo
  /// grows.
  std::deque<ValueFact> Facts;
};

} // namespace selgen

#endif // SELGEN_ANALYSIS_DATAFLOW_H
