//===- Node.h - IR graph nodes -----------------------------------*- C++ -*-===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Nodes of the SSA data-dependence graph. An operation may have
/// multiple results (Load yields a memory token and a value, Cond
/// yields two jump outcomes), so operands reference a (node, result
/// index) pair rather than a node alone.
///
//===----------------------------------------------------------------------===//

#ifndef SELGEN_IR_NODE_H
#define SELGEN_IR_NODE_H

#include "ir/InlineList.h"
#include "ir/Opcode.h"
#include "support/BitValue.h"

#include <optional>

namespace selgen {

class Node;

/// A use of one specific result of a node.
struct NodeRef {
  Node *Def = nullptr;
  unsigned Index = 0;

  NodeRef() = default;
  NodeRef(Node *Def, unsigned Index = 0) : Def(Def), Index(Index) {}

  bool isValid() const { return Def != nullptr; }
  Sort sort() const;

  bool operator==(const NodeRef &RHS) const {
    return Def == RHS.Def && Index == RHS.Index;
  }
  bool operator!=(const NodeRef &RHS) const { return !(*this == RHS); }
};

/// The operands of one node; no opcode has more than three.
using OperandList = InlineList<NodeRef, 3>;

/// A single IR operation instance inside a Graph.
///
/// Attribute storage is unified: Const carries its value, Cmp its
/// relation, Arg its argument index. Nodes are owned by their Graph and
/// identified by a graph-unique id.
class Node {
public:
  Node(unsigned Id, Opcode Op, const OperandList &Operands,
       const SortList &ResultSorts)
      : Id(Id), Op(Op), Operands(Operands), ResultSorts(ResultSorts) {
    if (Op == Opcode::Const)
      ConstValue.emplace();
  }

  unsigned id() const { return Id; }
  Opcode opcode() const { return Op; }

  unsigned numOperands() const { return Operands.size(); }
  NodeRef operand(unsigned I) const { return Operands[I]; }
  void setOperand(unsigned I, NodeRef Ref) { Operands[I] = Ref; }
  const OperandList &operands() const { return Operands; }

  unsigned numResults() const { return ResultSorts.size(); }
  Sort resultSort(unsigned I) const { return ResultSorts[I]; }
  const SortList &resultSorts() const { return ResultSorts; }
  NodeRef result(unsigned I = 0) { return NodeRef(this, I); }

  // Attribute accessors; asserted against the opcode.
  const BitValue &constValue() const {
    assert(Op == Opcode::Const && "not a Const node");
    return *ConstValue;
  }
  void setConstValue(const BitValue &Value) {
    assert(Op == Opcode::Const && "not a Const node");
    *ConstValue = Value;
  }

  Relation relation() const {
    assert(Op == Opcode::Cmp && "not a Cmp node");
    return Rel;
  }
  void setRelation(Relation NewRel) {
    assert(Op == Opcode::Cmp && "not a Cmp node");
    Rel = NewRel;
  }

  unsigned argIndex() const {
    assert(Op == Opcode::Arg && "not an Arg node");
    return ArgIdx;
  }
  void setArgIndex(unsigned Index) {
    assert(Op == Opcode::Arg && "not an Arg node");
    ArgIdx = Index;
  }

private:
  unsigned Id;
  Opcode Op;
  OperandList Operands;
  SortList ResultSorts;

  /// Set for Const nodes only, so other nodes carry no heap value.
  std::optional<BitValue> ConstValue;
  Relation Rel = Relation::Eq;
  unsigned ArgIdx = 0;
};

inline Sort NodeRef::sort() const {
  assert(Def && "sort of invalid NodeRef");
  return Def->resultSort(Index);
}

} // namespace selgen

#endif // SELGEN_IR_NODE_H
