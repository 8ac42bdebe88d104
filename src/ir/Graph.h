//===- Graph.h - Single-block SSA data-dependence graphs --------*- C++ -*-===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Graph is the unit the whole pipeline revolves around: an IR pattern
/// (paper Figure 1a) *is* a Graph, a basic block's body is a Graph, and
/// the synthesizer reconstructs Graphs from SMT models. A Graph has a
/// typed argument list, an owned set of operation nodes, and a typed
/// result list — mirroring the instruction interface (Sa, Sr) of the
/// paper.
///
//===----------------------------------------------------------------------===//

#ifndef SELGEN_IR_GRAPH_H
#define SELGEN_IR_GRAPH_H

#include "ir/Node.h"

#include <memory>
#include <string>
#include <vector>

namespace selgen {

/// A single-block SSA graph with explicit arguments and results.
class Graph {
public:
  /// Creates a graph whose data operations act on \p Width-bit values
  /// and which takes arguments of the given sorts.
  Graph(unsigned Width, std::vector<Sort> ArgSorts);

  Graph(const Graph &) = delete;
  Graph &operator=(const Graph &) = delete;
  Graph(Graph &&) = default;
  Graph &operator=(Graph &&) = default;

  unsigned width() const { return Width; }

  // -- Arguments ---------------------------------------------------------
  unsigned numArgs() const { return Args.size(); }
  Sort argSort(unsigned I) const { return Args[I]->resultSort(0); }
  std::vector<Sort> argSorts() const;
  /// The I-th argument as a usable value.
  NodeRef arg(unsigned I) const {
    assert(I < Args.size() && "argument index out of range");
    return NodeRef(Args[I], 0);
  }

  // -- Node creation -----------------------------------------------------
  NodeRef createConst(const BitValue &Value);
  NodeRef createUnary(Opcode Op, NodeRef Operand);
  NodeRef createBinary(Opcode Op, NodeRef Lhs, NodeRef Rhs);
  NodeRef createCmp(Relation Rel, NodeRef Lhs, NodeRef Rhs);
  NodeRef createMux(NodeRef Selector, NodeRef TrueValue, NodeRef FalseValue);
  /// Returns the Load node; result 0 is the memory token, result 1 the
  /// loaded value.
  Node *createLoad(NodeRef Memory, NodeRef Pointer);
  /// Returns the memory token produced by the store.
  NodeRef createStore(NodeRef Memory, NodeRef Pointer, NodeRef Value);
  /// Returns the Cond node; result 0 is "taken", result 1 "fall through".
  Node *createCond(NodeRef Selector);

  /// Generic creation from opcode and operand list; attributes must be
  /// set afterwards for Const/Cmp. Used by the synthesizer's pattern
  /// reconstruction and the parser.
  Node *createNode(Opcode Op, const std::vector<NodeRef> &Operands);

  // -- Results -----------------------------------------------------------
  void setResults(std::vector<NodeRef> NewResults);
  const std::vector<NodeRef> &results() const { return Results; }
  std::vector<Sort> resultSorts() const;

  // -- Traversal ---------------------------------------------------------
  /// All nodes, including Arg nodes, in creation order.
  const std::vector<std::unique_ptr<Node>> &nodes() const { return NodeList; }

  /// Every node id, dead or alive, is below idBound(), so per-node
  /// state can live in a vector indexed by Node::id().
  unsigned idBound() const { return NextId; }

  /// All non-Arg operation nodes in a dependency-respecting order.
  std::vector<Node *> scheduledNodes() const;

  /// Non-Arg operation count (the pattern size of the paper's tables).
  unsigned numOperations() const;

  /// Returns the nodes reachable from the results (including Args).
  std::vector<Node *> liveNodes() const;

  /// Returns the nodes reachable from \p Roots (including Args), in
  /// creation order.
  std::vector<Node *> liveNodesFrom(const std::vector<NodeRef> &Roots) const;

  /// Removes nodes not reachable from any result. Arg nodes survive.
  void removeDeadNodes();

  // -- Structural identity -----------------------------------------------
  /// A canonical serialization of the reachable graph. Two graphs get
  /// the same fingerprint iff they are structurally identical up to
  /// node ids (argument indices, opcodes, attributes, wiring, results).
  /// The duplicate filter of the pattern library keys on this.
  std::string fingerprint() const;

  /// Deep copy.
  Graph clone() const;

  /// Deep copy with live nodes renumbered in the fingerprint's
  /// depth-first post-order from the results, so structurally
  /// identical graphs also serialize identically regardless of the
  /// order their nodes were created in. Dead nodes are dropped.
  Graph canonicalized() const;

private:
  unsigned Width;
  std::vector<std::unique_ptr<Node>> NodeList;
  std::vector<Node *> Args;
  std::vector<NodeRef> Results;
  /// Node ids are dense below NextId, so per-node traversal state lives
  /// in vectors indexed by Node::id().
  unsigned NextId = 0;

  /// Reachability from \p Roots, indexed by Node::id().
  std::vector<char> liveMask(const std::vector<NodeRef> &Roots) const;

  Node *addNode(Opcode Op, const OperandList &Operands,
                const SortList &ResultSorts);
};

} // namespace selgen

#endif // SELGEN_IR_GRAPH_H
