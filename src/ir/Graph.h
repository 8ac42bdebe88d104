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

#include <string>
#include <vector>

namespace selgen {

/// A single-block SSA graph with explicit arguments and results.
class Graph {
public:
  /// Creates a graph whose data operations act on \p Width-bit values
  /// and which takes arguments of the given sorts. \p NodeCapacity, if
  /// known, is the number of nodes (Arg nodes included) the graph will
  /// hold; they then share one allocation.
  Graph(unsigned Width, const std::vector<Sort> &ArgSorts,
        unsigned NodeCapacity = 0);
  /// An empty graph of width 1, with no arguments, nodes or results;
  /// it allocates nothing until a node is added. A slot to move a
  /// graph into.
  Graph() : Width(1) {}
  ~Graph();

  Graph(const Graph &) = delete;
  Graph &operator=(const Graph &) = delete;
  /// Moving keeps every node at its address.
  Graph(Graph &&Other) noexcept;
  Graph &operator=(Graph &&Other) noexcept;

  unsigned width() const { return Width; }

  // -- Arguments ---------------------------------------------------------
  unsigned numArgs() const { return NumArgs; }
  Sort argSort(unsigned I) const { return arg(I).sort(); }
  std::vector<Sort> argSorts() const;
  /// The I-th argument as a usable value.
  NodeRef arg(unsigned I) const {
    assert(I < NumArgs && "argument index out of range");
    return NodeRef(NodeList[I], 0);
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
  const std::vector<Node *> &nodes() const { return NodeList; }

  /// Every node id, dead or alive, is below idBound(), so per-node
  /// state can live in a vector indexed by Node::id().
  unsigned idBound() const { return NextId; }

  /// All non-Arg operation nodes in a dependency-respecting order.
  std::vector<Node *> scheduledNodes() const;

  /// Non-Arg operation count (the pattern size of the paper's tables).
  unsigned numOperations() const;

  /// Returns the nodes reachable from the results (including Args).
  std::vector<Node *> liveNodes() const;
  /// Fills \p Out with liveNodes(), reusing its storage.
  void liveNodes(std::vector<Node *> &Out) const;

  /// Returns the nodes reachable from \p Roots (including Args), in
  /// creation order.
  std::vector<Node *> liveNodesFrom(const std::vector<NodeRef> &Roots) const;

  /// Removes nodes not reachable from any result. Arg nodes survive.
  void removeDeadNodes();

  // -- Structural identity -----------------------------------------------
  /// A canonical serialization of the reachable graph. Two graphs get
  /// the same fingerprint iff they are structurally identical up to
  /// node ids (argument indices, opcodes, attributes, wiring, results).
  /// The duplicate filter of the pattern library keys on this. If
  /// \p NumConstants is given, it receives the number of live Const
  /// nodes, counted on the same walk.
  std::string fingerprint(unsigned *NumConstants = nullptr) const;

  /// Deep copy.
  Graph clone() const;

  /// Deep copy with live nodes renumbered in the fingerprint's
  /// depth-first post-order from the results, so structurally
  /// identical graphs also serialize identically regardless of the
  /// order their nodes were created in. Dead nodes are dropped.
  Graph canonicalized() const;

  /// Empties the graph and gives it \p Shape's width and argument
  /// sorts, as if newly constructed, but keeps its node and list
  /// storage. A scratch graph rebuilt once per input this way stops
  /// allocating once it has grown to the largest input.
  void resetLike(const Graph &Shape);

private:
  /// Node storage: a chain of blocks, newest first, each filled in
  /// creation order. Blocks never move, so neither do nodes. The first
  /// block holds the constructor's NodeCapacity; a builder that creates
  /// more nodes than that gets further blocks.
  struct NodeBlock;

  unsigned Width;
  NodeBlock *Blocks = nullptr;
  /// The nodes not removed by removeDeadNodes(), in creation order.
  /// The Arg nodes come first, in argument order, and are never
  /// removed, so argument I is NodeList[I].
  std::vector<Node *> NodeList;
  unsigned NumArgs = 0;
  std::vector<NodeRef> Results;
  /// Node ids are dense below NextId, so per-node traversal state lives
  /// in vectors indexed by Node::id().
  unsigned NextId = 0;

  /// Reachability from \p Roots, indexed by Node::id(). The mask is
  /// per-thread scratch, valid until the next call on this thread.
  const std::vector<char> &liveMask(const std::vector<NodeRef> &Roots) const;

  Node *addNode(Opcode Op, const OperandList &Operands,
                const SortList &ResultSorts);
  /// Adds the Arg nodes of \p Shape's arguments to a graph that has no
  /// nodes yet.
  void addArgsLike(const Graph &Shape);
  /// Destroys every node and frees the blocks.
  void release();
};

} // namespace selgen

#endif // SELGEN_IR_GRAPH_H
