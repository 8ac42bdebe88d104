//===- Graph.cpp - Single-block SSA data-dependence graphs -----------------===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//

#include "ir/Graph.h"

#include "support/Error.h"

#include <algorithm>
#include <charconv>
#include <new>
#include <utility>

using namespace selgen;

/// A block's header; its node slots follow it in the same allocation.
struct Graph::NodeBlock {
  NodeBlock *Older;
  unsigned Capacity;
  unsigned Used;

  static NodeBlock *create(unsigned Capacity, NodeBlock *Older) {
    static_assert(sizeof(NodeBlock) % alignof(Node) == 0,
                  "node slots must be aligned");
    void *Memory = ::operator new(sizeof(NodeBlock) + Capacity * sizeof(Node));
    return new (Memory) NodeBlock{Older, Capacity, 0};
  }
  Node *nextSlot() { return reinterpret_cast<Node *>(this + 1) + Used++; }
};

namespace {

/// Slots of a block a builder gets without a node count, and the least
/// a full graph grows by; a full graph otherwise doubles.
constexpr unsigned GrowthNodes = 8;

} // namespace

Graph::Graph(unsigned Width, const std::vector<Sort> &ArgSorts,
             unsigned NodeCapacity)
    : Width(Width) {
  NumArgs = static_cast<unsigned>(ArgSorts.size());
  unsigned Capacity = NodeCapacity ? std::max(NodeCapacity, NumArgs)
                                   : NumArgs + GrowthNodes;
  Blocks = NodeBlock::create(Capacity, nullptr);
  NodeList.reserve(Capacity);
  for (unsigned I = 0; I < NumArgs; ++I)
    addNode(Opcode::Arg, {}, {ArgSorts[I]})->setArgIndex(I);
}

Graph::~Graph() { release(); }

Graph::Graph(Graph &&Other) noexcept
    : Width(Other.Width), Blocks(std::exchange(Other.Blocks, nullptr)),
      NodeList(std::move(Other.NodeList)),
      NumArgs(std::exchange(Other.NumArgs, 0)),
      Results(std::move(Other.Results)), NextId(Other.NextId) {}

Graph &Graph::operator=(Graph &&Other) noexcept {
  if (this == &Other)
    return *this;
  release();
  Width = Other.Width;
  Blocks = std::exchange(Other.Blocks, nullptr);
  NodeList = std::move(Other.NodeList);
  Other.NodeList.clear();
  NumArgs = std::exchange(Other.NumArgs, 0);
  Results = std::move(Other.Results);
  NextId = Other.NextId;
  return *this;
}

void Graph::resetLike(const Graph &Shape) {
  for (Node *N : NodeList)
    N->~Node();
  NodeList.clear();
  // Keep one block, as large as the whole chain, so the next build of
  // the same size fits in it.
  if (Blocks && Blocks->Older) {
    unsigned Capacity = 0;
    for (NodeBlock *B = Blocks; B; B = B->Older)
      Capacity += B->Capacity;
    while (Blocks)
      ::operator delete(std::exchange(Blocks, Blocks->Older));
    Blocks = NodeBlock::create(Capacity, nullptr);
  }
  if (Blocks)
    Blocks->Used = 0;
  Width = Shape.Width;
  Results.clear();
  NextId = 0;
  addArgsLike(Shape);
}

void Graph::addArgsLike(const Graph &Shape) {
  assert(NodeList.empty() && "arguments are the first nodes");
  NumArgs = Shape.NumArgs;
  for (unsigned I = 0; I < NumArgs; ++I)
    addNode(Opcode::Arg, {}, {Shape.argSort(I)})->setArgIndex(I);
}

void Graph::release() {
  // Nodes removed by removeDeadNodes() are already destroyed.
  for (Node *N : NodeList)
    N->~Node();
  NodeList.clear();
  while (Blocks)
    ::operator delete(std::exchange(Blocks, Blocks->Older));
}

std::vector<Sort> Graph::argSorts() const {
  std::vector<Sort> Sorts;
  Sorts.reserve(NumArgs);
  for (unsigned I = 0; I < NumArgs; ++I)
    Sorts.push_back(argSort(I));
  return Sorts;
}

Node *Graph::addNode(Opcode Op, const OperandList &Operands,
                     const SortList &ResultSorts) {
  if (!Blocks || Blocks->Used == Blocks->Capacity)
    Blocks = NodeBlock::create(
        std::max(GrowthNodes, static_cast<unsigned>(NodeList.size())), Blocks);
  Node *N = new (Blocks->nextSlot()) Node(NextId++, Op, Operands, ResultSorts);
  NodeList.push_back(N);
  return N;
}

NodeRef Graph::createConst(const BitValue &Value) {
  Node *N = addNode(Opcode::Const, {}, {Sort::value(Value.width())});
  N->setConstValue(Value);
  return N->result();
}

NodeRef Graph::createUnary(Opcode Op, NodeRef Operand) {
  assert((Op == Opcode::Not || Op == Opcode::Minus) && "not a unary opcode");
  assert(Operand.sort() == Sort::value(Width) && "operand sort mismatch");
  return addNode(Op, {Operand}, {Sort::value(Width)})->result();
}

NodeRef Graph::createBinary(Opcode Op, NodeRef Lhs, NodeRef Rhs) {
  assert(opcodeArgSorts(Op, Width).size() == 2 && "not a binary opcode");
  assert(Lhs.sort() == Sort::value(Width) && "lhs sort mismatch");
  assert(Rhs.sort() == Sort::value(Width) && "rhs sort mismatch");
  assert(Op != Opcode::Cmp && "use createCmp for comparisons");
  return addNode(Op, {Lhs, Rhs}, {Sort::value(Width)})->result();
}

NodeRef Graph::createCmp(Relation Rel, NodeRef Lhs, NodeRef Rhs) {
  assert(Lhs.sort() == Sort::value(Width) && "lhs sort mismatch");
  assert(Rhs.sort() == Sort::value(Width) && "rhs sort mismatch");
  Node *N = addNode(Opcode::Cmp, {Lhs, Rhs}, {Sort::boolean()});
  N->setRelation(Rel);
  return N->result();
}

NodeRef Graph::createMux(NodeRef Selector, NodeRef TrueValue,
                         NodeRef FalseValue) {
  assert(Selector.sort().isBool() && "selector must be boolean");
  assert(TrueValue.sort() == Sort::value(Width) && "true value mismatch");
  assert(FalseValue.sort() == Sort::value(Width) && "false value mismatch");
  return addNode(Opcode::Mux, {Selector, TrueValue, FalseValue},
                 {Sort::value(Width)})
      ->result();
}

Node *Graph::createLoad(NodeRef Memory, NodeRef Pointer) {
  assert(Memory.sort().isMemory() && "first operand must be memory");
  assert(Pointer.sort() == Sort::value(Width) && "pointer sort mismatch");
  return addNode(Opcode::Load, {Memory, Pointer},
                 {Sort::memory(), Sort::value(Width)});
}

NodeRef Graph::createStore(NodeRef Memory, NodeRef Pointer, NodeRef Value) {
  assert(Memory.sort().isMemory() && "first operand must be memory");
  assert(Pointer.sort() == Sort::value(Width) && "pointer sort mismatch");
  assert(Value.sort() == Sort::value(Width) && "value sort mismatch");
  return addNode(Opcode::Store, {Memory, Pointer, Value}, {Sort::memory()})
      ->result();
}

Node *Graph::createCond(NodeRef Selector) {
  assert(Selector.sort().isBool() && "selector must be boolean");
  return addNode(Opcode::Cond, {Selector},
                 {Sort::boolean(), Sort::boolean()});
}

Node *Graph::createNode(Opcode Op, const std::vector<NodeRef> &Operands) {
  assert(Op != Opcode::Arg && "arguments are created with the graph");
  SortList Expected = opcodeArgSorts(Op, Width);
  (void)Expected;
  assert(Operands.size() == Expected.size() && "operand count mismatch");
  for (unsigned I = 0; I < Operands.size(); ++I) {
    (void)I;
    assert(Operands[I].sort() == Expected[I] && "operand sort mismatch");
  }
  return addNode(Op, OperandList(Operands.begin(), Operands.end()),
                 opcodeResultSorts(Op, Width));
}

void Graph::setResults(std::vector<NodeRef> NewResults) {
  Results = std::move(NewResults);
}

std::vector<Sort> Graph::resultSorts() const {
  std::vector<Sort> Sorts;
  Sorts.reserve(Results.size());
  for (const NodeRef &Ref : Results)
    Sorts.push_back(Ref.sort());
  return Sorts;
}

std::vector<Node *> Graph::scheduledNodes() const {
  // Creation order already respects dependencies because operands must
  // exist when a node is created; filter out the Arg pseudo-nodes.
  std::vector<Node *> Scheduled;
  Scheduled.reserve(NodeList.size() - NumArgs);
  for (Node *N : NodeList)
    if (N->opcode() != Opcode::Arg)
      Scheduled.push_back(N);
  return Scheduled;
}

unsigned Graph::numOperations() const {
  unsigned Count = 0;
  for (const Node *N : NodeList)
    if (N->opcode() != Opcode::Arg)
      ++Count;
  return Count;
}

std::vector<Node *> Graph::liveNodes() const { return liveNodesFrom(Results); }

void Graph::liveNodes(std::vector<Node *> &Out) const {
  const std::vector<char> &Live = liveMask(Results);
  Out.clear();
  for (Node *N : NodeList)
    if (Live[N->id()])
      Out.push_back(N);
}

const std::vector<char> &
Graph::liveMask(const std::vector<NodeRef> &Roots) const {
  static thread_local std::vector<char> Live;
  static thread_local std::vector<const Node *> Worklist;
  Live.assign(NextId, 0);
  auto mark = [&](const Node *N) {
    if (!Live[N->id()]) {
      Live[N->id()] = 1;
      Worklist.push_back(N);
    }
  };
  for (const NodeRef &Ref : Roots)
    if (Ref.isValid())
      mark(Ref.Def);
  while (!Worklist.empty()) {
    const Node *N = Worklist.back();
    Worklist.pop_back();
    for (const NodeRef &Operand : N->operands())
      mark(Operand.Def);
  }
  return Live;
}

std::vector<Node *>
Graph::liveNodesFrom(const std::vector<NodeRef> &Roots) const {
  const std::vector<char> &Live = liveMask(Roots);
  std::vector<Node *> Ordered;
  Ordered.reserve(NodeList.size());
  for (Node *N : NodeList)
    if (Live[N->id()])
      Ordered.push_back(N);
  return Ordered;
}

void Graph::removeDeadNodes() {
  const std::vector<char> &Live = liveMask(Results);
  auto Kept = NodeList.begin();
  for (Node *N : NodeList) {
    if (N->opcode() == Opcode::Arg || Live[N->id()])
      *Kept++ = N;
    else
      N->~Node(); // Its slot is not reused.
  }
  NodeList.erase(Kept, NodeList.end());
}

namespace {

void appendNumber(std::string &Out, unsigned Value) {
  char Buffer[16];
  char *End = std::to_chars(Buffer, Buffer + sizeof(Buffer), Value).ptr;
  Out.append(Buffer, End);
}

} // namespace

std::string Graph::fingerprint(unsigned *NumConstants) const {
  // Number the live nodes by depth-first post-order from the results,
  // so structurally identical graphs fingerprint identically no matter
  // in which order their nodes were created.
  // Per-thread scratch: every rule fingerprints its pattern on load.
  constexpr unsigned Unnumbered = ~0u;
  static thread_local std::vector<unsigned> Numbering;
  static thread_local std::vector<const Node *> Live;
  Numbering.assign(NextId, Unnumbered);
  Live.clear();
  auto visit = [&](auto &&Self, const Node *N) -> void {
    if (Numbering[N->id()] != Unnumbered)
      return;
    // Mark before recursing is unnecessary: graphs are acyclic.
    for (const NodeRef &Operand : N->operands())
      Self(Self, Operand.Def);
    Numbering[N->id()] = static_cast<unsigned>(Live.size());
    Live.push_back(N);
  };
  for (const NodeRef &Ref : Results)
    if (Ref.isValid())
      visit(visit, Ref.Def);

  // Built in a per-thread buffer and copied out at its exact size:
  // every rule stores its fingerprint.
  static thread_local std::string Result;
  Result.clear();
  auto appendRef = [&](const NodeRef &Ref) {
    assert(Ref.isValid() && "fingerprint of an unset reference");
    appendNumber(Result, Numbering[Ref.Def->id()]);
    Result += '.';
    appendNumber(Result, Ref.Index);
  };
  Result += 'w';
  appendNumber(Result, Width);
  Result += ';';
  unsigned Constants = 0;
  for (const Node *N : Live) {
    Result += opcodeName(N->opcode());
    switch (N->opcode()) {
    case Opcode::Arg:
      Result += '#';
      appendNumber(Result, N->argIndex());
      break;
    case Opcode::Const:
      ++Constants;
      Result += '#';
      Result += N->constValue().toHexString();
      Result += ':';
      appendNumber(Result, N->constValue().width());
      break;
    case Opcode::Cmp:
      Result += '#';
      Result += relationName(N->relation());
      break;
    default:
      break;
    }
    Result += '(';
    for (unsigned I = 0; I < N->numOperands(); ++I) {
      if (I != 0)
        Result += ',';
      appendRef(N->operand(I));
    }
    Result += ");";
  }
  Result += "->";
  if (NumConstants)
    *NumConstants = Constants;
  for (unsigned I = 0; I < Results.size(); ++I) {
    if (I != 0)
      Result += ',';
    appendRef(Results[I]);
  }
  return Result;
}

Graph Graph::clone() const {
  Graph Copy(Width, {}, static_cast<unsigned>(NodeList.size()));
  Copy.addArgsLike(*this);
  // Indexed by the source node's id; ids are dense below NextId.
  static thread_local std::vector<Node *> Mapping;
  Mapping.assign(NextId, nullptr);
  for (unsigned I = 0; I < NumArgs; ++I)
    Mapping[NodeList[I]->id()] = Copy.NodeList[I];
  for (const Node *N : NodeList) {
    if (N->opcode() == Opcode::Arg)
      continue;
    OperandList Operands;
    for (const NodeRef &Operand : N->operands())
      Operands.push_back(NodeRef(Mapping[Operand.Def->id()], Operand.Index));
    Node *NewNode = Copy.addNode(N->opcode(), Operands, N->resultSorts());
    if (N->opcode() == Opcode::Const)
      NewNode->setConstValue(N->constValue());
    if (N->opcode() == Opcode::Cmp)
      NewNode->setRelation(N->relation());
    Mapping[N->id()] = NewNode;
  }
  std::vector<NodeRef> NewResults;
  NewResults.reserve(Results.size());
  for (const NodeRef &Ref : Results)
    NewResults.emplace_back(Mapping[Ref.Def->id()], Ref.Index);
  Copy.setResults(std::move(NewResults));
  return Copy;
}

Graph Graph::canonicalized() const {
  Graph Copy(Width, {}, static_cast<unsigned>(NodeList.size()));
  Copy.addArgsLike(*this);
  // Indexed by the source node's id, like clone().
  std::vector<Node *> Mapping(NextId, nullptr);
  for (unsigned I = 0; I < NumArgs; ++I)
    Mapping[NodeList[I]->id()] = Copy.NodeList[I];
  // Same traversal as fingerprint(): operands before users, results
  // left to right. Graphs are acyclic, so no visit-in-progress mark.
  auto visit = [&](auto &&Self, const Node *N) -> void {
    if (Mapping[N->id()])
      return;
    for (const NodeRef &Operand : N->operands())
      Self(Self, Operand.Def);
    OperandList Operands;
    for (const NodeRef &Operand : N->operands())
      Operands.push_back(NodeRef(Mapping[Operand.Def->id()], Operand.Index));
    Node *NewNode = Copy.addNode(N->opcode(), Operands, N->resultSorts());
    if (N->opcode() == Opcode::Const)
      NewNode->setConstValue(N->constValue());
    if (N->opcode() == Opcode::Cmp)
      NewNode->setRelation(N->relation());
    Mapping[N->id()] = NewNode;
  };
  for (const NodeRef &Ref : Results)
    if (Ref.isValid())
      visit(visit, Ref.Def);
  std::vector<NodeRef> NewResults;
  for (const NodeRef &Ref : Results)
    NewResults.push_back(Ref.isValid()
                             ? NodeRef(Mapping[Ref.Def->id()], Ref.Index)
                             : NodeRef());
  Copy.setResults(std::move(NewResults));
  return Copy;
}
