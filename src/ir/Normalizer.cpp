//===- Normalizer.cpp - IR canonicalization ---------------------------------===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//

#include "ir/Normalizer.h"

#include "analysis/Dataflow.h"
#include "ir/Interpreter.h"
#include "support/Error.h"

#include <algorithm>
#include <array>
#include <bit>
#include <initializer_list>

using namespace selgen;

namespace {

/// Value-numbering key of an output-graph node: its opcode, its
/// attribute (relation or constant) and its operands as (id, result
/// index) pairs. No opcode has more than three operands.
struct ValueKey {
  Opcode Op;
  Relation Rel = Relation::Eq;
  /// The constant of a Const; points at the probed value while
  /// looking up, and at the node's own value once stored.
  const BitValue *Value = nullptr;
  unsigned NumOperands = 0;
  std::array<std::pair<unsigned, unsigned>, 3> Operands{};

  ValueKey(Opcode Op, std::initializer_list<NodeRef> Refs) : Op(Op) {
    for (const NodeRef &Ref : Refs)
      Operands[NumOperands++] = {Ref.Def->id(), Ref.Index};
  }

  /// The key an output node was numbered under: every output node is
  /// created from its key, so its fields restate it.
  explicit ValueKey(const Node *N) : Op(N->opcode()) {
    for (const NodeRef &Ref : N->operands())
      Operands[NumOperands++] = {Ref.Def->id(), Ref.Index};
    if (Op == Opcode::Cmp)
      Rel = N->relation();
    if (Op == Opcode::Const)
      Value = &N->constValue();
  }

  bool operator==(const ValueKey &RHS) const {
    if (Op != RHS.Op || Rel != RHS.Rel || NumOperands != RHS.NumOperands ||
        Operands != RHS.Operands)
      return false;
    return !Value || (Value->width() == RHS.Value->width() &&
                      *Value == *RHS.Value);
  }

  size_t hash() const {
    // FNV-1a over the fields.
    size_t Hash = 1469598103934665603ull;
    auto mix = [&Hash](uint64_t Value) {
      Hash ^= Value;
      Hash *= 1099511628211ull;
    };
    mix(uint64_t(Op) << 8 | uint64_t(Rel));
    for (unsigned I = 0; I < NumOperands; ++I)
      mix(uint64_t(Operands[I].first) << 2 | Operands[I].second);
    if (Value)
      mix(Value->hash());
    return Hash;
  }
};

/// The normalizer's per-run tables. Each run resets them without
/// freeing their storage, so a table object reused across runs (the
/// normal-form verdict keeps one per thread) stops allocating once it
/// has grown to the largest graph seen.
struct NormalizerTables {
  /// The input's live nodes in creation order.
  std::vector<Node *> Live;
  /// Output value of every input value, indexed by the input node's id
  /// and result index; no opcode has more than two results.
  std::vector<std::array<NodeRef, 2>> Mapping;
  /// Value numbering: an open-addressing set of output nodes, hashed
  /// by their ValueKey; null slots are empty. Load factor <= 1/2.
  std::vector<Node *> ValueNumbers;
  size_t NumValues = 0;
  /// Structural key of each output node, indexed by its id; empty until
  /// built. The strings keep their capacity from run to run.
  std::vector<std::string> Keys;
  std::string LhsKey, RhsKey;
  /// Post-order numbers of the verdict's lockstep walk, indexed by
  /// input and by output node id.
  std::vector<unsigned> InputNumber, OutputNumber;

  void reset(const Graph &Input) {
    Input.liveNodes(Live);
    Mapping.assign(Input.idBound(), {});
    ValueNumbers.assign(
        std::bit_ceil(std::max<size_t>(16, 2 * Input.nodes().size())),
        nullptr);
    NumValues = 0;
    for (std::string &Key : Keys)
      Key.clear();
  }
};

/// Rewrites a graph bottom-up, applying local rules and value
/// numbering (CSE). A single pass suffices because operands are always
/// rewritten before their users and every rule produces already-normal
/// nodes.
///
/// Every output node is created through numbered(), so the output
/// graph is hash-consed: two references into it are structurally equal
/// exactly when they are the same NodeRef.
class NormalizerImpl {
public:
  /// Rewrites \p Old into \p New, which must be empty with Old's
  /// width and argument sorts; \p NewFacts must be fresh facts over
  /// New.
  NormalizerImpl(const Graph &Old, Graph &New, GraphFacts &NewFacts,
                 NormalizerTables &Tables)
      : Old(Old), New(New), NewFacts(NewFacts), Tables(Tables),
        Zero(BitValue::zero(Old.width())), One(Old.width(), 1) {}

  /// Rewrites every live input node into New.
  void rewrite() {
    Tables.reset(Old);
    for (unsigned I = 0; I < Old.numArgs(); ++I)
      Tables.Mapping[Old.arg(I).Def->id()][0] = New.arg(I);
    for (const Node *N : Tables.Live)
      if (N->opcode() != Opcode::Arg)
        rewriteNode(N);
  }

  /// The output value of input value \p OldRef.
  NodeRef mapped(NodeRef OldRef) const {
    NodeRef Ref = Tables.Mapping[OldRef.Def->id()][OldRef.Index];
    assert(Ref.isValid() && "operand rewritten after its user");
    return Ref;
  }

  /// True if the output, read from Old's results, fingerprints like
  /// Old: one walk over both graphs in the fingerprint's depth-first
  /// post-order compares them node by node, so neither fingerprint
  /// string is built.
  bool outputMatchesInput() {
    constexpr unsigned Unnumbered = ~0u;
    std::vector<unsigned> &OldNumber = Tables.InputNumber;
    std::vector<unsigned> &NewNumber = Tables.OutputNumber;
    OldNumber.assign(Old.idBound(), Unnumbered);
    NewNumber.assign(New.idBound(), Unnumbered);
    unsigned Next = 0;
    // Both walks number a node when they leave it, so they agree
    // exactly when every pair of visited nodes is numbered alike and
    // prints alike.
    auto same = [&](auto &&Self, const Node *A, const Node *B) -> bool {
      unsigned &NumberA = OldNumber[A->id()], &NumberB = NewNumber[B->id()];
      if (NumberA != Unnumbered || NumberB != Unnumbered)
        return NumberA == NumberB;
      if (A->opcode() != B->opcode() ||
          A->numOperands() != B->numOperands())
        return false;
      switch (A->opcode()) {
      case Opcode::Arg:
        if (A->argIndex() != B->argIndex())
          return false;
        break;
      case Opcode::Const:
        if (A->constValue().width() != B->constValue().width() ||
            A->constValue() != B->constValue())
          return false;
        break;
      case Opcode::Cmp:
        if (A->relation() != B->relation())
          return false;
        break;
      default:
        break;
      }
      for (unsigned I = 0; I < A->numOperands(); ++I)
        if (A->operand(I).Index != B->operand(I).Index ||
            !Self(Self, A->operand(I).Def, B->operand(I).Def))
          return false;
      NumberA = NumberB = Next++;
      return true;
    };
    for (const NodeRef &Ref : Old.results()) {
      NodeRef NewRef = mapped(Ref);
      if (Ref.Index != NewRef.Index || !same(same, Ref.Def, NewRef.Def))
        return false;
    }
    return true;
  }

private:
  const Graph &Old;
  Graph &New;
  /// Known-bits/range facts over the output graph, driving the
  /// fact-guarded rewrites. Operands are always rewritten before their
  /// users, so querying while New grows is safe (facts memoize per
  /// node, and nodes never change once created).
  GraphFacts &NewFacts;
  NormalizerTables &Tables;
  const BitValue Zero, One;

  unsigned width() const { return Old.width(); }

  static const Node *asConst(NodeRef Ref) {
    return Ref.Def->opcode() == Opcode::Const ? Ref.Def : nullptr;
  }

  NodeRef makeConst(const BitValue &Value) {
    ValueKey Key(Opcode::Const, {});
    Key.Value = &Value;
    return numbered(Key, [&] { return New.createConst(Value).Def; });
  }

  /// Appends the deterministic structural key of an output value, used
  /// only to order commutative operands. Keys are memoized per node, so
  /// shared subgraphs cost linear time; Keys must cover every node id.
  void appendOperandKey(std::string &Out, NodeRef Ref) {
    const Node *N = Ref.Def;
    std::string &Key = Tables.Keys[N->id()];
    if (Key.empty()) {
      switch (N->opcode()) {
      case Opcode::Arg:
        Key += 'a';
        Key += std::to_string(N->argIndex());
        break;
      case Opcode::Const:
        Key += 'c';
        Key += N->constValue().toHexString();
        break;
      default:
        Key += opcodeName(N->opcode());
        if (N->opcode() == Opcode::Cmp)
          Key += relationName(N->relation());
        Key += '(';
        for (const NodeRef &Operand : N->operands()) {
          appendOperandKey(Key, Operand);
          Key += ',';
        }
        Key += ')';
      }
    }
    Out += Key;
    if (N->numResults() > 1) {
      Out += '.';
      Out += std::to_string(Ref.Index);
    }
  }

  /// True if \p A orders before \p B by structural key.
  bool keyLess(NodeRef A, NodeRef B) {
    if (Tables.Keys.size() < New.idBound())
      Tables.Keys.resize(New.idBound());
    std::string &LhsKey = Tables.LhsKey, &RhsKey = Tables.RhsKey;
    LhsKey.clear();
    appendOperandKey(LhsKey, A);
    RhsKey.clear();
    appendOperandKey(RhsKey, B);
    return LhsKey < RhsKey;
  }

  /// The value-numbering slot of \p Key: the node numbered under it,
  /// or the empty slot where it belongs.
  Node *&valueSlot(const ValueKey &Key) {
    std::vector<Node *> &Table = Tables.ValueNumbers;
    size_t Mask = Table.size() - 1;
    for (size_t Slot = Key.hash() & Mask;; Slot = (Slot + 1) & Mask)
      if (!Table[Slot] || ValueKey(Table[Slot]) == Key)
        return Table[Slot];
  }

  /// Value numbering: returns the existing node for \p Key or creates
  /// one via \p Create.
  template <typename CreateFn>
  NodeRef numbered(const ValueKey &Key, CreateFn Create) {
    if (Node *Existing = valueSlot(Key))
      return NodeRef(Existing, 0);
    Node *N = Create();
    if (2 * (Tables.NumValues + 1) > Tables.ValueNumbers.size()) {
      std::vector<Node *> Previous(Tables.ValueNumbers.size() * 2, nullptr);
      Previous.swap(Tables.ValueNumbers);
      for (Node *Numbered : Previous)
        if (Numbered)
          valueSlot(ValueKey(Numbered)) = Numbered;
    }
    valueSlot(ValueKey(N)) = N;
    ++Tables.NumValues;
    return NodeRef(N, 0);
  }

  NodeRef makeUnary(Opcode Op, NodeRef Operand) {
    return numbered(ValueKey(Op, {Operand}),
                    [&] { return New.createUnary(Op, Operand).Def; });
  }

  NodeRef makeBinaryRaw(Opcode Op, NodeRef Lhs, NodeRef Rhs) {
    return numbered(ValueKey(Op, {Lhs, Rhs}),
                    [&] { return New.createBinary(Op, Lhs, Rhs).Def; });
  }

  void rewriteNode(const Node *N) {
    std::array<NodeRef, 3> Operands;
    for (unsigned I = 0; I < N->numOperands(); ++I)
      Operands[I] = mapped(N->operand(I));
    std::array<NodeRef, 2> &Result = Tables.Mapping[N->id()];

    switch (N->opcode()) {
    case Opcode::Arg:
      SELGEN_UNREACHABLE("Arg nodes are premapped");
    case Opcode::Const:
      Result[0] = makeConst(N->constValue());
      return;
    case Opcode::Add:
    case Opcode::Sub:
    case Opcode::Mul:
    case Opcode::And:
    case Opcode::Or:
    case Opcode::Xor:
    case Opcode::Shl:
    case Opcode::Shr:
    case Opcode::Shrs:
      Result[0] = simplifyBinary(N->opcode(), Operands[0], Operands[1]);
      return;
    case Opcode::Not:
    case Opcode::Minus:
      Result[0] = simplifyUnary(N->opcode(), Operands[0]);
      return;
    case Opcode::Cmp: {
      Relation Rel = N->relation();
      // Canonicalize: constant on the right.
      if (asConst(Operands[0]) && !asConst(Operands[1])) {
        std::swap(Operands[0], Operands[1]);
        Rel = swapRelation(Rel);
      }
      ValueKey Key(Opcode::Cmp, {Operands[0], Operands[1]});
      Key.Rel = Rel;
      Result[0] = numbered(Key, [&] {
        return New.createCmp(Rel, Operands[0], Operands[1]).Def;
      });
      return;
    }
    case Opcode::Mux:
      if (Operands[1] == Operands[2]) {
        Result[0] = Operands[1];
        return;
      }
      // A selector the range analysis decides folds the Mux to one arm.
      if (std::optional<bool> Sel = NewFacts.boolFact(Operands[0])) {
        Result[0] = Operands[*Sel ? 1 : 2];
        return;
      }
      Result[0] = numbered(
          ValueKey(Opcode::Mux, {Operands[0], Operands[1], Operands[2]}),
          [&] {
            return New.createMux(Operands[0], Operands[1], Operands[2]).Def;
          });
      return;
    case Opcode::Load: {
      Node *Load =
          numbered(ValueKey(Opcode::Load, {Operands[0], Operands[1]}), [&] {
            return New.createLoad(Operands[0], Operands[1]);
          }).Def;
      Result = {NodeRef(Load, 0), NodeRef(Load, 1)};
      return;
    }
    case Opcode::Store:
      Result[0] = numbered(
          ValueKey(Opcode::Store, {Operands[0], Operands[1], Operands[2]}),
          [&] {
            return New.createStore(Operands[0], Operands[1], Operands[2]).Def;
          });
      return;
    case Opcode::Cond: {
      Node *Cond = numbered(ValueKey(Opcode::Cond, {Operands[0]}), [&] {
                     return New.createCond(Operands[0]);
                   }).Def;
      Result = {NodeRef(Cond, 0), NodeRef(Cond, 1)};
      return;
    }
    }
    SELGEN_UNREACHABLE("bad opcode");
  }

  NodeRef simplifyUnary(Opcode Op, NodeRef Operand) {
    if (const Node *C = asConst(Operand)) {
      const BitValue &Value = C->constValue();
      return makeConst(Op == Opcode::Not ? Value.bitNot() : Value.neg());
    }
    // Not(Not(x)) -> x; Minus(Minus(x)) -> x. The operand is already a
    // node of the new graph, so its operand can be reused directly.
    if (Operand.Def->opcode() == Op)
      return Operand.Def->operand(0);
    return makeUnary(Op, Operand);
  }

  NodeRef simplifyBinary(Opcode Op, NodeRef Lhs, NodeRef Rhs) {
    const Node *LhsConst = asConst(Lhs);
    const Node *RhsConst = asConst(Rhs);

    // Fold fully constant operations (shifts only when defined).
    if (LhsConst && RhsConst) {
      BitValue A = LhsConst->constValue();
      BitValue B = RhsConst->constValue();
      bool ShiftOp =
          Op == Opcode::Shl || Op == Opcode::Shr || Op == Opcode::Shrs;
      if (!ShiftOp || B.ult(BitValue(width(), width())))
        return makeConst(foldBinary(Op, A, B));
    }

    // Constants to the right for commutative operations.
    if (opcodeIsCommutative(Op) && LhsConst && !RhsConst) {
      std::swap(Lhs, Rhs);
      std::swap(LhsConst, RhsConst);
    }

    switch (Op) {
    case Opcode::Add:
      if (RhsConst && RhsConst->constValue().isZero())
        return Lhs;
      // Reassociate constants: (x + c1) + c2 -> x + (c1 + c2).
      if (RhsConst && Lhs.Def->opcode() == Opcode::Add)
        if (const Node *Inner = asConst(Lhs.Def->operand(1))) {
          NodeRef X = Lhs.Def->operand(0);
          return simplifyBinary(
              Opcode::Add, X,
              makeConst(Inner->constValue().add(RhsConst->constValue())));
        }
      break;
    case Opcode::Sub:
      if (Lhs == Rhs)
        return makeConst(Zero);
      // x - c -> x + (-c): the canonical form production compilers use.
      if (RhsConst)
        return simplifyBinary(Opcode::Add, Lhs,
                              makeConst(RhsConst->constValue().neg()));
      if (LhsConst && LhsConst->constValue().isZero())
        return simplifyUnary(Opcode::Minus, Rhs);
      break;
    case Opcode::Mul:
      if (RhsConst) {
        const BitValue &C = RhsConst->constValue();
        if (C.isZero())
          return makeConst(Zero);
        if (C == One)
          return Lhs;
        // Strength reduction: x * 2^k -> x << k.
        if (C.popcount() == 1)
          return simplifyBinary(
              Opcode::Shl, Lhs,
              makeConst(BitValue(width(), C.countTrailingZeros())));
      }
      break;
    case Opcode::And:
      if (Lhs == Rhs)
        return Lhs;
      if (RhsConst && RhsConst->constValue().isZero())
        return makeConst(Zero);
      if (RhsConst && RhsConst->constValue().isAllOnes())
        return Lhs;
      break;
    case Opcode::Or:
      if (Lhs == Rhs)
        return Lhs;
      if (RhsConst && RhsConst->constValue().isZero())
        return Lhs;
      if (RhsConst && RhsConst->constValue().isAllOnes())
        return makeConst(BitValue::allOnes(width()));
      break;
    case Opcode::Xor:
      if (Lhs == Rhs)
        return makeConst(Zero);
      if (RhsConst && RhsConst->constValue().isZero())
        return Lhs;
      if (RhsConst && RhsConst->constValue().isAllOnes())
        return simplifyUnary(Opcode::Not, Lhs);
      break;
    case Opcode::Shl:
    case Opcode::Shr:
    case Opcode::Shrs:
      if (RhsConst && RhsConst->constValue().isZero())
        return Lhs;
      break;
    default:
      break;
    }

    // Fact-guarded rewrites: the known-bits analysis over the output
    // graph discharges identities the syntactic rules above cannot see
    // (e.g. And(Shr(x, 6), 3) -> Shr(x, 6) at width 8, the redundant
    // shift-amount mask). Facts are sound over defined executions, so
    // each rewrite preserves semantics wherever the original graph was
    // defined; test_analysis cross-checks every one against Z3.
    if (Op == Opcode::And || Op == Opcode::Or || Op == Opcode::Shrs) {
      const ValueFact &LF = NewFacts.fact(Lhs);
      const ValueFact &RF = NewFacts.fact(Rhs);
      if (Op == Opcode::And) {
        // x & y == x when every bit x can set is known set in y.
        if (LF.knownZero().bitOr(RF.knownOne()).isAllOnes())
          return Lhs;
        if (RF.knownZero().bitOr(LF.knownOne()).isAllOnes())
          return Rhs;
        // Disjoint possible-ones annihilate.
        if (LF.knownZero().bitOr(RF.knownZero()).isAllOnes())
          return makeConst(Zero);
      }
      if (Op == Opcode::Or) {
        // x | y == y when every bit x can set is known set in y.
        if (LF.knownZero().bitOr(RF.knownOne()).isAllOnes())
          return Rhs;
        if (RF.knownZero().bitOr(LF.knownOne()).isAllOnes())
          return Lhs;
      }
      // An arithmetic shift of a value whose sign bit is known clear
      // is a logical shift.
      if (Op == Opcode::Shrs && LF.knownZero().isNegative())
        return simplifyBinary(Opcode::Shr, Lhs, Rhs);
    }

    // Order commutative operands deterministically when neither side
    // is constant. Equal operands have equal keys and stay put.
    if (opcodeIsCommutative(Op) && !LhsConst && !RhsConst && Lhs != Rhs &&
        keyLess(Rhs, Lhs))
      std::swap(Lhs, Rhs);

    return makeBinaryRaw(Op, Lhs, Rhs);
  }

  BitValue foldBinary(Opcode Op, const BitValue &A, const BitValue &B) {
    switch (Op) {
    case Opcode::Add:
      return A.add(B);
    case Opcode::Sub:
      return A.sub(B);
    case Opcode::Mul:
      return A.mul(B);
    case Opcode::And:
      return A.bitAnd(B);
    case Opcode::Or:
      return A.bitOr(B);
    case Opcode::Xor:
      return A.bitXor(B);
    case Opcode::Shl:
      return A.shl(unsigned(B.zextValue()));
    case Opcode::Shr:
      return A.lshr(unsigned(B.zextValue()));
    case Opcode::Shrs:
      return A.ashr(unsigned(B.zextValue()));
    default:
      SELGEN_UNREACHABLE("not a foldable binary opcode");
    }
  }
};

} // namespace

Graph selgen::normalizeGraph(const Graph &G) {
  Graph New(G.width(), G.argSorts(), static_cast<unsigned>(G.nodes().size()));
  GraphFacts NewFacts(New);
  NormalizerTables Tables;
  NormalizerImpl Normalizer(G, New, NewFacts, Tables);
  Normalizer.rewrite();
  std::vector<NodeRef> Results;
  Results.reserve(G.results().size());
  for (const NodeRef &Ref : G.results())
    Results.push_back(Normalizer.mapped(Ref));
  New.setResults(std::move(Results));
  New.removeDeadNodes();
  return New;
}

bool selgen::isNormalized(const Graph &G) {
  // Every rule takes this verdict at construction, so the output graph,
  // its facts and the tables are per-thread scratch, rebuilt in place.
  struct Scratch {
    Graph New;
    GraphFacts NewFacts{New};
    NormalizerTables Tables;
  };
  thread_local Scratch S;
  S.New.resetLike(G);
  S.NewFacts.clear();
  NormalizerImpl Normalizer(G, S.New, S.NewFacts, S.Tables);
  Normalizer.rewrite();
  return Normalizer.outputMatchesInput();
}
