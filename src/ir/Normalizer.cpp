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

#include <array>
#include <initializer_list>
#include <unordered_map>

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

  bool operator==(const ValueKey &RHS) const {
    if (Op != RHS.Op || Rel != RHS.Rel || NumOperands != RHS.NumOperands ||
        Operands != RHS.Operands)
      return false;
    return !Value || (Value->width() == RHS.Value->width() &&
                      *Value == *RHS.Value);
  }
};

struct ValueKeyHash {
  size_t operator()(const ValueKey &Key) const {
    // FNV-1a over the fields.
    size_t Hash = 1469598103934665603ull;
    auto mix = [&Hash](uint64_t Value) {
      Hash ^= Value;
      Hash *= 1099511628211ull;
    };
    mix(uint64_t(Key.Op) << 8 | uint64_t(Key.Rel));
    for (unsigned I = 0; I < Key.NumOperands; ++I)
      mix(uint64_t(Key.Operands[I].first) << 2 | Key.Operands[I].second);
    if (Key.Value)
      mix(Key.Value->hash());
    return Hash;
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
  NormalizerImpl(const Graph &Old)
      : Old(Old), New(Old.width(), Old.argSorts()), Mapping(Old.idBound()),
        Zero(BitValue::zero(Old.width())), One(Old.width(), 1) {}

  Graph run() {
    for (unsigned I = 0; I < Old.numArgs(); ++I)
      Mapping[Old.arg(I).Def->id()][0] = New.arg(I);
    for (Node *N : Old.liveNodes())
      if (N->opcode() != Opcode::Arg)
        rewriteNode(N);
    std::vector<NodeRef> Results;
    Results.reserve(Old.results().size());
    for (const NodeRef &Ref : Old.results())
      Results.push_back(mapped(Ref));
    New.setResults(std::move(Results));
    New.removeDeadNodes();
    return std::move(New);
  }

private:
  const Graph &Old;
  Graph New;
  /// Known-bits/range facts over the output graph, driving the
  /// fact-guarded rewrites. Operands are always rewritten before their
  /// users, so querying while New grows is safe (facts memoize per
  /// node, and nodes never change once created).
  GraphFacts NewFacts{New};
  /// Output value of every input value, indexed by the input node's id
  /// and result index; no opcode has more than two results.
  std::vector<std::array<NodeRef, 2>> Mapping;
  std::unordered_map<ValueKey, Node *, ValueKeyHash> ValueNumbers;
  /// Structural key of each output node, indexed by its id; empty until
  /// built.
  std::vector<std::string> Keys;
  std::string LhsKey, RhsKey;
  const BitValue Zero, One;

  unsigned width() const { return Old.width(); }

  NodeRef mapped(NodeRef OldRef) const {
    NodeRef Ref = Mapping[OldRef.Def->id()][OldRef.Index];
    assert(Ref.isValid() && "operand rewritten after its user");
    return Ref;
  }

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
    std::string &Key = Keys[N->id()];
    if (Key.empty()) {
      switch (N->opcode()) {
      case Opcode::Arg:
        Key = "a" + std::to_string(N->argIndex());
        break;
      case Opcode::Const:
        Key = "c" + N->constValue().toHexString();
        break;
      default:
        Key = opcodeName(N->opcode());
        if (N->opcode() == Opcode::Cmp)
          Key += relationName(N->relation());
        Key += "(";
        for (const NodeRef &Operand : N->operands()) {
          appendOperandKey(Key, Operand);
          Key += ",";
        }
        Key += ")";
      }
    }
    Out += Key;
    if (N->numResults() > 1)
      Out += "." + std::to_string(Ref.Index);
  }

  /// True if \p A orders before \p B by structural key.
  bool keyLess(NodeRef A, NodeRef B) {
    Keys.resize(New.idBound());
    LhsKey.clear();
    appendOperandKey(LhsKey, A);
    RhsKey.clear();
    appendOperandKey(RhsKey, B);
    return LhsKey < RhsKey;
  }

  /// Value numbering: returns the existing node for \p Key or creates
  /// one via \p Create.
  template <typename CreateFn>
  NodeRef numbered(ValueKey Key, CreateFn Create) {
    auto It = ValueNumbers.find(Key);
    if (It != ValueNumbers.end())
      return NodeRef(It->second, 0);
    Node *N = Create();
    if (Key.Value)
      Key.Value = &N->constValue();
    ValueNumbers.emplace(Key, N);
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
    std::array<NodeRef, 2> &Result = Mapping[N->id()];

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
  return NormalizerImpl(G).run();
}

bool selgen::isNormalized(const Graph &G) {
  return normalizeGraph(G).fingerprint() == G.fingerprint();
}
