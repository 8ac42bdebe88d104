//===- IrSemantics.cpp - SMT semantics of the IR operations -----------------===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//

#include "semantics/IrSemantics.h"

#include "support/Error.h"

#include <map>

using namespace selgen;

static std::vector<Sort> internalSortsFor(Opcode Op, unsigned Width) {
  if (Op == Opcode::Const)
    return {Sort::value(Width)};
  if (Op == Opcode::Cmp)
    return {Sort::value(4)}; // Relation code, constrained to <= 9.
  return {};
}

static std::vector<Sort> toVector(const SortList &Sorts) {
  return std::vector<Sort>(Sorts.begin(), Sorts.end());
}

IrOpSpec::IrOpSpec(Opcode Op, unsigned Width)
    : InstrSpec(opcodeName(Op), toVector(opcodeArgSorts(Op, Width)),
                internalSortsFor(Op, Width),
                toVector(opcodeResultSorts(Op, Width))),
      Op(Op), Width(Width) {}

unsigned selgen::relationCode(Relation Rel) {
  return static_cast<unsigned>(Rel);
}

Relation selgen::relationFromCode(unsigned Code) {
  assert(Code <= static_cast<unsigned>(Relation::Sge) &&
         "relation code out of range");
  return static_cast<Relation>(Code);
}

z3::expr selgen::relationExpr(Relation Rel, const z3::expr &Lhs,
                              const z3::expr &Rhs) {
  switch (Rel) {
  case Relation::Eq:
    return Lhs == Rhs;
  case Relation::Ne:
    return Lhs != Rhs;
  case Relation::Ult:
    return z3::ult(Lhs, Rhs);
  case Relation::Ule:
    return z3::ule(Lhs, Rhs);
  case Relation::Ugt:
    return z3::ugt(Lhs, Rhs);
  case Relation::Uge:
    return z3::uge(Lhs, Rhs);
  case Relation::Slt:
    return Lhs < Rhs;
  case Relation::Sle:
    return Lhs <= Rhs;
  case Relation::Sgt:
    return Lhs > Rhs;
  case Relation::Sge:
    return Lhs >= Rhs;
  }
  SELGEN_UNREACHABLE("bad relation");
}

z3::expr selgen::relationExprFromCode(SmtContext &Smt, const z3::expr &Code,
                                      const z3::expr &Lhs,
                                      const z3::expr &Rhs) {
  z3::expr Result = Smt.boolVal(false);
  for (Relation Rel : allRelations()) {
    z3::expr CodeLiteral = Smt.ctx().bv_val(relationCode(Rel), 4);
    Result = z3::ite(Code == CodeLiteral, relationExpr(Rel, Lhs, Rhs),
                     Result);
  }
  return Result;
}

z3::expr IrOpSpec::precondition(SemanticsContext &Context,
                                const std::vector<z3::expr> &Args,
                                const std::vector<z3::expr> &Internals) const {
  z3::context &Ctx = Context.Smt.ctx();
  switch (Op) {
  case Opcode::Shl:
  case Opcode::Shr:
  case Opcode::Shrs:
    // C shift semantics: 0 <= amount < width (unsigned comparison
    // covers the negative case).
    return z3::ult(Args[1], Ctx.bv_val(Width, Width));
  case Opcode::Cmp:
    return z3::ule(Internals[0],
                   Ctx.bv_val(relationCode(Relation::Sge), 4));
  default:
    return Context.Smt.boolVal(true);
  }
}

std::vector<z3::expr>
IrOpSpec::computeResults(SemanticsContext &Context,
                         const std::vector<z3::expr> &Args,
                         const std::vector<z3::expr> &Internals) const {
  z3::context &Ctx = Context.Smt.ctx();
  switch (Op) {
  case Opcode::Arg:
    SELGEN_UNREACHABLE("Arg has no semantics");
  case Opcode::Const:
    return {Internals[0]};
  case Opcode::Add:
    return {Args[0] + Args[1]};
  case Opcode::Sub:
    return {Args[0] - Args[1]};
  case Opcode::Mul:
    return {Args[0] * Args[1]};
  case Opcode::And:
    return {Args[0] & Args[1]};
  case Opcode::Or:
    return {Args[0] | Args[1]};
  case Opcode::Xor:
    return {Args[0] ^ Args[1]};
  case Opcode::Not:
    return {~Args[0]};
  case Opcode::Minus:
    return {-Args[0]};
  case Opcode::Shl:
    return {z3::shl(Args[0], Args[1])};
  case Opcode::Shr:
    return {z3::lshr(Args[0], Args[1])};
  case Opcode::Shrs:
    return {z3::ashr(Args[0], Args[1])};
  case Opcode::Load: {
    assert(Context.Memory && "Load requires a memory model");
    Context.RangeConditions.push_back(Context.Memory->inRange(Args[1]));
    // Every byte of the wide load must be a valid pointer as well;
    // loadValue chains the per-byte loads, and inRange covers each
    // byte address.
    unsigned NumBytes = Width / Context.Memory->byteWidth();
    for (unsigned I = 1; I < NumBytes; ++I)
      Context.RangeConditions.push_back(Context.Memory->inRange(
          Args[1] + Ctx.bv_val(I, Width)));
    auto [Value, NewMemory] =
        Context.Memory->loadValue(Args[0], Args[1], NumBytes);
    return {NewMemory, Value};
  }
  case Opcode::Store: {
    assert(Context.Memory && "Store requires a memory model");
    unsigned NumBytes = Width / Context.Memory->byteWidth();
    for (unsigned I = 0; I < NumBytes; ++I)
      Context.RangeConditions.push_back(Context.Memory->inRange(
          Args[1] + Ctx.bv_val(I, Width)));
    return {Context.Memory->storeValue(Args[0], Args[1], Args[2])};
  }
  case Opcode::Cmp:
    return {relationExprFromCode(Context.Smt, Internals[0], Args[0],
                                 Args[1])};
  case Opcode::Mux:
    return {z3::ite(Args[0], Args[1], Args[2])};
  case Opcode::Cond:
    return {Args[0], !Args[0]};
  }
  SELGEN_UNREACHABLE("bad opcode");
}

GraphSemantics
selgen::buildGraphSemantics(SemanticsContext &Context, const Graph &G,
                            const std::vector<z3::expr> &Args) {
  assert(Args.size() == G.numArgs() && "argument count mismatch");
  std::map<std::pair<const Node *, unsigned>, z3::expr> Values;

  GraphSemantics Result{Context.Smt.boolVal(true), {}, {}};
  size_t RangeBefore = Context.RangeConditions.size();

  for (Node *N : G.liveNodes()) {
    if (N->opcode() == Opcode::Arg) {
      Values.insert({{N, 0}, Args[N->argIndex()]});
      continue;
    }
    IrOpSpec Spec(N->opcode(), G.width());
    std::vector<z3::expr> OperandExprs;
    for (const NodeRef &Operand : N->operands())
      OperandExprs.push_back(Values.at({Operand.Def, Operand.Index}));

    std::vector<z3::expr> Internals;
    if (N->opcode() == Opcode::Const)
      Internals.push_back(Context.Smt.literal(N->constValue()));
    else if (N->opcode() == Opcode::Cmp)
      Internals.push_back(
          Context.Smt.ctx().bv_val(relationCode(N->relation()), 4));

    Result.Precondition =
        (Result.Precondition &&
         Spec.precondition(Context, OperandExprs, Internals))
            .simplify();
    std::vector<z3::expr> ResultExprs =
        Spec.computeResults(Context, OperandExprs, Internals);
    for (unsigned I = 0; I < ResultExprs.size(); ++I)
      Values.insert({{N, I}, ResultExprs[I]});
  }

  for (const NodeRef &Ref : G.results())
    Result.Results.push_back(Values.at({Ref.Def, Ref.Index}));
  Result.RangeConditions.assign(Context.RangeConditions.begin() + RangeBefore,
                                Context.RangeConditions.end());
  return Result;
}
