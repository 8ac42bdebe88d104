//===- test_lowering.cpp - FunctionLowering scaffolding tests ------------------===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//

#include "isel/Lowering.h"

#include <gtest/gtest.h>

using namespace selgen;

namespace {

constexpr unsigned W = 8;

Function makeTwoBlockFunction() {
  Function F("low", W);
  BasicBlock *Entry = F.createBlock(
      "entry", {Sort::memory(), Sort::value(W), Sort::value(W)});
  BasicBlock *Next =
      F.createBlock("next", {Sort::memory(), Sort::value(W)});
  {
    Graph &G = Entry->body();
    NodeRef Sum = G.createBinary(Opcode::Add, G.arg(1),
                                 G.createConst(BitValue(W, 7)));
    Entry->setJump(Next, {G.arg(0), Sum});
  }
  {
    Graph &G = Next->body();
    Next->setReturn({G.arg(0), G.arg(1)});
  }
  return F;
}

} // namespace

TEST(FunctionLowering, SkeletonAndArgRegs) {
  Function F = makeTwoBlockFunction();
  FunctionLowering Lowering(F, "test");

  // One machine block per IR block.
  EXPECT_EQ(Lowering.machineFunction().blocks().size(), 2u);
  // Entry has two value arguments (memory gets no register).
  MachineBlock *Entry = Lowering.machineBlock(F.blocks()[0].get());
  EXPECT_EQ(Entry->ArgRegs.size(), 2u);
  MachineBlock *Next = Lowering.machineBlock(F.blocks()[1].get());
  EXPECT_EQ(Next->ArgRegs.size(), 1u);

  // Block arguments are pre-mapped; memory maps to a None operand.
  const Graph &Body = F.blocks()[0]->body();
  EXPECT_TRUE(Lowering.hasValue(Body.arg(0)));
  EXPECT_TRUE(Lowering.value(Body.arg(0)).isNone());
  EXPECT_TRUE(Lowering.value(Body.arg(1)).isReg());
}

TEST(FunctionLowering, OperandHelpers) {
  Function F = makeTwoBlockFunction();
  FunctionLowering Lowering(F, "test");
  MachineBlock *Entry = Lowering.machineBlock(F.blocks()[0].get());
  const Graph &Body = F.blocks()[0]->body();

  // The Const node feeding the Add.
  NodeRef ConstRef;
  for (Node *N : Body.nodes())
    if (N->opcode() == Opcode::Const)
      ConstRef = NodeRef(N, 0);
  ASSERT_TRUE(ConstRef.isValid());

  // flexOperand yields an immediate without emitting code.
  MOperand Flexible = Lowering.flexOperand(Entry, ConstRef);
  EXPECT_TRUE(Flexible.isImm());
  EXPECT_EQ(Entry->instructions().size(), 0u);

  // regOperand materializes it once with a mov.
  bool Materialized = false;
  MOperand Reg = Lowering.regOperand(Entry, ConstRef, &Materialized);
  EXPECT_TRUE(Reg.isReg());
  EXPECT_TRUE(Materialized);
  EXPECT_EQ(Entry->instructions().size(), 1u);
  EXPECT_EQ(Entry->instructions()[0].Op, MOpcode::Mov);

  // Second request reuses the register.
  MOperand Again = Lowering.regOperand(Entry, ConstRef);
  EXPECT_TRUE(Again.isReg());
  EXPECT_EQ(Again.R, Reg.R);
  EXPECT_EQ(Entry->instructions().size(), 1u);
}

TEST(FunctionLowering, TerminatorsAndEdgeMoves) {
  Function F = makeTwoBlockFunction();
  FunctionLowering Lowering(F, "test");

  // Lower the entry block's body minimally: give the Add a register.
  const Graph &Body = F.blocks()[0]->body();
  NodeRef SumRef;
  for (Node *N : Body.nodes())
    if (N->opcode() == Opcode::Add)
      SumRef = NodeRef(N, 0);
  MReg SumReg = Lowering.machineFunction().newReg();
  Lowering.setValue(SumRef, MOperand::reg(SumReg));

  Lowering.lowerTerminator(F.blocks()[0].get(),
                           [](MachineBlock *, NodeRef) {
                             ADD_FAILURE() << "no branch expected";
                             return CondCode::E;
                           });
  Lowering.lowerTerminator(F.blocks()[1].get(),
                           [](MachineBlock *, NodeRef) {
                             ADD_FAILURE() << "no branch expected";
                             return CondCode::E;
                           });

  MachineBlock *Entry = Lowering.machineBlock(F.blocks()[0].get());
  const MTerminator &Term = Entry->terminator();
  EXPECT_EQ(Term.TermKind, MTerminator::Kind::Jmp);
  // One edge move (the memory token is skipped), into the target's
  // argument register, sourced from the Add's register.
  MachineBlock *Next = Lowering.machineBlock(F.blocks()[1].get());
  ASSERT_EQ(Term.ThenMoves.size(), 1u);
  EXPECT_EQ(Term.ThenMoves[0].first, Next->ArgRegs[0]);
  EXPECT_TRUE(Term.ThenMoves[0].second.isReg());
  EXPECT_EQ(Term.ThenMoves[0].second.R, SumReg);

  // Return: memory skipped, one value operand.
  const MTerminator &RetTerm = Next->terminator();
  EXPECT_EQ(RetTerm.TermKind, MTerminator::Kind::Ret);
  ASSERT_EQ(RetTerm.ReturnValues.size(), 1u);
  EXPECT_TRUE(RetTerm.ReturnValues[0].isReg());
}
