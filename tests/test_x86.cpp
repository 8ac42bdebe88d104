//===- test_x86.cpp - Machine IR, emulator, and passes tests -------------------===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//

#include "ir/Function.h"
#include "ir/Interpreter.h"
#include "x86/AddressingMode.h"
#include "x86/Emulator.h"
#include "x86/MachinePasses.h"

#include <gtest/gtest.h>

using namespace selgen;

namespace {

/// Builds a single-block function computing a sequence of instructions
/// over two 8-bit arguments in v0/v1 and returning one value.
struct MiniProgram {
  MachineFunction MF{"test", 8};
  MachineBlock *Block = MF.createBlock("entry");
  MReg A, B;

  MiniProgram() {
    A = MF.newReg();
    B = MF.newReg();
    Block->ArgRegs = {A, B};
  }

  void ret(MOperand Value) {
    Block->terminator().TermKind = MTerminator::Kind::Ret;
    Block->terminator().ReturnValues = {Value};
  }

  MachineRunResult run(uint64_t AV, uint64_t BV,
                       MemoryState Memory = MemoryState()) {
    return runMachineFunction(
        MF, {{A, BitValue(8, AV)}, {B, BitValue(8, BV)}}, Memory);
  }
};

} // namespace

TEST(CondCodes, RelationRoundTrip) {
  for (CondCode CC : relationCondCodes())
    EXPECT_EQ(condCodeForRelation(relationForCondCode(CC)), CC);
}

TEST(Emulator, BasicArithmetic) {
  MiniProgram P;
  MReg T = P.MF.newReg();
  P.Block->append({MOpcode::Add, CondCode::E, MOperand::reg(T),
                   MOperand::reg(P.A), MOperand::reg(P.B)});
  MReg U = P.MF.newReg();
  P.Block->append({MOpcode::Imul, CondCode::E, MOperand::reg(U),
                   MOperand::reg(T), MOperand::imm(BitValue(8, 3))});
  P.ret(MOperand::reg(U));
  EXPECT_EQ(P.run(10, 5).ReturnValues[0].zextValue(), 45u);
}

TEST(Emulator, CmpSetccForAllConditions) {
  // setcc after cmp must agree with the IR relation for every cc.
  for (CondCode CC : relationCondCodes()) {
    Relation Rel = relationForCondCode(CC);
    for (uint64_t AV : {0u, 1u, 127u, 128u, 255u}) {
      for (uint64_t BV : {0u, 1u, 127u, 128u, 255u}) {
        MiniProgram P;
        P.Block->append({MOpcode::Cmp, CondCode::E, {}, MOperand::reg(P.A),
                         MOperand::reg(P.B)});
        MReg T = P.MF.newReg();
        P.Block->append({MOpcode::Setcc, CC, MOperand::reg(T), {}, {}});
        P.ret(MOperand::reg(T));
        bool Expected =
            evaluateRelation(Rel, BitValue(8, AV), BitValue(8, BV));
        EXPECT_EQ(P.run(AV, BV).ReturnValues[0].zextValue(),
                  Expected ? 1u : 0u)
            << condCodeName(CC) << " on " << AV << ", " << BV;
      }
    }
  }
}

TEST(Emulator, SignConditions) {
  // test a, a; js.
  MiniProgram P;
  P.Block->append({MOpcode::Test, CondCode::E, {}, MOperand::reg(P.A),
                   MOperand::reg(P.A)});
  MReg T = P.MF.newReg();
  P.Block->append({MOpcode::Setcc, CondCode::S, MOperand::reg(T), {}, {}});
  P.ret(MOperand::reg(T));
  EXPECT_EQ(P.run(0x80, 0).ReturnValues[0].zextValue(), 1u);
  EXPECT_EQ(P.run(0x7F, 0).ReturnValues[0].zextValue(), 0u);
}

TEST(Emulator, MemoryOperandsAndLea) {
  MiniProgram P;
  MemRef Address;
  Address.Base = P.A;
  Address.Index = P.B;
  Address.Scale = 2;
  Address.Disp = 3;
  MReg T = P.MF.newReg();
  P.Block->append(
      {MOpcode::Lea, CondCode::E, MOperand::reg(T), MOperand::mem(Address),
       {}});
  P.ret(MOperand::reg(T));
  // 0x10 + 2*0x04 + 3 = 0x1B.
  EXPECT_EQ(P.run(0x10, 0x04).ReturnValues[0].zextValue(), 0x1Bu);

  MiniProgram Q;
  MemRef Slot;
  Slot.Base = Q.A;
  Q.Block->append({MOpcode::Mov, CondCode::E, MOperand::mem(Slot),
                   MOperand::reg(Q.B), {}});
  MReg U = Q.MF.newReg();
  Q.Block->append({MOpcode::Mov, CondCode::E, MOperand::reg(U),
                   MOperand::mem(Slot), {}});
  Q.ret(MOperand::reg(U));
  MachineRunResult R = Q.run(0x20, 0x5A);
  EXPECT_EQ(R.ReturnValues[0].zextValue(), 0x5Au);
  EXPECT_EQ(R.Memory.peekByte(0x20), 0x5Au);
}

TEST(Emulator, ReadModifyWrite) {
  MiniProgram P;
  MemRef Slot;
  Slot.Base = P.A;
  MOperand Mem = MOperand::mem(Slot);
  P.Block->append({MOpcode::Add, CondCode::E, Mem, Mem, MOperand::reg(P.B)});
  P.ret(MOperand::imm(BitValue(8, 0)));
  MemoryState Memory;
  Memory.storeByte(0x30, 10);
  MachineRunResult R = P.run(0x30, 7, Memory);
  EXPECT_EQ(R.Memory.peekByte(0x30), 17u);
}

TEST(Emulator, IncDecPreserveCarry) {
  // cmp sets CF; inc must preserve it so a later jb still works.
  MiniProgram P;
  P.Block->append({MOpcode::Cmp, CondCode::E, {}, MOperand::reg(P.A),
                   MOperand::reg(P.B)});
  MReg T = P.MF.newReg();
  P.Block->append(
      {MOpcode::Inc, CondCode::E, MOperand::reg(T), MOperand::reg(P.A), {}});
  MReg U = P.MF.newReg();
  P.Block->append({MOpcode::Setcc, CondCode::B, MOperand::reg(U), {}, {}});
  P.ret(MOperand::reg(U));
  EXPECT_EQ(P.run(1, 2).ReturnValues[0].zextValue(), 1u);
  EXPECT_EQ(P.run(2, 1).ReturnValues[0].zextValue(), 0u);
}

TEST(Emulator, ShiftsMaskCount) {
  MiniProgram P;
  MReg T = P.MF.newReg();
  P.Block->append({MOpcode::Shl, CondCode::E, MOperand::reg(T),
                   MOperand::reg(P.A), MOperand::reg(P.B)});
  P.ret(MOperand::reg(T));
  // Count 9 masks to 1 at width 8.
  EXPECT_EQ(P.run(3, 9).ReturnValues[0].zextValue(), 6u);
}

TEST(Emulator, RotatesAndBmi) {
  MiniProgram P;
  MReg T = P.MF.newReg();
  P.Block->append({MOpcode::Rol, CondCode::E, MOperand::reg(T),
                   MOperand::reg(P.A), MOperand::imm(BitValue(8, 1))});
  MReg U = P.MF.newReg();
  P.Block->append(
      {MOpcode::Blsr, CondCode::E, MOperand::reg(U), MOperand::reg(T), {}});
  P.ret(MOperand::reg(U));
  // rol(0x81, 1) = 0x03; blsr(0x03) = 0x02.
  EXPECT_EQ(P.run(0x81, 0).ReturnValues[0].zextValue(), 0x02u);
}

TEST(Emulator, CmovBothWays) {
  for (uint64_t AV : {1u, 5u}) {
    MiniProgram P;
    P.Block->append({MOpcode::Cmp, CondCode::E, {}, MOperand::reg(P.A),
                     MOperand::imm(BitValue(8, 3))});
    MReg T = P.MF.newReg();
    P.Block->append({MOpcode::Cmov, CondCode::L, MOperand::reg(T),
                     MOperand::imm(BitValue(8, 100)),
                     MOperand::imm(BitValue(8, 200))});
    P.ret(MOperand::reg(T));
    EXPECT_EQ(P.run(AV, 0).ReturnValues[0].zextValue(),
              AV < 3 ? 100u : 200u);
  }
}

TEST(Emulator, CostsRewardFolding) {
  // A folded load (mem source operand) must cost less than separate
  // load + op; a RMW must cost less than load + op + store.
  MachineInstr Load{MOpcode::Mov, CondCode::E, MOperand::reg(1),
                    MOperand::mem(MemRef{}), {}};
  MachineInstr Op{MOpcode::Add, CondCode::E, MOperand::reg(2),
                  MOperand::reg(0), MOperand::reg(1)};
  MachineInstr Folded{MOpcode::Add, CondCode::E, MOperand::reg(2),
                      MOperand::reg(0), MOperand::mem(MemRef{})};
  EXPECT_LT(instructionCost(Folded),
            instructionCost(Load) + instructionCost(Op));

  MachineInstr Store{MOpcode::Mov, CondCode::E, MOperand::mem(MemRef{}),
                     MOperand::reg(2), {}};
  MachineInstr Rmw{MOpcode::Add, CondCode::E, MOperand::mem(MemRef{}),
                   MOperand::mem(MemRef{}), MOperand::reg(0)};
  EXPECT_LT(instructionCost(Rmw), instructionCost(Load) +
                                      instructionCost(Op) +
                                      instructionCost(Store));
}

TEST(Emulator, StepLimit) {
  // Jumps count toward the instruction budget, so even an empty
  // spinning block terminates with StepLimitHit.
  MachineFunction MF("spin", 8);
  MachineBlock *Block = MF.createBlock("entry");
  Block->terminator().TermKind = MTerminator::Kind::Jmp;
  Block->terminator().Then = Block;
  MachineRunResult R =
      runMachineFunction(MF, {}, MemoryState(), /*MaxInstructions=*/100);
  EXPECT_TRUE(R.StepLimitHit);
}

TEST(MachinePasses, RemovesDeadCode) {
  MiniProgram P;
  MReg Dead = P.MF.newReg();
  P.Block->append({MOpcode::Shl, CondCode::E, MOperand::reg(Dead),
                   MOperand::reg(P.B), MOperand::imm(BitValue(8, 2))});
  MReg T = P.MF.newReg();
  P.Block->append({MOpcode::Add, CondCode::E, MOperand::reg(T),
                   MOperand::reg(P.A), MOperand::reg(P.B)});
  P.ret(MOperand::reg(T));
  EXPECT_EQ(removeDeadInstructions(P.MF), 1u);
  EXPECT_EQ(P.MF.numInstructions(), 1u);
  EXPECT_EQ(P.run(4, 5).ReturnValues[0].zextValue(), 9u);
}

TEST(MachinePasses, KeepsFlagSettersForConsumers) {
  MiniProgram P;
  // The cmp's register result... cmp has none; but an add whose result
  // is dead still feeds the setcc through flags and must stay.
  MReg Dead = P.MF.newReg();
  P.Block->append({MOpcode::Sub, CondCode::E, MOperand::reg(Dead),
                   MOperand::reg(P.A), MOperand::reg(P.B)});
  MReg T = P.MF.newReg();
  P.Block->append({MOpcode::Setcc, CondCode::E, MOperand::reg(T), {}, {}});
  P.ret(MOperand::reg(T));
  EXPECT_EQ(removeDeadInstructions(P.MF), 0u);
  EXPECT_EQ(P.run(7, 7).ReturnValues[0].zextValue(), 1u);
  EXPECT_EQ(P.run(7, 8).ReturnValues[0].zextValue(), 0u);
}

TEST(MachinePasses, RemovesDeadCompare) {
  MiniProgram P;
  P.Block->append({MOpcode::Cmp, CondCode::E, {}, MOperand::reg(P.A),
                   MOperand::reg(P.B)});
  P.ret(MOperand::reg(P.A));
  EXPECT_EQ(removeDeadInstructions(P.MF), 1u);
}

TEST(MachinePasses, TransitiveDeadChains) {
  MiniProgram P;
  MReg T1 = P.MF.newReg(), T2 = P.MF.newReg();
  P.Block->append({MOpcode::Not, CondCode::E, MOperand::reg(T1),
                   MOperand::reg(P.A), {}});
  P.Block->append({MOpcode::Not, CondCode::E, MOperand::reg(T2),
                   MOperand::reg(T1), {}});
  P.ret(MOperand::reg(P.B));
  EXPECT_EQ(removeDeadInstructions(P.MF), 2u);
}

TEST(AddressingModes, SuffixesAndComponents) {
  EXPECT_EQ(AddressingMode({true, false, 1, false}).suffix(), "b");
  EXPECT_EQ(AddressingMode({true, false, 1, true}).suffix(), "bd");
  EXPECT_EQ(AddressingMode({true, true, 1, false}).suffix(), "bi");
  EXPECT_EQ(AddressingMode({true, true, 4, true}).suffix(), "bisd4");
  EXPECT_EQ(AddressingMode({true, true, 8, false}).numComponents(), 3u);
  EXPECT_EQ(AddressingMode::fullSet().size(), 10u);
}

TEST(AddressingModes, MemRefConstruction) {
  AddressingMode AM{true, true, 4, true};
  std::vector<MOperand> Bound = {MOperand::none(), MOperand::reg(7),
                                 MOperand::reg(9),
                                 MOperand::imm(BitValue(8, 0xFE))};
  MemRef Ref = AM.memRef(Bound, 1);
  EXPECT_EQ(*Ref.Base, 7u);
  EXPECT_EQ(*Ref.Index, 9u);
  EXPECT_EQ(Ref.Scale, 4u);
  EXPECT_EQ(Ref.Disp, -2); // Sign-extended displacement.
}

TEST(MachineIR, Printing) {
  MachineInstr Instr{MOpcode::Add, CondCode::E, MOperand::reg(2),
                     MOperand::reg(0), MOperand::imm(BitValue(8, 255))};
  EXPECT_EQ(printMachineInstr(Instr), "add %v0, $-1, %v2");
  MemRef Address;
  Address.Base = 1;
  Address.Index = 3;
  Address.Scale = 4;
  Address.Disp = 42;
  MachineInstr Lea{MOpcode::Lea, CondCode::E, MOperand::reg(5),
                   MOperand::mem(Address),
                   {}};
  EXPECT_EQ(printMachineInstr(Lea), "lea 42(%v1,%v3,4), %v5");
}

namespace {

/// f(mem, a, b) = (mem, a), or (mem, Op(a, b)): the reference for the
/// hand-built MiniPrograms below.
Function referenceFunction(std::optional<Opcode> Op = std::nullopt) {
  Function F("reference", 8);
  BasicBlock *Entry = F.createBlock(
      "entry", {Sort::memory(), Sort::value(8), Sort::value(8)});
  Graph &G = Entry->body();
  Entry->setReturn(
      {G.arg(0), Op ? G.createBinary(*Op, G.arg(1), G.arg(2)) : G.arg(1)});
  return F;
}

TranslationCheck check(const MiniProgram &P,
                       const Function &F = referenceFunction(),
                       uint64_t AV = 5, uint64_t BV = 9) {
  return checkTranslation(F, P.MF, {BitValue(8, AV), BitValue(8, BV)},
                          MemoryState());
}

} // namespace

TEST(TranslationCheck, AgreesAndReportsTheMachineRunsCost) {
  MiniProgram P;
  MReg T = P.MF.newReg();
  P.Block->append({MOpcode::Add, CondCode::E, MOperand::reg(T),
                   MOperand::reg(P.A), MOperand::reg(P.B)});
  P.ret(MOperand::reg(T));
  TranslationCheck Check = check(P, referenceFunction(Opcode::Add));
  EXPECT_EQ(Check.Verdict, TranslationVerdict::Agree) << Check.Difference;
  EXPECT_EQ(Check.InstructionCount, 1u);
  EXPECT_EQ(Check.Cycles, 2u); // The add and the return.
}

TEST(TranslationCheck, StoreToAnUntouchedAddressMismatchesUnlessZero) {
  // The reference's final memory never holds address 0x40, so only a
  // comparison over the machine's final memory too sees the store.
  for (uint64_t Value : {7u, 0u}) {
    MiniProgram P;
    MemRef Slot;
    Slot.Disp = 0x40;
    P.Block->append({MOpcode::Mov, CondCode::E, MOperand::mem(Slot),
                     MOperand::imm(BitValue(8, Value)), {}});
    P.ret(MOperand::reg(P.A));
    TranslationCheck Check = check(P);
    EXPECT_EQ(Check.Verdict, Value ? TranslationVerdict::Mismatch
                                   : TranslationVerdict::Agree);
    EXPECT_EQ(Check.Difference,
              Value ? "memory 64: machine 0x07, interpreter 0x00" : "");
  }
}

TEST(TranslationCheck, WrongReturnCountOrValueIsAMismatch) {
  MiniProgram Count, Value;
  Count.ret(MOperand::reg(Count.A));
  Count.Block->terminator().ReturnValues.push_back(MOperand::reg(Count.A));
  Value.ret(MOperand::reg(Value.B));
  for (const MiniProgram *P : {&Count, &Value})
    EXPECT_EQ(check(*P).Verdict, TranslationVerdict::Mismatch);
  EXPECT_EQ(check(Count).Difference,
            "return count: machine 2, interpreter 1");
  EXPECT_EQ(check(Value).Difference,
            "return 0: machine 0x09, interpreter 0x05");
}

TEST(TranslationCheck, MachineStepLimitIsTwoToTheTwentyFour) {
  MiniProgram P;
  P.Block->terminator().TermKind = MTerminator::Kind::Jmp;
  P.Block->terminator().Then = P.Block;
  TranslationCheck Check = check(P);
  EXPECT_EQ(Check.Verdict, TranslationVerdict::MachineStepLimit);
  EXPECT_EQ(Check.InstructionCount, (1u << 24) + 1);
}

TEST(TranslationCheck, FailedReferenceRunSkipsTheMachineRun) {
  MiniProgram P;
  P.ret(MOperand::reg(P.A));
  // A shift by 9 is undefined at width 8.
  EXPECT_EQ(check(P, referenceFunction(Opcode::Shl), 1, 9).Verdict,
            TranslationVerdict::ReferenceUndefined);

  // A loop whose body adds one constant 1024 times reaches 2^24 steps
  // in 2^14 iterations.
  Function Spin("spin", 8);
  BasicBlock *Entry = Spin.createBlock(
      "entry", {Sort::memory(), Sort::value(8), Sort::value(8)});
  BasicBlock *Loop =
      Spin.createBlock("loop", {Sort::memory(), Sort::value(8)});
  Entry->setJump(Loop, {Entry->body().arg(0), Entry->body().arg(1)});
  Graph &G = Loop->body();
  NodeRef One = G.createConst(BitValue(8, 1));
  NodeRef Value = G.arg(1);
  for (int I = 0; I < 1024; ++I)
    Value = G.createBinary(Opcode::Add, Value, One);
  Loop->setJump(Loop, {G.arg(0), Value});
  TranslationCheck Check = check(P, Spin);
  EXPECT_EQ(Check.Verdict, TranslationVerdict::ReferenceStepLimit);
  EXPECT_TRUE(Check.referenceFailed());
  EXPECT_EQ(Check.Cycles, 0u);
}
