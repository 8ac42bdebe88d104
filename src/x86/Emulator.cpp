//===- Emulator.cpp - x86-like machine code emulator --------------------------===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//

#include "x86/Emulator.h"

#include "ir/Function.h"
#include "support/Error.h"

#include <algorithm>
#include <optional>
#include <utility>

using namespace selgen;

namespace {

/// EFLAGS subset.
struct Flags {
  bool ZF = false;
  bool SF = false;
  bool CF = false;
  bool OF = false;
};

/// Machine state during emulation.
class Machine {
public:
  Machine(const MachineFunction &MF, const std::map<MReg, BitValue> &InitialRegs,
          const MemoryState &InitialMemory, uint64_t MaxInstructions)
      : MF(MF), Regs(InitialRegs), MaxInstructions(MaxInstructions) {
    Result.Memory = InitialMemory;
  }

  MachineRunResult run() {
    const MachineBlock *Current = MF.entry();
    while (true) {
      for (const MachineInstr &Instr : Current->instructions()) {
        if (++Result.InstructionCount > MaxInstructions) {
          Result.StepLimitHit = true;
          return std::move(Result);
        }
        Result.Cycles += instructionCost(Instr);
        execute(Instr);
      }
      const MTerminator &Term = Current->terminator();
      switch (Term.TermKind) {
      case MTerminator::Kind::Ret:
        Result.Cycles += 1;
        for (const MOperand &Value : Term.ReturnValues)
          Result.ReturnValues.push_back(evalOperand(Value));
        return std::move(Result);
      case MTerminator::Kind::Jmp:
        if (++Result.InstructionCount > MaxInstructions) {
          Result.StepLimitHit = true;
          return std::move(Result);
        }
        Result.Cycles += 1 + Term.ThenMoves.size();
        applyMoves(Term.ThenMoves);
        Current = Term.Then;
        break;
      case MTerminator::Kind::Jcc: {
        if (++Result.InstructionCount > MaxInstructions) {
          Result.StepLimitHit = true;
          return std::move(Result);
        }
        bool Taken = evalCondCode(Term.CC);
        const auto &Moves = Taken ? Term.ThenMoves : Term.ElseMoves;
        Result.Cycles += 2 + Moves.size();
        applyMoves(Moves);
        Current = Taken ? Term.Then : Term.Else;
        break;
      }
      }
    }
  }

private:
  const MachineFunction &MF;
  std::map<MReg, BitValue> Regs;
  Flags F;
  uint64_t MaxInstructions;
  MachineRunResult Result;

  unsigned width() const { return MF.width(); }

  BitValue regValue(MReg R) const {
    auto It = Regs.find(R);
    assert(It != Regs.end() && "read of undefined virtual register");
    if (It == Regs.end())
      return BitValue::zero(width());
    return It->second;
  }

  uint64_t effectiveAddress(const MemRef &M) const {
    BitValue Address = BitValue::zero(width());
    if (M.Base)
      Address = Address.add(regValue(*M.Base));
    if (M.Index)
      Address = Address.add(
          regValue(*M.Index).mul(BitValue(width(), M.Scale)));
    Address = Address.add(
        BitValue(width(), static_cast<uint64_t>(M.Disp)));
    return Address.zextValue();
  }

  BitValue evalOperand(const MOperand &Op) {
    switch (Op.K) {
    case MOperand::Kind::Reg:
      return regValue(Op.R);
    case MOperand::Kind::Imm:
      assert(Op.Imm.width() == width() && "immediate width mismatch");
      return Op.Imm;
    case MOperand::Kind::Mem:
      return Result.Memory.loadValue(effectiveAddress(Op.M), width() / 8);
    case MOperand::Kind::None:
      break;
    }
    SELGEN_UNREACHABLE("bad source operand");
  }

  void writeDest(const MOperand &Dst, const BitValue &Value) {
    switch (Dst.K) {
    case MOperand::Kind::Reg:
      Regs[Dst.R] = Value;
      return;
    case MOperand::Kind::Mem:
      Result.Memory.storeValue(effectiveAddress(Dst.M), Value);
      return;
    default:
      SELGEN_UNREACHABLE("bad destination operand");
    }
  }

  void applyMoves(const std::vector<std::pair<MReg, MOperand>> &Moves) {
    // Parallel semantics: read all sources before writing.
    std::vector<BitValue> Values;
    Values.reserve(Moves.size());
    for (const auto &[Dst, Src] : Moves)
      Values.push_back(evalOperand(Src));
    for (unsigned I = 0; I < Moves.size(); ++I)
      Regs[Moves[I].first] = Values[I];
  }

  void setLogicFlags(const BitValue &Value) {
    F.ZF = Value.isZero();
    F.SF = Value.isNegative();
    F.CF = false;
    F.OF = false;
  }

  void setAddFlags(const BitValue &A, const BitValue &B,
                   const BitValue &Sum) {
    F.ZF = Sum.isZero();
    F.SF = Sum.isNegative();
    F.CF = Sum.ult(A);
    F.OF = (A.isNegative() == B.isNegative()) &&
           (Sum.isNegative() != A.isNegative());
  }

  void setSubFlags(const BitValue &A, const BitValue &B,
                   const BitValue &Difference) {
    F.ZF = Difference.isZero();
    F.SF = Difference.isNegative();
    F.CF = A.ult(B);
    F.OF = (A.isNegative() != B.isNegative()) &&
           (Difference.isNegative() != A.isNegative());
  }

  bool evalCondCode(CondCode CC) const {
    switch (CC) {
    case CondCode::E:
      return F.ZF;
    case CondCode::NE:
      return !F.ZF;
    case CondCode::B:
      return F.CF;
    case CondCode::BE:
      return F.CF || F.ZF;
    case CondCode::A:
      return !F.CF && !F.ZF;
    case CondCode::AE:
      return !F.CF;
    case CondCode::L:
      return F.SF != F.OF;
    case CondCode::LE:
      return F.ZF || (F.SF != F.OF);
    case CondCode::G:
      return !F.ZF && (F.SF == F.OF);
    case CondCode::GE:
      return F.SF == F.OF;
    case CondCode::S:
      return F.SF;
    case CondCode::NS:
      return !F.SF;
    }
    SELGEN_UNREACHABLE("bad condition code");
  }

  void execute(const MachineInstr &Instr) {
    switch (Instr.Op) {
    case MOpcode::Mov:
      writeDest(Instr.Dst, evalOperand(Instr.Src1));
      return;
    case MOpcode::Lea: {
      assert(Instr.Src1.isMem() && "lea needs a memory operand");
      writeDest(Instr.Dst,
                BitValue(width(), effectiveAddress(Instr.Src1.M)));
      return;
    }
    case MOpcode::Neg: {
      BitValue Src = evalOperand(Instr.Src1);
      BitValue Value = Src.neg();
      writeDest(Instr.Dst, Value);
      F.ZF = Value.isZero();
      F.SF = Value.isNegative();
      F.CF = !Src.isZero();
      F.OF = Src == BitValue::signBit(width());
      return;
    }
    case MOpcode::Not:
      // x86 not does not modify flags.
      writeDest(Instr.Dst, evalOperand(Instr.Src1).bitNot());
      return;
    case MOpcode::Inc: {
      BitValue Src = evalOperand(Instr.Src1);
      BitValue One(width(), 1);
      BitValue Value = Src.add(One);
      writeDest(Instr.Dst, Value);
      bool SavedCF = F.CF; // inc preserves CF.
      setAddFlags(Src, One, Value);
      F.CF = SavedCF;
      return;
    }
    case MOpcode::Dec: {
      BitValue Src = evalOperand(Instr.Src1);
      BitValue One(width(), 1);
      BitValue Value = Src.sub(One);
      writeDest(Instr.Dst, Value);
      bool SavedCF = F.CF; // dec preserves CF.
      setSubFlags(Src, One, Value);
      F.CF = SavedCF;
      return;
    }
    case MOpcode::Add: {
      BitValue A = evalOperand(Instr.Src1), B = evalOperand(Instr.Src2);
      BitValue Value = A.add(B);
      writeDest(Instr.Dst, Value);
      setAddFlags(A, B, Value);
      return;
    }
    case MOpcode::Sub: {
      BitValue A = evalOperand(Instr.Src1), B = evalOperand(Instr.Src2);
      BitValue Value = A.sub(B);
      writeDest(Instr.Dst, Value);
      setSubFlags(A, B, Value);
      return;
    }
    case MOpcode::Imul: {
      BitValue Value =
          evalOperand(Instr.Src1).mul(evalOperand(Instr.Src2));
      writeDest(Instr.Dst, Value);
      return;
    }
    case MOpcode::And:
    case MOpcode::Or:
    case MOpcode::Xor: {
      BitValue A = evalOperand(Instr.Src1), B = evalOperand(Instr.Src2);
      BitValue Value = Instr.Op == MOpcode::And  ? A.bitAnd(B)
                       : Instr.Op == MOpcode::Or ? A.bitOr(B)
                                                 : A.bitXor(B);
      writeDest(Instr.Dst, Value);
      setLogicFlags(Value);
      return;
    }
    case MOpcode::Shl:
    case MOpcode::Shr:
    case MOpcode::Sar:
    case MOpcode::Rol:
    case MOpcode::Ror: {
      BitValue A = evalOperand(Instr.Src1);
      // x86 masks the shift count to the operand width.
      unsigned Count = static_cast<unsigned>(
          evalOperand(Instr.Src2).zextValue() % width());
      BitValue Value = A;
      switch (Instr.Op) {
      case MOpcode::Shl:
        Value = A.shl(Count);
        break;
      case MOpcode::Shr:
        Value = A.lshr(Count);
        break;
      case MOpcode::Sar:
        Value = A.ashr(Count);
        break;
      case MOpcode::Rol:
        Value = A.rotl(Count);
        break;
      case MOpcode::Ror:
        Value = A.rotr(Count);
        break;
      default:
        SELGEN_UNREACHABLE("not a shift");
      }
      writeDest(Instr.Dst, Value);
      if (Count != 0) {
        F.ZF = Value.isZero();
        F.SF = Value.isNegative();
      }
      return;
    }
    case MOpcode::Andn: {
      BitValue Value =
          evalOperand(Instr.Src1).bitNot().bitAnd(evalOperand(Instr.Src2));
      writeDest(Instr.Dst, Value);
      setLogicFlags(Value);
      return;
    }
    case MOpcode::Blsr: {
      BitValue A = evalOperand(Instr.Src1);
      BitValue Value = A.bitAnd(A.sub(BitValue(width(), 1)));
      writeDest(Instr.Dst, Value);
      setLogicFlags(Value);
      return;
    }
    case MOpcode::Blsi: {
      BitValue A = evalOperand(Instr.Src1);
      BitValue Value = A.bitAnd(A.neg());
      writeDest(Instr.Dst, Value);
      setLogicFlags(Value);
      return;
    }
    case MOpcode::Blsmsk: {
      BitValue A = evalOperand(Instr.Src1);
      BitValue Value = A.bitXor(A.sub(BitValue(width(), 1)));
      writeDest(Instr.Dst, Value);
      setLogicFlags(Value);
      return;
    }
    case MOpcode::Cmp: {
      BitValue A = evalOperand(Instr.Src1), B = evalOperand(Instr.Src2);
      setSubFlags(A, B, A.sub(B));
      return;
    }
    case MOpcode::Test: {
      BitValue Value =
          evalOperand(Instr.Src1).bitAnd(evalOperand(Instr.Src2));
      setLogicFlags(Value);
      return;
    }
    case MOpcode::Cmov:
      writeDest(Instr.Dst, evalCondCode(Instr.CC)
                               ? evalOperand(Instr.Src1)
                               : evalOperand(Instr.Src2));
      return;
    case MOpcode::Setcc:
      writeDest(Instr.Dst,
                BitValue(width(), evalCondCode(Instr.CC) ? 1 : 0));
      return;
    }
    SELGEN_UNREACHABLE("bad machine opcode");
  }
};

} // namespace

uint64_t selgen::instructionCost(const MachineInstr &Instr) {
  uint64_t Cost = 1;
  switch (Instr.Op) {
  case MOpcode::Mov:
  case MOpcode::Lea:
  case MOpcode::Neg:
  case MOpcode::Not:
  case MOpcode::Inc:
  case MOpcode::Dec:
  case MOpcode::Add:
  case MOpcode::Sub:
  case MOpcode::And:
  case MOpcode::Or:
  case MOpcode::Xor:
  case MOpcode::Shl:
  case MOpcode::Shr:
  case MOpcode::Sar:
  case MOpcode::Rol:
  case MOpcode::Ror:
  case MOpcode::Andn:
  case MOpcode::Blsr:
  case MOpcode::Blsi:
  case MOpcode::Blsmsk:
  case MOpcode::Cmp:
  case MOpcode::Test:
    Cost = 1;
    break;
  case MOpcode::Imul:
    Cost = 3;
    break;
  case MOpcode::Cmov:
    Cost = 1;
    break;
  case MOpcode::Setcc:
    Cost = 2;
    break;
  }
  // Memory operands cost extra: a load on a source, a load+store on a
  // read-modify-write destination (Lea only computes the address).
  if (Instr.Op != MOpcode::Lea) {
    if (Instr.Src1.isMem() || Instr.Src2.isMem())
      Cost += 3;
    if (Instr.Dst.isMem())
      Cost += Instr.Op == MOpcode::Mov ? 3 : 4;
  }
  return Cost;
}

MachineRunResult
selgen::runMachineFunction(const MachineFunction &MF,
                           const std::map<MReg, BitValue> &InitialRegs,
                           const MemoryState &InitialMemory,
                           uint64_t MaxInstructions) {
  return Machine(MF, InitialRegs, InitialMemory, MaxInstructions).run();
}

TranslationCheck selgen::checkTranslation(const Function &F,
                                          const MachineFunction &MF,
                                          const std::vector<BitValue> &Args,
                                          const MemoryState &Memory) {
  constexpr uint64_t MaxSteps = 1u << 24;
  TranslationCheck Check;
  auto Fail = [&Check](TranslationVerdict Verdict, std::string Difference) {
    Check.Verdict = Verdict;
    Check.Difference = std::move(Difference);
    return Check;
  };
  auto Mismatch = [&Fail](const std::string &Where, const std::string &Got,
                          const std::string &Expected) {
    return Fail(TranslationVerdict::Mismatch,
                Where + ": machine " + Got + ", interpreter " + Expected);
  };

  FunctionResult Reference = runFunction(F, Args, Memory, MaxSteps);
  if (Reference.Undefined)
    return Fail(TranslationVerdict::ReferenceUndefined,
                "interpreter run is undefined");
  if (Reference.StepLimitHit)
    return Fail(TranslationVerdict::ReferenceStepLimit,
                "interpreter run hit the step limit");

  const std::vector<MReg> &ArgRegs = MF.entry()->ArgRegs;
  if (ArgRegs.size() != Args.size())
    reportFatalError("checkTranslation: " + std::to_string(Args.size()) +
                     " arguments for " + std::to_string(ArgRegs.size()) +
                     " argument registers");
  std::map<MReg, BitValue> Regs;
  for (size_t I = 0; I < ArgRegs.size(); ++I)
    Regs[ArgRegs[I]] = Args[I];
  MachineRunResult Machine = runMachineFunction(MF, Regs, Memory, MaxSteps);
  Check.Cycles = Machine.Cycles;
  Check.InstructionCount = Machine.InstructionCount;
  if (Machine.StepLimitHit)
    return Fail(TranslationVerdict::MachineStepLimit,
                "machine run hit the step limit");

  const std::vector<BitValue> &Got = Machine.ReturnValues;
  const std::vector<BitValue> &Expected = Reference.ReturnValues;
  if (Got.size() != Expected.size())
    return Mismatch("return count", std::to_string(Got.size()),
                    std::to_string(Expected.size()));
  for (size_t I = 0; I < Expected.size(); ++I)
    if (Got[I] != Expected[I])
      return Mismatch("return " + std::to_string(I), Got[I].toHexString(),
                      Expected[I].toHexString());

  // Each map is sorted and every differing address is held by at least
  // one of them, so the lower of their first differences comes first.
  const MemoryState &Final = *Reference.FinalMemory;
  std::optional<uint64_t> First;
  for (const MemoryState *Holder : {&Final, &std::as_const(Machine.Memory)})
    for (const auto &Entry : Holder->bytes())
      if (Final.peekByte(Entry.first) != Machine.Memory.peekByte(Entry.first)) {
        First = std::min(Entry.first, First.value_or(Entry.first));
        break;
      }
  if (First)
    return Mismatch("memory " + std::to_string(*First),
                    BitValue(8, Machine.Memory.peekByte(*First)).toHexString(),
                    BitValue(8, Final.peekByte(*First)).toHexString());
  return Check;
}
