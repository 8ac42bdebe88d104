//===- Emulator.h - x86-like machine code emulator ---------------*- C++ -*-===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes MachineFunctions. This emulator substitutes for the
/// paper's hardware testbed: the evaluation harness measures dynamic,
/// cost-weighted instruction counts ("cycles") instead of wall-clock
/// seconds. The per-opcode cost table is a coarse micro-op model whose
/// purpose is to make better instruction selection (fewer, cheaper
/// instructions; folded addressing modes) visible in the totals.
///
//===----------------------------------------------------------------------===//

#ifndef SELGEN_X86_EMULATOR_H
#define SELGEN_X86_EMULATOR_H

#include "ir/Memory.h"
#include "x86/MachineIR.h"

#include <map>
#include <string>
#include <vector>

namespace selgen {

class Function;

/// Result of running a machine function.
struct MachineRunResult {
  bool StepLimitHit = false;
  std::vector<BitValue> ReturnValues;
  MemoryState Memory;
  uint64_t InstructionCount = 0; ///< Dynamic instructions executed.
  uint64_t Cycles = 0;           ///< Cost-weighted dynamic count.
};

/// Runs \p MF. \p InitialRegs seeds virtual registers (the entry
/// block's ArgRegs are expected to be covered). \p MaxInstructions
/// bounds execution (loops!).
MachineRunResult
runMachineFunction(const MachineFunction &MF,
                   const std::map<MReg, BitValue> &InitialRegs,
                   const MemoryState &InitialMemory,
                   uint64_t MaxInstructions = 1u << 22);

/// Outcome of one translation check.
enum class TranslationVerdict {
  Agree,              ///< Same return values and same final memory.
  Mismatch,           ///< Some return value or memory byte differs.
  ReferenceUndefined, ///< The interpreter run hit undefined behaviour.
  ReferenceStepLimit, ///< The interpreter run ran out of steps.
  MachineStepLimit,   ///< The machine run ran out of instructions.
};

/// Result of checkTranslation. Cycles and InstructionCount are those of
/// the machine run; they are zero when the reference run failed, since
/// the machine code is not run then.
struct TranslationCheck {
  TranslationVerdict Verdict = TranslationVerdict::Agree;
  uint64_t Cycles = 0;
  uint64_t InstructionCount = 0;
  std::string Difference; ///< The first difference; empty on Agree.

  bool agrees() const { return Verdict == TranslationVerdict::Agree; }
  /// True when the interpreter run gives nothing to compare against.
  /// Callers choose whether that counts as a failure.
  bool referenceFailed() const {
    return Verdict == TranslationVerdict::ReferenceUndefined ||
           Verdict == TranslationVerdict::ReferenceStepLimit;
  }
};

/// Checks that \p MF, selected from \p F, computes what the IR
/// interpreter computes for \p F on one input: \p Args bound in order
/// to the entry block's ArgRegs, \p Memory as both runs' initial
/// memory. Both runs get 2^24 steps. Every return value and their
/// count must agree, and so must every memory address that either
/// final memory holds (a byte never written reads as zero).
TranslationCheck checkTranslation(const Function &F,
                                  const MachineFunction &MF,
                                  const std::vector<BitValue> &Args,
                                  const MemoryState &Memory);

/// The cost (in model cycles) of one instruction, including its
/// operand kinds (memory operands cost extra). Exposed so benches can
/// report static cost sums as well.
uint64_t instructionCost(const MachineInstr &Instr);

} // namespace selgen

#endif // SELGEN_X86_EMULATOR_H
