//===- CostModel.h - Per-rule cost vectors for selection ---------*- C++ -*-===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The cost subsystem: every prepared rule carries a small cost vector
/// derived from its goal's emission recipe. Under the latency and size
/// models the selection engine's tiling DP (src/isel/SelectionEngine.h)
/// minimizes that component over a whole covering instead of taking
/// the first match.
///
/// The vector has three components, one per shipped cost model:
///
/// * Instructions — how many machine instructions the recipe emits,
///   the component the "unit" model reads. Selection under the unit
///   model is first match in library priority order, without the DP.
/// * Latency — the emulator's cycle estimate (x86/Emulator.h
///   instructionCost), summed over the recipe.
/// * Size — an approximate x86 encoding size in bytes, summed over the
///   recipe.
///
/// Costs are derived at prepare time by probing the recipe: Emit is run
/// once against a scratch MachineFunction with role-correct dummy
/// operands. Recipes only depend on argument roles (registers for
/// Reg/Addr, an immediate for Imm, nothing for Mem), so the probe is
/// exact, cheap, and deterministic. Costs live only in the prepared
/// library: `.matb` automaton images hold patterns, so a change to the
/// derivation needs no new image.
///
//===----------------------------------------------------------------------===//

#ifndef SELGEN_COST_COSTMODEL_H
#define SELGEN_COST_COSTMODEL_H

#include "x86/MachineIR.h"

#include <cstdint>
#include <optional>
#include <string>

namespace selgen {

struct GoalInstruction;

/// Which cost-vector component selection minimizes.
enum class CostKind {
  Unit,    ///< Emitted-instruction count; selection is first-match.
  Latency, ///< Approximate cycles (Emulator::instructionCost).
  Size,    ///< Approximate encoded bytes.
};

/// The per-rule cost vector.
struct RuleCost {
  uint32_t Instructions = 0;
  uint32_t Latency = 0;
  uint32_t Size = 0;

  uint32_t get(CostKind Kind) const {
    switch (Kind) {
    case CostKind::Unit:
      return Instructions;
    case CostKind::Latency:
      return Latency;
    case CostKind::Size:
      return Size;
    }
    return Instructions;
  }

  bool operator==(const RuleCost &Other) const {
    return Instructions == Other.Instructions && Latency == Other.Latency &&
           Size == Other.Size;
  }
  bool operator!=(const RuleCost &Other) const { return !(*this == Other); }
};

/// CLI name of a cost kind: "unit", "latency", "size".
const char *costKindName(CostKind Kind);

/// Parses a cost-kind name; nullopt on anything unknown.
std::optional<CostKind> parseCostKind(const std::string &Name);

/// Approximate x86 encoding size of one instruction, in bytes. Only
/// relative order matters for selection; the estimate is deterministic
/// and monotone in operand complexity (immediates and memory operands
/// cost extra bytes).
uint32_t encodedInstrSize(const MachineInstr &Instr);

/// Derives the cost vector of \p Goal's emission recipe at width
/// \p Width by probing Emit with role-correct dummy operands.
RuleCost deriveRuleCost(const GoalInstruction &Goal, unsigned Width);

/// Same, inferring the data width from the goal's spec (first value
/// sort among its arguments, then results).
RuleCost deriveRuleCost(const GoalInstruction &Goal);

/// Sum of per-instruction costs of \p MF under \p Kind — the static
/// cost of an emitted function (bench_10's tiling metric).
uint64_t machineStaticCost(const MachineFunction &MF, CostKind Kind);

} // namespace selgen

#endif // SELGEN_COST_COSTMODEL_H
