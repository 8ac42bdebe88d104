//===- Selector.h - Instruction selector interface ---------------*- C++ -*-===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The common interface of the instruction selectors: the generated
/// prototype (isel/GeneratedSelector) driven by a synthesized rule
/// library, the hand-tuned baseline (isel/HandwrittenSelector), and
/// the deliberately incomplete reference selectors (refsel). All
/// lower a mini-Firm Function to a MachineFunction and report the
/// coverage statistics of paper Section 7.3.
///
//===----------------------------------------------------------------------===//

#ifndef SELGEN_ISEL_SELECTOR_H
#define SELGEN_ISEL_SELECTOR_H

#include "ir/Function.h"
#include "x86/MachineIR.h"

#include <memory>

namespace selgen {

/// Output of one instruction selection run.
struct SelectionResult {
  std::unique_ptr<MachineFunction> MF;
  /// Live IR operations in the source function.
  unsigned TotalOperations = 0;
  /// Operations translated by synthesized rules (the paper's coverage
  /// numerator; the handwritten selector reports 0 here).
  unsigned CoveredOperations = 0;
  /// Operations handled by fallback/handwritten lowering.
  unsigned FallbackOperations = 0;
  /// Wall time of the selection phase (the compile-time experiment).
  double SelectionSeconds = 0;
  /// Rule-driven selectors only (zero elsewhere): full structural
  /// match attempts, matcher work (pattern/subject node visits plus
  /// automaton state visits during candidate discovery), and shift
  /// preconditions discharged by the dataflow analysis.
  uint64_t RulesTried = 0;
  uint64_t NodesVisited = 0;
  uint64_t PrecondProved = 0;

  double coverage() const {
    return TotalOperations == 0
               ? 1.0
               : static_cast<double>(CoveredOperations) / TotalOperations;
  }
};

/// Abstract instruction selector.
class InstructionSelector {
public:
  virtual ~InstructionSelector() = default;

  /// Human-readable selector name for reports.
  virtual std::string name() const = 0;

  /// Lowers \p F (which must be well formed) to machine code.
  virtual SelectionResult select(const Function &F) = 0;
};

} // namespace selgen

#endif // SELGEN_ISEL_SELECTOR_H
