//===- Inputs.h - Seeded benchmark inputs ------------------------*- C++ -*-===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every input the benchmark hands to selgen, generated from the
/// --seed argument (and from fixed files under perfbench/data). The
/// program under test only ever sees these generated inputs; nothing
/// here reads the environment.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_INPUTS_H
#define PERFBENCH_INPUTS_H

#include "eval/Workloads.h"
#include "ir/Memory.h"
#include "pattern/PatternDatabase.h"
#include "support/Rng.h"

#include <array>
#include <string>
#include <vector>

namespace perfbench {

/// Data width of every library, goal and function the benchmark uses.
constexpr unsigned Width = 8;

/// Derives an independent generator for one input stream of a run, so
/// that changing how much one stage draws never shifts another's.
selgen::Rng streamRng(uint64_t Seed, uint64_t Stream);

/// The compile stage's function set, in seeded order: \p Copies of
/// each cint2000 profile, copy C with a seeded loop trip count from the
/// C-th of \p Copies equal slices of [40, 120). Stratifying the trip
/// counts keeps the set's total work steady from seed to seed.
/// Operation weights and body sizes stay those of the cint2000
/// profiles: other mixes (e.g. 175.vpr with BodyOps 24) make the
/// rule-driven selector miscompile or abort, and a benchmark input
/// must not fail.
std::vector<selgen::WorkloadProfile> seededProfiles(selgen::Rng &Random,
                                                    unsigned Copies);

/// One seeded input of a function: three W-bit arguments and the
/// initial contents of the low 256 bytes of memory.
struct FunctionInput {
  std::vector<selgen::BitValue> Args;
  selgen::MemoryState Memory;
};
std::vector<FunctionInput> functionInputs(selgen::Rng &Random,
                                          unsigned Count);

/// The shipped rule library grown to \p TargetRules with
/// distinct-constant and operand-swapped variants of its rules (the
/// paper-scale library, without hours of synthesis). Deterministic:
/// a fixed generator seed, not the run seed, so every run serves the
/// same image.
selgen::PatternDatabase inflateLibrary(const selgen::PatternDatabase &Base,
                                       size_t TargetRules);

/// A synthesis goal drawn for the synth stage.
struct SynthGoal {
  std::string Name;
  bool TotalMode = false;
  unsigned Tier = 0; ///< 0 to 2: from fastest to slowest to synthesize.
};

/// The pool of w8 goals that finish well inside their per-goal budget,
/// so a synthesized library never depends on timing.
const std::vector<SynthGoal> &synthGoalPool();

/// A seeded draw of PerTier[T] goals from tier T of the pool, in
/// seeded order. Drawing a fixed number from each tier keeps synthesis
/// time steady from seed to seed.
std::vector<SynthGoal> drawGoals(selgen::Rng &Random,
                                 const std::array<unsigned, 3> &PerTier);

} // namespace perfbench

#endif // PERFBENCH_INPUTS_H
