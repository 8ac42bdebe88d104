//===- BenchCommon.h - Shared benchmark-harness plumbing ---------*- C++ -*-===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared plumbing for the benchmark binaries in bench/. Each binary
/// regenerates one of the paper's tables or in-text experiments (see
/// DESIGN.md's per-experiment index and EXPERIMENTS.md for the
/// measured results).
///
/// Scale: the paper synthesizes 32-bit x86 rules for ~100 hours on
/// eight cores. The benchmarks default to 8-bit data width and reduced
/// goal subsets with per-goal time budgets so every binary finishes in
/// minutes; set SELGEN_BENCH_SCALE=full for wider goal coverage (and
/// correspondingly longer runs). The synthesis engine itself is
/// width-agnostic and scale-agnostic.
///
/// Synthesized rule libraries are cached as rule-library-*.dat in the
/// working directory, mirroring the artifact's rule-library.dat, so
/// later benchmarks (and reruns) reuse earlier synthesis work.
///
//===----------------------------------------------------------------------===//

#ifndef SELGEN_BENCH_BENCHCOMMON_H
#define SELGEN_BENCH_BENCHCOMMON_H

#include "pattern/LibraryBuilder.h"
#include "support/StringUtils.h"
#include "support/Timer.h"
#include "x86/Goals.h"

#include <string>
#include <vector>

namespace selgen::bench {

/// The benchmark data width: SELGEN_BENCH_WIDTH (8, 16, or 32;
/// default 8). Read once at startup; only consumed from main(), so
/// the dynamic initializer is safe.
extern const unsigned Width;

/// True if SELGEN_BENCH_SCALE=full.
bool fullScale();

/// The goal subsets used by the benchmarks, mirroring the paper's
/// setups: "basic" is the Basic group; "full" adds load/store,
/// unary, binary, flag, and BMI variants (bounded by default scale).
struct BenchGoals {
  GoalLibrary Goals;
  /// Per-goal synthesis policies (goal name -> total-pattern mode).
  std::vector<std::string> TotalModeGoals;
};

/// Builds the benchmark goal set. \p Kind is "basic" or "full".
BenchGoals makeBenchGoals(const std::string &Kind);

/// Loads the cached rule library for \p Kind if present, otherwise
/// synthesizes it (reporting Table 2 style progress to stdout) and
/// saves the cache. The report (if non-null) receives per-group rows
/// from the synthesis; cached loads leave it empty.
PatternDatabase loadOrSynthesizeLibrary(SmtContext &Smt,
                                        const std::string &Kind,
                                        const GoalLibrary &Goals,
                                        LibraryBuildReport *Report = nullptr,
                                        bool *WasCached = nullptr);

/// Cache file path for a library kind.
std::string libraryCachePath(const std::string &Kind);

/// Inflates \p Base to \p TargetSize rules, the paper's library scale,
/// without hours of synthesis. Each pass over Base re-draws every
/// constant and swaps the operands of two-operand nodes at random
/// (seed 0xBEEF); the variants are structurally valid rules that
/// essentially never match. Stops early if variants keep colliding.
PatternDatabase inflateLibrary(const PatternDatabase &Base,
                               size_t TargetSize);

/// Prints a header line for one benchmark binary.
void printBenchHeader(const std::string &Title, const std::string &PaperRef);

} // namespace selgen::bench

#endif // SELGEN_BENCH_BENCHCOMMON_H
