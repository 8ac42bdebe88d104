//===- ParallelBuilder.h - Work-stealing library synthesis -------*- C++ -*-===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parallel rule-library synthesis (paper Section 5.5: "Either we can
/// run the synthesizer in parallel on multiple machines, or we can
/// first synthesize patterns for a basic set of instructions and
/// expand on these as needed"; the paper's timings are from an 8-core
/// machine).
///
/// Scheduling: a work-stealing deque scheduler. Each worker owns a
/// deque of tasks (goal start-ups and enumeration chunks) and holds at
/// most one live Z3 context — contexts are confined to a thread, but
/// independent contexts are safe. Every in-process chunk replaces the
/// worker's context with a fresh one (chunk outcomes must not depend
/// on solver history); goal start-ups reuse whichever context the
/// worker holds. A build thus never holds more live contexts than it
/// has workers, and a bare context costs ~16 MB. Owners pop from the
/// back of their deque; idle workers steal from the front of a
/// victim's deque. Crucially, the dominant long-pole goals (large
/// multicombination enumerations, the tail that serializes a static
/// per-goal dispatch) are split into rank sub-ranges via
/// Synthesizer::synthesizeRange, so stragglers are shared among
/// workers instead of pinning one. Each chunk yields a
/// GoalSynthesisResult; a size's chunk results are merged in rank order
/// by mergeSynthesisResult, the same merge the sequential Synthesizer
/// uses, which keeps the resulting database equal to a sequential
/// run's. Chunks hold at least 32 ranks, and a size splits into at
/// most four chunks per worker. The finished goals go through
/// collectRuleLibrary, the sequential builder's last step.
///
/// Caching: with a SynthesisCache attached, each goal's cache key
/// (content hash of its SMT spec, width, options, and encoder version)
/// is probed before any solving; hits are served from disk and
/// complete results are stored back, so warm reruns skip Z3 entirely
/// and a killed run restarted on the same cache resumes where it died.
///
//===----------------------------------------------------------------------===//

#ifndef SELGEN_PATTERN_PARALLELBUILDER_H
#define SELGEN_PATTERN_PARALLELBUILDER_H

#include "pattern/LibraryBuilder.h"
#include "pattern/SynthesisCache.h"

namespace selgen {

class SolverPool;

/// Configuration of one parallel library build.
struct ParallelBuildOptions {
  /// Worker threads; 0 uses the hardware concurrency.
  unsigned NumThreads = 0;
  /// Goals synthesized with the total-pattern policy (see
  /// SynthesisOptions::RequireTotalPatterns).
  std::vector<std::string> TotalModeGoals;
  /// Persistent result cache; null disables caching.
  SynthesisCache *Cache = nullptr;
  /// Budget multiplier for the end-of-run escalation pass: goals that
  /// ended incomplete are retried once with wall-clock, query-timeout,
  /// and rlimit budgets scaled by this factor before the library is
  /// finalized. 0 (or 1) disables the pass.
  unsigned EscalationFactor = 0;
  /// Out-of-process solver pool (see smt/SolverPool.h); null keeps the
  /// in-process path. When set and usable, enumeration chunks are
  /// shipped to supervised `selgen-solverd` workers instead of running
  /// on this process's Z3 — a solver crash then costs one respawned
  /// child and one retried chunk, never the scheduler. Chunks replay
  /// on a fresh context either way, so the resulting library is
  /// byte-identical to an in-process run.
  SolverPool *Pool = nullptr;
};

/// Like synthesizeRuleLibrary, but distributes goals — and sub-ranges
/// of the heavy goals' enumerations — over worker threads with work
/// stealing. The result is deterministic up to rule order; the
/// database contents equal a sequential run's. Per-goal telemetry
/// (queue wait, solver time, cache hit/miss, counterexamples) is
/// recorded in the global Statistics registry.
PatternDatabase synthesizeRuleLibraryParallel(
    const GoalLibrary &Library, const SynthesisOptions &Options,
    const ParallelBuildOptions &Build, LibraryBuildReport *Report = nullptr);

} // namespace selgen

#endif // SELGEN_PATTERN_PARALLELBUILDER_H
