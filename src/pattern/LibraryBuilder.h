//===- LibraryBuilder.h - Algorithm 1: goals -> rule library -----*- C++ -*-===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Synthesizer procedure of paper Algorithm 1: run iterative CEGIS
/// for every goal instruction in a GoalLibrary, pair each synthesized
/// pattern with its goal, and collect the rules in a PatternDatabase.
/// Reports per-group statistics in the shape of the paper's Table 2.
///
//===----------------------------------------------------------------------===//

#ifndef SELGEN_PATTERN_LIBRARYBUILDER_H
#define SELGEN_PATTERN_LIBRARYBUILDER_H

#include "pattern/PatternDatabase.h"
#include "synth/Synthesizer.h"
#include "x86/Goals.h"

#include <string>
#include <vector>

namespace selgen {

/// One row of the Table 2 style report.
struct GroupReport {
  std::string Group;
  unsigned Goals = 0;
  size_t Patterns = 0;
  unsigned MaxPatternSize = 0;
  double Seconds = 0;
  unsigned IncompleteGoals = 0; ///< Budget/timeout casualties.
};

/// Aggregate report of one library build.
struct LibraryBuildReport {
  std::vector<GroupReport> Groups;
  double TotalSeconds = 0;
  size_t TotalPatterns = 0;
  unsigned TotalGoals = 0;
  /// Goals served from / missed in the persistent synthesis cache
  /// (always zero for cache-less builds).
  unsigned CacheHits = 0;
  unsigned CacheMisses = 0;
  /// Wall-clock time of the whole build (parallel builds only;
  /// TotalSeconds sums per-goal solver time instead).
  double WallSeconds = 0;
};

/// Runs Algorithm 1 over all goals of \p Library. Per-goal iterative
/// deepening caps come from each GoalInstruction; everything else from
/// \p Options. If \p Report is non-null, per-group statistics are
/// accumulated there.
PatternDatabase synthesizeRuleLibrary(SmtContext &Smt,
                                      const GoalLibrary &Library,
                                      const SynthesisOptions &Options,
                                      LibraryBuildReport *Report = nullptr);

/// Algorithm 1's last step, shared by the sequential and the parallel
/// builder: pairs each pattern of \p Results[I] with goal I of
/// \p Library in a PatternDatabase, in goal order, and adds one row per
/// group (and the totals) to \p Report when it is non-null.
PatternDatabase collectRuleLibrary(const GoalLibrary &Library,
                                   std::vector<GoalSynthesisResult> Results,
                                   LibraryBuildReport *Report);

} // namespace selgen

#endif // SELGEN_PATTERN_LIBRARYBUILDER_H
