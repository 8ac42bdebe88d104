//===- Statistics.h - Named statistic counters -------------------*- C++ -*-===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A process-wide registry of named counters, in the spirit of LLVM's
/// Statistic class. The synthesizer uses it to report solver-call
/// counts, skipped multisets, counterexample counts, and so on.
///
/// The registry also collects structured per-goal telemetry from the
/// parallel library builder (queue wait, solver time, cache hit/miss,
/// counterexample counts) and can dump everything as JSON for the
/// benchmark harnesses and CI (--stats-json).
///
/// Memory stays bounded in long-lived processes: the registry holds
/// named counters and one record per synthesis goal, nothing per call.
///
//===----------------------------------------------------------------------===//

#ifndef SELGEN_SUPPORT_STATISTICS_H
#define SELGEN_SUPPORT_STATISTICS_H

#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace selgen {

/// Structured telemetry for one synthesized (or cache-served) goal.
struct GoalTelemetry {
  std::string Goal;
  std::string Group;
  bool CacheHit = false;
  bool Complete = true;
  /// Why the goal is incomplete ("timeout", "rlimit", "exception",
  /// "deadline", "budget"); empty when Complete.
  std::string IncompleteCause;
  /// Seconds between scheduling and the first worker picking the goal up.
  double QueueWaitSeconds = 0;
  /// Accumulated chunk execution time (solver-dominated).
  double SolverSeconds = 0;
  /// Wall-clock time from pickup to completion.
  double WallSeconds = 0;
  uint64_t Counterexamples = 0;
  uint64_t MultisetsRun = 0;
  uint64_t MultisetsSkipped = 0;
  uint64_t Patterns = 0;
  /// Enumeration chunks the goal was split into across all sizes.
  unsigned Chunks = 0;
  /// Chunks executed by a worker other than the goal's owner.
  unsigned StolenChunks = 0;
  /// Candidates killed by the concrete pre-screen (verification
  /// queries avoided).
  uint64_t PrescreenKills = 0;
  /// Final size of the goal's counterexample corpus.
  uint64_t CorpusSize = 0;
  /// Corpus entries LRU-evicted over the goal's lifetime.
  uint64_t CorpusEvictions = 0;
};

/// Registry of named 64-bit counters. Thread-safe: the parallel
/// synthesis driver (pattern/ParallelBuilder) bumps counters from
/// several workers.
class Statistics {
public:
  /// Returns the singleton registry.
  static Statistics &get();

  /// Adds \p Delta to the counter named \p Name (creating it at zero).
  void add(const std::string &Name, int64_t Delta = 1);

  /// Returns the current value of \p Name, or zero if never touched.
  int64_t value(const std::string &Name) const;

  /// Records one goal's telemetry record.
  void recordGoal(GoalTelemetry Telemetry);

  /// Snapshot of the recorded goal telemetry.
  std::vector<GoalTelemetry> goals() const;

  /// Resets all counters and goal records. Tests use this for isolation.
  void clear();

  /// Prints all counters, sorted by name.
  void print(std::ostream &OS) const;

  /// Renders counters plus per-goal telemetry as a JSON object
  /// ({"counters": {...}, "goals": [...]}).
  std::string toJson() const;

  /// Writes toJson() to \p Path; returns false on I/O failure.
  bool writeJsonFile(const std::string &Path) const;

private:
  mutable std::mutex Lock;
  std::map<std::string, int64_t> Counters;
  std::vector<GoalTelemetry> Goals;
};

} // namespace selgen

#endif // SELGEN_SUPPORT_STATISTICS_H
