//===- Synthesizer.h - Iterative CEGIS driver --------------------*- C++ -*-===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The iterative CEGIS algorithm of paper Section 5.4 (Algorithm 2):
/// enumerate l-multicombinations of the IR operation alphabet with
/// increasing l, run CEGISAllPatterns on each, and return all patterns
/// of minimal size. Includes the paper's refinements:
///
/// * memory-requirement analysis: a pre-analysis on the goal's
///   postcondition decides whether the pattern must contain a load, a
///   store, or both, and those operations become a fixed prefix of
///   every multiset (reducing ((|I|, l)) to ((|I|, l - |O|)));
/// * skip criteria: multisets that provably admit no new minimal
///   pattern (dangling single-sort results; missing source of a
///   required sort) are skipped without touching the solver.
///
/// GoalSynthesisResult is the one result type of synthesis: a whole
/// goal's, one enumeration range's (synthesizeRange) and one CEGIS
/// run's are all merged by mergeSynthesisResult, and cache shards and
/// solver-worker range replies carry it in the one text body of
/// encodeSynthesisResult.
///
//===----------------------------------------------------------------------===//

#ifndef SELGEN_SYNTH_SYNTHESIZER_H
#define SELGEN_SYNTH_SYNTHESIZER_H

#include "synth/Cegis.h"

#include <iosfwd>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace selgen {

/// Why a goal (or a range of its enumeration) ended incomplete,
/// ordered by severity: when several causes occur over one goal, the
/// most severe one is reported (mergeIncompleteCause).
enum class IncompleteCause {
  None,      ///< Complete.
  Budget,    ///< The goal/range wall-clock or iteration budget ran out.
  Timeout,   ///< A solver query hit its wall-clock timeout.
  Deadline,  ///< A query was cut at the hard deadline (interrupted).
  Rlimit,    ///< A query exhausted its deterministic Z3 rlimit.
  Exception, ///< A contained z3::exception / allocation failure.
};

/// Stable lowercase name ("budget", "timeout", ...).
const char *incompleteCauseName(IncompleteCause Cause);

/// Maps a solver-level failure into the goal-level taxonomy.
IncompleteCause incompleteCauseFromFailure(SmtFailure Failure);

/// The more severe of the two causes.
inline IncompleteCause mergeIncompleteCause(IncompleteCause A,
                                            IncompleteCause B) {
  return A < B ? B : A;
}

/// Configuration of an iterative CEGIS run.
struct SynthesisOptions {
  unsigned Width = 8;
  /// The operation alphabet I (each operation once).
  std::vector<Opcode> Alphabet;
  /// Cap on the iterative deepening (overridden per goal by
  /// GoalInstruction::MaxPatternSize when driven from a GoalLibrary).
  unsigned MaxPatternSize = 4;
  bool UseMemoryRefinement = true;
  bool UseSkipCriteria = true;
  /// Stop after the smallest l that produced patterns (the paper's
  /// semantics); otherwise keep deepening to MaxPatternSize.
  bool FindAllMinimal = true;
  /// Require patterns to be defined wherever the goal is (ablation;
  /// see CegisOptions::RequireTotalPatterns).
  bool RequireTotalPatterns = false;
  unsigned MaxPatternsPerGoal = 512;
  unsigned MaxPatternsPerMultiset = 32;
  unsigned QueryTimeoutMs = 60000;
  /// Deterministic Z3 resource budget per solver query; 0 = none.
  /// Unlike the wall-clock timeout, rlimit-bounded outcomes replay
  /// identically across machines (see SolverPolicy).
  uint64_t QueryRlimit = 0;
  /// Escalation ladder for inconclusive queries: one attempt per
  /// entry, budgets scaled by it (e.g. {1, 4, 16}).
  std::vector<unsigned> QueryRetryScale = {1};
  /// Wall-clock budget for one goal; 0 = unlimited.
  double TimeBudgetSeconds = 0;
  /// Screen candidates against the concrete counterexample corpus
  /// before symbolic verification (see CegisOptions::UsePrescreen).
  bool UsePrescreen = true;
  /// Counterexample-corpus size bound per goal (LRU-evicted beyond).
  unsigned CorpusCapacity = TestCorpus::DefaultCapacity;

  SynthesisOptions();
};

/// Outcome of synthesizing one goal, or one part of it: an enumeration
/// range (Synthesizer::synthesizeRange) or a single CEGIS run.
struct GoalSynthesisResult {
  std::string GoalName;
  std::vector<Graph> Patterns; ///< Deduplicated by fingerprint.
  unsigned MinimalSize = 0;    ///< l of the patterns found.
  bool Complete = true;  ///< False on budget/timeout/solver trouble.
  /// Most severe reason for incompleteness (None when Complete).
  IncompleteCause Cause = IncompleteCause::None;
  double Seconds = 0;
  uint64_t MultisetsConsidered = 0;
  uint64_t MultisetsSkipped = 0; ///< By the skip criteria.
  uint64_t MultisetsRun = 0;     ///< Actually handed to CEGIS.
  uint64_t Counterexamples = 0;
  uint64_t SynthesisQueries = 0;
  uint64_t VerificationQueries = 0;
  uint64_t PrescreenKills = 0;
  uint64_t PrescreenInconclusive = 0;

  /// Marks the result incomplete, keeping the most severe cause.
  void markIncomplete(IncompleteCause Why) {
    Complete = false;
    Cause = mergeIncompleteCause(Cause, Why);
  }
};

/// The one merge step of synthesis: adds \p Part's counters (not its
/// Seconds) to \p Result, marks \p Result incomplete if \p Part is (an
/// incomplete part without a named cause ran out of budget), and
/// appends those of \p Part's patterns whose fingerprint is new to
/// \p Fingerprints while \p Result holds fewer than \p MaxPatterns.
/// Parts must be merged in enumeration order (the ranges of one size in
/// ascending rank) for the pattern set to equal a sequential run's.
void mergeSynthesisResult(GoalSynthesisResult &Result,
                          std::set<std::string> &Fingerprints,
                          GoalSynthesisResult &&Part, unsigned MaxPatterns);

/// The one text body of a result, shared by synthesis-cache shards and
/// solver-worker range replies: field lines (`goal`, `seconds`,
/// `minimal-size`, `multisets`, `queries`, `prescreen`, `patterns <n>`),
/// one `pattern` ... `endpattern` block per pattern, and an `end`
/// trailer. Complete and Cause are not in it: a shard holds only
/// complete results, and a range reply sends them on lines of its own.
std::string encodeSynthesisResult(const GoalSynthesisResult &Result);

/// Reads one body from \p Stream through its `end` trailer. Total: a
/// malformed number, unknown field, unparsable or miscounted pattern,
/// missing goal name or missing trailer yields nullopt. A `cost` line
/// (written by older shards) is skipped.
std::optional<GoalSynthesisResult> decodeSynthesisResult(std::istream &Stream);

/// The per-goal enumeration plan of Algorithm 2: the fixed memory-op
/// prefix O and the enumerated alphabet I' (paper Section 5.4). The
/// plan is what makes one goal's search divisible: for a fixed pattern
/// size, the multicombination ranks over Alphabet form a contiguous
/// range that workers can process in independent sub-ranges.
struct SynthesisPlan {
  std::vector<Opcode> Prefix;   ///< Required memory operations.
  std::vector<Opcode> Alphabet; ///< Enumerated operations.
  unsigned MinSize = 0;         ///< Prefix.size().
  unsigned MaxSize = 0;         ///< Iterative-deepening cap.
};

/// Drives iterative CEGIS for individual goals.
class Synthesizer {
public:
  Synthesizer(SmtContext &Smt, SynthesisOptions Options);

  const SynthesisOptions &options() const { return Options; }

  /// Runs Algorithm 2 for \p Goal.
  GoalSynthesisResult synthesize(const InstrSpec &Goal);

  /// Computes the enumeration plan for \p Goal (memory pre-analysis;
  /// issues solver queries for memory-accessing goals).
  SynthesisPlan plan(const InstrSpec &Goal);

  /// Number of multisets enumerated at pattern size \p Size under
  /// \p Plan (1 for the prefix-only size).
  static uint64_t numMultisets(const SynthesisPlan &Plan, unsigned Size);

  /// Runs the multisets with lexicographic rank in [BeginRank, EndRank)
  /// of pattern size \p Size. \p Corpus seeds the CEGIS test set and
  /// receives newly found counterexamples; it is internally locked, so
  /// callers running ranges concurrently share one corpus per goal
  /// (the parallel builder's CorpusStore). A positive \p BudgetSeconds
  /// caps this range's wall clock; expiry marks the result incomplete.
  /// The result's patterns are in enumeration order and deduplicated
  /// within the range only; the range found a pattern of size \p Size
  /// iff they are non-empty. Callers merge the ranges of one size in
  /// rank order (mergeSynthesisResult).
  GoalSynthesisResult synthesizeRange(const InstrSpec &Goal,
                                      const SynthesisPlan &Plan, unsigned Size,
                                      uint64_t BeginRank, uint64_t EndRank,
                                      TestCorpus &Corpus,
                                      double BudgetSeconds = 0);

  /// Runs one classical (non-iterative) CEGIS with an oversupplied
  /// template multiset containing \p Copies copies of every alphabet
  /// operation — the baseline of the paper's Section 7.2 comparison.
  GoalSynthesisResult synthesizeClassic(const InstrSpec &Goal,
                                        unsigned Copies);

  /// The memory-requirement pre-analysis (Section 5.4): returns the
  /// subset of {Load, Store} every pattern for \p Goal must contain.
  std::vector<Opcode> requiredMemoryOps(const InstrSpec &Goal);

  /// The two skip criteria (Section 5.4) plus the goal-result variant
  /// of the source criterion. Returns true if the multiset cannot
  /// yield a new minimal pattern.
  static bool shouldSkipMultiset(const InstrSpec &Goal,
                                 const std::vector<Opcode> &Multiset,
                                 unsigned Width);

private:
  SmtContext &Smt;
  SynthesisOptions Options;
};

} // namespace selgen

#endif // SELGEN_SYNTH_SYNTHESIZER_H
