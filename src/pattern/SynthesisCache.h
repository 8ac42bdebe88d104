//===- SynthesisCache.h - Persistent synthesis result cache ------*- C++ -*-===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A content-addressed, on-disk cache of per-goal synthesis results.
/// Rule-library synthesis is embarrassingly parallel but expensive
/// (hours of Z3 time at paper scale, Section 5.5); since the pattern
/// set for a goal is a pure function of (goal semantics, data width,
/// synthesis options, encoder version), solved goals can be reused
/// across runs, machines, and CI jobs.
///
/// Layout: a versioned directory (`<dir>/v2/`) of per-goal shard files
/// named by cache key (`<key>.shard`). Each shard is a checksummed
/// text record: a magic line, a `crc <hex> <length>` frame line, then
/// the result body of encodeSynthesisResult (synth/Synthesizer.h), the
/// same body a solver-worker range reply carries. Shards from before
/// the rule-cost stamp was dropped also hold a `cost` line, which the
/// body decoder skips, so they still hit.
/// Lookups never trust a shard blindly — a length or CRC-32 mismatch,
/// a missing trailer, a pattern-count mismatch, or a parse error all
/// degrade to a cache miss, the offending shard is quarantined to
/// `<shard>.bad` (counted under "cache.corrupt_shards"), and the goal
/// is simply re-synthesized. Truncated or corrupt shards can therefore
/// never poison or abort a build.
///
/// Concurrency and crash safety: writers publish through
/// writeFileAtomic (unique temp file, full write, fsync, atomic
/// rename), so concurrent builders (or concurrent CI jobs sharing a
/// cache volume) can race freely and a SIGKILL mid-store never leaves
/// a half-written shard under the final name.
///
/// The cache is also the only durable record of a run's finished
/// goals: a synthesis run killed at any point and restarted on the
/// same cache directory skips every goal whose shard was published
/// and re-solves only the rest. Content addressing keeps runs under
/// different goal sets, widths or options apart — they simply miss.
///
/// Only *complete* results (no budget/timeout casualties) are stored:
/// an incomplete pattern set depends on the time budget and would leak
/// that nondeterminism into later runs.
///
//===----------------------------------------------------------------------===//

#ifndef SELGEN_PATTERN_SYNTHESISCACHE_H
#define SELGEN_PATTERN_SYNTHESISCACHE_H

#include "synth/Synthesizer.h"

#include <optional>
#include <string>

namespace selgen {

/// On-disk store of GoalSynthesisResults, addressed by cache key (see
/// synthesisCacheKey in synth/SpecFingerprint.h).
class SynthesisCache {
public:
  /// Opens (and creates, if needed) the cache under \p Directory.
  explicit SynthesisCache(std::string Directory);

  /// The default cache location: $SELGEN_CACHE_DIR if set, else
  /// $XDG_CACHE_HOME/selgen, else $HOME/.cache/selgen, else
  /// ".selgen-cache" in the working directory.
  static std::string defaultDirectory();

  const std::string &directory() const { return Directory; }

  /// False if the cache directory could not be created; lookups and
  /// stores on an unusable cache are no-ops.
  bool usable() const { return Usable; }

  /// Returns the cached result for \p Key, or std::nullopt on miss
  /// (absent, unreadable, or corrupt shard). Corrupt shards are
  /// quarantined to `<shard>.bad` and counted, never fatal.
  std::optional<GoalSynthesisResult> lookup(const std::string &Key) const;

  /// Stores \p Result under \p Key via fsync'd temp file + atomic
  /// rename. Incomplete results are rejected. Returns true if the
  /// shard was published. Once it is durable, the "kill_after_finish"
  /// fault site can SIGKILL the process — the deterministic crash
  /// point the resume tests use.
  bool store(const std::string &Key, const GoalSynthesisResult &Result) const;

  /// Path of the shard file for \p Key (exists only after a store).
  std::string shardPath(const std::string &Key) const;

  /// One shard's bytes: the frame around the result body (exposed for
  /// tests).
  static std::string serializeResult(const GoalSynthesisResult &Result);
  static std::optional<GoalSynthesisResult>
  deserializeResult(const std::string &Text);

private:
  std::string Directory; ///< The versioned subdirectory (<root>/v2).
  bool Usable = false;   ///< False if the directory cannot be created.
};

} // namespace selgen

#endif // SELGEN_PATTERN_SYNTHESISCACHE_H
