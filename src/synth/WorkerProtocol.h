//===- WorkerProtocol.h - Solver worker request encoding ---------*- C++ -*-===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Payload encoding for the out-of-process solver pool: what travels
/// inside the wire frames of smt/SolverPool between the scheduler and
/// `selgen-solverd` workers. There is one request kind, `range`: one
/// enumeration chunk of one goal, the scheduler's own work-stealing
/// granularity (Synthesizer::synthesizeRange). A chunk runs on a fresh
/// SmtContext in-process and the worker replays it on a fresh context
/// too, so the outcome — and therefore the final library — is
/// bit-exact either way. The request carries the goal *name* (both
/// sides build the same GoalLibrary), the effective options, the
/// enumeration plan, the rank range, and a snapshot of the goal's
/// counterexample corpus; the reply carries the range's
/// GoalSynthesisResult plus the worker's corpus so new counterexamples
/// flow back into the shared pool.
///
/// The request is field lines closed by an `end` trailer. The reply is
/// `complete` and `cause` lines, the corpus, and then the result in the
/// very body a SynthesisCache shard holds (encodeSynthesisResult),
/// which ends in its own `end` trailer. Framing integrity (length, CRC)
/// is the wire layer's job, so payloads carry no checksum of their own;
/// decoders are still total functions — malformed input, a bad number
/// included, yields nullopt, never an abort — because a worker must
/// survive any bytes a fuzzer or fault injector throws at it.
///
//===----------------------------------------------------------------------===//

#ifndef SELGEN_SYNTH_WORKERPROTOCOL_H
#define SELGEN_SYNTH_WORKERPROTOCOL_H

#include "synth/Synthesizer.h"
#include "synth/TestCorpus.h"

#include <optional>
#include <string>
#include <vector>

namespace selgen {

class SolverPool;

/// One enumeration chunk of one goal, shipped to a worker.
struct RangeRequest {
  std::string GoalName;
  SynthesisOptions Options; ///< Effective (per-goal) options.
  SynthesisPlan Plan;
  unsigned Size = 0;
  uint64_t BeginRank = 0;
  uint64_t EndRank = 0;
  /// Wall-clock cap for this chunk; 0 = unlimited. Also drives the
  /// pool's SIGKILL deadline (budget + grace).
  double BudgetSeconds = 0;
  /// Snapshot of the goal's counterexample corpus at dispatch time.
  std::vector<TestCorpus::Entry> CorpusSeed;
};

/// A worker's answer to a RangeRequest.
struct RangeReply {
  GoalSynthesisResult Outcome; ///< Synthesizer::synthesizeRange's result.
  /// The worker's full corpus after the run; the client inserts these
  /// into the shared corpus (duplicates are rejected by value there).
  std::vector<TestCorpus::Entry> CorpusEntries;
};

std::string encodeRangeRequest(const RangeRequest &Request);
std::optional<RangeRequest> decodeRangeRequest(const std::string &Payload,
                                               std::string *Error = nullptr);
std::string encodeRangeReply(const RangeReply &Reply);
std::optional<RangeReply> decodeRangeReply(const std::string &Payload,
                                           std::string *Error = nullptr);

/// Runs one chunk remotely: snapshots \p Corpus into the request,
/// round-trips it through \p Pool, merges returned counterexamples
/// back into \p Corpus, and returns the outcome. Pool-level failures
/// (worker crashed / hung past all retries, malformed reply) surface
/// as an incomplete result whose Cause maps the SmtFailure
/// through incompleteCauseFromFailure — exactly the shape an
/// in-process contained failure has, so the scheduler needs no new
/// error paths. When \p StalledSeconds is non-null it receives the
/// wall time the pool burned on condemned worker attempts (crashes,
/// deadline kills) — overhead the caller should refund from its own
/// wall-budget accounting (see PoolReply::StalledSeconds).
GoalSynthesisResult remoteSynthesizeRange(SolverPool &Pool,
                                          RangeRequest Request,
                                          TestCorpus &Corpus,
                                          double *StalledSeconds = nullptr);

} // namespace selgen

#endif // SELGEN_SYNTH_WORKERPROTOCOL_H
