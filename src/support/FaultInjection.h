//===- FaultInjection.h - Deterministic fault injection ----------*- C++ -*-===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A deterministic, seed-driven fault injector so every recovery path
/// in the robustness layer is *provably* exercised by tests and CI
/// instead of waiting for a real OOM kill. Configured from the
/// SELGEN_FAULTS environment variable (or directly by tests):
///
///   SELGEN_FAULTS="solver_throw@p=0.05,shard_truncate@n=3,seed=42"
///
/// Each comma-separated entry arms one *site* — a named hook point in
/// production code — with a trigger: `p=<prob>` fires with that
/// probability per call (decided by a stable hash of seed, site, and
/// call index, so a given seed replays identically), and `n=<k>` fires
/// on exactly the k-th call of the site. Armed sites the project hooks:
///
///   solver_throw      SmtSolver::check throws z3::exception
///   solver_unknown    SmtSolver::check reports unknown (budget blown)
///   shard_truncate    SynthesisCache::store publishes a torn shard
///   shard_read        SynthesisCache::lookup sees a corrupt read
///   kill_after_finish SynthesisCache::store delivers SIGKILL right
///                     after a goal's shard is durable (crash-exactly-
///                     here for the resume tests)
///   watchdog_late     SmtSolver::check parks past the deadline after
///                     the query returned, forcing the deadline
///                     watchdog to wake on a retired generation (the
///                     stale-interrupt suppression regression test)
///   worker_kill       selgen-solverd SIGKILLs itself after reading a
///                     request (the pool sees EOF mid-query)
///   worker_hang       SolverPool stops (SIGSTOP) the worker it has just
///                     sent a request, which then answers past any
///                     deadline (the pool's poll expires and SIGKILLs
///                     it)
///   worker_garbage_reply  selgen-solverd corrupts its reply frame
///                     (the pool's CRC check must reject it)
///   serve_request_garbage  the compile server corrupts a request
///                     payload after admission (the dispatcher's total
///                     decoder must answer a typed BadRequest)
///   serve_reply_torn  the compile server truncates a reply frame
///                     (the client's CRC check must condemn the
///                     stream and reconnect)
///   serve_drop_client the compile server sends half a reply and
///                     drops the connection (client sees a torn frame
///                     plus EOF)
///   serve_slow_write  the compile server's write pass skips a tick
///                     (exercises reply buffering and, sustained, the
///                     slow-writer eviction)
///   serve_dispatch_stall  the compile server's dispatcher sleeps
///                     400ms before serving a request (drives queue
///                     growth for the overload and deadline tests)
///
/// worker_kill and worker_garbage_reply fire inside the *worker*
/// process; arm them via SolverPoolOptions::WorkerEnv (or the worker's
/// environment), and note that n=<k> counts per worker process — a
/// respawned worker starts fresh, so worker_kill@n=1 kills every
/// respawn on its first query and exhausts the retry budget, while n=2
/// lets each respawn answer one query before dying (the recoverable
/// case CI sweeps). worker_hang fires in the pool's own process, so its
/// n=<k> counts the pool's requests and it hangs one worker per run.
///
/// Injection can never leak silently into a real run: arming any site
/// sets the "faults.armed" statistic, and every probe and fire is
/// counted ("faults.<site>.calls" / "faults.<site>.fired"), all of
/// which land in --stats-json.
///
//===----------------------------------------------------------------------===//

#ifndef SELGEN_SUPPORT_FAULTINJECTION_H
#define SELGEN_SUPPORT_FAULTINJECTION_H

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

namespace selgen {

/// Process-wide injector; all methods are thread-safe.
class FaultInjector {
public:
  /// The singleton, configured from $SELGEN_FAULTS on first use.
  static FaultInjector &get();

  /// (Re)arms from \p Spec; an empty spec disarms everything. Returns
  /// false (and disarms) if the spec does not parse.
  bool configure(const std::string &Spec);

  /// Disarms all sites and resets call counts.
  void disarm();

  /// True if any site is armed.
  bool armed() const;

  /// Called at a hook point: counts the probe and decides whether the
  /// fault fires here. Unarmed sites always return false.
  bool shouldFire(const char *Site);

  /// Times \p Site has fired since configuration (for tests).
  uint64_t firedCount(const std::string &Site) const;

  /// Human-readable summary of the armed sites (for run banners).
  std::string describe() const;

private:
  FaultInjector() = default;

  struct Site {
    double Probability = 0; ///< p-triggered when > 0.
    uint64_t Nth = 0;       ///< n-triggered when > 0 (exactly once).
    uint64_t Calls = 0;
    uint64_t Fired = 0;
  };

  mutable std::mutex M;
  std::map<std::string, Site> Sites;
  uint64_t Seed = 0;
};

} // namespace selgen

#endif // SELGEN_SUPPORT_FAULTINJECTION_H
