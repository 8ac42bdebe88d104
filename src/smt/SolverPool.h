//===- SolverPool.h - Out-of-process solver worker pool ----------*- C++ -*-===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Crash-isolated solver execution: a pool of supervised `selgen-solverd`
/// worker processes that receive serialized enumeration chunks over a
/// pipe and stream back typed results. In-process supervision contains
/// solver failures *inside* the process (typed SmtFailure, retry
/// ladder); this layer moves the solver out of the process entirely, so
/// a Z3 segfault, an OOM kill, or a wedged query costs one child process
/// and one retried query — never the scheduler.
///
/// Wire protocol: the shared CRC-framed transport in support/Wire.h.
/// Any magic / length / CRC mismatch classifies the worker as crashed
/// (garbage on a pipe means the writer is gone or insane), the child
/// is SIGKILLed, reaped, and respawned. There is no resynchronization
/// by design — respawn is cheap and always returns the stream to a
/// known state.
///
/// Supervision policy per worker:
///   * recycle after K queries or M bytes of resident set — long-lived
///     Z3 processes fragment and bloat; recycling bounds both;
///   * SIGKILL on deadline instead of the in-process interrupt
///     watchdog — a kill is effective even when Z3 ignores interrupts
///     (tight solver loops, allocator deadlock after corruption);
///   * automatic respawn + bounded query retry on crash, wired into
///     the same failure taxonomy the retry ladder uses: a query that
///     survives no respawn retry reports SmtFailure::Exception (crash)
///     or SmtFailure::Deadline (hang), exactly like an in-process
///     contained failure, so callers need no new error paths.
///
/// Counters (in the global Statistics registry, hence --stats-json):
/// pool.spawns, pool.recycles, pool.crashes, pool.respawn_retries,
/// pool.deadline_kills, pool.queries.
///
//===----------------------------------------------------------------------===//

#ifndef SELGEN_SMT_SOLVERPOOL_H
#define SELGEN_SMT_SOLVERPOOL_H

#include "smt/SmtContext.h"
#include "support/Wire.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace selgen {

/// Configuration of one worker pool.
struct SolverPoolOptions {
  /// Worker processes to keep alive.
  unsigned NumWorkers = 1;
  /// Path of the worker binary; empty uses defaultWorkerPath().
  std::string WorkerPath;
  /// Extra environment for spawned workers (e.g. SELGEN_FAULTS for the
  /// crash-injection tests), applied on top of the inherited one.
  std::map<std::string, std::string> WorkerEnv;
  /// Recycle a worker after this many queries; 0 disables.
  unsigned RecycleAfterQueries = 64;
  /// Recycle a worker whose resident set exceeds this; 0 disables.
  uint64_t RecycleRssBytes = 1ull << 30;
  /// Respawn-and-retry attempts for a query whose worker crashed.
  unsigned MaxCrashRetries = 2;
  /// Retry attempts for a query whose worker was killed on deadline.
  unsigned MaxDeadlineRetries = 1;
  /// Grace added on top of a request's own budget before the worker is
  /// declared hung and SIGKILLed.
  double GraceSeconds = 15;
};

/// Outcome of one pool query.
struct PoolReply {
  /// True iff a well-formed Response frame came back.
  bool Ok = false;
  /// When !Ok: Deadline (worker hung, killed), Exception (worker
  /// crashed / garbage reply / worker-reported error).
  SmtFailure Failure = SmtFailure::None;
  /// Response payload (Ok) or the worker's error message (!Ok with a
  /// well-formed Error frame).
  std::string Payload;
  /// Wall time burned on attempts whose worker was condemned (crash,
  /// garbage frame, deadline kill) — work the in-process path would
  /// never have paid for. Callers that enforce wall-clock budgets
  /// should refund this, so fault recovery does not push otherwise
  /// identical runs over their budgets and perturb deterministic
  /// outcomes.
  double StalledSeconds = 0;
};

/// A pool of supervised worker processes. Thread-safe: scheduler
/// workers call run() concurrently; each call checks out one worker
/// for the duration of the query (callers block while all workers are
/// busy).
class SolverPool {
public:
  explicit SolverPool(SolverPoolOptions Options);
  ~SolverPool();
  SolverPool(const SolverPool &) = delete;
  SolverPool &operator=(const SolverPool &) = delete;

  /// $SELGEN_SOLVERD if set, else `selgen-solverd` next to the current
  /// executable.
  static std::string defaultWorkerPath();

  /// Spawns the initial workers. False if the worker binary cannot be
  /// executed (the pool is then unusable). Also ignores SIGPIPE
  /// process-wide: a request written to a worker that died while idle
  /// must surface as a failed write (one respawn), not kill the
  /// scheduler.
  bool start();

  /// True once start() succeeded.
  bool usable() const { return Usable; }

  const SolverPoolOptions &options() const { return Options; }

  /// Sends one request payload to a worker and awaits its reply.
  /// \p BudgetSeconds is the request's own time budget; the worker is
  /// SIGKILLed GraceSeconds past it (0 = no deadline). Crashed or hung
  /// workers are respawned and the query retried within the configured
  /// bounds; an exhausted retry budget surfaces as a typed failure.
  PoolReply run(const std::string &RequestPayload, double BudgetSeconds = 0);

  /// Gracefully shuts down all workers (close stdin, reap). Called by
  /// the destructor. Blocks new checkouts, then waits for in-flight
  /// run() calls to drain before closing any worker's pipes — a
  /// concurrent query never sees its fds yanked mid-read.
  void shutdown();

private:
  struct Worker {
    pid_t Pid = -1;
    int RequestFd = -1;  ///< Parent writes requests here (O_NONBLOCK).
    int ResponseFd = -1; ///< Parent reads responses here.
    unsigned Queries = 0;
    bool Busy = false;
  };

  SolverPoolOptions Options;
  std::atomic<bool> Usable{false};

  std::mutex Lock;
  std::condition_variable Available;
  std::vector<Worker> Workers;

  /// Spawns a worker into \p Slot. False on fork/exec failure.
  bool spawnWorker(Worker &Slot);
  /// SIGKILLs (if \p Kill) and reaps a worker, closing its pipes.
  void stopWorker(Worker &Slot, bool Kill);
  /// Resident set size of \p Pid in bytes (0 if unknown).
  static uint64_t workerRssBytes(pid_t Pid);

  /// Blocks until a worker is free; nullopt once shutdown() began.
  std::optional<size_t> checkoutWorker();
  void releaseWorker(size_t Index);
};

} // namespace selgen

#endif // SELGEN_SMT_SOLVERPOOL_H
