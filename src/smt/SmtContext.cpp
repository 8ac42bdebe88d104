//===- SmtContext.cpp - Z3 context wrapper ----------------------------------===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//

#include "smt/SmtContext.h"

#include "support/Error.h"
#include "support/FaultInjection.h"
#include "support/Statistics.h"
#include "support/Timer.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <limits>
#include <mutex>
#include <new>
#include <optional>
#include <thread>

using namespace selgen;

namespace {
std::atomic<uint64_t> ContextsCreated{0};
std::atomic<uint64_t> LiveContexts{0};
std::atomic<uint64_t> PeakLiveContexts{0};

void raisePeak(uint64_t Live) {
  uint64_t Peak = PeakLiveContexts.load();
  while (Live > Peak && !PeakLiveContexts.compare_exchange_weak(Peak, Live)) {
  }
}
} // namespace

// The census brackets the lifetime of the z3::context member: it is
// counted once built and uncounted before it is destroyed.
SmtContext::SmtContext() {
  ContextsCreated.fetch_add(1);
  raisePeak(LiveContexts.fetch_add(1) + 1);
}

SmtContext::~SmtContext() { LiveContexts.fetch_sub(1); }

uint64_t SmtContext::contextsCreated() { return ContextsCreated.load(); }

uint64_t SmtContext::peakLiveContexts() { return PeakLiveContexts.load(); }

void SmtContext::resetPeakLiveContexts() {
  PeakLiveContexts.store(LiveContexts.load());
}

z3::expr SmtContext::literal(const BitValue &Value) {
  if (Value.width() <= 64)
    return Ctx.bv_val(static_cast<uint64_t>(Value.zextValue()),
                      Value.width());
  // Wide literals go through the decimal string constructor.
  return Ctx.bv_val(Value.toUnsignedString().c_str(), Value.width());
}

BitValue SmtContext::evalBits(const z3::model &Model, const z3::expr &Expr) {
  z3::expr Evaluated = Model.eval(Expr, /*model_completion=*/true);
  assert(Evaluated.is_bv() && "expected a bit-vector expression");
  unsigned Width = Evaluated.get_sort().bv_size();
  uint64_t Narrow = 0;
  if (Evaluated.is_numeral_u64(Narrow))
    return BitValue(Width, Narrow);
  // Wide values: parse the decimal numeral string.
  return BitValue::fromString(Width, Evaluated.get_decimal_string(0), 10);
}

bool SmtContext::evalBool(const z3::model &Model, const z3::expr &Expr) {
  z3::expr Evaluated = Model.eval(Expr, /*model_completion=*/true);
  assert(Evaluated.is_bool() && "expected a boolean expression");
  return Evaluated.is_true();
}

z3::expr SmtContext::mkAnd(const std::vector<z3::expr> &Conjuncts) {
  z3::expr Result = Ctx.bool_val(true);
  for (const z3::expr &Conjunct : Conjuncts)
    Result = Result && Conjunct;
  return Result.simplify();
}

z3::expr SmtContext::mkOr(const std::vector<z3::expr> &Disjuncts) {
  z3::expr Result = Ctx.bool_val(false);
  for (const z3::expr &Disjunct : Disjuncts)
    Result = Result || Disjunct;
  return Result.simplify();
}

const char *selgen::smtFailureName(SmtFailure Failure) {
  switch (Failure) {
  case SmtFailure::None:
    return "none";
  case SmtFailure::Timeout:
    return "timeout";
  case SmtFailure::Rlimit:
    return "rlimit";
  case SmtFailure::Exception:
    return "exception";
  case SmtFailure::Deadline:
    return "deadline";
  }
  SELGEN_UNREACHABLE("bad failure kind");
}

SmtSolver::SmtSolver(SmtContext &Context, const char *Logic)
    : Context(Context), Solver(Context.ctx(), Logic) {}

void SmtSolver::setTimeoutMilliseconds(unsigned Milliseconds) {
  TimeoutMs = Milliseconds;
  z3::params Params(Context.ctx());
  Params.set("timeout", Milliseconds);
  Solver.set(Params);
}

void SmtSolver::setRlimit(uint64_t Budget) { Rlimit = Budget; }

void SmtSolver::setRetryScale(std::vector<unsigned> Scale) {
  if (Scale.empty())
    Scale = {1};
  RetryScale = std::move(Scale);
}

void SmtSolver::setDeadline(std::chrono::steady_clock::time_point NewDeadline) {
  HasDeadline = true;
  Deadline = NewDeadline;
}

void SmtSolver::clearDeadline() { HasDeadline = false; }

void SmtSolver::applyPolicy(const SolverPolicy &Policy) {
  setTimeoutMilliseconds(Policy.TimeoutMs);
  setRlimit(Policy.RlimitPerQuery);
  setRetryScale(Policy.RetryScale);
  if (Policy.DeadlineSeconds > 0)
    setDeadline(std::chrono::steady_clock::now() +
                std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(Policy.DeadlineSeconds)));
  else
    clearDeadline();
}

namespace {

/// Interrupts a Z3 context when the deadline passes, unless the check
/// it guards retires first. One watchdog exists only for the duration
/// of one check on a solver with an armed deadline; checks without a
/// deadline pay nothing.
///
/// The interrupt is scoped to its check by serializing with retire()
/// on the watchdog mutex: the timeout path inspects Retired and calls
/// Z3_interrupt while holding M, and the check path sets Retired under
/// the same M the moment Z3 hands the result back. Either retire()
/// wins — the watchdog sees the check returned and suppresses itself
/// (counted under "smt.stale_interrupts_suppressed") — or the watchdog
/// wins, in which case retire() blocks until the interrupt has landed,
/// so a late interrupt is confined to the window before attemptCheck
/// returns and can never fire into a later query's execution. (Should
/// Z3 latch a cancel delivered in that residual window, the next check
/// costs one spurious unknown, which the retry ladder absorbs.) A
/// plain load-then-interrupt guard would leave a TOCTOU hole between
/// the two steps; the shared mutex is what closes it.
class DeadlineWatchdog {
public:
  DeadlineWatchdog(z3::context &Ctx,
                   std::chrono::steady_clock::time_point Deadline)
      : Thread([this, &Ctx, Deadline] {
          std::unique_lock<std::mutex> Lock(M);
          if (Cv.wait_until(Lock, Deadline, [this] { return Done; }))
            return; // Disarmed before the deadline.
          if (Retired) {
            // Fast-returning check, late-waking watchdog: interrupting
            // now would land on whatever the recycled solver runs next.
            Statistics::get().add("smt.stale_interrupts_suppressed");
            return;
          }
          Ctx.interrupt();
        }) {}

  /// Marks the guarded check as returned. On return, any interrupt
  /// this watchdog will ever issue has already been issued.
  void retire() {
    std::lock_guard<std::mutex> Guard(M);
    Retired = true;
  }

  ~DeadlineWatchdog() {
    {
      std::lock_guard<std::mutex> Guard(M);
      Done = true;
    }
    Cv.notify_all();
    Thread.join();
  }

private:
  mutable std::mutex M;
  std::condition_variable Cv;
  bool Done = false;
  bool Retired = false;
  std::thread Thread;
};

} // namespace

z3::check_result
SmtSolver::attemptCheck(const std::vector<z3::expr> *Assumptions,
                        unsigned Scale, SmtFailure &AttemptFailure) {
  AttemptFailure = SmtFailure::None;

  // A passed deadline short-circuits without touching the solver.
  if (HasDeadline && std::chrono::steady_clock::now() >= Deadline) {
    AttemptFailure = SmtFailure::Deadline;
    return z3::unknown;
  }

  // Apply the scaled budgets for this attempt. Both z3 params are
  // 32-bit; clamp the escalation instead of wrapping.
  if (TimeoutMs || Rlimit) {
    constexpr uint64_t Max32 = std::numeric_limits<unsigned>::max();
    z3::params Params(Context.ctx());
    uint64_t EffectiveTimeout = uint64_t(TimeoutMs) * Scale;
    if (HasDeadline) {
      auto Remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
                           Deadline - std::chrono::steady_clock::now())
                           .count();
      uint64_t RemainingMs = Remaining > 0 ? uint64_t(Remaining) : 1;
      EffectiveTimeout = EffectiveTimeout
                             ? std::min(EffectiveTimeout, RemainingMs)
                             : RemainingMs;
    }
    if (EffectiveTimeout)
      Params.set("timeout", unsigned(std::min(EffectiveTimeout, Max32)));
    if (Rlimit)
      Params.set("rlimit", unsigned(std::min(Rlimit * Scale, Max32)));
    Solver.set(Params);
  }

  // Arm the watchdog for this attempt. The check is retired (under the
  // watchdog's mutex) the moment it returns on every path below, so a
  // watchdog waking after that point suppresses its interrupt instead
  // of cancelling the next query.
  std::optional<DeadlineWatchdog> Watchdog;
  if (HasDeadline)
    Watchdog.emplace(Context.ctx(), Deadline);

  z3::check_result Result = z3::unknown;
  try {
    if (FaultInjector::get().shouldFire("solver_throw"))
      throw z3::exception("injected solver fault");
    if (FaultInjector::get().shouldFire("solver_unknown")) {
      if (Watchdog)
        Watchdog->retire();
      AttemptFailure = SmtFailure::Rlimit;
      return z3::unknown;
    }
    if (Assumptions) {
      z3::expr_vector Vector(Context.ctx());
      for (const z3::expr &Assumption : *Assumptions)
        Vector.push_back(Assumption);
      Result = Solver.check(Vector);
    } else {
      Result = Solver.check();
    }
    if (Watchdog)
      Watchdog->retire();
  } catch (const z3::exception &) {
    if (Watchdog)
      Watchdog->retire();
    Statistics::get().add("smt.exceptions");
    AttemptFailure = SmtFailure::Exception;
    return z3::unknown;
  } catch (const std::bad_alloc &) {
    if (Watchdog)
      Watchdog->retire();
    Statistics::get().add("smt.exceptions");
    AttemptFailure = SmtFailure::Exception;
    return z3::unknown;
  }

  // Deterministic seam for the watchdog-race regression test: park the
  // check thread past the deadline with the watchdog still armed, so
  // the watchdog is guaranteed to wake while this (already retired)
  // generation is the most recent one.
  if (Watchdog && FaultInjector::get().shouldFire("watchdog_late"))
    std::this_thread::sleep_until(Deadline + std::chrono::milliseconds(100));

  if (Result == z3::unknown) {
    // Destroying the watchdog disarms it and joins the thread.
    bool DeadlineFired = false;
    if (Watchdog) {
      Watchdog.reset();
      DeadlineFired = std::chrono::steady_clock::now() >= Deadline;
    }
    std::string Reason = Solver.reason_unknown();
    if (Reason.find("resource") != std::string::npos ||
        Reason.find("rlimit") != std::string::npos)
      AttemptFailure = SmtFailure::Rlimit;
    else if (DeadlineFired)
      AttemptFailure = SmtFailure::Deadline;
    else
      AttemptFailure = SmtFailure::Timeout;
  }
  return Result;
}

SmtResult SmtSolver::supervisedCheck(const std::vector<z3::expr> *Assumptions) {
  Timer Clock;
  LastFailure = SmtFailure::None;

  z3::check_result Result = z3::unknown;
  SmtFailure AttemptFailure = SmtFailure::None;
  for (size_t Attempt = 0; Attempt < RetryScale.size(); ++Attempt) {
    if (Attempt > 0)
      Statistics::get().add("smt.retries");
    Result = attemptCheck(Assumptions, RetryScale[Attempt], AttemptFailure);
    if (Result != z3::unknown)
      break;
    // Past the deadline there is no budget left to escalate into.
    if (AttemptFailure == SmtFailure::Deadline)
      break;
  }

  Statistics::get().add("smt.check_us",
                        static_cast<int64_t>(Clock.elapsedSeconds() * 1e6));
  Statistics::get().add("smt.checks");
  switch (Result) {
  case z3::sat:
    Statistics::get().add("smt.sat");
    return SmtResult::Sat;
  case z3::unsat:
    Statistics::get().add("smt.unsat");
    return SmtResult::Unsat;
  case z3::unknown:
    Statistics::get().add("smt.unknown");
    LastFailure = AttemptFailure == SmtFailure::None ? SmtFailure::Timeout
                                                     : AttemptFailure;
    if (LastFailure == SmtFailure::Rlimit)
      Statistics::get().add("smt.rlimit_exhausted");
    else if (LastFailure == SmtFailure::Deadline)
      Statistics::get().add("smt.deadline_expired");
    return SmtResult::Unknown;
  }
  SELGEN_UNREACHABLE("bad check result");
}

SmtResult SmtSolver::check() { return supervisedCheck(nullptr); }

SmtResult
SmtSolver::checkAssuming(const std::vector<z3::expr> &Assumptions) {
  return supervisedCheck(&Assumptions);
}
