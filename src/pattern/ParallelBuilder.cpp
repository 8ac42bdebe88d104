//===- ParallelBuilder.cpp - Work-stealing library synthesis ------------------===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//

#include "pattern/ParallelBuilder.h"

#include "smt/SolverPool.h"
#include "support/Statistics.h"
#include "support/Timer.h"
#include "synth/SpecFingerprint.h"
#include "synth/TestCorpus.h"
#include "synth/WorkerProtocol.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <map>
#include <mutex>
#include <numeric>
#include <optional>
#include <thread>

using namespace selgen;

namespace {

/// Minimum enumeration ranks per chunk when splitting a size's multiset
/// range; sizes below this run as a single chunk.
constexpr uint64_t MinChunkRanks = 32;
/// Upper bound on chunks per (goal, size), as a multiple of the worker
/// count.
constexpr uint64_t ChunksPerThread = 4;

/// One schedulable unit.
struct Task {
  enum Kind {
    StartGoal, ///< Cache probe + memory pre-analysis + first size.
    Chunk,     ///< One rank sub-range of one size's enumeration.
  };
  Kind TaskKind = StartGoal;
  size_t GoalIndex = 0;
  unsigned Size = 0;        ///< Chunk only.
  uint64_t BeginRank = 0;   ///< Chunk only.
  uint64_t EndRank = 0;     ///< Chunk only.
  unsigned OwnerWorker = 0; ///< Worker whose deque first held the task.
};

/// A mutex-protected work-stealing deque. The owner pushes and pops at
/// the back (LIFO, keeps a worker on the goal it just split); thieves
/// take from the front, i.e. the far end of a split rank range. Chunk
/// granularity is coarse (whole CEGIS runs), so a mutex per deque is
/// nowhere near contention.
class WorkDeque {
public:
  void push(Task T) {
    std::lock_guard<std::mutex> Guard(M);
    Items.push_back(T);
  }
  bool popBack(Task &T) {
    std::lock_guard<std::mutex> Guard(M);
    if (Items.empty())
      return false;
    T = Items.back();
    Items.pop_back();
    return true;
  }
  bool stealFront(Task &T) {
    std::lock_guard<std::mutex> Guard(M);
    if (Items.empty())
      return false;
    T = Items.front();
    Items.pop_front();
    return true;
  }

private:
  std::mutex M;
  std::deque<Task> Items;
};

/// Shared per-goal synthesis state.
struct GoalState {
  const GoalInstruction *Goal = nullptr;
  SynthesisOptions Options; ///< Effective (per-goal) options.

  // Written by the StartGoal task, read-only afterwards.
  SynthesisPlan Plan;
  std::string CacheKey;
  bool CacheHit = false;
  /// The goal's shared counterexample corpus (from the scheduler's
  /// CorpusStore, keyed by goal fingerprint): internally locked, so
  /// all chunks of the goal — stolen or not — screen against and feed
  /// one test pool with no extra synchronization here.
  std::shared_ptr<TestCorpus> Corpus;

  // Guarded by M while chunks of one size run concurrently.
  std::mutex M;
  std::set<std::string> Fingerprints;
  GoalSynthesisResult Result;
  unsigned PendingChunks = 0;
  /// Completed chunk results of the current size, keyed by BeginRank;
  /// merged in ascending rank order so the pattern set matches a
  /// sequential run.
  std::map<uint64_t, GoalSynthesisResult> SizeBuffer;

  /// Wall time the solver pool burned on condemned worker attempts
  /// (crashes, deadline kills) for this goal's chunks. Refunded from
  /// the budget accounting below: a hung worker stalls the pool for
  /// its query budget + grace before being SIGKILLed, and charging
  /// that against the goal's budget would push runs that recover
  /// from faults over budgets the fault-free run stays inside —
  /// breaking byte-identity with the in-process path.
  std::atomic<int64_t> PoolStallMs{0};

  /// Wall seconds elapsed on the goal minus refunded pool stalls —
  /// the value budget enforcement compares against.
  double budgetElapsedSeconds() {
    return Wall.elapsedSeconds() -
           static_cast<double>(PoolStallMs.load(std::memory_order_relaxed)) /
               1000.0;
  }

  // Telemetry.
  Timer Wall; ///< Reset when the goal is picked up.
  double QueueWaitSeconds = 0;
  double SolverSeconds = 0;
  unsigned Chunks = 0;
  unsigned StolenChunks = 0;
};

class Scheduler {
public:
  Scheduler(const GoalLibrary &Library, const SynthesisOptions &BaseOptions,
            const ParallelBuildOptions &Build)
      : Build(Build) {
    NumThreads = Build.NumThreads;
    if (NumThreads == 0)
      NumThreads = std::max(1u, std::thread::hardware_concurrency());

    States = std::vector<GoalState>(Library.goals().size());
    for (size_t I = 0; I < Library.goals().size(); ++I) {
      GoalState &S = States[I];
      S.Goal = &Library.goals()[I];
      S.Options = BaseOptions;
      S.Options.MaxPatternSize = S.Goal->MaxPatternSize;
      if (std::find(Build.TotalModeGoals.begin(), Build.TotalModeGoals.end(),
                    S.Goal->Name) != Build.TotalModeGoals.end())
        S.Options.RequireTotalPatterns = true;
    }
    RemainingGoals = States.size();
    Deques = std::vector<WorkDeque>(NumThreads);
  }

  void run() {
    std::vector<size_t> Order(States.size());
    std::iota(Order.begin(), Order.end(), 0);
    runRound(Order);

    // End-of-run escalation pass: before the library is finalized,
    // every incomplete goal gets one retry with all budgets scaled up.
    // A transiently slow query (or an injected fault) then costs one
    // extra attempt, not a hole in the library.
    if (Build.EscalationFactor > 1) {
      std::vector<size_t> Incomplete;
      for (size_t I = 0; I < States.size(); ++I)
        if (!States[I].Result.Complete)
          Incomplete.push_back(I);
      if (!Incomplete.empty()) {
        Statistics::get().add("synth.escalations",
                              static_cast<int64_t>(Incomplete.size()));
        for (size_t I : Incomplete)
          resetForEscalation(States[I]);
        runRound(Incomplete);
      }
    }
  }

  std::vector<GoalState> &states() { return States; }
  unsigned numThreads() const { return NumThreads; }

private:
  const ParallelBuildOptions &Build;
  unsigned NumThreads = 1;
  std::vector<GoalState> States;
  std::vector<WorkDeque> Deques;
  std::atomic<size_t> RemainingGoals{0};
  CorpusStore Corpora;
  Timer SchedulerClock;

  std::mutex IdleMutex;
  std::condition_variable IdleCv;

  void notifyWorkers() { IdleCv.notify_all(); }

  /// Seeds the deques with StartGoal tasks for \p Indices (longest
  /// iterative-deepening caps first: those are the likeliest long
  /// poles, and starting them early gives the splitter the most room),
  /// then runs workers until all of them finish.
  void runRound(std::vector<size_t> Indices) {
    std::stable_sort(Indices.begin(), Indices.end(), [&](size_t A, size_t B) {
      return States[A].Goal->MaxPatternSize > States[B].Goal->MaxPatternSize;
    });
    RemainingGoals = Indices.size();
    for (size_t I = 0; I < Indices.size(); ++I) {
      Task T;
      T.TaskKind = Task::StartGoal;
      T.GoalIndex = Indices[I];
      T.OwnerWorker = static_cast<unsigned>(I % NumThreads);
      Deques[T.OwnerWorker].push(T);
    }

    std::vector<std::thread> Threads;
    for (unsigned W = 0; W < NumThreads; ++W)
      Threads.emplace_back([this, W] { workerMain(W); });
    for (std::thread &T : Threads)
      T.join();
  }

  /// Resets a goal's synthesis state for the escalation retry; its
  /// counterexample corpus is kept (tests stay valid), everything else
  /// restarts from scratch under the scaled budgets.
  void resetForEscalation(GoalState &S) {
    unsigned Factor = Build.EscalationFactor;
    S.Options.TimeBudgetSeconds *= Factor;
    S.Options.QueryTimeoutMs *= Factor;
    S.Options.QueryRlimit *= Factor;
    GoalSynthesisResult Fresh;
    Fresh.GoalName = S.Goal->Name;
    S.Result = std::move(Fresh);
    S.Fingerprints.clear();
    S.SizeBuffer.clear();
    S.PendingChunks = 0;
    S.CacheHit = false;
    S.SolverSeconds = 0;
    S.Chunks = 0;
    S.StolenChunks = 0;
  }

  bool popOwnOrSteal(unsigned WorkerId, Task &T) {
    if (Deques[WorkerId].popBack(T))
      return true;
    for (unsigned Offset = 1; Offset < NumThreads; ++Offset) {
      unsigned Victim = (WorkerId + Offset) % NumThreads;
      if (Deques[Victim].stealFront(T))
        return true;
    }
    return false;
  }

  void workerMain(unsigned WorkerId) {
    // The worker's only Z3 context (contexts are confined to a thread
    // and cost ~16 MB each): runChunk replaces it per chunk, startGoal
    // reuses it.
    std::optional<SmtContext> Smt;
    Task T;
    while (true) {
      if (popOwnOrSteal(WorkerId, T)) {
        if (T.TaskKind == Task::StartGoal)
          startGoal(WorkerId, Smt, T);
        else
          runChunk(WorkerId, Smt, T);
        continue;
      }
      if (RemainingGoals.load() == 0)
        return;
      // Chunks in flight may spawn follow-up sizes; nap briefly. The
      // timeout bounds any missed notify.
      std::unique_lock<std::mutex> Lock(IdleMutex);
      IdleCv.wait_for(Lock, std::chrono::milliseconds(2));
    }
  }

  /// Start-up work (cache key, plan, spec fingerprint) does not depend
  /// on context history, so it runs on whatever context the worker
  /// holds, creating one only if it has none.
  void startGoal(unsigned WorkerId, std::optional<SmtContext> &Smt,
                 const Task &T) {
    GoalState &S = States[T.GoalIndex];
    if (!Smt)
      Smt.emplace();
    S.QueueWaitSeconds = SchedulerClock.elapsedSeconds();
    S.Wall.reset();
    S.PoolStallMs.store(0, std::memory_order_relaxed);
    S.Result.GoalName = S.Goal->Name;

    if (Build.Cache) {
      S.CacheKey = synthesisCacheKey(*Smt, *S.Goal->Spec, S.Options);
      if (std::optional<GoalSynthesisResult> Cached =
              Build.Cache->lookup(S.CacheKey)) {
        Statistics::get().add("cache.hits");
        S.CacheHit = true;
        S.Result = std::move(*Cached);
        finishGoal(S);
        return;
      }
      Statistics::get().add("cache.misses");
    }

    Synthesizer Synth(*Smt, S.Options);
    S.Plan = Synth.plan(*S.Goal->Spec);
    S.Corpus = Corpora.getOrCreate(
        instrSpecFingerprint(*Smt, *S.Goal->Spec, S.Options.Width),
        S.Options.CorpusCapacity);
    scheduleSize(WorkerId, T.GoalIndex, S.Plan.MinSize);
  }

  void scheduleSize(unsigned WorkerId, size_t GoalIndex, unsigned Size) {
    GoalState &S = States[GoalIndex];
    uint64_t NumRanks = Synthesizer::numMultisets(S.Plan, Size);
    if (NumRanks == 0) {
      // Degenerate (empty alphabet): nothing at this size.
      advanceAfterSize(WorkerId, GoalIndex, Size, /*Found=*/false);
      return;
    }

    uint64_t NumChunks = std::max<uint64_t>(
        1, std::min(NumThreads * ChunksPerThread, NumRanks / MinChunkRanks));
    {
      std::lock_guard<std::mutex> Guard(S.M);
      S.PendingChunks = static_cast<unsigned>(NumChunks);
      S.SizeBuffer.clear();
    }

    uint64_t Base = NumRanks / NumChunks;
    uint64_t Extra = NumRanks % NumChunks;
    uint64_t Begin = 0;
    for (uint64_t C = 0; C < NumChunks; ++C) {
      uint64_t Length = Base + (C < Extra ? 1 : 0);
      Task Chunk;
      Chunk.TaskKind = Task::Chunk;
      Chunk.GoalIndex = GoalIndex;
      Chunk.Size = Size;
      Chunk.BeginRank = Begin;
      Chunk.EndRank = Begin + Length;
      Chunk.OwnerWorker = WorkerId;
      Begin += Length;
      Deques[WorkerId].push(Chunk);
    }
    Statistics::get().add("scheduler.chunks", static_cast<int64_t>(NumChunks));
    notifyWorkers();
  }

  void runChunk(unsigned WorkerId, std::optional<SmtContext> &Smt,
                const Task &T) {
    GoalState &S = States[T.GoalIndex];
    bool Stolen = T.OwnerWorker != WorkerId;
    if (Stolen)
      Statistics::get().add("scheduler.steals");

    double Budget = 0;
    if (S.Options.TimeBudgetSeconds > 0)
      Budget = std::max(0.001, S.Options.TimeBudgetSeconds -
                                   S.budgetElapsedSeconds());

    GoalSynthesisResult Outcome;
    if (Build.Pool && Build.Pool->usable()) {
      // Ship the chunk to a supervised worker process. The worker
      // replays it on a fresh context, exactly like the in-process
      // path below, so the outcome is bit-exact; what changes is that
      // a Z3 crash or hang costs one respawned child, not this
      // scheduler.
      RangeRequest Request;
      Request.GoalName = S.Goal->Name;
      Request.Options = S.Options;
      Request.Plan = S.Plan;
      Request.Size = T.Size;
      Request.BeginRank = T.BeginRank;
      Request.EndRank = T.EndRank;
      Request.BudgetSeconds = Budget;
      double Stalled = 0;
      Outcome = remoteSynthesizeRange(*Build.Pool, std::move(Request),
                                      *S.Corpus, &Stalled);
      if (Stalled > 0) {
        int64_t Ms = static_cast<int64_t>(Stalled * 1000.0);
        S.PoolStallMs.fetch_add(Ms, std::memory_order_relaxed);
        Statistics::get().add("pool.stalled_ms", Ms);
      }
    } else {
      // A fresh Z3 context per chunk: solver model-enumeration order
      // depends on context history, and capped multiset enumerations
      // (MaxPatternsPerMultiset) keep whichever representatives come
      // first — a fresh context makes each chunk's outcome independent
      // of what this worker happened to solve before (e.g. of which
      // other goals were cache hits). Each context costs 16.4 MB RSS
      // and 1.3-2.6 ms to build (Z3 4.8.12, 4-vCPU x86-64 host), small
      // next to a chunk's solver work. emplace destroys the worker's
      // previous context before it builds this one, so the two never
      // coexist.
      Smt.emplace();
      Synthesizer Synth(*Smt, S.Options);
      Outcome = Synth.synthesizeRange(*S.Goal->Spec, S.Plan, T.Size,
                                      T.BeginRank, T.EndRank, *S.Corpus,
                                      Budget);
    }

    bool Finalize = false;
    {
      std::lock_guard<std::mutex> Guard(S.M);
      S.SolverSeconds += Outcome.Seconds;
      ++S.Chunks;
      if (Stolen)
        ++S.StolenChunks;
      S.SizeBuffer.emplace(T.BeginRank, std::move(Outcome));
      Finalize = --S.PendingChunks == 0;
    }
    if (Finalize)
      finalizeSize(WorkerId, T.GoalIndex, T.Size);
  }

  void finalizeSize(unsigned WorkerId, size_t GoalIndex, unsigned Size) {
    GoalState &S = States[GoalIndex];
    bool Found = false;
    {
      std::lock_guard<std::mutex> Guard(S.M);
      for (auto &[Begin, Outcome] : S.SizeBuffer) {
        (void)Begin;
        if (!Outcome.Patterns.empty())
          Found = true;
        mergeSynthesisResult(S.Result, S.Fingerprints, std::move(Outcome),
                             S.Options.MaxPatternsPerGoal);
      }
      S.SizeBuffer.clear();
    }
    advanceAfterSize(WorkerId, GoalIndex, Size, Found);
  }

  /// The iterative-deepening decision, mirroring
  /// Synthesizer::synthesize: stop after the smallest productive size
  /// (FindAllMinimal), on budget expiry, or at the size cap.
  void advanceAfterSize(unsigned WorkerId, size_t GoalIndex, unsigned Size,
                        bool Found) {
    GoalState &S = States[GoalIndex];
    if (Found) {
      S.Result.MinimalSize = Size;
      if (S.Options.FindAllMinimal) {
        finishGoal(S);
        return;
      }
    }
    bool OverBudget = S.Options.TimeBudgetSeconds > 0 &&
                      S.budgetElapsedSeconds() > S.Options.TimeBudgetSeconds;
    if (OverBudget) {
      S.Result.markIncomplete(IncompleteCause::Budget);
      finishGoal(S);
      return;
    }
    if (Size >= S.Plan.MaxSize) {
      finishGoal(S);
      return;
    }
    scheduleSize(WorkerId, GoalIndex, Size + 1);
  }

  void finishGoal(GoalState &S) {
    if (!S.CacheHit) {
      S.Result.Seconds = S.SolverSeconds;
      if (Build.Cache && S.Result.Complete)
        Build.Cache->store(S.CacheKey, S.Result);
    }

    GoalTelemetry Telemetry;
    Telemetry.Goal = S.Goal->Name;
    Telemetry.Group = S.Goal->Group;
    Telemetry.CacheHit = S.CacheHit;
    Telemetry.Complete = S.Result.Complete;
    if (!S.Result.Complete)
      Telemetry.IncompleteCause = incompleteCauseName(S.Result.Cause);
    Telemetry.QueueWaitSeconds = S.QueueWaitSeconds;
    Telemetry.SolverSeconds = S.SolverSeconds;
    Telemetry.WallSeconds = S.Wall.elapsedSeconds();
    Telemetry.Counterexamples = S.Result.Counterexamples;
    Telemetry.MultisetsRun = S.Result.MultisetsRun;
    Telemetry.MultisetsSkipped = S.Result.MultisetsSkipped;
    Telemetry.Patterns = S.Result.Patterns.size();
    Telemetry.Chunks = S.Chunks;
    Telemetry.StolenChunks = S.StolenChunks;
    Telemetry.PrescreenKills = S.Result.PrescreenKills;
    if (S.Corpus) {
      Telemetry.CorpusSize = S.Corpus->size();
      Telemetry.CorpusEvictions = S.Corpus->evictions();
    }
    Statistics::get().recordGoal(std::move(Telemetry));

    RemainingGoals.fetch_sub(1);
    notifyWorkers();
  }
};

} // namespace

PatternDatabase selgen::synthesizeRuleLibraryParallel(
    const GoalLibrary &Library, const SynthesisOptions &Options,
    const ParallelBuildOptions &Build, LibraryBuildReport *Report) {
  Timer Wall;
  Scheduler Sched(Library, Options, Build);
  Sched.run();

  std::vector<GoalSynthesisResult> Results;
  unsigned CacheHits = 0;
  for (GoalState &S : Sched.states()) {
    CacheHits += S.CacheHit;
    Results.push_back(std::move(S.Result));
  }
  PatternDatabase Database =
      collectRuleLibrary(Library, std::move(Results), Report);
  if (Report) {
    if (Build.Cache) {
      Report->CacheHits = CacheHits;
      Report->CacheMisses =
          static_cast<unsigned>(Sched.states().size()) - CacheHits;
    }
    Report->WallSeconds = Wall.elapsedSeconds();
  }
  return Database;
}
