//===- test_resume.cpp - Checkpoint/resume and fault-injection tests -----------===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//
//
// The robustness layer, proven rather than assumed:
//
//   * Fault determinism: a library synthesized under injected solver
//     faults is byte-identical to a clean run's.
//   * The headline end-to-end property: a selgen-synth run SIGKILLed
//     right after a goal's cache shard became durable (the
//     deterministic kill_after_finish crash point) and rerun on the
//     same --cache-dir produces a byte-identical rule library, serving
//     the published goals from the cache with zero re-synthesis; a
//     further rerun serves every goal from the cache without one
//     solver query.
//   * Content addressing: rerunning on the same cache with a different
//     goal set reuses only the matching shards and never mixes results.
//   * Fault sweep: under each injected fault class a run survives
//     (solver throws and unknowns, a torn shard write, a corrupt shard
//     read), the library equals a cacheless control's, the stats JSON
//     records the armed injection and carries every robustness
//     counter, and a clean rerun on the cache the faulted run left
//     behind yields the same library.
//   * Worker-crash sweep: pooled synthesis whose worker processes are
//     killed, hang or reply garbage still yields the control's library
//     and counts the crashes.
//
// The end-to-end tests exec the real selgen-synth binary, whose path
// the build injects as SELGEN_SYNTH_TOOL; the pooled runs spawn the
// selgen-solverd next to it.
//
//===----------------------------------------------------------------------===//

#include "pattern/ParallelBuilder.h"
#include "support/AtomicFile.h"
#include "support/FaultInjection.h"
#include "support/Statistics.h"
#include "x86/Goals.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

using namespace selgen;

namespace {

std::string freshDir(const std::string &Name) {
  std::string Dir = ::testing::TempDir() + "selgen_resume_" + Name;
  std::filesystem::remove_all(Dir);
  std::filesystem::create_directories(Dir);
  return Dir;
}

} // namespace

//===----------------------------------------------------------------------===//
// Fault injection must never change a completed run's library.
//===----------------------------------------------------------------------===//

TEST(FaultDeterminism, SolverFaultsPreserveLibraryBytes) {
  GoalLibrary All = GoalLibrary::build(8, {"Basic"});
  GoalLibrary Goals =
      GoalLibrary::subset(std::move(All), {"mov_ri", "not_r", "and_rr"});

  SynthesisOptions Options;
  Options.Width = 8;
  Options.FindAllMinimal = true;
  Options.TimeBudgetSeconds = 30;
  Options.QueryTimeoutMs = 30000;
  Options.QueryRetryScale = {1, 1, 1}; // Ride over injected faults.

  ParallelBuildOptions Build;
  Build.NumThreads = 1;

  PatternDatabase Clean =
      synthesizeRuleLibraryParallel(Goals, Options, Build);

  ASSERT_TRUE(
      FaultInjector::get().configure("solver_throw@p=0.05,seed=11"));
  PatternDatabase Faulted =
      synthesizeRuleLibraryParallel(Goals, Options, Build);
  uint64_t Fired = FaultInjector::get().firedCount("solver_throw");
  FaultInjector::get().disarm();

  EXPECT_GT(Fired, 0u); // The sweep actually exercised the fault path.
  EXPECT_EQ(Clean.serialize(), Faulted.serialize());
}

//===----------------------------------------------------------------------===//
// End-to-end: SIGKILL mid-run, rerun on the same cache, byte-identical
// library.
//===----------------------------------------------------------------------===//

#ifdef SELGEN_SYNTH_TOOL

namespace {

/// Runs selgen-synth with \p Args (plus an optional SELGEN_FAULTS
/// value), stdout/stderr appended to \p LogPath; returns the raw wait
/// status.
int runTool(const std::vector<std::string> &Args, const std::string &Faults,
            const std::string &LogPath) {
  pid_t Child = ::fork();
  if (Child == 0) {
    if (!Faults.empty())
      ::setenv("SELGEN_FAULTS", Faults.c_str(), 1);
    else
      ::unsetenv("SELGEN_FAULTS");
    if (FILE *Log = ::freopen(LogPath.c_str(), "a", stdout))
      (void)Log;
    ::dup2(::fileno(stdout), ::fileno(stderr));
    std::vector<char *> Argv;
    std::string Tool = SELGEN_SYNTH_TOOL;
    Argv.push_back(Tool.data());
    std::vector<std::string> Mutable = Args;
    for (std::string &Arg : Mutable)
      Argv.push_back(Arg.data());
    Argv.push_back(nullptr);
    ::execv(Tool.c_str(), Argv.data());
    ::_exit(127);
  }
  int Status = 0;
  ::waitpid(Child, &Status, 0);
  return Status;
}

/// Runs selgen-synth on \p Goals at width 8 with the shared flags plus
/// \p Extra, and asserts a clean exit.
void runClean(const std::string &Goals, const std::vector<std::string> &Extra,
              const std::string &Faults, const std::string &LogPath) {
  std::vector<std::string> Args = {"--goals", Goals,  "--width",  "8",
                                   "--budget", "30",  "--threads", "2"};
  Args.insert(Args.end(), Extra.begin(), Extra.end());
  int Status = runTool(Args, Faults, LogPath);
  ASSERT_TRUE(WIFEXITED(Status) && WEXITSTATUS(Status) == 0)
      << "status " << Status << "\n"
      << readFileToString(LogPath).value_or("");
}

std::string fileBytes(const std::string &Path) {
  std::optional<std::string> Bytes = readFileToString(Path);
  EXPECT_TRUE(Bytes.has_value()) << Path;
  return Bytes.value_or("");
}

/// The value of counter \p Name in a --stats-json dump, or -1 if the
/// dump does not carry it.
int64_t counterValue(const std::string &Json, const std::string &Name) {
  std::string Key = "\"" + Name + "\": ";
  size_t Pos = Json.find(Key);
  if (Pos == std::string::npos)
    return -1;
  return std::stoll(Json.substr(Pos + Key.size()));
}

} // namespace

TEST(ResumeEndToEnd, KilledRunResumesByteIdentical) {
  std::string Dir = freshDir("endtoend");
  std::string Log = Dir + "/log.txt";
  const std::string Goals = "mov_ri,neg_r,not_r,add_rr";

  // Control: one uninterrupted, cacheless run.
  runClean(Goals, {"--no-cache", "--output", Dir + "/control.dat"}, "", Log);

  // Crash run: SIGKILL lands right after the second goal's shard is
  // durable — the worst possible moment short of tearing a write. One
  // thread, so exactly two goals have finished.
  int Status = runTool({"--goals", Goals, "--width", "8", "--budget", "30",
                        "--threads", "1", "--cache-dir", Dir + "/cache",
                        "--output", Dir + "/resumed.dat"},
                       "kill_after_finish@n=2", Log);
  ASSERT_TRUE(WIFSIGNALED(Status) && WTERMSIG(Status) == SIGKILL)
      << "status " << Status << "\n"
      << readFileToString(Log).value_or("");
  EXPECT_FALSE(std::filesystem::exists(Dir + "/resumed.dat"));

  // Rerun on the same cache: the two published goals are served with
  // zero re-synthesis, the remaining two run, and the library comes
  // out byte-identical.
  runClean(Goals,
           {"--cache-dir", Dir + "/cache", "--output", Dir + "/resumed.dat",
            "--stats-json", Dir + "/stats.json"},
           "", Log);
  EXPECT_EQ(fileBytes(Dir + "/control.dat"), fileBytes(Dir + "/resumed.dat"));
  std::string Stats = fileBytes(Dir + "/stats.json");
  EXPECT_EQ(counterValue(Stats, "cache.hits"), 2) << Stats;

  // A fully warm rerun serves all four goals from the cache: the same
  // bytes with no solver query and no retry.
  runClean(Goals,
           {"--cache-dir", Dir + "/cache", "--output", Dir + "/warm.dat",
            "--stats-json", Dir + "/warm.json"},
           "", Log);
  EXPECT_EQ(fileBytes(Dir + "/control.dat"), fileBytes(Dir + "/warm.dat"));
  std::string Warm = fileBytes(Dir + "/warm.json");
  EXPECT_EQ(counterValue(Warm, "cache.hits"), 4) << Warm;
  EXPECT_EQ(counterValue(Warm, "smt.checks"), 0) << Warm;
  EXPECT_EQ(counterValue(Warm, "smt.retries"), 0) << Warm;
}

TEST(ResumeEndToEnd, ChangedGoalSetNeverMixes) {
  std::string Dir = freshDir("changedgoals");
  std::string Log = Dir + "/log.txt";

  runClean("mov_ri", {"--cache-dir", Dir + "/cache", "--output",
                      Dir + "/first.dat"},
           "", Log);
  runClean("mov_ri,not_r", {"--no-cache", "--output", Dir + "/control.dat"},
           "", Log);

  // Same cache, larger goal set: mov_ri's shard is reused, not_r's key
  // misses and is solved, and nothing from the first run leaks into
  // not_r's rules.
  runClean("mov_ri,not_r",
           {"--cache-dir", Dir + "/cache", "--output", Dir + "/second.dat",
            "--stats-json", Dir + "/stats.json"},
           "", Log);
  EXPECT_EQ(fileBytes(Dir + "/control.dat"), fileBytes(Dir + "/second.dat"));
  std::string Stats = fileBytes(Dir + "/stats.json");
  EXPECT_EQ(counterValue(Stats, "cache.hits"), 1) << Stats;
}

//===----------------------------------------------------------------------===//
// Fault sweep: every survivable fault class leaves the library intact.
//===----------------------------------------------------------------------===//

namespace {

/// Counters every selgen-synth stats dump carries, at worst as zero, so
/// dashboards and sweeps can gate on them without probing for presence.
const char *const RobustnessCounters[] = {
    "smt.retries",          "smt.exceptions",
    "smt.rlimit_exhausted", "smt.deadline_expired",
    "smt.stale_interrupts_suppressed",
    "cegis.bad_models",     "cache.corrupt_shards",
    "synth.escalations",    "pool.spawns",
    "pool.recycles",        "pool.crashes",
    "pool.respawn_retries", "pool.deadline_kills",
    "pool.queries",         "pool.stalled_ms"};

struct FaultCase {
  const char *Name;
  const char *Spec;
  /// The read-side shard fault needs shards to read: fill the cache
  /// with a clean run first.
  bool Prewarm;
};

void PrintTo(const FaultCase &Case, std::ostream *Out) { *Out << Case.Spec; }

class FaultSweep : public ::testing::TestWithParam<FaultCase> {};

} // namespace

TEST_P(FaultSweep, LibraryMatchesControlAndCountersLand) {
  const FaultCase &Case = GetParam();
  std::string Dir = freshDir(std::string("sweep_") + Case.Name);
  std::string Log = Dir + "/log.txt";
  const std::string Goals = "mov_ri,neg_r,not_r,add_rr,sub_rr,and_rr,inc_r";

  runClean(Goals, {"--no-cache", "--output", Dir + "/control.dat"}, "", Log);
  // Each case gets its own cold cache, so the shard read/write fault
  // sites are actually on the path.
  if (Case.Prewarm)
    runClean(Goals,
             {"--cache-dir", Dir + "/cache", "--output", Dir + "/prewarm.dat"},
             "", Log);
  runClean(Goals,
           {"--cache-dir", Dir + "/cache", "--output", Dir + "/faulted.dat",
            "--stats-json", Dir + "/stats.json", "--failures-json",
            Dir + "/failures.json"},
           Case.Spec, Log);

  EXPECT_EQ(fileBytes(Dir + "/control.dat"), fileBytes(Dir + "/faulted.dat"));
  std::string Stats = fileBytes(Dir + "/stats.json");
  EXPECT_EQ(counterValue(Stats, "faults.armed"), 1) << Stats;
  // The run went through the fault path, not around it.
  EXPECT_GE(counterValue(Stats, "faults." + std::string(Case.Name) + ".fired"),
            1)
      << Stats;
  for (const char *Counter : RobustnessCounters)
    EXPECT_GE(counterValue(Stats, Counter), 0) << "missing " << Counter;
  std::string Failures = fileBytes(Dir + "/failures.json");
  EXPECT_EQ(Failures.find("\"goal\""), std::string::npos) << Failures;

  // Whatever the faulted run left in the cache (a torn shard, a
  // quarantined one) must serve a clean rerun the same library.
  runClean(Goals,
           {"--cache-dir", Dir + "/cache", "--output", Dir + "/rerun.dat"},
           "", Log);
  EXPECT_EQ(fileBytes(Dir + "/control.dat"), fileBytes(Dir + "/rerun.dat"));
}

INSTANTIATE_TEST_SUITE_P(
    SurvivableFaults, FaultSweep,
    ::testing::Values(FaultCase{"solver_throw", "solver_throw@p=0.05", false},
                      FaultCase{"solver_unknown", "solver_unknown@p=0.05",
                                false},
                      FaultCase{"shard_truncate", "shard_truncate@n=2", false},
                      FaultCase{"shard_read", "shard_read@n=2", true}),
    [](const ::testing::TestParamInfo<FaultCase> &Info) {
      return std::string(Info.param.Name);
    });

//===----------------------------------------------------------------------===//
// Worker-crash sweep: pooled synthesis survives every worker fault.
//===----------------------------------------------------------------------===//

namespace {

/// A worker-process fault class at one pool size. n=2 because the kill
/// and garbage triggers count per worker process: a respawned worker
/// answers the retried query before failing again, where n=1 would fail
/// every respawn and exhaust the retry budget. The hang trigger counts
/// the pool's requests, so it fires once per run and costs one
/// deadline kill.
struct WorkerFaultCase {
  const char *Name;
  const char *Spec;
  unsigned PoolSize;
  /// pool.deadline_kills the run must count.
  int DeadlineKills;
};

void PrintTo(const WorkerFaultCase &Case, std::ostream *Out) {
  *Out << Case.Spec << " pool " << Case.PoolSize;
}

class WorkerCrashSweep : public ::testing::TestWithParam<WorkerFaultCase> {};

} // namespace

TEST_P(WorkerCrashSweep, LibraryMatchesControlAndCrashesAreCounted) {
  // Pooled synthesis (--solver-pool) under a worker that crashes, hangs
  // or answers garbage: the scheduler must survive, finish with the
  // in-process control's library and count the crashes it absorbed.
  // The short budget arms per-query deadlines without binding (these
  // goals take well under a second), and the small grace keeps each
  // hang's deadline kill to seconds.
  const WorkerFaultCase &Case = GetParam();
  std::string Dir = freshDir(std::string("workers_") + Case.Name + "_p" +
                             std::to_string(Case.PoolSize));
  std::string Log = Dir + "/log.txt";
  const std::string Goals = "mov_ri,neg_r,not_r,add_rr,sub_rr,and_rr,inc_r";
  const std::string Pool = std::to_string(Case.PoolSize);

  runClean(Goals, {"--no-cache", "--output", Dir + "/control.dat"}, "", Log);
  int Status = runTool({"--goals", Goals, "--width", "8", "--budget", "4",
                        "--no-cache", "--threads", Pool, "--solver-pool",
                        Pool, "--pool-grace", "1", "--output",
                        Dir + "/pooled.dat", "--stats-json",
                        Dir + "/stats.json"},
                       Case.Spec, Log);
  ASSERT_TRUE(WIFEXITED(Status) && WEXITSTATUS(Status) == 0)
      << "status " << Status << "\n"
      << readFileToString(Log).value_or("");

  EXPECT_EQ(fileBytes(Dir + "/control.dat"), fileBytes(Dir + "/pooled.dat"));
  std::string Stats = fileBytes(Dir + "/stats.json");
  EXPECT_GT(counterValue(Stats, "pool.crashes"), 0) << Stats;
  EXPECT_EQ(counterValue(Stats, "pool.deadline_kills"), Case.DeadlineKills)
      << Stats;
}

std::string workerCaseName(
    const ::testing::TestParamInfo<WorkerFaultCase> &Info) {
  return std::string(Info.param.Name);
}

// Pool size 1 runs with the rest of the suite. Pool size 4 joins it in
// the full sweep, which tests/CMakeLists.txt registers under the
// worker-sweep label.
INSTANTIATE_TEST_SUITE_P(
    PoolOfOne, WorkerCrashSweep,
    ::testing::Values(WorkerFaultCase{"worker_kill", "worker_kill@n=2", 1, 0},
                      WorkerFaultCase{"worker_garbage_reply",
                                      "worker_garbage_reply@n=2", 1, 0},
                      WorkerFaultCase{"worker_hang", "worker_hang@n=2", 1, 1}),
    workerCaseName);
INSTANTIATE_TEST_SUITE_P(
    PoolOfFour, WorkerCrashSweep,
    ::testing::Values(WorkerFaultCase{"worker_kill", "worker_kill@n=2", 4, 0},
                      WorkerFaultCase{"worker_garbage_reply",
                                      "worker_garbage_reply@n=2", 4, 0},
                      WorkerFaultCase{"worker_hang", "worker_hang@n=2", 4, 1}),
    workerCaseName);

#endif // SELGEN_SYNTH_TOOL
