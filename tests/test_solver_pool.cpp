//===- test_solver_pool.cpp - Out-of-process solver pool tests ----------------===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
// Three layers under test: the wire framing (torn/garbage frames must
// classify as corruption, never parse), the worker protocol encoding
// (lossless round-trips), and the live pool against the real
// selgen-solverd binary (crash respawn, recycling, deadline kills,
// and byte-identity of a pooled synthesis against the in-process
// path).
//
//===----------------------------------------------------------------------===//

#include "ir/Parser.h"
#include "ir/Printer.h"
#include "pattern/ParallelBuilder.h"
#include "smt/SolverPool.h"
#include "support/FaultInjection.h"
#include "support/Statistics.h"
#include "synth/WorkerProtocol.h"
#include "x86/Goals.h"

#include <gtest/gtest.h>

#include <dirent.h>
#include <fcntl.h>
#include <signal.h>
#include <thread>
#include <unistd.h>

using namespace selgen;

//===----------------------------------------------------------------------===//
// Wire framing
//===----------------------------------------------------------------------===//

namespace {

struct Pipe {
  int Read = -1;
  int Write = -1;
  Pipe() {
    int Fds[2] = {-1, -1};
    EXPECT_EQ(pipe(Fds), 0);
    Read = Fds[0];
    Write = Fds[1];
  }
  ~Pipe() {
    closeRead();
    closeWrite();
  }
  void closeRead() {
    if (Read >= 0)
      close(Read);
    Read = -1;
  }
  void closeWrite() {
    if (Write >= 0)
      close(Write);
    Write = -1;
  }
};

} // namespace

TEST(WireProtocol, FrameRoundTrip) {
  Pipe P;
  std::string Payload = "hello frames\n\x01\x02\x00 binary too";
  Payload.push_back('\0');
  ASSERT_TRUE(wire::writeFrame(P.Write, wire::Request, Payload));
  ASSERT_TRUE(wire::writeFrame(P.Write, wire::Shutdown, ""));

  wire::Frame Frame;
  ASSERT_EQ(wire::readFrame(P.Read, Frame), wire::ReadStatus::Ok);
  EXPECT_EQ(Frame.Type, wire::Request);
  EXPECT_EQ(Frame.Payload, Payload);
  ASSERT_EQ(wire::readFrame(P.Read, Frame), wire::ReadStatus::Ok);
  EXPECT_EQ(Frame.Type, wire::Shutdown);
  EXPECT_TRUE(Frame.Payload.empty());
}

TEST(WireProtocol, CleanEofBeforeAnyByte) {
  Pipe P;
  P.closeWrite();
  wire::Frame Frame;
  EXPECT_EQ(wire::readFrame(P.Read, Frame), wire::ReadStatus::Eof);
}

TEST(WireProtocol, TornFrameIsCorruptNotEof) {
  Pipe P;
  std::string Encoded = wire::encodeFrame(wire::Response, "torn payload");
  std::string Half = Encoded.substr(0, Encoded.size() / 2);
  ASSERT_TRUE(wire::writeAll(P.Write, Half));
  P.closeWrite();
  wire::Frame Frame;
  EXPECT_EQ(wire::readFrame(P.Read, Frame), wire::ReadStatus::Corrupt);
}

TEST(WireProtocol, BadMagicIsCorrupt) {
  Pipe P;
  ASSERT_TRUE(wire::writeAll(P.Write, std::string(32, 'X')));
  P.closeWrite();
  wire::Frame Frame;
  EXPECT_EQ(wire::readFrame(P.Read, Frame), wire::ReadStatus::Corrupt);
}

TEST(WireProtocol, FlippedPayloadByteFailsCrc) {
  Pipe P;
  std::string Encoded = wire::encodeFrame(wire::Response, "checksummed");
  Encoded[Encoded.size() - 3] ^= 0x40; // Inside the payload bytes.
  ASSERT_TRUE(wire::writeAll(P.Write, Encoded));
  P.closeWrite();
  wire::Frame Frame;
  EXPECT_EQ(wire::readFrame(P.Read, Frame), wire::ReadStatus::Corrupt);
}

TEST(WireProtocol, OversizedLengthIsCorruptWithoutAllocation) {
  Pipe P;
  std::string Encoded = wire::encodeFrame(wire::Request, "tiny");
  // Patch the length field (offset 5, u32 LE) to an absurd value; the
  // reader must reject it from the header alone.
  Encoded[5] = Encoded[6] = Encoded[7] = static_cast<char>(0xFF);
  Encoded[8] = 0x7F;
  ASSERT_TRUE(wire::writeAll(P.Write, Encoded));
  wire::Frame Frame;
  EXPECT_EQ(wire::readFrame(P.Read, Frame), wire::ReadStatus::Corrupt);
}

TEST(WireProtocol, ReadDeadlineExpiresAsTimeout) {
  Pipe P;
  // Write half a frame and keep the pipe open: the reader must give up
  // at its deadline instead of blocking forever.
  std::string Encoded = wire::encodeFrame(wire::Request, "never finished");
  ASSERT_TRUE(wire::writeAll(P.Write, Encoded.substr(0, 7)));
  wire::Frame Frame;
  EXPECT_EQ(wire::readFrame(P.Read, Frame, /*DeadlineMs=*/200),
            wire::ReadStatus::Timeout);
}

TEST(WireProtocol, WriteDeadlineExpiresAsTimeout) {
  Pipe P;
  // A peer that never drains its end (a wedged worker) eventually
  // fills the pipe; the writer must time out instead of blocking in
  // write(2) forever with no deadline kill ever firing.
  ASSERT_EQ(fcntl(P.Write, F_SETFL, O_NONBLOCK), 0);
  std::string Chunk(64 << 10, 'x');
  while (write(P.Write, Chunk.data(), Chunk.size()) > 0) {
  }
  EXPECT_EQ(wire::writeAll(P.Write, Chunk, /*DeadlineMs=*/200),
            wire::WriteStatus::Timeout);
}

TEST(WireProtocol, WriteToDeadPeerFailsInsteadOfKilling) {
  // With the default SIGPIPE disposition this test would not fail but
  // kill the whole binary — the pool ignores the signal in start() so
  // a worker that died while idle costs one respawned child, never the
  // scheduler.
  signal(SIGPIPE, SIG_IGN);
  Pipe P;
  P.closeRead();
  EXPECT_EQ(wire::writeAll(P.Write, "doomed", /*DeadlineMs=*/-1),
            wire::WriteStatus::Error);
  EXPECT_FALSE(wire::writeFrame(P.Write, wire::Request, "doomed"));
}

//===----------------------------------------------------------------------===//
// Worker protocol payloads
//===----------------------------------------------------------------------===//

TEST(WorkerProtocol, RangeRequestRoundTrip) {
  RangeRequest Request;
  Request.GoalName = "add_rr";
  Request.Options.Width = 16;
  Request.Options.Alphabet = {Opcode::Add, Opcode::Not, Opcode::Load};
  Request.Options.MaxPatternSize = 5;
  Request.Options.RequireTotalPatterns = true;
  Request.Options.UsePrescreen = false;
  Request.Options.QueryTimeoutMs = 1234;
  Request.Options.QueryRlimit = 777777;
  Request.Options.QueryRetryScale = {1, 4, 16};
  Request.Options.TimeBudgetSeconds = 12.5;
  Request.Options.MaxPatternsPerGoal = 99;
  Request.Options.MaxPatternsPerMultiset = 7;
  Request.Options.CorpusCapacity = 33;
  Request.Plan.Prefix = {Opcode::Load};
  Request.Plan.Alphabet = {Opcode::Add, Opcode::Not};
  Request.Plan.MinSize = 1;
  Request.Plan.MaxSize = 5;
  Request.Size = 3;
  Request.BeginRank = 10;
  Request.EndRank = 42;
  Request.BudgetSeconds = 3.25;

  TestCorpus::Entry Defined;
  Defined.Test = {BitValue(16, 0xBEEF), BitValue(16, 1)};
  ConcreteGoalOutcome Outcome;
  Outcome.Defined = true;
  Outcome.Results = {BitValue(16, 0xBEF0), BitValue(1, 1)};
  Defined.GoalOutcome = Outcome;
  Request.CorpusSeed.push_back(Defined);

  TestCorpus::Entry Undefined;
  Undefined.Test = {BitValue(16, 0), BitValue(16, 0)};
  ConcreteGoalOutcome Undef;
  Undef.Defined = false;
  Undefined.GoalOutcome = Undef;
  Request.CorpusSeed.push_back(Undefined);

  TestCorpus::Entry Unknown;
  Unknown.Test = {BitValue(16, 7), BitValue(16, 9)};
  Request.CorpusSeed.push_back(Unknown);

  std::string Error;
  std::optional<RangeRequest> Decoded =
      decodeRangeRequest(encodeRangeRequest(Request), &Error);
  ASSERT_TRUE(Decoded) << Error;
  EXPECT_EQ(Decoded->GoalName, "add_rr");
  EXPECT_EQ(Decoded->Options.Width, 16u);
  EXPECT_EQ(Decoded->Options.Alphabet, Request.Options.Alphabet);
  EXPECT_EQ(Decoded->Options.MaxPatternSize, 5u);
  EXPECT_TRUE(Decoded->Options.RequireTotalPatterns);
  EXPECT_FALSE(Decoded->Options.UsePrescreen);
  EXPECT_EQ(Decoded->Options.QueryTimeoutMs, 1234u);
  EXPECT_EQ(Decoded->Options.QueryRlimit, 777777u);
  EXPECT_EQ(Decoded->Options.QueryRetryScale, Request.Options.QueryRetryScale);
  EXPECT_EQ(Decoded->Options.TimeBudgetSeconds, 12.5);
  EXPECT_EQ(Decoded->Options.MaxPatternsPerGoal, 99u);
  EXPECT_EQ(Decoded->Options.MaxPatternsPerMultiset, 7u);
  EXPECT_EQ(Decoded->Options.CorpusCapacity, 33u);
  EXPECT_EQ(Decoded->Plan.Prefix, Request.Plan.Prefix);
  EXPECT_EQ(Decoded->Plan.Alphabet, Request.Plan.Alphabet);
  EXPECT_EQ(Decoded->Plan.MinSize, 1u);
  EXPECT_EQ(Decoded->Plan.MaxSize, 5u);
  EXPECT_EQ(Decoded->Size, 3u);
  EXPECT_EQ(Decoded->BeginRank, 10u);
  EXPECT_EQ(Decoded->EndRank, 42u);
  EXPECT_EQ(Decoded->BudgetSeconds, 3.25);

  ASSERT_EQ(Decoded->CorpusSeed.size(), 3u);
  EXPECT_EQ(Decoded->CorpusSeed[0].Test, Defined.Test);
  ASSERT_TRUE(Decoded->CorpusSeed[0].GoalOutcome);
  EXPECT_TRUE(Decoded->CorpusSeed[0].GoalOutcome->Defined);
  EXPECT_EQ(Decoded->CorpusSeed[0].GoalOutcome->Results, Outcome.Results);
  ASSERT_TRUE(Decoded->CorpusSeed[1].GoalOutcome);
  EXPECT_FALSE(Decoded->CorpusSeed[1].GoalOutcome->Defined);
  EXPECT_FALSE(Decoded->CorpusSeed[2].GoalOutcome);
}

TEST(WorkerProtocol, RangeReplyRoundTrip) {
  RangeReply Reply;
  GoalSynthesisResult &Result = Reply.Outcome;
  Result.GoalName = "add_rr";
  for (const char *Operands : {"a0, a1", "a1, a0"}) {
    std::optional<Graph> Pattern =
        parseGraph(std::string("graph w8 args(bv8, bv8) {\n  n0 = Add(") +
                   Operands + ")\n  results(n0)\n}\n");
    ASSERT_TRUE(Pattern);
    Result.Patterns.push_back(std::move(*Pattern));
  }
  Result.MinimalSize = 1;
  Result.markIncomplete(IncompleteCause::Rlimit);
  Result.Seconds = 0.25;
  Result.MultisetsConsidered = 18;
  Result.MultisetsSkipped = 5;
  Result.MultisetsRun = 13;
  Result.Counterexamples = 2;
  Result.SynthesisQueries = 30;
  Result.VerificationQueries = 4;
  Result.PrescreenKills = 11;
  Result.PrescreenInconclusive = 1;

  TestCorpus::Entry Defined;
  Defined.Test = {BitValue(8, 0xAB), BitValue(8, 1)};
  ConcreteGoalOutcome Outcome;
  Outcome.Defined = true;
  Outcome.Results = {BitValue(8, 0xAC), BitValue(1, 0)};
  Defined.GoalOutcome = Outcome;
  Reply.CorpusEntries.push_back(Defined);
  TestCorpus::Entry Unknown;
  Unknown.Test = {BitValue(8, 7), BitValue(8, 9)};
  Reply.CorpusEntries.push_back(Unknown);

  std::string Payload = encodeRangeReply(Reply);
  // The result travels as the very body a synthesis-cache shard holds.
  EXPECT_NE(Payload.find(encodeSynthesisResult(Result)), std::string::npos);

  std::string Error;
  std::optional<RangeReply> Decoded = decodeRangeReply(Payload, &Error);
  ASSERT_TRUE(Decoded) << Error;
  const GoalSynthesisResult &Got = Decoded->Outcome;
  EXPECT_EQ(Got.GoalName, "add_rr");
  EXPECT_FALSE(Got.Complete);
  EXPECT_EQ(Got.Cause, IncompleteCause::Rlimit);
  EXPECT_EQ(Got.MinimalSize, 1u);
  EXPECT_EQ(Got.Seconds, 0.25);
  EXPECT_EQ(Got.MultisetsConsidered, 18u);
  EXPECT_EQ(Got.MultisetsSkipped, 5u);
  EXPECT_EQ(Got.MultisetsRun, 13u);
  EXPECT_EQ(Got.Counterexamples, 2u);
  EXPECT_EQ(Got.SynthesisQueries, 30u);
  EXPECT_EQ(Got.VerificationQueries, 4u);
  EXPECT_EQ(Got.PrescreenKills, 11u);
  EXPECT_EQ(Got.PrescreenInconclusive, 1u);
  ASSERT_EQ(Got.Patterns.size(), 2u);
  for (size_t I = 0; I < 2; ++I)
    EXPECT_EQ(printGraph(Got.Patterns[I]), printGraph(Result.Patterns[I]));
  ASSERT_EQ(Decoded->CorpusEntries.size(), 2u);
  EXPECT_EQ(Decoded->CorpusEntries[0].Test, Defined.Test);
  ASSERT_TRUE(Decoded->CorpusEntries[0].GoalOutcome);
  EXPECT_EQ(Decoded->CorpusEntries[0].GoalOutcome->Results, Outcome.Results);
  EXPECT_EQ(Decoded->CorpusEntries[1].Test, Unknown.Test);
  EXPECT_FALSE(Decoded->CorpusEntries[1].GoalOutcome);

  // Cut anywhere before its final newline, the reply lacks the body's
  // `end` trailer (or breaks a line before it) and never decodes.
  for (size_t Cut = 0; Cut + 1 < Payload.size(); ++Cut)
    EXPECT_FALSE(decodeRangeReply(Payload.substr(0, Cut))) << "cut " << Cut;
}

TEST(WorkerProtocol, MalformedPayloadsDecodeToNullopt) {
  EXPECT_FALSE(decodeRangeRequest(""));
  EXPECT_FALSE(decodeRangeRequest("selgen-worker v2\nkind range\n"));
  EXPECT_FALSE(decodeRangeRequest("selgen-worker v2\nkind range\nbogus x\n"
                                  "end\n"));
  EXPECT_FALSE(decodeRangeReply("selgen-worker v2\nkind range\nend\n"));
  EXPECT_FALSE(decodeRangeReply("total garbage"));

  // Every number is checked, and a width must be one selgen-synth would
  // accept: a non-numeric width must not decode as 0, and a width of 12
  // must not reach the synthesizer.
  RangeRequest Request;
  Request.GoalName = "add_rr";
  std::string Valid = encodeRangeRequest(Request);
  ASSERT_TRUE(decodeRangeRequest(Valid));
  auto withLine = [&Valid](const std::string &Old, const std::string &New) {
    std::string Payload = Valid;
    size_t Pos = Payload.find(Old + "\n");
    EXPECT_NE(Pos, std::string::npos) << Old;
    return Payload.replace(Pos, Old.size(), New);
  };
  for (const char *Width : {"abc", "12", "0", "-8", "8x", " 8"})
    EXPECT_FALSE(decodeRangeRequest(withLine("width 8", "width " +
                                                           std::string(Width))))
        << "width " << Width;
  EXPECT_FALSE(decodeRangeRequest(withLine("rlimit 0", "rlimit -1")));
  EXPECT_FALSE(decodeRangeRequest(withLine("caps 512 32 512", "caps 512 32")));
  EXPECT_FALSE(
      decodeRangeRequest(withLine("retry-scale 1", "retry-scale 1 x")));
  EXPECT_FALSE(
      decodeRangeRequest(withLine("goal-budget 0", "goal-budget nan")));
  // A range outside the plan would underflow the enumeration.
  EXPECT_FALSE(decodeRangeRequest(withLine("range 0 0 0", "range 3 0 0")));
  EXPECT_FALSE(decodeRangeRequest(withLine("range 0 0 0", "range 0 5 2")));
}

//===----------------------------------------------------------------------===//
// Live pool against the real worker binary
//===----------------------------------------------------------------------===//

namespace {

SolverPoolOptions liveOptions(unsigned Workers) {
  SolverPoolOptions Options;
  Options.NumWorkers = Workers;
  Options.WorkerPath = SELGEN_SOLVERD_TOOL;
  // Tests control worker faults explicitly; an armed environment (CI
  // fault sweeps) must not leak into unrelated assertions.
  Options.WorkerEnv["SELGEN_FAULTS"] = "";
  return Options;
}

/// The probe every live-pool test sends: a small enumeration chunk of
/// mov_ri, with its outcome computed in-process on a fresh context,
/// exactly as ParallelBuilder::runChunk would.
struct Probe {
  RangeRequest Request;
  GoalSynthesisResult Expected;
};

const Probe &probe() {
  static const Probe P = [] {
    Probe P;
    GoalLibrary Goals =
        GoalLibrary::subset(GoalLibrary::build(8, {"Basic"}), {"mov_ri"});
    const GoalInstruction &Goal = Goals.goals().front();
    P.Request.GoalName = Goal.Name;
    P.Request.Options.Width = 8;
    P.Request.Options.MaxPatternSize = Goal.MaxPatternSize;
    {
      SmtContext Smt;
      P.Request.Plan = Synthesizer(Smt, P.Request.Options).plan(*Goal.Spec);
    }
    P.Request.Size = P.Request.Plan.MinSize;
    P.Request.EndRank = Synthesizer::numMultisets(P.Request.Plan,
                                                  P.Request.Size);
    SmtContext Smt;
    TestCorpus Corpus(P.Request.Options.CorpusCapacity);
    P.Expected = Synthesizer(Smt, P.Request.Options)
                     .synthesizeRange(*Goal.Spec, P.Request.Plan,
                                      P.Request.Size, P.Request.BeginRank,
                                      P.Request.EndRank, Corpus,
                                      P.Request.BudgetSeconds);
    return P;
  }();
  return P;
}

std::string probePayload() { return encodeRangeRequest(probe().Request); }

/// Runs the probe chunk through \p Pool and checks the worker's
/// outcome equals the in-process one.
void expectSolves(SolverPool &Pool, double Budget = 0) {
  PoolReply Reply = Pool.run(probePayload(), Budget);
  ASSERT_TRUE(Reply.Ok) << "failure: " << smtFailureName(Reply.Failure);
  std::optional<RangeReply> Decoded = decodeRangeReply(Reply.Payload);
  ASSERT_TRUE(Decoded);
  const GoalSynthesisResult &Got = Decoded->Outcome;
  const GoalSynthesisResult &Want = probe().Expected;
  // The probe must exercise a real solve.
  ASSERT_FALSE(Want.Patterns.empty());
  EXPECT_EQ(Got.Complete, Want.Complete);
  EXPECT_EQ(Got.Cause, Want.Cause);
  EXPECT_EQ(Got.MultisetsRun, Want.MultisetsRun);
  EXPECT_EQ(Got.Counterexamples, Want.Counterexamples);
  EXPECT_EQ(Got.SynthesisQueries, Want.SynthesisQueries);
  EXPECT_EQ(Got.VerificationQueries, Want.VerificationQueries);
  ASSERT_EQ(Got.Patterns.size(), Want.Patterns.size());
  for (size_t I = 0; I < Want.Patterns.size(); ++I)
    EXPECT_EQ(printGraph(Got.Patterns[I]), printGraph(Want.Patterns[I]));
}

/// Pids of live (non-zombie) selgen-solverd children of this process,
/// found by scanning /proc — the pool does not expose worker pids.
std::vector<pid_t> liveSolverdChildren() {
  std::vector<pid_t> Pids;
  DIR *Proc = opendir("/proc");
  if (!Proc)
    return Pids;
  while (struct dirent *Entry = readdir(Proc)) {
    char *End = nullptr;
    long Pid = std::strtol(Entry->d_name, &End, 10);
    if (Pid <= 0 || (End && *End))
      continue;
    std::string StatPath = "/proc/" + std::string(Entry->d_name) + "/stat";
    FILE *Stat = std::fopen(StatPath.c_str(), "r");
    if (!Stat)
      continue;
    char Comm[64] = {0};
    char State = '?';
    int ParentPid = 0;
    int Fields = std::fscanf(Stat, "%*d (%63[^)]) %c %d", Comm, &State,
                             &ParentPid);
    std::fclose(Stat);
    if (Fields == 3 && ParentPid == getpid() && State != 'Z' &&
        std::string(Comm) == "selgen-solverd")
      Pids.push_back(static_cast<pid_t>(Pid));
  }
  closedir(Proc);
  return Pids;
}

} // namespace

TEST(SolverPool, UnexecutableWorkerFailsStart) {
  SolverPoolOptions Options = liveOptions(1);
  Options.WorkerPath = "/nonexistent/selgen-solverd";
  SolverPool Pool(Options);
  EXPECT_FALSE(Pool.start());
  EXPECT_FALSE(Pool.usable());
}

TEST(SolverPool, WorkerKilledMidQueryIsRespawnedAndRetried) {
  // worker_kill@n=2: every worker process SIGKILLs itself on its 2nd
  // request, so query 2 crashes once, is retried on a fresh respawn
  // (whose 1st request succeeds), and so on — every query must still
  // come back correct, with the crashes visible in the counters.
  int64_t Crashes = Statistics::get().value("pool.crashes");
  int64_t Spawns = Statistics::get().value("pool.spawns");
  SolverPoolOptions Options = liveOptions(1);
  Options.WorkerEnv["SELGEN_FAULTS"] = "worker_kill@n=2";
  SolverPool Pool(Options);
  ASSERT_TRUE(Pool.start());
  expectSolves(Pool);
  expectSolves(Pool); // Crash + respawn + retry behind the scenes.
  expectSolves(Pool);
  EXPECT_GE(Statistics::get().value("pool.crashes"), Crashes + 1);
  EXPECT_GE(Statistics::get().value("pool.spawns"), Spawns + 2);
}

TEST(SolverPool, ExhaustedCrashRetriesSurfaceAsException) {
  // n=1 kills every respawn on its *first* request: no retry budget
  // can save the query, so it must surface as a typed Exception
  // failure — never hang or kill the caller.
  SolverPoolOptions Options = liveOptions(1);
  Options.WorkerEnv["SELGEN_FAULTS"] = "worker_kill@n=1";
  Options.MaxCrashRetries = 1;
  SolverPool Pool(Options);
  ASSERT_TRUE(Pool.start());
  PoolReply Reply = Pool.run(probePayload());
  EXPECT_FALSE(Reply.Ok);
  EXPECT_EQ(Reply.Failure, SmtFailure::Exception);
}

TEST(SolverPool, RecyclesAfterConfiguredQueries) {
  int64_t Recycles = Statistics::get().value("pool.recycles");
  SolverPoolOptions Options = liveOptions(1);
  Options.RecycleAfterQueries = 2;
  SolverPool Pool(Options);
  ASSERT_TRUE(Pool.start());
  for (unsigned I = 0; I < 5; ++I)
    expectSolves(Pool);
  // Recycled after queries 2 and 4; the replacement workers answered
  // seamlessly.
  EXPECT_GE(Statistics::get().value("pool.recycles"), Recycles + 2);
}

TEST(SolverPool, DeadlineKillClassifiesAsDeadline) {
  int64_t Kills = Statistics::get().value("pool.deadline_kills");
  // worker_hang fires in this (the pool's) process and counts the
  // pool's requests: the warm-up is request 1, the hang request 2, and
  // the respawned worker serves the health check after it.
  ASSERT_TRUE(FaultInjector::get().configure("worker_hang@n=2"));
  SolverPoolOptions Options = liveOptions(1);
  Options.GraceSeconds = 0.5;
  Options.MaxDeadlineRetries = 0;
  SolverPool Pool(Options);
  ASSERT_TRUE(Pool.start());
  expectSolves(Pool); // Warm-up: the worker's first (non-hanging) query.
  PoolReply Reply = Pool.run(probePayload(), /*BudgetSeconds=*/0.5);
  EXPECT_FALSE(Reply.Ok);
  EXPECT_EQ(Reply.Failure, SmtFailure::Deadline);
  EXPECT_GE(Statistics::get().value("pool.deadline_kills"), Kills + 1);
  // The ~1s (budget + grace) sunk into the hung attempt is reported
  // so budget-enforcing callers can refund it.
  EXPECT_GT(Reply.StalledSeconds, 0.4);
  // The pool replaced the hung worker; the next query is fine.
  expectSolves(Pool);
  EXPECT_EQ(Statistics::get().value("pool.deadline_kills"), Kills + 1);
  FaultInjector::get().disarm();
}

TEST(SolverPool, GarbageRepliesAreRejectedAndRetried) {
  SolverPoolOptions Options = liveOptions(1);
  Options.WorkerEnv["SELGEN_FAULTS"] = "worker_garbage_reply@n=2";
  SolverPool Pool(Options);
  ASSERT_TRUE(Pool.start());
  expectSolves(Pool);
  expectSolves(Pool); // Garbage frame, CRC reject, respawn, retry.
  expectSolves(Pool);
}

TEST(SolverPool, WorkerDeadWhileIdleCostsOneRespawnNotTheProcess) {
  // Regression: a worker that dies *between* queries (the OOM-killer
  // scenario) leaves the next request's write facing a reader-less
  // pipe. Without SIGPIPE ignored that write kills the scheduler;
  // with it, EPIPE classifies as a crash and costs one respawn.
  int64_t Crashes = Statistics::get().value("pool.crashes");
  SolverPool Pool(liveOptions(1));
  ASSERT_TRUE(Pool.start());
  expectSolves(Pool);

  std::vector<pid_t> Workers = liveSolverdChildren();
  ASSERT_EQ(Workers.size(), 1u);
  ASSERT_EQ(kill(Workers[0], SIGKILL), 0);
  // Once the child is gone from the live set (zombie or reaped) the
  // kernel has closed its pipe ends; the next write hits EPIPE.
  for (int I = 0; I < 5000 && !liveSolverdChildren().empty(); ++I)
    usleep(1000);
  ASSERT_TRUE(liveSolverdChildren().empty());

  expectSolves(Pool); // EPIPE -> crash -> respawn -> retry.
  EXPECT_GE(Statistics::get().value("pool.crashes"), Crashes + 1);
}

TEST(SolverPool, ShutdownDrainsInFlightQueries) {
  // shutdown() must wait for a checked-out worker instead of closing
  // its fds under the concurrent readFrame (and clearing Workers under
  // the run()'s slot reference).
  ASSERT_TRUE(FaultInjector::get().configure("worker_hang@n=1"));
  SolverPoolOptions Options = liveOptions(1);
  Options.GraceSeconds = 0.5;
  Options.MaxDeadlineRetries = 0;
  SolverPool Pool(Options);
  ASSERT_TRUE(Pool.start());

  PoolReply InFlight;
  std::string Payload = probePayload();
  std::thread Query([&] {
    InFlight = Pool.run(Payload, /*BudgetSeconds=*/0.3);
  });
  // Let the query check its worker out before shutting down.
  usleep(100 * 1000);
  Pool.shutdown();
  Query.join();

  // The in-flight query resolved normally (hung worker, deadline
  // kill), untouched by the concurrent shutdown.
  EXPECT_FALSE(InFlight.Ok);
  EXPECT_EQ(InFlight.Failure, SmtFailure::Deadline);
  // Post-shutdown queries fail typed instead of touching dead slots.
  PoolReply After = Pool.run(probePayload());
  EXPECT_FALSE(After.Ok);
  EXPECT_EQ(After.Failure, SmtFailure::Exception);
  FaultInjector::get().disarm();
}

TEST(SolverPool, WorkerErrorFrameIsNonRetryableFailure) {
  SolverPool Pool(liveOptions(1));
  ASSERT_TRUE(Pool.start());
  PoolReply Reply = Pool.run("this is not a request payload");
  EXPECT_FALSE(Reply.Ok);
  EXPECT_EQ(Reply.Failure, SmtFailure::Exception);
  EXPECT_FALSE(Reply.Payload.empty()); // Carries the worker's message.
  // A malformed request is the caller's bug, not the worker's: the
  // worker survives and keeps serving.
  expectSolves(Pool);
}

//===----------------------------------------------------------------------===//
// Byte-identity: pooled synthesis equals the in-process run
//===----------------------------------------------------------------------===//

TEST(SolverPool, PooledSynthesisIsByteIdenticalToInProcess) {
  GoalLibrary Goals = GoalLibrary::subset(
      GoalLibrary::build(8, {"Basic"}), {"neg_r", "not_r"});

  SynthesisOptions Options;
  Options.Width = 8;
  Options.TimeBudgetSeconds = 60;

  ParallelBuildOptions InProcess;
  InProcess.NumThreads = 2;
  std::string Baseline =
      synthesizeRuleLibraryParallel(Goals, Options, InProcess).serialize();

  SolverPool Pool(liveOptions(2));
  ASSERT_TRUE(Pool.start());
  ParallelBuildOptions Pooled;
  Pooled.NumThreads = 2;
  Pooled.Pool = &Pool;
  std::string Remote =
      synthesizeRuleLibraryParallel(Goals, Options, Pooled).serialize();

  EXPECT_EQ(Baseline, Remote);
}

TEST(SolverPool, PooledSynthesisSurvivesWorkerKillSweep) {
  GoalLibrary Goals = GoalLibrary::subset(
      GoalLibrary::build(8, {"Basic"}), {"neg_r", "not_r"});

  SynthesisOptions Options;
  Options.Width = 8;
  Options.TimeBudgetSeconds = 60;

  ParallelBuildOptions InProcess;
  InProcess.NumThreads = 2;
  std::string Baseline =
      synthesizeRuleLibraryParallel(Goals, Options, InProcess).serialize();

  SolverPoolOptions PoolOptions = liveOptions(2);
  PoolOptions.WorkerEnv["SELGEN_FAULTS"] = "worker_kill@n=2";
  SolverPool Pool(PoolOptions);
  ASSERT_TRUE(Pool.start());
  ParallelBuildOptions Pooled;
  Pooled.NumThreads = 2;
  Pooled.Pool = &Pool;
  std::string Faulted =
      synthesizeRuleLibraryParallel(Goals, Options, Pooled).serialize();

  // Crashes cost respawns and retries, never results.
  EXPECT_EQ(Baseline, Faulted);
}
