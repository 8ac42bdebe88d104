//===- test_serve.cpp - Compile-server tests -----------------------------------===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
// The compile server's contract is the same as the automaton
// selector's, one level up: machine code streamed back by a resident
// multi-threaded selgen-served must be byte-identical to what a
// single-shot `selgen-compile --selector auto` run produces under the
// same cost model. These tests cover the batch payload codec (total
// decoders), the multi-threaded SelectionService against sequential
// selection, the frame loop over a socketpair, and the real spawned
// server binary including its SIGTERM shutdown path.
//
//===----------------------------------------------------------------------===//

#include "eval/Workloads.h"
#include "refsel/ReferenceSelectors.h"
#include "serve/ImageReloader.h"
#include "serve/SelectionServer.h"
#include "support/FaultInjection.h"
#include "support/Wire.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>

#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace selgen;

namespace {

constexpr unsigned W = 8;

std::vector<std::string> allWorkloadNames() {
  std::vector<std::string> Names;
  for (const WorkloadProfile &Profile : cint2000Profiles())
    Names.push_back(Profile.Name);
  return Names;
}

/// The server-side fixture: one prepared library and the automaton
/// image compiled from it in memory.
struct ServeTest : public ::testing::Test {
  GoalLibrary Goals = GoalLibrary::build(W, GoalLibrary::allGroups());
  PatternDatabase Rules = buildGnuLikeRules(W);
  PreparedLibrary Library{Rules, Goals};
  MatcherAutomaton Compiled = buildMatcherAutomaton(Library);
  const BinaryAutomatonView &View = Compiled.view();

  /// What single-shot sequential selection produces for \p Name under
  /// cost model \p Kind.
  std::string sequentialAsm(const std::string &Name,
                            CostKind Kind = CostKind::Unit) {
    for (const WorkloadProfile &Profile : cint2000Profiles())
      if (Profile.Name == Name) {
        MappedAutomatonSelector Selector(Rules, Goals, Kind);
        return printMachineFunction(
            *Selector.select(buildWorkload(Profile, W)).MF);
      }
    ADD_FAILURE() << "unknown workload " << Name;
    return "";
  }
};

} // namespace

TEST(ServeProtocol, BatchRequestRoundTrips) {
  BatchRequest Request;
  Request.Id = 0xDEADBEEFCAFEull;
  Request.Width = 8;
  Request.Workloads = {"164.gzip", "300.twolf", "164.gzip"};
  std::string Error;
  std::optional<BatchRequest> Decoded =
      decodeBatchRequest(encodeBatchRequest(Request), &Error);
  ASSERT_TRUE(Decoded) << Error;
  EXPECT_EQ(Decoded->Id, Request.Id);
  EXPECT_EQ(Decoded->Width, Request.Width);
  EXPECT_EQ(Decoded->Workloads, Request.Workloads);

  BatchRequest Empty;
  Empty.Width = 16;
  ASSERT_TRUE(decodeBatchRequest(encodeBatchRequest(Empty), &Error));
}

TEST(ServeProtocol, BatchReplyRoundTrips) {
  BatchReply Reply;
  Reply.Id = 42;
  Reply.WallUs = 1234.5;
  BatchReply::Result R;
  R.Workload = "164.gzip";
  R.TotalOperations = 100;
  R.CoveredOperations = 90;
  R.FallbackOperations = 10;
  R.RulesTried = 1234;
  R.NodesVisited = 5678;
  R.SelectUs = 17.25;
  // Asm is a raw byte-counted block: newlines, spaces, and even the
  // codec's own keywords inside it must survive untouched.
  R.Asm = "f.automaton:\n  end\nresult fake 1 2 3\n";
  Reply.Results.push_back(R);
  Reply.Results.push_back(R);
  Reply.Results[1].Workload = "300.twolf";
  Reply.Results[1].Asm = ""; // Empty block is legal too.

  std::string Error;
  std::optional<BatchReply> Decoded =
      decodeBatchReply(encodeBatchReply(Reply), &Error);
  ASSERT_TRUE(Decoded) << Error;
  EXPECT_EQ(Decoded->Id, Reply.Id);
  EXPECT_DOUBLE_EQ(Decoded->WallUs, Reply.WallUs);
  ASSERT_EQ(Decoded->Results.size(), 2u);
  EXPECT_EQ(Decoded->Results[0].Asm, R.Asm);
  EXPECT_EQ(Decoded->Results[0].RulesTried, R.RulesTried);
  EXPECT_EQ(Decoded->Results[0].NodesVisited, R.NodesVisited);
  EXPECT_DOUBLE_EQ(Decoded->Results[0].SelectUs, R.SelectUs);
  EXPECT_EQ(Decoded->Results[1].Workload, "300.twolf");
  EXPECT_EQ(Decoded->Results[1].Asm, "");
}

TEST(ServeProtocol, DecodersAreTotal) {
  std::string Error;
  EXPECT_FALSE(decodeBatchRequest("", &Error));
  EXPECT_FALSE(decodeBatchRequest("garbage\n", &Error));
  EXPECT_FALSE(decodeBatchRequest("selgen-serve-batch-v1\n", &Error));
  EXPECT_FALSE(decodeBatchRequest(
      "selgen-serve-batch-v1\nid 1\nwidth 8\n", &Error))
      << "missing end trailer must be rejected";
  EXPECT_FALSE(decodeBatchRequest(
      "selgen-serve-batch-v1\nid 1\nwidth 0\nend\n", &Error));
  EXPECT_FALSE(decodeBatchRequest(
      "selgen-serve-batch-v1\nid x\nwidth 8\nend\n", &Error));
  EXPECT_FALSE(decodeBatchRequest(
      "selgen-serve-batch-v1\nid 1\nwidth 8\nend\nextra\n", &Error));

  BatchReply Reply;
  BatchReply::Result R;
  R.Workload = "164.gzip";
  R.Asm = "some asm\n";
  Reply.Results.push_back(R);
  std::string Good = encodeBatchReply(Reply);
  EXPECT_TRUE(decodeBatchReply(Good, &Error)) << Error;
  // A lying asm byte count cannot read out of the payload.
  std::string Lying = Good;
  size_t Pos = Lying.find(" 9\n"); // R.Asm.size() == 9.
  ASSERT_NE(Pos, std::string::npos);
  Lying.replace(Pos, 3, " 9999999\n");
  EXPECT_FALSE(decodeBatchReply(Lying, &Error));
  EXPECT_FALSE(decodeBatchReply(Good.substr(0, Good.size() / 2), &Error));
  EXPECT_FALSE(decodeBatchReply("", &Error));
}

TEST_F(ServeTest, ConcurrentBatchesMatchSequentialSelection) {
  // The acceptance bar: a multi-threaded service compiling a shuffled,
  // duplicated batch returns, per entry, bytes identical to one-shot
  // sequential selection under the same cost model — first-match
  // (unit) and the tiling pre-pass (latency) alike.
  BatchRequest Request;
  Request.Id = 7;
  Request.Width = W;
  for (int Round = 0; Round < 3; ++Round)
    for (const std::string &Name : allWorkloadNames())
      Request.Workloads.push_back(Name);

  std::string Error;
  std::string Path = ::testing::TempDir() + "serve_concurrent.matb";
  ASSERT_TRUE(Compiled.writeBinaryFile(Path));
  std::unique_ptr<MappedAutomaton> Mapped =
      MatcherAutomaton::mapBinary(Path, &Error);
  ASSERT_TRUE(Mapped) << Error;

  for (CostKind Kind : {CostKind::Unit, CostKind::Latency}) {
    SCOPED_TRACE(costKindName(Kind));
    SelectionService Service(Library, View, W, 4, Kind);
    std::optional<BatchReply> Reply = Service.process(Request, &Error);
    ASSERT_TRUE(Reply) << Error;
    EXPECT_EQ(Reply->Id, Request.Id);
    ASSERT_EQ(Reply->Results.size(), Request.Workloads.size());
    for (size_t I = 0; I < Reply->Results.size(); ++I) {
      const BatchReply::Result &R = Reply->Results[I];
      EXPECT_EQ(R.Workload, Request.Workloads[I]);
      EXPECT_EQ(R.Asm, sequentialAsm(R.Workload, Kind)) << R.Workload;
      EXPECT_GT(R.TotalOperations, 0u);
      EXPECT_GT(R.RulesTried, 0u);
      EXPECT_GT(R.NodesVisited, 0u);
    }

    // Identical results again from a service over the image written
    // to a file and mapped back: where the bytes live is not a
    // behavior change.
    SelectionService MappedService(Library, Mapped->view(), W, 2, Kind);
    std::optional<BatchReply> MappedReply =
        MappedService.process(Request, &Error);
    ASSERT_TRUE(MappedReply) << Error;
    for (size_t I = 0; I < Reply->Results.size(); ++I)
      EXPECT_EQ(MappedReply->Results[I].Asm, Reply->Results[I].Asm);
  }

  // The two cost models really emit different code on this library,
  // below the header line that names the selector, so the latency
  // pass above is not first-match under another name.
  auto body = [](const std::string &Asm) {
    return Asm.substr(std::min(Asm.find('\n'), Asm.size()));
  };
  bool Differs = false;
  for (const std::string &Name : allWorkloadNames())
    Differs = Differs || body(sequentialAsm(Name, CostKind::Unit)) !=
                             body(sequentialAsm(Name, CostKind::Latency));
  EXPECT_TRUE(Differs);
}

TEST_F(ServeTest, RejectsWidthMismatchAndUnknownWorkloads) {
  SelectionService Service(Library, View, W, 2);
  BatchRequest Request;
  Request.Width = W + 8;
  Request.Workloads = {"164.gzip"};
  std::string Error;
  EXPECT_FALSE(Service.process(Request, &Error));
  EXPECT_NE(Error.find("width"), std::string::npos);

  Request.Width = W;
  Request.Workloads = {"164.gzip", "999.bogus"};
  EXPECT_FALSE(Service.process(Request, &Error));
  EXPECT_NE(Error.find("999.bogus"), std::string::npos);
}

TEST_F(ServeTest, ServerLoopOverSocketpair) {
  int Fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
  signal(SIGPIPE, SIG_IGN);

  SelectionService Service(Library, View, W, 2);
  SelectionServer Server(Service, Fds[0], Fds[0]);
  std::thread ServerThread([&] { EXPECT_EQ(Server.run(), 0); });

  // A malformed payload draws an Error frame, and the loop survives.
  ASSERT_TRUE(wire::writeFrame(Fds[1], wire::Request, "garbage"));
  wire::Frame Frame;
  ASSERT_EQ(wire::readFrame(Fds[1], Frame), wire::ReadStatus::Ok);
  EXPECT_EQ(Frame.Type, wire::Error);

  // An unknown workload draws an Error frame too.
  BatchRequest Bogus;
  Bogus.Width = W;
  Bogus.Workloads = {"999.bogus"};
  ASSERT_TRUE(
      wire::writeFrame(Fds[1], wire::Request, encodeBatchRequest(Bogus)));
  ASSERT_EQ(wire::readFrame(Fds[1], Frame), wire::ReadStatus::Ok);
  EXPECT_EQ(Frame.Type, wire::Error);
  // Failed batches count as bad requests, never as served.
  const ServerStats &Stats = Server.stats();
  EXPECT_EQ(Stats.BadRequests.load(), 2u);
  EXPECT_EQ(Stats.Batches.load(), 0u);
  EXPECT_EQ(Stats.Functions.load(), 0u);
  EXPECT_EQ(Stats.RulesTried.load(), 0u);

  // A real batch round-trips with byte-identical machine code.
  BatchRequest Request;
  Request.Id = 99;
  Request.Width = W;
  Request.Workloads = {"164.gzip", "181.mcf"};
  ASSERT_TRUE(
      wire::writeFrame(Fds[1], wire::Request, encodeBatchRequest(Request)));
  ASSERT_EQ(wire::readFrame(Fds[1], Frame), wire::ReadStatus::Ok);
  ASSERT_EQ(Frame.Type, wire::Response);
  std::string Error;
  std::optional<BatchReply> Reply = decodeBatchReply(Frame.Payload, &Error);
  ASSERT_TRUE(Reply) << Error;
  EXPECT_EQ(Reply->Id, 99u);
  ASSERT_EQ(Reply->Results.size(), 2u);
  EXPECT_EQ(Reply->Results[0].Asm, sequentialAsm("164.gzip"));
  EXPECT_EQ(Reply->Results[1].Asm, sequentialAsm("181.mcf"));
  EXPECT_EQ(Stats.Functions.load(), 2u);
  EXPECT_EQ(Stats.RulesTried.load(),
            Reply->Results[0].RulesTried + Reply->Results[1].RulesTried);
  EXPECT_EQ(Stats.NodesVisited.load(),
            Reply->Results[0].NodesVisited + Reply->Results[1].NodesVisited);

  // Shutdown ends the loop with exit code 0.
  ASSERT_TRUE(wire::writeFrame(Fds[1], wire::Shutdown, ""));
  ServerThread.join();
  EXPECT_EQ(Stats.Batches.load(), 1u);
  close(Fds[0]);
  close(Fds[1]);
}

TEST_F(ServeTest, ServerLoopCondemnsGarbageStream) {
  int Fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
  SelectionService Service(Library, View, W, 1);
  SelectionServer Server(Service, Fds[0], Fds[0]);
  std::thread ServerThread([&] { EXPECT_EQ(Server.run(), 2); });
  std::string Garbage = "this is not a frame at all............";
  ASSERT_TRUE(wire::writeAll(Fds[1], Garbage));
  ServerThread.join();
  close(Fds[0]);
  close(Fds[1]);
}

TEST_F(ServeTest, RequestStopEndsIdleLoop) {
  int Fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
  SelectionService Service(Library, View, W, 1);
  SelectionServer Server(Service, Fds[0], Fds[0]);
  std::thread ServerThread([&] { EXPECT_EQ(Server.run(), 0); });
  Server.requestStop();
  ServerThread.join(); // Must return within one poll tick, no traffic.
  close(Fds[0]);
  close(Fds[1]);
}

namespace {

/// Spawns the real selgen-served with stdin/stdout pipes. The test is
/// the parent side of the exact deployment topology.
struct SpawnedServer {
  pid_t Pid = -1;
  int ToChild = -1;   ///< Write requests here.
  int FromChild = -1; ///< Read replies here.

  void start(const std::vector<std::string> &Args) {
    int In[2], Out[2];
    ASSERT_EQ(pipe(In), 0);
    ASSERT_EQ(pipe(Out), 0);
    Pid = fork();
    ASSERT_GE(Pid, 0);
    if (Pid == 0) {
      dup2(In[0], STDIN_FILENO);
      dup2(Out[1], STDOUT_FILENO);
      close(In[0]);
      close(In[1]);
      close(Out[0]);
      close(Out[1]);
      std::vector<char *> Argv;
      for (const std::string &A : Args)
        Argv.push_back(const_cast<char *>(A.c_str()));
      Argv.push_back(nullptr);
      execv(Argv[0], Argv.data());
      _exit(127);
    }
    close(In[0]);
    close(Out[1]);
    ToChild = In[1];
    FromChild = Out[0];
  }

  int wait() {
    int Status = 0;
    EXPECT_EQ(waitpid(Pid, &Status, 0), Pid);
    return Status;
  }

  ~SpawnedServer() {
    if (ToChild >= 0)
      close(ToChild);
    if (FromChild >= 0)
      close(FromChild);
  }
};

} // namespace

TEST_F(ServeTest, SpawnedServerMatchesSequentialAndExitsCleanly) {
  // End to end against the real binary: write the library and a binary
  // automaton, start selgen-served on pipes, compile a batch, then
  // shut it down with a Shutdown frame.
  std::string LibraryPath = ::testing::TempDir() + "serve_rules.dat";
  std::string ImagePath = ::testing::TempDir() + "serve_rules.matb";
  Rules.saveToFile(LibraryPath);
  ASSERT_TRUE(
      buildMatcherAutomaton(Library).writeBinaryFile(ImagePath));

  SpawnedServer Server;
  Server.start({SELGEN_SERVED_TOOL, "--library", LibraryPath, "--automaton",
                ImagePath, "--threads", "4"});
  ASSERT_GE(Server.Pid, 0);

  BatchRequest Request;
  Request.Id = 1;
  Request.Width = W;
  Request.Workloads = allWorkloadNames();
  ASSERT_TRUE(wire::writeFrame(Server.ToChild, wire::Request,
                               encodeBatchRequest(Request)));
  wire::Frame Frame;
  ASSERT_EQ(wire::readFrame(Server.FromChild, Frame, 120000),
            wire::ReadStatus::Ok);
  ASSERT_EQ(Frame.Type, wire::Response);
  std::string Error;
  std::optional<BatchReply> Reply = decodeBatchReply(Frame.Payload, &Error);
  ASSERT_TRUE(Reply) << Error;
  ASSERT_EQ(Reply->Results.size(), Request.Workloads.size());
  for (const BatchReply::Result &R : Reply->Results)
    EXPECT_EQ(R.Asm, sequentialAsm(R.Workload)) << R.Workload;

  ASSERT_TRUE(wire::writeFrame(Server.ToChild, wire::Shutdown, ""));
  int Status = Server.wait();
  EXPECT_TRUE(WIFEXITED(Status));
  EXPECT_EQ(WEXITSTATUS(Status), 0);
}

TEST_F(ServeTest, SpawnedServerShutsDownCleanlyOnSigterm) {
  std::string LibraryPath = ::testing::TempDir() + "serve_rules_term.dat";
  Rules.saveToFile(LibraryPath);

  // No automaton file: the server compiles one in memory at startup.
  SpawnedServer Server;
  Server.start({SELGEN_SERVED_TOOL, "--library", LibraryPath, "--threads",
                "2"});
  ASSERT_GE(Server.Pid, 0);

  // One request proves it is up and serving before the signal.
  BatchRequest Request;
  Request.Id = 2;
  Request.Width = W;
  Request.Workloads = {"164.gzip"};
  ASSERT_TRUE(wire::writeFrame(Server.ToChild, wire::Request,
                               encodeBatchRequest(Request)));
  wire::Frame Frame;
  ASSERT_EQ(wire::readFrame(Server.FromChild, Frame, 120000),
            wire::ReadStatus::Ok);
  ASSERT_EQ(Frame.Type, wire::Response);

  ASSERT_EQ(kill(Server.Pid, SIGTERM), 0);
  int Status = Server.wait();
  EXPECT_TRUE(WIFEXITED(Status)) << "SIGTERM must exit, not die on signal";
  EXPECT_EQ(WEXITSTATUS(Status), 0);
}

//===----------------------------------------------------------------------===//
// Typed errors, health probes, and the hardening layer
//===----------------------------------------------------------------------===//

namespace {

/// Disarms fault injection on scope exit so one test's chaos cannot
/// leak into the next.
struct FaultGuard {
  ~FaultGuard() { FaultInjector::get().disarm(); }
};

/// Reads one frame with a test-sized deadline so a server bug hangs an
/// assertion, not the suite.
wire::ReadStatus readOne(int Fd, wire::Frame &Out, int64_t DeadlineMs = 30000) {
  return wire::readFrame(Fd, Out, DeadlineMs);
}

/// Runs Server.run() on a thread that is joined on every exit from the
/// test, so a failed assertion fails the test instead of destroying a
/// joinable std::thread (std::terminate). An early exit stops the
/// server and shuts the client's socket end down first, so a drain
/// that waits on an unread reply cannot hang the join.
class ServerRunner {
public:
  ServerRunner(SelectionServer &Server, int ClientFd)
      : Server(Server), ClientFd(ClientFd),
        Thread([this] { EXPECT_EQ(this->Server.run(), 0); }) {}
  ServerRunner(const ServerRunner &) = delete;
  ServerRunner &operator=(const ServerRunner &) = delete;
  ~ServerRunner() {
    if (!Thread.joinable())
      return;
    Server.requestStop();
    ::shutdown(ClientFd, SHUT_RDWR);
    Thread.join();
  }

  /// Waits for run() to return on its own.
  void join() { Thread.join(); }

private:
  SelectionServer &Server;
  int ClientFd;
  std::thread Thread;
};

} // namespace

TEST(ServeProtocol, ServeErrorRoundTripsEveryCode) {
  for (ServeErrorCode Code :
       {ServeErrorCode::BadRequest, ServeErrorCode::Unsupported,
        ServeErrorCode::Timeout, ServeErrorCode::Overloaded,
        ServeErrorCode::ShuttingDown, ServeErrorCode::Internal}) {
    ServeError Error;
    Error.Code = Code;
    Error.RetryAfterMs = Code == ServeErrorCode::Overloaded ? 250 : 0;
    // Messages travel as byte-counted raw blocks: embedded newlines and
    // codec keywords must survive.
    Error.Message = "queue full\nend\nretry-after-ms 9\n";
    ServeError Decoded = decodeServeError(encodeServeError(Error));
    EXPECT_EQ(Decoded.Code, Code) << serveErrorCodeName(Code);
    EXPECT_EQ(Decoded.RetryAfterMs, Error.RetryAfterMs);
    EXPECT_EQ(Decoded.Message, Error.Message);
  }

  // Bare unstructured messages (the PR 6 wire style) decode as
  // Internal with the text preserved — never a decode failure.
  ServeError Legacy = decodeServeError("width mismatch: request 16");
  EXPECT_EQ(Legacy.Code, ServeErrorCode::Internal);
  EXPECT_EQ(Legacy.Message, "width mismatch: request 16");
  EXPECT_EQ(Legacy.RetryAfterMs, 0u);
}

TEST(ServeProtocol, HealthCodecRoundTripsAndStaysTotal) {
  EXPECT_TRUE(isHealthRequest(encodeHealthRequest()));
  EXPECT_FALSE(isHealthRequest(""));
  EXPECT_FALSE(isHealthRequest("selgen-serve-batch-v1\nend\n"));

  HealthReply Reply;
  Reply.UptimeMs = 123456;
  Reply.Width = 8;
  Reply.ImageFingerprint = "deadbeef01";
  Reply.ImageGeneration = 3;
  Reply.QueueDepth = 17;
  Reply.Batches = 99;
  Reply.Shed = 5;
  Reply.Timeouts = 2;
  Reply.Reloads = 3;
  Reply.ReloadFailures = 1;
  std::string Error;
  std::optional<HealthReply> Decoded =
      decodeHealthReply(encodeHealthReply(Reply), &Error);
  ASSERT_TRUE(Decoded) << Error;
  EXPECT_EQ(Decoded->UptimeMs, Reply.UptimeMs);
  EXPECT_EQ(Decoded->Width, Reply.Width);
  EXPECT_EQ(Decoded->ImageFingerprint, Reply.ImageFingerprint);
  EXPECT_EQ(Decoded->ImageGeneration, Reply.ImageGeneration);
  EXPECT_EQ(Decoded->QueueDepth, Reply.QueueDepth);
  EXPECT_EQ(Decoded->Shed, Reply.Shed);
  EXPECT_EQ(Decoded->Reloads, Reply.Reloads);
  EXPECT_EQ(Decoded->ReloadFailures, Reply.ReloadFailures);

  EXPECT_FALSE(decodeHealthReply("", &Error));
  EXPECT_FALSE(decodeHealthReply("garbage\n", &Error));
  EXPECT_FALSE(decodeHealthReply(encodeHealthRequest(), &Error));
  std::string Torn = encodeHealthReply(Reply);
  EXPECT_FALSE(decodeHealthReply(Torn.substr(0, Torn.size() / 2), &Error));
}

TEST_F(ServeTest, HealthProbeAnsweredInline) {
  int Fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
  signal(SIGPIPE, SIG_IGN);
  SelectionService Service(Library, View, W, 2);
  SelectionServer Server(Service, Fds[0], Fds[0]);
  std::thread ServerThread([&] { EXPECT_EQ(Server.run(), 0); });

  ASSERT_TRUE(
      wire::writeFrame(Fds[1], wire::Request, encodeHealthRequest()));
  wire::Frame Frame;
  ASSERT_EQ(readOne(Fds[1], Frame), wire::ReadStatus::Ok);
  ASSERT_EQ(Frame.Type, wire::Response);
  std::string Error;
  std::optional<HealthReply> Health = decodeHealthReply(Frame.Payload, &Error);
  ASSERT_TRUE(Health) << Error;
  EXPECT_EQ(Health->Width, W);
  EXPECT_EQ(Health->ImageFingerprint, Library.fingerprint());
  EXPECT_EQ(Health->ImageGeneration, 0u);
  EXPECT_EQ(Health->Batches, 0u);
  EXPECT_EQ(Health->Reloads, 0u);

  ASSERT_TRUE(wire::writeFrame(Fds[1], wire::Shutdown, ""));
  ServerThread.join();
  EXPECT_EQ(Server.stats().HealthProbes.load(), 1u);
  close(Fds[0]);
  close(Fds[1]);
}

TEST_F(ServeTest, OverloadShedsTypedOverloadedAndRecovers) {
  FaultGuard Guard;
  int Fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
  signal(SIGPIPE, SIG_IGN);
  SelectionService Service(Library, View, W, 2);
  ServerOptions Options;
  Options.MaxQueue = 2;
  Options.PollMs = 20;
  Options.RetryAfterMs = 75;
  SelectionServer Server(Service, Fds[0], Fds[0], Options);

  // Stall the dispatcher on its first request so the next two arrive
  // against a held queue: slots go 1 (dispatching) + 1 (queued), and
  // the third must shed.
  ASSERT_TRUE(FaultInjector::get().configure("serve_dispatch_stall@n=1"));
  std::thread ServerThread([&] { EXPECT_EQ(Server.run(), 0); });

  BatchRequest Request;
  Request.Width = W;
  Request.Workloads = {"164.gzip"};
  std::string Encoded = encodeBatchRequest(Request);
  for (int I = 0; I < 3; ++I)
    ASSERT_TRUE(wire::writeFrame(Fds[1], wire::Request, Encoded));

  int Responses = 0, Overloads = 0;
  for (int I = 0; I < 3; ++I) {
    wire::Frame Frame;
    ASSERT_EQ(readOne(Fds[1], Frame), wire::ReadStatus::Ok);
    if (Frame.Type == wire::Response) {
      ++Responses;
      continue;
    }
    ASSERT_EQ(Frame.Type, wire::Error);
    ServeError Error = decodeServeError(Frame.Payload);
    EXPECT_EQ(Error.Code, ServeErrorCode::Overloaded)
        << serveErrorCodeName(Error.Code) << ": " << Error.Message;
    EXPECT_EQ(Error.RetryAfterMs, 75u) << "shed replies carry the hint";
    ++Overloads;
  }
  EXPECT_EQ(Responses, 2);
  EXPECT_EQ(Overloads, 1);

  // The shed was the reply, not the connection: a retry now succeeds.
  ASSERT_TRUE(wire::writeFrame(Fds[1], wire::Request, Encoded));
  wire::Frame Frame;
  ASSERT_EQ(readOne(Fds[1], Frame), wire::ReadStatus::Ok);
  EXPECT_EQ(Frame.Type, wire::Response);

  ASSERT_TRUE(wire::writeFrame(Fds[1], wire::Shutdown, ""));
  ServerThread.join();
  EXPECT_EQ(Server.stats().Shed.load(), 1u);
  EXPECT_EQ(Server.stats().Batches.load(), 3u);
  close(Fds[0]);
  close(Fds[1]);
}

TEST_F(ServeTest, QueuedRequestPastDeadlineGetsTypedTimeout) {
  FaultGuard Guard;
  int Fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
  signal(SIGPIPE, SIG_IGN);
  SelectionService Service(Library, View, W, 2);
  ServerOptions Options;
  Options.RequestDeadlineMs = 100; // Far below the 400ms injected stall.
  Options.PollMs = 20;
  SelectionServer Server(Service, Fds[0], Fds[0], Options);
  ASSERT_TRUE(FaultInjector::get().configure("serve_dispatch_stall@n=1"));
  std::thread ServerThread([&] { EXPECT_EQ(Server.run(), 0); });

  BatchRequest Request;
  Request.Width = W;
  Request.Workloads = {"164.gzip"};
  ASSERT_TRUE(
      wire::writeFrame(Fds[1], wire::Request, encodeBatchRequest(Request)));
  wire::Frame Frame;
  ASSERT_EQ(readOne(Fds[1], Frame), wire::ReadStatus::Ok);
  ASSERT_EQ(Frame.Type, wire::Error);
  ServeError Error = decodeServeError(Frame.Payload);
  EXPECT_EQ(Error.Code, ServeErrorCode::Timeout)
      << serveErrorCodeName(Error.Code) << ": " << Error.Message;
  EXPECT_GT(Error.RetryAfterMs, 0u);

  // The connection survived its timed-out request.
  ASSERT_TRUE(
      wire::writeFrame(Fds[1], wire::Request, encodeBatchRequest(Request)));
  ASSERT_EQ(readOne(Fds[1], Frame), wire::ReadStatus::Ok);
  EXPECT_EQ(Frame.Type, wire::Response);

  ASSERT_TRUE(wire::writeFrame(Fds[1], wire::Shutdown, ""));
  ServerThread.join();
  EXPECT_EQ(Server.stats().Timeouts.load(), 1u);
  EXPECT_EQ(Server.stats().Batches.load(), 1u);
  close(Fds[0]);
  close(Fds[1]);
}

TEST_F(ServeTest, MidFrameStallDropsOnlyThatConnection) {
  int Stalled[2], Healthy[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, Stalled), 0);
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, Healthy), 0);
  signal(SIGPIPE, SIG_IGN);
  SelectionService Service(Library, View, W, 2);
  ServerOptions Options;
  Options.RequestDeadlineMs = 150; // Doubles as the mid-frame budget.
  Options.PollMs = 20;
  SelectionServer Server(Service, Options);
  Server.addConnection(Stalled[0], Stalled[0]);
  Server.addConnection(Healthy[0], Healthy[0]);
  std::thread ServerThread([&] { EXPECT_EQ(Server.run(), 0); });

  // Half a frame, then silence: unrecoverable by design, and the
  // deadline must reclaim the connection instead of waiting forever.
  BatchRequest Request;
  Request.Width = W;
  Request.Workloads = {"164.gzip"};
  std::string Bytes = wire::encodeFrame(wire::Request,
                                        encodeBatchRequest(Request));
  ASSERT_TRUE(wire::writeAll(Stalled[1], Bytes.substr(0, 9)));

  std::this_thread::sleep_for(std::chrono::milliseconds(450));

  // The other connection never noticed.
  ASSERT_TRUE(wire::writeFrame(Healthy[1], wire::Request,
                               encodeBatchRequest(Request)));
  wire::Frame Frame;
  ASSERT_EQ(readOne(Healthy[1], Frame), wire::ReadStatus::Ok);
  EXPECT_EQ(Frame.Type, wire::Response);

  ASSERT_TRUE(wire::writeFrame(Healthy[1], wire::Shutdown, ""));
  ServerThread.join(); // Exits: the stalled conn was already dropped.
  EXPECT_EQ(Server.stats().SlowClientDrops.load(), 1u);
  close(Stalled[0]);
  close(Stalled[1]);
  close(Healthy[0]);
  close(Healthy[1]);
}

TEST_F(ServeTest, SlowWriterIsEvictedWithBoundedBuffering) {
  int Fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
  signal(SIGPIPE, SIG_IGN);
  // Tiny kernel buffers so the reply overwhelms them and parks in the
  // server's write queue.
  int Small = 4096;
  setsockopt(Fds[0], SOL_SOCKET, SO_SNDBUF, &Small, sizeof(Small));
  setsockopt(Fds[1], SOL_SOCKET, SO_RCVBUF, &Small, sizeof(Small));

  SelectionService Service(Library, View, W, 4);
  ServerOptions Options;
  Options.RequestDeadlineMs = 30000;
  Options.WriteStallMs = 150;
  Options.PollMs = 20;
  SelectionServer Server(Service, Fds[0], Fds[0], Options);
  std::thread ServerThread([&] { EXPECT_EQ(Server.run(), 0); });

  // A batch whose reply dwarfs the socket buffers — and a client that
  // never reads a byte of it.
  BatchRequest Request;
  Request.Width = W;
  for (int Round = 0; Round < 6; ++Round)
    for (const std::string &Name : allWorkloadNames())
      Request.Workloads.push_back(Name);
  ASSERT_TRUE(
      wire::writeFrame(Fds[1], wire::Request, encodeBatchRequest(Request)));

  // The server must evict the stalled connection and exit on its own —
  // never block forever behind a reader that went away.
  ServerThread.join();
  EXPECT_EQ(Server.stats().SlowClientDrops.load(), 1u);
  EXPECT_EQ(Server.stats().Batches.load(), 1u);
  close(Fds[0]);
  close(Fds[1]);
}

namespace {

/// Binds a unix stream listener at \p Path (unlinking any stale one).
int listenAt(const std::string &Path) {
  sockaddr_un Addr;
  if (Path.size() >= sizeof(Addr.sun_path))
    return -1;
  int Fd = socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return -1;
  ::unlink(Path.c_str());
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size());
  if (bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0 ||
      listen(Fd, 64) < 0) {
    close(Fd);
    return -1;
  }
  return Fd;
}

int connectTo(const std::string &Path) {
  int Fd = socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return -1;
  sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size());
  if (connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0) {
    close(Fd);
    return -1;
  }
  return Fd;
}

} // namespace

TEST_F(ServeTest, WireFrameMutationFuzzYieldsTypedRejectionOrCondemnation) {
  // Deterministic frame-mutation fuzz: flip single bits across the
  // header and payload of a valid request frame. Every mutation must
  // produce a *typed* Error reply or a condemned (closed) connection —
  // never a hang, never a Response, and never memory unsafety (this
  // test is in the ASan/UBSan CI matrix).
  std::string Path = ::testing::TempDir() + "serve_fuzz.sock";
  int ListenFd = listenAt(Path);
  ASSERT_GE(ListenFd, 0);
  signal(SIGPIPE, SIG_IGN);

  SelectionService Service(Library, View, W, 2);
  ServerOptions Options;
  Options.PollMs = 20;
  SelectionServer Server(Service, Options);
  Server.serveListenFd(ListenFd);
  std::thread ServerThread([&] { EXPECT_EQ(Server.run(), 0); });

  BatchRequest Request;
  Request.Id = 11;
  Request.Width = W;
  Request.Workloads = {"164.gzip"};
  const std::string Valid =
      wire::encodeFrame(wire::Request, encodeBatchRequest(Request));
  constexpr size_t HeaderBytes = 13;
  ASSERT_GT(Valid.size(), HeaderBytes + 4);

  std::vector<size_t> Positions;
  for (size_t I = 0; I < HeaderBytes; ++I)
    Positions.push_back(I); // Magic, type, length, CRC.
  Positions.push_back(HeaderBytes);              // First payload byte.
  Positions.push_back(Valid.size() / 2);         // Middle.
  Positions.push_back(Valid.size() - 1);         // Last.

  int TypedErrors = 0, Condemned = 0;
  for (size_t Pos : Positions) {
    for (unsigned char Mask : {0x01, 0x80}) {
      std::string Mutated = Valid;
      Mutated[Pos] = static_cast<char>(Mutated[Pos] ^ Mask);
      int Fd = connectTo(Path);
      ASSERT_GE(Fd, 0);
      wire::writeAll(Fd, Mutated); // EPIPE tolerated: server may have
      shutdown(Fd, SHUT_WR);       // condemned us mid-write already.
      wire::Frame Frame;
      wire::ReadStatus Status = readOne(Fd, Frame, 10000);
      if (Status == wire::ReadStatus::Ok) {
        ASSERT_EQ(Frame.Type, wire::Error)
            << "mutation at byte " << Pos << " mask " << int(Mask)
            << " must never yield a Response";
        ServeError Error = decodeServeError(Frame.Payload);
        EXPECT_FALSE(Error.Message.empty());
        ++TypedErrors;
      } else {
        ASSERT_NE(Status, wire::ReadStatus::Timeout)
            << "mutation at byte " << Pos << " mask " << int(Mask)
            << " hung the server";
        ++Condemned; // Eof / torn reply: the connection was dropped.
      }
      close(Fd);
    }
  }
  EXPECT_GT(Condemned, 0) << "payload flips must break the CRC";
  EXPECT_GT(TypedErrors, 0) << "type-byte flips must draw typed errors";

  // The server itself shrugged it all off.
  int Fd = connectTo(Path);
  ASSERT_GE(Fd, 0);
  ASSERT_TRUE(wire::writeFrame(Fd, wire::Request, encodeBatchRequest(Request)));
  wire::Frame Frame;
  ASSERT_EQ(readOne(Fd, Frame), wire::ReadStatus::Ok);
  ASSERT_EQ(Frame.Type, wire::Response);
  std::string Error;
  std::optional<BatchReply> Reply = decodeBatchReply(Frame.Payload, &Error);
  ASSERT_TRUE(Reply) << Error;
  EXPECT_EQ(Reply->Results[0].Asm, sequentialAsm("164.gzip"));
  close(Fd);

  Server.requestStop();
  ServerThread.join();
  close(ListenFd);
  ::unlink(Path.c_str());
  EXPECT_EQ(Server.stats().CondemnedConns.load(),
            static_cast<uint64_t>(Condemned));
}

TEST_F(ServeTest, HotReloadUnderLoadIsByteIdenticalAndRefusesCorrupt) {
  // The tentpole guarantee: swapping the automaton image under live
  // traffic changes nothing observable (same library ⇒ byte-identical
  // replies, zero failed requests), and a corrupt candidate is refused
  // while the old image keeps serving.
  std::string ImagePath = ::testing::TempDir() + "serve_reload.matb";
  ASSERT_TRUE(buildMatcherAutomaton(Library).writeBinaryFile(ImagePath));
  std::string MapError;
  std::unique_ptr<MappedAutomaton> Mapped =
      MatcherAutomaton::mapBinary(ImagePath, &MapError);
  ASSERT_TRUE(Mapped) << MapError;

  SelectionService Service(Library, Mapped->view(), W, 4);
  ImageReloader Reloader(Service, Library, ImagePath);
  int Fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
  signal(SIGPIPE, SIG_IGN);
  ServerOptions Options;
  Options.PollMs = 20;
  Options.TickHook = [&Reloader] { Reloader.tick(); };
  Options.HealthAugment = [&Reloader](HealthReply &Reply) {
    Reloader.augmentHealth(Reply);
  };
  SelectionServer Server(Service, Fds[0], Fds[0], Options);
  std::thread ServerThread([&] { EXPECT_EQ(Server.run(), 0); });

  std::vector<std::string> Expected;
  for (const std::string &Name : allWorkloadNames())
    Expected.push_back(sequentialAsm(Name));

  auto roundTrip = [&] {
    BatchRequest Request;
    Request.Width = W;
    Request.Workloads = allWorkloadNames();
    ASSERT_TRUE(wire::writeFrame(Fds[1], wire::Request,
                                 encodeBatchRequest(Request)));
    wire::Frame Frame;
    ASSERT_EQ(readOne(Fds[1], Frame, 120000), wire::ReadStatus::Ok);
    ASSERT_EQ(Frame.Type, wire::Response)
        << decodeServeError(Frame.Payload).Message;
    std::string Error;
    std::optional<BatchReply> Reply = decodeBatchReply(Frame.Payload, &Error);
    ASSERT_TRUE(Reply) << Error;
    ASSERT_EQ(Reply->Results.size(), Expected.size());
    for (size_t I = 0; I < Expected.size(); ++I)
      EXPECT_EQ(Reply->Results[I].Asm, Expected[I])
          << "reply " << I << " diverged across reload";
  };

  roundTrip();
  roundTrip();

  // Atomic publish, exactly as an operator must do it: write the
  // regenerated image to a temp file and rename(2) it over the served
  // path. The rename gives the path a fresh inode, so the mapping the
  // resident image holds stays valid no matter what happens to the
  // path afterwards.
  std::string StagePath = ImagePath + ".tmp";
  ASSERT_TRUE(buildMatcherAutomaton(Library).writeBinaryFile(StagePath));
  ASSERT_EQ(std::rename(StagePath.c_str(), ImagePath.c_str()), 0);
  Reloader.requestReload();
  ASSERT_TRUE(Reloader.drain());
  EXPECT_EQ(Reloader.reloads(), 1u);
  EXPECT_EQ(Reloader.failures(), 0u);
  EXPECT_EQ(Service.imageGeneration(), 1u);

  roundTrip();

  // Corrupt candidate: atomically publish a truncated image (torn
  // copy, partial upload — the realistic corruptions all arrive via
  // rename too). The reload must be refused with the failure counted —
  // and serving must continue unharmed on the already-resident image.
  {
    std::ifstream In(ImagePath, std::ios::binary);
    std::string Bytes((std::istreambuf_iterator<char>(In)),
                      std::istreambuf_iterator<char>());
    std::ofstream Out(StagePath, std::ios::binary | std::ios::trunc);
    Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size() / 3));
  }
  ASSERT_EQ(std::rename(StagePath.c_str(), ImagePath.c_str()), 0);
  Reloader.requestReload();
  ASSERT_TRUE(Reloader.drain());
  EXPECT_EQ(Reloader.reloads(), 1u);
  EXPECT_EQ(Reloader.failures(), 1u);
  EXPECT_FALSE(Reloader.lastError().empty());
  EXPECT_EQ(Service.imageGeneration(), 1u)
      << "a refused candidate must not bump the generation";

  roundTrip();

  // The health probe reports the reload history.
  ASSERT_TRUE(wire::writeFrame(Fds[1], wire::Request, encodeHealthRequest()));
  wire::Frame Frame;
  ASSERT_EQ(readOne(Fds[1], Frame), wire::ReadStatus::Ok);
  std::string Error;
  std::optional<HealthReply> Health = decodeHealthReply(Frame.Payload, &Error);
  ASSERT_TRUE(Health) << Error;
  EXPECT_EQ(Health->Reloads, 1u);
  EXPECT_EQ(Health->ReloadFailures, 1u);
  EXPECT_EQ(Health->ImageGeneration, 1u);
  EXPECT_EQ(Health->ImageFingerprint, Library.fingerprint());

  ASSERT_TRUE(wire::writeFrame(Fds[1], wire::Shutdown, ""));
  ServerThread.join();
  EXPECT_EQ(Server.stats().Batches.load(), 4u) << "zero failed requests";
  close(Fds[0]);
  close(Fds[1]);
  ::unlink(ImagePath.c_str());
}

TEST_F(ServeTest, StopDrainsAdmittedRequestsUnderLoad) {
  int Fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
  signal(SIGPIPE, SIG_IGN);
  SelectionService Service(Library, View, W, 4);
  ServerOptions Options;
  Options.PollMs = 20;
  Options.RetryAfterMs = 200;
  // Once Stopped is set (just before the stop lands), the loop holds
  // its next tick until the late request below is on the socket, so
  // that request reaches the server before the drain can end, however
  // the threads are scheduled.
  std::atomic<bool> Stopped{false}, LateWritten{false};
  Options.TickHook = [&] {
    if (Stopped.load())
      while (!LateWritten.load())
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
  };
  SelectionServer Server(Service, Fds[0], Fds[0], Options);
  ServerRunner Runner(Server, Fds[1]);

  // Three sizable batches in flight...
  BatchRequest Request;
  Request.Width = W;
  Request.Workloads = allWorkloadNames();
  std::string Encoded = encodeBatchRequest(Request);
  for (int I = 0; I < 3; ++I)
    ASSERT_TRUE(wire::writeFrame(Fds[1], wire::Request, Encoded));
  // ...all admitted before the stop lands...
  for (int Spin = 0; Server.stats().Admitted.load() < 3 && Spin < 3000;
       ++Spin)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ASSERT_EQ(Server.stats().Admitted.load(), 3u);
  Stopped.store(true);
  Server.requestStop();
  // ...and one more arriving *after* it.
  bool Written = wire::writeFrame(Fds[1], wire::Request, Encoded);
  LateWritten.store(true);
  ASSERT_TRUE(Written);

  // Drain contract: every admitted request gets its complete reply;
  // the late one gets a typed ShuttingDown error; nothing is dropped.
  int Responses = 0, Rejected = 0;
  for (int I = 0; I < 4; ++I) {
    wire::Frame Frame;
    ASSERT_EQ(readOne(Fds[1], Frame, 120000), wire::ReadStatus::Ok);
    if (Frame.Type == wire::Response) {
      std::string Error;
      std::optional<BatchReply> Reply =
          decodeBatchReply(Frame.Payload, &Error);
      ASSERT_TRUE(Reply) << Error;
      ASSERT_EQ(Reply->Results.size(), Request.Workloads.size());
      for (const BatchReply::Result &R : Reply->Results)
        EXPECT_EQ(R.Asm, sequentialAsm(R.Workload));
      ++Responses;
    } else {
      ASSERT_EQ(Frame.Type, wire::Error);
      ServeError Error = decodeServeError(Frame.Payload);
      EXPECT_EQ(Error.Code, ServeErrorCode::ShuttingDown)
          << serveErrorCodeName(Error.Code) << ": " << Error.Message;
      EXPECT_EQ(Error.RetryAfterMs, 200u);
      ++Rejected;
    }
  }
  EXPECT_EQ(Responses, 3);
  EXPECT_EQ(Rejected, 1);

  Runner.join(); // Flushed everything, then exited 0 on its own.
  EXPECT_EQ(Server.stats().Batches.load(), 3u);
  EXPECT_EQ(Server.stats().ShutdownRejects.load(), 1u);
  close(Fds[0]);
  close(Fds[1]);
}

TEST_F(ServeTest, StopAnswersRequestsThatArriveAsTheDrainEnds) {
  // Nothing is in flight when the stop lands, so the drain is complete
  // at the loop's first exit check. A request that reached the socket
  // just before that check must still get its ShuttingDown error
  // rather than be left unread when run() returns.
  int Fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
  signal(SIGPIPE, SIG_IGN);
  SelectionService Service(Library, View, W, 1);
  BatchRequest Request;
  Request.Width = W;
  Request.Workloads = {"164.gzip"};
  std::string Encoded = encodeBatchRequest(Request);
  ServerOptions Options;
  Options.PollMs = 20;
  Options.RetryAfterMs = 50;
  // Once armed, the next tick stops the server and writes the request
  // from the server's own thread, right before that tick's exit check.
  SelectionServer *Running = nullptr;
  std::atomic<bool> Armed{false};
  bool Written = false;
  Options.TickHook = [&] {
    if (Armed.load() && !Written) {
      Running->requestStop();
      Written = wire::writeFrame(Fds[1], wire::Request, Encoded);
    }
  };
  SelectionServer Server(Service, Fds[0], Fds[0], Options);
  Running = &Server;
  ServerRunner Runner(Server, Fds[1]);
  Armed.store(true);
  Runner.join();
  ASSERT_TRUE(Written);

  wire::Frame Frame;
  ASSERT_EQ(readOne(Fds[1], Frame, 5000), wire::ReadStatus::Ok);
  ASSERT_EQ(Frame.Type, wire::Error);
  ServeError Error = decodeServeError(Frame.Payload);
  EXPECT_EQ(Error.Code, ServeErrorCode::ShuttingDown)
      << serveErrorCodeName(Error.Code) << ": " << Error.Message;
  EXPECT_EQ(Server.stats().ShutdownRejects.load(), 1u);
  EXPECT_EQ(Server.stats().Batches.load(), 0u);
  close(Fds[0]);
  close(Fds[1]);
}

TEST_F(ServeTest, SpawnedSocketServerDrainsOnSigtermAndUnlinksSocket) {
  // The deployment-shape regression test for orderly shutdown: a large
  // batch is in flight over the unix socket when SIGTERM lands. The
  // accepted request must still get its complete, byte-identical
  // reply; the process must exit 0; the socket file must be gone.
  std::string LibraryPath = ::testing::TempDir() + "serve_drain.dat";
  std::string ImagePath = ::testing::TempDir() + "serve_drain.matb";
  std::string SocketPath = ::testing::TempDir() + "serve_drain.sock";
  Rules.saveToFile(LibraryPath);
  ASSERT_TRUE(buildMatcherAutomaton(Library).writeBinaryFile(ImagePath));

  SpawnedServer Server;
  Server.start({SELGEN_SERVED_TOOL, "--library", LibraryPath, "--automaton",
                ImagePath, "--threads", "4", "--socket", SocketPath});
  ASSERT_GE(Server.Pid, 0);

  // Readiness: the health probe answers as soon as the socket binds.
  int Fd = -1;
  for (int Spin = 0; Spin < 1000 && Fd < 0; ++Spin) {
    Fd = connectTo(SocketPath);
    if (Fd < 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_GE(Fd, 0) << "server never bound " << SocketPath;
  ASSERT_TRUE(wire::writeFrame(Fd, wire::Request, encodeHealthRequest()));
  wire::Frame Frame;
  ASSERT_EQ(readOne(Fd, Frame, 120000), wire::ReadStatus::Ok);
  std::string Error;
  ASSERT_TRUE(decodeHealthReply(Frame.Payload, &Error)) << Error;

  BatchRequest Request;
  Request.Width = W;
  for (int Round = 0; Round < 3; ++Round)
    for (const std::string &Name : allWorkloadNames())
      Request.Workloads.push_back(Name);
  ASSERT_TRUE(
      wire::writeFrame(Fd, wire::Request, encodeBatchRequest(Request)));

  // Probe until the server has *admitted* the batch (or even finished
  // it), so the SIGTERM provably lands with the request in flight.
  // Health replies jump the queue, so each probe round-trips while the
  // batch computes.
  std::optional<BatchReply> Reply;
  bool Admitted = false;
  for (int Spin = 0; Spin < 1000 && !Admitted && !Reply; ++Spin) {
    ASSERT_TRUE(wire::writeFrame(Fd, wire::Request, encodeHealthRequest()));
    ASSERT_EQ(readOne(Fd, Frame, 120000), wire::ReadStatus::Ok);
    ASSERT_EQ(Frame.Type, wire::Response)
        << decodeServeError(Frame.Payload).Message;
    if (std::optional<HealthReply> Health =
            decodeHealthReply(Frame.Payload)) {
      Admitted = Health->QueueDepth > 0 || Health->Batches > 0;
      continue;
    }
    Reply = decodeBatchReply(Frame.Payload, &Error); // Batch won the race.
    ASSERT_TRUE(Reply) << Error;
  }
  ASSERT_TRUE(Admitted || Reply);
  ASSERT_EQ(kill(Server.Pid, SIGTERM), 0);

  // Drain: the admitted batch still gets its complete reply (skipping
  // any health replies still owed from the probe loop).
  while (!Reply) {
    ASSERT_EQ(readOne(Fd, Frame, 120000), wire::ReadStatus::Ok);
    ASSERT_EQ(Frame.Type, wire::Response)
        << decodeServeError(Frame.Payload).Message;
    if (decodeHealthReply(Frame.Payload))
      continue;
    Reply = decodeBatchReply(Frame.Payload, &Error);
    ASSERT_TRUE(Reply) << Error;
  }
  ASSERT_EQ(Reply->Results.size(), Request.Workloads.size());
  for (const BatchReply::Result &R : Reply->Results)
    EXPECT_EQ(R.Asm, sequentialAsm(R.Workload));
  close(Fd);

  int Status = Server.wait();
  EXPECT_TRUE(WIFEXITED(Status)) << "drain must end in exit, not a signal";
  EXPECT_EQ(WEXITSTATUS(Status), 0);
  EXPECT_NE(access(SocketPath.c_str(), F_OK), 0)
      << "socket file must be unlinked on shutdown";
}
