//===- ServeStage.cpp - Open-loop compile-server stage --------------------===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//

#include "Stages.h"

#include "serve/SelectionServer.h"
#include "serve/SelectionService.h"
#include "support/Error.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <fcntl.h>
#include <limits>
#include <poll.h>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

using namespace selgen;
using namespace perfbench;

namespace {

/// Service worker threads. With the server's IO and dispatcher threads
/// and the one client thread this stays within a 4-core machine.
constexpr unsigned Workers = 2;
/// Client connections, all driven from the one client thread.
constexpr unsigned Connections = 2;
/// Offered rate at which serve_p50_ms and serve_p99_ms are measured:
/// about a quarter of the highest rate the search finds for this
/// traffic on the inflated image with 2 workers (see BASELINE.md), so
/// the fixed rate measures a server under load whose queue stays short.
constexpr double FixedRateFnPerSec = 600;
/// p99 latency limit that gates serve_max_fn_per_s.
constexpr double LatencyLimitMs = 50;
/// Functions per batch: uniform in [MinBatch, MaxBatch], a seeded mix
/// around the 11-name batch (each cint2000 function once) that
/// tools/ci/serve_client.py and the CI server jobs send.
constexpr unsigned MinBatch = 6, MaxBatch = 16;
/// How long a window waits for outstanding replies after its last send.
constexpr double DrainSeconds = 2.0;

} // namespace

/// An in-process server over socketpairs, accepting once constructed.
class perfbench::Harness {
public:
  explicit Harness(const SelectionSetup &Setup)
      : Service(Setup.Selector->library(), Setup.Image->view(), Width,
                Workers),
        Server(Service, options()) {
    for (unsigned I = 0; I < Connections; ++I) {
      int Fds[2];
      if (socketpair(AF_UNIX, SOCK_STREAM, 0, Fds) != 0)
        reportFatalError("socketpair failed");
      fcntl(Fds[1], F_SETFL, fcntl(Fds[1], F_GETFL) | O_NONBLOCK);
      Pairs.push_back({Fds[0], Fds[1]});
      Server.addConnection(Fds[0], Fds[0]);
    }
    Thread = std::thread([this] { Server.run(); });
    // Accepting means a health probe has been answered.
    wire::Frame Reply;
    if (!wire::writeFrame(clientFd(0), wire::Request, encodeHealthRequest()) ||
        wire::readFrame(clientFd(0), Reply, 10000) != wire::ReadStatus::Ok ||
        !decodeHealthReply(Reply.Payload))
      reportFatalError("the server did not answer its health probe");
  }
  ~Harness() {
    Server.requestStop();
    Thread.join();
    for (const std::array<int, 2> &P : Pairs) {
      close(P[0]);
      close(P[1]);
    }
  }
  Harness(const Harness &) = delete;
  Harness &operator=(const Harness &) = delete;

  int clientFd(unsigned I) const { return Pairs[I][1]; }
  /// The reader of connection \p I's replies. It lives as long as the
  /// connection, so a frame half-read when one window ends is completed
  /// by the next.
  wire::FrameReader &reader(unsigned I) { return Readers[I]; }
  const ServerStats &stats() const { return Server.stats(); }

private:
  static ServerOptions options() {
    ServerOptions Options;
    Options.RequestDeadlineMs = 1000;
    Options.PollMs = 10;
    return Options;
  }

  SelectionService Service;
  SelectionServer Server;
  std::vector<std::array<int, 2>> Pairs;
  std::array<wire::FrameReader, Connections> Readers;
  std::thread Thread;
};

namespace {

/// Machine code of each cint2000 function from in-process selection
/// over the same image: the reference every reply must equal.
std::map<std::string, std::string> expectedAsm(const SelectionSetup &Setup) {
  std::map<std::string, std::string> Expected;
  for (const WorkloadProfile &P : cint2000Profiles())
    Expected[P.Name] = printMachineFunction(
        *Setup.Selector->select(buildWorkload(P, Width)).MF);
  return Expected;
}

} // namespace

namespace perfbench {

struct Request {
  double AtSeconds = 0; ///< Scheduled send, from the window start.
  std::vector<std::string> Names;
  Clock::time_point Scheduled, Sent, Received;
  double EncodeUs = 0, DecodeUs = 0, ServiceUs = 0;
  bool Replied = false;
};

struct Window {
  std::vector<Request> Requests;
  uint64_t TypedErrors = 0, Lost = 0, Mismatches = 0;
  /// Replies to requests of earlier windows, which counted them as lost.
  uint64_t Late = 0;
  size_t BacklogMid = 0, BacklogEnd = 0;
  double Seconds = 0;

  /// Request latencies in ms from the scheduled send; a request with
  /// no reply counts as infinitely late.
  std::vector<double> latenciesMs() const {
    std::vector<double> Out;
    for (const Request &R : Requests)
      Out.push_back(R.Replied ? microsBetween(R.Scheduled, R.Received) / 1e3
                              : std::numeric_limits<double>::infinity());
    return Out;
  }
  double completedFnPerSec() const {
    uint64_t Done = 0;
    for (const Request &R : Requests)
      Done += R.Replied ? R.Names.size() : 0;
    return Done / Seconds;
  }
  bool meetsLimit() const {
    return quantile(latenciesMs(), 0.99) <= LatencyLimitMs &&
           BacklogEnd <= 2 * BacklogMid + 4;
  }
};

} // namespace perfbench

namespace {

double uniform01(Rng &Random) {
  return ((Random.nextUInt64() >> 11) + 1) * 0x1.0p-53;
}

Clock::time_point after(Clock::time_point Start, double Seconds) {
  return Start + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(Seconds));
}

} // namespace

/// Offers seeded Poisson arrivals at \p FnPerSec for \p Seconds and
/// collects every reply (or gives up on it after DrainSeconds).
Window ServeStage::run(double FnPerSec, double Seconds) {
  Harness &Server = *this->Server;
  Window W;
  W.Seconds = Seconds;
  const std::vector<WorkloadProfile> &Profiles = cint2000Profiles();
  double RequestsPerSec = FnPerSec / ((MinBatch + MaxBatch) / 2.0);
  for (double At = -std::log(uniform01(Random)) / RequestsPerSec; At < Seconds;
       At += -std::log(uniform01(Random)) / RequestsPerSec) {
    Request R;
    R.AtSeconds = At;
    unsigned Size = MinBatch + Random.nextBelow(MaxBatch - MinBatch + 1);
    for (unsigned I = 0; I < Size; ++I)
      R.Names.push_back(Profiles[Random.nextBelow(Profiles.size())].Name);
    W.Requests.push_back(std::move(R));
  }

  const uint64_t FirstId = NextId;
  NextId += W.Requests.size();
  std::array<pollfd, Connections> Polls;
  for (unsigned C = 0; C < Connections; ++C)
    Polls[C] = {Server.clientFd(C), POLLIN, 0};

  // Handles one reply frame; returns true when it answers a request of
  // this window.
  auto handle = [&](const wire::Frame &Frame) {
    if (Frame.Type == wire::Error) {
      ++W.TypedErrors;
      return false;
    }
    Clock::time_point Now = Clock::now();
    std::optional<BatchReply> Reply = decodeBatchReply(Frame.Payload);
    Clock::time_point Decoded = Clock::now();
    if (Reply && Reply->Id < FirstId) {
      ++W.Late;
      return false;
    }
    if (!Reply || Reply->Id - FirstId >= W.Requests.size() ||
        W.Requests[Reply->Id - FirstId].Replied) {
      ++W.Mismatches;
      return false;
    }
    Trace::get().record("serve.decode", Now, Decoded, Reply->Id);
    Request &R = W.Requests[Reply->Id - FirstId];
    R.Received = Now;
    R.Replied = true;
    R.DecodeUs = microsBetween(Now, Decoded);
    R.ServiceUs = Reply->WallUs;
    bool Same = Reply->Results.size() == R.Names.size();
    for (size_t I = 0; Same && I < R.Names.size(); ++I)
      Same = Reply->Results[I].Workload == R.Names[I] &&
             Reply->Results[I].Asm == Expected.at(R.Names[I]);
    W.Mismatches += !Same;
    return true;
  };

  const Clock::time_point Start = after(Clock::now(), 0.001);
  const Clock::time_point GiveUp = after(Start, Seconds + DrainSeconds);
  const Clock::time_point Midpoint = after(Start, Seconds / 2);
  size_t Next = 0, Replies = 0;
  bool MidSeen = false, EndSeen = false;
  for (;;) {
    Clock::time_point Now = Clock::now();
    while (Next < W.Requests.size()) {
      Request &R = W.Requests[Next];
      R.Scheduled = after(Start, R.AtSeconds);
      if (R.Scheduled > Now)
        break;
      R.Sent = Clock::now();
      BatchRequest Batch;
      Batch.Id = FirstId + Next;
      Batch.Width = Width;
      Batch.Workloads = R.Names;
      std::string Payload;
      {
        ScopedSpan Span("serve.encode", Batch.Id);
        Payload = encodeBatchRequest(Batch);
        R.EncodeUs = Span.finish();
      }
      if (wire::writeFrame(Server.clientFd(Next % Connections), wire::Request,
                           Payload, 1000) != wire::WriteStatus::Ok)
        reportFatalError("cannot write a request to the server");
      ++Next;
    }
    // Backlog halfway through the offering and at its end: a backlog
    // that grows between the two means the rate is not sustained.
    size_t Answered = Replies + W.TypedErrors;
    size_t Outstanding = Next > Answered ? Next - Answered : 0;
    if (!MidSeen && Now >= Midpoint) {
      MidSeen = true;
      W.BacklogMid = Outstanding;
    }
    if (Next == W.Requests.size()) {
      if (!EndSeen) {
        EndSeen = true;
        W.BacklogEnd = Outstanding;
      }
      if (Outstanding == 0 || Now >= GiveUp)
        break;
    }

    Clock::time_point Wake = Next < W.Requests.size()
                                 ? after(Start, W.Requests[Next].AtSeconds)
                                 : after(Now, 0.020);
    double WaitNs = std::max(0.0, microsBetween(Now, Wake) * 1e3);
    timespec Timeout{static_cast<time_t>(WaitNs / 1e9),
                     static_cast<long>(std::fmod(WaitNs, 1e9))};
    if (ppoll(Polls.data(), Connections, &Timeout, nullptr) <= 0)
      continue;
    for (unsigned C = 0; C < Connections; ++C) {
      if (!(Polls[C].revents & (POLLIN | POLLHUP | POLLERR)))
        continue;
      wire::Frame Frame;
      wire::FrameReader::Event E;
      while ((E = Server.reader(C).advance(Polls[C].fd, Frame)) ==
             wire::FrameReader::Event::Frame)
        Replies += handle(Frame);
      if (E != wire::FrameReader::Event::None)
        reportFatalError("the server closed or corrupted a connection");
    }
  }
  uint64_t Missing = 0;
  for (const Request &R : W.Requests)
    Missing += !R.Replied;
  W.Lost = Missing > W.TypedErrors ? Missing - W.TypedErrors : 0;
  std::vector<double> Latency = W.latenciesMs();
  std::printf("serve window %6.0f fn/s offered, %6.0f completed, %4zu "
              "requests, p50 %.2f ms, p99 %.2f ms, backlog %zu -> %zu, "
              "%llu typed errors, %llu late replies\n",
              FnPerSec, W.completedFnPerSec(), W.Requests.size(),
              quantile(Latency, 0.5), quantile(Latency, 0.99), W.BacklogMid,
              W.BacklogEnd, static_cast<unsigned long long>(W.TypedErrors),
              static_cast<unsigned long long>(W.Late));
  return W;
}

namespace {

/// Records the spans of one window's requests, each sharing its
/// request id, and re-runs buildWorkload for every requested function
/// as an isolated span of that request.
void traceRequests(const Window &W, uint64_t FirstId, MetricMap &Layers) {
  double Rtt = 0, Service = 0, Codec = 0, Late = 0, Build = 0;
  uint64_t Replied = 0, Built = 0;
  for (size_t I = 0; I < W.Requests.size(); ++I) {
    const Request &R = W.Requests[I];
    uint64_t Id = FirstId + I;
    Late += microsBetween(R.Scheduled, R.Sent);
    if (!R.Replied)
      continue;
    uint64_t Root =
        Trace::get().record("serve.request", R.Scheduled, R.Received, Id);
    Trace::get().record("serve.rtt", R.Sent, R.Received, Id, Root);
    ++Replied;
    Rtt += microsBetween(R.Sent, R.Received);
    Service += R.ServiceUs;
    Codec += R.EncodeUs + R.DecodeUs;
    for (const std::string &Name : R.Names) {
      const WorkloadProfile *Profile = nullptr;
      for (const WorkloadProfile &P : cint2000Profiles())
        if (P.Name == Name)
          Profile = &P;
      ScopedSpan Span("eval.build_workload", Id, Root);
      buildWorkload(*Profile, Width);
      Build += Span.finish();
      ++Built;
    }
  }
  double N = std::max<uint64_t>(Replied, 1);
  Layers["serve.rtt_us"] = Rtt / N;
  Layers["serve.service_us"] = Service / N;
  Layers["serve.outside_us"] = (Rtt - Service) / N;
  Layers["serve.codec_us"] = Codec / N;
  Layers["serve.generator_late_us"] =
      Late / std::max<size_t>(W.Requests.size(), 1);
  Layers["eval.build_workload_us"] = Build / std::max<uint64_t>(Built, 1);
}


} // namespace

double perfbench::timeServerStart(const SelectionSetup &Setup) {
  Clock::time_point Start = Clock::now();
  Harness Server(Setup);
  return microsBetween(Start, Clock::now()) / 1e6;
}

ServeStage::ServeStage(const SelectionSetup &Setup, Rng &Random,
                       Tally &Checks)
    : Random(Random), Checks(Checks), Expected(expectedAsm(Setup)),
      Server(std::make_unique<Harness>(Setup)),
      Rate(3 * FixedRateFnPerSec) {
  // Short warm-up at the fixed rate (not reported).
  account(run(FixedRateFnPerSec, 0.2), true);
}

ServeStage::~ServeStage() = default;

void ServeStage::account(const Window &W, bool TypedErrorsFail) {
  Checks.Attempted += W.Requests.size();
  for (uint64_t I = 0; I < W.Mismatches; ++I)
    Checks.fail("serve: a reply differs from in-process selection");
  for (uint64_t I = 0; I < W.Lost; ++I)
    Checks.fail("serve: a request got no reply");
  if (TypedErrorsFail)
    for (uint64_t I = 0; I < W.TypedErrors; ++I)
      Checks.fail("serve: typed error reply at the fixed rate");
}

void ServeStage::measureFixed(double Seconds) {
  Window W = run(FixedRateFnPerSec, Seconds);
  account(W, true);
  std::vector<double> Latency = W.latenciesMs();
  if (!Latency.empty()) // A very short slice may draw no arrival at all.
    SliceP50.push_back(quantile(Latency, 0.50));
  FixedLatencyMs.insert(FixedLatencyMs.end(), Latency.begin(), Latency.end());
}

// The search for the highest rate meeting the limit is a staircase: a
// coarse geometric ladder from three times the fixed rate, up while
// windows meet the limit and down while they miss it (or build a
// backlog), then, from the first window that reverses direction, fine
// steps up after a pass and down after a miss. Near the limit a
// window's outcome is partly chance, so the estimate is the geometric
// mean of the rates the fine staircase visits, which a single unlucky
// window cannot drag far.
constexpr unsigned SearchWindows = Rounds;
constexpr double CoarseStep = 1.25, FineStep = 1.06;

bool ServeStage::searchDone() const {
  return SearchWindowsRun == SearchWindows;
}

void ServeStage::searchStep(double Seconds) {
  if (searchDone())
    return;
  ++SearchWindowsRun;
  Window W = run(Rate, Seconds);
  account(W, false);
  bool Pass = W.meetsLimit();
  if (Pass)
    HighestPass = std::max(HighestPass, Rate);
  else
    LowestFail = LowestFail ? std::min(LowestFail, Rate) : Rate;
  if (HighestPass && LowestFail) // Bracketed: fine staircase.
    StaircaseRates.push_back(Rate);
  double Step = HighestPass && LowestFail ? FineStep : CoarseStep;
  Rate = Pass ? Rate * Step : Rate / Step;
}

void ServeStage::finish(MetricMap &EndToEnd) {
  EndToEnd["serve_p50_ms"] = quantile(SliceP50, Quiet);
  EndToEnd["serve_p99_ms"] = quantile(FixedLatencyMs, 0.99);
  EndToEnd["serve_samples"] = static_cast<double>(FixedLatencyMs.size());
  double MaxRate = HighestPass ? HighestPass : LowestFail / CoarseStep;
  if (!StaircaseRates.empty()) {
    double LogSum = 0;
    for (double R : StaircaseRates)
      LogSum += std::log(R);
    MaxRate = std::exp(LogSum / StaircaseRates.size());
  }
  EndToEnd["serve_max_fn_per_s"] = MaxRate;
}

void ServeStage::trace(double Seconds, const MetricMap &EndToEnd,
                       MetricMap &Layers) {
  Trace::get().setEnabled(true);
  uint64_t FirstId = NextId;
  Window W = run(FixedRateFnPerSec, Seconds);
  account(W, true);
  traceRequests(W, FirstId, Layers);
  Trace::get().setEnabled(false);
  double P50 = EndToEnd.at("serve_p50_ms");
  Layers["trace.serve_overhead_pct"] =
      100.0 * (quantile(W.latenciesMs(), 0.50) - P50) / P50;
  Layers["serve.queue_peak"] =
      static_cast<double>(Server->stats().QueuePeak.load());
  Layers["serve.shed"] = static_cast<double>(Server->stats().Shed.load());
}
