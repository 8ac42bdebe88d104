//===- selgen-served.cpp - Resident compile server -----------------------------===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The resident compile server: loads one rule library and one matcher
/// automaton at startup (an mmap'ed .matb image — validation instead
/// of parsing, O(1) startup — or, without --automaton, one compiled in
/// memory), then serves batched
/// selection requests over the selgen frame protocol. Selection fans
/// out over a pool of worker threads sharing the read-only automaton;
/// results are byte-identical to single-shot
/// `selgen-compile --selector auto` runs under the same --cost-model
/// (unit, the default, is first-match; latency and size tile).
///
///   selgen-matchergen --library rules.dat --output rules.matb
///   selgen-served --library rules.dat --automaton rules.matb --threads 4
///   selgen-served --library rules.dat --automaton rules.matb --socket S
///   selgen-served --library rules.dat --cost-model latency
///
/// Without --socket the protocol runs on stdin/stdout (the solver-pool
/// worker convention: the protocol fd is claimed and stdout redirected
/// to stderr before anything else runs, so stray prints cannot corrupt
/// frames). With --socket PATH the server binds a unix stream socket
/// and multiplexes every connection in one event loop; clients
/// reconnect cheaply and the automaton stays resident.
///
/// Production hardening (see serve/SelectionServer.h for the model):
///   --request-deadline-ms  wall budget per request (typed Timeout)
///   --write-stall-ms       stalled-writer eviction budget
///   --max-queue            admission queue bound (typed Overloaded)
///   --max-inflight-bytes   resident request+reply byte bound
///   --retry-after-ms       backoff hint in transient error replies
///
/// SIGTERM/SIGINT drain: every admitted request is answered, late
/// arrivals get a typed ShuttingDown error, then exit 0 with the
/// socket unlinked. SIGHUP hot-reloads the --automaton image
/// off-thread (validate, then an atomic swap; a corrupt or stale
/// candidate is refused and the old image keeps serving) without
/// dropping a connection.
///
//===----------------------------------------------------------------------===//

#include "isel/AutomatonSelector.h"
#include "isel/PreparedLibrary.h"
#include "serve/ImageReloader.h"
#include "serve/SelectionServer.h"
#include "support/CommandLine.h"
#include "support/Statistics.h"

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <memory>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace selgen;

namespace {

std::atomic<bool> GStop{false};
std::atomic<bool> GReload{false};
SelectionServer *volatile GActiveServer = nullptr;

void onTerminate(int) {
  GStop.store(true, std::memory_order_relaxed);
  if (SelectionServer *Server = GActiveServer)
    Server->requestStop(); // Atomic store + pipe write; signal-safe.
}

void onReload(int) { GReload.store(true, std::memory_order_relaxed); }

int listenUnixSocket(const std::string &Path) {
  sockaddr_un Addr;
  if (Path.size() >= sizeof(Addr.sun_path)) {
    std::fprintf(stderr, "error: socket path too long: %s\n", Path.c_str());
    return -1;
  }
  int Fd = socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (Fd < 0) {
    std::perror("socket");
    return -1;
  }
  ::unlink(Path.c_str()); // A stale socket from a previous run.
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size());
  if (bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0 ||
      listen(Fd, 64) < 0) {
    std::perror("bind/listen");
    close(Fd);
    return -1;
  }
  return Fd;
}

} // namespace

int main(int argc, char **argv) {
  const std::vector<std::string> Flags = {
      "library",        "width",          "automaton",
      "threads",        "socket",         "cost-model",
      "stats-json",     "request-deadline-ms", "write-stall-ms",
      "max-queue",      "max-inflight-bytes",  "retry-after-ms",
      "help"};
  CommandLine Cli(argc, argv, Flags);
  if (!Cli.errors().empty() || Cli.hasFlag("help") ||
      !Cli.positional().empty()) {
    for (const std::string &Error : Cli.errors())
      std::fprintf(stderr, "%s\n", Error.c_str());
    std::fprintf(stderr, "%s\n",
                 CommandLine::usage("selgen-served", Flags).c_str());
    return Cli.hasFlag("help") ? 0 : 1;
  }

  std::string BadNumber;
  std::optional<unsigned> WidthOption =
      Cli.checkedOption("width", 8, NumberRule::Width, BadNumber);
  std::optional<unsigned> ThreadsOption =
      Cli.checkedOption("threads", 4, NumberRule::Count, BadNumber);
  if (!WidthOption || !ThreadsOption) {
    std::fprintf(stderr, "error: %s\n", BadNumber.c_str());
    return 1;
  }
  unsigned Width = *WidthOption;
  unsigned Threads = *ThreadsOption;
  std::string LibraryPath = Cli.stringOption("library", "rules.dat");
  std::string AutomatonPath = Cli.stringOption("automaton", "");
  std::string SocketPath = Cli.stringOption("socket", "");
  std::optional<CostKind> CostModel =
      parseCostKind(Cli.stringOption("cost-model", "unit"));
  if (!CostModel) {
    std::fprintf(stderr,
                 "error: unknown --cost-model '%s' (unit|latency|size)\n",
                 Cli.stringOption("cost-model", "").c_str());
    return 1;
  }

  ServerOptions ServerOpts;
  ServerOpts.RequestDeadlineMs = Cli.intOption("request-deadline-ms", 30000);
  ServerOpts.WriteStallMs = Cli.intOption("write-stall-ms", 10000);
  // atoll parses garbage as 0, and a 0 bound is a server that sheds
  // every request; refuse it rather than serve nothing quietly. The
  // deadline knobs may be <= 0 (that documented value disables them).
  int64_t MaxQueue = Cli.intOption("max-queue", 64);
  int64_t MaxInflightBytes = Cli.intOption("max-inflight-bytes", 256ll << 20);
  int64_t RetryAfterMs = Cli.intOption("retry-after-ms", 100);
  if (MaxQueue < 1 || MaxInflightBytes < 1 || RetryAfterMs < 0 ||
      RetryAfterMs > UINT32_MAX) {
    std::fprintf(stderr,
                 "error: --max-queue and --max-inflight-bytes must be "
                 ">= 1 and --retry-after-ms >= 0\n");
    return 1;
  }
  ServerOpts.MaxQueue = static_cast<size_t>(MaxQueue);
  ServerOpts.MaxInflightBytes = static_cast<size_t>(MaxInflightBytes);
  ServerOpts.RetryAfterMs = static_cast<uint32_t>(RetryAfterMs);

  // A client that vanished mid-reply must surface as a failed write,
  // not a SIGPIPE death.
  signal(SIGPIPE, SIG_IGN);
  signal(SIGTERM, onTerminate);
  signal(SIGINT, onTerminate);
  signal(SIGHUP, onReload);

  PatternDatabase Database = loadSelectorLibrary(LibraryPath);
  GoalLibrary Goals = GoalLibrary::build(Width, GoalLibrary::allGroups());
  PreparedLibrary Library = prepareSelectorLibrary(Database, Goals);

  // The automaton: the mapped --automaton image, or compiled in memory
  // when no file is given.
  std::unique_ptr<MappedAutomaton> Mapped;
  std::optional<MatcherAutomaton> Compiled;
  if (!AutomatonPath.empty()) {
    std::string Error;
    Mapped = MatcherAutomaton::mapBinary(AutomatonPath, &Error);
    if (!Mapped) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return 1;
    }
    std::string Stale = automatonStalenessError(Mapped->view(), Library);
    if (!Stale.empty()) {
      std::fprintf(stderr, "error: %s\n", Stale.c_str());
      return 1;
    }
  } else {
    Compiled = buildMatcherAutomaton(Library);
  }
  const BinaryAutomatonView &View =
      Mapped ? Mapped->view() : Compiled->view();

  SelectionService Service(Library, View, Width, Threads, *CostModel);

  // SIGHUP hot reload is only meaningful for an on-disk image (an
  // in-memory automaton has nothing to re-map).
  std::unique_ptr<ImageReloader> Reloader;
  if (Mapped)
    Reloader =
        std::make_unique<ImageReloader>(Service, Library, AutomatonPath);
  ServerOpts.TickHook = [&Reloader] {
    if (GReload.exchange(false, std::memory_order_relaxed)) {
      if (Reloader)
        Reloader->requestReload();
      else
        std::fprintf(stderr, "selgen-served: ignoring SIGHUP (no "
                             "automaton image to reload)\n");
    }
    if (Reloader)
      Reloader->tick();
  };
  if (Reloader) {
    ImageReloader *R = Reloader.get();
    ServerOpts.HealthAugment = [R](HealthReply &Reply) {
      R->augmentHealth(Reply);
    };
  }

  std::fprintf(stderr,
               "selgen-served: %zu rules, %zu states (%s), %u threads, "
               "cost model %s\n",
               Library.rules().size(), View.numStates(),
               Mapped ? "mapped" : "in-memory", Threads,
               costKindName(*CostModel));

  int Code;
  Statistics &Stats = Statistics::get();
  {
    int ListenFd = -1;
    std::unique_ptr<SelectionServer> Server;
    if (!SocketPath.empty()) {
      ListenFd = listenUnixSocket(SocketPath);
      if (ListenFd < 0)
        return 1;
      Server = std::make_unique<SelectionServer>(Service, ServerOpts);
      Server->serveListenFd(ListenFd);
      std::fprintf(stderr, "selgen-served: listening on %s\n",
                   SocketPath.c_str());
    } else {
      // stdin/stdout mode: claim the protocol stream, then point
      // stdout at stderr so no library print can interleave with
      // frames.
      int ProtocolFd = dup(STDOUT_FILENO);
      if (ProtocolFd < 0)
        return 2;
      dup2(STDERR_FILENO, STDOUT_FILENO);
      Server = std::make_unique<SelectionServer>(Service, STDIN_FILENO,
                                                 ProtocolFd, ServerOpts);
    }
    GActiveServer = Server.get();
    if (GStop.load(std::memory_order_relaxed))
      Server->requestStop(); // A signal raced startup.
    Code = Server->run();
    GActiveServer = nullptr;
    if (ListenFd >= 0) {
      close(ListenFd);
      ::unlink(SocketPath.c_str());
      Code = 0; // Socket mode: corruption only ever cost a connection.
    }

    const ServerStats &SS = Server->stats();
    auto Note = [&Stats](const char *Name,
                         const std::atomic<uint64_t> &Value) {
      Stats.add(Name, static_cast<int64_t>(
                          Value.load(std::memory_order_relaxed)));
    };
    std::fprintf(stderr,
                 "selgen-served: served %llu batches, %llu functions\n",
                 static_cast<unsigned long long>(SS.Batches.load()),
                 static_cast<unsigned long long>(SS.Functions.load()));
    Note("served.admitted", SS.Admitted);
    Note("served.batches", SS.Batches);
    Note("served.functions", SS.Functions);
    Note("served.rules_tried", SS.RulesTried);
    Note("served.nodes_visited", SS.NodesVisited);
    Note("served.shed", SS.Shed);
    Note("served.timeouts", SS.Timeouts);
    Note("served.bad_requests", SS.BadRequests);
    Note("served.health_probes", SS.HealthProbes);
    Note("served.shutdown_rejects", SS.ShutdownRejects);
    Note("served.slow_client_drops", SS.SlowClientDrops);
    Note("served.condemned_conns", SS.CondemnedConns);
    Note("served.connections", SS.Connections);
    Note("served.queue_peak", SS.QueuePeak);
    Note("served.inflight_bytes_peak", SS.InflightPeak);
    Note("served.request_us_total", SS.RequestUsTotal);
  }
  if (Reloader) {
    Reloader->drain();
    Stats.add("served.reloads", static_cast<int64_t>(Reloader->reloads()));
    Stats.add("served.reload_failures",
              static_cast<int64_t>(Reloader->failures()));
  }

  std::string StatsPath = Cli.stringOption("stats-json", "");
  if (!StatsPath.empty() && !Stats.writeJsonFile(StatsPath)) {
    std::fprintf(stderr, "error: cannot write %s\n", StatsPath.c_str());
    return 1;
  }
  return Code;
}
