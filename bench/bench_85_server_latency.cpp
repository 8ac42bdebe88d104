//===- bench_85_server_latency.cpp - Compile-server latency ---------------===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
// Measures the compile-server mode that removes the remaining fixed
// costs of rule-driven selection once the matcher automaton exists:
//
//   1. cold start: mapping a ~12k-rule automaton image (mmap +
//      header/CRC validation + one bounds-check pass), before and
//      after library minimization, next to the rule-library path the
//      server runs before it maps anything (load + non-normalized
//      filter + specific-first sort + prepare), and
//   2. resident service: >= 1M operation selections streamed through
//      one mmap'ed automaton shared read-only by a multi-threaded
//      SelectionService, reporting functions/sec, selections/sec, and
//      the p50/p95/p99 per-function selection latency, plus the
//      thread-scaling factor over a single-threaded service.
//
// The byte-identity of the served machine code against single-shot
// `selgen-compile --selector auto` is asserted by tests/test_serve.cpp;
// this harness only quantifies the latency claims.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "analysis/LibraryMinimizer.h"
#include "eval/Workloads.h"
#include "isel/AutomatonSelector.h"
#include "matchergen/BinaryAutomaton.h"
#include "serve/SelectionServer.h"
#include "serve/SelectionService.h"
#include "support/Statistics.h"
#include "support/StringUtils.h"
#include "support/Timer.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace selgen;
using namespace selgen::bench;

namespace {

uint64_t envOr(const char *Name, uint64_t Default) {
  const char *Value = std::getenv(Name);
  if (!Value || !*Value)
    return Default;
  return std::strtoull(Value, nullptr, 10);
}

double percentile(std::vector<double> &Sorted, double P) {
  if (Sorted.empty())
    return 0;
  size_t Index = static_cast<size_t>(P * (Sorted.size() - 1) + 0.5);
  return Sorted[std::min(Index, Sorted.size() - 1)];
}

struct ServiceRun {
  uint64_t Batches = 0;
  uint64_t Functions = 0;
  uint64_t Selections = 0; ///< Covered operation selections.
  uint64_t RulesTried = 0;
  uint64_t NodesVisited = 0;
  double WallSeconds = 0;
  std::vector<double> LatenciesUs; ///< Per-function selection time.
};

/// Streams batches of every cint2000 workload through \p Service until
/// \p TargetFunctions function selections have been served.
ServiceRun drive(SelectionService &Service, uint64_t TargetFunctions,
                 unsigned Repeat) {
  BatchRequest Request;
  Request.Id = 1;
  Request.Width = Service.width();
  for (unsigned Copy = 0; Copy < Repeat; ++Copy)
    for (const WorkloadProfile &Profile : cint2000Profiles())
      Request.Workloads.push_back(Profile.Name);

  ServiceRun Run;
  Timer Wall;
  while (Run.Functions < TargetFunctions) {
    std::string Error;
    std::optional<BatchReply> Reply = Service.process(Request, &Error);
    if (!Reply) {
      std::fprintf(stderr, "FAILURE: batch rejected: %s\n", Error.c_str());
      std::exit(1);
    }
    ++Request.Id;
    ++Run.Batches;
    for (const BatchReply::Result &R : Reply->Results) {
      ++Run.Functions;
      Run.Selections += R.CoveredOperations;
      Run.RulesTried += R.RulesTried;
      Run.NodesVisited += R.NodesVisited;
      Run.LatenciesUs.push_back(R.SelectUs);
    }
  }
  Run.WallSeconds = Wall.elapsedSeconds();
  return Run;
}

} // namespace

int main() {
  printBenchHeader(
      "Compile-server mode: mmap cold start and resident selection latency",
      "Buchwald et al., CGO'18, Section 7.3 (selection-phase cost of the "
      "~60 000-rule library)");

  // --- Library and automaton artifacts ---------------------------------
  SmtContext Smt;
  BenchGoals FullGoals = makeBenchGoals("full");
  PatternDatabase FullDb =
      loadOrSynthesizeLibrary(Smt, "full", FullGoals.Goals);
  FullDb.filterNonNormalized();
  FullDb.sortSpecificFirst();

  const size_t TargetRules = envOr("SELGEN_BENCH_SERVER_RULES", 12000);
  PatternDatabase Inflated = inflateLibrary(FullDb, TargetRules);
  PreparedLibrary Library(Inflated, FullGoals.Goals);

  Timer CompileTimer;
  MatcherAutomaton Automaton = buildMatcherAutomaton(Library);
  double CompileSec = CompileTimer.elapsedSeconds();

  const std::string BinPath = "matcher-automaton-bench85.matb";
  if (!Automaton.writeBinaryFile(BinPath)) {
    std::fprintf(stderr, "FAILURE: cannot write the automaton image\n");
    return 1;
  }

  std::printf("library: %s rules; automaton: %s states, %s transitions "
              "(compiled in %s)\n",
              formatGrouped(Inflated.size()).c_str(),
              formatGrouped(Automaton.view().numStates()).c_str(),
              formatGrouped(Automaton.view().numTransitions()).c_str(),
              formatDuration(CompileSec).c_str());

  // --- Minimized arm ----------------------------------------------------
  // The same library after selgen-minimize's first-match pass
  // (analysis/LibraryMinimizer): inflation mutates shift-amount
  // constants out of range and clones shadows of existing rules, so
  // the paper-scale image carries certificate-backed dead weight the
  // cold-start comparison below quantifies.
  MinimizeResult Min = minimizeLibrary(Inflated, FullGoals.Goals);
  PreparedLibrary MinLibrary(Min.Minimized, FullGoals.Goals);
  MatcherAutomaton MinAutomaton = buildMatcherAutomaton(MinLibrary);
  const std::string MinBinPath = "matcher-automaton-bench85.min.matb";
  if (!MinAutomaton.writeBinaryFile(MinBinPath)) {
    std::fprintf(stderr, "FAILURE: cannot write the minimized image\n");
    return 1;
  }
  std::printf("minimized: %s rules (%zu deleted with certificates), "
              "%s states, %s transitions\n",
              formatGrouped(Min.Minimized.size()).c_str(),
              Min.Certificates.size(),
              formatGrouped(MinAutomaton.view().numStates()).c_str(),
              formatGrouped(MinAutomaton.view().numTransitions()).c_str());

  // --- Cold start: mmap, before/after minimization ---------------------
  // Mapping is mmap + validation with zero deserialization, so its cost
  // is one read-only pass over the tables, measured end to end (open to
  // usable automaton).
  const int MapReps = 200;
  auto measureMap = [&](const std::string &Path, size_t WantStates,
                        size_t &Bytes) {
    Timer MapTimer;
    for (int Rep = 0; Rep < MapReps; ++Rep) {
      std::string MapError;
      std::unique_ptr<MappedAutomaton> MapTry =
          MatcherAutomaton::mapBinary(Path, &MapError);
      if (!MapTry || MapTry->view().numStates() != WantStates) {
        std::fprintf(stderr, "FAILURE: mmap reload failed: %s\n",
                     MapError.c_str());
        std::exit(1);
      }
      Bytes = MapTry->sizeBytes();
    }
    return MapTimer.elapsedSeconds() / MapReps;
  };

  size_t MappedBytes = 0;
  double MapSec =
      measureMap(BinPath, Automaton.view().numStates(), MappedBytes);
  size_t MinMappedBytes = 0;
  double MinMapSec =
      measureMap(MinBinPath, MinAutomaton.view().numStates(), MinMappedBytes);

  // The library path selgen-served runs before mapping the image, on
  // the same inflated library read back from its text form.
  const std::string LibraryPath = "rule-library-bench85.dat";
  Inflated.saveToFile(LibraryPath);
  // Each phase is timed on its own as well; the phases of one rep run
  // back to back, so their sum is the total.
  const int LibraryReps = 3;
  enum { Deserialize, Filter, Sort, Prepare, Release, NumPhases };
  std::array<double, NumPhases> PhaseSec{};
  Timer LibraryTimer;
  for (int Rep = 0; Rep < LibraryReps; ++Rep) {
    Timer PhaseTimer;
    auto endPhase = [&](int Phase) {
      PhaseSec[Phase] += PhaseTimer.elapsedSeconds() / LibraryReps;
      PhaseTimer.reset();
    };
    std::optional<PatternDatabase> Loaded =
        PatternDatabase::loadFromFile(LibraryPath);
    endPhase(Deserialize);
    Loaded->filterNonNormalized();
    endPhase(Filter);
    Loaded->sortSpecificFirst();
    endPhase(Sort);
    std::optional<PreparedLibrary> Reloaded(std::in_place, *Loaded,
                                            FullGoals.Goals);
    endPhase(Prepare);
    if (Reloaded->rules().empty()) {
      std::fprintf(stderr, "FAILURE: reloaded library has no rules\n");
      return 1;
    }
    // The server's order: the database goes first, and the prepared
    // library releases the rule store it shared.
    Loaded.reset();
    Reloaded.reset();
    endPhase(Release);
  }
  double LibrarySec = LibraryTimer.elapsedSeconds() / LibraryReps;

  TablePrinter ColdTable({"Startup path", "Time", "Image"});
  ColdTable.addRow({"library load + filter + sort + prepare (" +
                        LibraryPath + ")",
                    formatDouble(LibrarySec * 1e3, 2) + " ms",
                    formatGrouped(Inflated.serialize().size()) + " B"});
  // Each record's whole load (parse, rule with its fingerprint and
  // normal-form verdict, index key) runs in deserialize; the filter
  // compacts over the stored verdicts and re-allocates the survivors;
  // preparation shares the database's rules instead of copying them.
  const char *PhaseNames[NumPhases] = {
      "  deserialize + normal-form verdict (PatternDatabase::loadFromFile)",
      "  non-normalized filter (compaction, survivors re-allocated)",
      "  specific-first sort",
      "  prepare (PreparedLibrary, shares the rule store)",
      "  release (database, then prepared library and store)"};
  for (int Phase = 0; Phase < NumPhases; ++Phase)
    ColdTable.addRow({PhaseNames[Phase],
                      formatDouble(PhaseSec[Phase] * 1e3, 2) + " ms", ""});
  ColdTable.addRow({"mmap + validate (" + BinPath + ")",
                    formatDouble(MapSec * 1e6, 1) + " us",
                    formatGrouped(MappedBytes) + " B"});
  ColdTable.addRow({"mmap + validate, minimized (" + MinBinPath + ")",
                    formatDouble(MinMapSec * 1e6, 1) + " us",
                    formatGrouped(MinMappedBytes) + " B"});
  std::printf("\n%s", ColdTable.render().c_str());
  std::printf("\nlibrary load: %.2f ms (rule library to prepared rules, "
              "before the image is mapped)\n",
              LibrarySec * 1e3);
  std::printf("minimized binary image: %s B vs %s B (%.1f%% smaller)\n",
              formatGrouped(MinMappedBytes).c_str(),
              formatGrouped(MappedBytes).c_str(),
              MappedBytes
                  ? 100.0 * (1.0 - static_cast<double>(MinMappedBytes) /
                                       static_cast<double>(MappedBytes))
                  : 0.0);
  if (MinMappedBytes >= MappedBytes) {
    std::fprintf(stderr,
                 "FAILURE: minimization did not shrink the binary image\n");
    return 1;
  }

  // --- Resident service: latency distribution and throughput -----------
  printBenchHeader(
      "Resident selection service (mapped image, arena-per-request)",
      "p50/p95/p99 per-function selection latency over >= 1M function "
      "selections");

  std::string Error;
  std::unique_ptr<MappedAutomaton> Mapped =
      MatcherAutomaton::mapBinary(BinPath, &Error);
  if (!Mapped) {
    std::fprintf(stderr, "FAILURE: %s\n", Error.c_str());
    return 1;
  }
  std::string Stale = automatonStalenessError(Mapped->view(), Library);
  if (!Stale.empty()) {
    std::fprintf(stderr, "FAILURE: %s\n", Stale.c_str());
    return 1;
  }

  unsigned HwThreads = std::thread::hardware_concurrency();
  unsigned Threads = static_cast<unsigned>(envOr(
      "SELGEN_BENCH_SERVER_THREADS",
      std::clamp(HwThreads ? HwThreads : 4u, 2u, 8u)));
  uint64_t TargetFunctions =
      envOr("SELGEN_BENCH_SERVER_FUNCTIONS", 1000000);
  const unsigned Repeat = 8; ///< Workload copies per batch.

  // Thread-scaling reference: the same service shape with one worker.
  SelectionService Single(Library, Mapped->view(), Width, 1);
  ServiceRun SingleRun =
      drive(Single, std::max<uint64_t>(TargetFunctions / 20, 1), Repeat);

  SelectionService Service(Library, Mapped->view(), Width, Threads);
  ServiceRun Run = drive(Service, TargetFunctions, Repeat);

  std::sort(Run.LatenciesUs.begin(), Run.LatenciesUs.end());
  double SingleFnPerSec = SingleRun.Functions / SingleRun.WallSeconds;
  double FnPerSec = Run.Functions / Run.WallSeconds;

  TablePrinter LatTable({"Metric", "Value"});
  LatTable.addRow({"worker threads", std::to_string(Threads)});
  LatTable.addRow({"batches served", formatGrouped(Run.Batches)});
  LatTable.addRow({"functions compiled", formatGrouped(Run.Functions)});
  LatTable.addRow(
      {"operation selections", formatGrouped(Run.Selections)});
  LatTable.addRow({"wall time", formatDuration(Run.WallSeconds)});
  LatTable.addRow({"functions / s", formatGrouped(
                                        static_cast<uint64_t>(FnPerSec))});
  LatTable.addRow(
      {"selections / s",
       formatGrouped(static_cast<uint64_t>(Run.Selections /
                                           Run.WallSeconds))});
  LatTable.addRow({"p50 select latency",
                   formatDouble(percentile(Run.LatenciesUs, 0.50), 1) +
                       " us"});
  LatTable.addRow({"p95 select latency",
                   formatDouble(percentile(Run.LatenciesUs, 0.95), 1) +
                       " us"});
  LatTable.addRow({"p99 select latency",
                   formatDouble(percentile(Run.LatenciesUs, 0.99), 1) +
                       " us"});
  LatTable.addRow({"1-thread functions / s",
                   formatGrouped(static_cast<uint64_t>(SingleFnPerSec))});
  LatTable.addRow({"thread scaling",
                   formatDouble(FnPerSec / SingleFnPerSec, 2) + "x"});
  std::printf("\n%s", LatTable.render().c_str());
  std::printf("\n(per-function latency is the selection engine's own "
              "stopwatch, so queueing\nin the batch dispatcher is "
              "excluded; an operation selection covers one subject\n"
              "operation with a rule or fallback emission)\n");

  std::printf("service telemetry: %llu batches, %llu functions, "
              "%llu rules tried, %llu automaton states visited\n",
              static_cast<unsigned long long>(Run.Batches),
              static_cast<unsigned long long>(Run.Functions),
              static_cast<unsigned long long>(Run.RulesTried),
              static_cast<unsigned long long>(Run.NodesVisited));

  if (Run.Functions < TargetFunctions) {
    std::fprintf(stderr, "FAILURE: served fewer functions than target\n");
    return 1;
  }

  // --- Overload arm: typed backpressure under retrying clients ----------
  // The robustness claim of the hardened server: with a deliberately
  // tiny admission queue and one dispatcher, a burst of concurrent
  // clients is shed with typed Overloaded replies (O(1), carrying a
  // retry-after hint) instead of queueing without bound — and because
  // the rejection is typed, clients that honor the hint still get
  // every request served. Completed must equal offered exactly.
  printBenchHeader(
      "Overload shedding under concurrent retrying clients",
      "bounded admission queue; typed Overloaded replies with "
      "retry-after hints; zero lost requests");

  std::signal(SIGPIPE, SIG_IGN); // wire::writeFrame contract.
  const unsigned Clients =
      static_cast<unsigned>(envOr("SELGEN_BENCH_SERVER_CLIENTS", 8));
  const unsigned PerClient =
      static_cast<unsigned>(envOr("SELGEN_BENCH_SERVER_OVERLOAD_REQS", 24));

  SelectionService OverloadService(Library, Mapped->view(), Width, 1);
  ServerOptions ServerOpts;
  ServerOpts.MaxQueue = 4;
  ServerOpts.RetryAfterMs = 2;
  ServerOpts.PollMs = 5;
  SelectionServer Server(OverloadService, ServerOpts);

  std::vector<std::array<int, 2>> Pairs(Clients);
  for (unsigned I = 0; I < Clients; ++I) {
    int Sv[2];
    if (socketpair(AF_UNIX, SOCK_STREAM, 0, Sv) != 0) {
      std::fprintf(stderr, "FAILURE: socketpair failed\n");
      return 1;
    }
    Pairs[I] = {Sv[0], Sv[1]};
    Server.addConnection(Sv[0], Sv[0]);
  }
  std::thread ServerThread([&Server] { Server.run(); });

  BatchRequest Burst;
  Burst.Width = Width;
  for (const WorkloadProfile &Profile : cint2000Profiles())
    Burst.Workloads.push_back(Profile.Name);

  std::atomic<uint64_t> Completed{0}, Retries{0}, ClientFailures{0};
  Timer OverloadWall;
  std::vector<std::thread> ClientThreads;
  for (unsigned I = 0; I < Clients; ++I) {
    ClientThreads.emplace_back([&, I] {
      int Fd = Pairs[I][1];
      BatchRequest Req = Burst;
      for (unsigned R = 0; R < PerClient; ++R) {
        Req.Id = static_cast<uint64_t>(I) * PerClient + R + 1;
        const std::string Payload = encodeBatchRequest(Req);
        bool Served = false;
        for (unsigned Attempt = 0; Attempt < 10000 && !Served; ++Attempt) {
          if (!wire::writeFrame(Fd, wire::Request, Payload))
            break;
          wire::Frame Reply;
          if (wire::readFrame(Fd, Reply, 30000) != wire::ReadStatus::Ok)
            break;
          if (Reply.Type == wire::Response) {
            Completed.fetch_add(1, std::memory_order_relaxed);
            Served = true;
            break;
          }
          ServeError Err = decodeServeError(Reply.Payload);
          if (Err.Code != ServeErrorCode::Overloaded &&
              Err.Code != ServeErrorCode::Timeout)
            break; // Permanent rejection: retrying is useless.
          Retries.fetch_add(1, std::memory_order_relaxed);
          std::this_thread::sleep_for(
              std::chrono::milliseconds(Err.RetryAfterMs ? Err.RetryAfterMs
                                                         : 1));
        }
        if (!Served) {
          ClientFailures.fetch_add(1, std::memory_order_relaxed);
          return;
        }
      }
      wire::writeFrame(Fd, wire::Shutdown, std::string());
    });
  }
  for (std::thread &T : ClientThreads)
    T.join();
  Server.requestStop();
  ServerThread.join();
  double OverloadSec = OverloadWall.elapsedSeconds();
  for (const std::array<int, 2> &P : Pairs) {
    close(P[0]);
    close(P[1]);
  }

  const ServerStats &S = Server.stats();
  const uint64_t Offered = static_cast<uint64_t>(Clients) * PerClient;
  TablePrinter OverTable({"Metric", "Value"});
  OverTable.addRow({"clients", std::to_string(Clients)});
  OverTable.addRow({"requests offered", formatGrouped(Offered)});
  OverTable.addRow({"requests completed",
                    formatGrouped(Completed.load())});
  OverTable.addRow({"client retries", formatGrouped(Retries.load())});
  OverTable.addRow({"typed Overloaded replies (shed)",
                    formatGrouped(S.Shed.load())});
  OverTable.addRow({"typed Timeout replies",
                    formatGrouped(S.Timeouts.load())});
  OverTable.addRow({"admission queue bound",
                    std::to_string(ServerOpts.MaxQueue)});
  OverTable.addRow({"queue depth peak", formatGrouped(S.QueuePeak.load())});
  OverTable.addRow({"wall time", formatDuration(OverloadSec)});
  OverTable.addRow(
      {"served batches / s",
       formatGrouped(static_cast<uint64_t>(
           OverloadSec > 0 ? Completed.load() / OverloadSec : 0))});
  std::printf("\n%s", OverTable.render().c_str());
  std::printf("\n(every shed request was eventually served after client "
              "backoff; the queue-depth\npeak staying at the bound shows "
              "admission control, not memory, absorbed the burst)\n");

  if (ClientFailures.load() != 0 || Completed.load() != Offered) {
    std::fprintf(stderr,
                 "FAILURE: %llu of %llu requests lost under overload\n",
                 static_cast<unsigned long long>(Offered - Completed.load()),
                 static_cast<unsigned long long>(Offered));
    return 1;
  }
  if (Clients > ServerOpts.MaxQueue + 1 && S.Shed.load() == 0) {
    std::fprintf(stderr, "FAILURE: overload arm never triggered shedding\n");
    return 1;
  }
  return 0;
}
