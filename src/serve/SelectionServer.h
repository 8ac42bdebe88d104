//===- SelectionServer.h - Compile-server event loop -------------*- C++ -*-===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The wire-facing loop of selgen-served. One SelectionServer
/// multiplexes any number of client connections over poll(2) with
/// non-blocking reads and writes, admits complete frames into a
/// bounded request queue, and feeds them to the resident
/// SelectionService from a single dispatcher thread. The design goal
/// is containment: a wedged, slow, or malicious client can cost at
/// most its own connection — never a worker thread, never unbounded
/// memory, never the whole service.
///
/// Robustness contract:
///  - Per-request deadline: every admitted request carries a wall
///    budget (Options.RequestDeadlineMs, stamped at admission). A
///    request still queued when its budget expires is answered with a
///    typed Timeout error frame — the connection survives. A client
///    that stalls *mid-frame* for longer than the same budget is
///    dropped (a half-delivered frame cannot be resynchronized).
///  - Overload shedding: admission is refused with a typed Overloaded
///    error frame (carrying a retry-after hint) once MaxQueue requests
///    are waiting or MaxInflightBytes of request payloads plus
///    buffered replies are in memory. Shedding is an O(1) reply;
///    memory stays bounded no matter how fast clients push.
///  - Slow-writer containment: replies are queued per connection and
///    drained non-blocking; a connection whose queue makes no progress
///    for WriteStallMs is dropped.
///  - Health probes (ServeProtocol) are answered inline by the event
///    loop, bypassing the admission queue, so readiness checks succeed
///    even at full load.
///  - Termination: EOF and Shutdown frames end a connection cleanly
///    after its pending replies flush. Garbage on a stream condemns
///    only that connection (in pipe mode it ends run() with exit code
///    2, the PR 6 policy). requestStop() — async-signal-safe — drains:
///    every admitted request is served to completion (or answered with
///    a typed Timeout), requests arriving after the stop get a typed
///    ShuttingDown error, write queues flush (stalled clients are
///    evicted, not waited on), one last read answers what arrived
///    during the drain, then run() returns 0.
///
//===----------------------------------------------------------------------===//

#ifndef SELGEN_SERVE_SELECTIONSERVER_H
#define SELGEN_SERVE_SELECTIONSERVER_H

#include "serve/SelectionService.h"
#include "support/Wire.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <thread>
#include <vector>

namespace selgen {

/// Tunables of one server instance (all have serving-grade defaults).
struct ServerOptions {
  /// Wall budget per request, admission to reply handoff; also the
  /// mid-frame read-stall budget. <= 0 disables deadlines.
  int64_t RequestDeadlineMs = 30000;
  /// A connection with pending output that moves no bytes for this
  /// long is dropped. <= 0 disables eviction.
  int64_t WriteStallMs = 10000;
  /// Max requests admitted but not yet dispatched before shedding.
  size_t MaxQueue = 64;
  /// Max bytes of queued request payloads + buffered replies before
  /// shedding.
  size_t MaxInflightBytes = 256u << 20;
  /// Retry-after hint stamped into Overloaded / ShuttingDown replies.
  uint32_t RetryAfterMs = 100;
  /// Event-loop tick; bounds stop/reload latency, not throughput.
  int PollMs = 100;
  /// Invoked once per event-loop iteration (the tool polls its SIGHUP
  /// flag here; tests use it to steer the loop). May be empty.
  std::function<void()> TickHook;
  /// Lets the owner add reload telemetry to health replies (the
  /// server fills everything else). May be empty.
  std::function<void(HealthReply &)> HealthAugment;
};

/// Monotonic counters of one server's lifetime, readable while it
/// runs (health replies and the tool's --stats-json read them live).
struct ServerStats {
  std::atomic<uint64_t> Admitted{0};   ///< Requests accepted into the queue.
  std::atomic<uint64_t> Batches{0};    ///< Batches served successfully.
  std::atomic<uint64_t> Functions{0};  ///< Functions in those batches.
  std::atomic<uint64_t> RulesTried{0}; ///< Their summed selection counters.
  std::atomic<uint64_t> NodesVisited{0};
  std::atomic<uint64_t> Shed{0};       ///< Typed Overloaded rejections.
  std::atomic<uint64_t> Timeouts{0};   ///< Typed deadline rejections.
  std::atomic<uint64_t> BadRequests{0};///< Typed malformed-payload replies.
  std::atomic<uint64_t> HealthProbes{0};
  std::atomic<uint64_t> ShutdownRejects{0}; ///< Typed ShuttingDown replies.
  std::atomic<uint64_t> SlowClientDrops{0}; ///< Stalled connections evicted.
  std::atomic<uint64_t> CondemnedConns{0};  ///< Corrupt streams dropped.
  std::atomic<uint64_t> Connections{0};     ///< Accepted + added, lifetime.
  std::atomic<uint64_t> QueuePeak{0};       ///< Deepest admission queue seen.
  std::atomic<uint64_t> InflightPeak{0};    ///< Peak inflight bytes seen.
  std::atomic<uint64_t> RequestUsTotal{0};  ///< Admission->reply-queued wall.
};

class SelectionServer {
public:
  SelectionServer(SelectionService &Service, ServerOptions Options = {});

  /// Convenience for the single-stream (pipe) topology: adds one
  /// borrowed connection over \p InFd / \p OutFd (may be the same fd).
  SelectionServer(SelectionService &Service, int InFd, int OutFd,
                  ServerOptions Options = {});

  ~SelectionServer();
  SelectionServer(const SelectionServer &) = delete;
  SelectionServer &operator=(const SelectionServer &) = delete;

  /// Adds a pre-connected client stream. The fds are borrowed, not
  /// closed (accepted socket fds, by contrast, are owned). Safe to
  /// call before run() or concurrently with it.
  void addConnection(int InFd, int OutFd);

  /// Accept-and-serve mode: poll \p Fd for new connections alongside
  /// the existing ones. The listen fd is borrowed; accepted client
  /// fds are owned and closed by the server. Call before run().
  void serveListenFd(int Fd);

  /// Runs until stop (socket mode) or until the last pipe-mode
  /// connection ends (EOF / Shutdown / corruption). Returns 0 on a
  /// clean end or stop-drain, 2 if a pipe-mode stream was condemned
  /// (socket-mode corruption only drops that connection).
  int run();

  /// Begins the drain described in the header comment. Safe to call
  /// from a signal handler or another thread.
  void requestStop();

  const ServerStats &stats() const { return Stats; }

private:
  using TimePoint = std::chrono::steady_clock::time_point;

  struct Connection {
    uint64_t Id = 0;
    int InFd = -1;
    int OutFd = -1;
    bool OwnsFds = false; ///< Accepted sockets yes, added streams no.
    wire::FrameReader Reader;
    wire::WriteQueue Out;
    size_t InFlight = 0;    ///< Admitted requests awaiting their reply.
    bool NoMoreInput = false; ///< EOF or Shutdown frame seen.
    bool Condemned = false;   ///< Corrupt stream; drop without flushing.
    TimePoint LastReadProgress;
    TimePoint LastWriteProgress;
  };

  struct PendingRequest {
    uint64_t ConnId = 0;
    TimePoint Admitted;
    TimePoint Deadline;
    bool HasDeadline = false;
    std::string Payload;
  };

  struct Completion {
    uint64_t ConnId = 0;
    std::string Bytes;        ///< Encoded frame(s) to enqueue.
    size_t RequestBytes = 0;  ///< Admission-side bytes to release.
    bool CloseAfter = false;  ///< Fault injection: drop the client.
    double RequestUs = 0;     ///< Admission->completion wall time.
  };

  void dispatcherMain();
  void wake();
  /// IO-thread only: handles one complete frame from \p Conn.
  void handleFrame(Connection &Conn, const wire::Frame &Frame);
  void queueError(Connection &Conn, ServeErrorCode Code, uint32_t RetryMs,
                  const std::string &Message);
  void queueHealthReply(Connection &Conn);
  /// IO-thread only: closes and erases a connection.
  void closeConnection(uint64_t ConnId);
  bool drainConnection(Connection &Conn);
  size_t queueDepth() const;

  SelectionService &Service;
  ServerOptions Options;
  ServerStats Stats;

  int ListenFd = -1;
  int WakeFds[2] = {-1, -1};
  std::atomic<bool> StopFlag{false};
  TimePoint StartTime;
  bool PipeCondemned = false;

  // IO-thread state.
  std::map<uint64_t, Connection> Connections;
  uint64_t NextConnId = 1;

  // Dispatcher handoff, guarded by QueueMutex.
  mutable std::mutex QueueMutex;
  std::condition_variable QueueCv;
  std::deque<PendingRequest> Queue;
  std::vector<Completion> Completions;
  std::vector<std::pair<int, int>> PendingAdds; ///< From addConnection.
  bool DispatcherStop = false;
  uint64_t Dispatching = 0; ///< Requests popped but not yet completed.

  std::atomic<size_t> InflightBytes{0};
};

} // namespace selgen

#endif // SELGEN_SERVE_SELECTIONSERVER_H
