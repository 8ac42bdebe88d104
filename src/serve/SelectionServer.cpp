//===- SelectionServer.cpp - Compile-server event loop ------------------------===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//

#include "serve/SelectionServer.h"

#include "support/FaultInjection.h"

#include <cerrno>
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace selgen;

namespace {

void setNonBlocking(int Fd) {
  int Flags = ::fcntl(Fd, F_GETFL, 0);
  if (Flags >= 0)
    ::fcntl(Fd, F_SETFL, Flags | O_NONBLOCK);
}

int64_t msSince(std::chrono::steady_clock::time_point Then) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now() - Then)
      .count();
}

} // namespace

SelectionServer::SelectionServer(SelectionService &Service,
                                 ServerOptions Options)
    : Service(Service), Options(std::move(Options)) {
  // The wake pipe exists from construction so requestStop() is safe to
  // call (including from a signal handler) before run() starts.
  if (::pipe(WakeFds) == 0) {
    setNonBlocking(WakeFds[0]);
    setNonBlocking(WakeFds[1]);
  }
}

SelectionServer::SelectionServer(SelectionService &Service, int InFd,
                                 int OutFd, ServerOptions Options)
    : SelectionServer(Service, std::move(Options)) {
  addConnection(InFd, OutFd);
}

SelectionServer::~SelectionServer() {
  for (auto &Entry : Connections) {
    Connection &Conn = Entry.second;
    if (Conn.OwnsFds) {
      ::close(Conn.InFd);
      if (Conn.OutFd != Conn.InFd)
        ::close(Conn.OutFd);
    }
  }
  if (WakeFds[0] >= 0)
    ::close(WakeFds[0]);
  if (WakeFds[1] >= 0)
    ::close(WakeFds[1]);
}

void SelectionServer::addConnection(int InFd, int OutFd) {
  {
    std::lock_guard<std::mutex> Lock(QueueMutex);
    PendingAdds.emplace_back(InFd, OutFd);
  }
  wake();
}

void SelectionServer::serveListenFd(int Fd) {
  ListenFd = Fd;
  setNonBlocking(Fd);
}

void SelectionServer::requestStop() {
  StopFlag.store(true, std::memory_order_relaxed);
  wake();
}

void SelectionServer::wake() {
  if (WakeFds[1] < 0)
    return;
  char Byte = 'w';
  // A full pipe already guarantees a pending wakeup; EAGAIN is fine.
  while (::write(WakeFds[1], &Byte, 1) < 0 && errno == EINTR) {
  }
}

size_t SelectionServer::queueDepth() const {
  std::lock_guard<std::mutex> Lock(QueueMutex);
  return Queue.size() + Dispatching;
}

void SelectionServer::queueError(Connection &Conn, ServeErrorCode Code,
                                 uint32_t RetryMs,
                                 const std::string &Message) {
  ServeError Error;
  Error.Code = Code;
  Error.RetryAfterMs = RetryMs;
  Error.Message = Message;
  std::string Bytes = wire::encodeFrame(wire::Error, encodeServeError(Error));
  InflightBytes.fetch_add(Bytes.size(), std::memory_order_relaxed);
  Conn.Out.push(std::move(Bytes));
}

void SelectionServer::queueHealthReply(Connection &Conn) {
  HealthReply Reply;
  Reply.UptimeMs = static_cast<uint64_t>(msSince(StartTime));
  Reply.Width = Service.width();
  Reply.ImageFingerprint = Service.imageFingerprint();
  Reply.ImageGeneration = Service.imageGeneration();
  Reply.QueueDepth = queueDepth();
  Reply.Batches = Stats.Batches.load(std::memory_order_relaxed);
  Reply.Shed = Stats.Shed.load(std::memory_order_relaxed);
  Reply.Timeouts = Stats.Timeouts.load(std::memory_order_relaxed);
  if (Options.HealthAugment)
    Options.HealthAugment(Reply);
  std::string Bytes =
      wire::encodeFrame(wire::Response, encodeHealthReply(Reply));
  InflightBytes.fetch_add(Bytes.size(), std::memory_order_relaxed);
  Conn.Out.push(std::move(Bytes));
}

void SelectionServer::handleFrame(Connection &Conn,
                                  const wire::Frame &Frame) {
  if (Frame.Type == wire::Shutdown) {
    // Graceful end: stop reading, flush what is owed, then close.
    Conn.NoMoreInput = true;
    return;
  }
  if (Frame.Type != wire::Request) {
    queueError(Conn, ServeErrorCode::Unsupported, 0,
               "unexpected frame type " + std::to_string(Frame.Type));
    return;
  }
  if (isHealthRequest(Frame.Payload)) {
    // Answered inline: a readiness probe must succeed even when the
    // admission queue is full or the server is draining.
    Stats.HealthProbes.fetch_add(1, std::memory_order_relaxed);
    queueHealthReply(Conn);
    return;
  }
  if (StopFlag.load(std::memory_order_relaxed)) {
    Stats.ShutdownRejects.fetch_add(1, std::memory_order_relaxed);
    queueError(Conn, ServeErrorCode::ShuttingDown, Options.RetryAfterMs,
               "server is draining");
    return;
  }

  std::string Payload = Frame.Payload;
  if (FaultInjector::get().shouldFire("serve_request_garbage") &&
      !Payload.empty())
    Payload[0] ^= 0x5a; // Malformed-input containment drill.

  // Admission control: bound both queue depth and resident bytes, and
  // answer refusals immediately — shedding must stay O(1) under any
  // incoming rate.
  size_t Depth = queueDepth();
  size_t Inflight = InflightBytes.load(std::memory_order_relaxed);
  if (Depth >= Options.MaxQueue ||
      Inflight + Payload.size() > Options.MaxInflightBytes) {
    Stats.Shed.fetch_add(1, std::memory_order_relaxed);
    queueError(Conn, ServeErrorCode::Overloaded, Options.RetryAfterMs,
               Depth >= Options.MaxQueue ? "admission queue full"
                                         : "inflight byte budget exhausted");
    return;
  }

  Stats.Admitted.fetch_add(1, std::memory_order_relaxed);
  ++Conn.InFlight;
  size_t NowInflight =
      InflightBytes.fetch_add(Payload.size(), std::memory_order_relaxed) +
      Payload.size();
  if (NowInflight > Stats.InflightPeak.load(std::memory_order_relaxed))
    Stats.InflightPeak.store(NowInflight, std::memory_order_relaxed);

  PendingRequest Request;
  Request.ConnId = Conn.Id;
  Request.Admitted = std::chrono::steady_clock::now();
  Request.HasDeadline = Options.RequestDeadlineMs > 0;
  if (Request.HasDeadline)
    Request.Deadline = Request.Admitted +
                       std::chrono::milliseconds(Options.RequestDeadlineMs);
  Request.Payload = std::move(Payload);
  size_t NowDepth;
  {
    std::lock_guard<std::mutex> Lock(QueueMutex);
    Queue.push_back(std::move(Request));
    NowDepth = Queue.size() + Dispatching;
  }
  if (NowDepth > Stats.QueuePeak.load(std::memory_order_relaxed))
    Stats.QueuePeak.store(NowDepth, std::memory_order_relaxed);
  QueueCv.notify_one();
}

void SelectionServer::dispatcherMain() {
  FaultInjector &Faults = FaultInjector::get();
  while (true) {
    PendingRequest Request;
    {
      std::unique_lock<std::mutex> Lock(QueueMutex);
      QueueCv.wait(Lock,
                   [this] { return DispatcherStop || !Queue.empty(); });
      if (Queue.empty())
        return; // DispatcherStop and nothing left to serve.
      Request = std::move(Queue.front());
      Queue.pop_front();
      ++Dispatching;
    }

    if (Faults.shouldFire("serve_dispatch_stall"))
      std::this_thread::sleep_for(std::chrono::milliseconds(400));

    Completion Done;
    Done.ConnId = Request.ConnId;
    Done.RequestBytes = Request.Payload.size();
    if (Request.HasDeadline &&
        std::chrono::steady_clock::now() > Request.Deadline) {
      // Too stale to be worth compiling — the client has likely given
      // up. A typed reply keeps the connection usable.
      Stats.Timeouts.fetch_add(1, std::memory_order_relaxed);
      ServeError Error;
      Error.Code = ServeErrorCode::Timeout;
      Error.RetryAfterMs = Options.RetryAfterMs;
      Error.Message = "request exceeded its deadline before dispatch";
      Done.Bytes = wire::encodeFrame(wire::Error, encodeServeError(Error));
    } else {
      std::string Explain;
      std::optional<BatchRequest> Batch =
          decodeBatchRequest(Request.Payload, &Explain);
      std::optional<BatchReply> Reply;
      if (Batch)
        Reply = Service.process(*Batch, &Explain);
      if (!Reply) {
        Stats.BadRequests.fetch_add(1, std::memory_order_relaxed);
        ServeError Error;
        Error.Code = ServeErrorCode::BadRequest;
        Error.Message =
            Batch ? Explain : "malformed batch request: " + Explain;
        Done.Bytes = wire::encodeFrame(wire::Error, encodeServeError(Error));
      } else {
        Stats.Batches.fetch_add(1, std::memory_order_relaxed);
        Stats.Functions.fetch_add(Reply->Results.size(),
                                  std::memory_order_relaxed);
        for (const BatchReply::Result &R : Reply->Results) {
          Stats.RulesTried.fetch_add(R.RulesTried, std::memory_order_relaxed);
          Stats.NodesVisited.fetch_add(R.NodesVisited,
                                       std::memory_order_relaxed);
        }
        Done.Bytes =
            wire::encodeFrame(wire::Response, encodeBatchReply(*Reply));
        if (Faults.shouldFire("serve_reply_torn"))
          Done.Bytes.resize(Done.Bytes.size() / 2); // Client sees Corrupt.
        if (Faults.shouldFire("serve_drop_client")) {
          Done.Bytes.resize(Done.Bytes.size() / 2);
          Done.CloseAfter = true; // Vanish mid-reply.
        }
      }
    }
    Done.RequestUs = std::chrono::duration<double, std::micro>(
                         std::chrono::steady_clock::now() - Request.Admitted)
                         .count();
    {
      std::lock_guard<std::mutex> Lock(QueueMutex);
      Completions.push_back(std::move(Done));
      --Dispatching;
    }
    wake();
  }
}

bool SelectionServer::drainConnection(Connection &Conn) {
  if (Conn.Out.empty())
    return true;
  if (FaultInjector::get().shouldFire("serve_slow_write"))
    return true; // Pretend the socket refused bytes this tick.
  size_t Before = Conn.Out.pendingBytes();
  bool Progress = false;
  wire::WriteStatus Status = Conn.Out.drain(Conn.OutFd, &Progress);
  size_t Freed = Before - Conn.Out.pendingBytes();
  if (Freed)
    InflightBytes.fetch_sub(Freed, std::memory_order_relaxed);
  if (Progress)
    Conn.LastWriteProgress = std::chrono::steady_clock::now();
  return Status != wire::WriteStatus::Error;
}

void SelectionServer::closeConnection(uint64_t ConnId) {
  auto It = Connections.find(ConnId);
  if (It == Connections.end())
    return;
  Connection &Conn = It->second;
  size_t Pending = Conn.Out.pendingBytes();
  if (Pending)
    InflightBytes.fetch_sub(Pending, std::memory_order_relaxed);
  if (Conn.OwnsFds) {
    ::close(Conn.InFd);
    if (Conn.OutFd != Conn.InFd)
      ::close(Conn.OutFd);
  }
  Connections.erase(It);
}

int SelectionServer::run() {
  StartTime = std::chrono::steady_clock::now();
  std::thread Dispatcher([this] { dispatcherMain(); });

  std::vector<pollfd> Polls;
  // pollfd index -> connection id, for translating revents back.
  std::vector<uint64_t> PollConn;

  while (true) {
    if (Options.TickHook)
      Options.TickHook();

    bool Stopping = StopFlag.load(std::memory_order_relaxed);

    // Integrate connections handed over by other threads.
    std::vector<std::pair<int, int>> Adds;
    {
      std::lock_guard<std::mutex> Lock(QueueMutex);
      Adds.swap(PendingAdds);
    }
    for (const std::pair<int, int> &Add : Adds) {
      Connection Conn;
      Conn.Id = NextConnId++;
      Conn.InFd = Add.first;
      Conn.OutFd = Add.second;
      Conn.OwnsFds = false;
      setNonBlocking(Conn.InFd);
      if (Conn.OutFd != Conn.InFd)
        setNonBlocking(Conn.OutFd);
      Conn.LastReadProgress = Conn.LastWriteProgress =
          std::chrono::steady_clock::now();
      Stats.Connections.fetch_add(1, std::memory_order_relaxed);
      Connections.emplace(Conn.Id, std::move(Conn));
    }

    // Deliver completed requests to their (possibly departed) owners.
    std::vector<Completion> Done;
    {
      std::lock_guard<std::mutex> Lock(QueueMutex);
      Done.swap(Completions);
    }
    for (Completion &C : Done) {
      InflightBytes.fetch_sub(C.RequestBytes, std::memory_order_relaxed);
      Stats.RequestUsTotal.fetch_add(static_cast<uint64_t>(C.RequestUs),
                                     std::memory_order_relaxed);
      auto It = Connections.find(C.ConnId);
      if (It == Connections.end())
        continue; // The client left; its reply evaporates safely.
      Connection &Conn = It->second;
      if (Conn.InFlight)
        --Conn.InFlight;
      InflightBytes.fetch_add(C.Bytes.size(), std::memory_order_relaxed);
      Conn.Out.push(std::move(C.Bytes));
      if (C.CloseAfter) {
        drainConnection(Conn); // Best effort: half a reply, then gone.
        closeConnection(C.ConnId);
      }
    }

    // Opportunistic write pass: pushes since the last tick should not
    // wait for a POLLOUT round trip.
    std::vector<uint64_t> Dead;
    for (auto &Entry : Connections)
      if (!drainConnection(Entry.second))
        Dead.push_back(Entry.first);
    for (uint64_t Id : Dead)
      closeConnection(Id);

    // Sweep for terminal states: clean completion, stalled reads mid-
    // frame, stalled writes.
    Dead.clear();
    auto Now = std::chrono::steady_clock::now();
    for (auto &Entry : Connections) {
      Connection &Conn = Entry.second;
      if (Conn.NoMoreInput && Conn.InFlight == 0 && Conn.Out.empty()) {
        Dead.push_back(Conn.Id);
        continue;
      }
      if (Options.RequestDeadlineMs > 0 && Conn.Reader.midFrame() &&
          msSince(Conn.LastReadProgress) > Options.RequestDeadlineMs) {
        // A torn frame cannot be resynchronized; only the connection
        // can be reclaimed.
        Stats.SlowClientDrops.fetch_add(1, std::memory_order_relaxed);
        Dead.push_back(Conn.Id);
        continue;
      }
      if (Options.WriteStallMs > 0 && !Conn.Out.empty() &&
          msSince(Conn.LastWriteProgress) > Options.WriteStallMs) {
        Stats.SlowClientDrops.fetch_add(1, std::memory_order_relaxed);
        Dead.push_back(Conn.Id);
      }
      (void)Now;
    }
    for (uint64_t Id : Dead)
      closeConnection(Id);

    // Exit checks. Both require the dispatcher idle and every reply
    // delivered (or its connection gone).
    bool PipelineIdle;
    {
      std::lock_guard<std::mutex> Lock(QueueMutex);
      PipelineIdle = Queue.empty() && Dispatching == 0 &&
                     Completions.empty() && PendingAdds.empty();
    }
    if (PipelineIdle) {
      bool AllFlushed = true;
      for (auto &Entry : Connections)
        if (!Entry.second.Out.empty())
          AllFlushed = false;
      if (Stopping && AllFlushed)
        break; // Drain complete.
      if (ListenFd < 0 && Connections.empty())
        break; // Pipe mode: the last stream ended.
    }

    // Build this tick's poll set.
    Polls.clear();
    PollConn.clear();
    if (WakeFds[0] >= 0) {
      Polls.push_back({WakeFds[0], POLLIN, 0});
      PollConn.push_back(0);
    }
    if (ListenFd >= 0 && !Stopping) {
      Polls.push_back({ListenFd, POLLIN, 0});
      PollConn.push_back(0);
    }
    for (auto &Entry : Connections) {
      Connection &Conn = Entry.second;
      short InEvents = Conn.NoMoreInput ? 0 : POLLIN;
      if (Conn.InFd == Conn.OutFd) {
        short Events =
            static_cast<short>(InEvents | (Conn.Out.empty() ? 0 : POLLOUT));
        if (!Events)
          continue;
        Polls.push_back({Conn.InFd, Events, 0});
        PollConn.push_back(Conn.Id);
      } else {
        if (InEvents) {
          Polls.push_back({Conn.InFd, InEvents, 0});
          PollConn.push_back(Conn.Id);
        }
        if (!Conn.Out.empty()) {
          Polls.push_back({Conn.OutFd, POLLOUT, 0});
          PollConn.push_back(Conn.Id);
        }
      }
    }

    int Ready = ::poll(Polls.data(), Polls.size(), Options.PollMs);
    if (Ready < 0) {
      if (errno == EINTR)
        continue;
      break; // The poll set itself is broken; nothing sane to do.
    }

    for (size_t I = 0; I < Polls.size(); ++I) {
      const pollfd &P = Polls[I];
      if (!P.revents)
        continue;
      if (P.fd == WakeFds[0]) {
        char Scratch[64];
        while (::read(WakeFds[0], Scratch, sizeof(Scratch)) > 0) {
        }
        continue;
      }
      if (P.fd == ListenFd) {
        while (true) {
          int ClientFd = ::accept(ListenFd, nullptr, nullptr);
          if (ClientFd < 0)
            break;
          ::fcntl(ClientFd, F_SETFD, FD_CLOEXEC);
          setNonBlocking(ClientFd);
          Connection Conn;
          Conn.Id = NextConnId++;
          Conn.InFd = Conn.OutFd = ClientFd;
          Conn.OwnsFds = true;
          Conn.LastReadProgress = Conn.LastWriteProgress =
              std::chrono::steady_clock::now();
          Stats.Connections.fetch_add(1, std::memory_order_relaxed);
          Connections.emplace(Conn.Id, std::move(Conn));
        }
        continue;
      }

      uint64_t ConnId = PollConn[I];
      auto It = Connections.find(ConnId);
      if (It == Connections.end())
        continue; // Closed earlier in this same tick.
      Connection &Conn = It->second;

      if (P.revents & (POLLERR | POLLNVAL)) {
        closeConnection(ConnId);
        continue;
      }
      if ((P.revents & (POLLIN | POLLHUP)) && !Conn.NoMoreInput &&
          P.fd == Conn.InFd) {
        bool Fatal = false;
        while (true) {
          wire::Frame Frame;
          wire::FrameReader::Event Event = Conn.Reader.advance(Conn.InFd, Frame);
          if (Event == wire::FrameReader::Event::Frame) {
            Conn.LastReadProgress = std::chrono::steady_clock::now();
            handleFrame(Conn, Frame);
            if (Conn.NoMoreInput)
              break;
            continue;
          }
          if (Event == wire::FrameReader::Event::None) {
            if (Conn.Reader.midFrame())
              Conn.LastReadProgress = std::chrono::steady_clock::now();
            break;
          }
          if (Event == wire::FrameReader::Event::Eof) {
            Conn.NoMoreInput = true;
            break;
          }
          // Corrupt: this stream is unrecoverable by design.
          Stats.CondemnedConns.fetch_add(1, std::memory_order_relaxed);
          if (!Conn.OwnsFds)
            PipeCondemned = true;
          Fatal = true;
          break;
        }
        if (Fatal) {
          closeConnection(ConnId);
          continue;
        }
      }
      if ((P.revents & POLLOUT) && P.fd == Conn.OutFd)
        if (!drainConnection(Conn))
          closeConnection(ConnId);
    }
  }

  {
    std::lock_guard<std::mutex> Lock(QueueMutex);
    DispatcherStop = true;
  }
  QueueCv.notify_all();
  Dispatcher.join();
  return PipeCondemned ? 2 : 0;
}
