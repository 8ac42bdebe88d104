//===- SolverPool.cpp - Out-of-process solver worker pool ---------------------===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//

#include "smt/SolverPool.h"

#include "support/AtomicFile.h"
#include "support/FaultInjection.h"
#include "support/Statistics.h"

#include <chrono>
#include <cstdlib>
#include <cstring>

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace selgen;

// Wire framing lives in support/Wire.cpp; this file is the pool only.

namespace {

/// Milliseconds until \p Deadline, clamped to >= 0; -1 if unset.
int64_t remainingMs(int64_t DeadlineMs,
                    std::chrono::steady_clock::time_point Start) {
  if (DeadlineMs < 0)
    return -1;
  auto Elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::steady_clock::now() - Start)
                     .count();
  return Elapsed >= DeadlineMs ? 0 : DeadlineMs - Elapsed;
}

} // namespace

SolverPool::SolverPool(SolverPoolOptions Opts) : Options(std::move(Opts)) {
  if (Options.NumWorkers == 0)
    Options.NumWorkers = 1;
  if (Options.WorkerPath.empty())
    Options.WorkerPath = defaultWorkerPath();
}

SolverPool::~SolverPool() { shutdown(); }

std::string SolverPool::defaultWorkerPath() {
  if (const char *Env = std::getenv("SELGEN_SOLVERD"))
    if (*Env)
      return Env;
  char Buffer[4096];
  ssize_t Length = ::readlink("/proc/self/exe", Buffer, sizeof(Buffer) - 1);
  if (Length > 0) {
    Buffer[Length] = '\0';
    std::string Path(Buffer);
    size_t Slash = Path.rfind('/');
    if (Slash != std::string::npos)
      return Path.substr(0, Slash + 1) + "selgen-solverd";
  }
  return "selgen-solverd";
}

bool SolverPool::start() {
  // wire::writeAll reports a dead peer as EPIPE; that contract only
  // holds with SIGPIPE ignored. With the default disposition, writing
  // a request to a worker that died since its last query (OOM-killed
  // while idle, say) would deliver SIGPIPE and kill the whole
  // scheduler — the exact blast radius this pool exists to contain.
  ::signal(SIGPIPE, SIG_IGN);

  std::lock_guard<std::mutex> Guard(Lock);
  Workers.resize(Options.NumWorkers);
  for (Worker &Slot : Workers)
    if (!spawnWorker(Slot)) {
      for (Worker &Started : Workers)
        stopWorker(Started, /*Kill=*/true);
      Workers.clear();
      return false;
    }
  Usable = true;
  return true;
}

void SolverPool::shutdown() {
  std::unique_lock<std::mutex> Guard(Lock);
  // Refuse new checkouts, then drain: closing a busy worker's fds
  // would yank them out from under an in-flight readFrame and leave
  // that run() holding a dangling slot reference.
  Usable = false;
  Available.wait(Guard, [this] {
    for (const Worker &Slot : Workers)
      if (Slot.Busy)
        return false;
    return true;
  });
  for (Worker &Slot : Workers)
    stopWorker(Slot, /*Kill=*/false);
  Workers.clear();
}

bool SolverPool::spawnWorker(Worker &Slot) {
  // All pipes are born O_CLOEXEC: spawnWorker runs without Lock (slots
  // respawn concurrently from run()), so a child forked by another
  // thread mid-spawn must not inherit these fds. Marking them CLOEXEC
  // after fork() would leave exactly that window — the leaked write
  // end would hold a crashed worker's stream open and mask its EOF.
  // The child's dup2 onto stdio clears CLOEXEC on the copies it keeps.
  int Request[2], Response[2], Exec[2];
  if (::pipe2(Request, O_CLOEXEC) != 0)
    return false;
  if (::pipe2(Response, O_CLOEXEC) != 0) {
    ::close(Request[0]);
    ::close(Request[1]);
    return false;
  }
  // Exec-status pipe: CLOEXEC in the child, so a successful exec closes
  // it (parent reads EOF) while an exec failure writes the errno byte.
  // This is race-free where a WNOHANG waitpid probe is not — the child
  // may not have reached _exit yet when the parent probes.
  if (::pipe2(Exec, O_CLOEXEC) != 0) {
    for (int Fd : {Request[0], Request[1], Response[0], Response[1]})
      ::close(Fd);
    return false;
  }

  pid_t Child = ::fork();
  if (Child < 0) {
    for (int Fd : {Request[0], Request[1], Response[0], Response[1], Exec[0],
                   Exec[1]})
      ::close(Fd);
    return false;
  }

  if (Child == 0) {
    ::dup2(Request[0], STDIN_FILENO);
    ::dup2(Response[1], STDOUT_FILENO);
    ::close(Exec[0]);
    for (int Fd : {Request[0], Request[1], Response[0], Response[1]})
      ::close(Fd);
    for (const auto &[Name, Value] : Options.WorkerEnv)
      ::setenv(Name.c_str(), Value.c_str(), 1);
    ::execl(Options.WorkerPath.c_str(), Options.WorkerPath.c_str(),
            static_cast<char *>(nullptr));
    unsigned char Errno = static_cast<unsigned char>(errno);
    (void)!::write(Exec[1], &Errno, 1);
    ::_exit(127);
  }

  ::close(Request[0]);
  ::close(Response[1]);
  ::close(Exec[1]);
  // Non-blocking request end so writeAll can honor the hang deadline
  // when a wedged worker stops draining stdin and the pipe fills up.
  ::fcntl(Request[1], F_SETFL, O_NONBLOCK);

  // EOF here means the exec-status pipe was closed by a successful
  // exec; a byte means exec failed and carries the child's errno.
  unsigned char Errno = 0;
  ssize_t ExecStatus;
  do
    ExecStatus = ::read(Exec[0], &Errno, 1);
  while (ExecStatus < 0 && errno == EINTR);
  ::close(Exec[0]);
  if (ExecStatus != 0) {
    ::close(Request[1]);
    ::close(Response[0]);
    int Status = 0;
    ::waitpid(Child, &Status, 0);
    Slot = Worker();
    return false;
  }

  Slot.Pid = Child;
  Slot.RequestFd = Request[1];
  Slot.ResponseFd = Response[0];
  Slot.Queries = 0;
  Statistics::get().add("pool.spawns");
  return true;
}

void SolverPool::stopWorker(Worker &Slot, bool Kill) {
  if (Slot.Pid < 0)
    return;
  if (Kill)
    ::kill(Slot.Pid, SIGKILL);
  // Closing stdin is the graceful shutdown signal; the worker's read
  // loop sees EOF and exits.
  if (Slot.RequestFd >= 0)
    ::close(Slot.RequestFd);
  if (Slot.ResponseFd >= 0)
    ::close(Slot.ResponseFd);
  int Status = 0;
  ::waitpid(Slot.Pid, &Status, 0);
  Slot.Pid = -1;
  Slot.RequestFd = -1;
  Slot.ResponseFd = -1;
  Slot.Queries = 0;
}

uint64_t SolverPool::workerRssBytes(pid_t Pid) {
  std::optional<std::string> Statm =
      readFileToString("/proc/" + std::to_string(Pid) + "/statm");
  if (!Statm)
    return 0;
  // statm: size resident shared ... (in pages).
  unsigned long long Size = 0, Resident = 0;
  if (std::sscanf(Statm->c_str(), "%llu %llu", &Size, &Resident) != 2)
    return 0;
  return uint64_t(Resident) * static_cast<uint64_t>(::sysconf(_SC_PAGESIZE));
}

std::optional<size_t> SolverPool::checkoutWorker() {
  std::unique_lock<std::mutex> Guard(Lock);
  while (true) {
    if (!Usable)
      return std::nullopt; // shutdown() won the race.
    for (size_t I = 0; I < Workers.size(); ++I)
      if (!Workers[I].Busy) {
        Workers[I].Busy = true;
        return I;
      }
    Available.wait(Guard);
  }
}

void SolverPool::releaseWorker(size_t Index) {
  {
    std::lock_guard<std::mutex> Guard(Lock);
    Workers[Index].Busy = false;
  }
  // notify_all: both blocked checkouts and a draining shutdown() wait
  // on this condition variable.
  Available.notify_all();
}

PoolReply SolverPool::run(const std::string &RequestPayload,
                          double BudgetSeconds) {
  PoolReply Reply;
  if (!Usable) {
    Reply.Failure = SmtFailure::Exception;
    return Reply;
  }

  int64_t DeadlineMs = -1;
  if (BudgetSeconds > 0)
    DeadlineMs = static_cast<int64_t>(
        (BudgetSeconds + Options.GraceSeconds) * 1000.0);

  std::optional<size_t> Index = checkoutWorker();
  if (!Index) {
    // The pool shut down while we were waiting for a worker.
    Reply.Failure = SmtFailure::Exception;
    return Reply;
  }
  // Safe to hold across the unlocked query: Workers is only resized by
  // start() (before Usable) and shutdown() (after draining Busy slots,
  // which includes this one).
  Worker &Slot = Workers[*Index];
  Statistics::get().add("pool.queries");

  unsigned CrashRetries = 0, DeadlineRetries = 0;
  while (true) {
    // (Re)spawn the slot if its worker is gone (crashed on a previous
    // query, or was recycled on release).
    if (Slot.Pid < 0 && !spawnWorker(Slot)) {
      Reply.Failure = SmtFailure::Exception;
      break;
    }

    // One hang budget covers the whole attempt: a worker that wedges
    // before draining stdin stalls the *write* (the request can exceed
    // the pipe capacity — range requests carry a corpus snapshot), so
    // the write gets the deadline too and a timeout there is the same
    // hang as a timeout on the read.
    auto AttemptStart = std::chrono::steady_clock::now();
    wire::WriteStatus Sent = wire::writeFrame(Slot.RequestFd, wire::Request,
                                              RequestPayload, DeadlineMs);
    // Fault site: the worker stops answering once it holds the request,
    // as a hung one does. Decided here, in the pool's process, so
    // n=<k> counts the pool's requests and a respawn does not re-arm it.
    if (Sent == wire::WriteStatus::Ok &&
        FaultInjector::get().shouldFire("worker_hang"))
      ::kill(Slot.Pid, SIGSTOP);
    wire::Frame Response;
    wire::ReadStatus Status;
    if (Sent == wire::WriteStatus::Ok)
      Status = wire::readFrame(Slot.ResponseFd, Response,
                               remainingMs(DeadlineMs, AttemptStart));
    else
      Status = Sent == wire::WriteStatus::Timeout ? wire::ReadStatus::Timeout
                                                  : wire::ReadStatus::Eof;

    if (Status == wire::ReadStatus::Ok &&
        Response.Type == wire::Response) {
      Reply.Ok = true;
      Reply.Payload = std::move(Response.Payload);
      ++Slot.Queries;
      break;
    }
    if (Status == wire::ReadStatus::Ok && Response.Type == wire::Error) {
      // The worker is healthy; the request itself was rejected. Not
      // retryable — a respawn would reject it again.
      Reply.Failure = SmtFailure::Exception;
      Reply.Payload = std::move(Response.Payload);
      ++Slot.Queries;
      break;
    }

    // Everything else means the worker is unusable: EOF / torn or
    // garbage frame / unexpected type (crash), or deadline (hang).
    // The time sunk into the condemned attempt is reported back so
    // budget-enforcing callers can refund it (see PoolReply).
    Reply.StalledSeconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      AttemptStart)
            .count();
    bool Hung = Status == wire::ReadStatus::Timeout;
    Statistics::get().add("pool.crashes");
    if (Hung)
      Statistics::get().add("pool.deadline_kills");
    stopWorker(Slot, /*Kill=*/true);

    unsigned &Retries = Hung ? DeadlineRetries : CrashRetries;
    unsigned Budget =
        Hung ? Options.MaxDeadlineRetries : Options.MaxCrashRetries;
    if (Retries >= Budget) {
      Reply.Failure = Hung ? SmtFailure::Deadline : SmtFailure::Exception;
      break;
    }
    ++Retries;
    Statistics::get().add("pool.respawn_retries");
  }

  // Per-worker recycling: after K queries or M bytes RSS the worker is
  // retired on release and the next query gets a fresh process.
  if (Slot.Pid >= 0) {
    bool Recycle = Options.RecycleAfterQueries &&
                   Slot.Queries >= Options.RecycleAfterQueries;
    if (!Recycle && Options.RecycleRssBytes &&
        workerRssBytes(Slot.Pid) >= Options.RecycleRssBytes)
      Recycle = true;
    if (Recycle) {
      Statistics::get().add("pool.recycles");
      stopWorker(Slot, /*Kill=*/false);
    }
  }

  releaseWorker(*Index);
  return Reply;
}
