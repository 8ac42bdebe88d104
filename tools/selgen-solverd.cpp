//===- selgen-solverd.cpp - Solver pool worker process ------------------------===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The worker side of smt/SolverPool: reads framed requests from stdin,
/// evaluates them with the exact same synthesis/solver stack the
/// in-process path uses, and writes framed replies to stdout. One
/// worker serves many queries; the parent recycles it after K queries
/// or M bytes RSS and SIGKILLs it past a deadline, so this process
/// keeps no state a kill could corrupt.
///
/// Not meant to be run by hand — it speaks the binary frame protocol
/// on stdin/stdout and nothing else. Stray library prints cannot
/// corrupt the stream: the protocol fd is duplicated away from fd 1
/// before anything else runs, and stdout is redirected to stderr.
///
/// Fault sites (SELGEN_FAULTS in the *worker's* environment, injected
/// via SolverPoolOptions::WorkerEnv):
///   worker_kill          SIGKILL self after reading a request — the
///                        parent sees EOF mid-query
///   worker_garbage_reply corrupt the reply frame bytes — the parent's
///                        CRC check must reject them
/// (worker_hang fires in the parent: SolverPool stops the worker.)
///
//===----------------------------------------------------------------------===//

#include "smt/SolverPool.h"
#include "support/FaultInjection.h"
#include "synth/Synthesizer.h"
#include "synth/TestCorpus.h"
#include "synth/WorkerProtocol.h"
#include "x86/Goals.h"

#include <csignal>
#include <cstdio>
#include <map>
#include <string>
#include <unistd.h>

using namespace selgen;

namespace {

/// Goal libraries are deterministic per width; building one per
/// request would dominate small chunks.
const GoalLibrary &libraryForWidth(unsigned Width) {
  static std::map<unsigned, GoalLibrary> Libraries;
  auto It = Libraries.find(Width);
  if (It == Libraries.end())
    It = Libraries
             .emplace(Width, GoalLibrary::build(Width, GoalLibrary::allGroups()))
             .first;
  return It->second;
}

std::string handleRange(const std::string &Payload, std::string &Error) {
  std::optional<RangeRequest> Request = decodeRangeRequest(Payload, &Error);
  if (!Request)
    return "";
  const GoalInstruction *Goal =
      libraryForWidth(Request->Options.Width).find(Request->GoalName);
  if (!Goal) {
    Error = "unknown goal: " + Request->GoalName;
    return "";
  }

  TestCorpus Corpus(Request->Options.CorpusCapacity);
  for (TestCorpus::Entry &E : Request->CorpusSeed)
    Corpus.insert(std::move(E.Test), std::move(E.GoalOutcome));

  // A fresh context per chunk, matching ParallelBuilder::runChunk: the
  // outcome must not depend on what this worker solved before.
  SmtContext Smt;
  Synthesizer Synth(Smt, Request->Options);
  RangeReply Reply;
  Reply.Outcome = Synth.synthesizeRange(*Goal->Spec, Request->Plan,
                                        Request->Size, Request->BeginRank,
                                        Request->EndRank, Corpus,
                                        Request->BudgetSeconds);
  for (const TestCorpus::EntryPtr &E : Corpus.snapshot())
    Reply.CorpusEntries.push_back(*E);
  return encodeRangeReply(Reply);
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc > 1) {
    std::fprintf(stderr,
                 "selgen-solverd: solver pool worker; speaks the selgen "
                 "frame protocol on stdin/stdout.\nNot meant to be run "
                 "directly — spawned by --solver-pool runs.\n");
    return std::string(Argv[1]) == "--help" ? 0 : 2;
  }

  // A parent that died or recycled us mid-write must surface as a
  // failed write (clean exit 2), not a SIGPIPE death that the next
  // supervisor reads as a worker crash of unknown cause.
  signal(SIGPIPE, SIG_IGN);

  // Claim the protocol stream, then point stdout at stderr so no
  // library print can ever interleave with frames.
  int ProtocolFd = dup(STDOUT_FILENO);
  if (ProtocolFd < 0)
    return 2;
  dup2(STDERR_FILENO, STDOUT_FILENO);

  while (true) {
    wire::Frame Frame;
    wire::ReadStatus Status = wire::readFrame(STDIN_FILENO, Frame);
    if (Status == wire::ReadStatus::Eof)
      return 0; // Parent closed the pipe: graceful recycle.
    if (Status != wire::ReadStatus::Ok)
      return 2; // Garbage on stdin: nothing sane to resync to.
    if (Frame.Type == wire::Shutdown)
      return 0;
    if (Frame.Type != wire::Request) {
      wire::writeFrame(ProtocolFd, wire::Error, "unexpected frame type");
      continue;
    }

    // Crash-path fault sites, armed only via WorkerEnv by tests/CI.
    if (FaultInjector::get().shouldFire("worker_kill"))
      kill(getpid(), SIGKILL);

    std::string Error;
    std::string ReplyPayload;
    try {
      ReplyPayload = handleRange(Frame.Payload, Error);
    } catch (const std::exception &E) {
      Error = std::string("worker exception: ") + E.what();
    }

    if (ReplyPayload.empty() && !Error.empty()) {
      if (!wire::writeFrame(ProtocolFd, wire::Error, Error))
        return 2;
      continue;
    }

    std::string Encoded = wire::encodeFrame(wire::Response, ReplyPayload);
    if (FaultInjector::get().shouldFire("worker_garbage_reply")) {
      // Flip bytes in the middle of the frame: header and payload CRC
      // no longer agree, and the parent must classify us as crashed.
      for (size_t I = Encoded.size() / 2;
           I < Encoded.size() && I < Encoded.size() / 2 + 8; ++I)
        Encoded[I] = static_cast<char>(~Encoded[I]);
    }
    if (!wire::writeAll(ProtocolFd, Encoded))
      return 2;
  }
}
