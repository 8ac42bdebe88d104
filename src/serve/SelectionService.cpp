//===- SelectionService.cpp - Resident multi-threaded selection ---------------===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//

#include "serve/SelectionService.h"

#include "eval/Workloads.h"
#include "x86/MachineIR.h"

#include <chrono>

using namespace selgen;

SelectionService::SelectionService(const PreparedLibrary &Library,
                                   const BinaryAutomatonView &View,
                                   unsigned Width, unsigned Threads,
                                   CostKind Cost)
    : Library(Library), View(View), Width(Width), Cost(Cost) {
  start(Threads);
}

SelectionService::~SelectionService() {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Stopping = true;
  }
  WorkCv.notify_all();
  for (std::thread &W : Workers)
    W.join();
}

void SelectionService::start(unsigned Threads) {
  if (Threads == 0)
    Threads = 1;
  Workers.reserve(Threads);
  for (unsigned I = 0; I < Threads; ++I)
    Workers.emplace_back([this] { workerMain(); });
}

void SelectionService::workerMain() {
  std::unique_lock<std::mutex> Lock(Mutex);
  while (true) {
    WorkCv.wait(Lock, [this] {
      return Stopping || (Batch && NextItem < Batch->Workloads.size());
    });
    if (Stopping)
      return;
    size_t Index = NextItem++;
    Lock.unlock();
    processItem(Index);
    Lock.lock();
    if (++ItemsDone == Batch->Workloads.size())
      DoneCv.notify_all();
  }
}

void SelectionService::swapImage(std::shared_ptr<MappedAutomaton> NewImage) {
  if (!NewImage)
    return;
  std::lock_guard<std::mutex> Lock(Mutex);
  // The in-flight batch (if any) holds its own shared_ptr copy taken
  // at dispatch, so dropping the previous image here cannot unmap
  // memory a worker is matching against.
  Swapped = std::move(NewImage);
  ++SwapGeneration;
}

std::string SelectionService::imageFingerprint() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  if (Swapped)
    return Swapped->view().libraryFingerprint();
  return View.libraryFingerprint();
}

uint64_t SelectionService::imageGeneration() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return SwapGeneration;
}

void SelectionService::processItem(size_t Index) {
  // Everything below is per-request state owned by this worker; the
  // library and automaton are only ever read.
  Function F = buildWorkload(*Profiles[Index], Width);
  SelectionResult Selected =
      runAutomatonSelection(F, Library, *BatchView, Cost);

  BatchReply::Result &R = (*Out)[Index];
  R.Workload = Profiles[Index]->Name;
  R.TotalOperations = Selected.TotalOperations;
  R.CoveredOperations = Selected.CoveredOperations;
  R.FallbackOperations = Selected.FallbackOperations;
  R.RulesTried = Selected.RulesTried;
  R.NodesVisited = Selected.NodesVisited;
  R.SelectUs = Selected.SelectionSeconds * 1e6;
  R.Asm = printMachineFunction(*Selected.MF);
}

std::optional<BatchReply>
SelectionService::process(const BatchRequest &Request, std::string *Error) {
  if (Request.Width != Width) {
    if (Error)
      *Error = "width mismatch: request " + std::to_string(Request.Width) +
               ", server library is width " + std::to_string(Width);
    return std::nullopt;
  }
  // Resolve every name up front: a request naming an unknown workload
  // fails whole before any selection runs.
  std::vector<const WorkloadProfile *> Resolved;
  Resolved.reserve(Request.Workloads.size());
  for (const std::string &Name : Request.Workloads) {
    const WorkloadProfile *Found = nullptr;
    for (const WorkloadProfile &P : cint2000Profiles())
      if (P.Name == Name)
        Found = &P;
    if (!Found) {
      if (Error)
        *Error = "unknown workload: " + Name;
      return std::nullopt;
    }
    Resolved.push_back(Found);
  }

  BatchReply Reply;
  Reply.Id = Request.Id;
  Reply.Results.resize(Request.Workloads.size());
  auto Start = std::chrono::steady_clock::now();
  if (!Request.Workloads.empty()) {
    // Pin the image for this whole batch: the local shared_ptr keeps
    // a hot-swapped-away mapping alive until every item finished, and
    // BatchView is what the workers read — a concurrent swapImage
    // only changes what the *next* batch pins.
    std::shared_ptr<MappedAutomaton> PinnedImage;
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      Batch = &Request;
      Profiles = std::move(Resolved);
      Out = &Reply.Results;
      NextItem = 0;
      ItemsDone = 0;
      PinnedImage = Swapped;
      BatchView = PinnedImage ? &PinnedImage->view() : &View;
    }
    WorkCv.notify_all();
    std::unique_lock<std::mutex> Lock(Mutex);
    DoneCv.wait(Lock, [this, &Request] {
      return ItemsDone == Request.Workloads.size();
    });
    Batch = nullptr;
    Out = nullptr;
    BatchView = nullptr;
    Profiles.clear();
  }
  Reply.WallUs = std::chrono::duration<double, std::micro>(
                     std::chrono::steady_clock::now() - Start)
                     .count();
  return Reply;
}
