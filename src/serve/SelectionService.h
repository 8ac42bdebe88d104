//===- SelectionService.h - Resident multi-threaded selection ----*- C++ -*-===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The resident core of the selgen-served compile server: N persistent
/// worker threads sharing one read-only prepared library and one
/// read-only matcher automaton image, compiling batches of workload
/// functions concurrently.
///
/// Ownership and threading model: the library and automaton are
/// immutable after construction and shared by reference; everything
/// mutable — the subject Function, the candidate source's scratch
/// vectors, the produced MachineFunction and the selection counters
/// returned with it — lives per request on the worker that handles it
/// (arena-per-request). The only shared mutable state is the batch
/// work queue under one mutex; selection itself takes no lock and
/// touches no global, so throughput scales with threads.
///
/// Results are byte-identical to a single-shot
/// `selgen-compile --selector auto` run under the same `--cost-model`:
/// the workers call the same runAutomatonSelection over the same
/// candidate sets, and workload functions are regenerated
/// deterministically from their profile names.
///
//===----------------------------------------------------------------------===//

#ifndef SELGEN_SERVE_SELECTIONSERVICE_H
#define SELGEN_SERVE_SELECTIONSERVICE_H

#include "isel/AutomatonSelector.h"
#include "serve/ServeProtocol.h"

#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace selgen {

struct WorkloadProfile;

class SelectionService {
public:
  /// Runs off \p View, a validated automaton image (mapped or compiled
  /// in memory; zero deserialization). \p Library and the view's
  /// backing memory must outlive the service. Every request selects
  /// under cost model \p Cost (runAutomatonSelection).
  SelectionService(const PreparedLibrary &Library,
                   const BinaryAutomatonView &View, unsigned Width,
                   unsigned Threads, CostKind Cost = CostKind::Unit);

  ~SelectionService();
  SelectionService(const SelectionService &) = delete;
  SelectionService &operator=(const SelectionService &) = delete;

  /// Compiles one batch, fanning its items out over the worker
  /// threads; blocks until every item is done. Returns std::nullopt
  /// and sets \p Error for requests the service cannot serve (width
  /// mismatch, unknown workload name) — a malformed request fails
  /// whole, never partially. Thread-safe for the *caller's* side too:
  /// batches are serialized, items within a batch run concurrently.
  std::optional<BatchReply> process(const BatchRequest &Request,
                                    std::string *Error = nullptr);

  /// Atomically replaces the matcher image for *subsequent* batches
  /// (hot reload). The batch in flight — if any — keeps selecting off
  /// the image it snapshotted at dispatch, and that mapping stays
  /// alive until the batch completes; no request ever observes a
  /// half-swapped automaton. The caller must have validated the new
  /// image against this service's library (fingerprint + cost rules,
  /// see automatonStalenessError) — swapImage itself does not, so it
  /// stays cheap enough to call under load. Thread-safe.
  void swapImage(std::shared_ptr<MappedAutomaton> NewImage);

  /// Hex content fingerprint of the image batches are currently
  /// dispatched against, and the swap generation (0 = the image the
  /// service started with; +1 per swapImage). Thread-safe.
  std::string imageFingerprint() const;
  uint64_t imageGeneration() const;

  unsigned width() const { return Width; }
  unsigned threads() const { return static_cast<unsigned>(Workers.size()); }

private:
  void start(unsigned Threads);
  void workerMain();
  /// Compiles item \p Index of the current batch (worker context; no
  /// lock held, no shared mutable state touched).
  void processItem(size_t Index);

  const PreparedLibrary &Library;
  const BinaryAutomatonView &View; ///< The image the service started with.
  /// Owner of the live image after a hot swap (null until the first
  /// swapImage). Guarded by Mutex; batches snapshot it at dispatch.
  std::shared_ptr<MappedAutomaton> Swapped;
  uint64_t SwapGeneration = 0;
  /// The view the *current* batch's workers match against (set under
  /// Mutex at batch dispatch, untouched by mid-batch swaps).
  const BinaryAutomatonView *BatchView = nullptr;
  unsigned Width;
  CostKind Cost = CostKind::Unit;

  std::vector<std::thread> Workers;

  // Batch dispatch state, guarded by Mutex.
  mutable std::mutex Mutex;
  std::condition_variable WorkCv; ///< Workers wait for items / stop.
  std::condition_variable DoneCv; ///< process() waits for completion.
  const BatchRequest *Batch = nullptr;
  std::vector<const WorkloadProfile *> Profiles; ///< Per item.
  std::vector<BatchReply::Result> *Out = nullptr;
  size_t NextItem = 0;
  size_t ItemsDone = 0;
  bool Stopping = false;
};

} // namespace selgen

#endif // SELGEN_SERVE_SELECTIONSERVICE_H
