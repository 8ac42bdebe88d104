//===- ImageReloader.h - SIGHUP automaton hot reload -------------*- C++ -*-===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Hot reload of the serving automaton image without dropping a
/// connection. The operator regenerates the `.matb` file (same
/// library, e.g. after re-running selgen-matchergen with a new layout)
/// and sends SIGHUP; the signal handler calls requestReload() — just
/// an atomic flag, async-signal-safe — and the server's event-loop
/// tick picks it up. The expensive part (mmap, header validation,
/// fingerprint and rule-count staleness check against the resident
/// library) runs on a short-lived worker thread so the event loop
/// never stalls; only the final SelectionService::swapImage is a
/// mutex-protected pointer swap. A candidate that fails validation —
/// torn file, wrong fingerprint, older format version — is refused
/// with the failure counted and logged, and the server keeps serving
/// the image it already has. In-flight batches always finish on the image
/// they started with (the service pins it per batch).
///
/// Publish contract: the operator must replace the image
/// *atomically* — write the new bytes to a temp file, then rename(2)
/// it over the served path. rename gives the path a fresh inode, so
/// live mappings of the old image stay intact until the last batch
/// unpins them. Rewriting or truncating the served file in place
/// instead mutates the pages batches are matching against (truncation
/// turns reads past EOF into SIGBUS) — no userspace reload scheme can
/// survive that, which is why the contract exists.
///
//===----------------------------------------------------------------------===//

#ifndef SELGEN_SERVE_IMAGERELOADER_H
#define SELGEN_SERVE_IMAGERELOADER_H

#include "serve/ServeProtocol.h"

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>

namespace selgen {

class PreparedLibrary;
class SelectionService;

class ImageReloader {
public:
  /// \p ImagePath is re-read on every reload; \p Library is what each
  /// candidate image is validated against. Both must outlive this.
  ImageReloader(SelectionService &Service, const PreparedLibrary &Library,
                std::string ImagePath);
  ~ImageReloader();
  ImageReloader(const ImageReloader &) = delete;
  ImageReloader &operator=(const ImageReloader &) = delete;

  /// Marks a reload as wanted. Async-signal-safe (one atomic store);
  /// call it straight from the SIGHUP handler. Coalesces: many signals
  /// before the next tick mean one reload.
  void requestReload();

  /// Event-loop hook (ServerOptions::TickHook): reaps a finished
  /// worker and starts a new one if a reload is pending. Cheap when
  /// idle; never blocks on the reload itself.
  void tick();

  /// Blocks until no reload is pending or running (for tests and
  /// orderly shutdown). Returns false if \p TimeoutMs elapsed first.
  bool drain(int64_t TimeoutMs = 10000);

  uint64_t reloads() const {
    return Reloads.load(std::memory_order_relaxed);
  }
  uint64_t failures() const {
    return Failures.load(std::memory_order_relaxed);
  }
  /// Explanation of the most recent failed reload ("" if none failed
  /// since start). Thread-safe.
  std::string lastError() const;

  /// ServerOptions::HealthAugment adapter: fills the reload counters
  /// of \p Reply.
  void augmentHealth(HealthReply &Reply) const;

private:
  void workerMain();

  SelectionService &Service;
  const PreparedLibrary &Library;
  std::string ImagePath;

  std::atomic<bool> Pending{false};
  std::atomic<bool> Busy{false};
  std::atomic<uint64_t> Reloads{0};
  std::atomic<uint64_t> Failures{0};
  std::thread Worker;

  mutable std::mutex ErrorMutex;
  std::string LastError;
};

} // namespace selgen

#endif // SELGEN_SERVE_IMAGERELOADER_H
