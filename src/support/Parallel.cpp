//===- Parallel.cpp - Data-parallel loops ---------------------------------===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/Parallel.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

using namespace selgen;

void selgen::parallelFor(size_t Count,
                         const std::function<void(size_t)> &Body) {
  size_t Threads =
      std::min<size_t>(std::max(1u, std::thread::hardware_concurrency()),
                       std::max<size_t>(1, Count / ParallelItemsPerThread));
  std::atomic<size_t> Next{0};
  std::mutex FailureMutex;
  std::exception_ptr Failure;
  auto work = [&] {
    try {
      size_t Begin;
      while ((Begin = Next.fetch_add(ParallelItemsPerFetch,
                                     std::memory_order_relaxed)) < Count) {
        size_t End = std::min(Count, Begin + ParallelItemsPerFetch);
        for (size_t I = Begin; I < End; ++I)
          Body(I);
      }
    } catch (...) {
      std::lock_guard<std::mutex> Lock(FailureMutex);
      if (!Failure)
        Failure = std::current_exception();
      Next.store(Count, std::memory_order_relaxed); // Hand out no more.
    }
  };
  {
    // jthread joins on every exit from this scope.
    std::vector<std::jthread> Helpers;
    Helpers.reserve(Threads - 1);
    for (size_t T = 1; T < Threads; ++T) {
      try {
        Helpers.emplace_back(work);
      } catch (const std::system_error &) {
        break; // Out of threads: the ones running take the rest.
      }
    }
    work();
  }
  if (Failure)
    std::rethrow_exception(Failure);
}
