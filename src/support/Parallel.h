//===- Parallel.h - Data-parallel loops -------------------------*- C++ -*-===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One data-parallel loop for the per-rule passes of rule-library load
/// (parse and fingerprint, the non-normalized filter). Those passes
/// never look at two rules at once, so each item runs independently
/// and the caller merges the per-item results in order afterwards.
///
//===----------------------------------------------------------------------===//

#ifndef SELGEN_SUPPORT_PARALLEL_H
#define SELGEN_SUPPORT_PARALLEL_H

#include <cstddef>
#include <functional>

namespace selgen {

/// Runs \p Body(I) once for every I in [0, \p Count) and returns when
/// all calls have returned. The calling thread works too; it starts
/// one helper thread per further ParallelItemsPerThread items, up to
/// std::thread::hardware_concurrency() threads in all, so a small
/// loop runs on the caller alone. Items are handed out in index order
/// from a shared counter, and calls for different items must not
/// write shared state. If a call throws, no further items are handed
/// out, and the first exception is rethrown once every thread has
/// finished.
void parallelFor(size_t Count, const std::function<void(size_t)> &Body);

/// Items per thread below which parallelFor() starts no more threads.
inline constexpr size_t ParallelItemsPerThread = 128;

} // namespace selgen

#endif // SELGEN_SUPPORT_PARALLEL_H
