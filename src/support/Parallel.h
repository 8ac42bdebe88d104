//===- Parallel.h - Data-parallel loops -------------------------*- C++ -*-===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One data-parallel loop for the per-rule passes of rule-library load
/// and preparation: deserialize's one pass per record (parse, rule
/// construction with its fingerprint and normal-form verdict, index
/// key), freeing the rules the non-normalized filter rejects, and
/// PreparedLibrary's copies. Those passes never look at two rules at
/// once, so each item runs independently and the caller merges the
/// per-item results in order afterwards.
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
/// from a shared counter, ParallelItemsPerFetch at a time, and calls
/// for different items must not write shared state. If a call throws, no further items are handed
/// out, and the first exception is rethrown once every thread has
/// finished.
void parallelFor(size_t Count, const std::function<void(size_t)> &Body);

/// Items per thread below which parallelFor() starts no more threads.
inline constexpr size_t ParallelItemsPerThread = 128;

/// Consecutive items a thread takes per visit to the shared counter,
/// so a loop of cheap items (a flag check) does not spend its time
/// contending for the counter.
inline constexpr size_t ParallelItemsPerFetch = 8;

} // namespace selgen

#endif // SELGEN_SUPPORT_PARALLEL_H
