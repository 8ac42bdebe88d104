//===- test_load_allocations.cpp - Heap allocations of library load -------===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//
//
// Pins the heap-allocation budgets of the selector's rule-library load
// and preparation: PatternDatabase::loadFromFile, filterNonNormalized
// and sortSpecificFirst together may make at most
// MaxAllocationsPerRecord calls to operator new per record of the file,
// and PreparedLibrary, which shares the database's rules rather than
// copying them, at most MaxPrepareAllocations, however many rules it
// prepares. Wall time is too noisy to gate in a test; the allocation
// counts are exact and are what the load and preparation times track.
//
// The counting global operator new below replaces the library one for
// this binary only, so the other test binaries keep the sanitizers'
// new/delete checks.
//
//===----------------------------------------------------------------------===//

#include "InflatedLibrary.h"
#include "isel/PreparedLibrary.h"
#include "pattern/PatternDatabase.h"
#include "support/AtomicFile.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

namespace {

std::atomic<uint64_t> Allocations{0};

void *countedAllocation(std::size_t Size, std::size_t Alignment) {
  Allocations.fetch_add(1, std::memory_order_relaxed);
  if (Size == 0)
    Size = 1;
  void *Memory = nullptr;
  if (Alignment <= alignof(std::max_align_t))
    Memory = std::malloc(Size);
  else if (posix_memalign(&Memory, Alignment, Size) != 0)
    Memory = nullptr;
  return Memory;
}

void *countedOrThrow(std::size_t Size, std::size_t Alignment) {
  if (void *Memory = countedAllocation(Size, Alignment))
    return Memory;
  throw std::bad_alloc();
}

} // namespace

void *operator new(std::size_t Size) {
  return countedOrThrow(Size, alignof(std::max_align_t));
}
void *operator new[](std::size_t Size) {
  return countedOrThrow(Size, alignof(std::max_align_t));
}
void *operator new(std::size_t Size, std::align_val_t Alignment) {
  return countedOrThrow(Size, static_cast<std::size_t>(Alignment));
}
void *operator new[](std::size_t Size, std::align_val_t Alignment) {
  return countedOrThrow(Size, static_cast<std::size_t>(Alignment));
}
void *operator new(std::size_t Size, const std::nothrow_t &) noexcept {
  return countedAllocation(Size, alignof(std::max_align_t));
}
void *operator new[](std::size_t Size, const std::nothrow_t &) noexcept {
  return countedAllocation(Size, alignof(std::max_align_t));
}
void operator delete(void *Memory) noexcept { std::free(Memory); }
void operator delete[](void *Memory) noexcept { std::free(Memory); }
void operator delete(void *Memory, std::size_t) noexcept { std::free(Memory); }
void operator delete[](void *Memory, std::size_t) noexcept {
  std::free(Memory);
}
void operator delete(void *Memory, std::align_val_t) noexcept {
  std::free(Memory);
}
void operator delete[](void *Memory, std::align_val_t) noexcept {
  std::free(Memory);
}
void operator delete(void *Memory, std::size_t, std::align_val_t) noexcept {
  std::free(Memory);
}
void operator delete[](void *Memory, std::size_t, std::align_val_t) noexcept {
  std::free(Memory);
}

using namespace selgen;

namespace {

/// Operator-new calls per record that the load may make: about four for
/// each rule built (its pattern's node block, node list and results,
/// and its fingerprint), as many again for each survivor, which the
/// filter re-allocates, and the helper threads' scratch.
constexpr double MaxAllocationsPerRecord = 8;

/// Operator-new calls that preparing a library may make, whatever its
/// number of rules: a few vectors and the goals' cost probes.
constexpr uint64_t MaxPrepareAllocations = 500;

struct LoadCost {
  size_t Records;
  size_t Survivors;
  double AllocationsPerRecord;
  uint64_t PrepareAllocations;
};

/// Loads the library file at \p Path the way the selector tools do and
/// counts the allocations of that load alone, then prepares it and
/// counts the allocations of that too.
LoadCost measureLoad(const std::string &Path) {
  GoalLibrary Goals = GoalLibrary::build(8, GoalLibrary::allGroups());
  uint64_t Before = Allocations.load();
  PatternDatabase Database = PatternDatabase::loadFromFile(Path);
  size_t Records = Database.size();
  Database.filterNonNormalized();
  Database.sortSpecificFirst();
  uint64_t Count = Allocations.load() - Before;

  uint64_t PrepareBefore = Allocations.load();
  PreparedLibrary Library(Database, Goals);
  uint64_t PrepareAllocations = Allocations.load() - PrepareBefore;
  EXPECT_GT(Library.rules().size(), 0u);
  return {Records, Database.size(), double(Count) / double(Records),
          PrepareAllocations};
}

void expectWithinBudgets(const char *Name, const LoadCost &Cost) {
  std::printf("%s: %.2f allocations per record, %llu to prepare\n", Name,
              Cost.AllocationsPerRecord,
              static_cast<unsigned long long>(Cost.PrepareAllocations));
  EXPECT_LE(Cost.AllocationsPerRecord, MaxAllocationsPerRecord);
  EXPECT_LE(Cost.PrepareAllocations, MaxPrepareAllocations);
}

} // namespace

TEST(LoadAllocations, ShippedFullLibraryStaysWithinBudget) {
  LoadCost Cost = measureLoad(std::string(SELGEN_ARTIFACTS_DIR) +
                              "/rule-library-full-w8.dat");
  EXPECT_EQ(Cost.Records, 430u);
  EXPECT_EQ(Cost.Survivors, 309u);
  expectWithinBudgets("full w8 library", Cost);
}

TEST(LoadAllocations, InflatedLibraryStaysWithinBudget) {
  // The 10 000-rule library the serve benchmark loads.
  std::string Path = ::testing::TempDir() + "/load-allocations-10k.dat";
  inflated(shippedLibrary("rule-library-full-w8.dat"), 10000)
      .saveToFile(Path);
  LoadCost Cost = measureLoad(Path);
  std::remove(Path.c_str());
  EXPECT_EQ(Cost.Records, 10000u);
  EXPECT_EQ(Cost.Survivors, 3004u);
  expectWithinBudgets("10k inflated library", Cost);
}
