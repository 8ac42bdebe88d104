//===- test_support.cpp - Support library tests -------------------------------===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/AtomicFile.h"
#include "support/FaultInjection.h"
#include "support/Json.h"
#include "support/Multicombination.h"
#include "support/Parallel.h"
#include "support/Rng.h"
#include "support/Statistics.h"
#include "support/StringUtils.h"
#include "support/Timer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <set>
#include <stdexcept>
#include <thread>

using namespace selgen;

TEST(Multicombination, EnumeratesAllNondecreasing) {
  MulticombinationEnumerator Enumerator(3, 2);
  std::vector<std::vector<unsigned>> All;
  do {
    All.push_back(Enumerator.current());
  } while (Enumerator.next());
  std::vector<std::vector<unsigned>> Expected = {
      {0, 0}, {0, 1}, {0, 2}, {1, 1}, {1, 2}, {2, 2}};
  EXPECT_EQ(All, Expected);
}

TEST(Multicombination, CountMatchesEnumeration) {
  for (unsigned NumItems : {1u, 3u, 5u}) {
    for (unsigned Size : {1u, 2u, 3u, 4u}) {
      MulticombinationEnumerator Enumerator(NumItems, Size);
      uint64_t Count = 0;
      std::set<std::vector<unsigned>> Unique;
      do {
        ++Count;
        Unique.insert(Enumerator.current());
      } while (Enumerator.next());
      EXPECT_EQ(Count, multisetCount(NumItems, Size))
          << NumItems << " choose " << Size;
      EXPECT_EQ(Unique.size(), Count) << "duplicates produced";
    }
  }
}

TEST(Multicombination, UnrankingResumesEnumeration) {
  // The rank constructor must land exactly where a fresh enumeration
  // arrives after StartRank steps — this is what lets the parallel
  // builder split a size's enumeration into independent sub-ranges.
  for (unsigned NumItems : {1u, 3u, 5u, 8u}) {
    for (unsigned Size : {1u, 2u, 3u, 4u}) {
      MulticombinationEnumerator Walker(NumItems, Size);
      uint64_t Rank = 0;
      do {
        MulticombinationEnumerator Jumped(NumItems, Size, Rank);
        EXPECT_EQ(Jumped.current(), Walker.current())
            << NumItems << " items, size " << Size << ", rank " << Rank;
        ++Rank;
      } while (Walker.next());
      EXPECT_EQ(Rank, multisetCount(NumItems, Size));
    }
  }
}

TEST(Multicombination, UnrankedHalvesCoverWhole) {
  // Splitting [0, N) into [0, N/2) + [N/2, N) via unranking walks every
  // multiset exactly once.
  const unsigned NumItems = 6, Size = 3;
  const uint64_t Total = multisetCount(NumItems, Size);
  std::set<std::vector<unsigned>> Seen;
  for (uint64_t Begin : {uint64_t(0), Total / 2}) {
    uint64_t End = Begin == 0 ? Total / 2 : Total;
    MulticombinationEnumerator Enumerator(NumItems, Size, Begin);
    for (uint64_t Rank = Begin; Rank < End; ++Rank) {
      EXPECT_TRUE(Seen.insert(Enumerator.current()).second);
      if (Rank + 1 < End)
        EXPECT_TRUE(Enumerator.next());
    }
  }
  EXPECT_EQ(Seen.size(), Total);
}

TEST(Multicombination, PaperNumbers) {
  // Section 5.4: "if |I| = 21, l = 6, and |O| = 2, we require 10 626
  // instead of 230 230 iterations."
  EXPECT_EQ(multisetCount(21, 6), 230230u);
  EXPECT_EQ(multisetCount(21, 4), 10626u);
}

TEST(Multicombination, SearchSpaceEstimates) {
  // Section 5.4: |I| = 21, lmax = 7 yields about 2^65 for classical
  // CEGIS and about 2^32 for iterative CEGIS.
  EXPECT_NEAR(classicalSearchSpaceLog2(21), 65.0, 1.0);
  EXPECT_NEAR(iterativeSearchSpaceLog2(21, 7), 32.0, 1.0);
}

TEST(Multicombination, BinomialAndFactorial) {
  EXPECT_EQ(binomial(10, 3), 120u);
  EXPECT_EQ(binomial(10, 0), 1u);
  EXPECT_EQ(binomial(3, 10), 0u);
  EXPECT_EQ(factorial(0), 1u);
  EXPECT_EQ(factorial(10), 3628800u);
  // Saturation instead of overflow.
  EXPECT_EQ(factorial(50), ~uint64_t(0));
}

TEST(Rng, Deterministic) {
  Rng A(123), B(123);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.nextUInt64(), B.nextUInt64());
}

TEST(Rng, BoundsRespected) {
  Rng Random(5);
  for (int I = 0; I < 1000; ++I) {
    EXPECT_LT(Random.nextBelow(17), 17u);
    int64_t V = Random.nextInRange(-5, 5);
    EXPECT_GE(V, -5);
    EXPECT_LE(V, 5);
  }
}

TEST(Rng, BitValueWidths) {
  Rng Random(5);
  EXPECT_EQ(Random.nextBitValue(100).width(), 100u);
  EXPECT_EQ(Random.nextInterestingBitValue(32).width(), 32u);
}

TEST(Statistics, AccumulatesAndClears) {
  Statistics &Stats = Statistics::get();
  Stats.clear();
  Stats.add("unit.counter");
  Stats.add("unit.counter", 41);
  EXPECT_EQ(Stats.value("unit.counter"), 42);
  EXPECT_EQ(Stats.value("unit.untouched"), 0);
  Stats.clear();
  EXPECT_EQ(Stats.value("unit.counter"), 0);
}

TEST(Statistics, JsonCarriesCountersAndGoalTelemetry) {
  Statistics &Stats = Statistics::get();
  Stats.clear();
  Stats.add("unit.json \"quoted\"", 7);
  GoalTelemetry Telemetry;
  Telemetry.Goal = "neg_r";
  Telemetry.Group = "Basic";
  Telemetry.CacheHit = true;
  Telemetry.Patterns = 2;
  Telemetry.SolverSeconds = 0.25;
  Stats.recordGoal(Telemetry);

  std::string Json = Stats.toJson();
  EXPECT_NE(Json.find("\"counters\""), std::string::npos);
  EXPECT_NE(Json.find("unit.json \\\"quoted\\\""), std::string::npos);
  EXPECT_NE(Json.find("\"goals\""), std::string::npos);
  EXPECT_NE(Json.find("\"neg_r\""), std::string::npos);
  EXPECT_NE(Json.find("\"cache_hit\": true"), std::string::npos);
  ASSERT_EQ(Stats.goals().size(), 1u);
  EXPECT_EQ(Stats.goals()[0].Goal, "neg_r");
  Stats.clear();
  EXPECT_TRUE(Stats.goals().empty());
}

TEST(Strings, SplitJoinTrim) {
  EXPECT_EQ(splitString("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(joinStrings({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(trimString("  hi \t\n"), "hi");
  EXPECT_EQ(trimString("   "), "");
  EXPECT_TRUE(startsWith("graph w8", "graph"));
  EXPECT_FALSE(startsWith("gr", "graph"));
}

TEST(Strings, Padding) {
  EXPECT_EQ(padLeft("7", 3), "  7");
  EXPECT_EQ(padRight("7", 3), "7  ");
  EXPECT_EQ(padLeft("1234", 3), "1234");
}

TEST(Strings, Formatting) {
  EXPECT_EQ(formatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(formatGrouped(63012), "63 012");
  EXPECT_EQ(formatGrouped(154470), "154 470");
  EXPECT_EQ(formatGrouped(42), "42");
  EXPECT_EQ(formatGrouped(1234567), "1 234 567");
}

TEST(Strings, TablePrinter) {
  TablePrinter Table({"Group", "#Goals", "Time"});
  Table.addRow({"Basic", "39", "3 min 25 s"});
  Table.addRow({"Flags", "265", "72 h 07 min 05 s"});
  std::string Rendered = Table.render();
  EXPECT_NE(Rendered.find("Basic"), std::string::npos);
  EXPECT_NE(Rendered.find("---"), std::string::npos);
  // Numeric columns right-aligned: "39" ends where "265" ends.
  EXPECT_NE(Rendered.find(" 39"), std::string::npos);
}

TEST(Timer, DurationFormat) {
  EXPECT_EQ(formatDuration(0.42), "420 ms");
  EXPECT_EQ(formatDuration(5), "5 s");
  EXPECT_EQ(formatDuration(205), "3 min 25 s");
  EXPECT_EQ(formatDuration(65458), "18 h 10 min 58 s");
}

TEST(Timer, MeasuresElapsed) {
  Timer Clock;
  volatile double Sink = 0;
  for (int I = 0; I < 100000; ++I)
    Sink = Sink + std::sqrt(static_cast<double>(I));
  EXPECT_GE(Clock.elapsedSeconds(), 0.0);
  EXPECT_GE(Clock.elapsedMilliseconds(), 0);
}

//===----------------------------------------------------------------------===//
// AtomicFile: CRC-32, atomic publication, quarantine.
//===----------------------------------------------------------------------===//

namespace {

std::string tempDirFor(const std::string &Name) {
  std::string Dir = ::testing::TempDir() + "selgen_" + Name;
  std::filesystem::remove_all(Dir);
  std::filesystem::create_directories(Dir);
  return Dir;
}

} // namespace

TEST(AtomicFile, Crc32KnownValues) {
  // Standard IEEE 802.3 check values.
  EXPECT_EQ(crc32(std::string("123456789")), 0xCBF43926u);
  EXPECT_EQ(crc32(std::string("")), 0u);
  EXPECT_EQ(crc32Hex("123456789"), "cbf43926");
  EXPECT_EQ(crc32Hex(""), "00000000");
}

TEST(AtomicFile, Crc32MatchesBitwiseReferenceAtEveryLength) {
  // crc32() dispatches between a PCLMUL fold, slice-by-8, and a
  // byte-at-a-time loop depending on buffer length and host CPU; all
  // tiers must agree with the plain bitwise definition at every
  // length and alignment, especially around the 16/64-byte fold
  // boundaries the fast path peels at.
  auto Reference = [](const unsigned char *Bytes, size_t Size) {
    uint32_t C = 0xffffffffu;
    for (size_t I = 0; I < Size; ++I) {
      C ^= Bytes[I];
      for (int K = 0; K < 8; ++K)
        C = (C & 1) ? 0xedb88320u ^ (C >> 1) : C >> 1;
    }
    return C ^ 0xffffffffu;
  };
  std::vector<unsigned char> Buffer(4096 + 7);
  uint32_t Seed = 0x9E3779B9u;
  for (unsigned char &B : Buffer) {
    Seed = Seed * 1664525u + 1013904223u;
    B = static_cast<unsigned char>(Seed >> 24);
  }
  for (size_t Size : {size_t(0), size_t(1), size_t(7), size_t(8), size_t(15),
                      size_t(16), size_t(17), size_t(63), size_t(64),
                      size_t(65), size_t(79), size_t(80), size_t(127),
                      size_t(128), size_t(129), size_t(1000), size_t(4096)}) {
    for (size_t Offset : {size_t(0), size_t(1), size_t(3), size_t(7)}) {
      ASSERT_EQ(crc32(Buffer.data() + Offset, Size),
                Reference(Buffer.data() + Offset, Size))
          << "size " << Size << " offset " << Offset;
    }
  }
}

TEST(AtomicFile, WriteAndReadRoundTrip) {
  std::string Dir = tempDirFor("atomicfile");
  std::string Path = Dir + "/artifact.txt";
  std::string Payload = "line one\nbinary \x01\x02 bytes\n";

  ASSERT_TRUE(writeFileAtomic(Path, Payload));
  std::optional<std::string> Read = readFileToString(Path);
  ASSERT_TRUE(Read.has_value());
  EXPECT_EQ(*Read, Payload);

  // Overwrite is atomic too and leaves no temp files behind.
  ASSERT_TRUE(writeFileAtomic(Path, "second version"));
  EXPECT_EQ(readFileToString(Path).value_or(""), "second version");
  size_t Entries = 0;
  for (const auto &Entry : std::filesystem::directory_iterator(Dir)) {
    (void)Entry;
    ++Entries;
  }
  EXPECT_EQ(Entries, 1u);
}

TEST(AtomicFile, WriteToBadDirectoryFailsCleanly) {
  EXPECT_FALSE(writeFileAtomic("/nonexistent-dir-xyz/file.txt", "data"));
  EXPECT_FALSE(readFileToString("/nonexistent-dir-xyz/file.txt").has_value());
}

TEST(AtomicFile, QuarantineMovesAside) {
  std::string Dir = tempDirFor("quarantine");
  std::string Path = Dir + "/shard";
  ASSERT_TRUE(writeFileAtomic(Path, "corrupt"));
  ASSERT_TRUE(quarantineFile(Path));
  EXPECT_FALSE(std::filesystem::exists(Path));
  EXPECT_EQ(readFileToString(Path + ".bad").value_or(""), "corrupt");

  // Re-quarantining a new corrupt artifact replaces the old evidence.
  ASSERT_TRUE(writeFileAtomic(Path, "corrupt again"));
  ASSERT_TRUE(quarantineFile(Path));
  EXPECT_EQ(readFileToString(Path + ".bad").value_or(""), "corrupt again");
  EXPECT_FALSE(quarantineFile(Path)); // Nothing left to quarantine.
}

//===----------------------------------------------------------------------===//
// Json: escaping and the flat-object parser.
//===----------------------------------------------------------------------===//

TEST(Json, EscapeRoundTrip) {
  std::string Nasty = "quote \" backslash \\ newline \n tab \t ctrl \x01";
  std::string Escaped = jsonEscape(Nasty);
  EXPECT_EQ(Escaped.find('\n'), std::string::npos);
  std::optional<std::string> Back = jsonUnescape(Escaped);
  ASSERT_TRUE(Back.has_value());
  EXPECT_EQ(*Back, Nasty);

  EXPECT_FALSE(jsonUnescape("trailing backslash \\").has_value());
  EXPECT_FALSE(jsonUnescape("bad escape \\q").has_value());
}

TEST(Json, ParseFlatObject) {
  std::optional<std::map<std::string, std::string>> Object =
      parseFlatJsonObject(
          "{\"type\": \"finish\", \"len\": 42, \"ok\": true, "
          "\"name\": \"a\\nb\"}");
  ASSERT_TRUE(Object.has_value());
  EXPECT_EQ(Object->at("type"), "finish");
  EXPECT_EQ(Object->at("len"), "42");
  EXPECT_EQ(Object->at("ok"), "true");
  EXPECT_EQ(Object->at("name"), "a\nb");
}

TEST(Json, ParseRejectsMalformed) {
  // Nested, truncated, or trailing-garbage inputs must all be
  // rejected: the parser doubles as corruption detection.
  EXPECT_FALSE(parseFlatJsonObject("{\"a\": {\"b\": 1}}").has_value());
  EXPECT_FALSE(parseFlatJsonObject("{\"a\": [1]}").has_value());
  EXPECT_FALSE(parseFlatJsonObject("{\"a\": \"unterminated").has_value());
  EXPECT_FALSE(parseFlatJsonObject("{\"a\": 1").has_value());
  EXPECT_FALSE(parseFlatJsonObject("{\"a\": 1} trailing").has_value());
  EXPECT_FALSE(parseFlatJsonObject("").has_value());
  EXPECT_TRUE(parseFlatJsonObject("{}").has_value());
}

//===----------------------------------------------------------------------===//
// FaultInjection: deterministic triggers.
//===----------------------------------------------------------------------===//

TEST(FaultInjection, NthCallFiresExactlyOnce) {
  FaultInjector &Faults = FaultInjector::get();
  ASSERT_TRUE(Faults.configure("unit_test_site@n=3"));
  EXPECT_TRUE(Faults.armed());

  std::vector<bool> Fired;
  for (int I = 0; I < 6; ++I)
    Fired.push_back(Faults.shouldFire("unit_test_site"));
  EXPECT_EQ(Fired, (std::vector<bool>{false, false, true, false, false,
                                      false}));
  EXPECT_EQ(Faults.firedCount("unit_test_site"), 1u);
  // A different site is never armed by this spec.
  EXPECT_FALSE(Faults.shouldFire("other_site"));
  Faults.disarm();
  EXPECT_FALSE(Faults.armed());
}

TEST(FaultInjection, ProbabilityIsDeterministicPerSeed) {
  FaultInjector &Faults = FaultInjector::get();
  auto sample = [&](const std::string &Spec) {
    EXPECT_TRUE(Faults.configure(Spec));
    std::vector<bool> Fired;
    for (int I = 0; I < 64; ++I)
      Fired.push_back(Faults.shouldFire("unit_test_site"));
    return Fired;
  };

  std::vector<bool> A = sample("unit_test_site@p=0.5,seed=7");
  std::vector<bool> B = sample("unit_test_site@p=0.5,seed=7");
  std::vector<bool> C = sample("unit_test_site@p=0.5,seed=8");
  EXPECT_EQ(A, B); // Same seed replays identically.
  EXPECT_NE(A, C); // Another seed picks different calls.
  size_t FiredCount = std::count(A.begin(), A.end(), true);
  EXPECT_GT(FiredCount, 8u); // p=0.5 over 64 calls.
  EXPECT_LT(FiredCount, 56u);
  Faults.disarm();
}

TEST(FaultInjection, BadSpecDisarms) {
  FaultInjector &Faults = FaultInjector::get();
  ASSERT_TRUE(Faults.configure("unit_test_site@n=1"));
  EXPECT_FALSE(Faults.configure("unit_test_site@bogus=1"));
  EXPECT_FALSE(Faults.armed());
  EXPECT_FALSE(Faults.configure("no-at-sign"));
  EXPECT_FALSE(Faults.configure("site@p=notanumber"));
  EXPECT_FALSE(Faults.armed());
  // An empty spec is a valid "disarm everything".
  EXPECT_TRUE(Faults.configure(""));
  EXPECT_FALSE(Faults.armed());
}

TEST(FaultInjection, DescribeNamesArmedSites) {
  FaultInjector &Faults = FaultInjector::get();
  ASSERT_TRUE(Faults.configure("solver_throw@p=0.05,shard_truncate@n=3"));
  std::string Banner = Faults.describe();
  EXPECT_NE(Banner.find("solver_throw"), std::string::npos);
  EXPECT_NE(Banner.find("shard_truncate"), std::string::npos);
  Faults.disarm();
}

TEST(ParallelFor, RunsEveryItemExactlyOnce) {
  for (size_t Count : {size_t(0), size_t(1), ParallelItemsPerThread - 1,
                       8 * ParallelItemsPerThread + 3}) {
    std::vector<std::atomic<int>> Calls(Count);
    parallelFor(Count, [&](size_t I) { Calls[I].fetch_add(1); });
    for (size_t I = 0; I < Count; ++I)
      ASSERT_EQ(Calls[I].load(), 1) << "item " << I << " of " << Count;
  }
}

TEST(ParallelFor, RethrowsAfterEveryThreadFinished) {
  const size_t Count = 8 * ParallelItemsPerThread;
  std::atomic<size_t> Running{0}, Calls{0};
  auto Body = [&](size_t I) {
    if (I == 5)
      throw std::runtime_error("item 5");
    // Keep the other threads busy while item 5 throws.
    Running.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    Calls.fetch_add(1);
    Running.fetch_sub(1);
  };
  EXPECT_THROW(
      {
        try {
          parallelFor(Count, Body);
        } catch (const std::runtime_error &Error) {
          EXPECT_STREQ(Error.what(), "item 5");
          EXPECT_EQ(Running.load(), 0u);
          throw;
        }
      },
      std::runtime_error);
  // Items still queued behind the failure were never handed out.
  EXPECT_LT(Calls.load(), Count - 1);
}
