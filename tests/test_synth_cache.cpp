//===- test_synth_cache.cpp - Persistent synthesis cache tests -----------------===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//

#include "ir/Printer.h"
#include "pattern/ParallelBuilder.h"
#include "support/Statistics.h"
#include "synth/SpecFingerprint.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <thread>

using namespace selgen;

namespace {

constexpr unsigned W = 8;

/// RAII temp directory for one cache instance.
struct TempDir {
  std::string Path;
  TempDir() {
    char Template[] = "/tmp/selgen-cache-test-XXXXXX";
    char *Made = mkdtemp(Template);
    EXPECT_NE(Made, nullptr);
    Path = Made ? Made : "";
  }
  ~TempDir() {
    if (!Path.empty()) {
      std::error_code EC;
      std::filesystem::remove_all(Path, EC);
    }
  }
};

GoalLibrary tinyGoals(std::vector<std::string> Names = {"neg_r", "not_r"}) {
  GoalLibrary All = GoalLibrary::build(W, {"Basic"});
  return GoalLibrary::subset(std::move(All), std::move(Names));
}

SynthesisOptions baseOptions() {
  SynthesisOptions Options;
  Options.Width = W;
  Options.FindAllMinimal = true;
  Options.QueryTimeoutMs = 30000;
  Options.TimeBudgetSeconds = 30;
  return Options;
}

std::multiset<std::string> ruleFingerprints(const PatternDatabase &Database) {
  std::multiset<std::string> Result;
  for (const Rule &R : Database.rules())
    Result.insert(R.GoalName + "|" + R.Pattern.fingerprint());
  return Result;
}

GoalSynthesisResult synthesizeOne(const std::string &Name) {
  GoalLibrary Goals = tinyGoals({Name});
  SmtContext Smt;
  Synthesizer Synth(Smt, baseOptions());
  return Synth.synthesize(*Goals.goals().front().Spec);
}

} // namespace

TEST(SpecFingerprint, StableAcrossContexts) {
  GoalLibrary Goals = tinyGoals({"neg_r", "not_r"});
  const InstrSpec &Neg = *Goals.goals()[0].Spec;
  const InstrSpec &Not = *Goals.goals()[1].Spec;

  SmtContext A, B;
  EXPECT_EQ(instrSpecFingerprint(A, Neg, W), instrSpecFingerprint(B, Neg, W));
  EXPECT_NE(instrSpecFingerprint(A, Neg, W), instrSpecFingerprint(A, Not, W));
  // The same semantics at another width is a different entry.
  EXPECT_NE(instrSpecFingerprint(A, Neg, W), instrSpecFingerprint(A, Neg, 16));

  // A synthesis worker computes keys and fingerprints on whichever
  // context it holds, often one that has just run CEGIS: they must
  // equal those computed on a fresh context, for every goal.
  GoalLibrary Basic = GoalLibrary::build(W, {"Basic"});
  SynthesisOptions Options = baseOptions();
  SmtContext Used;
  for (const char *Name : {"add_rr", "neg_r"}) {
    Synthesizer Synth(Used, Options);
    ASSERT_TRUE(Synth.synthesize(*Basic.find(Name)->Spec).Complete) << Name;
  }
  for (const GoalInstruction &Goal : Basic.goals()) {
    SmtContext Fresh;
    EXPECT_EQ(synthesisCacheKey(Used, *Goal.Spec, Options),
              synthesisCacheKey(Fresh, *Goal.Spec, Options))
        << Goal.Name;
    EXPECT_EQ(instrSpecFingerprint(Used, *Goal.Spec, W),
              instrSpecFingerprint(Fresh, *Goal.Spec, W))
        << Goal.Name;
  }
}

TEST(SpecFingerprint, OptionsExcludeBudgetsButNotPolicy) {
  SynthesisOptions Options = baseOptions();
  std::string Base = synthesisOptionsFingerprint(Options);

  // Only complete results are cached, and a complete result does not
  // depend on how much time it was allowed to take.
  Options.TimeBudgetSeconds = 1;
  Options.QueryTimeoutMs = 5;
  EXPECT_EQ(synthesisOptionsFingerprint(Options), Base);

  SynthesisOptions Policy = baseOptions();
  Policy.RequireTotalPatterns = !Policy.RequireTotalPatterns;
  EXPECT_NE(synthesisOptionsFingerprint(Policy), Base);

  Policy = baseOptions();
  Policy.MaxPatternsPerGoal = 3;
  EXPECT_NE(synthesisOptionsFingerprint(Policy), Base);
}

TEST(SynthesisCache, RoundTripPreservesResult) {
  TempDir Dir;
  SynthesisCache Cache(Dir.Path);
  ASSERT_TRUE(Cache.usable());

  GoalSynthesisResult Fresh = synthesizeOne("neg_r");
  ASSERT_TRUE(Fresh.Complete);
  ASSERT_FALSE(Fresh.Patterns.empty());

  EXPECT_TRUE(Cache.store("somekey", Fresh));
  std::optional<GoalSynthesisResult> Cached = Cache.lookup("somekey");
  ASSERT_TRUE(Cached.has_value());
  EXPECT_EQ(Cached->GoalName, Fresh.GoalName);
  EXPECT_EQ(Cached->MinimalSize, Fresh.MinimalSize);
  EXPECT_EQ(Cached->MultisetsRun, Fresh.MultisetsRun);
  EXPECT_TRUE(Cached->Complete);
  ASSERT_EQ(Cached->Patterns.size(), Fresh.Patterns.size());
  for (size_t I = 0; I < Fresh.Patterns.size(); ++I)
    EXPECT_EQ(Cached->Patterns[I].fingerprint(), Fresh.Patterns[I].fingerprint());
}

TEST(SynthesisCache, IncompleteResultsAreRejected) {
  TempDir Dir;
  SynthesisCache Cache(Dir.Path);
  GoalSynthesisResult Result;
  Result.GoalName = "partial";
  Result.Complete = false;
  EXPECT_FALSE(Cache.store("k", Result));
  EXPECT_FALSE(Cache.lookup("k").has_value());
}

TEST(SynthesisCache, CorruptShardsDegradeToMiss) {
  TempDir Dir;
  SynthesisCache Cache(Dir.Path);
  GoalSynthesisResult Fresh = synthesizeOne("neg_r");
  std::string Serialized = SynthesisCache::serializeResult(Fresh);

  // Garbage, a truncation of every length, and a tampered field.
  {
    std::ofstream Out(Cache.shardPath("garbage"));
    Out << "not a shard at all\n\x01\x02\x03";
  }
  EXPECT_FALSE(Cache.lookup("garbage").has_value());

  for (size_t Cut : {size_t(0), size_t(1), Serialized.size() / 2,
                     Serialized.size() - 2}) {
    std::ofstream Out(Cache.shardPath("truncated"));
    Out << Serialized.substr(0, Cut);
    Out.close();
    EXPECT_FALSE(Cache.lookup("truncated").has_value())
        << "truncation at " << Cut << " must be a miss";
  }

  // The v2 checksum frame covers the exact body: appended trailing
  // content is a length mismatch, and any in-place tamper is a CRC
  // mismatch. Both are corruption, both degrade to a miss.
  {
    std::ofstream Out(Cache.shardPath("tampered"));
    Out << Serialized << "trailing-unknown-field 1\n";
  }
  EXPECT_FALSE(Cache.lookup("tampered").has_value());
  std::string Tampered = Serialized;
  size_t Pos = Tampered.find("patterns ");
  ASSERT_NE(Pos, std::string::npos);
  Tampered.replace(Pos, std::string("patterns ").size() + 1, "patterns 9");
  {
    std::ofstream Out(Cache.shardPath("countmismatch"));
    Out << Tampered;
  }
  EXPECT_FALSE(Cache.lookup("countmismatch").has_value());

  // Corrupt shards are quarantined to <shard>.bad and counted, so the
  // next lookup is a clean miss instead of a repeated read-and-reject.
  EXPECT_FALSE(std::ifstream(Cache.shardPath("countmismatch")).good());
  EXPECT_TRUE(std::ifstream(Cache.shardPath("countmismatch") + ".bad").good());
  EXPECT_GE(Statistics::get().value("cache.corrupt_shards"), 6);

  // A full, untouched shard still loads.
  {
    std::ofstream Out(Cache.shardPath("intact"));
    Out << Serialized;
  }
  EXPECT_TRUE(Cache.lookup("intact").has_value());
}

TEST(SynthesisCache, LegacyShardWithCostLineStillHits) {
  // A shard exactly as written before the rule-cost stamp was dropped:
  // its body carries a `cost` line, and its CRC covers that line.
  const std::string Body = "goal add_rr\n"
                           "seconds 0.144225\n"
                           "minimal-size 1\n"
                           "multisets 18 5 13\n"
                           "queries 30 4 2\n"
                           "prescreen 13 0\n"
                           "cost 1 1 2\n"
                           "patterns 2\n"
                           "pattern\n"
                           "graph w8 args(bv8, bv8) {\n"
                           "  n0 = Add(a0, a1)\n"
                           "  results(n0)\n"
                           "}\n"
                           "endpattern\n"
                           "pattern\n"
                           "graph w8 args(bv8, bv8) {\n"
                           "  n0 = Add(a1, a0)\n"
                           "  results(n0)\n"
                           "}\n"
                           "endpattern\n"
                           "end\n";
  TempDir Dir;
  SynthesisCache Cache(Dir.Path);
  {
    std::ofstream Out(Cache.shardPath("legacy"));
    Out << "selgen-cache v2\ncrc bdad97ef 278\n" << Body;
  }
  std::optional<GoalSynthesisResult> Cached = Cache.lookup("legacy");
  ASSERT_TRUE(Cached.has_value());
  EXPECT_EQ(Cached->GoalName, "add_rr");
  EXPECT_TRUE(Cached->Complete);
  EXPECT_EQ(Cached->MinimalSize, 1u);
  EXPECT_EQ(Cached->MultisetsRun, 13u);
  EXPECT_EQ(Cached->SynthesisQueries, 30u);
  EXPECT_EQ(Cached->PrescreenKills, 13u);
  ASSERT_EQ(Cached->Patterns.size(), 2u);
  EXPECT_EQ(printGraph(Cached->Patterns[0]),
            "graph w8 args(bv8, bv8) {\n  n0 = Add(a0, a1)\n  results(n0)\n}\n");
  EXPECT_EQ(printGraph(Cached->Patterns[1]),
            "graph w8 args(bv8, bv8) {\n  n0 = Add(a1, a0)\n  results(n0)\n}\n");

  // Stored again, the result is the same shard less its cost line.
  std::string Rewritten = SynthesisCache::serializeResult(*Cached);
  std::string Expected = Body;
  Expected.erase(Expected.find("cost 1 1 2\n"), 11);
  EXPECT_EQ(Rewritten.substr(Rewritten.find("goal ")), Expected);
}

TEST(SynthesisCache, ConcurrentWritersStaySafe) {
  TempDir Dir;
  SynthesisCache Cache(Dir.Path);
  GoalSynthesisResult Fresh = synthesizeOne("neg_r");

  // Many writers hammering the same key while readers poll: every
  // successful lookup must deserialize cleanly (atomic publish means
  // readers never observe a half-written shard).
  std::atomic<bool> Stop{false};
  std::atomic<unsigned> BadReads{0};
  std::vector<std::thread> Threads;
  for (int T = 0; T < 2; ++T)
    Threads.emplace_back([&] {
      for (int I = 0; I < 50; ++I)
        Cache.store("contended", Fresh);
    });
  std::thread Reader([&] {
    while (!Stop.load()) {
      std::ifstream Probe(Cache.shardPath("contended"));
      if (Probe.good() && !Cache.lookup("contended").has_value())
        BadReads.fetch_add(1);
    }
  });
  for (std::thread &T : Threads)
    T.join();
  Stop.store(true);
  Reader.join();
  EXPECT_EQ(BadReads.load(), 0u);
  EXPECT_TRUE(Cache.lookup("contended").has_value());
}

TEST(ParallelBuilderCache, WarmRerunHitsAndMatchesFresh) {
  TempDir Dir;
  SynthesisCache Cache(Dir.Path);
  GoalLibrary Goals = tinyGoals();
  SynthesisOptions Options = baseOptions();

  ParallelBuildOptions Build;
  Build.NumThreads = 2;
  Build.Cache = &Cache;

  LibraryBuildReport Cold, Warm;
  PatternDatabase First =
      synthesizeRuleLibraryParallel(Goals, Options, Build, &Cold);
  EXPECT_EQ(Cold.CacheHits, 0u);
  EXPECT_EQ(Cold.CacheMisses, 2u);

  PatternDatabase Second =
      synthesizeRuleLibraryParallel(Goals, Options, Build, &Warm);
  EXPECT_EQ(Warm.CacheHits, 2u);
  EXPECT_EQ(Warm.CacheMisses, 0u);

  // Determinism: the cache-served library equals the fresh one.
  EXPECT_EQ(ruleFingerprints(First), ruleFingerprints(Second));
  EXPECT_EQ(First.size(), Second.size());

  // And both equal a cache-less build.
  LibraryBuildReport Bare;
  ParallelBuildOptions NoCache;
  NoCache.NumThreads = 2;
  PatternDatabase Third =
      synthesizeRuleLibraryParallel(Goals, Options, NoCache, &Bare);
  EXPECT_EQ(Bare.CacheHits, 0u);
  EXPECT_EQ(Bare.CacheMisses, 0u);
  EXPECT_EQ(ruleFingerprints(First), ruleFingerprints(Third));
}

TEST(ParallelBuilderCache, OptionChangeInvalidates) {
  TempDir Dir;
  SynthesisCache Cache(Dir.Path);
  GoalLibrary Goals = tinyGoals({"neg_r"});
  SynthesisOptions Options = baseOptions();

  ParallelBuildOptions Build;
  Build.NumThreads = 1;
  Build.Cache = &Cache;

  LibraryBuildReport Cold;
  synthesizeRuleLibraryParallel(Goals, Options, Build, &Cold);
  EXPECT_EQ(Cold.CacheMisses, 1u);

  // A result-relevant option flips the key: full miss, not a stale hit.
  SynthesisOptions Changed = Options;
  Changed.MaxPatternsPerGoal = 1;
  LibraryBuildReport Report;
  synthesizeRuleLibraryParallel(Goals, Changed, Build, &Report);
  EXPECT_EQ(Report.CacheHits, 0u);
  EXPECT_EQ(Report.CacheMisses, 1u);

  // The original options still hit.
  LibraryBuildReport Again;
  synthesizeRuleLibraryParallel(Goals, Options, Build, &Again);
  EXPECT_EQ(Again.CacheHits, 1u);
  EXPECT_EQ(Again.CacheMisses, 0u);
}

TEST(ParallelBuilderCache, ConcurrentBuildersShareOneStore) {
  TempDir Dir;
  SynthesisCache CacheA(Dir.Path), CacheB(Dir.Path);
  GoalLibrary GoalsA = tinyGoals(), GoalsB = tinyGoals();
  SynthesisOptions Options = baseOptions();

  LibraryBuildReport ReportA, ReportB;
  PatternDatabase DatabaseA, DatabaseB;
  std::thread BuilderA([&] {
    ParallelBuildOptions Build;
    Build.NumThreads = 2;
    Build.Cache = &CacheA;
    DatabaseA = synthesizeRuleLibraryParallel(GoalsA, Options, Build, &ReportA);
  });
  std::thread BuilderB([&] {
    ParallelBuildOptions Build;
    Build.NumThreads = 2;
    Build.Cache = &CacheB;
    DatabaseB = synthesizeRuleLibraryParallel(GoalsB, Options, Build, &ReportB);
  });
  BuilderA.join();
  BuilderB.join();

  // Both may solve (racing is allowed), but the results must agree and
  // a third run must be served fully from the shared store.
  EXPECT_EQ(ruleFingerprints(DatabaseA), ruleFingerprints(DatabaseB));
  ParallelBuildOptions Build;
  Build.NumThreads = 2;
  Build.Cache = &CacheA;
  LibraryBuildReport Warm;
  PatternDatabase Third =
      synthesizeRuleLibraryParallel(GoalsA, Options, Build, &Warm);
  EXPECT_EQ(Warm.CacheHits, 2u);
  EXPECT_EQ(ruleFingerprints(Third), ruleFingerprints(DatabaseA));
}
