//===- SynthesisCache.cpp - Persistent synthesis result cache -----------------===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//

#include "pattern/SynthesisCache.h"

#include "ir/Parser.h"
#include "ir/Printer.h"
#include "support/AtomicFile.h"
#include "support/FaultInjection.h"
#include "support/Statistics.h"
#include "support/StringUtils.h"

#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <system_error>

#include <unistd.h>

using namespace selgen;

namespace {
constexpr const char *MagicLine = "selgen-cache v2";
constexpr const char *EndLine = "end";
} // namespace

std::string SynthesisCache::defaultDirectory() {
  if (const char *Env = std::getenv("SELGEN_CACHE_DIR"))
    if (*Env)
      return Env;
  if (const char *Xdg = std::getenv("XDG_CACHE_HOME"))
    if (*Xdg)
      return std::string(Xdg) + "/selgen";
  if (const char *Home = std::getenv("HOME"))
    if (*Home)
      return std::string(Home) + "/.cache/selgen";
  return ".selgen-cache";
}

SynthesisCache::SynthesisCache(std::string RootDirectory)
    : Directory(std::move(RootDirectory)) {
  Directory += "/v2";
  std::error_code EC;
  std::filesystem::create_directories(Directory, EC);
  Usable = !EC && std::filesystem::is_directory(Directory, EC);
}

std::string SynthesisCache::shardPath(const std::string &Key) const {
  return Directory + "/" + Key + ".shard";
}

std::string SynthesisCache::serializeResult(const GoalSynthesisResult &Result) {
  std::ostringstream Out;
  Out << "goal " << Result.GoalName << "\n";
  Out.precision(6);
  Out << "seconds " << std::fixed << Result.Seconds << "\n";
  Out << "minimal-size " << Result.MinimalSize << "\n";
  Out << "multisets " << Result.MultisetsConsidered << " "
      << Result.MultisetsSkipped << " " << Result.MultisetsRun << "\n";
  Out << "queries " << Result.SynthesisQueries << " "
      << Result.VerificationQueries << " " << Result.Counterexamples << "\n";
  Out << "prescreen " << Result.PrescreenKills << " "
      << Result.PrescreenInconclusive << "\n";
  // The cost vector of the goal's emission recipe. Written whenever
  // derived; readers tolerate its absence (pre-cost shards), in which
  // case the builder re-derives.
  if (Result.HasCost)
    Out << "cost " << Result.CostInstructions << " " << Result.CostLatency
        << " " << Result.CostSize << "\n";
  Out << "patterns " << Result.Patterns.size() << "\n";
  for (const Graph &Pattern : Result.Patterns) {
    Out << "pattern\n";
    Out << printGraph(Pattern);
    Out << "endpattern\n";
  }
  Out << EndLine << "\n";

  // The v2 frame: magic, then a checksum line covering the exact body
  // bytes. A torn write (short body) fails the length check; a flipped
  // bit fails the CRC; either way the reader sees "corrupt", never a
  // silently wrong result.
  std::string Body = Out.str();
  return std::string(MagicLine) + "\ncrc " + crc32Hex(Body) + " " +
         std::to_string(Body.size()) + "\n" + Body;
}

std::optional<GoalSynthesisResult>
SynthesisCache::deserializeResult(const std::string &Text) {
  // Frame validation: magic line, checksum line, then the body whose
  // length and CRC-32 must match the checksum line exactly (trailing
  // garbage after the body is corruption too).
  size_t MagicEnd = Text.find('\n');
  if (MagicEnd == std::string::npos ||
      trimString(Text.substr(0, MagicEnd)) != MagicLine)
    return std::nullopt;
  size_t CrcEnd = Text.find('\n', MagicEnd + 1);
  if (CrcEnd == std::string::npos)
    return std::nullopt;
  std::string CrcLine = trimString(Text.substr(MagicEnd + 1, CrcEnd - MagicEnd - 1));
  if (!startsWith(CrcLine, "crc "))
    return std::nullopt;
  std::istringstream CrcFields(CrcLine.substr(4));
  std::string CrcHex;
  uint64_t BodyLength = 0;
  if (!(CrcFields >> CrcHex >> BodyLength))
    return std::nullopt;
  std::string Body = Text.substr(CrcEnd + 1);
  if (Body.size() != BodyLength || crc32Hex(Body) != CrcHex)
    return std::nullopt;

  GoalSynthesisResult Result;
  std::istringstream Stream(Body);
  std::string Line;

  size_t DeclaredPatterns = 0;
  bool SawPatternsField = false;
  bool SawEnd = false;
  while (std::getline(Stream, Line)) {
    std::string Trimmed = trimString(Line);
    if (Trimmed.empty())
      continue;
    if (Trimmed == EndLine) {
      SawEnd = true;
      break;
    }
    if (startsWith(Trimmed, "goal ")) {
      Result.GoalName = trimString(Trimmed.substr(5));
    } else if (startsWith(Trimmed, "seconds ")) {
      Result.Seconds = std::atof(Trimmed.substr(8).c_str());
    } else if (startsWith(Trimmed, "minimal-size ")) {
      Result.MinimalSize =
          static_cast<unsigned>(std::atoll(Trimmed.substr(13).c_str()));
    } else if (startsWith(Trimmed, "multisets ")) {
      std::istringstream Fields(Trimmed.substr(10));
      if (!(Fields >> Result.MultisetsConsidered >> Result.MultisetsSkipped >>
            Result.MultisetsRun))
        return std::nullopt;
    } else if (startsWith(Trimmed, "queries ")) {
      std::istringstream Fields(Trimmed.substr(8));
      if (!(Fields >> Result.SynthesisQueries >> Result.VerificationQueries >>
            Result.Counterexamples))
        return std::nullopt;
    } else if (startsWith(Trimmed, "prescreen ")) {
      std::istringstream Fields(Trimmed.substr(10));
      if (!(Fields >> Result.PrescreenKills >> Result.PrescreenInconclusive))
        return std::nullopt;
    } else if (startsWith(Trimmed, "cost ")) {
      std::istringstream Fields(Trimmed.substr(5));
      if (!(Fields >> Result.CostInstructions >> Result.CostLatency >>
            Result.CostSize))
        return std::nullopt;
      Result.HasCost = true;
    } else if (startsWith(Trimmed, "patterns ")) {
      DeclaredPatterns =
          static_cast<size_t>(std::atoll(Trimmed.substr(9).c_str()));
      SawPatternsField = true;
    } else if (Trimmed == "pattern") {
      std::string GraphText;
      bool Terminated = false;
      while (std::getline(Stream, Line)) {
        if (trimString(Line) == "endpattern") {
          Terminated = true;
          break;
        }
        GraphText += Line + "\n";
      }
      if (!Terminated)
        return std::nullopt;
      std::string ParseError;
      std::optional<Graph> Pattern = parseGraph(GraphText, &ParseError);
      if (!Pattern)
        return std::nullopt;
      Result.Patterns.push_back(std::move(*Pattern));
    } else {
      return std::nullopt; // Unknown field: likely corruption.
    }
  }

  // A shard is valid only if fully terminated and internally
  // consistent; anything else is treated as a miss, not an error.
  if (!SawEnd || !SawPatternsField || Result.GoalName.empty() ||
      Result.Patterns.size() != DeclaredPatterns)
    return std::nullopt;
  Result.Complete = true; // Only complete results are ever stored.
  return Result;
}

std::optional<GoalSynthesisResult>
SynthesisCache::lookup(const std::string &Key) const {
  if (!Usable)
    return std::nullopt;
  std::optional<std::string> Contents = readFileToString(shardPath(Key));
  if (!Contents)
    return std::nullopt;
  // Fault hook: simulate a corrupted read (bad sector, torn page).
  if (FaultInjector::get().shouldFire("shard_read") && !Contents->empty())
    Contents->resize(Contents->size() / 2);
  std::optional<GoalSynthesisResult> Result = deserializeResult(*Contents);
  if (!Result) {
    // Quarantine the shard so later runs are not charged the repeated
    // read-and-reject, and the evidence survives for inspection.
    Statistics::get().add("cache.corrupt_shards");
    quarantineFile(shardPath(Key));
  }
  return Result;
}

bool SynthesisCache::store(const std::string &Key,
                           const GoalSynthesisResult &Result) const {
  if (!Usable || !Result.Complete)
    return false;

  std::string Contents = serializeResult(Result);
  // Fault hook: publish a torn shard, as a crashed or buggy writer
  // without the atomic-rename discipline would. Readers must detect
  // and quarantine it, never crash or trust it.
  if (FaultInjector::get().shouldFire("shard_truncate"))
    Contents.resize(Contents.size() / 2);
  if (!writeFileAtomic(shardPath(Key), Contents))
    return false;
  if (FaultInjector::get().shouldFire("kill_after_finish"))
    ::kill(::getpid(), SIGKILL);
  return true;
}
