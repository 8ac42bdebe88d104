//===- SynthesisCache.cpp - Persistent synthesis result cache -----------------===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//

#include "pattern/SynthesisCache.h"

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
  // The v2 frame: magic, then a checksum line covering the exact body
  // bytes. A torn write (short body) fails the length check; a flipped
  // bit fails the CRC; either way the reader sees "corrupt", never a
  // silently wrong result.
  std::string Body = encodeSynthesisResult(Result);
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
  std::vector<std::string> Crc = splitString(
      trimString(Text.substr(MagicEnd + 1, CrcEnd - MagicEnd - 1)), ' ');
  uint64_t BodyLength = 0;
  if (Crc.size() != 3 || Crc[0] != "crc" || !parseNumber(Crc[2], BodyLength))
    return std::nullopt;
  std::string Body = Text.substr(CrcEnd + 1);
  if (Body.size() != BodyLength || crc32Hex(Body) != Crc[1])
    return std::nullopt;
  // A shard holds only complete results, which is what a decoded body
  // defaults to.
  std::istringstream Stream(Body);
  return decodeSynthesisResult(Stream);
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
