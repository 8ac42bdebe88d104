//===- AtomicFile.h - Crash-safe file publication ----------------*- C++ -*-===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One shared write-temp + fsync + rename helper for everything the
/// pipeline publishes to disk: synthesis-cache shards, --stats-json /
/// --failures-json, and the lint findings report. A reader can then
/// never observe a half-written file: it sees the old content, the new
/// content, or no file — a SIGKILL between any two instructions leaves
/// at worst an orphaned temp file. Plus the CRC-32 used by the cache
/// shard integrity check, and the quarantine helper that moves corrupt
/// artifacts aside as `<path>.bad` instead of deleting the evidence.
///
//===----------------------------------------------------------------------===//

#ifndef SELGEN_SUPPORT_ATOMICFILE_H
#define SELGEN_SUPPORT_ATOMICFILE_H

#include <cstdint>
#include <optional>
#include <string>

namespace selgen {

/// CRC-32 (IEEE 802.3, reflected) of \p Size bytes at \p Data.
uint32_t crc32(const void *Data, size_t Size);
uint32_t crc32(const std::string &Text);

/// 8-digit lowercase hex rendering of crc32(\p Text).
std::string crc32Hex(const std::string &Text);

/// Writes \p Contents to \p Path via a unique temp file in the same
/// directory, an fsync (unless \p Sync is false), and an atomic
/// rename. Returns false — with the temp file removed — on any
/// failure; the previous content of \p Path, if any, is then intact.
bool writeFileAtomic(const std::string &Path, const std::string &Contents,
                     bool Sync = true);

/// Reads the whole file at \p Path; std::nullopt if unreadable.
std::optional<std::string> readFileToString(const std::string &Path);

/// Moves \p Path aside to "<Path>.bad" (replacing any previous
/// quarantine of the same file) so a corrupt artifact can never be
/// trusted again but stays available for inspection. Returns false if
/// the rename failed.
bool quarantineFile(const std::string &Path);

} // namespace selgen

#endif // SELGEN_SUPPORT_ATOMICFILE_H
