//===- StampedImage.h - Automaton images of another format version -*- C++ -*-===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Stands in for a `.matb` image written by a build of another format
/// version: a current image whose header carries \p Version, with the
/// header CRC recomputed so only the version check can refuse it.
///
//===----------------------------------------------------------------------===//

#ifndef SELGEN_TESTS_STAMPEDIMAGE_H
#define SELGEN_TESTS_STAMPEDIMAGE_H

#include "matchergen/BinaryAutomaton.h"
#include "support/AtomicFile.h"

#include <cstddef>
#include <cstring>
#include <string>

namespace selgen {

inline std::string withFormatVersion(std::string Image, uint32_t Version) {
  binfmt::Header H;
  std::memcpy(&H, Image.data(), sizeof(H));
  H.Version = Version;
  H.HeaderCrc = crc32(&H, offsetof(binfmt::Header, HeaderCrc));
  std::memcpy(Image.data(), &H, sizeof(H));
  return Image;
}

} // namespace selgen

#endif // SELGEN_TESTS_STAMPEDIMAGE_H
