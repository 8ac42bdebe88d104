//===- Json.h - Minimal JSON helpers -----------------------------*- C++ -*-===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The small amount of JSON the project needs: string escaping for the
/// writers (--stats-json, --failures-json, lint findings).
///
//===----------------------------------------------------------------------===//

#ifndef SELGEN_SUPPORT_JSON_H
#define SELGEN_SUPPORT_JSON_H

#include <string>

namespace selgen {

/// Escapes \p Value for inclusion in a JSON string literal (quotes,
/// backslashes, and control characters).
std::string jsonEscape(const std::string &Value);

} // namespace selgen

#endif // SELGEN_SUPPORT_JSON_H
