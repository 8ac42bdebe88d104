//===- Json.h - Minimal JSON helpers -----------------------------*- C++ -*-===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The small amount of JSON the project needs: escaping for the
/// writers (--stats-json, --failures-json, lint findings) and a parser
/// for single-level objects. Deliberately not a general JSON library —
/// nested values are rejected, which doubles as corruption detection.
///
//===----------------------------------------------------------------------===//

#ifndef SELGEN_SUPPORT_JSON_H
#define SELGEN_SUPPORT_JSON_H

#include <map>
#include <optional>
#include <string>

namespace selgen {

/// Escapes \p Value for inclusion in a JSON string literal (quotes,
/// backslashes, and control characters).
std::string jsonEscape(const std::string &Value);

/// Inverse of jsonEscape; returns std::nullopt on a malformed escape.
std::optional<std::string> jsonUnescape(const std::string &Value);

/// Parses one flat JSON object {"key": "string" | number | true |
/// false, ...} into a key -> value map; string values are unescaped,
/// everything else keeps its literal spelling. Returns std::nullopt on
/// anything malformed or nested.
std::optional<std::map<std::string, std::string>>
parseFlatJsonObject(const std::string &Text);

} // namespace selgen

#endif // SELGEN_SUPPORT_JSON_H
