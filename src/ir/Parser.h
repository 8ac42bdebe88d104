//===- Parser.h - Textual IR input --------------------------------*- C++ -*-===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parses the textual graph format produced by ir/Printer. Its input is
/// untrusted: rule-library files, synthesis-cache shards, worker
/// frames and hand-written IR all come through here. Malformed text
/// never aborts; parseGraph() returns nullopt and describes the first
/// problem, with its line number.
///
//===----------------------------------------------------------------------===//

#ifndef SELGEN_IR_PARSER_H
#define SELGEN_IR_PARSER_H

#include "ir/Graph.h"

#include <optional>
#include <string>
#include <string_view>

namespace selgen {

/// Parses one graph from \p Text in a single pass; \p Text need only
/// outlive the call. \p ErrorMessage (if non-null) receives a
/// description on failure.
std::optional<Graph> parseGraph(std::string_view Text,
                                std::string *ErrorMessage = nullptr);

} // namespace selgen

#endif // SELGEN_IR_PARSER_H
