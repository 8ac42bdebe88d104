//===- Matcher.h - DAG pattern matching --------------------------*- C++ -*-===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Structural matching of a rule's IR pattern against a subject graph
/// (a basic-block body). Matching is exact on opcodes, attributes, and
/// wiring; pattern arguments bind subject values subject to their goal
/// argument roles (an Imm-role argument only binds an IR constant).
///
//===----------------------------------------------------------------------===//

#ifndef SELGEN_ISEL_MATCHER_H
#define SELGEN_ISEL_MATCHER_H

#include "ir/Graph.h"
#include "semantics/InstrSpec.h"

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <vector>

namespace selgen {

/// A successful match of a pattern against a subject graph.
struct MatchResult {
  /// Pattern operation node -> subject node.
  std::map<const Node *, const Node *> NodeMap;
  /// One subject value per pattern argument (Imm-role bindings point
  /// at Const nodes).
  std::vector<NodeRef> ArgBindings;
  /// Matched subject operation nodes, excluding Const and Arg nodes
  /// (constants are rematerializable and never block a match).
  std::vector<const Node *> CoveredNodes;
};

/// Tries to match \p Pattern so that its node corresponding to
/// \p PatternRoot aligns with the subject node \p SubjectRoot.
/// \p Roles are the goal's argument roles (parallel to the pattern's
/// arguments). Returns std::nullopt on mismatch. \p NodesVisited, if
/// non-null, is incremented by the number of pattern positions the
/// match walk examined (the matcher-work metric,
/// SelectionResult::NodesVisited).
std::optional<MatchResult> matchPattern(const Graph &Pattern,
                                        const std::vector<ArgRole> &Roles,
                                        const Node *PatternRoot,
                                        const Node *SubjectRoot,
                                        uint64_t *NodesVisited = nullptr);

/// Like matchPattern, but aligns a pattern *value* with a subject
/// value. Used for terminator matching, where the pattern's Cond
/// operand is matched against the branch condition.
std::optional<MatchResult> matchPatternValue(const Graph &Pattern,
                                             const std::vector<ArgRole> &Roles,
                                             NodeRef PatternValue,
                                             NodeRef SubjectValue,
                                             uint64_t *NodesVisited = nullptr);

/// The root of a pattern: the defining node of its first result whose
/// definition is an operation (not an argument). Returns null for
/// argument-only patterns (e.g. mov_ri's identity pattern).
const Node *patternRoot(const Graph &Pattern);

/// Checks the paper's shift preconditions on the concrete constants a
/// match bound: a rule whose pattern shifts by a bound constant that
/// is out of range must not fire (such IR is undefined, but real
/// compilers leave it alone rather than exploiting it).
bool matchedConstantsSatisfyPreconditions(const Graph &Pattern,
                                          const MatchResult &Match,
                                          unsigned Width);

} // namespace selgen

#endif // SELGEN_ISEL_MATCHER_H
