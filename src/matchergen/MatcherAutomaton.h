//===- MatcherAutomaton.h - Discrimination-tree rule matcher -----*- C++ -*-===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The matcher-automaton compiler: an offline pass that compiles a
/// priority-ordered rule library into a discrimination tree so that a
/// single traversal of the subject DAG finds every candidate rule,
/// instead of attempting each rule one by one as the paper's prototype
/// selector does.
///
/// Each pattern is flattened into a string of symbols by a pre-order
/// walk from its root: an operation node becomes a node symbol (result
/// index, opcode, and internal attribute — the constant's value or the
/// comparison relation), a pattern argument becomes a wildcard symbol
/// carrying only its sort (the subject subtree under a wildcard is
/// skipped, not walked). The strings of all rules are inserted into a
/// trie, so rules with a common pattern prefix share the states that
/// test it. Because every symbol consumes exactly one pending subject
/// position and announces how many new ones it opens, the strings are
/// self-delimiting: a string can end only where the pending count
/// reaches zero, no string is a proper prefix of another, and an
/// accepting state is therefore always a leaf reached with an empty
/// subject stack.
///
/// The tree tests exactly the per-position structural conditions of the
/// full matcher (isel/Matcher) and nothing else. Non-linear conditions
/// — repeated arguments binding the same value, DAG re-convergence of
/// shared pattern nodes, Imm-role arguments requiring constants, shift
/// preconditions — are deliberately left out, so the accepting rules
/// are a *superset* of the truly matching rules. The selection engine
/// re-runs the full matcher on each candidate in priority order, which
/// is what keeps the automaton selector byte-identical to the linear
/// one while doing sublinear candidate discovery.
///
/// The trie is a private builder: compile() emits it straight into the
/// "selgen-matcher-automaton-bin-v3" image (matchergen/BinaryAutomaton.h)
/// and keeps only those bytes. Every consumer — in-memory selection,
/// a mapped .matb file, the subsumption analysis — matches through the
/// same BinaryAutomatonView. The image carries the rule library's
/// fingerprint, so a stale automaton is rejected rather than silently
/// applied to the wrong library.
///
//===----------------------------------------------------------------------===//

#ifndef SELGEN_MATCHERGEN_MATCHERAUTOMATON_H
#define SELGEN_MATCHERGEN_MATCHERAUTOMATON_H

#include "matchergen/BinaryAutomaton.h"

#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace selgen {

/// One rule pattern as the automaton compiler consumes it. The
/// caller (isel's rule preparation) resolves roots and priority
/// indices; matchergen itself depends only on the IR.
struct AutomatonPattern {
  const Graph *Pattern = nullptr;
  /// The pattern's root operation node (never null).
  const Node *Root = nullptr;
  /// Compare-and-jump rule: the flattening starts from the Cond
  /// node's operand value and the string goes into the jump tree.
  bool IsJump = false;
  /// Library priority index (most-specific-first order).
  uint32_t RuleIndex = 0;
};

/// A compiled discrimination tree: the bin-v3 image in an owned,
/// 8-aligned buffer plus the validated view over it. Move-only; the
/// buffer's address (and so the view) survives moves.
class MatcherAutomaton {
public:
  /// Compiles \p Patterns (priority-indexed rules of one library) into
  /// a discrimination tree. \p LibraryFingerprint and \p NumRules
  /// identify the library for staleness checks. The image holds the
  /// patterns only; rule costs stay with the prepared library.
  static MatcherAutomaton compile(const std::vector<AutomatonPattern> &Patterns,
                                  const std::string &LibraryFingerprint,
                                  uint32_t NumRules);

  const BinaryAutomatonView &view() const { return View; }

  /// The image bytes, exactly as writeBinaryFile() writes them.
  std::string_view bytes() const {
    return {reinterpret_cast<const char *>(Words.get()), Size};
  }

  /// Writes bytes() atomically.
  bool writeBinaryFile(const std::string &Path) const;

  /// mmaps and validates a binary automaton image. Null — with
  /// \p Error set — on I/O, corruption, or version failure. Library
  /// staleness is the caller's check (automatonStalenessError).
  static std::unique_ptr<MappedAutomaton>
  mapBinary(const std::string &Path, std::string *Error = nullptr);

private:
  MatcherAutomaton(std::unique_ptr<uint64_t[]> Words, size_t Size,
                   const BinaryAutomatonView &View)
      : Words(std::move(Words)), Size(Size), View(View) {}

  std::unique_ptr<uint64_t[]> Words;
  size_t Size;
  BinaryAutomatonView View;
};

} // namespace selgen

#endif // SELGEN_MATCHERGEN_MATCHERAUTOMATON_H
