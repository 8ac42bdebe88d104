//===- PatternDatabase.h - The rule library ----------------------*- C++ -*-===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pattern database of paper Section 3/5.5: (goal, pattern) rules
/// collected across synthesizer runs, with aggregation, duplicate
/// filtering (commutative variants collapse onto one canonical form),
/// the non-normalized-pattern filter of Section 5.6, and a
/// specific-to-general sort. Serializes to a plain-text format so
/// libraries can be merged from parallel runs, exactly like the
/// artifact's rule-library.dat.
///
//===----------------------------------------------------------------------===//

#ifndef SELGEN_PATTERN_PATTERNDATABASE_H
#define SELGEN_PATTERN_PATTERNDATABASE_H

#include "ir/Graph.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace selgen {

/// One instruction selection rule: "if Pattern matches, emit Goal".
///
/// The pattern's fingerprint and its specific-first sort key are
/// computed once, at construction, and every later duplicate check,
/// sort and content hash reads the stored copies. Patterns are
/// therefore never mutated once they are in a rule.
struct Rule {
  std::string GoalName;
  Graph Pattern;

  Rule(std::string GoalName, Graph Pattern);

  /// Pattern.fingerprint(), as computed at construction.
  const std::string &fingerprint() const { return Fingerprint; }

  /// Pattern.numOperations(), as computed at construction.
  unsigned numOperations() const { return Operations; }

  /// Number of live Const nodes in Pattern, as computed at
  /// construction.
  unsigned numConstants() const { return Constants; }

  /// Deep copy that carries the stored fingerprint and sort key over.
  Rule clone() const {
    return Rule(GoalName, Pattern.clone(), Fingerprint, Operations,
                Constants);
  }

private:
  std::string Fingerprint;
  unsigned Operations;
  unsigned Constants;

  Rule(std::string GoalName, Graph Pattern, std::string Fingerprint,
       unsigned Operations, unsigned Constants)
      : GoalName(std::move(GoalName)), Pattern(std::move(Pattern)),
        Fingerprint(std::move(Fingerprint)), Operations(Operations),
        Constants(Constants) {}
};

/// The positions of \p Rules from more specific to less specific
/// patterns (Section 5.6): more operations first; ties broken toward
/// patterns with more constants, then by fingerprint. The order reads
/// each rule's stored key and is stable.
std::vector<uint32_t> specificFirstOrder(const std::vector<Rule> &Rules);

/// A library of rules.
class PatternDatabase {
public:
  /// Adds a rule; exact duplicates (same goal, structurally identical
  /// pattern) are dropped. Returns true if the rule was new.
  bool add(std::string GoalName, Graph Pattern);

  /// Merges another database (aggregation across synthesizer runs,
  /// Section 5.5). Leaves \p Other empty and reusable.
  void merge(PatternDatabase &&Other);

  const std::vector<Rule> &rules() const { return Rules; }
  std::vector<const Rule *> rulesForGoal(const std::string &GoalName) const;
  size_t size() const { return Rules.size(); }

  /// Removes duplicates modulo commutative-operand normalization: if
  /// two rules for the same goal normalize to the same canonical
  /// graph, only the first stays (Section 5.5, "remove duplicated
  /// patterns that might stem from commutative arithmetic
  /// operations"). Returns the number of rules removed.
  size_t filterCommutativeDuplicates();

  /// Removes rules whose pattern is not in normal form; the compiler
  /// would never present such IR to the instruction selector
  /// (Section 5.6). Rules are checked in parallel (parallelFor) and
  /// the survivors keep their order. Returns the number of rules
  /// removed.
  size_t filterNonNormalized();

  /// Sorts the library into specificFirstOrder().
  void sortSpecificFirst();

  /// Serialization (text, self-delimiting records).
  std::string serialize() const;

  /// Loads serialize()'s format. The records are split on the calling
  /// thread, which stops at the first structural error; their bodies
  /// are then parsed in parallel (parallelFor) and the rules inserted
  /// in file order. On error, \p ErrorMessage receives the earliest
  /// error in the file, a bad body or the structural one, and the
  /// result is empty.
  static PatternDatabase deserialize(std::string_view Text,
                                     std::string *ErrorMessage = nullptr);

  /// File convenience wrappers; abort on I/O errors. saveToFile()
  /// publishes atomically (writeFileAtomic): a crash leaves the old
  /// file or the new one, never a truncated library.
  void saveToFile(const std::string &Path) const;
  static PatternDatabase loadFromFile(const std::string &Path);

private:
  std::vector<Rule> Rules;
  /// Duplicate index for O(1) detection: hash of (goal, fingerprint) to
  /// positions in Rules; the paper-scale library has 154 470 entries.
  /// It stores no key copies, so the filters and the sort, which move
  /// rules, drop it, and the next insert() rebuilds it. It is fresh
  /// exactly when it holds one entry per rule.
  std::unordered_multimap<size_t, uint32_t> Index;

  /// Appends \p R unless an identical rule is already present.
  bool insert(Rule &&R);
  void dropIndex() { Index = {}; }
};

} // namespace selgen

#endif // SELGEN_PATTERN_PATTERNDATABASE_H
