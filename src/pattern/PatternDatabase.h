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

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace selgen {

/// One instruction selection rule: "if Pattern matches, emit Goal".
///
/// The pattern's fingerprint, its specific-first sort key and its
/// normal-form verdict are computed once, at construction, and every
/// later duplicate check, sort, filter and content hash reads the
/// stored copies. Patterns are therefore never mutated once they are
/// in a rule. Construction allocates only what the rule keeps: the
/// constant count comes from the fingerprint's walk, and the verdict
/// runs on per-thread scratch (isNormalized()). Rules are not copied:
/// a PatternDatabase owns them, and a PreparedLibrary shares them.
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

  /// isNormalized(Pattern), as computed at construction: normalization
  /// leaves the pattern's fingerprint unchanged (Section 5.6).
  bool inNormalForm() const { return NormalForm; }

private:
  friend class PatternDatabase;

  std::string Fingerprint;
  unsigned Operations = 0;
  unsigned Constants = 0;
  bool NormalForm = false;

  /// An empty slot that PatternDatabase::deserialize() builds a rule
  /// into in place.
  Rule() = default;
};

/// The positions of \p Rules from more specific to less specific
/// patterns (Section 5.6): more operations first; ties broken toward
/// patterns with more constants, then by fingerprint. The order reads
/// each rule's stored key and is stable.
std::vector<uint32_t> specificFirstOrder(const std::vector<Rule> &Rules);

/// A library of rules.
///
/// The rules live in one reference-counted store. A PreparedLibrary
/// shares it (sharedRules()) instead of copying the rules, so the
/// prepared library may outlive the database. While it is shared, the
/// store is read-only: add(), merge() (into or out of it), the filters
/// and sortSpecificFirst() refuse to run and abort with a fatal error
/// (reportFatalError) rather than change rules a prepared library
/// points at. Once every sharer is gone the database is mutable again.
class PatternDatabase {
public:
  PatternDatabase() = default;
  PatternDatabase(PatternDatabase &&) noexcept = default;
  PatternDatabase &operator=(PatternDatabase &&) noexcept = default;
  PatternDatabase(const PatternDatabase &) = delete;
  PatternDatabase &operator=(const PatternDatabase &) = delete;

  /// Adds a rule; exact duplicates (same goal, structurally identical
  /// pattern) are dropped. Returns true if the rule was new.
  bool add(std::string GoalName, Graph Pattern);

  /// Merges another database (aggregation across synthesizer runs,
  /// Section 5.5); its rules move over, not copied. Leaves \p Other
  /// empty and reusable.
  void merge(PatternDatabase &&Other);

  const std::vector<Rule> &rules() const;
  std::vector<const Rule *> rulesForGoal(const std::string &GoalName) const;
  size_t size() const { return rules().size(); }

  /// rules(), sharing ownership of the store: the rules stay valid and
  /// unchanged while the result lives, and the database refuses to
  /// change them meanwhile.
  std::shared_ptr<const std::vector<Rule>> sharedRules() const;

  /// Removes duplicates modulo commutative-operand normalization: if
  /// two rules for the same goal normalize to the same canonical
  /// graph, only the first stays (Section 5.5, "remove duplicated
  /// patterns that might stem from commutative arithmetic
  /// operations"). Returns the number of rules removed.
  size_t filterCommutativeDuplicates();

  /// Removes rules whose pattern is not in normal form; the compiler
  /// would never present such IR to the instruction selector
  /// (Section 5.6). The verdict is each rule's stored inNormalForm(),
  /// so this is an order-keeping compaction. The survivors' patterns,
  /// fingerprints and goal names are then re-allocated in parallel
  /// (parallelFor): left where deserialize() wrote them, among the
  /// freed rejected rules in its helper threads' malloc arenas, they
  /// raised the peak memory of the threads that later inherit those
  /// arenas (EXPERIMENTS.md, memory section). Returns the number of
  /// rules removed.
  size_t filterNonNormalized();

  /// Sorts the library into specificFirstOrder().
  void sortSpecificFirst();

  /// Serialization (text, self-delimiting records).
  std::string serialize() const;

  /// Loads serialize()'s format. The records are split on the calling
  /// thread, which stops at the first structural error. Each record's
  /// whole load then runs once, in one parallelFor and in the rule's
  /// final slot: parsing its body, building its Rule (fingerprint,
  /// sort key, normal-form verdict) and hashing its duplicate-index
  /// key. Beyond the split, the calling thread only probes the index
  /// with those keys in file order, dropping duplicates. A record
  /// allocates nothing but the rule it becomes. On error,
  /// \p ErrorMessage receives the earliest error in the file, a bad
  /// body or the structural one, and the result is empty.
  static PatternDatabase deserialize(std::string_view Text,
                                     std::string *ErrorMessage = nullptr);

  /// File convenience wrappers; abort on I/O errors. saveToFile()
  /// publishes atomically (writeFileAtomic): a crash leaves the old
  /// file or the new one, never a truncated library.
  void saveToFile(const std::string &Path) const;
  static PatternDatabase loadFromFile(const std::string &Path);

private:
  /// One slot of the duplicate index: a rule's indexKey() and its
  /// position in the rules, or EmptySlot.
  struct IndexSlot {
    size_t Key;
    uint32_t Position;
  };

  /// The store; null until the first change, and after a move.
  std::shared_ptr<std::vector<Rule>> Rules;
  /// Duplicate index for O(1) detection: open addressing with linear
  /// probing over the hash of (goal, fingerprint), at a load factor of
  /// at most one half; the paper-scale library has 154 470 entries. It
  /// holds hashes and positions, not copies of goals or fingerprints,
  /// so the filters and the sort, which move rules, drop it, and the
  /// next insert() rebuilds it. It is fresh exactly when it holds one
  /// entry per rule.
  std::vector<IndexSlot> Index;
  size_t Indexed = 0;

  /// The store, for a change: created if missing; a fatal error if a
  /// PreparedLibrary shares it.
  std::vector<Rule> &mutableRules();
  /// Appends \p R, whose indexKey() is \p Key, unless an identical
  /// rule is already present.
  bool insert(Rule &&R, size_t Key);
  /// The slot of the fresh index that holds a rule identical to \p R,
  /// whose indexKey() is \p Key, or else the empty slot where \p R
  /// belongs. Reads rules only on a key match.
  IndexSlot &findSlot(const Rule &R, size_t Key);
  /// Grows Index, if needed, to hold \p Entries.
  void reserveIndex(size_t Entries);
  void dropIndex() {
    Index = {};
    Indexed = 0;
  }
};

} // namespace selgen

#endif // SELGEN_PATTERN_PATTERNDATABASE_H
