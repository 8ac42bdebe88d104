//===- PatternDatabase.cpp - The rule library ---------------------------------===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//

#include "pattern/PatternDatabase.h"

#include "ir/Normalizer.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "support/AtomicFile.h"
#include "support/Error.h"
#include "support/Parallel.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <bit>
#include <functional>
#include <mutex>
#include <numeric>
#include <optional>
#include <set>
#include <string_view>

using namespace selgen;

Rule::Rule(std::string GoalName, Graph Pattern)
    : GoalName(std::move(GoalName)), Pattern(std::move(Pattern)),
      Operations(this->Pattern.numOperations()),
      NormalForm(isNormalized(this->Pattern)) {
  Fingerprint = this->Pattern.fingerprint(&Constants);
}

namespace {

size_t indexKey(const Rule &R) {
  size_t Hash = std::hash<std::string_view>()(R.GoalName);
  return Hash * 31 + std::hash<std::string_view>()(R.fingerprint());
}

constexpr uint32_t EmptySlot = ~0u;

} // namespace

bool PatternDatabase::add(std::string GoalName, Graph Pattern) {
  Rule R(std::move(GoalName), std::move(Pattern));
  size_t Key = indexKey(R);
  return insert(std::move(R), Key);
}

void PatternDatabase::reserveIndex(size_t Entries) {
  if (2 * Entries <= Index.size())
    return;
  std::vector<IndexSlot> Previous(
      std::bit_ceil(std::max<size_t>(16, 2 * Entries)),
      IndexSlot{0, EmptySlot});
  Previous.swap(Index);
  size_t Mask = Index.size() - 1;
  for (const IndexSlot &Entry : Previous) {
    if (Entry.Position == EmptySlot)
      continue;
    size_t Slot = Entry.Key & Mask;
    while (Index[Slot].Position != EmptySlot)
      Slot = (Slot + 1) & Mask;
    Index[Slot] = Entry;
  }
}

bool PatternDatabase::insert(Rule &&R, size_t Key) {
  if (Indexed != Rules.size()) {
    // Stale since the last filter or sort: rebuild it once, here.
    dropIndex();
    reserveIndex(Rules.size() + 1);
    for (uint32_t I = 0; I < Rules.size(); ++I) {
      size_t RuleKey = indexKey(Rules[I]);
      findSlot(Rules[I], RuleKey) = {RuleKey, I};
    }
    Indexed = Rules.size();
  }
  reserveIndex(Rules.size() + 1);
  IndexSlot &Slot = findSlot(R, Key);
  if (Slot.Position != EmptySlot)
    return false;
  Slot = {Key, static_cast<uint32_t>(Rules.size())};
  ++Indexed;
  Rules.push_back(std::move(R));
  return true;
}

PatternDatabase::IndexSlot &PatternDatabase::findSlot(const Rule &R,
                                                      size_t Key) {
  size_t Mask = Index.size() - 1;
  for (size_t Slot = Key & Mask;; Slot = (Slot + 1) & Mask) {
    IndexSlot &Entry = Index[Slot];
    if (Entry.Position == EmptySlot)
      return Entry;
    const Rule &Existing = Rules[Entry.Position];
    if (Entry.Key == Key && Existing.GoalName == R.GoalName &&
        Existing.fingerprint() == R.fingerprint())
      return Entry;
  }
}

void PatternDatabase::merge(PatternDatabase &&Other) {
  for (Rule &R : Other.Rules) {
    size_t Key = indexKey(R);
    insert(std::move(R), Key);
  }
  Other.Rules.clear();
  Other.dropIndex();
}

std::vector<const Rule *>
PatternDatabase::rulesForGoal(const std::string &GoalName) const {
  std::vector<const Rule *> Result;
  for (const Rule &R : Rules)
    if (R.GoalName == GoalName)
      Result.push_back(&R);
  return Result;
}

size_t PatternDatabase::filterCommutativeDuplicates() {
  std::set<std::string> Seen;
  size_t Before = Rules.size();
  std::vector<Rule> Kept;
  for (Rule &R : Rules) {
    // The normalizer orders commutative operands canonically, so two
    // commutative variants share a normalized fingerprint.
    std::string Key =
        R.GoalName + "|" + normalizeGraph(R.Pattern).fingerprint();
    if (Seen.insert(Key).second)
      Kept.push_back(std::move(R));
  }
  Rules = std::move(Kept);
  dropIndex();
  return Before - Rules.size();
}

size_t PatternDatabase::filterNonNormalized() {
  // The workers read the stored verdicts and free the rejected rules;
  // the order-keeping compaction then reads the flags, and moves only
  // the survivors.
  size_t Before = Rules.size();
  std::vector<char> Keep(Rules.size());
  parallelFor(Rules.size(), [&](size_t I) {
    Keep[I] = Rules[I].inNormalForm();
    if (!Keep[I]) {
      Rule Rejected = std::move(Rules[I]); // Freed on this thread.
    }
  });
  size_t Kept = 0;
  for (size_t I = 0; I < Rules.size(); ++I)
    if (Keep[I]) {
      if (Kept != I)
        Rules[Kept] = std::move(Rules[I]);
      ++Kept;
    }
  Rules.erase(Rules.begin() + Kept, Rules.end());
  dropIndex();
  return Before - Rules.size();
}

std::vector<uint32_t>
selgen::specificFirstOrder(const std::vector<Rule> &Rules) {
  std::vector<uint32_t> Order(Rules.size());
  std::iota(Order.begin(), Order.end(), 0);
  auto moreSpecific = [&](uint32_t A, uint32_t B) {
    const Rule &RA = Rules[A], &RB = Rules[B];
    if (RA.numOperations() != RB.numOperations())
      return RA.numOperations() > RB.numOperations();
    if (RA.numConstants() != RB.numConstants())
      return RA.numConstants() > RB.numConstants();
    return RA.fingerprint() < RB.fingerprint();
  };
  // A sorted library, which is what PreparedLibrary gets, costs one
  // pass; the stable sort would leave it as it is.
  if (!std::is_sorted(Order.begin(), Order.end(), moreSpecific))
    std::stable_sort(Order.begin(), Order.end(), moreSpecific);
  return Order;
}

void PatternDatabase::sortSpecificFirst() {
  std::vector<Rule> Sorted;
  Sorted.reserve(Rules.size());
  for (uint32_t I : specificFirstOrder(Rules))
    Sorted.push_back(std::move(Rules[I]));
  Rules = std::move(Sorted);
  dropIndex();
}

std::string PatternDatabase::serialize() const {
  std::string Result;
  for (const Rule &R : Rules) {
    Result += "rule " + R.GoalName + "\n";
    Result += printGraph(R.Pattern);
    Result += "endrule\n";
  }
  return Result;
}

PatternDatabase PatternDatabase::deserialize(std::string_view Text,
                                             std::string *ErrorMessage) {
  // Split the text into records, stopping at the first structural
  // error. Lines are views into Text, and each record's body is the
  // view from the line after "rule" up to "endrule".
  struct Record {
    std::string_view GoalName, Body;
  };
  std::vector<Record> Records;
  std::string StructuralError;
  std::string_view GoalName;
  bool InRule = false;
  size_t BodyBegin = 0;
  std::string_view Rest(Text);
  while (!Rest.empty() && StructuralError.empty()) {
    size_t LineBegin = Text.size() - Rest.size();
    size_t Newline = Rest.find('\n');
    std::string_view Line = Rest.substr(0, Newline);
    Rest.remove_prefix(Newline == std::string_view::npos ? Rest.size()
                                                         : Newline + 1);
    std::string_view Trimmed = trimView(Line);
    if (Trimmed.empty() || Trimmed.front() == '#')
      continue;
    if (Trimmed.substr(0, 5) == "rule ") {
      if (InRule)
        StructuralError = "nested rule record";
      GoalName = trimView(Trimmed.substr(5));
      BodyBegin = Text.size() - Rest.size();
      InRule = true;
    } else if (Trimmed == "endrule") {
      if (!InRule)
        StructuralError = "endrule without rule";
      else
        Records.push_back(
            {GoalName, Text.substr(BodyBegin, LineBegin - BodyBegin)});
      InRule = false;
    } else if (!InRule) {
      StructuralError =
          "unexpected line outside rule record: " + std::string(Trimmed);
    }
  }
  if (InRule && StructuralError.empty())
    StructuralError = "unterminated rule record";

  // Each record's whole load, once, in parallel and in its own slot:
  // parse, build the rule and hash its index key. Of the bad bodies,
  // only the first in the file is kept.
  PatternDatabase Database;
  std::vector<Rule> &Rules = Database.Rules;
  Rules.reserve(Records.size());
  for (size_t I = 0; I < Records.size(); ++I)
    Rules.push_back(Rule());
  std::vector<size_t> Keys(Records.size());
  std::mutex BadBodyMutex;
  size_t BadBody = Records.size();
  std::string BadBodyError;
  parallelFor(Records.size(), [&](size_t I) {
    std::string Error;
    std::optional<Graph> Pattern = parseGraph(Records[I].Body, &Error);
    if (!Pattern) {
      std::lock_guard<std::mutex> Lock(BadBodyMutex);
      if (I < BadBody) {
        BadBody = I;
        BadBodyError = std::move(Error);
      }
      return;
    }
    Rules[I] = Rule(std::string(Records[I].GoalName), std::move(*Pattern));
    Keys[I] = indexKey(Rules[I]);
  });

  // Every record precedes the structural error, so the earliest error
  // in the file is the first bad body, if any.
  auto fail = [&](const std::string &Message) {
    if (ErrorMessage)
      *ErrorMessage = Message;
    return PatternDatabase();
  };
  if (BadBody < Records.size())
    return fail("bad pattern for " + std::string(Records[BadBody].GoalName) +
                ": " + BadBodyError);
  if (!StructuralError.empty())
    return fail(StructuralError);

  // Drop duplicates in file order, probing the index with the workers'
  // keys; a rule is read only when its key matches, and moved only
  // after a duplicate.
  Database.reserveIndex(Rules.size());
  size_t Kept = 0;
  for (size_t I = 0; I < Rules.size(); ++I) {
    IndexSlot &Slot = Database.findSlot(Rules[I], Keys[I]);
    if (Slot.Position != EmptySlot)
      continue;
    Slot = {Keys[I], static_cast<uint32_t>(Kept)};
    if (Kept != I)
      Rules[Kept] = std::move(Rules[I]);
    ++Kept;
  }
  Rules.erase(Rules.begin() + Kept, Rules.end());
  Database.Indexed = Kept;
  return Database;
}

void PatternDatabase::saveToFile(const std::string &Path) const {
  if (!writeFileAtomic(Path, serialize()))
    reportFatalError("cannot write pattern database: " + Path);
}

PatternDatabase PatternDatabase::loadFromFile(const std::string &Path) {
  std::optional<std::string> Text = readFileToString(Path);
  if (!Text)
    reportFatalError("cannot read pattern database: " + Path);
  std::string Error;
  PatternDatabase Database = deserialize(*Text, &Error);
  if (!Error.empty())
    reportFatalError("corrupt pattern database " + Path + ": " + Error);
  return Database;
}
