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
#include <functional>
#include <numeric>
#include <optional>
#include <set>
#include <string_view>

using namespace selgen;

Rule::Rule(std::string GoalName, Graph Pattern)
    : GoalName(std::move(GoalName)), Pattern(std::move(Pattern)),
      Fingerprint(this->Pattern.fingerprint()),
      Operations(this->Pattern.numOperations()), Constants(0) {
  for (const Node *N : this->Pattern.liveNodes())
    if (N->opcode() == Opcode::Const)
      ++Constants;
}

namespace {

size_t indexKey(const Rule &R) {
  size_t Hash = std::hash<std::string_view>()(R.GoalName);
  return Hash * 31 + std::hash<std::string_view>()(R.fingerprint());
}

} // namespace

bool PatternDatabase::add(std::string GoalName, Graph Pattern) {
  return insert(Rule(std::move(GoalName), std::move(Pattern)));
}

bool PatternDatabase::insert(Rule &&R) {
  if (Index.size() != Rules.size()) {
    // Stale since the last filter or sort: rebuild it once, here.
    Index.clear();
    Index.reserve(Rules.size() + 1);
    for (uint32_t I = 0; I < Rules.size(); ++I)
      Index.emplace(indexKey(Rules[I]), I);
  }
  size_t Key = indexKey(R);
  auto [Begin, End] = Index.equal_range(Key);
  for (auto It = Begin; It != End; ++It) {
    const Rule &Existing = Rules[It->second];
    if (Existing.GoalName == R.GoalName &&
        Existing.fingerprint() == R.fingerprint())
      return false;
  }
  Index.emplace(Key, static_cast<uint32_t>(Rules.size()));
  Rules.push_back(std::move(R));
  return true;
}

void PatternDatabase::merge(PatternDatabase &&Other) {
  for (Rule &R : Other.Rules)
    insert(std::move(R));
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
  size_t Before = Rules.size();
  std::vector<char> Keep(Rules.size());
  parallelFor(Rules.size(), [&](size_t I) {
    Keep[I] = normalizeGraph(Rules[I].Pattern).fingerprint() ==
              Rules[I].fingerprint();
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
  std::stable_sort(Order.begin(), Order.end(), [&](uint32_t A, uint32_t B) {
    const Rule &RA = Rules[A], &RB = Rules[B];
    if (RA.numOperations() != RB.numOperations())
      return RA.numOperations() > RB.numOperations();
    if (RA.numConstants() != RB.numConstants())
      return RA.numConstants() > RB.numConstants();
    return RA.fingerprint() < RB.fingerprint();
  });
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

  // Parse and fingerprint every record body in parallel.
  std::vector<std::optional<Rule>> Parsed(Records.size());
  std::vector<std::string> ParseErrors(Records.size());
  parallelFor(Records.size(), [&](size_t I) {
    std::optional<Graph> Pattern = parseGraph(Records[I].Body, &ParseErrors[I]);
    if (Pattern)
      Parsed[I].emplace(std::string(Records[I].GoalName), std::move(*Pattern));
  });

  // Insert in file order. Every record precedes the structural error,
  // so the earliest error in the file is the first bad body, if any.
  auto fail = [&](const std::string &Message) {
    if (ErrorMessage)
      *ErrorMessage = Message;
    return PatternDatabase();
  };
  PatternDatabase Database;
  Database.Rules.reserve(Records.size());
  Database.Index.reserve(Records.size());
  for (size_t I = 0; I < Records.size(); ++I) {
    if (!Parsed[I])
      return fail("bad pattern for " + std::string(Records[I].GoalName) +
                  ": " + ParseErrors[I]);
    Database.insert(std::move(*Parsed[I]));
  }
  if (!StructuralError.empty())
    return fail(StructuralError);
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
