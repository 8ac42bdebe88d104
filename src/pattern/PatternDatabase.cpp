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
#include "support/StringUtils.h"

#include <algorithm>
#include <fstream>
#include <functional>
#include <numeric>
#include <set>
#include <string_view>

using namespace selgen;

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

void PatternDatabase::rebuildIndex() {
  Index.clear();
  Index.reserve(Rules.size());
  for (uint32_t I = 0; I < Rules.size(); ++I)
    Index.emplace(indexKey(Rules[I]), I);
}

void PatternDatabase::merge(PatternDatabase &&Other) {
  for (Rule &R : Other.Rules)
    insert(std::move(R));
  Other.Rules.clear();
  Other.Index.clear();
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
  rebuildIndex();
  return Before - Rules.size();
}

size_t PatternDatabase::filterNonNormalized() {
  size_t Before = Rules.size();
  std::vector<Rule> Kept;
  for (Rule &R : Rules)
    if (normalizeGraph(R.Pattern).fingerprint() == R.fingerprint())
      Kept.push_back(std::move(R));
  Rules = std::move(Kept);
  rebuildIndex();
  return Before - Rules.size();
}

void selgen::sortRulesSpecificFirst(std::vector<Rule> &Rules) {
  struct SortKey {
    unsigned Operations;
    unsigned Constants;
  };
  std::vector<SortKey> Keys;
  Keys.reserve(Rules.size());
  for (const Rule &R : Rules) {
    unsigned Constants = 0;
    for (const Node *N : R.Pattern.liveNodes())
      if (N->opcode() == Opcode::Const)
        ++Constants;
    Keys.push_back({R.Pattern.numOperations(), Constants});
  }
  std::vector<uint32_t> Order(Rules.size());
  std::iota(Order.begin(), Order.end(), 0);
  std::stable_sort(Order.begin(), Order.end(), [&](uint32_t A, uint32_t B) {
    if (Keys[A].Operations != Keys[B].Operations)
      return Keys[A].Operations > Keys[B].Operations;
    if (Keys[A].Constants != Keys[B].Constants)
      return Keys[A].Constants > Keys[B].Constants;
    return Rules[A].fingerprint() < Rules[B].fingerprint();
  });
  std::vector<Rule> Sorted;
  Sorted.reserve(Rules.size());
  for (uint32_t I : Order)
    Sorted.push_back(std::move(Rules[I]));
  Rules = std::move(Sorted);
}

void PatternDatabase::sortSpecificFirst() {
  sortRulesSpecificFirst(Rules);
  rebuildIndex();
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
  PatternDatabase Database;
  std::string GoalName;
  bool InRule = false;
  auto fail = [&](const std::string &Message) {
    if (ErrorMessage)
      *ErrorMessage = Message;
    return PatternDatabase();
  };
  // Lines are views into Text, and each pattern body goes to the
  // parser as the view from the line after "rule" up to "endrule".
  size_t BodyBegin = 0;
  std::string_view Rest(Text);
  while (!Rest.empty()) {
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
        return fail("nested rule record");
      GoalName = trimView(Trimmed.substr(5));
      BodyBegin = Text.size() - Rest.size();
      InRule = true;
      continue;
    }
    if (Trimmed == "endrule") {
      if (!InRule)
        return fail("endrule without rule");
      std::string ParseError;
      std::optional<Graph> Pattern = parseGraph(
          Text.substr(BodyBegin, LineBegin - BodyBegin), &ParseError);
      if (!Pattern)
        return fail("bad pattern for " + GoalName + ": " + ParseError);
      Database.add(GoalName, std::move(*Pattern));
      InRule = false;
      continue;
    }
    if (!InRule)
      return fail("unexpected line outside rule record: " +
                  std::string(Trimmed));
  }
  if (InRule)
    return fail("unterminated rule record");
  return Database;
}

void PatternDatabase::saveToFile(const std::string &Path) const {
  std::ofstream Out(Path);
  if (!Out)
    reportFatalError("cannot write pattern database: " + Path);
  Out << serialize();
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
