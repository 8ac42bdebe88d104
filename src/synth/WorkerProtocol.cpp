//===- WorkerProtocol.cpp - Solver worker request encoding --------------------===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//

#include "synth/WorkerProtocol.h"

#include "ir/Opcode.h"
#include "smt/SolverPool.h"
#include "support/CommandLine.h"
#include "support/StringUtils.h"

#include <cctype>
#include <iomanip>
#include <sstream>

using namespace selgen;

namespace {

constexpr const char *MagicLine = "selgen-worker v2";
constexpr const char *EndLine = "end";

std::string fail(std::string *Error, const std::string &Message) {
  if (Error)
    *Error = Message;
  return Message;
}

/// Doubles round-trip exactly at 17 significant digits.
std::string encodeDouble(double Value) {
  std::ostringstream Out;
  Out << std::setprecision(17) << Value;
  return Out.str();
}

/// "width:hexdigits", e.g. "8:ff". toHexString() renders "0x..."; the
/// prefix is stripped so the field splits on ':' alone.
std::string encodeBits(const BitValue &Value) {
  std::string Hex = Value.toHexString();
  if (startsWith(Hex, "0x"))
    Hex = Hex.substr(2);
  return std::to_string(Value.width()) + ":" + Hex;
}

std::optional<BitValue> decodeBits(const std::string &Field) {
  size_t Colon = Field.find(':');
  unsigned Width = 0;
  if (Colon == std::string::npos || Colon + 1 == Field.size() ||
      !parseNumber(Field.substr(0, Colon), Width) || Width == 0 ||
      Width > 1u << 20)
    return std::nullopt;
  std::string Digits = Field.substr(Colon + 1);
  for (char C : Digits)
    if (!std::isxdigit(static_cast<unsigned char>(C)))
      return std::nullopt; // fromString asserts on malformed input.
  return BitValue::fromString(Width, Digits, 16);
}

std::string encodeOpcodes(const std::vector<Opcode> &Ops) {
  std::string Out;
  for (Opcode Op : Ops) {
    if (!Out.empty())
      Out += ' ';
    Out += opcodeName(Op);
  }
  return Out;
}

bool decodeOpcodes(const std::string &Text, std::vector<Opcode> &Ops) {
  Ops.clear();
  std::istringstream Fields(Text);
  std::string Name;
  while (Fields >> Name) {
    std::optional<Opcode> Op = tryOpcodeFromName(Name);
    if (!Op)
      return false;
    Ops.push_back(*Op);
  }
  return true;
}

std::optional<IncompleteCause> causeFromName(const std::string &Name) {
  static const IncompleteCause All[] = {
      IncompleteCause::None,     IncompleteCause::Budget,
      IncompleteCause::Timeout,  IncompleteCause::Deadline,
      IncompleteCause::Rlimit,   IncompleteCause::Exception};
  for (IncompleteCause Cause : All)
    if (Name == incompleteCauseName(Cause))
      return Cause;
  return std::nullopt;
}

void encodeCorpus(std::ostream &Out,
                  const std::vector<TestCorpus::Entry> &Entries) {
  Out << "tests " << Entries.size() << "\n";
  for (const TestCorpus::Entry &E : Entries) {
    Out << "test";
    for (const BitValue &V : E.Test)
      Out << " " << encodeBits(V);
    Out << "\n";
    if (!E.GoalOutcome) {
      Out << "goal-outcome unknown\n";
    } else if (!E.GoalOutcome->Defined) {
      Out << "goal-outcome undefined\n";
    } else {
      Out << "goal-outcome defined";
      for (const BitValue &V : E.GoalOutcome->Results)
        Out << " " << encodeBits(V);
      Out << "\n";
    }
  }
}

/// Splits a field line's remainder into BitValues.
std::optional<std::vector<BitValue>> decodeBitsList(const std::string &Text) {
  std::vector<BitValue> Values;
  std::istringstream Fields(Text);
  std::string Field;
  while (Fields >> Field) {
    std::optional<BitValue> V = decodeBits(Field);
    if (!V)
      return std::nullopt;
    Values.push_back(std::move(*V));
  }
  return Values;
}

bool decodeCorpus(std::istream &Stream, const std::string &CountLine,
                  std::vector<TestCorpus::Entry> &Entries) {
  uint64_t Count = 0;
  if (!parseNumber(CountLine, Count) || Count > 1u << 20)
    return false;
  std::string Line;
  for (uint64_t I = 0; I < Count; ++I) {
    if (!std::getline(Stream, Line))
      return false;
    std::string Trimmed = trimString(Line);
    if (Trimmed != "test" && !startsWith(Trimmed, "test "))
      return false;
    std::optional<std::vector<BitValue>> Test =
        decodeBitsList(Trimmed.size() > 4 ? Trimmed.substr(5) : "");
    if (!Test)
      return false;
    if (!std::getline(Stream, Line))
      return false;
    Trimmed = trimString(Line);
    TestCorpus::Entry Entry;
    Entry.Test = std::move(*Test);
    if (Trimmed == "goal-outcome unknown") {
      Entry.GoalOutcome = std::nullopt;
    } else if (Trimmed == "goal-outcome undefined") {
      ConcreteGoalOutcome Outcome;
      Outcome.Defined = false;
      Entry.GoalOutcome = std::move(Outcome);
    } else if (Trimmed == "goal-outcome defined" ||
               startsWith(Trimmed, "goal-outcome defined ")) {
      std::optional<std::vector<BitValue>> Results = decodeBitsList(
          Trimmed.size() > 20 ? Trimmed.substr(21) : "");
      if (!Results)
        return false;
      ConcreteGoalOutcome Outcome;
      Outcome.Defined = true;
      Outcome.Results = std::move(*Results);
      Entry.GoalOutcome = std::move(Outcome);
    } else {
      return false;
    }
    Entries.push_back(std::move(Entry));
  }
  return true;
}

/// Consumes magic + `kind <Expected>`; false on mismatch.
bool expectHeader(std::istream &Stream, const std::string &Expected) {
  std::string Line;
  if (!std::getline(Stream, Line) || trimString(Line) != MagicLine)
    return false;
  if (!std::getline(Stream, Line) || trimString(Line) != "kind " + Expected)
    return false;
  return true;
}

} // namespace

std::string selgen::encodeRangeRequest(const RangeRequest &Request) {
  std::ostringstream Out;
  Out << MagicLine << "\n";
  Out << "kind range\n";
  Out << "goal " << Request.GoalName << "\n";
  const SynthesisOptions &O = Request.Options;
  Out << "width " << O.Width << "\n";
  Out << "alphabet " << encodeOpcodes(O.Alphabet) << "\n";
  Out << "max-pattern-size " << O.MaxPatternSize << "\n";
  Out << "flags " << O.UseMemoryRefinement << " " << O.UseSkipCriteria << " "
      << O.FindAllMinimal << " " << O.RequireTotalPatterns << " "
      << O.UsePrescreen << "\n";
  Out << "caps " << O.MaxPatternsPerGoal << " " << O.MaxPatternsPerMultiset
      << " " << O.CorpusCapacity << "\n";
  Out << "timeout-ms " << O.QueryTimeoutMs << "\n";
  Out << "rlimit " << O.QueryRlimit << "\n";
  Out << "retry-scale";
  for (unsigned Scale : O.QueryRetryScale)
    Out << " " << Scale;
  Out << "\n";
  Out << "goal-budget " << encodeDouble(O.TimeBudgetSeconds) << "\n";
  Out << "plan-prefix " << encodeOpcodes(Request.Plan.Prefix) << "\n";
  Out << "plan-alphabet " << encodeOpcodes(Request.Plan.Alphabet) << "\n";
  Out << "plan-sizes " << Request.Plan.MinSize << " " << Request.Plan.MaxSize
      << "\n";
  Out << "range " << Request.Size << " " << Request.BeginRank << " "
      << Request.EndRank << "\n";
  Out << "chunk-budget " << encodeDouble(Request.BudgetSeconds) << "\n";
  encodeCorpus(Out, Request.CorpusSeed);
  Out << EndLine << "\n";
  return Out.str();
}

std::optional<RangeRequest>
selgen::decodeRangeRequest(const std::string &Payload, std::string *Error) {
  std::istringstream Stream(Payload);
  if (!expectHeader(Stream, "range")) {
    fail(Error, "bad header");
    return std::nullopt;
  }

  RangeRequest Request;
  SynthesisOptions &O = Request.Options;
  SynthesisPlan &Plan = Request.Plan;
  std::string Line;
  bool SawEnd = false;
  while (std::getline(Stream, Line)) {
    std::string Trimmed = trimString(Line);
    if (Trimmed.empty())
      continue;
    if (Trimmed == EndLine) {
      SawEnd = true;
      break;
    }
    size_t Space = Trimmed.find(' ');
    std::string Key = Trimmed.substr(0, Space);
    std::string Value =
        Space == std::string::npos ? "" : Trimmed.substr(Space + 1);
    bool Ok = true;
    if (Key == "goal") {
      Request.GoalName = Value;
    } else if (Key == "width") {
      // The same rule selgen-synth applies to --width: a worker must not
      // synthesize at a width no run can ask for.
      Ok = parseNumber(Value, O.Width) &&
           followsNumberRule(O.Width, NumberRule::Width);
    } else if (Key == "alphabet") {
      Ok = decodeOpcodes(Value, O.Alphabet);
    } else if (Key == "max-pattern-size") {
      Ok = parseNumber(Value, O.MaxPatternSize);
    } else if (Key == "flags") {
      unsigned Mem = 0, Skip = 0, FindAll = 0, Total = 0, Prescreen = 0;
      Ok = parseFields(Value, Mem, Skip, FindAll, Total, Prescreen);
      O.UseMemoryRefinement = Mem != 0;
      O.UseSkipCriteria = Skip != 0;
      O.FindAllMinimal = FindAll != 0;
      O.RequireTotalPatterns = Total != 0;
      O.UsePrescreen = Prescreen != 0;
    } else if (Key == "caps") {
      Ok = parseFields(Value, O.MaxPatternsPerGoal, O.MaxPatternsPerMultiset,
                       O.CorpusCapacity);
    } else if (Key == "timeout-ms") {
      Ok = parseNumber(Value, O.QueryTimeoutMs);
    } else if (Key == "rlimit") {
      Ok = parseNumber(Value, O.QueryRlimit);
    } else if (Key == "retry-scale") {
      O.QueryRetryScale.clear();
      if (!Value.empty())
        for (const std::string &Field : splitString(Value, ' '))
          Ok = Ok && parseNumber(Field, O.QueryRetryScale.emplace_back());
    } else if (Key == "goal-budget") {
      Ok = parseNumber(Value, O.TimeBudgetSeconds);
    } else if (Key == "plan-prefix") {
      Ok = decodeOpcodes(Value, Plan.Prefix);
    } else if (Key == "plan-alphabet") {
      Ok = decodeOpcodes(Value, Plan.Alphabet);
    } else if (Key == "plan-sizes") {
      Ok = parseFields(Value, Plan.MinSize, Plan.MaxSize);
    } else if (Key == "range") {
      Ok = parseFields(Value, Request.Size, Request.BeginRank,
                       Request.EndRank);
    } else if (Key == "chunk-budget") {
      Ok = parseNumber(Value, Request.BudgetSeconds);
    } else if (Key == "tests") {
      Ok = decodeCorpus(Stream, Value, Request.CorpusSeed);
    } else {
      fail(Error, "unknown field: " + Trimmed);
      return std::nullopt;
    }
    if (!Ok) {
      fail(Error, "bad " + Key);
      return std::nullopt;
    }
  }
  if (!SawEnd || Request.GoalName.empty()) {
    fail(Error, "truncated request");
    return std::nullopt;
  }
  // The enumeration indexes sizes relative to the prefix; a range
  // outside the plan would underflow it.
  if (Plan.MinSize != Plan.Prefix.size() || Request.Size < Plan.MinSize ||
      Request.Size > Plan.MaxSize || Request.BeginRank > Request.EndRank) {
    fail(Error, "range outside the plan");
    return std::nullopt;
  }
  return Request;
}

std::string selgen::encodeRangeReply(const RangeReply &Reply) {
  std::ostringstream Out;
  Out << MagicLine << "\n";
  Out << "kind range-reply\n";
  Out << "complete " << Reply.Outcome.Complete << "\n";
  Out << "cause " << incompleteCauseName(Reply.Outcome.Cause) << "\n";
  encodeCorpus(Out, Reply.CorpusEntries);
  Out << encodeSynthesisResult(Reply.Outcome);
  return Out.str();
}

std::optional<RangeReply> selgen::decodeRangeReply(const std::string &Payload,
                                                   std::string *Error) {
  std::istringstream Stream(Payload);
  if (!expectHeader(Stream, "range-reply")) {
    fail(Error, "bad header");
    return std::nullopt;
  }
  // Fixed order: complete, cause, the corpus, then the result body.
  std::string Complete, Cause, Tests;
  std::optional<IncompleteCause> DecodedCause;
  RangeReply Reply;
  if (!std::getline(Stream, Complete) || !std::getline(Stream, Cause) ||
      !std::getline(Stream, Tests) ||
      (Complete != "complete 0" && Complete != "complete 1") ||
      !startsWith(Cause, "cause ") ||
      !(DecodedCause = causeFromName(Cause.substr(6))) ||
      !startsWith(Tests, "tests ") ||
      !decodeCorpus(Stream, Tests.substr(6), Reply.CorpusEntries)) {
    fail(Error, "bad reply header");
    return std::nullopt;
  }
  std::optional<GoalSynthesisResult> Result = decodeSynthesisResult(Stream);
  if (!Result) {
    fail(Error, "bad result body");
    return std::nullopt;
  }
  Reply.Outcome = std::move(*Result);
  Reply.Outcome.Complete = Complete == "complete 1";
  Reply.Outcome.Cause = *DecodedCause;
  return Reply;
}

GoalSynthesisResult selgen::remoteSynthesizeRange(SolverPool &Pool,
                                                  RangeRequest Request,
                                                  TestCorpus &Corpus,
                                                  double *StalledSeconds) {
  // Snapshot the shared corpus into the request. The corpus only
  // drives concrete pre-screening — it affects how fast candidates
  // die, never which patterns survive — so shipping a point-in-time
  // snapshot keeps the result bit-exact while other chunks of the
  // goal keep inserting.
  for (const TestCorpus::EntryPtr &E : Corpus.snapshot())
    Request.CorpusSeed.push_back(*E);

  PoolReply Reply =
      Pool.run(encodeRangeRequest(Request), Request.BudgetSeconds);
  if (StalledSeconds)
    *StalledSeconds = Reply.StalledSeconds;

  GoalSynthesisResult Failed;
  if (!Reply.Ok) {
    Failed.markIncomplete(incompleteCauseFromFailure(Reply.Failure));
    return Failed;
  }
  std::optional<RangeReply> Decoded = decodeRangeReply(Reply.Payload);
  if (!Decoded) {
    // The frame passed its CRC but the payload does not parse: a
    // worker-side bug or version skew. Same containment as a crash.
    Failed.markIncomplete(incompleteCauseFromFailure(SmtFailure::Exception));
    return Failed;
  }
  for (TestCorpus::Entry &E : Decoded->CorpusEntries)
    Corpus.insert(std::move(E.Test), std::move(E.GoalOutcome));
  return std::move(Decoded->Outcome);
}
