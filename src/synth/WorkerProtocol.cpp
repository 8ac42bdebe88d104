//===- WorkerProtocol.cpp - Solver worker request encoding --------------------===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//

#include "synth/WorkerProtocol.h"

#include "ir/Opcode.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "smt/SolverPool.h"
#include "support/StringUtils.h"

#include <cctype>
#include <cstdlib>
#include <iomanip>
#include <sstream>

using namespace selgen;

namespace {

constexpr const char *MagicLine = "selgen-worker v1";
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
  if (Colon == 0 || Colon == std::string::npos || Colon + 1 == Field.size())
    return std::nullopt;
  char *End = nullptr;
  unsigned long Width = std::strtoul(Field.c_str(), &End, 10);
  if (End != Field.c_str() + Colon || Width == 0 || Width > 1u << 20)
    return std::nullopt;
  std::string Digits = Field.substr(Colon + 1);
  for (char C : Digits)
    if (!std::isxdigit(static_cast<unsigned char>(C)))
      return std::nullopt; // fromString asserts on malformed input.
  return BitValue::fromString(static_cast<unsigned>(Width), Digits, 16);
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

std::optional<std::vector<Opcode>> decodeOpcodes(const std::string &Text) {
  std::vector<Opcode> Ops;
  std::istringstream Fields(Text);
  std::string Name;
  while (Fields >> Name) {
    std::optional<Opcode> Op = tryOpcodeFromName(Name);
    if (!Op)
      return std::nullopt;
    Ops.push_back(*Op);
  }
  return Ops;
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
  size_t Count = static_cast<size_t>(std::atoll(CountLine.c_str()));
  if (Count > 1u << 20)
    return false;
  std::string Line;
  for (size_t I = 0; I < Count; ++I) {
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

void encodePatterns(std::ostream &Out, const std::vector<Graph> &Patterns) {
  Out << "patterns " << Patterns.size() << "\n";
  for (const Graph &Pattern : Patterns) {
    Out << "pattern\n";
    Out << printGraph(Pattern);
    Out << "endpattern\n";
  }
}

bool decodePatterns(std::istream &Stream, const std::string &CountLine,
                    std::vector<Graph> &Patterns) {
  size_t Count = static_cast<size_t>(std::atoll(CountLine.c_str()));
  if (Count > 1u << 20)
    return false;
  std::string Line;
  for (size_t I = 0; I < Count; ++I) {
    if (!std::getline(Stream, Line) || trimString(Line) != "pattern")
      return false;
    std::string GraphText;
    bool Terminated = false;
    while (std::getline(Stream, Line)) {
      if (trimString(Line) == "endpattern") {
        Terminated = true;
        break;
      }
      GraphText += Line + "\n";
    }
    if (!Terminated)
      return false;
    std::optional<Graph> Pattern = parseGraph(GraphText);
    if (!Pattern)
      return false;
    Patterns.push_back(std::move(*Pattern));
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
    if (startsWith(Trimmed, "goal ")) {
      Request.GoalName = trimString(Trimmed.substr(5));
    } else if (startsWith(Trimmed, "width ")) {
      Request.Options.Width =
          static_cast<unsigned>(std::atoll(Trimmed.substr(6).c_str()));
    } else if (Trimmed == "alphabet" || startsWith(Trimmed, "alphabet ")) {
      std::optional<std::vector<Opcode>> Ops =
          decodeOpcodes(Trimmed.size() > 8 ? Trimmed.substr(9) : "");
      if (!Ops) {
        fail(Error, "bad alphabet");
        return std::nullopt;
      }
      Request.Options.Alphabet = std::move(*Ops);
    } else if (startsWith(Trimmed, "max-pattern-size ")) {
      Request.Options.MaxPatternSize =
          static_cast<unsigned>(std::atoll(Trimmed.substr(17).c_str()));
    } else if (startsWith(Trimmed, "flags ")) {
      std::istringstream Fields(Trimmed.substr(6));
      int Mem = 0, Skip = 0, FindAll = 0, Total = 0, Prescreen = 0;
      if (!(Fields >> Mem >> Skip >> FindAll >> Total >> Prescreen)) {
        fail(Error, "bad flags");
        return std::nullopt;
      }
      Request.Options.UseMemoryRefinement = Mem != 0;
      Request.Options.UseSkipCriteria = Skip != 0;
      Request.Options.FindAllMinimal = FindAll != 0;
      Request.Options.RequireTotalPatterns = Total != 0;
      Request.Options.UsePrescreen = Prescreen != 0;
    } else if (startsWith(Trimmed, "caps ")) {
      std::istringstream Fields(Trimmed.substr(5));
      if (!(Fields >> Request.Options.MaxPatternsPerGoal >>
            Request.Options.MaxPatternsPerMultiset >>
            Request.Options.CorpusCapacity)) {
        fail(Error, "bad caps");
        return std::nullopt;
      }
    } else if (startsWith(Trimmed, "timeout-ms ")) {
      Request.Options.QueryTimeoutMs =
          static_cast<unsigned>(std::atoll(Trimmed.substr(11).c_str()));
    } else if (startsWith(Trimmed, "rlimit ")) {
      Request.Options.QueryRlimit =
          static_cast<uint64_t>(std::atoll(Trimmed.substr(7).c_str()));
    } else if (Trimmed == "retry-scale" ||
               startsWith(Trimmed, "retry-scale ")) {
      std::istringstream Fields(
          Trimmed.size() > 11 ? Trimmed.substr(12) : "");
      std::vector<unsigned> Scale;
      unsigned Value = 0;
      while (Fields >> Value)
        Scale.push_back(Value);
      Request.Options.QueryRetryScale = std::move(Scale);
    } else if (startsWith(Trimmed, "goal-budget ")) {
      Request.Options.TimeBudgetSeconds =
          std::strtod(Trimmed.substr(12).c_str(), nullptr);
    } else if (Trimmed == "plan-prefix" ||
               startsWith(Trimmed, "plan-prefix ")) {
      std::optional<std::vector<Opcode>> Ops =
          decodeOpcodes(Trimmed.size() > 11 ? Trimmed.substr(12) : "");
      if (!Ops) {
        fail(Error, "bad plan-prefix");
        return std::nullopt;
      }
      Request.Plan.Prefix = std::move(*Ops);
    } else if (Trimmed == "plan-alphabet" ||
               startsWith(Trimmed, "plan-alphabet ")) {
      std::optional<std::vector<Opcode>> Ops =
          decodeOpcodes(Trimmed.size() > 13 ? Trimmed.substr(14) : "");
      if (!Ops) {
        fail(Error, "bad plan-alphabet");
        return std::nullopt;
      }
      Request.Plan.Alphabet = std::move(*Ops);
    } else if (startsWith(Trimmed, "plan-sizes ")) {
      std::istringstream Fields(Trimmed.substr(11));
      if (!(Fields >> Request.Plan.MinSize >> Request.Plan.MaxSize)) {
        fail(Error, "bad plan-sizes");
        return std::nullopt;
      }
    } else if (startsWith(Trimmed, "range ")) {
      std::istringstream Fields(Trimmed.substr(6));
      if (!(Fields >> Request.Size >> Request.BeginRank >> Request.EndRank)) {
        fail(Error, "bad range");
        return std::nullopt;
      }
    } else if (startsWith(Trimmed, "chunk-budget ")) {
      Request.BudgetSeconds = std::strtod(Trimmed.substr(13).c_str(), nullptr);
    } else if (startsWith(Trimmed, "tests ")) {
      if (!decodeCorpus(Stream, Trimmed.substr(6), Request.CorpusSeed)) {
        fail(Error, "bad corpus");
        return std::nullopt;
      }
    } else {
      fail(Error, "unknown field: " + Trimmed);
      return std::nullopt;
    }
  }
  if (!SawEnd || Request.GoalName.empty()) {
    fail(Error, "truncated request");
    return std::nullopt;
  }
  return Request;
}

std::string selgen::encodeRangeReply(const RangeReply &Reply) {
  std::ostringstream Out;
  const RangeOutcome &R = Reply.Outcome;
  Out << MagicLine << "\n";
  Out << "kind range-reply\n";
  Out << "found " << R.FoundAny << "\n";
  Out << "complete " << R.Complete << "\n";
  Out << "cause " << incompleteCauseName(R.Cause) << "\n";
  Out << "counters " << R.MultisetsConsidered << " " << R.MultisetsSkipped
      << " " << R.MultisetsRun << " " << R.Counterexamples << " "
      << R.SynthesisQueries << " " << R.VerificationQueries << " "
      << R.PrescreenKills << " " << R.PrescreenInconclusive << "\n";
  Out << "seconds " << encodeDouble(R.Seconds) << "\n";
  encodePatterns(Out, R.Patterns);
  encodeCorpus(Out, Reply.CorpusEntries);
  Out << EndLine << "\n";
  return Out.str();
}

std::optional<RangeReply> selgen::decodeRangeReply(const std::string &Payload,
                                                   std::string *Error) {
  std::istringstream Stream(Payload);
  if (!expectHeader(Stream, "range-reply")) {
    fail(Error, "bad header");
    return std::nullopt;
  }

  RangeReply Reply;
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
    if (startsWith(Trimmed, "found ")) {
      Reply.Outcome.FoundAny = std::atoi(Trimmed.substr(6).c_str()) != 0;
    } else if (startsWith(Trimmed, "complete ")) {
      Reply.Outcome.Complete = std::atoi(Trimmed.substr(9).c_str()) != 0;
    } else if (startsWith(Trimmed, "cause ")) {
      std::optional<IncompleteCause> Cause =
          causeFromName(trimString(Trimmed.substr(6)));
      if (!Cause) {
        fail(Error, "bad cause");
        return std::nullopt;
      }
      Reply.Outcome.Cause = *Cause;
    } else if (startsWith(Trimmed, "counters ")) {
      std::istringstream Fields(Trimmed.substr(9));
      RangeOutcome &R = Reply.Outcome;
      if (!(Fields >> R.MultisetsConsidered >> R.MultisetsSkipped >>
            R.MultisetsRun >> R.Counterexamples >> R.SynthesisQueries >>
            R.VerificationQueries >> R.PrescreenKills >>
            R.PrescreenInconclusive)) {
        fail(Error, "bad counters");
        return std::nullopt;
      }
    } else if (startsWith(Trimmed, "seconds ")) {
      Reply.Outcome.Seconds = std::strtod(Trimmed.substr(8).c_str(), nullptr);
    } else if (startsWith(Trimmed, "patterns ")) {
      if (!decodePatterns(Stream, Trimmed.substr(9), Reply.Outcome.Patterns)) {
        fail(Error, "bad patterns");
        return std::nullopt;
      }
    } else if (startsWith(Trimmed, "tests ")) {
      if (!decodeCorpus(Stream, Trimmed.substr(6), Reply.CorpusEntries)) {
        fail(Error, "bad corpus");
        return std::nullopt;
      }
    } else {
      fail(Error, "unknown field: " + Trimmed);
      return std::nullopt;
    }
  }
  if (!SawEnd) {
    fail(Error, "truncated reply");
    return std::nullopt;
  }
  return Reply;
}

RangeOutcome selgen::remoteSynthesizeRange(SolverPool &Pool,
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

  RangeOutcome Outcome;
  if (!Reply.Ok) {
    Outcome.Complete = false;
    Outcome.Cause = incompleteCauseFromFailure(Reply.Failure);
    return Outcome;
  }
  std::optional<RangeReply> Decoded = decodeRangeReply(Reply.Payload);
  if (!Decoded) {
    // The frame passed its CRC but the payload does not parse: a
    // worker-side bug or version skew. Same containment as a crash.
    Outcome.Complete = false;
    Outcome.Cause = incompleteCauseFromFailure(SmtFailure::Exception);
    return Outcome;
  }
  for (TestCorpus::Entry &E : Decoded->CorpusEntries)
    Corpus.insert(std::move(E.Test), std::move(E.GoalOutcome));
  return std::move(Decoded->Outcome);
}
