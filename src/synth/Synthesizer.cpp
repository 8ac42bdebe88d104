//===- Synthesizer.cpp - Iterative CEGIS driver ------------------------------===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//

#include "synth/Synthesizer.h"

#include "ir/Parser.h"
#include "ir/Printer.h"
#include "support/Multicombination.h"
#include "support/Statistics.h"
#include "support/StringUtils.h"
#include "support/Timer.h"

#include <algorithm>
#include <istream>
#include <map>
#include <set>
#include <sstream>

using namespace selgen;

const char *selgen::incompleteCauseName(IncompleteCause Cause) {
  switch (Cause) {
  case IncompleteCause::None:
    return "none";
  case IncompleteCause::Budget:
    return "budget";
  case IncompleteCause::Timeout:
    return "timeout";
  case IncompleteCause::Deadline:
    return "deadline";
  case IncompleteCause::Rlimit:
    return "rlimit";
  case IncompleteCause::Exception:
    return "exception";
  }
  return "none";
}

IncompleteCause selgen::incompleteCauseFromFailure(SmtFailure Failure) {
  switch (Failure) {
  case SmtFailure::None:
    return IncompleteCause::None;
  case SmtFailure::Timeout:
    return IncompleteCause::Timeout;
  case SmtFailure::Rlimit:
    return IncompleteCause::Rlimit;
  case SmtFailure::Exception:
    return IncompleteCause::Exception;
  case SmtFailure::Deadline:
    return IncompleteCause::Deadline;
  }
  return IncompleteCause::None;
}

SynthesisOptions::SynthesisOptions() : Alphabet(allTemplateOpcodes()) {}

void selgen::mergeSynthesisResult(GoalSynthesisResult &Result,
                                  std::set<std::string> &Fingerprints,
                                  GoalSynthesisResult &&Part,
                                  unsigned MaxPatterns) {
  Result.MultisetsConsidered += Part.MultisetsConsidered;
  Result.MultisetsSkipped += Part.MultisetsSkipped;
  Result.MultisetsRun += Part.MultisetsRun;
  Result.Counterexamples += Part.Counterexamples;
  Result.SynthesisQueries += Part.SynthesisQueries;
  Result.VerificationQueries += Part.VerificationQueries;
  Result.PrescreenKills += Part.PrescreenKills;
  Result.PrescreenInconclusive += Part.PrescreenInconclusive;
  if (!Part.Complete)
    Result.markIncomplete(Part.Cause == IncompleteCause::None
                              ? IncompleteCause::Budget
                              : Part.Cause);
  for (Graph &Pattern : Part.Patterns) {
    if (Result.Patterns.size() >= MaxPatterns)
      break;
    if (Fingerprints.insert(Pattern.fingerprint()).second)
      Result.Patterns.push_back(std::move(Pattern));
  }
}

std::string selgen::encodeSynthesisResult(const GoalSynthesisResult &Result) {
  std::ostringstream Out;
  Out << "goal " << Result.GoalName << "\n";
  Out.precision(6);
  Out << "seconds " << std::fixed << Result.Seconds << "\n";
  Out << "minimal-size " << Result.MinimalSize << "\n";
  Out << "multisets " << Result.MultisetsConsidered << " "
      << Result.MultisetsSkipped << " " << Result.MultisetsRun << "\n";
  Out << "queries " << Result.SynthesisQueries << " "
      << Result.VerificationQueries << " " << Result.Counterexamples << "\n";
  Out << "prescreen " << Result.PrescreenKills << " "
      << Result.PrescreenInconclusive << "\n";
  Out << "patterns " << Result.Patterns.size() << "\n";
  for (const Graph &Pattern : Result.Patterns)
    Out << "pattern\n" << printGraph(Pattern) << "endpattern\n";
  Out << "end\n";
  return Out.str();
}

std::optional<GoalSynthesisResult>
selgen::decodeSynthesisResult(std::istream &Stream) {
  GoalSynthesisResult Result;
  uint64_t DeclaredPatterns = 0;
  bool SawPatternsField = false;
  std::string Line;
  while (std::getline(Stream, Line)) {
    std::string Trimmed = trimString(Line);
    if (Trimmed.empty())
      continue;
    if (Trimmed == "end") {
      if (!SawPatternsField || Result.GoalName.empty() ||
          Result.Patterns.size() != DeclaredPatterns)
        return std::nullopt;
      return Result;
    }
    bool Ok = true;
    if (startsWith(Trimmed, "goal ")) {
      Result.GoalName = trimString(Trimmed.substr(5));
    } else if (startsWith(Trimmed, "seconds ")) {
      Ok = parseNumber(Trimmed.substr(8), Result.Seconds);
    } else if (startsWith(Trimmed, "minimal-size ")) {
      Ok = parseNumber(Trimmed.substr(13), Result.MinimalSize);
    } else if (startsWith(Trimmed, "multisets ")) {
      Ok = parseFields(Trimmed.substr(10), Result.MultisetsConsidered,
                       Result.MultisetsSkipped, Result.MultisetsRun);
    } else if (startsWith(Trimmed, "queries ")) {
      Ok = parseFields(Trimmed.substr(8), Result.SynthesisQueries,
                       Result.VerificationQueries, Result.Counterexamples);
    } else if (startsWith(Trimmed, "prescreen ")) {
      Ok = parseFields(Trimmed.substr(10), Result.PrescreenKills,
                       Result.PrescreenInconclusive);
    } else if (startsWith(Trimmed, "cost ")) {
      // The rule cost stamp older shards carry; costs are derived from
      // the goal's recipe when a library is prepared, never read here.
    } else if (startsWith(Trimmed, "patterns ")) {
      Ok = parseNumber(Trimmed.substr(9), DeclaredPatterns);
      SawPatternsField = true;
    } else if (Trimmed == "pattern") {
      std::string GraphText;
      bool Terminated = false;
      while (!Terminated && std::getline(Stream, Line)) {
        Terminated = trimString(Line) == "endpattern";
        if (!Terminated)
          GraphText += Line + "\n";
      }
      std::optional<Graph> Pattern;
      if (Terminated)
        Pattern = parseGraph(GraphText);
      Ok = Pattern.has_value();
      if (Ok)
        Result.Patterns.push_back(std::move(*Pattern));
    } else {
      Ok = false; // Unknown field: likely corruption.
    }
    if (!Ok)
      return std::nullopt;
  }
  return std::nullopt; // No trailer: truncated.
}

Synthesizer::Synthesizer(SmtContext &Smt, SynthesisOptions Options)
    : Smt(Smt), Options(std::move(Options)) {}

std::vector<Opcode> Synthesizer::requiredMemoryOps(const InstrSpec &Goal) {
  if (!Goal.accessesMemory())
    return {};

  // Locate the memory argument and the memory result.
  int MemoryArg = -1, MemoryResult = -1;
  for (unsigned I = 0; I < Goal.argSorts().size(); ++I)
    if (Goal.argSorts()[I].isMemory())
      MemoryArg = static_cast<int>(I);
  for (unsigned I = 0; I < Goal.resultSorts().size(); ++I)
    if (Goal.resultSorts()[I].isMemory())
      MemoryResult = static_cast<int>(I);
  if (MemoryArg < 0 || MemoryResult < 0)
    return {};

  // Symbolic arguments and the goal's results over them.
  std::vector<z3::expr> Args;
  std::vector<unsigned> MemoryArgIndices;
  for (unsigned I = 0; I < Goal.argSorts().size(); ++I) {
    const Sort &S = Goal.argSorts()[I];
    if (S.isMemory()) {
      MemoryArgIndices.push_back(I);
      Args.push_back(Smt.ctx().bv_val(0, 1)); // Placeholder.
    } else {
      Args.push_back(
          Smt.bvConst("memq_a" + std::to_string(I), S.Width));
    }
  }
  MemoryModel Memory(Smt,
                     Goal.validPointers(Smt, Options.Width, Args));
  for (unsigned I : MemoryArgIndices)
    Args[I] =
        Smt.bvConst("memq_a" + std::to_string(I), Memory.mvalueWidth());

  SemanticsContext Context{Smt, Options.Width, &Memory, {}};
  std::vector<z3::expr> Results = Goal.computeResults(Context, Args, {});

  z3::expr Difference = Results[MemoryResult] ^ Args[MemoryArg];

  // "By checking whether va[m] and vr[m'] differ in memory contents or
  // in an access flag, we can even find out whether g requires a load,
  // store, or both operations." (Section 5.4)
  auto differsUnder = [&](const BitValue &Mask) {
    SmtSolver Solver(Smt);
    SolverPolicy Policy;
    Policy.TimeoutMs = Options.QueryTimeoutMs;
    Policy.RlimitPerQuery = Options.QueryRlimit;
    Policy.RetryScale = Options.QueryRetryScale;
    Solver.applyPolicy(Policy);
    Solver.add((Difference & Smt.literal(Mask)) !=
               Smt.ctx().bv_val(0, Memory.mvalueWidth()));
    return Solver.check() == SmtResult::Sat;
  };

  std::vector<Opcode> Required;
  if (differsUnder(Memory.flagsMask()))
    Required.push_back(Opcode::Load);
  if (differsUnder(Memory.contentsMask()))
    Required.push_back(Opcode::Store);
  return Required;
}

bool Synthesizer::shouldSkipMultiset(const InstrSpec &Goal,
                                     const std::vector<Opcode> &Multiset,
                                     unsigned Width) {
  // Gather the sorts in play. Comparing by Sort works because all
  // template operations use Value(Width), Bool, and Memory only.
  auto sortsOf = [Width](Opcode Op) {
    return std::make_pair(opcodeArgSorts(Op, Width),
                          opcodeResultSorts(Op, Width));
  };

  // Criterion 1: more single-result producers of a sort than there are
  // consumers of that sort means at least one result necessarily
  // dangles, and the pattern would already have been found with a
  // smaller multiset.
  {
    std::map<std::string, unsigned> SingleProducers, Consumers;
    for (Opcode Op : Multiset) {
      auto [ArgSorts, ResultSorts] = sortsOf(Op);
      if (ResultSorts.size() == 1)
        ++SingleProducers[ResultSorts[0].str()];
      for (const Sort &S : ArgSorts)
        ++Consumers[S.str()];
    }
    for (const Sort &S : Goal.resultSorts())
      ++Consumers[S.str()];
    for (const auto &[SortName, Count] : SingleProducers)
      if (Count > Consumers[SortName])
        return true;
  }

  // Criterion 2: every sort some operation consumes needs a source: a
  // pattern argument of that sort, or an operation producing it
  // without consuming it.
  {
    std::set<std::string> Needed, Available;
    for (Opcode Op : Multiset) {
      auto [ArgSorts, ResultSorts] = sortsOf(Op);
      std::set<std::string> OpConsumes;
      for (const Sort &S : ArgSorts) {
        Needed.insert(S.str());
        OpConsumes.insert(S.str());
      }
      for (const Sort &S : ResultSorts)
        if (!OpConsumes.count(S.str()))
          Available.insert(S.str());
    }
    for (const Sort &S : Goal.argSorts())
      Available.insert(S.str());
    for (const std::string &SortName : Needed)
      if (!Available.count(SortName))
        return true;
  }

  // Goal-result variant of criterion 2: every goal result sort must be
  // producible (by an argument or by some operation's result).
  {
    std::set<std::string> Producible;
    for (const Sort &S : Goal.argSorts())
      Producible.insert(S.str());
    for (Opcode Op : Multiset)
      for (const Sort &S : opcodeResultSorts(Op, Width))
        Producible.insert(S.str());
    for (const Sort &S : Goal.resultSorts())
      if (!Producible.count(S.str()))
        return true;
  }

  return false;
}

namespace {

/// One CEGIS run as a result part for mergeSynthesisResult. A run that
/// did not exhaust its multiset is incomplete: a query-level failure
/// names the cause, otherwise (None) the run-level budget, time or
/// iteration cap, is what stopped it.
GoalSynthesisResult cegisResult(CegisOutcome &&Outcome) {
  GoalSynthesisResult Part;
  Part.Patterns = std::move(Outcome.Patterns);
  Part.Complete = Outcome.Exhausted;
  Part.Cause = incompleteCauseFromFailure(Outcome.Failure);
  Part.SynthesisQueries = Outcome.SynthesisQueries;
  Part.VerificationQueries = Outcome.VerificationQueries;
  Part.Counterexamples = Outcome.Counterexamples;
  Part.PrescreenKills = Outcome.PrescreenKills;
  Part.PrescreenInconclusive = Outcome.PrescreenInconclusive;
  return Part;
}

} // namespace

SynthesisPlan Synthesizer::plan(const InstrSpec &Goal) {
  SynthesisPlan Plan;

  // Memory pre-analysis: fixed multiset prefix O.
  if (Options.UseMemoryRefinement)
    Plan.Prefix = requiredMemoryOps(Goal);

  // The enumerated alphabet excludes the fixed prefix operations; for
  // goals without memory access the source criterion would drop
  // Load/Store anyway, the prefix refinement just never enumerates
  // them ("we instead take O as the fixed first members of I'").
  Plan.Alphabet = Options.Alphabet;
  if (Options.UseMemoryRefinement && Goal.accessesMemory()) {
    Plan.Alphabet.erase(std::remove_if(Plan.Alphabet.begin(),
                                       Plan.Alphabet.end(),
                                       [](Opcode Op) {
                                         return opcodeTouchesMemory(Op);
                                       }),
                        Plan.Alphabet.end());
  }

  Plan.MinSize = Plan.Prefix.size();
  Plan.MaxSize =
      std::max(Options.MaxPatternSize, unsigned(Plan.Prefix.size()));
  return Plan;
}

uint64_t Synthesizer::numMultisets(const SynthesisPlan &Plan, unsigned Size) {
  unsigned EnumeratedSize = Size - Plan.MinSize;
  if (EnumeratedSize == 0)
    return 1; // The prefix itself is the only multiset.
  return multisetCount(Plan.Alphabet.size(), EnumeratedSize);
}

GoalSynthesisResult Synthesizer::synthesizeRange(
    const InstrSpec &Goal, const SynthesisPlan &Plan, unsigned Size,
    uint64_t BeginRank, uint64_t EndRank, TestCorpus &Corpus,
    double BudgetSeconds) {
  Timer Clock;
  GoalSynthesisResult Result;
  Result.GoalName = Goal.name();
  std::set<std::string> Fingerprints;

  CegisOptions CegisOpts;
  CegisOpts.QueryTimeoutMs = Options.QueryTimeoutMs;
  CegisOpts.QueryRlimit = Options.QueryRlimit;
  CegisOpts.QueryRetryScale = Options.QueryRetryScale;
  CegisOpts.MaxPatterns = Options.MaxPatternsPerMultiset;
  CegisOpts.RequireTotalPatterns = Options.RequireTotalPatterns;
  CegisOpts.UsePrescreen = Options.UsePrescreen;
  // A positive range budget arms a hard deadline on every solver in
  // the range: an in-flight query is interrupted when it passes, so
  // one stuck query cannot pin this worker far beyond the budget.
  if (BudgetSeconds > 0)
    CegisOpts.Deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(BudgetSeconds));

  // The evaluator and the verification solver (with the goal's
  // symbolic semantics already asserted) are shared by every multiset
  // of this range.
  std::optional<ConcreteGoalEval> Eval;
  if (Options.UsePrescreen)
    Eval.emplace(Smt, Options.Width, Goal);
  PatternVerifier Verifier(Smt, Options.Width, Goal, Options.QueryTimeoutMs,
                           Options.RequireTotalPatterns);
  SolverPolicy VerifierPolicy;
  VerifierPolicy.TimeoutMs = Options.QueryTimeoutMs;
  VerifierPolicy.RlimitPerQuery = Options.QueryRlimit;
  VerifierPolicy.RetryScale = Options.QueryRetryScale;
  Verifier.applyPolicy(VerifierPolicy);
  if (CegisOpts.Deadline)
    Verifier.setDeadline(*CegisOpts.Deadline);

  auto overBudget = [&] {
    return BudgetSeconds > 0 && Clock.elapsedSeconds() > BudgetSeconds;
  };

  auto runMultiset = [&](std::vector<Opcode> Multiset) {
    ++Result.MultisetsConsidered;
    if (Options.UseSkipCriteria &&
        shouldSkipMultiset(Goal, Multiset, Options.Width)) {
      ++Result.MultisetsSkipped;
      Statistics::get().add("synth.multisets_skipped");
      return;
    }
    ++Result.MultisetsRun;
    Statistics::get().add("synth.multisets_run");
    // Bound each CEGIS run by the remaining budget, so one slow
    // multiset cannot blow far past it.
    if (BudgetSeconds > 0)
      CegisOpts.TimeBudgetSeconds =
          std::max(1.0, BudgetSeconds - Clock.elapsedSeconds());
    CegisOutcome Outcome = runCegisAllPatterns(
        Smt, Options.Width, Goal, Multiset, Corpus, CegisOpts,
        Eval ? &*Eval : nullptr, &Verifier);
    mergeSynthesisResult(Result, Fingerprints, cegisResult(std::move(Outcome)),
                         Options.MaxPatternsPerGoal);
  };

  unsigned EnumeratedSize = Size - Plan.MinSize;
  if (EnumeratedSize == 0) {
    if (BeginRank == 0 && EndRank > 0)
      runMultiset(Plan.Prefix);
  } else {
    MulticombinationEnumerator Enumerator(Plan.Alphabet.size(),
                                          EnumeratedSize, BeginRank);
    for (uint64_t Rank = BeginRank; Rank < EndRank && !Enumerator.atEnd();
         ++Rank) {
      if (overBudget()) {
        Result.markIncomplete(IncompleteCause::Budget);
        break;
      }
      std::vector<Opcode> Multiset = Plan.Prefix;
      for (unsigned Index : Enumerator.current())
        Multiset.push_back(Plan.Alphabet[Index]);
      runMultiset(std::move(Multiset));
      if (!Enumerator.next())
        break;
    }
  }

  Result.Seconds = Clock.elapsedSeconds();
  return Result;
}

GoalSynthesisResult Synthesizer::synthesize(const InstrSpec &Goal) {
  Timer Clock;
  GoalSynthesisResult Result;
  Result.GoalName = Goal.name();

  SynthesisPlan Plan = this->plan(Goal);
  TestCorpus Corpus(Options.CorpusCapacity);
  std::set<std::string> Fingerprints;

  auto overBudget = [&] {
    return Options.TimeBudgetSeconds > 0 &&
           Clock.elapsedSeconds() > Options.TimeBudgetSeconds;
  };

  for (unsigned Size = Plan.MinSize; Size <= Plan.MaxSize; ++Size) {
    double Remaining = 0;
    if (Options.TimeBudgetSeconds > 0)
      Remaining =
          std::max(0.001, Options.TimeBudgetSeconds - Clock.elapsedSeconds());
    GoalSynthesisResult Part =
        synthesizeRange(Goal, Plan, Size, 0, numMultisets(Plan, Size),
                        Corpus, Remaining);
    bool FoundThisSize = !Part.Patterns.empty();
    mergeSynthesisResult(Result, Fingerprints, std::move(Part),
                         Options.MaxPatternsPerGoal);
    if (FoundThisSize) {
      Result.MinimalSize = Size;
      if (Options.FindAllMinimal)
        break;
    }
    if (overBudget()) {
      Result.markIncomplete(IncompleteCause::Budget);
      break;
    }
  }

  Result.Seconds = Clock.elapsedSeconds();
  return Result;
}

GoalSynthesisResult Synthesizer::synthesizeClassic(const InstrSpec &Goal,
                                                   unsigned Copies) {
  Timer Clock;
  GoalSynthesisResult Result;
  Result.GoalName = Goal.name() + " (classic)";

  std::vector<Opcode> Multiset;
  for (unsigned C = 0; C < Copies; ++C)
    for (Opcode Op : Options.Alphabet)
      Multiset.push_back(Op);

  // Without the source criterion, memory operations in the template
  // set of a memory-free goal make the encoding unsatisfiable-by-
  // construction, exactly as in the original algorithm.
  std::vector<TestCase> SharedTests;
  std::set<std::string> Fingerprints;
  CegisOptions CegisOpts;
  CegisOpts.QueryTimeoutMs = Options.QueryTimeoutMs;
  CegisOpts.QueryRlimit = Options.QueryRlimit;
  CegisOpts.QueryRetryScale = Options.QueryRetryScale;
  CegisOpts.MaxPatterns = 1; // The baseline searches for any program.
  CegisOpts.RequireAllUsed = false;
  CegisOpts.TimeBudgetSeconds = Options.TimeBudgetSeconds;
  CegisOpts.UsePrescreen = Options.UsePrescreen;

  Result.MultisetsConsidered = Result.MultisetsRun = 1;
  CegisOutcome Outcome = runCegisAllPatterns(
      Smt, Options.Width, Goal, Multiset, SharedTests, CegisOpts);
  mergeSynthesisResult(Result, Fingerprints, cegisResult(std::move(Outcome)),
                       Options.MaxPatternsPerGoal);
  if (!Result.Patterns.empty())
    Result.MinimalSize = Result.Patterns.front().numOperations();
  Result.Seconds = Clock.elapsedSeconds();
  return Result;
}
