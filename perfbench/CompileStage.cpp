//===- CompileStage.cpp - Set-up and closed-loop compile stage ------------===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//

#include "Stages.h"

#include "analysis/Dataflow.h"
#include "isel/Matcher.h"
#include "support/Error.h"
#include "x86/Emulator.h"
#include "x86/MachinePasses.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

using namespace selgen;
using namespace perfbench;

double perfbench::quantile(std::vector<double> Values, double P) {
  if (Values.empty())
    return 0;
  size_t Rank = static_cast<size_t>(std::ceil(P * Values.size()));
  Rank = std::clamp<size_t>(Rank, 1, Values.size()) - 1;
  std::nth_element(Values.begin(), Values.begin() + Rank, Values.end());
  return Values[Rank];
}

namespace {

double millisSince(Clock::time_point Start) {
  return microsBetween(Start, Clock::now()) / 1e3;
}

} // namespace

SelectionSetup perfbench::setUpSelection(const std::string &LibraryPath,
                                         const std::string &ImagePath,
                                         MetricMap *Layers) {
  SelectionSetup Setup;
  MetricMap Local;

  Clock::time_point Start = Clock::now();
  PatternDatabase Database;
  {
    ScopedSpan Span("pattern.load");
    Database = PatternDatabase::loadFromFile(LibraryPath);
    Database.filterNonNormalized();
    Database.sortSpecificFirst();
  }
  Local["pattern.load_ms"] = millisSince(Start);

  Start = Clock::now();
  std::optional<PreparedLibrary> Prepared;
  {
    ScopedSpan Span("isel.prepare");
    Setup.Goals = GoalLibrary::build(Width, GoalLibrary::allGroups());
    Prepared.emplace(Database, Setup.Goals);
  }
  Local["isel.prepare_ms"] = millisSince(Start);

  Start = Clock::now();
  {
    ScopedSpan Span("matchergen.compile");
    MatcherAutomaton Automaton = buildMatcherAutomaton(*Prepared);
    if (!Automaton.writeBinaryFile(ImagePath))
      reportFatalError("cannot write automaton image " + ImagePath);
  }
  Local["matchergen.compile_ms"] = millisSince(Start);

  Start = Clock::now();
  {
    ScopedSpan Span("matchergen.map");
    std::string Error;
    Setup.Image = MatcherAutomaton::mapBinary(ImagePath, &Error);
    if (!Setup.Image)
      reportFatalError("cannot map " + ImagePath + ": " + Error);
    std::string Stale = automatonStalenessError(Setup.Image->view(), *Prepared);
    if (!Stale.empty())
      reportFatalError(Stale);
  }
  Local["matchergen.map_us"] = millisSince(Start) * 1e3;
  Local["matchergen.image_bytes"] =
      static_cast<double>(Setup.Image->sizeBytes());

  Setup.Selector = std::make_unique<MappedAutomatonSelector>(
      std::move(*Prepared), Setup.Image->view());
  if (Layers)
    Layers->insert(Local.begin(), Local.end());
  return Setup;
}

namespace {

/// Runs \p MF on every input and compares against the IR interpreter.
/// Returns false on any disagreement; adds the emulator's cycles.
bool agreesWithInterpreter(const MachineFunction &MF, const Function &F,
                           const std::vector<FunctionInput> &Inputs,
                           uint64_t &Cycles) {
  bool Ok = true;
  for (const FunctionInput &In : Inputs) {
    FunctionResult Reference =
        runFunction(F, In.Args, In.Memory, /*MaxSteps=*/1u << 24);
    if (Reference.Undefined || Reference.StepLimitHit)
      return false;
    std::map<MReg, BitValue> Regs;
    const std::vector<MReg> &ArgRegs = MF.entry()->ArgRegs;
    for (size_t I = 0; I < ArgRegs.size() && I < In.Args.size(); ++I)
      Regs[ArgRegs[I]] = In.Args[I];
    MachineRunResult Run =
        runMachineFunction(MF, Regs, In.Memory, /*MaxInstructions=*/1u << 24);
    Cycles += Run.Cycles;
    if (Run.StepLimitHit ||
        Run.ReturnValues != Reference.ReturnValues)
      Ok = false;
    if (Reference.FinalMemory)
      for (const auto &[Address, Value] : Reference.FinalMemory->bytes())
        if (Run.Memory.peekByte(Address) != Value)
          Ok = false;
  }
  return Ok;
}

/// Per-layer probe totals over the traced lap(s).
struct ProbeTotals {
  double SelectUs = 0, NumOperationsUs = 0, FactsUs = 0, DiscoverUs = 0,
         MatchUs = 0, DceUs = 0;
  uint64_t Functions = 0, StatesVisited = 0, Candidates = 0,
           MatchAttempts = 0, MatchHits = 0;
};

bool isBodyCandidatePosition(const Node *S) {
  if (S->opcode() == Opcode::Arg || S->opcode() == Opcode::Const)
    return false;
  return !(S->numResults() == 1 && S->resultSort(0).isBool());
}

/// Re-runs, outside the select() call, the work the selection engine
/// does per function, each as one isolated span: the operation count,
/// dataflow facts, candidate discovery on the mapped image, full
/// matching of every candidate, and dead-instruction removal.
void probeLayers(MappedAutomatonSelector &Selector, const Function &F,
                 uint64_t Parent, ProbeTotals &T) {
  const PreparedLibrary &Library = Selector.library();
  const BinaryAutomatonView &View = Selector.view();
  {
    ScopedSpan Span("ir.num_operations", 0, Parent);
    volatile unsigned Ops = F.numOperations();
    (void)Ops;
    T.NumOperationsUs += Span.finish();
  }
  {
    ScopedSpan Span("analysis.facts", 0, Parent);
    for (const auto &Block : F.blocks()) {
      GraphFacts Facts(Block->body());
      for (Node *N :
           Block->body().liveNodesFrom(Block->terminatorOperands()))
        for (unsigned R = 0; R < N->numResults(); ++R) {
          if (N->resultSort(R).isValue())
            Facts.fact(NodeRef(N, R));
          else if (N->resultSort(R).isBool())
            Facts.boolFact(NodeRef(N, R));
        }
    }
    T.FactsUs += Span.finish();
  }

  // Candidate sets per subject position: body nodes, then the branch
  // condition (marked by a null node).
  struct Position {
    const Node *Subject = nullptr;
    NodeRef Condition;
    std::vector<uint32_t> Rules;
  };
  std::vector<Position> Positions;
  {
    ScopedSpan Span("matchergen.discover", 0, Parent);
    for (const auto &Block : F.blocks()) {
      for (const Node *S :
           Block->body().liveNodesFrom(Block->terminatorOperands())) {
        if (!isBodyCandidatePosition(S))
          continue;
        Position P;
        P.Subject = S;
        View.matchBody(S, P.Rules, &T.StatesVisited);
        T.Candidates += P.Rules.size();
        Positions.push_back(std::move(P));
      }
      const Terminator &Term = Block->terminator();
      if (Term.TermKind == Terminator::Kind::Branch) {
        Position P;
        P.Condition = Term.Condition;
        View.matchJump(Term.Condition, P.Rules, &T.StatesVisited);
        T.Candidates += P.Rules.size();
        Positions.push_back(std::move(P));
      }
    }
    T.DiscoverUs += Span.finish();
  }
  {
    ScopedSpan Span("isel.match", 0, Parent);
    for (const Position &P : Positions)
      for (uint32_t Index : P.Rules) {
        const PreparedRule &R = Library.rules()[Index];
        const std::vector<ArgRole> &Roles = R.Goal->Spec->argRoles();
        bool Hit;
        if (P.Subject) {
          Hit = matchPattern(R.TheRule->Pattern, Roles, R.Root, P.Subject)
                    .has_value();
        } else {
          if (!R.IsJumpRule || !R.TakenIsCondZero)
            continue;
          Hit = matchPatternValue(R.TheRule->Pattern, Roles,
                                  R.Root->operand(0), P.Condition)
                    .has_value();
        }
        ++T.MatchAttempts;
        T.MatchHits += Hit;
      }
    T.MatchUs += Span.finish();
  }
  SelectionResult Again = Selector.select(F);
  {
    ScopedSpan Span("x86.dce_rescan", 0, Parent);
    removeDeadInstructions(*Again.MF);
    T.DceUs += Span.finish();
  }
}

} // namespace

CompileStage::CompileStage(MappedAutomatonSelector &Selector,
                           const std::vector<Function> &Functions)
    : Selector(Selector), Functions(Functions), FirstLap(Functions.size()) {
  // Warm-up lap: lazy allocations and caches settle before timing.
  for (const Function &F : Functions)
    Selector.select(F);
}

/// Length of one timed rate slice. A round's share of the run is cut
/// into slices this short so that a run holds about a hundred of them
/// and the quiet quantile of the rate is read off a fair sample. The
/// latency quantiles need more calls than one such slice holds, so they
/// are taken over the whole round.
constexpr double SliceSeconds = 0.1;

void CompileStage::measure(double Seconds) {
  size_t Slices = std::max<size_t>(1, std::lround(Seconds / SliceSeconds));
  size_t First = SliceRates.size();
  std::vector<double> LatencyUs;
  for (size_t I = 0; I < Slices; ++I)
    measureSlice(Seconds / Slices, LatencyUs);
  RoundP50.push_back(quantile(LatencyUs, 0.50));
  RoundP99.push_back(quantile(LatencyUs, 0.99));
  std::vector<double> Rates(SliceRates.begin() + First, SliceRates.end());
  std::printf("compile round: %2zu slices %6.0f / %6.0f / %6.0f fn/s (min / "
              "median / max), p50 %.1f us, p99 %.1f us\n",
              Slices, quantile(Rates, 0), quantile(Rates, 0.5),
              quantile(Rates, 1), RoundP50.back(), RoundP99.back());
}

void CompileStage::measureSlice(double Seconds,
                                std::vector<double> &LatencyUs) {
  size_t SliceDone = 0;
  Clock::time_point Start = Clock::now();
  double Elapsed = 0;
  while (Elapsed < Seconds) {
    size_t Index = Done % Functions.size();
    Clock::time_point T0 = Clock::now();
    SelectionResult R = Selector.select(Functions[Index]);
    Clock::time_point T1 = Clock::now();
    LatencyUs.push_back(microsBetween(T0, T1));
    if (Done < Functions.size()) {
      Covered += R.CoveredOperations;
      Total += R.TotalOperations;
      FirstLap[Index] = std::move(R.MF);
    }
    ++Done;
    ++SliceDone;
    Elapsed = microsBetween(Start, T1) / 1e6;
  }
  SliceRates.push_back(SliceDone / Elapsed);
}

void CompileStage::finish(const std::vector<FunctionInput> &Inputs,
                          Tally &Checks, MetricMap &EndToEnd) {
  // Output check, outside the timed region. A function the slices never
  // reached is selected here.
  uint64_t Cycles = 0, Instrs = 0;
  for (size_t I = 0; I < Functions.size(); ++I) {
    if (!FirstLap[I]) {
      SelectionResult R = Selector.select(Functions[I]);
      Covered += R.CoveredOperations;
      Total += R.TotalOperations;
      FirstLap[I] = std::move(R.MF);
    }
    ++Checks.Attempted;
    Instrs += FirstLap[I]->numInstructions();
    if (!agreesWithInterpreter(*FirstLap[I], Functions[I], Inputs, Cycles))
      Checks.fail("compile: " + Functions[I].name() +
                  " disagrees with the IR interpreter");
  }
  EndToEnd["compile_fn_per_s"] = quantile(SliceRates, 1 - Quiet);
  EndToEnd["compile_p50_us"] = quantile(RoundP50, Quiet);
  EndToEnd["compile_p99_us"] = quantile(RoundP99, Quiet);
  EndToEnd["compile_samples"] = static_cast<double>(Done);
  EndToEnd["code_cycles"] = static_cast<double>(Cycles);
  EndToEnd["code_instrs"] = static_cast<double>(Instrs);
  EndToEnd["coverage_pct"] = Total ? 100.0 * Covered / Total : 0;
}

void CompileStage::trace(double Seconds, const MetricMap &EndToEnd,
                         MetricMap &Layers) {
  // The same closed loop with a span around select(), followed per
  // function by the isolated layer probes. Probe time is excluded from
  // the traced rate, so the rate difference is the cost of recording
  // spans.
  Trace::get().setEnabled(true);
  ProbeTotals T;
  double ProbeUs = 0, Elapsed = 0;
  Clock::time_point Start = Clock::now();
  while (T.Functions < Functions.size() || Elapsed < Seconds) {
    const Function &F = Functions[T.Functions % Functions.size()];
    ScopedSpan Select("isel.select");
    SelectionResult R = Selector.select(F);
    T.SelectUs += Select.finish();
    Clock::time_point P0 = Clock::now();
    probeLayers(Selector, F, Select.id(), T);
    Clock::time_point P1 = Clock::now();
    ProbeUs += microsBetween(P0, P1);
    ++T.Functions;
    Elapsed = microsBetween(Start, P1) / 1e6;
  }
  Trace::get().setEnabled(false);
  double TracedFnPerSec = T.Functions / (Elapsed - ProbeUs / 1e6);
  double FnPerSec = EndToEnd.at("compile_fn_per_s");

  double N = static_cast<double>(T.Functions);
  Layers["isel.select_us"] = T.SelectUs / N;
  Layers["ir.num_operations_us"] = T.NumOperationsUs / N;
  Layers["analysis.facts_us"] = T.FactsUs / N;
  Layers["matchergen.discover_us"] = T.DiscoverUs / N;
  Layers["matchergen.states_visited"] = T.StatesVisited / N;
  Layers["matchergen.candidates"] = T.Candidates / N;
  Layers["isel.match_us"] = T.MatchUs / N;
  Layers["isel.match_attempts"] = T.MatchAttempts / N;
  Layers["isel.match_yield"] =
      T.MatchAttempts ? static_cast<double>(T.MatchHits) / T.MatchAttempts
                      : 0;
  Layers["x86.dce_rescan_us"] = T.DceUs / N;
  Layers["isel.residual_us"] =
      (T.SelectUs - T.NumOperationsUs - T.FactsUs - T.DiscoverUs - T.MatchUs -
       T.DceUs) /
      N;
  Layers["trace.compile_overhead_pct"] =
      100.0 * (FnPerSec - TracedFnPerSec) / FnPerSec;
}
