//===- bench_90_dataflow.cpp - Known-bits dataflow cost and payoff -------------===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
// The known-bits/range dataflow (src/analysis/Dataflow.h) is consumed
// on the selection hot path: SelectionEngine uses GraphFacts to elide
// runtime shift-precondition re-checks it can discharge statically.
// This benchmark answers two questions about that trade:
//
//   1. what does computing GraphFacts cost per workload graph
//      (facts/sec, plus how many shift preconditions it discharges), and
//   2. what the elision is worth end to end: selection time and the
//      matcher.precond_proved counter with elision on vs off, with the
//      emitted machine code cross-checked for byte-identity.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "analysis/Dataflow.h"
#include "eval/Workloads.h"
#include "ir/Function.h"
#include "isel/AutomatonSelector.h"
#include "isel/SelectionEngine.h"
#include "support/Statistics.h"
#include "support/Timer.h"

#include <cstdio>
#include <vector>

using namespace selgen;
using namespace selgen::bench;

namespace {

/// Machine code of \p MF without the header line.
std::string asmBody(const MachineFunction &MF) {
  std::string Text = printMachineFunction(MF);
  size_t Eol = Text.find('\n');
  return Eol == std::string::npos ? std::string() : Text.substr(Eol + 1);
}

bool isShift(Opcode Op) {
  return Op == Opcode::Shl || Op == Opcode::Shr || Op == Opcode::Shrs;
}

} // namespace

int main() {
  printBenchHeader(
      "Known-bits/range dataflow: analysis cost and elision payoff",
      "Buchwald et al., CGO'18, Section 4 (shift rules carry the "
      "0 <= amount < width precondition the analysis discharges)");

  std::vector<Function> Workloads;
  for (const WorkloadProfile &Profile : cint2000Profiles())
    Workloads.push_back(buildWorkload(Profile, Width));

  // --- GraphFacts throughput per workload ------------------------------
  TablePrinter FactTable({"Benchmark", "Ops", "Shifts", "Proved", "Unproven",
                          "Analysis", "Ops/sec"});
  for (const Function &F : Workloads) {
    const int Reps = 50;
    unsigned Ops = 0, Shifts = 0, Proved = 0, Unproven = 0;
    double Seconds = 0;
    for (int Rep = 0; Rep < Reps; ++Rep) {
      Ops = Shifts = Proved = Unproven = 0;
      Timer T;
      for (const auto &Block : F.blocks()) {
        GraphFacts Facts(Block->body());
        for (Node *N :
             Block->body().liveNodesFrom(Block->terminatorOperands())) {
          ++Ops;
          for (unsigned I = 0; I < N->numResults(); ++I)
            if (N->resultSort(I).isValue())
              (void)Facts.fact(NodeRef(N, I));
          if (isShift(N->opcode())) {
            ++Shifts;
            if (Facts.provesShiftInRange(N))
              ++Proved;
            else
              ++Unproven;
          }
        }
      }
      Seconds += T.elapsedSeconds();
    }
    Seconds /= Reps;
    FactTable.addRow({F.name(), formatGrouped(Ops), formatGrouped(Shifts),
                      formatGrouped(Proved), formatGrouped(Unproven),
                      formatDouble(Seconds * 1e6, 1) + " us",
                      formatGrouped(static_cast<uint64_t>(Ops / Seconds))});
  }
  std::printf("\n%s", FactTable.render().c_str());
  std::printf("\n(Proved = shift operations whose 0 <= amount < width "
              "precondition the dataflow\ndischarges; the masked-amount "
              "shl_rc shape should always prove)\n");

  // --- End-to-end elision payoff ---------------------------------------
  SmtContext Smt;
  BenchGoals FullGoals = makeBenchGoals("full");
  PatternDatabase FullDb =
      loadOrSynthesizeLibrary(Smt, "full", FullGoals.Goals);
  FullDb.filterNonNormalized();
  FullDb.sortSpecificFirst();
  MappedAutomatonSelector Selector(FullDb, FullGoals.Goals);

  TablePrinter ElideTable(
      {"Mode", "Selection", "precond_proved", "Code"});
  const int Reps = 20;
  std::vector<std::string> BaselineAsm;
  for (bool Elide : {true, false}) {
    setStaticPrecondElision(Elide);
    Statistics::get().clear();
    double Seconds = 0;
    std::vector<std::string> Asm;
    for (int Rep = 0; Rep < Reps; ++Rep) {
      Asm.clear();
      for (const Function &F : Workloads) {
        SelectionResult R = Selector.select(F);
        Seconds += R.SelectionSeconds;
        Asm.push_back(asmBody(*R.MF));
      }
    }
    bool Same = BaselineAsm.empty() || Asm == BaselineAsm;
    if (BaselineAsm.empty())
      BaselineAsm = Asm;
    ElideTable.addRow(
        {Elide ? "elision on" : "elision off",
         formatDouble(Seconds / Reps * 1e6, 1) + " us",
         formatGrouped(Statistics::get().value("matcher.precond_proved") /
                       Reps),
         Same ? "identical" : "DIFFERS"});
    if (!Same) {
      std::printf("FAILURE: elision changed the emitted machine code\n");
      setStaticPrecondElision(true);
      return 1;
    }
  }
  setStaticPrecondElision(true);
  std::printf("\n%s", ElideTable.render().c_str());
  std::printf("\n(times are per full sweep over the %zu workloads; Code "
              "compares the machine\ncode emitted with and without elision "
              "byte for byte)\n",
              Workloads.size());
  return 0;
}
