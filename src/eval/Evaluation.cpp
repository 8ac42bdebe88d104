//===- Evaluation.cpp - Code-quality and compile-time experiments -------------===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//

#include "eval/Evaluation.h"

#include "support/Timer.h"
#include "x86/Emulator.h"

#include <cmath>

using namespace selgen;

namespace {

double geometricMean(const std::vector<double> &Values) {
  if (Values.empty())
    return 0;
  double LogSum = 0;
  for (double Value : Values)
    LogSum += std::log(Value);
  return std::exp(LogSum / Values.size());
}

} // namespace

CodeQualityResult
selgen::runCodeQualityExperiment(InstructionSelector &Handwritten,
                                 InstructionSelector &Basic,
                                 InstructionSelector &Full, unsigned Width,
                                 unsigned RunsPerWorkload) {
  CodeQualityResult Result;
  std::vector<double> Coverages, BasicRatios, FullRatios;

  for (const WorkloadProfile &Profile : cint2000Profiles()) {
    Function F = buildWorkload(Profile, Width);

    SelectionResult Hand = Handwritten.select(F);
    SelectionResult BasicSel = Basic.select(F);
    SelectionResult FullSel = Full.select(F);

    CodeQualityRow Row;
    Row.Benchmark = Profile.Name;
    Row.Coverage = FullSel.coverage();
    Row.CoverageBasic = BasicSel.coverage();

    for (const WorkloadInput &Input :
         makeWorkloadInputs(Profile, Width, RunsPerWorkload))
      for (auto [Selected, Cycles] :
           {std::pair{&Hand, &Row.HandwrittenCycles},
            std::pair{&BasicSel, &Row.BasicCycles},
            std::pair{&FullSel, &Row.FullCycles}}) {
        // An undefined or step-limited interpreter run counts as a
        // mismatch: the workloads are built free of both.
        TranslationCheck Check =
            checkTranslation(F, *Selected->MF, Input.Args, Input.Memory);
        *Cycles += Check.Cycles;
        Row.Mismatch |= !Check.agrees();
      }

    if (Row.HandwrittenCycles > 0) {
      Row.BasicOverHandwritten =
          100.0 * Row.BasicCycles / Row.HandwrittenCycles;
      Row.FullOverHandwritten =
          100.0 * Row.FullCycles / Row.HandwrittenCycles;
      BasicRatios.push_back(Row.BasicOverHandwritten);
      FullRatios.push_back(Row.FullOverHandwritten);
      Coverages.push_back(std::max(Row.Coverage, 1e-6));
    }
    Result.Rows.push_back(std::move(Row));
  }

  Result.GeoMeanCoverage = geometricMean(Coverages);
  Result.GeoMeanBasicRatio = geometricMean(BasicRatios);
  Result.GeoMeanFullRatio = geometricMean(FullRatios);
  return Result;
}

CompileTimeResult
selgen::runCompileTimeExperiment(InstructionSelector &Handwritten,
                                 InstructionSelector &Basic,
                                 InstructionSelector &Full, unsigned Width,
                                 unsigned Repetitions) {
  CompileTimeResult Result;
  for (const WorkloadProfile &Profile : cint2000Profiles()) {
    Function F = buildWorkload(Profile, Width);
    CompileTimeRow Row;
    Row.Benchmark = Profile.Name;
    for (unsigned Rep = 0; Rep < Repetitions; ++Rep) {
      Row.HandwrittenSeconds += Handwritten.select(F).SelectionSeconds;
      Row.BasicSeconds += Basic.select(F).SelectionSeconds;
      Row.FullSeconds += Full.select(F).SelectionSeconds;
    }
    Result.TotalHandwritten += Row.HandwrittenSeconds;
    Result.TotalBasic += Row.BasicSeconds;
    Result.TotalFull += Row.FullSeconds;
    Result.Rows.push_back(std::move(Row));
  }
  return Result;
}
