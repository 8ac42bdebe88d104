//===- Stages.h - The benchmark's compile, serve and synth stages -*- C++ -*-===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three stages one benchmark run executes. Each stage drives
/// selgen only through module public APIs, times end-to-end metrics
/// around those calls, checks every output against an independent
/// reference outside the timed region, and, in the traced run, adds
/// the per-layer metrics from spans and isolated probes.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_STAGES_H
#define PERFBENCH_STAGES_H

#include "Inputs.h"
#include "Trace.h"

#include "isel/AutomatonSelector.h"
#include "x86/Goals.h"

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// Operations checked and operations that failed, over all stages. A
/// failure is a wrong output, a typed error reply, or a lost request.
struct Tally {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::map<std::string, uint64_t> Failures; ///< Count per description.
  void fail(const std::string &What) {
    ++Failed;
    ++Failures[What];
  }
};

/// Metric values of one run by name.
using MetricMap = std::map<std::string, double>;

/// The \p P quantile (0..1) of \p Values by nearest rank; 0 if empty.
double quantile(std::vector<double> Values, double P);

/// The measuring time is cut into this many rounds, each running one
/// slice of every stage, so a slow spell of the machine lands in a few
/// slices only.
constexpr int Rounds = 16;

/// Timing figures are read off the quietest tenth of a run's slices:
/// the 0.1 quantile of times and the 0.9 quantile of rates. Other work
/// on a shared machine only ever slows a slice down, and it does so for
/// seconds at a time, while a change that slows every call moves this
/// quantile in full.
constexpr double Quiet = 0.1;

/// A rule library taken from its file to a selector running off the
/// mapped binary image: what every set-up of the compile and serve
/// stages produces.
struct SelectionSetup {
  selgen::GoalLibrary Goals;
  std::unique_ptr<selgen::MappedAutomaton> Image;
  std::unique_ptr<selgen::MappedAutomatonSelector> Selector;
};

/// Loads \p LibraryPath, prepares it, builds the automaton, writes it
/// to \p ImagePath and maps it back. Fills the set-up layer metrics
/// into \p Layers when non-null; aborts the run on any error.
SelectionSetup setUpSelection(const std::string &LibraryPath,
                              const std::string &ImagePath,
                              MetricMap *Layers);

/// Closed-loop compile stage: one caller thread selects the functions
/// round-robin. The run calls measure() for several slices spread over
/// its length; the reported figures are taken from the quietest slices
/// (see Quiet), so a burst of outside interference moves a few slices,
/// not the result.
class CompileStage {
public:
  CompileStage(selgen::MappedAutomatonSelector &Selector,
               const std::vector<selgen::Function> &Functions);

  void measure(double Seconds);

  /// Checks the outputs of the first timed lap on the emulator against
  /// the IR interpreter and fills the end-to-end metrics.
  void finish(const std::vector<FunctionInput> &Inputs, Tally &Checks,
              MetricMap &EndToEnd);

  /// Traced pass for \p Seconds: spans around select() plus isolated
  /// probes of each layer. Call after finish().
  void trace(double Seconds, const MetricMap &EndToEnd, MetricMap &Layers);

private:
  void measureSlice(double Seconds, std::vector<double> &LatencyUs);

  selgen::MappedAutomatonSelector &Selector;
  const std::vector<selgen::Function> &Functions;
  std::vector<std::unique_ptr<selgen::MachineFunction>> FirstLap;
  size_t Done = 0;
  uint64_t Covered = 0, Total = 0;
  std::vector<double> SliceRates, RoundP50, RoundP99;
};

class Harness;
struct Window;

/// Open-loop serve stage: an in-process SelectionServer over
/// socketpairs, fed seeded Poisson arrivals of seeded batches from one
/// client thread. measureFixed() offers the fixed rate for one slice
/// (p50 is read off the quietest slices, p99 pools every slice's
/// requests);
/// searchStep() runs one window of the search for the highest rate
/// meeting the latency limit. Every reply's machine code must equal
/// in-process selection of the same function.
class ServeStage {
public:
  ServeStage(const SelectionSetup &Setup, selgen::Rng &Random, Tally &Checks);
  ~ServeStage();
  ServeStage(const ServeStage &) = delete;
  ServeStage &operator=(const ServeStage &) = delete;

  void measureFixed(double Seconds);
  void searchStep(double Seconds);
  bool searchDone() const;
  void finish(MetricMap &EndToEnd);

  /// Traced fixed-rate window of \p Seconds; call after finish().
  void trace(double Seconds, const MetricMap &EndToEnd, MetricMap &Layers);

private:
  Window run(double FnPerSec, double Seconds);
  void account(const Window &W, bool TypedErrorsFail);

  selgen::Rng &Random;
  Tally &Checks;
  std::map<std::string, std::string> Expected;
  std::unique_ptr<Harness> Server;
  uint64_t NextId = 1;
  std::vector<double> SliceP50;       ///< One per fixed-rate slice.
  std::vector<double> FixedLatencyMs; ///< All fixed-rate slices.
  unsigned SearchWindowsRun = 0;
  double Rate = 0, HighestPass = 0, LowestFail = 0;
  std::vector<double> StaircaseRates;
};

/// Seconds from an idle process to a serve-stage server that has
/// answered its first health probe (the serve workload's share of
/// set-up beyond setUpSelection).
double timeServerStart(const SelectionSetup &Setup);

/// Builds the synthesis goal library for \p Goals (the synth
/// workload's set-up).
selgen::GoalLibrary buildSynthGoals(const std::vector<SynthGoal> &Goals);

/// \p ColdRuns cold syntheses of \p Goals, each into an empty cache
/// under \p CacheDir, then warm runs against the last cache, all with
/// \p Threads workers. Every library must equal the first cold one
/// byte for byte, and every rule must survive a concrete re-screen
/// against its goal on seeded tests.
void runSynthStage(const std::vector<SynthGoal> &Goals, uint64_t Seed,
                   const std::string &CacheDir, unsigned Threads,
                   int ColdRuns, Tally &Checks, MetricMap &EndToEnd,
                   MetricMap &Layers);

} // namespace perfbench

#endif // PERFBENCH_STAGES_H
