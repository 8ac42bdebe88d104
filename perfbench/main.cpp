//===- main.cpp - The selgen benchmark program ----------------------------===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One benchmark run:
///
///   selgen-perfbench --workload compile|serve|synth --seed N
///                    --seconds S --trace 0|1 --data-dir D --work-dir W
///
/// Every run executes all three stages (compile, serve, synth), so
/// every end-to-end metric is reported on every workload; the workload
/// picks the library the selection stages run on, which stage gets
/// most of the measuring time, and what set-up time means. The last
/// line of standard output is the JSON result.
///
//===----------------------------------------------------------------------===//

#include "Stages.h"

#include "pattern/PatternDatabase.h"
#include "support/Error.h"

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <sys/resource.h>
#include <thread>

using namespace selgen;
using namespace perfbench;

namespace {

/// How one workload spends a run of S seconds.
struct Plan {
  const char *Name;
  const char *Why;
  bool InflatedLibrary; ///< Selection stages run on the ~10k-rule image.
  double CompileShare, FixedShare, SearchShare; ///< Shares of S.
  std::array<unsigned, 3> GoalsPerTier; ///< Drawn for the synth stage.
  int SetupsPerRound; ///< Set-ups timed per round; setup_s is the median.
  int ColdRuns; ///< Cold syntheses; synth_cold_s is the quietest.
};

const Plan Plans[] = {
    {"compile",
     "first-match selection over the shipped w8 library from one "
     "closed-loop caller: the selection engine, lowering, liveness and DCE "
     "do nearly all the work (the target of a dense-index rewrite). It "
     "takes the default select() path, which appends to the global "
     "Statistics registry as selgen-compile does, so peak_rss_mb sees that "
     "retention.",
     false, 0.5, 0.35, 0.15, {26, 0, 0}, 1, 3},
    {"serve",
     "open-loop Poisson batches of 6 to 16 cint2000 names (a seeded mix "
     "around the 11-name batch tools/ci/serve_client.py sends) at 600 fn/s, "
     "about a quarter of the rate the server sustains, into an in-process "
     "server mapping a 10k-rule inflated image (paper scale, a 14x larger "
     "automaton): admission, dispatch, the wire codec and per-item "
     "regeneration run here, and the selection engine shared with compile "
     "runs on several threads.",
     true, 0.35, 0.5, 0.15, {26, 0, 0}, 1, 3},
    {"synth",
     "cold then warm parallel synthesis of a seeded draw of goals that "
     "finish inside their budget: SMT, CEGIS, the prescreen and the "
     "work-stealing scheduler dominate the cold run; the warm run takes "
     "the cache read path of the same pattern layer.",
     false, 0.35, 0.35, 0.1, {13, 7, 6}, 5, 3},
};

constexpr unsigned CopiesPerProfile = 6;
constexpr unsigned InputsPerFunction = 3;
constexpr size_t InflatedRules = 10000;

struct MetricSpec {
  const char *Name;
  const char *Unit;
};

/// The end-to-end metrics a regression bound gates (BENCHMARK.json).
const MetricSpec EndToEndMetrics[] = {
    {"setup_s", "s"},         {"peak_rss_mb", "MB"},
    {"code_cycles", "count"}, {"code_instrs", "count"},
    {"coverage_pct", "%"},
};

/// End-to-end metrics that vary too much from run to run on a shared
/// 4-core machine to gate a change: over separate sets of ten seeds,
/// their interquartile range or the difference of the sets' medians
/// exceeded a quarter of the median (see BASELINE.md). They are printed
/// with the others and travel with the per-layer metrics of the traced
/// run.
const MetricSpec UngatedEndToEndMetrics[] = {
    {"compile_fn_per_s", "fn/s"},   {"compile_p50_us", "us"},
    {"compile_p99_us", "us"},       {"serve_p50_ms", "ms"},
    {"serve_p99_ms", "ms"},         {"serve_max_fn_per_s", "fn/s"},
    {"synth_cold_s", "s"},          {"synth_warm_s", "s"},
};

const MetricSpec LayerMetrics[] = {
    {"pattern.load_ms", "ms"},
    {"isel.prepare_ms", "ms"},
    {"matchergen.compile_ms", "ms"},
    {"matchergen.image_bytes", "bytes"},
    {"matchergen.map_us", "us"},
    {"isel.select_us", "us"},
    {"ir.num_operations_us", "us"},
    {"analysis.facts_us", "us"},
    {"isel.match_us", "us"},
    {"isel.match_attempts", "count"},
    {"isel.match_yield", "ratio"},
    {"x86.dce_rescan_us", "us"},
    {"isel.residual_us", "us"},
    {"matchergen.discover_us", "us"},
    {"matchergen.states_visited", "count"},
    {"matchergen.candidates", "count"},
    {"eval.build_workload_us", "us"},
    {"serve.rtt_us", "us"},
    {"serve.service_us", "us"},
    {"serve.outside_us", "us"},
    {"serve.codec_us", "us"},
    {"serve.queue_peak", "count"},
    {"serve.shed", "count"},
    {"serve.generator_late_us", "us"},
    {"smt.check_us", "us"},
    {"smt.checks", "count"},
    {"smt.busy_frac", "ratio"},
    {"synth.synthesis_queries", "count"},
    {"synth.verification_queries", "count"},
    {"synth.prescreen_us", "us"},
    {"synth.prescreen_yield", "ratio"},
    {"synth.multisets_run", "count"},
    {"pattern.queue_wait_s", "s"},
    {"pattern.stolen_chunks", "count"},
    {"pattern.chunks", "count"},
    {"pattern.cache_hits", "count"},
    {"pattern.cache_read_ms", "ms"},
    {"trace.compile_overhead_pct", "%"},
    {"trace.serve_overhead_pct", "%"},
    {"compile_fn_per_s", "fn/s"},
    {"compile_p50_us", "us"},
    {"compile_p99_us", "us"},
    {"serve_p50_ms", "ms"},
    {"serve_p99_ms", "ms"},
    {"serve_max_fn_per_s", "fn/s"},
    {"synth_cold_s", "s"},
    {"synth_warm_s", "s"},
};

/// Values printed in the report table only: the sample counts behind
/// the quantiles, the failed share (the JSON line carries it as
/// attempted and failed), and the goals synthesis left incomplete.
const MetricSpec ReportOnlyMetrics[] = {
    {"failed_frac", "ratio"},   {"compile_samples", "count"},
    {"serve_samples", "count"}, {"synth_goals", "count"},
    {"pattern.incomplete_goals", "count"},
};

const char *unitOf(const std::string &Name) {
  auto Find = [&](const MetricSpec *Begin,
                  const MetricSpec *End) -> const char * {
    for (const MetricSpec *M = Begin; M != End; ++M)
      if (Name == M->Name)
        return M->Unit;
    return nullptr;
  };
  for (const char *Unit :
       {Find(std::begin(EndToEndMetrics), std::end(EndToEndMetrics)),
        Find(std::begin(UngatedEndToEndMetrics),
             std::end(UngatedEndToEndMetrics)),
        Find(std::begin(LayerMetrics), std::end(LayerMetrics)),
        Find(std::begin(ReportOnlyMetrics), std::end(ReportOnlyMetrics))})
    if (Unit)
      return Unit;
  reportFatalError("metric without a unit: " + Name);
}

[[noreturn]] void usage(const std::string &Problem) {
  std::fprintf(stderr,
               "error: %s\nusage: selgen-perfbench --workload "
               "compile|serve|synth --seed N --seconds S --trace 0|1 "
               "--data-dir DIR --work-dir DIR\n",
               Problem.c_str());
  std::exit(2);
}

double peakRssMb() {
  rusage Usage{};
  getrusage(RUSAGE_SELF, &Usage);
  return Usage.ru_maxrss / 1024.0;
}

std::string jsonMetrics(const MetricSpec *Begin, const MetricSpec *End,
                        const MetricMap &Values) {
  std::string Out;
  for (const MetricSpec *M = Begin; M != End; ++M) {
    auto It = Values.find(M->Name);
    if (It == Values.end())
      reportFatalError(std::string("metric not measured: ") + M->Name);
    char Buffer[160];
    std::snprintf(Buffer, sizeof(Buffer), "%s\"%s\": {\"value\": %.17g, "
                  "\"unit\": \"%s\"}", Out.empty() ? "" : ", ", M->Name,
                  It->second, M->Unit);
    Out += Buffer;
  }
  return Out;
}

} // namespace

int main(int argc, char **argv) {
  std::string WorkloadName, DataDir, WorkDir;
  uint64_t Seed = 0;
  double Seconds = 0;
  int Traced = -1;
  for (int I = 1; I + 1 < argc; I += 2) {
    std::string Flag = argv[I], Value = argv[I + 1];
    char *End = nullptr;
    if (Flag == "--workload")
      WorkloadName = Value;
    else if (Flag == "--seed")
      Seed = std::strtoull(Value.c_str(), &End, 10);
    else if (Flag == "--seconds")
      Seconds = std::strtod(Value.c_str(), &End);
    else if (Flag == "--trace")
      Traced = Value == "1" ? 1 : Value == "0" ? 0 : -1;
    else if (Flag == "--data-dir")
      DataDir = Value;
    else if (Flag == "--work-dir")
      WorkDir = Value;
    else
      usage("unknown option " + Flag);
    if (End && *End)
      usage("malformed value for " + Flag);
  }
  if (argc % 2 == 0)
    usage("every option takes one value");
  const Plan *Workload = nullptr;
  for (const Plan &P : Plans)
    if (WorkloadName == P.Name)
      Workload = &P;
  if (!Workload)
    usage("unknown workload '" + WorkloadName + "'");
  if (!(Seconds > 0) || Traced < 0 || DataDir.empty() || WorkDir.empty())
    usage("--seconds, --trace, --data-dir and --work-dir are required");

  std::signal(SIGPIPE, SIG_IGN); // wire::writeFrame contract.
  std::filesystem::remove_all(WorkDir);
  std::filesystem::create_directories(WorkDir);
  const std::string ShippedLibrary = DataDir + "/rule-library-full-w8.dat";
  if (!std::filesystem::exists(ShippedLibrary))
    usage("missing " + ShippedLibrary);
  const unsigned Threads = std::max(1u, std::thread::hardware_concurrency());
  std::printf("workload %s: %s\nseed %llu, %.0f s, traced %d, %u threads\n",
              Workload->Name, Workload->Why,
              static_cast<unsigned long long>(Seed), Seconds, Traced,
              Threads);

  // -- Seeded inputs (not timed) ------------------------------------------
  std::vector<Function> Functions;
  {
    Rng Random = streamRng(Seed, 1);
    for (const WorkloadProfile &P : seededProfiles(Random, CopiesPerProfile))
      Functions.push_back(buildWorkload(P, Width));
  }
  Rng InputRandom = streamRng(Seed, 2);
  std::vector<FunctionInput> Inputs =
      functionInputs(InputRandom, InputsPerFunction);
  Rng ServeRandom = streamRng(Seed, 3);
  Rng GoalRandom = streamRng(Seed, 4);
  std::vector<SynthGoal> Goals = drawGoals(GoalRandom, Workload->GoalsPerTier);

  // The compile stage always runs on the shipped library: its output is
  // checked on the emulator, and the inflated variants are not sound
  // rules. The serve stage runs on the workload's library.
  const std::string ShippedImage = WorkDir + "/automaton-full-w8.matb";
  std::string ServedLibrary = ShippedLibrary, ServedImage = ShippedImage;
  if (Workload->InflatedLibrary) {
    ServedLibrary = WorkDir + "/rule-library-inflated-w8.dat";
    ServedImage = WorkDir + "/automaton-inflated-w8.matb";
    inflateLibrary(PatternDatabase::loadFromFile(ShippedLibrary),
                   InflatedRules)
        .saveToFile(ServedLibrary);
  }

  // -- Set-up ----------------------------------------------------------------
  // compile: shipped library file to a mapped selector; serve: inflated
  // library file to a server answering requests; synth: goal library.
  // The first set-up is the one the stages use; more are timed once per
  // round below, and setup_s is the median of all.
  MetricMap EndToEnd, Layers;
  std::vector<double> SetupSeconds;
  const bool SynthSetup = std::string(Workload->Name) == "synth";
  auto timeSetUp = [&](SelectionSetup &Out, const std::string &ImagePath,
                       MetricMap *SetupLayers) {
    for (int I = 0; I < Workload->SetupsPerRound; ++I) {
      Clock::time_point Start = Clock::now();
      if (SynthSetup) {
        buildSynthGoals(Goals);
        SetupSeconds.push_back(microsBetween(Start, Clock::now()) / 1e6);
        continue;
      }
      Out = setUpSelection(ServedLibrary, ImagePath, SetupLayers);
      double Took = microsBetween(Start, Clock::now()) / 1e6;
      if (Workload->InflatedLibrary)
        Took += timeServerStart(Out);
      SetupSeconds.push_back(Took);
    }
  };
  Trace::get().setEnabled(Traced);
  SelectionSetup Served;
  timeSetUp(Served, ServedImage, &Layers);
  Trace::get().setEnabled(false);
  if (!Served.Selector)
    Served = setUpSelection(ServedLibrary, ServedImage, &Layers);
  SelectionSetup ShippedSetup;
  if (Workload->InflatedLibrary)
    ShippedSetup = setUpSelection(ShippedLibrary, ShippedImage, nullptr);
  const SelectionSetup &Shipped =
      Workload->InflatedLibrary ? ShippedSetup : Served;

  // -- Rounds ------------------------------------------------------------------
  // Each round times one more set-up, a compile slice, a fixed-rate
  // serve slice and one search window.
  Tally Checks;
  CompileStage Compile(*Shipped.Selector, Functions);
  ServeStage Serve(Served, ServeRandom, Checks);
  for (int Round = 0; Round < Rounds; ++Round) {
    SelectionSetup Discarded;
    timeSetUp(Discarded, WorkDir + "/setup-probe.matb", nullptr);
    Compile.measure(Workload->CompileShare * Seconds / Rounds);
    Serve.measureFixed(Workload->FixedShare * Seconds / Rounds);
    Serve.searchStep(Workload->SearchShare * Seconds / Rounds);
  }
  EndToEnd["setup_s"] = quantile(SetupSeconds, 0.5);
  Compile.finish(Inputs, Checks, EndToEnd);
  Serve.finish(EndToEnd);
  if (Traced) {
    Compile.trace(Workload->CompileShare * Seconds / 4, EndToEnd, Layers);
    Serve.trace(Workload->FixedShare * Seconds / 4, EndToEnd, Layers);
    Trace::get().setEnabled(true);
  }
  runSynthStage(Goals, Seed, WorkDir + "/synthesis-cache", Threads,
                Workload->ColdRuns, Checks, EndToEnd, Layers);
  Trace::get().setEnabled(false);
  EndToEnd["peak_rss_mb"] = peakRssMb();
  EndToEnd["failed_frac"] =
      Checks.Attempted ? static_cast<double>(Checks.Failed) / Checks.Attempted
                       : 1.0;

  for (const MetricSpec &M : UngatedEndToEndMetrics)
    Layers[M.Name] = EndToEnd[M.Name];

  // -- Report ----------------------------------------------------------------
  std::printf("\n%-30s %-12s %s\n", "end-to-end metric", "value", "unit");
  for (const auto &[Name, Value] : EndToEnd)
    std::printf("%-30s %-12.6g %s\n", Name.c_str(), Value, unitOf(Name));
  if (Traced) {
    std::printf("\n%-30s %-12s %s\n", "per-layer metric (traced run)",
                "value", "unit");
    for (const auto &[Name, Value] : Layers)
      std::printf("%-30s %-12.6g %s\n", Name.c_str(), Value, unitOf(Name));
    std::string TracePath = WorkDir + "/trace-" + Workload->Name + "-" +
                            std::to_string(Seed) + ".json";
    if (!Trace::get().writeJson(TracePath))
      reportFatalError("cannot write " + TracePath);
    std::printf("spans written to %s\n", TracePath.c_str());
  }
  for (const auto &[What, Count] : Checks.Failures)
    std::fprintf(stderr, "FAILURE (%llux): %s\n",
                 static_cast<unsigned long long>(Count), What.c_str());
  std::printf("checked %llu outputs, %llu failed\n",
              static_cast<unsigned long long>(Checks.Attempted),
              static_cast<unsigned long long>(Checks.Failed));

  std::string Metrics =
      Traced ? jsonMetrics(std::begin(LayerMetrics), std::end(LayerMetrics),
                           Layers)
             : jsonMetrics(std::begin(EndToEndMetrics),
                           std::end(EndToEndMetrics), EndToEnd);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              Checks.Failed ? "false" : "true",
              static_cast<unsigned long long>(Checks.Attempted),
              static_cast<unsigned long long>(Checks.Failed), Metrics.c_str());
  return Checks.Failed ? 1 : 0;
}
