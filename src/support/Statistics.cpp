//===- Statistics.cpp - Named statistic counters ---------------------------===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/Statistics.h"

#include "support/AtomicFile.h"
#include "support/Json.h"

#include <sstream>

using namespace selgen;

Statistics &Statistics::get() {
  static Statistics Instance;
  return Instance;
}

void Statistics::add(const std::string &Name, int64_t Delta) {
  std::lock_guard<std::mutex> Guard(Lock);
  Counters[Name] += Delta;
}

int64_t Statistics::value(const std::string &Name) const {
  std::lock_guard<std::mutex> Guard(Lock);
  auto It = Counters.find(Name);
  return It == Counters.end() ? 0 : It->second;
}

void Statistics::recordGoal(GoalTelemetry Telemetry) {
  std::lock_guard<std::mutex> Guard(Lock);
  Goals.push_back(std::move(Telemetry));
}

std::vector<GoalTelemetry> Statistics::goals() const {
  std::lock_guard<std::mutex> Guard(Lock);
  return Goals;
}

void Statistics::clear() {
  std::lock_guard<std::mutex> Guard(Lock);
  Counters.clear();
  Goals.clear();
}

void Statistics::print(std::ostream &OS) const {
  std::lock_guard<std::mutex> Guard(Lock);
  for (const auto &[Name, Value] : Counters)
    OS << Name << " = " << Value << "\n";
}

namespace {

std::string jsonDouble(double Value) {
  std::ostringstream Stream;
  Stream.precision(6);
  Stream << std::fixed << Value;
  return Stream.str();
}

} // namespace

std::string Statistics::toJson() const {
  std::lock_guard<std::mutex> Guard(Lock);
  std::string Out = "{\n  \"counters\": {";
  bool First = true;
  for (const auto &[Name, Value] : Counters) {
    Out += First ? "\n" : ",\n";
    Out += "    \"" + jsonEscape(Name) + "\": " + std::to_string(Value);
    First = false;
  }
  Out += "\n  },\n  \"goals\": [";
  First = true;
  for (const GoalTelemetry &G : Goals) {
    Out += First ? "\n" : ",\n";
    Out += "    {\"goal\": \"" + jsonEscape(G.Goal) + "\"";
    Out += ", \"group\": \"" + jsonEscape(G.Group) + "\"";
    Out += std::string(", \"cache_hit\": ") + (G.CacheHit ? "true" : "false");
    Out += std::string(", \"complete\": ") + (G.Complete ? "true" : "false");
    Out += ", \"incomplete_cause\": \"" + jsonEscape(G.IncompleteCause) + "\"";
    Out += ", \"queue_wait_seconds\": " + jsonDouble(G.QueueWaitSeconds);
    Out += ", \"solver_seconds\": " + jsonDouble(G.SolverSeconds);
    Out += ", \"wall_seconds\": " + jsonDouble(G.WallSeconds);
    Out += ", \"counterexamples\": " + std::to_string(G.Counterexamples);
    Out += ", \"multisets_run\": " + std::to_string(G.MultisetsRun);
    Out += ", \"multisets_skipped\": " + std::to_string(G.MultisetsSkipped);
    Out += ", \"patterns\": " + std::to_string(G.Patterns);
    Out += ", \"chunks\": " + std::to_string(G.Chunks);
    Out += ", \"stolen_chunks\": " + std::to_string(G.StolenChunks);
    Out += ", \"prescreen_kills\": " + std::to_string(G.PrescreenKills);
    Out += ", \"corpus_size\": " + std::to_string(G.CorpusSize);
    Out += ", \"corpus_evictions\": " + std::to_string(G.CorpusEvictions);
    Out += "}";
    First = false;
  }
  Out += "\n  ]\n}\n";
  return Out;
}

bool Statistics::writeJsonFile(const std::string &Path) const {
  // Atomic publish: a crash mid-dump never leaves CI a torn JSON file.
  return writeFileAtomic(Path, toJson());
}
