//===- selgen-matchergen.cpp - Compile a rule library to a matcher automaton ---===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
// The offline matcher-automaton compiler: load a synthesized rule
// library, compile its patterns into the discrimination tree the
// automaton selector traverses, and write the mmap-able
// "selgen-matcher-automaton-bin-v2" image that selgen-compile
// --automaton and selgen-served map. The image records the library
// fingerprint, so mapping it against a changed library fails loudly
// instead of selecting with stale rules.
//
//   selgen-matchergen --library rules.dat --output rules.matb
//   selgen-matchergen dump rules.matb       # states, edges, costs as text
//   selgen-compile --library rules.dat --automaton rules.matb
//
// `dump IMAGE` maps and validates an image and prints it for humans:
// the header fields, the rule cost table, and one line per state and
// edge. Nothing parses that text back; the image is the only format.
//
//===----------------------------------------------------------------------===//

#include "isel/AutomatonSelector.h"
#include "isel/PreparedLibrary.h"
#include "support/CommandLine.h"
#include "support/Statistics.h"

#include <cstdio>

using namespace selgen;

namespace {

/// `selgen-matchergen dump IMAGE`: render a mapped image as text.
int runDump(const CommandLine &Cli) {
  const std::vector<std::string> &Positional = Cli.positional();
  if (Positional.size() != 2) {
    std::fprintf(stderr, "usage: selgen-matchergen dump <image.matb>\n");
    return 1;
  }
  std::string Error;
  std::unique_ptr<MappedAutomaton> Mapped =
      MatcherAutomaton::mapBinary(Positional[1], &Error);
  if (!Mapped) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }
  std::fputs(Mapped->view().dump().c_str(), stdout);
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  const std::vector<std::string> Flags = {"library", "output", "width",
                                          "stats-json", "help"};
  CommandLine Cli(argc, argv, Flags);
  if (!Cli.positional().empty() && Cli.positional()[0] == "dump")
    return runDump(Cli);
  if (!Cli.errors().empty() || Cli.hasFlag("help") ||
      !Cli.positional().empty()) {
    for (const std::string &Error : Cli.errors())
      std::fprintf(stderr, "%s\n", Error.c_str());
    std::fprintf(stderr, "%s\n       selgen-matchergen dump <image.matb>\n",
                 CommandLine::usage("selgen-matchergen", Flags).c_str());
    return Cli.hasFlag("help") ? 0 : 1;
  }

  std::string BadNumber;
  std::optional<unsigned> WidthOption =
      Cli.checkedOption("width", 8, NumberRule::Width, BadNumber);
  if (!WidthOption) {
    std::fprintf(stderr, "error: %s\n", BadNumber.c_str());
    return 1;
  }
  unsigned Width = *WidthOption;
  std::string LibraryPath = Cli.stringOption("library", "rules.dat");
  std::string OutputPath = Cli.stringOption("output", "rules.matb");

  PatternDatabase Database = loadSelectorLibrary(LibraryPath);
  GoalLibrary Goals = GoalLibrary::build(Width, GoalLibrary::allGroups());
  PreparedLibrary Library = prepareSelectorLibrary(Database, Goals);

  MatcherAutomaton Automaton = buildMatcherAutomaton(Library);
  if (!Automaton.writeBinaryFile(OutputPath)) {
    std::fprintf(stderr, "error: cannot write %s\n", OutputPath.c_str());
    return 1;
  }

  // Map the file we just wrote: an image that does not map back to the
  // current library must never reach a selector.
  std::string LoadError;
  std::unique_ptr<MappedAutomaton> Mapped =
      MatcherAutomaton::mapBinary(OutputPath, &LoadError);
  if (!Mapped) {
    std::fprintf(stderr, "error: round-trip failed: %s\n",
                 LoadError.c_str());
    return 1;
  }
  std::string Stale = automatonStalenessError(Mapped->view(), Library);
  if (!Stale.empty()) {
    std::fprintf(stderr, "error: round-trip mismatch: %s\n", Stale.c_str());
    return 1;
  }

  const BinaryAutomatonView &View = Automaton.view();
  Statistics &Stats = Statistics::get();
  Stats.add("automaton.states", static_cast<int64_t>(View.numStates()));
  Stats.add("automaton.transitions",
            static_cast<int64_t>(View.numTransitions()));
  std::printf("library %s: %zu rules (%zu usable, fingerprint %s)\n",
              LibraryPath.c_str(), Database.size(), Library.rules().size(),
              Library.fingerprint().c_str());
  std::printf("automaton %s: %zu states, %llu transitions\n",
              OutputPath.c_str(), View.numStates(),
              static_cast<unsigned long long>(View.numTransitions()));

  std::string StatsPath = Cli.stringOption("stats-json", "");
  if (!StatsPath.empty() && !Stats.writeJsonFile(StatsPath)) {
    std::fprintf(stderr, "error: cannot write %s\n", StatsPath.c_str());
    return 1;
  }
  return 0;
}
