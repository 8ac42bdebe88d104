//===- selgen-testgen.cpp - Emit C test programs from a rule library ------------===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
// The Section 5.7 test-case generator as a tool (the artifact's
// run-tests.sh front half): one self-contained C translation unit per
// rule, plus an index file, ready to be fed to any C compiler whose
// pattern support you want to probe.
//
//   selgen-testgen --library rules.dat --output-dir tests-out --limit 50
//
//===----------------------------------------------------------------------===//

#include "pattern/PatternDatabase.h"
#include "support/CommandLine.h"
#include "testgen/TestCaseGenerator.h"

#include <cstdio>
#include <filesystem>
#include <fstream>

using namespace selgen;

int main(int argc, char **argv) {
  const std::vector<std::string> Flags = {"library", "output-dir", "width",
                                          "limit", "help"};
  CommandLine Cli(argc, argv, Flags);
  if (!Cli.errors().empty() || Cli.hasFlag("help")) {
    for (const std::string &Error : Cli.errors())
      std::fprintf(stderr, "%s\n", Error.c_str());
    std::fprintf(stderr, "%s\n",
                 CommandLine::usage("selgen-testgen", Flags).c_str());
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
  std::string OutputDir = Cli.stringOption("output-dir", "selgen-tests");
  size_t Limit =
      static_cast<size_t>(Cli.intOption("limit", 1u << 30));

  PatternDatabase Database = PatternDatabase::loadFromFile(LibraryPath);
  std::filesystem::create_directories(OutputDir);

  std::ofstream Indexfile(OutputDir + "/index.txt");
  size_t Count = 0;
  for (const Rule &R : Database.rules()) {
    if (Count >= Limit)
      break;
    std::string Name = "test_" + std::to_string(Count);
    std::string Path = OutputDir + "/" + Name + ".c";
    std::ofstream Out(Path);
    if (!Out) {
      std::fprintf(stderr, "error: cannot write %s\n", Path.c_str());
      return 1;
    }
    Out << emitCTestProgram(R, Width, Name);
    Indexfile << Name << ".c\t" << R.GoalName << "\n";
    ++Count;
  }
  std::printf("wrote %zu C test programs to %s (index.txt lists the goal "
              "per test)\n",
              Count, OutputDir.c_str());
  return 0;
}
