//===- selgen-minimize.cpp - Proof-carrying library minimization ----------===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
// Promotes the selgen-lint subsumption audit into a transform: computes
// the full subsumption/cost-dominance relation over a rule library and
// deletes every rule that can provably never fire — unfireable rules
// (shift precondition unsatisfiable over literal constant amounts) and
// shadowed rules (an earlier, more general rule claims every subject)
// — emitting the minimized library plus one machine-checkable deletion
// certificate per removed rule (the surviving subsumer where one
// exists, the SMT query fingerprint, and the cost comparison).
//
//   selgen-minimize --width 8 --library rule-library-full-w8.dat
//       --output rule-library-full-w8.min.dat
//       --certificate deletions.json
//
// Policies:
//   --policy first-match (default): delete every shadowed rule. Sound
//       for all first-match selectors; `selgen-compile --dump-asm` is
//       byte-identical before/after (CI enforces this differential).
//   --policy dominated: delete only rules whose surviving subsumer
//       costs no more under --cost-model (unit|latency|size); the
//       subset of deletions the cost-minimal tiling selector can also
//       never regret.
//
// An SMT timeout keeps the rule: minimization degrades to "delete
// less", never to an unsound delete.
//
// Exit code: 0 success (including "nothing to delete"), 2 usage or I/O
// errors.
//
//===----------------------------------------------------------------------===//

#include "analysis/LibraryMinimizer.h"
#include "support/AtomicFile.h"
#include "support/CommandLine.h"
#include "support/Statistics.h"

#include <cstdio>
#include <fstream>
#include <sstream>

using namespace selgen;

static bool readFileToString(const std::string &Path, std::string &Out) {
  std::ifstream In(Path);
  if (!In)
    return false;
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  Out = Buffer.str();
  return true;
}

int main(int argc, char **argv) {
  const std::vector<std::string> Flags = {
      "library",    "width",          "output",     "certificate",
      "policy",     "cost-model",     "smt-timeout-ms",
      "stats-json", "quiet",          "help"};
  CommandLine Cli(argc, argv, Flags);
  if (!Cli.errors().empty() || Cli.hasFlag("help")) {
    for (const std::string &Error : Cli.errors())
      std::fprintf(stderr, "%s\n", Error.c_str());
    std::fprintf(stderr, "%s\n",
                 CommandLine::usage("selgen-minimize", Flags).c_str());
    return Cli.hasFlag("help") ? 0 : 2;
  }

  std::string LibraryPath = Cli.stringOption("library", "");
  std::string OutputPath = Cli.stringOption("output", "");
  if (LibraryPath.empty() || OutputPath.empty()) {
    std::fprintf(stderr,
                 "selgen-minimize: --library and --output are required\n");
    return 2;
  }

  MinimizeOptions Options;
  Options.SmtTimeoutMs =
      static_cast<unsigned>(Cli.intOption("smt-timeout-ms", 10000));
  std::string PolicyName = Cli.stringOption("policy", "first-match");
  if (PolicyName == "first-match")
    Options.Policy = MinimizePolicy::FirstMatch;
  else if (PolicyName == "dominated")
    Options.Policy = MinimizePolicy::Dominated;
  else {
    std::fprintf(stderr,
                 "selgen-minimize: unknown --policy '%s' "
                 "(expected first-match or dominated)\n",
                 PolicyName.c_str());
    return 2;
  }
  std::string ModelName = Cli.stringOption("cost-model", "latency");
  std::optional<CostKind> Model = parseCostKind(ModelName);
  if (!Model) {
    std::fprintf(stderr,
                 "selgen-minimize: unknown --cost-model '%s' "
                 "(expected unit, latency, or size)\n",
                 ModelName.c_str());
    return 2;
  }
  Options.Model = *Model;

  std::string BadNumber;
  std::optional<unsigned> WidthOption =
      Cli.checkedOption("width", 8, NumberRule::Width, BadNumber);
  if (!WidthOption) {
    std::fprintf(stderr, "selgen-minimize: %s\n", BadNumber.c_str());
    return 2;
  }
  unsigned Width = *WidthOption;

  std::string Text;
  if (!readFileToString(LibraryPath, Text)) {
    std::fprintf(stderr, "selgen-minimize: cannot read %s\n",
                 LibraryPath.c_str());
    return 2;
  }
  std::string Error;
  PatternDatabase Database = PatternDatabase::deserialize(Text, &Error);
  if (!Error.empty()) {
    std::fprintf(stderr, "selgen-minimize: %s: %s\n", LibraryPath.c_str(),
                 Error.c_str());
    return 2;
  }

  GoalLibrary Goals = GoalLibrary::build(Width, GoalLibrary::allGroups());
  MinimizeResult Result = minimizeLibrary(Database, Goals, Options);

  if (!writeFileAtomic(OutputPath, Result.Minimized.serialize())) {
    std::fprintf(stderr, "selgen-minimize: cannot write %s\n",
                 OutputPath.c_str());
    return 2;
  }
  std::string CertificatePath = Cli.stringOption("certificate", "");
  if (!CertificatePath.empty() &&
      !writeFileAtomic(CertificatePath,
                       certificatesToJson(Result, Options, LibraryPath))) {
    std::fprintf(stderr, "selgen-minimize: cannot write %s\n",
                 CertificatePath.c_str());
    return 2;
  }
  std::string StatsPath = Cli.stringOption("stats-json", "");
  if (!StatsPath.empty() && !Statistics::get().writeJsonFile(StatsPath)) {
    std::fprintf(stderr, "selgen-minimize: cannot write %s\n",
                 StatsPath.c_str());
    return 2;
  }

  if (!Cli.hasFlag("quiet")) {
    size_t Unfireable = 0, Shadowed = 0, Dominated = 0;
    for (const DeletionCertificate &C : Result.Certificates) {
      if (C.Class == RuleClass::Unfireable)
        ++Unfireable;
      else if (C.Class == RuleClass::CostDominated)
        ++Dominated;
      else
        ++Shadowed;
    }
    std::fprintf(stderr,
                 "selgen-minimize: %s: %llu rules -> %llu "
                 "(deleted %zu: %zu unfireable, %zu shadowed, "
                 "%zu cost-dominated; policy %s, model %s, "
                 "%llu SMT queries, %llu inconclusive kept their rule)\n",
                 LibraryPath.c_str(),
                 static_cast<unsigned long long>(Result.RulesBefore),
                 static_cast<unsigned long long>(Result.RulesAfter),
                 Result.Certificates.size(), Unfireable, Shadowed, Dominated,
                 minimizePolicyName(Options.Policy),
                 costKindName(Options.Model),
                 static_cast<unsigned long long>(Result.SmtQueries),
                 static_cast<unsigned long long>(Result.SmtInconclusive));
  }
  return 0;
}
