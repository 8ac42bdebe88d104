//===- selgen-lint.cpp - Audit rule libraries and IR files -----------------===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
// Static auditor for the artifacts the pipeline ships: synthesized
// rule libraries (.dat) and textual IR files. Backed by the known-bits
// and value-range dataflow framework (src/analysis) plus targeted SMT
// queries:
//
//   * unsat-precondition (error): a rule's shift precondition P+ can
//     never hold; the rule is dead and, since synthesis asserts P+,
//     evidence of a corrupted library.
//   * shadowed-rule (warning): an earlier, more general rule claims
//     every subject this rule matches.
//   * cost-dominated (warning): a shadowing rule is also no cheaper
//     under every shipped cost model, so not even cost-minimal tiling
//     (selgen-compile --cost-model latency|size) can ever pick this
//     rule.
//   * inapplicable-jump-rule (warning): a compare-and-jump rule the
//     selection engine never tries.
//   * non-normalized-rule (warning): normalized subjects can never
//     match the pattern.
//   * malformed-ir / verifier-error / ub-shift (error) and
//     unproven-shift (note) for IR files.
//
//   selgen-lint --width 8 --library rule-library-basic-w8.dat
//       --output findings.json examples/ir/*.ir
//
// Exit code: 0 clean (or warnings only), 1 findings with severity
// error, 2 usage errors. CI gates on the exit code and archives the
// findings JSON.
//
//===----------------------------------------------------------------------===//

#include "analysis/RuleAudit.h"
#include "support/AtomicFile.h"
#include "support/CommandLine.h"
#include "support/StringUtils.h"

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
      "library",  "width",        "output",
      "baseline", "all-subsumers", "smt-timeout-ms",
      "quiet",    "no-shadowing", "no-preconditions",
      "help"};
  CommandLine Cli(argc, argv, Flags);
  if (!Cli.errors().empty() || Cli.hasFlag("help")) {
    for (const std::string &Error : Cli.errors())
      std::fprintf(stderr, "%s\n", Error.c_str());
    std::fprintf(stderr,
                 "%s [ir-file...]\n",
                 CommandLine::usage("selgen-lint", Flags).c_str());
    return Cli.hasFlag("help") ? 0 : 2;
  }

  std::string BadNumber;
  std::optional<unsigned> WidthOption =
      Cli.checkedOption("width", 8, NumberRule::Width, BadNumber);
  if (!WidthOption) {
    std::fprintf(stderr, "error: %s\n", BadNumber.c_str());
    return 2;
  }
  unsigned Width = *WidthOption;
  LintOptions Options;
  Options.SmtTimeoutMs =
      static_cast<unsigned>(Cli.intOption("smt-timeout-ms", 10000));
  Options.CheckShadowing = !Cli.hasFlag("no-shadowing");
  Options.CheckPreconditions = !Cli.hasFlag("no-preconditions");
  Options.ReportAllSubsumers = Cli.hasFlag("all-subsumers");

  // --baseline FILE: a previously-published findings report whose
  // fingerprints are treated as acknowledged; matching findings are
  // suppressed so CI gates on *new* findings only.
  std::set<std::string> Baseline;
  std::string BaselinePath = Cli.stringOption("baseline", "");
  if (!BaselinePath.empty()) {
    std::string BaselineText;
    if (!readFileToString(BaselinePath, BaselineText)) {
      std::fprintf(stderr, "selgen-lint: cannot read baseline %s\n",
                   BaselinePath.c_str());
      return 2;
    }
    Baseline = parseBaselineFingerprints(BaselineText);
  }

  std::vector<LintFinding> Findings;

  std::string LibraryList = Cli.stringOption("library", "");
  std::vector<std::string> LibraryPaths;
  if (!LibraryList.empty())
    for (const std::string &Part : splitString(LibraryList, ','))
      LibraryPaths.push_back(trimString(Part));

  if (LibraryPaths.empty() && Cli.positional().empty()) {
    std::fprintf(stderr, "selgen-lint: nothing to audit "
                         "(pass --library and/or IR files)\n");
    return 2;
  }

  std::optional<GoalLibrary> Goals;
  for (const std::string &Path : LibraryPaths) {
    std::string Text;
    if (!readFileToString(Path, Text)) {
      LintFinding F;
      F.Code = "unreadable-file";
      F.Severity = "error";
      F.Message = "cannot read rule library";
      F.Library = Path;
      Findings.push_back(std::move(F));
      continue;
    }
    std::string Error;
    PatternDatabase Database = PatternDatabase::deserialize(Text, &Error);
    if (!Error.empty()) {
      LintFinding F;
      F.Code = "malformed-library";
      F.Severity = "error";
      F.Message = Error;
      F.Library = Path;
      Findings.push_back(std::move(F));
      continue;
    }
    // Audit the library as shipped: no non-normalized filter (that is
    // one of the findings), but the deterministic priority sort every
    // selector applies.
    Database.sortSpecificFirst();
    if (!Goals)
      Goals.emplace(GoalLibrary::build(Width, GoalLibrary::allGroups()));
    PreparedLibrary Library(Database, *Goals);
    std::vector<LintFinding> LibraryFindings =
        auditPreparedLibrary(Library, Width, Path, Options);
    std::fprintf(stderr, "selgen-lint: %s: %zu rules, %zu findings\n",
                 Path.c_str(), Library.rules().size(),
                 LibraryFindings.size());
    for (LintFinding &F : LibraryFindings)
      Findings.push_back(std::move(F));
  }

  for (const std::string &Path : Cli.positional()) {
    std::string Text;
    if (!readFileToString(Path, Text)) {
      LintFinding F;
      F.Code = "unreadable-file";
      F.Severity = "error";
      F.Message = "cannot read IR file";
      F.File = Path;
      Findings.push_back(std::move(F));
      continue;
    }
    std::vector<LintFinding> FileFindings = auditIrText(Text, Path);
    for (LintFinding &F : FileFindings)
      Findings.push_back(std::move(F));
  }

  // Tool-level findings (unreadable/malformed inputs) get a stable
  // fingerprint too, mirroring the audit's file-finding scheme.
  for (LintFinding &F : Findings)
    if (F.Fingerprint.empty())
      F.Fingerprint = crc32Hex(F.Code + "|" +
                               (F.File.empty() ? F.Library : F.File) + "|" +
                               F.Message);

  size_t Suppressed = suppressBaselinedFindings(Findings, Baseline);
  if (Suppressed > 0)
    std::fprintf(stderr,
                 "selgen-lint: %zu finding(s) suppressed by baseline %s\n",
                 Suppressed, BaselinePath.c_str());

  if (!Cli.hasFlag("quiet"))
    for (const LintFinding &F : Findings) {
      const std::string &Subject = F.File.empty() ? F.Library : F.File;
      if (F.RuleIndex >= 0)
        std::fprintf(stderr, "%s: rule #%d (%s): %s: %s [%s]\n",
                     Subject.c_str(), F.RuleIndex, F.Goal.c_str(),
                     F.Severity.c_str(), F.Message.c_str(), F.Code.c_str());
      else
        std::fprintf(stderr, "%s: %s: %s [%s]\n", Subject.c_str(),
                     F.Severity.c_str(), F.Message.c_str(), F.Code.c_str());
    }

  std::string Json = findingsToJson(Findings, Suppressed);
  std::string OutputPath = Cli.stringOption("output", "");
  if (!OutputPath.empty()) {
    // Atomic publish: CI archives this file; never let it be torn.
    if (!writeFileAtomic(OutputPath, Json)) {
      std::fprintf(stderr, "error: cannot write %s\n", OutputPath.c_str());
      return 2;
    }
  } else {
    std::fputs(Json.c_str(), stdout);
  }

  return lintHasErrors(Findings) ? 1 : 0;
}
