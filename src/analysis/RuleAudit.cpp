//===- RuleAudit.cpp - Rule-library and IR-file linting ---------*- C++ -*-===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//

#include "analysis/RuleAudit.h"

#include "analysis/Dataflow.h"
#include "analysis/Subsumption.h"
#include "ir/Parser.h"
#include "ir/Verifier.h"
#include "semantics/IrSemantics.h"
#include "smt/SmtContext.h"
#include "support/AtomicFile.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <utility>

using namespace selgen;

namespace {

LintFinding libraryFinding(std::string Code, std::string Severity,
                           std::string Message, const std::string &Library,
                           const PreparedRule &R) {
  LintFinding F;
  F.Code = std::move(Code);
  F.Severity = std::move(Severity);
  F.Message = std::move(Message);
  F.Library = Library;
  F.Goal = R.Goal->Name;
  F.RuleIndex = static_cast<int>(R.Index);
  // Stable across reorderings and unrelated edits: a library finding
  // is identified by what it says (code) about which rule (goal +
  // canonical pattern content), never by the rule's current priority
  // index. The baseline machinery keys on this.
  F.Fingerprint = crc32Hex(F.Code + "|" + F.Goal + "|" +
                           R.TheRule->Pattern.fingerprint());
  return F;
}

LintFinding fileFinding(std::string Code, std::string Severity,
                        std::string Message, const std::string &File) {
  LintFinding F;
  F.Code = std::move(Code);
  F.Severity = std::move(Severity);
  F.Message = std::move(Message);
  F.File = File;
  F.Fingerprint = crc32Hex(F.Code + "|" + F.File + "|" + F.Message);
  return F;
}

/// Flags rules whose shift precondition P+ is unsatisfiable: the rule
/// can never fire on a defined execution, so it is dead weight (and,
/// since CEGIS asserts P+ during synthesis, evidence of a corrupted or
/// hand-edited library). The dataflow analysis pre-filters cheaply; one
/// SMT query per flagged rule confirms before we report an error.
void checkPreconditions(const PreparedLibrary &Library, unsigned Width,
                        const std::string &LibraryName,
                        const LintOptions &Options,
                        std::vector<LintFinding> &Findings) {
  for (const PreparedRule &R : Library.rules()) {
    const Graph &Pattern = R.TheRule->Pattern;
    GraphFacts Facts(Pattern);
    const Node *Violating = nullptr;
    for (const Node *N : Pattern.nodes()) {
      Opcode Op = N->opcode();
      if (Op != Opcode::Shl && Op != Opcode::Shr && Op != Opcode::Shrs)
        continue;
      if (Facts.provesShiftOutOfRange(N)) {
        Violating = N;
        break;
      }
    }
    if (!Violating)
      continue;

    SmtContext Smt;
    SmtSolver Solver(Smt);
    Solver.setTimeoutMilliseconds(Options.SmtTimeoutMs);
    SymbolicPattern Sym(Smt, Pattern, "p");
    Solver.add(Smt.mkAnd(Sym.shiftPreconditions()));
    SmtResult Result = Solver.check();

    std::ostringstream Msg;
    Msg << opcodeName(Violating->opcode()) << " amount is provably >= "
        << Width << " (analysis range [0x"
        << Facts.fact(Violating->operand(1)).umin().toHexString() << ", 0x"
        << Facts.fact(Violating->operand(1)).umax().toHexString() << "])";
    if (Result == SmtResult::Unsat) {
      Msg << "; SMT confirms the precondition is unsatisfiable, the rule "
             "can never fire";
      Findings.push_back(libraryFinding("unsat-precondition", "error",
                                        Msg.str(), LibraryName, R));
    } else {
      // The analysis is sound, so this branch means the solver timed
      // out (or the fact machinery regressed) — surface it, softly.
      Msg << "; SMT did not confirm (solver "
          << (Result == SmtResult::Sat ? "sat" : "unknown") << ")";
      Findings.push_back(libraryFinding("unsat-precondition", "note",
                                        Msg.str(), LibraryName, R));
    }
  }
}

/// Flags rules whose pattern is not in normal form: the compiler
/// normalizes every block body before selection, so such a pattern can
/// never appear as a subject (Section 5.6 filters them at preparation
/// time; a shipped library that still carries them wastes matching
/// work and rule-count budget).
void checkNormalization(const PreparedLibrary &Library,
                        const std::string &LibraryName,
                        std::vector<LintFinding> &Findings) {
  for (const PreparedRule &R : Library.rules())
    if (!R.TheRule->inNormalForm())
      Findings.push_back(libraryFinding(
          "non-normalized-rule", "warning",
          "pattern is not in normal form; normalized subjects can never "
          "match it",
          LibraryName, R));
}

/// Flags jump rules the selection engine can never try: the automaton
/// compiler (and the engine's candidate enumeration) only admits
/// compare-and-jump rules rooted at a Cond whose first boolean result
/// is the taken output.
void checkJumpApplicability(const PreparedLibrary &Library,
                            const std::string &LibraryName,
                            std::vector<LintFinding> &Findings) {
  for (const PreparedRule &R : Library.rules()) {
    if (!R.IsJumpRule)
      continue;
    if (R.Root->opcode() != Opcode::Cond) {
      Findings.push_back(libraryFinding(
          "inapplicable-jump-rule", "warning",
          "compare-and-jump rule is not rooted at a Cond operation; the "
          "selection engine never tries it",
          LibraryName, R));
    } else if (!R.TakenIsCondZero) {
      Findings.push_back(libraryFinding(
          "inapplicable-jump-rule", "warning",
          "compare-and-jump rule wires the taken edge to the Cond "
          "fall-through result; the selection engine never tries it",
          LibraryName, R));
    }
  }
}

/// Flags rules shadowed by an earlier, more general rule: whenever the
/// later rule's pattern matches a subject, the earlier rule already
/// matches at the same root with at least the same results, and its
/// precondition is entailed — so the later rule can never fire. The
/// discrimination tree proposes candidates (treating the later pattern
/// as a subject), a structural match plus a result-coverage check
/// confirms the shape, and an SMT query sat(P_B and not P_A) == Unsat
/// discharges the preconditions.
///
/// The same scan also powers the cost-dominated finding. Shadowing
/// alone stopped being a death sentence when cost-minimal tiling
/// landed: a shadowed-but-cheaper rule can still fire under a cost
/// model (`--cost-model latency` picks add_ri over the more general
/// add_rr on add(x, const)). A rule is only truly unreachable when an
/// earlier subsumer is also no more expensive under every
/// cost-consulting shipped model (latency and size; the unit model is
/// first-match and ignores rule costs) — then neither first-match nor
/// any cost-minimal cover can ever prefer it.
void checkShadowing(const PreparedLibrary &Library,
                    const std::string &LibraryName,
                    const LintOptions &Options,
                    std::vector<LintFinding> &Findings) {
  const std::vector<PreparedRule> &Rules = Library.rules();

  SubsumptionOptions SubOptions;
  SubOptions.SmtTimeoutMs = Options.SmtTimeoutMs;
  SubsumptionRelation Relation = computeSubsumption(Library, SubOptions);

  for (const PreparedRule &B : Rules) {
    // Presentation-layer dedup: by default one shadowed-rule and one
    // cost-dominated finding per rule (citing the highest-priority
    // subsumer of each kind) keeps the report readable; the minimizer
    // and --all-subsumers consumers get every pair.
    bool ReportedShadow = false;
    bool ReportedDomination = false;
    for (uint32_t EdgeIdx : Relation.SubsumedBy[B.Index]) {
      const SubsumptionEdge &Edge = Relation.Edges[EdgeIdx];
      const PreparedRule &A = Rules[Edge.Subsumer];

      if (Options.ReportAllSubsumers || !ReportedShadow) {
        ReportedShadow = true;
        std::ostringstream Msg;
        Msg << "rule is shadowed by the more general rule #" << A.Index
            << " (goal " << A.Goal->Name
            << "): every subject this rule matches is already claimed by "
               "the earlier rule";
        Findings.push_back(libraryFinding("shadowed-rule", "warning",
                                          Msg.str(), LibraryName, B));
      }

      // Cost domination: B can never beat this subsumer under any
      // shipped cost-consulting model either. Strictly worse somewhere
      // (equal-cost duplicates are plain shadows; ties already break
      // toward A's earlier index).
      bool NoCheaperModel = B.Cost.Latency >= A.Cost.Latency &&
                            B.Cost.Size >= A.Cost.Size;
      bool StrictlyWorse = B.Cost.Latency > A.Cost.Latency ||
                           B.Cost.Size > A.Cost.Size;
      if ((Options.ReportAllSubsumers || !ReportedDomination) &&
          NoCheaperModel && StrictlyWorse) {
        ReportedDomination = true;
        std::ostringstream Msg;
        Msg << "rule is cost-dominated by rule #" << A.Index << " (goal "
            << A.Goal->Name << "): it matches no subject rule #" << A.Index
            << " misses and costs no less under every shipped cost model "
               "(latency "
            << B.Cost.Latency << " vs " << A.Cost.Latency << ", size "
            << B.Cost.Size << " vs " << A.Cost.Size
            << "); neither first-match nor cost-minimal tiling can select "
               "it";
        Findings.push_back(libraryFinding("cost-dominated", "warning",
                                          Msg.str(), LibraryName, B));
      }
      if (!Options.ReportAllSubsumers && ReportedShadow && ReportedDomination)
        break; // One finding of each kind per rule is enough.
    }
  }
}

void appendJsonString(std::ostringstream &Out, const std::string &S) {
  Out << '"';
  for (char C : S) {
    switch (C) {
    case '"':
      Out << "\\\"";
      break;
    case '\\':
      Out << "\\\\";
      break;
    case '\n':
      Out << "\\n";
      break;
    case '\t':
      Out << "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20)
        Out << ' ';
      else
        Out << C;
    }
  }
  Out << '"';
}

} // namespace

std::vector<LintFinding>
selgen::auditPreparedLibrary(const PreparedLibrary &Library, unsigned Width,
                             const std::string &LibraryName,
                             const LintOptions &Options) {
  std::vector<LintFinding> Findings;
  checkNormalization(Library, LibraryName, Findings);
  checkJumpApplicability(Library, LibraryName, Findings);
  if (Options.CheckPreconditions)
    checkPreconditions(Library, Width, LibraryName, Options, Findings);
  if (Options.CheckShadowing)
    checkShadowing(Library, LibraryName, Options, Findings);
  return Findings;
}

std::vector<LintFinding> selgen::auditIrText(const std::string &Text,
                                             const std::string &FileName) {
  std::vector<LintFinding> Findings;
  std::string Error;
  std::optional<Graph> G = parseGraph(Text, &Error);
  if (!G) {
    Findings.push_back(fileFinding("malformed-ir", "error", Error, FileName));
    return Findings;
  }

  for (const std::string &Problem : verifyGraph(*G))
    Findings.push_back(fileFinding("verifier-error", "error", Problem,
                                   FileName));

  GraphFacts Facts(*G);
  unsigned W = G->width();
  for (const Node *N : G->nodes()) {
    Opcode Op = N->opcode();
    if (Op != Opcode::Shl && Op != Opcode::Shr && Op != Opcode::Shrs)
      continue;
    std::ostringstream Msg;
    if (Facts.provesShiftOutOfRange(N)) {
      Msg << opcodeName(Op) << " node #" << N->id()
          << " always shifts by >= " << W << ": undefined behavior";
      Findings.push_back(fileFinding("ub-shift", "error", Msg.str(),
                                     FileName));
    } else if (!Facts.provesShiftInRange(N)) {
      Msg << opcodeName(Op) << " node #" << N->id()
          << " has an unproven shift amount (range [0x"
          << Facts.fact(N->operand(1)).umin().toHexString() << ", 0x"
          << Facts.fact(N->operand(1)).umax().toHexString() << "])";
      Findings.push_back(fileFinding("unproven-shift", "note", Msg.str(),
                                     FileName));
    }
  }
  return Findings;
}

std::string selgen::findingsToJson(const std::vector<LintFinding> &Findings,
                                   size_t Suppressed) {
  unsigned Errors = 0, Warnings = 0, Notes = 0;
  for (const LintFinding &F : Findings) {
    if (F.Severity == "error")
      ++Errors;
    else if (F.Severity == "warning")
      ++Warnings;
    else
      ++Notes;
  }

  std::ostringstream Out;
  Out << "{\n  \"errors\": " << Errors << ",\n  \"warnings\": " << Warnings
      << ",\n  \"notes\": " << Notes << ",\n  \"suppressed\": " << Suppressed
      << ",\n  \"findings\": [";
  bool First = true;
  for (const LintFinding &F : Findings) {
    Out << (First ? "\n" : ",\n") << "    {\"code\": ";
    appendJsonString(Out, F.Code);
    Out << ", \"severity\": ";
    appendJsonString(Out, F.Severity);
    if (!F.Fingerprint.empty()) {
      Out << ", \"fingerprint\": ";
      appendJsonString(Out, F.Fingerprint);
    }
    if (!F.Library.empty()) {
      Out << ", \"library\": ";
      appendJsonString(Out, F.Library);
    }
    if (!F.Goal.empty()) {
      Out << ", \"goal\": ";
      appendJsonString(Out, F.Goal);
    }
    if (F.RuleIndex >= 0)
      Out << ", \"ruleIndex\": " << F.RuleIndex;
    if (!F.File.empty()) {
      Out << ", \"file\": ";
      appendJsonString(Out, F.File);
    }
    Out << ", \"message\": ";
    appendJsonString(Out, F.Message);
    Out << "}";
    First = false;
  }
  Out << (First ? "]" : "\n  ]") << "\n}\n";
  return Out.str();
}

std::set<std::string> selgen::parseBaselineFingerprints(
    const std::string &BaselineJson) {
  // The baseline is a previously-published findings report; all we
  // need back out of it are the "fingerprint" values. A targeted scan
  // keeps us independent of the (flat-object) JSON helpers, which do
  // not parse nested documents.
  std::set<std::string> Fingerprints;
  const std::string Key = "\"fingerprint\"";
  size_t Pos = 0;
  while ((Pos = BaselineJson.find(Key, Pos)) != std::string::npos) {
    Pos += Key.size();
    while (Pos < BaselineJson.size() &&
           (BaselineJson[Pos] == ' ' || BaselineJson[Pos] == ':'))
      ++Pos;
    if (Pos >= BaselineJson.size() || BaselineJson[Pos] != '"')
      continue;
    size_t End = BaselineJson.find('"', Pos + 1);
    if (End == std::string::npos)
      break;
    Fingerprints.insert(BaselineJson.substr(Pos + 1, End - Pos - 1));
    Pos = End + 1;
  }
  return Fingerprints;
}

size_t selgen::suppressBaselinedFindings(
    std::vector<LintFinding> &Findings,
    const std::set<std::string> &Baseline) {
  size_t Before = Findings.size();
  Findings.erase(std::remove_if(Findings.begin(), Findings.end(),
                                [&](const LintFinding &F) {
                                  return !F.Fingerprint.empty() &&
                                         Baseline.count(F.Fingerprint) > 0;
                                }),
                 Findings.end());
  return Before - Findings.size();
}

bool selgen::lintHasErrors(const std::vector<LintFinding> &Findings) {
  for (const LintFinding &F : Findings)
    if (F.Severity == "error")
      return true;
  return false;
}
