//===- LibraryMinimizer.cpp - Proof-carrying dead-rule elimination --------===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//

#include "analysis/LibraryMinimizer.h"

#include "isel/PreparedLibrary.h"
#include "support/AtomicFile.h"
#include "support/Json.h"
#include "support/Statistics.h"

#include <map>
#include <sstream>

using namespace selgen;

const char *selgen::ruleClassName(RuleClass Class) {
  switch (Class) {
  case RuleClass::Live:
    return "live";
  case RuleClass::Unfireable:
    return "unfireable";
  case RuleClass::Shadowed:
    return "shadowed";
  case RuleClass::CostDominated:
    return "cost-dominated";
  }
  return "live";
}

const char *selgen::minimizePolicyName(MinimizePolicy Policy) {
  return Policy == MinimizePolicy::FirstMatch ? "first-match" : "dominated";
}

namespace {

/// What one pass over a pattern's live shift operations found.
struct ShiftAmountScan {
  bool HasLiveShift = false;
  bool AllAmountsConst = true;
  bool AnyConstOutOfRange = false;
};

} // namespace

static ShiftAmountScan scanShiftAmounts(const Graph &Pattern) {
  ShiftAmountScan Scan;
  unsigned W = Pattern.width();
  for (Node *N : Pattern.liveNodes()) {
    Opcode Op = N->opcode();
    if (Op != Opcode::Shl && Op != Opcode::Shr && Op != Opcode::Shrs)
      continue;
    Scan.HasLiveShift = true;
    const Node *Amount = N->operand(1).Def;
    if (Amount->opcode() != Opcode::Const) {
      Scan.AllAmountsConst = false;
      continue;
    }
    const BitValue &Value = Amount->constValue();
    if (Value.uge(BitValue(Value.width(), W)))
      Scan.AnyConstOutOfRange = true;
  }
  return Scan;
}

MinimizeResult selgen::minimizeLibrary(const PatternDatabase &Database,
                                       const GoalLibrary &Goals,
                                       const MinimizeOptions &Options) {
  MinimizeResult Result;
  Result.RulesBefore = Database.size();

  // Preparation shares the database's rules and takes them in
  // specific-first order, so the input database order does not matter;
  // the goal|fingerprint key ties prepared verdicts back to database
  // rules below.
  PreparedLibrary Library(Database, Goals);
  const std::vector<PreparedRule> &Rules = Library.rules();
  Result.PreparedRules = Rules.size();
  Result.FingerprintBefore = Library.fingerprint();

  std::vector<bool> Kept(Rules.size(), true);
  Result.Classes.assign(Rules.size(), RuleClass::Live);

  // --- Unfireable rules: P+ unsatisfiable -----------------------------
  // Scoped to rules whose every live shift amount is a literal
  // constant (see the soundness contract in the header); the scan also
  // skips the SMT query unless some constant is actually out of range
  // — with all constants in range P+ is a conjunction of true ground
  // facts and trivially satisfiable.
  for (const PreparedRule &R : Rules) {
    const Graph &Pattern = R.TheRule->Pattern;
    ShiftAmountScan Scan = scanShiftAmounts(Pattern);
    if (!Scan.HasLiveShift || !Scan.AllAmountsConst ||
        !Scan.AnyConstOutOfRange)
      continue;
    // The certificate's proof obligation is P+ itself: ground by
    // construction, so the solver decides it instantly — but a fault-
    // injected or genuinely wedged solver still degrades to "keep".
    SmtContext Smt;
    SymbolicPattern Sym(Smt, Pattern, "p");
    z3::expr Conjunction = Smt.mkAnd(Sym.shiftPreconditions());
    std::ostringstream Query;
    Query << "unsat " << Conjunction;
    SmtSolver Solver(Smt);
    Solver.setTimeoutMilliseconds(Options.SmtTimeoutMs);
    Solver.add(Conjunction);
    SmtResult SatResult = Solver.check();
    ++Result.SmtQueries;
    if (SatResult != SmtResult::Unsat) {
      if (SatResult == SmtResult::Unknown)
        ++Result.SmtInconclusive;
      continue;
    }
    Kept[R.Index] = false;
    Result.Classes[R.Index] = RuleClass::Unfireable;
    DeletionCertificate Cert;
    Cert.RuleIndex = R.Index;
    Cert.Goal = R.Goal->Name;
    Cert.PatternFingerprint = crc32Hex(Pattern.fingerprint());
    Cert.Class = RuleClass::Unfireable;
    Cert.NeededSmt = true;
    Cert.SmtQueryFingerprint = crc32Hex(Query.str());
    Cert.Cost = R.Cost;
    Result.Certificates.push_back(std::move(Cert));
  }

  SubsumptionOptions SubOptions;
  SubOptions.SmtTimeoutMs = Options.SmtTimeoutMs;
  SubsumptionRelation Relation = computeSubsumption(Library, SubOptions);
  Result.SmtQueries += Relation.SmtQueries;
  Result.SmtInconclusive += Relation.SmtInconclusive;

  // Decide the remaining fates in ascending priority order so every
  // deletion can only lean on a subsumer that is itself kept: in a
  // shadow chain A > B > C, B dies citing A, and by the time C is
  // decided B is already dead — C cites the transitive survivor A.
  // Unfireable rules are already dead and never serve as survivors.
  for (const PreparedRule &B : Rules) {
    if (!Kept[B.Index])
      continue;
    const SubsumptionEdge *Survivor = nullptr;   // Lowest kept subsumer.
    const SubsumptionEdge *CostSafe = nullptr;   // ... costing no more.
    for (uint32_t EdgeIdx : Relation.SubsumedBy[B.Index]) {
      const SubsumptionEdge &Edge = Relation.Edges[EdgeIdx];
      if (!Kept[Edge.Subsumer])
        continue;
      if (!Survivor)
        Survivor = &Edge;
      const PreparedRule &A = Rules[Edge.Subsumer];
      if (!CostSafe && A.Cost.get(Options.Model) <= B.Cost.get(Options.Model))
        CostSafe = &Edge;
      if (Survivor && CostSafe)
        break;
    }
    if (!Survivor)
      continue; // Live.

    Result.Classes[B.Index] =
        CostSafe ? RuleClass::CostDominated : RuleClass::Shadowed;
    const SubsumptionEdge *Cited =
        Options.Policy == MinimizePolicy::Dominated ? CostSafe
                                                    : (CostSafe ? CostSafe
                                                                : Survivor);
    if (!Cited)
      continue; // Dominated policy, but only plain shadowing: keep.

    Kept[B.Index] = false;
    const PreparedRule &A = Rules[Cited->Subsumer];
    DeletionCertificate Cert;
    Cert.RuleIndex = B.Index;
    Cert.Goal = B.Goal->Name;
    Cert.PatternFingerprint = crc32Hex(B.TheRule->Pattern.fingerprint());
    Cert.Class = Result.Classes[B.Index];
    Cert.SubsumerIndex = A.Index;
    Cert.SubsumerGoal = A.Goal->Name;
    Cert.SubsumerPatternFingerprint =
        crc32Hex(A.TheRule->Pattern.fingerprint());
    Cert.NeededSmt = Cited->NeededSmt;
    Cert.SmtQueryFingerprint = Cited->QueryFingerprint;
    Cert.Cost = B.Cost;
    Cert.SubsumerCost = A.Cost;
    Result.Certificates.push_back(std::move(Cert));
  }

  // Rebuild the database in its original rule order. Rules the
  // preparation could not see (unresolved goals, the rootless
  // immediate-move identity, never-tried jump variants) have no
  // prepared verdict and pass through untouched.
  std::map<std::string, uint32_t> PreparedIndex;
  for (const PreparedRule &R : Rules)
    PreparedIndex.emplace(
        R.TheRule->GoalName + "|" + R.TheRule->Pattern.fingerprint(),
        R.Index);
  for (const Rule &R : Database.rules()) {
    auto It = PreparedIndex.find(R.GoalName + "|" + R.Pattern.fingerprint());
    if (It == PreparedIndex.end())
      ++Result.UnpreparedKept;
    else if (!Kept[It->second])
      continue;
    Result.Minimized.add(R.GoalName, R.Pattern.clone());
  }
  Result.RulesAfter = Result.Minimized.size();

  {
    PreparedLibrary After(Result.Minimized, Goals);
    Result.FingerprintAfter = After.fingerprint();
  }

  Statistics &Stats = Statistics::get();
  Stats.add("minimize.rules_before", static_cast<int64_t>(Result.RulesBefore));
  Stats.add("minimize.rules_after", static_cast<int64_t>(Result.RulesAfter));
  Stats.add("minimize.rules_deleted",
            static_cast<int64_t>(Result.Certificates.size()));
  Stats.add("minimize.smt_queries", static_cast<int64_t>(Result.SmtQueries));
  Stats.add("minimize.smt_inconclusive",
            static_cast<int64_t>(Result.SmtInconclusive));
  return Result;
}

std::string selgen::certificatesToJson(const MinimizeResult &Result,
                                       const MinimizeOptions &Options,
                                       const std::string &LibraryName) {
  std::ostringstream Out;
  Out << "{\n"
      << "  \"library\": \"" << jsonEscape(LibraryName) << "\",\n"
      << "  \"policy\": \"" << minimizePolicyName(Options.Policy) << "\",\n"
      << "  \"costModel\": \"" << costKindName(Options.Model) << "\",\n"
      << "  \"fingerprintBefore\": \"" << jsonEscape(Result.FingerprintBefore)
      << "\",\n"
      << "  \"fingerprintAfter\": \"" << jsonEscape(Result.FingerprintAfter)
      << "\",\n"
      << "  \"rulesBefore\": " << Result.RulesBefore << ",\n"
      << "  \"rulesAfter\": " << Result.RulesAfter << ",\n"
      << "  \"preparedRules\": " << Result.PreparedRules << ",\n"
      << "  \"unpreparedKept\": " << Result.UnpreparedKept << ",\n"
      << "  \"deleted\": " << Result.Certificates.size() << ",\n"
      << "  \"smtQueries\": " << Result.SmtQueries << ",\n"
      << "  \"smtInconclusive\": " << Result.SmtInconclusive << ",\n"
      << "  \"deletions\": [";
  bool First = true;
  for (const DeletionCertificate &C : Result.Certificates) {
    Out << (First ? "\n" : ",\n") << "    {\"ruleIndex\": " << C.RuleIndex
        << ", \"goal\": \"" << jsonEscape(C.Goal) << "\""
        << ", \"pattern\": \"" << C.PatternFingerprint << "\""
        << ", \"class\": \"" << ruleClassName(C.Class) << "\"";
    if (C.Class != RuleClass::Unfireable)
      Out << ", \"subsumerIndex\": " << C.SubsumerIndex
          << ", \"subsumerGoal\": \"" << jsonEscape(C.SubsumerGoal) << "\""
          << ", \"subsumerPattern\": \"" << C.SubsumerPatternFingerprint
          << "\"";
    Out << ", \"smtQuery\": \""
        << (C.NeededSmt ? C.SmtQueryFingerprint : std::string()) << "\""
        << ", \"cost\": {\"instructions\": " << C.Cost.Instructions
        << ", \"latency\": " << C.Cost.Latency << ", \"size\": " << C.Cost.Size
        << "}";
    if (C.Class != RuleClass::Unfireable)
      Out << ", \"subsumerCost\": {\"instructions\": "
          << C.SubsumerCost.Instructions
          << ", \"latency\": " << C.SubsumerCost.Latency
          << ", \"size\": " << C.SubsumerCost.Size << "}";
    Out << "}";
    First = false;
  }
  Out << (First ? "]" : "\n  ]") << "\n}\n";
  return Out.str();
}
