//===- Subsumption.cpp - Full rule-subsumption relation ---------*- C++ -*-===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//

#include "analysis/Subsumption.h"

#include "matchergen/MatcherAutomaton.h"
#include "semantics/IrSemantics.h"
#include "support/AtomicFile.h"

#include <sstream>

using namespace selgen;

z3::expr SymbolicPattern::value(const Node *Def, unsigned Index) {
  ValueKey Key{Def, Index};
  auto It = Values.find(Key);
  if (It != Values.end())
    return It->second;
  z3::expr E = computeValue(Def, Index);
  Values.emplace(Key, E);
  return E;
}

z3::expr SymbolicPattern::boolean(const Node *Def, unsigned Index) {
  switch (Def->opcode()) {
  case Opcode::Cmp:
    return relationExpr(Def->relation(), value(Def->operand(0)),
                        value(Def->operand(1)));
  case Opcode::Cond: {
    z3::expr Selector = boolean(Def->operand(0).Def, Def->operand(0).Index);
    return Index == 0 ? Selector : !Selector;
  }
  case Opcode::Arg:
    return Smt.boolConst(Prefix + "_b" + std::to_string(Def->id()));
  default:
    // No other opcode produces a bool; keep the query sound anyway.
    return Smt.boolConst(Prefix + "_b" + std::to_string(Def->id()) + "_" +
                         std::to_string(Index));
  }
}

std::vector<z3::expr> SymbolicPattern::shiftPreconditions() {
  std::vector<z3::expr> Conjuncts;
  unsigned W = G.width();
  for (Node *N : G.liveNodes()) {
    Opcode Op = N->opcode();
    if (Op != Opcode::Shl && Op != Opcode::Shr && Op != Opcode::Shrs)
      continue;
    Conjuncts.push_back(
        z3::ult(value(N->operand(1)), Smt.literal(BitValue(W, W))));
  }
  return Conjuncts;
}

z3::expr SymbolicPattern::computeValue(const Node *Def, unsigned Index) {
  unsigned W = G.width();
  switch (Def->opcode()) {
  case Opcode::Const:
    return Smt.literal(Def->constValue());
  case Opcode::Arg:
    return Smt.bvConst(Prefix + "_a" + std::to_string(Def->argIndex()), W);
  case Opcode::Load:
    // Result 1 is the loaded value: unconstrained without a memory
    // model.
    return Smt.bvConst(Prefix + "_ld" + std::to_string(Def->id()), W);
  case Opcode::Add:
    return value(Def->operand(0)) + value(Def->operand(1));
  case Opcode::Sub:
    return value(Def->operand(0)) - value(Def->operand(1));
  case Opcode::Mul:
    return value(Def->operand(0)) * value(Def->operand(1));
  case Opcode::And:
    return value(Def->operand(0)) & value(Def->operand(1));
  case Opcode::Or:
    return value(Def->operand(0)) | value(Def->operand(1));
  case Opcode::Xor:
    return value(Def->operand(0)) ^ value(Def->operand(1));
  case Opcode::Not:
    return ~value(Def->operand(0));
  case Opcode::Minus:
    return -value(Def->operand(0));
  case Opcode::Shl:
    return z3::shl(value(Def->operand(0)), value(Def->operand(1)));
  case Opcode::Shr:
    return z3::lshr(value(Def->operand(0)), value(Def->operand(1)));
  case Opcode::Shrs:
    return z3::ashr(value(Def->operand(0)), value(Def->operand(1)));
  case Opcode::Mux:
    return z3::ite(boolean(Def->operand(0).Def, Def->operand(0).Index),
                   value(Def->operand(1)), value(Def->operand(2)));
  default:
    // Memory tokens and other non-value positions are never asked
    // for; produce a fresh constant rather than crash.
    return Smt.bvConst(Prefix + "_x" + std::to_string(Def->id()) + "_" +
                           std::to_string(Index),
                       W);
  }
}

std::pair<const Node *, unsigned>
selgen::mappedPatternRef(const MatchResult &Match, NodeRef ARef) {
  if (ARef.Def->opcode() == Opcode::Arg) {
    NodeRef Bound = Match.ArgBindings[ARef.Def->argIndex()];
    return {Bound.Def, Bound.Index};
  }
  return {Match.NodeMap.at(ARef.Def), ARef.Index};
}

SubsumptionRelation
selgen::computeSubsumption(const PreparedLibrary &Library,
                           const SubsumptionOptions &Options) {
  const std::vector<PreparedRule> &Rules = Library.rules();
  SubsumptionRelation Relation;
  Relation.SubsumedBy.resize(Rules.size());

  // Mirror the automaton selector: jump rules the engine never tries
  // are excluded (the lint auditor gives them their own finding; the
  // minimizer keeps them untouched because they cannot shadow or be
  // shadowed through the engine).
  std::vector<AutomatonPattern> Patterns;
  for (const PreparedRule &R : Rules) {
    if (R.IsJumpRule &&
        (R.Root->opcode() != Opcode::Cond || !R.TakenIsCondZero))
      continue;
    Patterns.push_back({&R.TheRule->Pattern, R.Root, R.IsJumpRule, R.Index});
  }
  MatcherAutomaton Automaton = MatcherAutomaton::compile(
      Patterns, Library.fingerprint(), static_cast<uint32_t>(Rules.size()));
  const BinaryAutomatonView &View = Automaton.view();

  for (const PreparedRule &B : Rules) {
    bool BApplicableJump =
        B.Root->opcode() == Opcode::Cond && B.TakenIsCondZero;
    if (B.IsJumpRule && !BApplicableJump)
      continue;

    // Candidate earlier rules whose pattern structurally subsumes B's:
    // run B's own pattern through the discrimination tree as if it
    // were a subject block.
    std::vector<uint32_t> Candidates;
    if (B.IsJumpRule)
      View.matchJump(B.Root->operand(0), Candidates);
    else
      View.matchBody(B.Root, Candidates);

    for (uint32_t AIndex : Candidates) {
      if (AIndex >= B.Index)
        break; // Ascending order: only earlier rules shadow.
      const PreparedRule &A = Rules[AIndex];
      if (A.IsJumpRule != B.IsJumpRule)
        continue;

      const std::vector<ArgRole> &Roles = A.Goal->Spec->argRoles();
      std::optional<MatchResult> Match;
      if (B.IsJumpRule)
        Match = matchPatternValue(A.TheRule->Pattern, Roles,
                                  A.Root->operand(0), B.Root->operand(0));
      else
        Match = matchPattern(A.TheRule->Pattern, Roles, A.Root, B.Root);
      if (!Match)
        continue;

      // Terminator matching aligns the condition values, so the Cond
      // nodes themselves are outside the NodeMap; they correspond by
      // construction (both applicable jump roots with matched
      // selectors).
      if (B.IsJumpRule)
        Match->NodeMap.emplace(A.Root, B.Root);

      // A must produce every result B promises (multi-result rules
      // carry memory tokens and jump outcomes in their results).
      std::map<std::pair<const Node *, unsigned>, bool> AProvides;
      for (NodeRef Res : A.TheRule->Pattern.results())
        AProvides[mappedPatternRef(*Match, Res)] = true;
      bool CoversResults = true;
      for (NodeRef Res : B.TheRule->Pattern.results())
        if (!AProvides.count({Res.Def, Res.Index})) {
          CoversResults = false;
          break;
        }
      if (!CoversResults)
        continue;

      // Precondition entailment: on any defined execution of B's
      // pattern, A's (mapped) precondition must hold too. A's
      // precondition bounds its shift amounts; a subsumer without
      // shifts entails trivially and needs no Z3 context (~1-3 ms to
      // build each).
      std::vector<std::pair<const Node *, unsigned>> ShiftAmounts;
      for (Node *N : A.TheRule->Pattern.liveNodes()) {
        Opcode Op = N->opcode();
        if (Op == Opcode::Shl || Op == Opcode::Shr || Op == Opcode::Shrs)
          ShiftAmounts.push_back(mappedPatternRef(*Match, N->operand(1)));
      }

      SubsumptionEdge Edge;
      Edge.Subsumer = AIndex;
      Edge.Subsumed = B.Index;
      bool Entailed = true;
      if (!ShiftAmounts.empty()) {
        SmtContext Smt;
        SymbolicPattern BSym(Smt, B.TheRule->Pattern, "s");
        std::vector<z3::expr> PA;
        unsigned W = B.TheRule->Pattern.width();
        for (auto [Def, Index] : ShiftAmounts)
          PA.push_back(
              z3::ult(BSym.value(Def, Index), Smt.literal(BitValue(W, W))));
        z3::expr Assumption = Smt.mkAnd(BSym.shiftPreconditions());
        z3::expr NegatedGoal = !Smt.mkAnd(PA);
        // Deterministic rendering of the proof obligation: Z3 prints
        // structurally identical terms identically, and the fresh
        // constants are named from stable node ids.
        std::ostringstream Query;
        Query << "assume " << Assumption << "\nrefute " << NegatedGoal;
        Edge.NeededSmt = true;
        Edge.QueryFingerprint = crc32Hex(Query.str());

        SmtSolver Solver(Smt);
        Solver.setTimeoutMilliseconds(Options.SmtTimeoutMs);
        Solver.add(Assumption);
        Solver.add(NegatedGoal);
        SmtResult Result = Solver.check();
        ++Relation.SmtQueries;
        if (Result != SmtResult::Unsat) {
          // Sat: genuinely not entailed. Unknown/timeout: unproven —
          // either way the pair stays out of the relation, so every
          // consumer keeps the rule.
          Entailed = false;
          if (Result == SmtResult::Unknown)
            ++Relation.SmtInconclusive;
        }
      }
      if (!Entailed)
        continue;

      Relation.SubsumedBy[B.Index].push_back(
          static_cast<uint32_t>(Relation.Edges.size()));
      Relation.Edges.push_back(std::move(Edge));
    }
  }
  return Relation;
}
