//===- SelectionEngine.cpp - Shared rule-driven selection ----------------------===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//

#include "isel/SelectionEngine.h"

#include "analysis/Dataflow.h"
#include "ir/Printer.h"
#include "isel/Lowering.h"
#include "isel/Matcher.h"
#include "matchergen/BinaryAutomaton.h"
#include "support/Error.h"
#include "support/Statistics.h"
#include "support/Timer.h"
#include "x86/MachinePasses.h"

#include <map>
#include <optional>
#include <set>

using namespace selgen;

namespace {

using ValueKey = std::pair<const Node *, unsigned>;

bool StaticPrecondElision = true;

/// Matching-work counters for one select() run.
struct SelectionCounters {
  uint64_t RulesTried = 0;
  uint64_t NodesVisited = 0;
  uint64_t PrecondProved = 0;
};

/// Selection and emission for one basic block.
class BlockSelection {
public:
  BlockSelection(FunctionLowering &Lowering, const BasicBlock *BB)
      : L(Lowering), BB(BB), MB(Lowering.machineBlock(BB)) {}

  struct Selection {
    const Rule *TheRule = nullptr;
    const GoalInstruction *Goal = nullptr;
    MatchResult Match;
    const Node *RootSubject = nullptr;
    std::set<ValueKey> Produced;
    std::optional<CondCode> JumpCC;
  };

  FunctionLowering &L;
  const BasicBlock *BB;
  MachineBlock *MB;

  std::vector<Node *> Live; ///< Non-Arg live nodes, forward order.
  std::map<ValueKey, std::vector<const Node *>> Users;
  std::set<ValueKey> TerminatorUses;
  std::set<const Node *> Covered;
  std::map<const Node *, Selection> SelectionsByRoot;
  std::optional<Selection> BranchSelection;

  unsigned SynthCount = 0, FallbackCount = 0;
  const GoalInstruction *ImmediateMoveGoal = nullptr;

  /// Lazily built known-bits/range facts over the block body, used to
  /// discharge shift preconditions statically.
  std::optional<GraphFacts> Facts;

  /// True if the pattern contains at least one shift and the dataflow
  /// analysis proves every subject value the shifts' amounts matched
  /// to be in [0, width). Constants get singleton facts, so a proof
  /// subsumes the runtime matched-constant re-check: skipping it
  /// cannot change the match decision.
  bool preconditionsProvedStatically(const Graph &Pattern,
                                     const MatchResult &Match) {
    bool SawShift = false;
    for (const Node *PatternNode : Pattern.nodes()) {
      Opcode Op = PatternNode->opcode();
      if (Op != Opcode::Shl && Op != Opcode::Shr && Op != Opcode::Shrs)
        continue;
      auto It = Match.NodeMap.find(PatternNode);
      if (It == Match.NodeMap.end())
        continue; // Dead pattern node; never executed.
      SawShift = true;
      if (!Facts->provesShiftInRange(It->second))
        return false;
    }
    return SawShift;
  }

  /// The precondition gate shared by body and branch selection: prove
  /// statically when possible, fall back to the matched-constant check.
  bool preconditionsHold(const Graph &Pattern, const MatchResult &Match,
                         unsigned Width, SelectionCounters &Counters) {
    if (StaticPrecondElision &&
        preconditionsProvedStatically(Pattern, Match)) {
      ++Counters.PrecondProved;
      return true;
    }
    return matchedConstantsSatisfyPreconditions(Pattern, Match, Width);
  }

  void computeLiveness() {
    std::vector<NodeRef> Roots = BB->terminatorOperands();
    for (const NodeRef &Ref : Roots)
      TerminatorUses.insert({Ref.Def, Ref.Index});
    if (BB->terminator().TermKind == Terminator::Kind::Branch)
      TerminatorUses.insert({BB->terminator().Condition.Def,
                             BB->terminator().Condition.Index});
    for (Node *N : BB->body().liveNodesFrom(Roots)) {
      if (N->opcode() != Opcode::Arg)
        Live.push_back(N);
      for (const NodeRef &Operand : N->operands())
        Users[{Operand.Def, Operand.Index}].push_back(N);
    }
  }

  /// The subject values a rule instance defines, given a match.
  static std::set<ValueKey> producedValues(const Graph &Pattern,
                                           const MatchResult &Match,
                                           const Node *CondRoot) {
    std::set<ValueKey> Produced;
    for (const NodeRef &Ref : Pattern.results()) {
      if (Ref.Def->opcode() == Opcode::Arg || Ref.Def == CondRoot)
        continue;
      auto It = Match.NodeMap.find(Ref.Def);
      if (It != Match.NodeMap.end())
        Produced.insert({It->second, Ref.Index});
    }
    return Produced;
  }

  /// Checks that a match does not overlap earlier selections and that
  /// every matched value with uses outside the match is produced by
  /// the rule (the prototype "strictly avoids overlapping patterns",
  /// Section 7.3).
  bool usageCheckOk(const MatchResult &Match,
                    const std::set<ValueKey> &Produced) {
    std::set<const Node *> Matched(Match.CoveredNodes.begin(),
                                   Match.CoveredNodes.end());
    for (const Node *X : Match.CoveredNodes) {
      if (Covered.count(X))
        return false;
      for (unsigned I = 0; I < X->numResults(); ++I) {
        ValueKey Key{X, I};
        if (Produced.count(Key))
          continue;
        if (TerminatorUses.count(Key))
          return false;
        auto It = Users.find(Key);
        if (It == Users.end())
          continue;
        for (const Node *User : It->second)
          if (!Matched.count(User))
            return false;
      }
    }
    return true;
  }

  void selectBody(RuleCandidateSource &Source, unsigned Width,
                  SelectionCounters &Counters) {
    for (auto It = Live.rbegin(); It != Live.rend(); ++It) {
      Node *S = *It;
      if (Covered.count(S) || S->opcode() == Opcode::Const)
        continue;
      // Bool-only producers (Cmp) are matched as part of their
      // consumers or at the terminator.
      if (S->numResults() == 1 && S->resultSort(0).isBool())
        continue;
      Source.forEachBodyCandidate(S, [&](const PreparedRule &R) {
        ++Counters.RulesTried;
        std::optional<MatchResult> Match =
            matchPattern(R.TheRule->Pattern, R.Goal->Spec->argRoles(),
                         R.Root, S, &Counters.NodesVisited);
        if (!Match)
          return false;
        if (!preconditionsHold(R.TheRule->Pattern, *Match, Width, Counters))
          return false;
        std::set<ValueKey> Produced =
            producedValues(R.TheRule->Pattern, *Match, nullptr);
        bool DefinesRoot = false;
        for (unsigned I = 0; I < S->numResults(); ++I)
          DefinesRoot |= Produced.count({S, I}) != 0;
        if (!DefinesRoot)
          return false; // The match must define this node's values.
        if (!usageCheckOk(*Match, Produced))
          return false;

        Selection Sel;
        Sel.TheRule = R.TheRule;
        Sel.Goal = R.Goal;
        Sel.Match = std::move(*Match);
        Sel.RootSubject = S;
        Sel.Produced = std::move(Produced);
        for (const Node *X : Sel.Match.CoveredNodes)
          Covered.insert(X);
        SelectionsByRoot.emplace(S, std::move(Sel));
        return true;
      });
      // Unselected nodes fall back during emission.
    }
  }

  void selectBranch(RuleCandidateSource &Source, unsigned Width,
                    SelectionCounters &Counters) {
    if (BB->terminator().TermKind != Terminator::Kind::Branch)
      return;
    NodeRef Condition = BB->terminator().Condition;
    Source.forEachJumpCandidate(Condition, [&](const PreparedRule &R) {
      ++Counters.RulesTried;
      std::optional<MatchResult> Match =
          matchPatternValue(R.TheRule->Pattern, R.Goal->Spec->argRoles(),
                            R.Root->operand(0), Condition,
                            &Counters.NodesVisited);
      if (!Match)
        return false;
      if (!preconditionsHold(R.TheRule->Pattern, *Match, Width, Counters))
        return false;
      std::set<ValueKey> Produced =
          producedValues(R.TheRule->Pattern, *Match, R.Root);
      // The branch consumes the condition value itself.
      Produced.insert({Condition.Def, Condition.Index});
      if (!usageCheckOk(*Match, Produced))
        return false;

      Selection Sel;
      Sel.TheRule = R.TheRule;
      Sel.Goal = R.Goal;
      Sel.Match = std::move(*Match);
      Sel.Produced = std::move(Produced);
      for (const Node *X : Sel.Match.CoveredNodes)
        Covered.insert(X);
      BranchSelection = std::move(Sel);
      return true;
    });
  }

  /// Emits one selected rule instance.
  void emitSelection(Selection &Sel) {
    const InstrSpec &Spec = *Sel.Goal->Spec;
    std::vector<MOperand> Args;
    for (unsigned I = 0; I < Spec.argSorts().size(); ++I) {
      NodeRef Binding = Sel.Match.ArgBindings[I];
      if (!Binding.isValid() && Sel.Goal->Spec->argRole(I) != ArgRole::Mem)
        reportFatalError("rule for " + Sel.Goal->Name + " leaves argument " +
                         std::to_string(I) + " unbound (pattern: " +
                         printGraphExpression(Sel.TheRule->Pattern) + ")");
      switch (Spec.argRole(I)) {
      case ArgRole::Mem:
        Args.push_back(MOperand::none());
        break;
      case ArgRole::Imm:
        assert(Binding.Def->opcode() == Opcode::Const &&
               "immediate binding must be a constant");
        Args.push_back(MOperand::imm(Binding.Def->constValue()));
        break;
      case ArgRole::Reg:
      case ArgRole::Addr:
        Args.push_back(materialize(Binding));
        break;
      }
    }
    EmittedGoal Out = Sel.Goal->Emit(L.machineFunction(), Args);
    for (MachineInstr &Instr : Out.Instrs)
      MB->append(std::move(Instr));
    Sel.JumpCC = Out.JumpCC;

    const Graph &Pattern = Sel.TheRule->Pattern;
    for (unsigned R = 0; R < Pattern.results().size(); ++R) {
      const NodeRef &Ref = Pattern.results()[R];
      if (Ref.Def->opcode() == Opcode::Arg)
        continue;
      auto It = Sel.Match.NodeMap.find(Ref.Def);
      if (It == Sel.Match.NodeMap.end())
        continue; // The Cond root of a jump rule.
      L.setValue(NodeRef(const_cast<Node *>(It->second), Ref.Index),
                 Out.Results[R]);
    }
    SynthCount += Sel.Match.CoveredNodes.size();
  }

  /// Materializes a value into a register-or-immediate operand as the
  /// goal's Reg role demands (registers only; constants get a mov).
  MOperand materialize(NodeRef Ref) {
    if (L.hasValue(Ref))
      return L.value(Ref);
    if (Ref.Def->opcode() == Opcode::Const) {
      if (ImmediateMoveGoal) {
        EmittedGoal Out = ImmediateMoveGoal->Emit(
            L.machineFunction(),
            {MOperand::imm(Ref.Def->constValue())});
        for (MachineInstr &Instr : Out.Instrs)
          MB->append(std::move(Instr));
        L.setValue(Ref, Out.Results[0]);
        ++SynthCount;
        return Out.Results[0];
      }
      ++FallbackCount;
      return L.regOperand(MB, Ref);
    }
    return L.regOperand(MB, Ref);
  }

  /// Emits a flag-setting compare for a bool value and returns the
  /// condition code (fallback path for unmatched conditions).
  CondCode emitCondition(NodeRef Condition) {
    const Node *Def = Condition.Def;
    if (Def->opcode() == Opcode::Cmp) {
      MOperand Lhs = materialize(Def->operand(0));
      MOperand Rhs = L.flexOperand(MB, Def->operand(1));
      MB->append({MOpcode::Cmp, CondCode::E, {}, Lhs, Rhs});
      ++FallbackCount;
      return condCodeForRelation(Def->relation());
    }
    reportFatalError("cannot lower branch condition of node #" +
                     std::to_string(Def->id()));
  }

  /// Naive per-operation fallback lowering (counts against coverage).
  void emitFallback(Node *S) {
    unsigned Width = BB->body().width();
    (void)Width;
    auto def = [&](unsigned Index, MOperand Op) {
      L.setValue(NodeRef(S, Index), std::move(Op));
    };
    auto newReg = [&] { return L.machineFunction().newReg(); };

    switch (S->opcode()) {
    case Opcode::Const:
      return; // Materialized on demand.
    case Opcode::Add:
    case Opcode::Sub:
    case Opcode::Mul:
    case Opcode::And:
    case Opcode::Or:
    case Opcode::Xor:
    case Opcode::Shl:
    case Opcode::Shr:
    case Opcode::Shrs: {
      static const std::map<Opcode, MOpcode> Map = {
          {Opcode::Add, MOpcode::Add},  {Opcode::Sub, MOpcode::Sub},
          {Opcode::Mul, MOpcode::Imul}, {Opcode::And, MOpcode::And},
          {Opcode::Or, MOpcode::Or},    {Opcode::Xor, MOpcode::Xor},
          {Opcode::Shl, MOpcode::Shl},  {Opcode::Shr, MOpcode::Shr},
          {Opcode::Shrs, MOpcode::Sar}};
      MOperand Lhs = materialize(S->operand(0));
      MOperand Rhs = L.flexOperand(MB, S->operand(1));
      MReg Dst = newReg();
      MB->append({Map.at(S->opcode()), CondCode::E, MOperand::reg(Dst),
                  Lhs, Rhs});
      def(0, MOperand::reg(Dst));
      break;
    }
    case Opcode::Not:
    case Opcode::Minus: {
      MOperand Src = materialize(S->operand(0));
      MReg Dst = newReg();
      MB->append({S->opcode() == Opcode::Not ? MOpcode::Not : MOpcode::Neg,
                  CondCode::E, MOperand::reg(Dst), Src, {}});
      def(0, MOperand::reg(Dst));
      break;
    }
    case Opcode::Load: {
      MOperand Pointer = materialize(S->operand(1));
      MemRef Ref;
      Ref.Base = Pointer.R;
      MReg Dst = newReg();
      MB->append({MOpcode::Mov, CondCode::E, MOperand::reg(Dst),
                  MOperand::mem(Ref), {}});
      def(0, MOperand::none());
      def(1, MOperand::reg(Dst));
      break;
    }
    case Opcode::Store: {
      MOperand Pointer = materialize(S->operand(1));
      MOperand Value = L.flexOperand(MB, S->operand(2));
      MemRef Ref;
      Ref.Base = Pointer.R;
      MB->append({MOpcode::Mov, CondCode::E, MOperand::mem(Ref), Value, {}});
      def(0, MOperand::none());
      break;
    }
    case Opcode::Mux: {
      MOperand TrueValue = materialize(S->operand(1));
      MOperand FalseValue = materialize(S->operand(2));
      CondCode CC = emitCondition(S->operand(0));
      MReg Dst = newReg();
      MB->append(
          {MOpcode::Cmov, CC, MOperand::reg(Dst), TrueValue, FalseValue});
      def(0, MOperand::reg(Dst));
      break;
    }
    case Opcode::Cmp:
    case Opcode::Cond:
      return; // Handled at their consumers.
    case Opcode::Arg:
      return;
    }
    ++FallbackCount;
  }

  void run(RuleCandidateSource &Source, const GoalInstruction *MovRi,
           unsigned Width, SelectionCounters &Counters) {
    ImmediateMoveGoal = MovRi;
    Facts.emplace(BB->body());
    computeLiveness();
    selectBranch(Source, Width, Counters);
    selectBody(Source, Width, Counters);

    for (Node *S : Live) {
      auto It = SelectionsByRoot.find(S);
      if (It != SelectionsByRoot.end()) {
        emitSelection(It->second);
        continue;
      }
      if (!Covered.count(S))
        emitFallback(S);
    }

    L.lowerTerminator(BB, [this](MachineBlock *, NodeRef Condition) {
      if (BranchSelection) {
        emitSelection(*BranchSelection);
        return *BranchSelection->JumpCC;
      }
      return emitCondition(Condition);
    });
  }
};

} // namespace

SelectionResult selgen::runRuleSelection(const Function &F,
                                         const PreparedLibrary &Library,
                                         RuleCandidateSource &Source,
                                         const std::string &SelectorName) {
  Timer Clock;
  SelectionResult Result;
  FunctionLowering Lowering(F, SelectorName);
  SelectionCounters Counters;

  for (const auto &BB : F.blocks()) {
    BlockSelection Block(Lowering, BB.get());
    Block.run(Source, Library.immediateMoveGoal(), F.width(), Counters);
    Result.CoveredOperations += Block.SynthCount;
    Result.FallbackOperations += Block.FallbackCount;
  }
  Counters.NodesVisited += Source.takeNodesVisited();

  Result.TotalOperations = F.numOperations();
  Result.MF = Lowering.takeMachineFunction();
  removeDeadInstructions(*Result.MF);
  Result.SelectionSeconds = Clock.elapsedSeconds();
  Result.RulesTried = Counters.RulesTried;
  Result.NodesVisited = Counters.NodesVisited;
  Result.PrecondProved = Counters.PrecondProved;
  return Result;
}

void selgen::noteSelectionStatistics(const SelectionResult &Result) {
  Statistics &Stats = Statistics::get();
  Stats.add("selector.rules_tried", static_cast<int64_t>(Result.RulesTried));
  Stats.add("matcher.nodes_visited",
            static_cast<int64_t>(Result.NodesVisited));
  Stats.add("matcher.precond_proved",
            static_cast<int64_t>(Result.PrecondProved));
  Stats.add("selector.select_us",
            static_cast<int64_t>(Result.SelectionSeconds * 1e6));
}

void selgen::noteAutomatonStatistics(const BinaryAutomatonView &View) {
  Statistics &Stats = Statistics::get();
  Stats.add("automaton.states", static_cast<int64_t>(View.numStates()));
  Stats.add("automaton.transitions",
            static_cast<int64_t>(View.numTransitions()));
}

void selgen::setStaticPrecondElision(bool Enabled) {
  StaticPrecondElision = Enabled;
}

bool selgen::staticPrecondElisionEnabled() { return StaticPrecondElision; }
