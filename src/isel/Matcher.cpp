//===- Matcher.cpp - DAG pattern matching -------------------------------------===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//

#include "isel/Matcher.h"

using namespace selgen;

namespace {

/// Recursive structural matcher.
class MatcherState {
public:
  MatcherState(const Graph &Pattern, const std::vector<ArgRole> &Roles,
               uint64_t *NodesVisited)
      : Pattern(Pattern), Roles(Roles), NodesVisited(NodesVisited) {
    Result.ArgBindings.assign(Pattern.numArgs(), NodeRef());
  }

  std::optional<MatchResult> run(const Node *PatternRoot,
                                 const Node *SubjectRoot) {
    if (!matchNode(PatternRoot, SubjectRoot))
      return std::nullopt;
    return finish();
  }

  std::optional<MatchResult> runValue(NodeRef PatternValue,
                                      NodeRef SubjectValue) {
    if (!matchValue(PatternValue, SubjectValue))
      return std::nullopt;
    return finish();
  }

private:
  const Graph &Pattern;
  const std::vector<ArgRole> &Roles;
  uint64_t *NodesVisited;
  MatchResult Result;

  void visit() {
    if (NodesVisited)
      ++*NodesVisited;
  }

  std::optional<MatchResult> finish() {
    for (const auto &[PatternNode, SubjectNode] : Result.NodeMap)
      if (PatternNode->opcode() != Opcode::Const)
        Result.CoveredNodes.push_back(SubjectNode);
    return std::move(Result);
  }

  ArgRole roleOf(unsigned ArgIndex) const {
    return Roles.empty() ? ArgRole::Reg : Roles[ArgIndex];
  }

  bool bindArg(const Node *PatternArg, NodeRef SubjectValue) {
    unsigned Index = PatternArg->argIndex();
    if (PatternArg->resultSort(0) != SubjectValue.sort())
      return false;
    switch (roleOf(Index)) {
    case ArgRole::Imm:
      // Instruction immediates must come from IR constants.
      if (SubjectValue.Def->opcode() != Opcode::Const)
        return false;
      break;
    case ArgRole::Mem:
    case ArgRole::Reg:
    case ArgRole::Addr:
      break;
    }
    NodeRef &Binding = Result.ArgBindings[Index];
    if (Binding.isValid())
      return Binding == SubjectValue; // Repeated argument: same value.
    Binding = SubjectValue;
    return true;
  }

  bool matchValue(NodeRef PatternValue, NodeRef SubjectValue) {
    visit();
    const Node *PatternNode = PatternValue.Def;
    if (PatternNode->opcode() == Opcode::Arg)
      return bindArg(PatternNode, SubjectValue);
    if (PatternValue.Index != SubjectValue.Index)
      return false;
    return matchNode(PatternNode, SubjectValue.Def);
  }

  bool matchNode(const Node *PatternNode, const Node *SubjectNode) {
    visit();
    auto [It, Inserted] = Result.NodeMap.try_emplace(PatternNode,
                                                     SubjectNode);
    if (!Inserted)
      return It->second == SubjectNode; // Shared pattern node: same match.
    if (PatternNode->opcode() != SubjectNode->opcode()) {
      Result.NodeMap.erase(It);
      return false;
    }
    bool Ok = true;
    switch (PatternNode->opcode()) {
    case Opcode::Const:
      Ok = PatternNode->constValue().width() ==
               SubjectNode->constValue().width() &&
           PatternNode->constValue() == SubjectNode->constValue();
      break;
    case Opcode::Cmp:
      Ok = PatternNode->relation() == SubjectNode->relation();
      break;
    default:
      break;
    }
    if (Ok)
      for (unsigned I = 0; I < PatternNode->numOperands() && Ok; ++I)
        Ok = matchValue(PatternNode->operand(I), SubjectNode->operand(I));
    if (!Ok)
      Result.NodeMap.erase(PatternNode);
    return Ok;
  }
};

} // namespace

std::optional<MatchResult>
selgen::matchPattern(const Graph &Pattern, const std::vector<ArgRole> &Roles,
                     const Node *PatternRoot, const Node *SubjectRoot,
                     uint64_t *NodesVisited) {
  return MatcherState(Pattern, Roles, NodesVisited)
      .run(PatternRoot, SubjectRoot);
}

std::optional<MatchResult>
selgen::matchPatternValue(const Graph &Pattern,
                          const std::vector<ArgRole> &Roles,
                          NodeRef PatternValue, NodeRef SubjectValue,
                          uint64_t *NodesVisited) {
  return MatcherState(Pattern, Roles, NodesVisited)
      .runValue(PatternValue, SubjectValue);
}

const Node *selgen::patternRoot(const Graph &Pattern) {
  // The root must reach every operation of the pattern, because
  // matching proceeds from the root downwards. A multi-result pattern
  // like [Load.0, Add(Load.1, a2)] is rooted at the Add, not at the
  // Load. Patterns without a covering result (e.g. two independent
  // comparisons) cannot be matched and yield null.
  // Counts the operations reachable from [Begin, End), marking them in
  // per-thread scratch indexed by Node::id().
  auto reach = [&Pattern](const NodeRef *Begin, const NodeRef *End) {
    static thread_local std::vector<char> Reached;
    static thread_local std::vector<const Node *> Worklist;
    Reached.assign(Pattern.idBound(), 0);
    for (; Begin != End; ++Begin)
      if (Begin->isValid())
        Worklist.push_back(Begin->Def);
    size_t Count = 0;
    while (!Worklist.empty()) {
      const Node *N = Worklist.back();
      Worklist.pop_back();
      if (N->opcode() == Opcode::Arg || Reached[N->id()])
        continue;
      Reached[N->id()] = 1;
      ++Count;
      for (const NodeRef &Operand : N->operands())
        Worklist.push_back(Operand.Def);
    }
    return Count;
  };
  const std::vector<NodeRef> &Results = Pattern.results();
  size_t AllOps = reach(Results.data(), Results.data() + Results.size());

  for (const NodeRef &Ref : Results) {
    if (Ref.Def->opcode() == Opcode::Arg)
      continue;
    if (reach(&Ref, &Ref + 1) == AllOps)
      return Ref.Def;
  }
  return nullptr;
}

bool selgen::matchedConstantsSatisfyPreconditions(const Graph &,
                                                  const MatchResult &Match,
                                                  unsigned Width) {
  for (const auto &[PatternNode, SubjectNode] : Match.NodeMap) {
    (void)SubjectNode;
    Opcode Op = PatternNode->opcode();
    if (Op != Opcode::Shl && Op != Opcode::Shr && Op != Opcode::Shrs)
      continue;
    // Find the concrete amount if the amount operand is a constant or
    // an Imm-bound argument; runtime amounts stay unchecked (the rule
    // is still sound: out-of-range amounts are undefined IR).
    NodeRef Amount = PatternNode->operand(1);
    const BitValue *Value = nullptr;
    if (Amount.Def->opcode() == Opcode::Const)
      Value = &Amount.Def->constValue();
    else if (Amount.Def->opcode() == Opcode::Arg) {
      NodeRef Bound = Match.ArgBindings[Amount.Def->argIndex()];
      if (Bound.isValid() && Bound.Def->opcode() == Opcode::Const)
        Value = &Bound.Def->constValue();
    }
    if (Value && Value->uge(BitValue(Value->width(), Width)))
      return false;
  }
  return true;
}
