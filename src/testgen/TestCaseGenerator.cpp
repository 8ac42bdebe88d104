//===- TestCaseGenerator.cpp - Test programs from patterns ---------------------===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//

#include "testgen/TestCaseGenerator.h"

#include "ir/Printer.h"
#include "support/Error.h"
#include "support/Rng.h"
#include "x86/Emulator.h"

#include <algorithm>
#include <map>

using namespace selgen;

namespace {

/// The C operator for a relation; signedness is handled by the caller.
const char *cRelationOperator(Relation Rel) {
  switch (Rel) {
  case Relation::Eq:
    return "==";
  case Relation::Ne:
    return "!=";
  case Relation::Ult:
  case Relation::Slt:
    return "<";
  case Relation::Ule:
  case Relation::Sle:
    return "<=";
  case Relation::Ugt:
  case Relation::Sgt:
    return ">";
  case Relation::Uge:
  case Relation::Sge:
    return ">=";
  }
  SELGEN_UNREACHABLE("bad relation");
}

bool isSignedRelation(Relation Rel) {
  switch (Rel) {
  case Relation::Slt:
  case Relation::Sle:
  case Relation::Sgt:
  case Relation::Sge:
    return true;
  default:
    return false;
  }
}

/// Clones \p Pattern into \p Body, mapping the pattern's arguments to
/// the block's arguments: the pattern's memory argument (if any) maps
/// to block argument 0, value arguments to the following slots in
/// order. Returns the pattern-result values in the new graph.
std::vector<NodeRef> inlinePattern(const Graph &Pattern, Graph &Body) {
  std::map<const Node *, Node *> Mapping;
  unsigned NextValueArg = 1;
  for (const Node *N : Pattern.nodes()) {
    if (N->opcode() != Opcode::Arg)
      continue;
    NodeRef Target = N->resultSort(0).isMemory()
                         ? Body.arg(0)
                         : Body.arg(NextValueArg++);
    Mapping[N] = Target.Def;
  }
  for (Node *N : Pattern.liveNodes()) {
    if (N->opcode() == Opcode::Arg)
      continue;
    std::vector<NodeRef> Operands;
    for (const NodeRef &Operand : N->operands())
      Operands.emplace_back(Mapping.at(Operand.Def), Operand.Index);
    Node *Clone = Body.createNode(N->opcode(), Operands);
    if (N->opcode() == Opcode::Const)
      Clone->setConstValue(N->constValue());
    if (N->opcode() == Opcode::Cmp)
      Clone->setRelation(N->relation());
    Mapping[N] = Clone;
  }
  std::vector<NodeRef> Results;
  for (const NodeRef &Ref : Pattern.results())
    Results.emplace_back(Mapping.at(Ref.Def), Ref.Index);
  return Results;
}

} // namespace

Function selgen::buildPatternTestFunction(const Rule &RuleToTest,
                                          unsigned Width,
                                          const std::string &Name) {
  const Graph &Pattern = RuleToTest.Pattern;
  Function F(Name, Width);

  std::vector<Sort> BlockArgs = {Sort::memory()};
  for (unsigned I = 0; I < Pattern.numArgs(); ++I)
    if (!Pattern.argSort(I).isMemory())
      BlockArgs.push_back(Pattern.argSort(I));

  BasicBlock *Entry = F.createBlock("entry", BlockArgs);
  Graph &Body = Entry->body();
  std::vector<NodeRef> Results = inlinePattern(Pattern, Body);

  // Split the results by sort.
  NodeRef FinalMemory = Body.arg(0);
  std::vector<NodeRef> ValueResults;
  NodeRef BoolResult;
  const Node *CondNode = nullptr;
  for (const NodeRef &Ref : Results) {
    if (Ref.sort().isMemory()) {
      FinalMemory = Ref;
    } else if (Ref.sort().isBool()) {
      if (Ref.Def->opcode() == Opcode::Cond)
        CondNode = Ref.Def;
      else if (!BoolResult.isValid())
        BoolResult = Ref;
    } else {
      ValueResults.push_back(Ref);
    }
  }

  if (!CondNode && !BoolResult.isValid()) {
    std::vector<NodeRef> ReturnValues = {FinalMemory};
    ReturnValues.insert(ReturnValues.end(), ValueResults.begin(),
                        ValueResults.end());
    Entry->setReturn(ReturnValues);
    return F;
  }

  // Compare-and-jump pattern: branch on the condition, return 1/0.
  NodeRef Condition = CondNode
                          ? CondNode->operands()[0]
                          : BoolResult;
  BasicBlock *Taken = F.createBlock("taken", {Sort::memory()});
  BasicBlock *NotTaken = F.createBlock("nottaken", {Sort::memory()});
  Entry->setBranch(Condition, Taken, {FinalMemory}, NotTaken, {FinalMemory});
  {
    Graph &G = Taken->body();
    Taken->setReturn({G.arg(0), G.createConst(BitValue(Width, 1))});
  }
  {
    Graph &G = NotTaken->body();
    NotTaken->setReturn({G.arg(0), G.createConst(BitValue::zero(Width))});
  }
  return F;
}

std::string selgen::emitCTestProgram(const Rule &RuleToTest, unsigned Width,
                                     const std::string &FunctionName) {
  const Graph &Pattern = RuleToTest.Pattern;
  std::string UType = "uint" + std::to_string(Width) + "_t";
  std::string SType = "int" + std::to_string(Width) + "_t";

  std::string Params;
  for (unsigned I = 0; I < Pattern.numArgs(); ++I) {
    if (!Params.empty())
      Params += ", ";
    if (Pattern.argSort(I).isMemory())
      Params += "volatile " + UType + " *mem" + std::to_string(I);
    else
      Params += UType + " a" + std::to_string(I);
  }

  std::map<std::pair<const Node *, unsigned>, std::string> Names;
  for (Node *N : Pattern.nodes())
    if (N->opcode() == Opcode::Arg)
      Names[{N, 0}] = "a" + std::to_string(N->argIndex());

  std::string Body;
  unsigned NextTemp = 0;
  auto temp = [&NextTemp] { return "t" + std::to_string(NextTemp++); };
  auto use = [&Names](NodeRef Ref) {
    return Names.at({Ref.Def, Ref.Index});
  };

  for (Node *N : Pattern.liveNodes()) {
    std::string Value;
    switch (N->opcode()) {
    case Opcode::Arg:
      continue;
    case Opcode::Const:
      Value = "(" + UType + ")" + N->constValue().toUnsignedString() + "u";
      break;
    case Opcode::Add:
      Value = use(N->operand(0)) + " + " + use(N->operand(1));
      break;
    case Opcode::Sub:
      Value = use(N->operand(0)) + " - " + use(N->operand(1));
      break;
    case Opcode::Mul:
      Value = use(N->operand(0)) + " * " + use(N->operand(1));
      break;
    case Opcode::And:
      Value = use(N->operand(0)) + " & " + use(N->operand(1));
      break;
    case Opcode::Or:
      Value = use(N->operand(0)) + " | " + use(N->operand(1));
      break;
    case Opcode::Xor:
      Value = use(N->operand(0)) + " ^ " + use(N->operand(1));
      break;
    case Opcode::Not:
      Value = "~" + use(N->operand(0));
      break;
    case Opcode::Minus:
      Value = "-" + use(N->operand(0));
      break;
    case Opcode::Shl:
      Value = use(N->operand(0)) + " << " + use(N->operand(1));
      break;
    case Opcode::Shr:
      Value = use(N->operand(0)) + " >> " + use(N->operand(1));
      break;
    case Opcode::Shrs:
      Value = "(" + UType + ")((" + SType + ")" + use(N->operand(0)) +
              " >> " + use(N->operand(1)) + ")";
      break;
    case Opcode::Cmp: {
      std::string Lhs = use(N->operand(0));
      std::string Rhs = use(N->operand(1));
      if (isSignedRelation(N->relation())) {
        Lhs = "(" + SType + ")" + Lhs;
        Rhs = "(" + SType + ")" + Rhs;
      }
      Value = Lhs + " " + cRelationOperator(N->relation()) + " " + Rhs;
      break;
    }
    case Opcode::Mux:
      Value = use(N->operand(0)) + " ? " + use(N->operand(1)) + " : " +
              use(N->operand(2));
      break;
    case Opcode::Load: {
      std::string Name = temp();
      Body += "  " + UType + " " + Name + " = *(volatile " + UType +
              " *)(uintptr_t)(" + use(N->operand(1)) + ");\n";
      Names[{N, 0}] = "mem";
      Names[{N, 1}] = Name;
      continue;
    }
    case Opcode::Store:
      Body += "  *(volatile " + UType + " *)(uintptr_t)(" +
              use(N->operand(1)) + ") = " + use(N->operand(2)) + ";\n";
      Names[{N, 0}] = "mem";
      continue;
    case Opcode::Cond:
      Names[{N, 0}] = use(N->operand(0));
      Names[{N, 1}] = "!(" + use(N->operand(0)) + ")";
      continue;
    }
    std::string Name = temp();
    std::string Type = N->resultSort(0).isBool() ? "int" : UType;
    Body += "  " + Type + " " + Name + " = (" + Type + ")(" + Value +
            ");\n";
    Names[{N, 0}] = Name;
  }

  // Return the first value-ish result (or a branch for jump patterns).
  std::string Return = "  return 0;\n";
  for (const NodeRef &Ref : Pattern.results()) {
    if (Ref.sort().isValue()) {
      Return = "  return " + use(Ref) + ";\n";
      break;
    }
    if (Ref.sort().isBool()) {
      Return = "  return (" + use(Ref) + ") ? 1 : 0;\n";
      break;
    }
  }

  std::string Comment =
      "/* goal: " + RuleToTest.GoalName +
      "; pattern: " + printGraphExpression(Pattern) + " */\n";
  return "#include <stdint.h>\n\n" + Comment + UType + " " + FunctionName +
         "(" + Params + ") {\n" + Body + Return + "}\n";
}

namespace {

/// Compares one compiled function against the IR interpreter.
bool behavesLikeInterpreter(const Function &F, const MachineFunction &MF,
                            unsigned Width, unsigned Runs, Rng &Random) {
  for (unsigned Run = 0; Run < Runs; ++Run) {
    std::vector<BitValue> Args;
    unsigned NumValueArgs = F.entry()->body().numArgs() - 1;
    for (unsigned I = 0; I < NumValueArgs; ++I)
      Args.push_back(Random.nextInterestingBitValue(Width));
    MemoryState Memory;
    for (unsigned I = 0; I < 8; ++I)
      Memory.storeByte(Random.nextBelow(1u << Width),
                       static_cast<uint8_t>(Random.nextBelow(256)));

    FunctionResult Reference = runFunction(F, Args, Memory);
    if (Reference.Undefined)
      continue; // Nothing to check on undefined executions.

    std::map<MReg, BitValue> Regs;
    const auto &ArgRegs = MF.entry()->ArgRegs;
    for (size_t I = 0; I < ArgRegs.size(); ++I)
      Regs[ArgRegs[I]] = Args[I];
    MachineRunResult Machine = runMachineFunction(MF, Regs, Memory);

    if (Machine.ReturnValues.size() != Reference.ReturnValues.size())
      return false;
    for (size_t I = 0; I < Reference.ReturnValues.size(); ++I)
      if (Machine.ReturnValues[I] != Reference.ReturnValues[I])
        return false;
    if (Reference.FinalMemory)
      for (const auto &[Address, Value] : Reference.FinalMemory->bytes())
        if (Machine.Memory.peekByte(Address) != Value)
          return false;
  }
  return true;
}

} // namespace

MissingPatternReport selgen::runMissingPatternExperiment(
    const PatternDatabase &Database, unsigned Width,
    const std::vector<InstructionSelector *> &Compilers,
    unsigned ValidationRuns, uint64_t Seed) {
  MissingPatternReport Report;
  for (InstructionSelector *Compiler : Compilers)
    Report.CompilerNames.push_back(Compiler->name());
  Report.TotalMissing.assign(Compilers.size(), 0);
  Rng Random(Seed);

  unsigned Index = 0;
  for (const Rule &R : Database.rules()) {
    Function F = buildPatternTestFunction(
        R, Width, "test" + std::to_string(Index++));

    MissingPatternRow Row;
    Row.GoalName = R.GoalName;
    Row.PatternExpression = printGraphExpression(R.Pattern);

    for (InstructionSelector *Compiler : Compilers) {
      SelectionResult Selected = Compiler->select(F);
      Row.InstructionCounts.push_back(Selected.MF->numInstructions());
      if (ValidationRuns > 0 &&
          !behavesLikeInterpreter(F, *Selected.MF, Width, ValidationRuns,
                                  Random))
        Row.BehaviourMismatch = true;
    }

    unsigned Best = *std::min_element(Row.InstructionCounts.begin(),
                                      Row.InstructionCounts.end());
    bool AllReferencesMiss = Compilers.size() > 1;
    for (size_t I = 0; I < Compilers.size(); ++I) {
      bool Misses = Row.InstructionCounts[I] > Best;
      Row.Missing.push_back(Misses);
      if (Misses)
        ++Report.TotalMissing[I];
      if (I >= 1 && !Misses)
        AllReferencesMiss = false;
    }
    if (AllReferencesMiss)
      ++Report.MissingInAllReferences;

    ++Report.TotalTests;
    Report.Rows.push_back(std::move(Row));
  }
  return Report;
}
