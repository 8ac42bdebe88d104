//===- Verifier.cpp - IR well-formedness checks -----------------------------===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//

#include "ir/Verifier.h"

#include <map>
#include <set>

using namespace selgen;

std::vector<std::string> selgen::verifyGraph(const Graph &G) {
  std::vector<std::string> Problems;
  auto problem = [&Problems](const std::string &Message) {
    Problems.push_back(Message);
  };

  std::set<const Node *> Known;
  for (const Node *N : G.nodes())
    Known.insert(N);

  std::set<const Node *> Seen;
  std::map<const Node *, unsigned> MemoryUses;
  for (Node *N : G.nodes()) {
    std::string Where =
        std::string(opcodeName(N->opcode())) + " #" + std::to_string(N->id());

    // Operand count and sorts.
    if (N->opcode() != Opcode::Arg) {
      SortList Expected = opcodeArgSorts(N->opcode(), G.width());
      if (N->numOperands() != Expected.size()) {
        problem(Where + ": expected " + std::to_string(Expected.size()) +
                " operands, got " + std::to_string(N->numOperands()));
        continue;
      }
      for (unsigned I = 0; I < N->numOperands(); ++I) {
        NodeRef Operand = N->operand(I);
        if (!Operand.isValid()) {
          problem(Where + ": operand " + std::to_string(I) + " is null");
          continue;
        }
        if (!Known.count(Operand.Def)) {
          problem(Where + ": operand " + std::to_string(I) +
                  " refers outside the graph");
          continue;
        }
        if (!Seen.count(Operand.Def)) {
          problem(Where + ": operand " + std::to_string(I) +
                  " breaks creation-order acyclicity");
          continue;
        }
        if (Operand.Index >= Operand.Def->numResults()) {
          problem(Where + ": operand " + std::to_string(I) +
                  " uses result index out of range");
          continue;
        }
        Sort Actual = Operand.sort();
        // Const operands may have a narrower sort only if the opcode
        // expects exactly that sort; no implicit conversions exist.
        if (Actual != Expected[I])
          problem(Where + ": operand " + std::to_string(I) + " has sort " +
                  Actual.str() + ", expected " + Expected[I].str());
        if (Actual.isMemory())
          ++MemoryUses[Operand.Def];
      }
    }
    Seen.insert(N);
  }

  // Memory chain linearity: each memory-producing node feeds at most
  // one memory operand.
  for (const auto &[Def, Uses] : MemoryUses)
    if (Uses > 1)
      Problems.push_back("memory value of node #" + std::to_string(Def->id()) +
                         " has " + std::to_string(Uses) +
                         " uses; the memory chain must be linear");

  // A produced memory token must go somewhere: a store whose token is
  // neither consumed nor a result would silently drop its side effect.
  // Only checked when the graph declares results — a block body inside
  // a Function keeps its results empty (the terminator consumes the
  // chain), so the check would misfire there.
  if (!G.results().empty()) {
    std::set<std::pair<const Node *, unsigned>> MemoryEscapes;
    for (const Node *N : G.nodes())
      for (const NodeRef &Operand : N->operands())
        if (Operand.isValid() && Operand.Index < Operand.Def->numResults() &&
            Operand.sort().isMemory())
          MemoryEscapes.insert({Operand.Def, Operand.Index});
    for (const NodeRef &Ref : G.results())
      if (Ref.isValid() && Ref.Index < Ref.Def->numResults() &&
          Ref.sort().isMemory())
        MemoryEscapes.insert({Ref.Def, Ref.Index});
    for (const Node *N : G.nodes()) {
      if (N->opcode() == Opcode::Arg)
        continue;
      for (unsigned I = 0; I < N->numResults(); ++I)
        if (N->resultSort(I).isMemory() && !MemoryEscapes.count({N, I}))
          problem(std::string(opcodeName(N->opcode())) + " #" +
                  std::to_string(N->id()) +
                  ": memory token is neither used nor a result; the "
                  "memory chain dangles");
    }
  }

  for (unsigned I = 0; I < G.results().size(); ++I) {
    NodeRef Ref = G.results()[I];
    if (!Ref.isValid())
      problem("result " + std::to_string(I) + " is null");
    else if (!Known.count(Ref.Def))
      problem("result " + std::to_string(I) + " refers outside the graph");
  }
  return Problems;
}

bool selgen::isWellFormed(const Graph &G) { return verifyGraph(G).empty(); }
