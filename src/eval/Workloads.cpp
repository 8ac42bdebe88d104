//===- Workloads.cpp - SPEC CINT2000-profile synthetic workloads --------------===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//

#include "eval/Workloads.h"

#include "ir/Normalizer.h"
#include "ir/Verifier.h"
#include "support/Error.h"
#include "support/Rng.h"

using namespace selgen;

const std::vector<WorkloadProfile> &selgen::cint2000Profiles() {
  // Name, seed, arith, logic, shift, mul, load, store, select, idiom,
  // body ops, iterations. The mixes are chosen to mimic each
  // component's character (compression = shifts+logic+memory, mcf =
  // pointer loads, crafty = bit tricks, parser/gcc = compares, ...).
  static const std::vector<WorkloadProfile> Profiles = {
      {"164.gzip", 164, 3, 4, 4, 1, 4, 2, 1, 2, 30, 70},
      {"175.vpr", 175, 5, 2, 1, 2, 3, 1, 2, 1, 28, 60},
      {"176.gcc", 176, 4, 2, 1, 1, 3, 2, 4, 1, 32, 50},
      {"181.mcf", 181, 3, 1, 1, 1, 6, 2, 2, 0, 26, 80},
      {"186.crafty", 186, 2, 6, 4, 1, 2, 1, 1, 4, 34, 60},
      {"197.parser", 197, 3, 2, 1, 0, 4, 2, 4, 1, 28, 70},
      {"253.perlbmk", 253, 4, 3, 2, 1, 3, 2, 3, 1, 30, 55},
      {"254.gap", 254, 6, 2, 1, 3, 2, 1, 1, 1, 28, 60},
      {"255.vortex", 255, 3, 2, 1, 1, 4, 4, 2, 1, 30, 60},
      {"256.bzip2", 256, 3, 4, 4, 1, 3, 2, 1, 2, 32, 70},
      {"300.twolf", 300, 5, 2, 1, 2, 3, 1, 3, 1, 28, 60},
  };
  return Profiles;
}

namespace {

/// Incrementally builds the loop body of a workload.
class BodyBuilder {
public:
  BodyBuilder(Graph &G, Rng &Random, unsigned Width, NodeRef Memory,
              NodeRef ArrayBase, std::vector<NodeRef> Seeds)
      : G(G), Random(Random), Width(Width), Memory(Memory),
        ArrayBase(ArrayBase), Pool(std::move(Seeds)) {}

  NodeRef memory() const { return Memory; }

  NodeRef pick() { return Pool[Random.nextBelow(Pool.size())]; }

  void push(NodeRef Value) {
    Pool.push_back(Value);
    if (Pool.size() > 12)
      Pool.erase(Pool.begin() + Random.nextBelow(4));
  }

  NodeRef smallConst() {
    return G.createConst(
        BitValue(Width, Random.nextBelow(1u << (Width / 2))));
  }

  /// An address inside the workload's array region: base + (v & 15)*s
  /// + disp. Exercises the scaled addressing modes.
  NodeRef address() {
    NodeRef Index = G.createBinary(Opcode::And, pick(),
                                   G.createConst(BitValue(Width, 15)));
    unsigned ScaleLog = Random.nextBelow(3); // 1, 2, or 4.
    if (ScaleLog)
      Index = G.createBinary(Opcode::Shl, Index,
                             G.createConst(BitValue(Width, ScaleLog)));
    NodeRef Address = G.createBinary(Opcode::Add, ArrayBase, Index);
    if (Random.nextBool())
      Address = G.createBinary(
          Opcode::Add, Address,
          G.createConst(BitValue(Width, Random.nextBelow(8) * (Width / 8))));
    return Address;
  }

  void emitArith() {
    Opcode Op = Random.nextBool() ? Opcode::Add : Opcode::Sub;
    NodeRef Rhs = Random.nextBelow(4) == 0 ? smallConst() : pick();
    push(G.createBinary(Op, pick(), Rhs));
  }

  void emitLogic() {
    switch (Random.nextBelow(4)) {
    case 0:
      push(G.createBinary(Opcode::And, pick(), pick()));
      break;
    case 1:
      push(G.createBinary(Opcode::Or, pick(), pick()));
      break;
    case 2:
      push(G.createBinary(Opcode::Xor, pick(), pick()));
      break;
    case 3:
      push(G.createUnary(Opcode::Not, pick()));
      break;
    }
  }

  void emitShift() {
    Opcode Op = Random.nextBelow(3) == 0   ? Opcode::Shrs
                : Random.nextBool() ? Opcode::Shl
                                    : Opcode::Shr;
    if (Random.nextBelow(3) == 0) {
      // Variable amount, masked to stay defined (the shl_rc shape).
      NodeRef Amount = G.createBinary(
          Opcode::And, pick(), G.createConst(BitValue(Width, Width - 1)));
      push(G.createBinary(Op, pick(), Amount));
    } else {
      push(G.createBinary(
          Op, pick(),
          G.createConst(BitValue(Width, 1 + Random.nextBelow(Width - 1)))));
    }
  }

  void emitMul() {
    if (Random.nextBool())
      push(G.createBinary(Opcode::Mul, pick(), pick()));
    else
      push(G.createBinary(
          Opcode::Mul, pick(),
          G.createConst(BitValue(Width, 3 + 2 * Random.nextBelow(5)))));
  }

  void emitLoad() {
    Node *Load = G.createLoad(Memory, address());
    Memory = NodeRef(Load, 0);
    push(NodeRef(Load, 1));
  }

  void emitStore() {
    if (Random.nextBelow(3) == 0) {
      // Read-modify-write on one address (destination AM shape).
      NodeRef Address = address();
      Node *Load = G.createLoad(Memory, Address);
      Opcode Op = Random.nextBool() ? Opcode::Add : Opcode::Xor;
      NodeRef Updated = G.createBinary(Op, NodeRef(Load, 1), pick());
      Memory = G.createStore(NodeRef(Load, 0), Address, Updated);
      return;
    }
    Memory = G.createStore(Memory, address(), pick());
  }

  void emitSelect() {
    Relation Rel =
        allRelations()[Random.nextBelow(allRelations().size())];
    NodeRef Cmp = G.createCmp(Rel, pick(), pick());
    if (Random.nextBool()) {
      // setcc shape: 0/1 result.
      push(G.createMux(Cmp, G.createConst(BitValue(Width, 1)),
                       G.createConst(BitValue::zero(Width))));
    } else {
      push(G.createMux(Cmp, pick(), pick()));
    }
  }

  void emitIdiom() {
    NodeRef X = pick();
    switch (Random.nextBelow(4)) {
    case 0: // blsr: x & (x - 1).
      push(G.createBinary(
          Opcode::And, X,
          G.createBinary(Opcode::Sub, X,
                         G.createConst(BitValue(Width, 1)))));
      break;
    case 1: // blsmsk: x ^ (x - 1).
      push(G.createBinary(
          Opcode::Xor, X,
          G.createBinary(Opcode::Sub, X,
                         G.createConst(BitValue(Width, 1)))));
      break;
    case 2: // andn: ~x & y.
      push(G.createBinary(Opcode::And, G.createUnary(Opcode::Not, X),
                          pick()));
      break;
    case 3: // blsi: x & -x.
      push(G.createBinary(Opcode::And, X,
                          G.createUnary(Opcode::Minus, X)));
      break;
    }
  }

private:
  Graph &G;
  Rng &Random;
  unsigned Width;
  NodeRef Memory;
  NodeRef ArrayBase;
  std::vector<NodeRef> Pool;
};

} // namespace

Function selgen::buildWorkload(const WorkloadProfile &Profile,
                               unsigned Width) {
  Rng Random(Profile.Seed * 0x9E3779B97F4A7C15ull + Width);
  Function F(Profile.Name, Width);
  Sort V = Sort::value(Width);
  Sort M = Sort::memory();

  // entry(m, a, b, base) -> loop(m, i=0, acc=a, x=b, y=a^b)
  BasicBlock *Entry = F.createBlock("entry", {M, V, V, V});
  // loop(m, i, acc, x, y, base)
  BasicBlock *Loop = F.createBlock("loop", {M, V, V, V, V, V});
  // exit(m, result)
  BasicBlock *Exit = F.createBlock("exit", {M, V});

  {
    Graph &G = Entry->body();
    NodeRef A = G.arg(1), B = G.arg(2), Base = G.arg(3);
    NodeRef Zero = G.createConst(BitValue::zero(Width));
    NodeRef Mix = G.createBinary(Opcode::Xor, A, B);
    Entry->setJump(Loop, {G.arg(0), Zero, A, B, Mix, Base});
  }

  {
    Graph &G = Loop->body();
    NodeRef I = G.arg(1);
    std::vector<NodeRef> Seeds = {G.arg(2), G.arg(3), G.arg(4), I};
    BodyBuilder Body(G, Random, Width, G.arg(0), G.arg(5), Seeds);

    // Weighted schedule of body operations.
    std::vector<unsigned> Deck;
    auto addCards = [&Deck](unsigned Kind, unsigned Count) {
      for (unsigned C = 0; C < Count; ++C)
        Deck.push_back(Kind);
    };
    addCards(0, Profile.Arith);
    addCards(1, Profile.Logic);
    addCards(2, Profile.Shift);
    addCards(3, Profile.Mul);
    addCards(4, Profile.Load);
    addCards(5, Profile.Store);
    addCards(6, Profile.Select);
    addCards(7, Profile.Idiom);
    if (Deck.empty())
      Deck.push_back(0);

    for (unsigned OpIndex = 0; OpIndex < Profile.BodyOps; ++OpIndex) {
      switch (Deck[Random.nextBelow(Deck.size())]) {
      case 0:
        Body.emitArith();
        break;
      case 1:
        Body.emitLogic();
        break;
      case 2:
        Body.emitShift();
        break;
      case 3:
        Body.emitMul();
        break;
      case 4:
        Body.emitLoad();
        break;
      case 5:
        Body.emitStore();
        break;
      case 6:
        Body.emitSelect();
        break;
      case 7:
        Body.emitIdiom();
        break;
      }
    }

    NodeRef NextI = G.createBinary(Opcode::Add, I,
                                   G.createConst(BitValue(Width, 1)));
    NodeRef Accumulator = G.createBinary(Opcode::Xor, Body.pick(),
                                         G.createBinary(Opcode::Add,
                                                        Body.pick(), I));
    NodeRef Continue = G.createCmp(
        Relation::Ult, NextI,
        G.createConst(BitValue(Width, Profile.Iterations)));
    Loop->setBranch(Continue, Loop,
                    {Body.memory(), NextI, Accumulator, Body.pick(),
                     Body.pick(), G.arg(5)},
                    Exit, {Body.memory(), Accumulator});
  }

  {
    Graph &G = Exit->body();
    Exit->setReturn({G.arg(0), G.arg(1)});
  }

  normalizeFunction(F);
  std::vector<std::string> Problems = verifyFunction(F);
  if (!Problems.empty())
    reportFatalError("generated workload is malformed: " + Problems[0]);
  return F;
}

std::vector<WorkloadInput>
selgen::makeWorkloadInputs(const WorkloadProfile &Profile, unsigned Width,
                           unsigned Count) {
  Rng Random(Profile.Seed ^ 0xABCDEF);
  std::vector<WorkloadInput> Inputs(Count);
  for (WorkloadInput &Input : Inputs) {
    for (unsigned A = 0; A < 3; ++A)
      Input.Args.push_back(Random.nextBitValue(Width));
    for (unsigned B = 0; B < (1u << std::min(Width, 8u)); ++B)
      Input.Memory.storeByte(B, static_cast<uint8_t>(Random.nextBelow(256)));
  }
  return Inputs;
}
