//===- test_ir_graph.cpp - Graph construction/printing/parsing tests ----------===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//

#include "ir/Graph.h"
#include "ir/Normalizer.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "pattern/PatternDatabase.h"
#include "support/AtomicFile.h"
#include "support/Rng.h"

#include <algorithm>

#include <gtest/gtest.h>

using namespace selgen;

namespace {

/// The pattern of paper Figure 1a: an addition with one operand loaded
/// from memory. Arguments (memory, pointer, register operand); results
/// (memory, sum).
Graph makeFigure1Pattern(unsigned Width = 32) {
  Graph G(Width, {Sort::memory(), Sort::value(Width), Sort::value(Width)});
  Node *Load = G.createLoad(G.arg(0), G.arg(1));
  NodeRef Sum = G.createBinary(Opcode::Add, NodeRef(Load, 1), G.arg(2));
  G.setResults({NodeRef(Load, 0), Sum});
  return G;
}

} // namespace

TEST(Graph, BuildFigure1) {
  Graph G = makeFigure1Pattern();
  EXPECT_EQ(G.numArgs(), 3u);
  EXPECT_EQ(G.numOperations(), 2u);
  EXPECT_TRUE(isWellFormed(G));
  EXPECT_EQ(G.results()[0].sort(), Sort::memory());
  EXPECT_EQ(G.results()[1].sort(), Sort::value(32));
}

TEST(Graph, ExpressionPrinting) {
  Graph G = makeFigure1Pattern();
  EXPECT_EQ(printGraphExpression(G),
            "Load(a0, a1).0; Add(Load(a0, a1).1, a2)");
}

TEST(Graph, FingerprintIgnoresCreationOrder) {
  // Two structurally identical graphs built in different node orders.
  Graph A(8, {Sort::value(8), Sort::value(8)});
  NodeRef NotA = A.createUnary(Opcode::Not, A.arg(0));
  NodeRef NegB = A.createUnary(Opcode::Minus, A.arg(1));
  A.setResults({A.createBinary(Opcode::Add, NotA, NegB)});

  Graph B(8, {Sort::value(8), Sort::value(8)});
  NodeRef NegB2 = B.createUnary(Opcode::Minus, B.arg(1));
  NodeRef NotA2 = B.createUnary(Opcode::Not, B.arg(0));
  B.setResults({B.createBinary(Opcode::Add, NotA2, NegB2)});

  EXPECT_EQ(A.fingerprint(), B.fingerprint());
}

TEST(Graph, FingerprintDistinguishesStructure) {
  Graph A(8, {Sort::value(8), Sort::value(8)});
  A.setResults({A.createBinary(Opcode::Add, A.arg(0), A.arg(1))});
  Graph B(8, {Sort::value(8), Sort::value(8)});
  B.setResults({B.createBinary(Opcode::Add, B.arg(1), B.arg(0))});
  EXPECT_NE(A.fingerprint(), B.fingerprint());

  Graph C(8, {Sort::value(8), Sort::value(8)});
  C.setResults({C.createBinary(Opcode::Sub, C.arg(0), C.arg(1))});
  EXPECT_NE(A.fingerprint(), C.fingerprint());
}

TEST(Graph, FingerprintCoversAttributes) {
  Graph A(8, {Sort::value(8)});
  A.setResults({A.createBinary(Opcode::Add, A.arg(0),
                               A.createConst(BitValue(8, 1)))});
  Graph B(8, {Sort::value(8)});
  B.setResults({B.createBinary(Opcode::Add, B.arg(0),
                               B.createConst(BitValue(8, 2)))});
  EXPECT_NE(A.fingerprint(), B.fingerprint());

  Graph C(8, {Sort::value(8), Sort::value(8)});
  C.setResults({C.createCmp(Relation::Slt, C.arg(0), C.arg(1))});
  Graph D(8, {Sort::value(8), Sort::value(8)});
  D.setResults({D.createCmp(Relation::Ult, D.arg(0), D.arg(1))});
  EXPECT_NE(C.fingerprint(), D.fingerprint());
}

TEST(Graph, CloneIsIdentical) {
  Graph G = makeFigure1Pattern();
  Graph Copy = G.clone();
  EXPECT_EQ(G.fingerprint(), Copy.fingerprint());
  EXPECT_TRUE(isWellFormed(Copy));
}

TEST(Graph, DeadNodeRemoval) {
  Graph G(8, {Sort::value(8)});
  G.createBinary(Opcode::Add, G.arg(0), G.arg(0)); // Dead.
  NodeRef Live = G.createUnary(Opcode::Not, G.arg(0));
  G.setResults({Live});
  EXPECT_EQ(G.numOperations(), 2u);
  G.removeDeadNodes();
  EXPECT_EQ(G.numOperations(), 1u);
  EXPECT_TRUE(isWellFormed(G));
}

TEST(Graph, LiveNodesFromRoots) {
  Graph G(8, {Sort::value(8)});
  NodeRef A = G.createUnary(Opcode::Not, G.arg(0));
  NodeRef B = G.createUnary(Opcode::Minus, G.arg(0));
  G.setResults({A});
  EXPECT_EQ(G.liveNodes().size(), 2u);        // Arg + Not.
  EXPECT_EQ(G.liveNodesFrom({B}).size(), 2u); // Arg + Minus.
  EXPECT_EQ(G.liveNodesFrom({A, B}).size(), 3u);
}

// The rule library's duplicate index, specific-first sort and prepared
// content hash all key on these exact strings, so they are pinned byte
// for byte rather than only compared with each other.

TEST(Graph, FingerprintPinnedAcrossIdGaps) {
  Graph G(8, {Sort::value(8), Sort::value(8)});
  G.createBinary(Opcode::Sub, G.arg(0), G.arg(1)); // Dead.
  NodeRef Sum = G.createBinary(Opcode::Add, G.arg(1), G.arg(0));
  G.createUnary(Opcode::Not, Sum); // Dead.
  G.setResults({G.createUnary(Opcode::Minus, Sum)});
  const std::string Expected =
      "w8;Arg#1();Arg#0();Add(0.0,1.0);Minus(2.0);->3.0";
  EXPECT_EQ(G.fingerprint(), Expected);
  G.removeDeadNodes();
  EXPECT_EQ(G.fingerprint(), Expected);
  // Normalization rebuilds the graph and drops dead nodes again.
  EXPECT_EQ(normalizeGraph(G).fingerprint(),
            "w8;Arg#0();Arg#1();Add(0.0,1.0);Minus(2.0);->3.0");
}

TEST(Graph, FingerprintPinnedForMultiResultNodes) {
  Graph Figure1 = makeFigure1Pattern(8);
  EXPECT_EQ(Figure1.fingerprint(),
            "w8;Arg#0();Arg#1();Load(0.0,1.0);Arg#2();Add(2.1,3.0);->2.0,4.0");

  Graph Jump(8, {Sort::value(8), Sort::value(8)});
  NodeRef Less = Jump.createCmp(Relation::Ult, Jump.arg(0), Jump.arg(1));
  Node *Cond = Jump.createCond(Less);
  Jump.setResults({NodeRef(Cond, 1), NodeRef(Cond, 0)});
  EXPECT_EQ(Jump.fingerprint(),
            "w8;Arg#0();Arg#1();Cmp#ult(0.0,1.0);Cond(2.0);->3.1,3.0");
}

TEST(Graph, FingerprintPinnedForSharedOperandsAndAttributes) {
  Graph G(8, {Sort::value(8)});
  NodeRef Masked =
      G.createBinary(Opcode::And, G.arg(0), G.createConst(BitValue(8, 0xf0)));
  NodeRef Twice = G.createBinary(Opcode::Add, Masked, Masked);
  NodeRef Equal = G.createCmp(Relation::Eq, Twice, Masked);
  G.setResults({G.createMux(Equal, Masked, Twice), Masked});
  EXPECT_EQ(G.fingerprint(), "w8;Arg#0();Const#0xf0:8();And(0.0,1.0);Add(2.0,2.0);"
                             "Cmp#eq(3.0,2.0);Mux(4.0,2.0,3.0);->5.0,2.0");
}

TEST(Graph, LiveNodesKeepCreationOrderAfterDeadNodeRemoval) {
  Graph G(8, {Sort::value(8), Sort::value(8)});
  NodeRef Late = G.createUnary(Opcode::Not, G.arg(1));
  G.createBinary(Opcode::Sub, G.arg(0), G.arg(1)); // Dead.
  NodeRef Early = G.createUnary(Opcode::Minus, G.arg(0));
  G.createUnary(Opcode::Not, Early); // Dead.
  G.setResults({G.createBinary(Opcode::Add, Early, Late)});
  G.removeDeadNodes();
  std::vector<unsigned> Ids;
  for (const Node *N : G.liveNodes())
    Ids.push_back(N->id());
  EXPECT_EQ(Ids, (std::vector<unsigned>{0, 1, 2, 4, 6}));
  EXPECT_EQ(G.liveNodesFrom({Early}).size(), 2u); // Arg 0 + Minus.
}

// Nodes live in blocks owned by their graph: the first sized by the
// constructor's node count, later ones added as a builder outgrows it.

TEST(GraphStorage, NodeAddressesStayStablePastTheFirstBlockAndAcrossMoves) {
  Graph G(8, {Sort::value(8)}, /*NodeCapacity=*/2);
  std::vector<Node *> Chain = {G.arg(0).Def};
  for (int I = 0; I < 100; ++I)
    Chain.push_back(G.createUnary(I % 2 ? Opcode::Not : Opcode::Minus,
                                  NodeRef(Chain.back(), 0))
                        .Def);
  G.setResults({NodeRef(Chain.back(), 0)});
  std::string Fingerprint = G.fingerprint();
  auto expectChain = [&](const Graph &Owner) {
    ASSERT_EQ(Owner.nodes(), Chain);
    for (size_t I = 1; I < Chain.size(); ++I) {
      EXPECT_EQ(Chain[I]->id(), I);
      EXPECT_EQ(Chain[I]->operand(0).Def, Chain[I - 1]);
    }
    EXPECT_EQ(Owner.arg(0).Def, Chain.front());
    EXPECT_EQ(Owner.results()[0].Def, Chain.back());
    EXPECT_EQ(Owner.fingerprint(), Fingerprint);
  };
  expectChain(G);
  Graph Moved(std::move(G));
  expectChain(Moved);
  Graph Assigned(8, {});
  Assigned = std::move(Moved);
  expectChain(Assigned);
  EXPECT_TRUE(isWellFormed(Assigned));
}

TEST(GraphStorage, DeadNodeRemovalCloneAndCanonicalFormSpanBlocks) {
  // Live and dead nodes interleave across several blocks.
  Graph G(8, {Sort::value(8), Sort::value(8)});
  NodeRef Sum = G.arg(0);
  for (int I = 0; I < 40; ++I) {
    G.createBinary(Opcode::Xor, Sum, G.arg(1)); // Dead.
    Sum = G.createBinary(Opcode::Add, Sum,
                         G.createConst(BitValue(8, uint64_t(I))));
  }
  G.setResults({Sum});
  std::string Fingerprint = G.fingerprint();
  EXPECT_EQ(G.numOperations(), 120u);

  Graph Copy = G.clone();
  EXPECT_EQ(Copy.nodes().size(), G.nodes().size());
  EXPECT_EQ(Copy.fingerprint(), Fingerprint);
  for (size_t I = 0; I < G.nodes().size(); ++I)
    EXPECT_NE(Copy.nodes()[I], G.nodes()[I]);

  G.removeDeadNodes();
  EXPECT_EQ(G.numOperations(), 80u);
  EXPECT_EQ(G.nodes().size(), 82u); // Both arguments stay.
  EXPECT_EQ(G.fingerprint(), Fingerprint);
  EXPECT_TRUE(isWellFormed(G));

  Graph Canonical = Copy.canonicalized();
  EXPECT_EQ(Canonical.numOperations(), 80u);
  EXPECT_EQ(Canonical.fingerprint(), Fingerprint);
  EXPECT_EQ(printGraph(Canonical), printGraph(G.canonicalized()));
  EXPECT_TRUE(isWellFormed(Canonical));
}

TEST(GraphStorage, WideConstantsAreFreedWithTheirNodes) {
  // Constants above 64 bits keep their words on the heap. The graph
  // destroys each node in its block, dead ones at removeDeadNodes();
  // the sanitizer builds report any that is not.
  Graph G(128, {Sort::value(128)}, /*NodeCapacity=*/4);
  NodeRef Sum = G.arg(0);
  for (unsigned I = 0; I < 30; ++I) {
    BitValue Wide(128, I);
    Wide.setBit(64 + I, true);
    NodeRef C = G.createConst(Wide);
    if (I % 3)
      Sum = G.createBinary(Opcode::Add, Sum, C);
  }
  G.setResults({Sum});
  G.removeDeadNodes();
  EXPECT_EQ(G.numOperations(), 40u);
  Graph Copy = G.clone();
  EXPECT_EQ(Copy.fingerprint(), G.fingerprint());
  Graph Moved(std::move(Copy));
  Moved = G.canonicalized();
  EXPECT_EQ(Moved.fingerprint(), G.fingerprint());
}

TEST(Printer, RoundTripThroughParser) {
  Graph G = makeFigure1Pattern();
  std::string Text = printGraph(G);
  std::string Error;
  std::optional<Graph> Parsed = parseGraph(Text, &Error);
  ASSERT_TRUE(Parsed.has_value()) << Error;
  EXPECT_EQ(Parsed->fingerprint(), G.fingerprint());
}

TEST(Printer, RoundTripWithAttributes) {
  Graph G(16, {Sort::value(16), Sort::value(16)});
  NodeRef C = G.createConst(BitValue(16, 0xBEEF));
  NodeRef Cmp = G.createCmp(Relation::Sle, G.arg(0), C);
  NodeRef Mux = G.createMux(Cmp, G.arg(1), C);
  Node *Jump = G.createCond(Cmp);
  G.setResults({Mux, NodeRef(Jump, 0), NodeRef(Jump, 1)});

  std::string Error;
  std::optional<Graph> Parsed = parseGraph(printGraph(G), &Error);
  ASSERT_TRUE(Parsed.has_value()) << Error;
  EXPECT_EQ(Parsed->fingerprint(), G.fingerprint());
}

TEST(Parser, RejectsMalformedInput) {
  std::string Error;
  EXPECT_FALSE(parseGraph("nonsense", &Error).has_value());
  EXPECT_FALSE(Error.empty());
  EXPECT_FALSE(parseGraph("graph w8 args(bv8) {\n", &Error).has_value());
  EXPECT_FALSE(
      parseGraph("graph w8 args(bv8) {\n  n0 = Bogus(a0)\n  results(n0)\n}\n",
                 &Error)
          .has_value() &&
      Error.empty());
  EXPECT_FALSE(parseGraph("graph w8 args(bv8) {\n  results(n7)\n}\n", &Error)
                   .has_value());
}

TEST(Parser, RejectsOverwideConstants) {
  // A constant wider than its declared sort must be rejected outright,
  // not silently truncated.
  std::string Error;
  EXPECT_FALSE(parseGraph("graph w8 args(bv8) {\n"
                          "  n0 = Const[0x1ff:8]()\n"
                          "  results(n0)\n"
                          "}\n",
                          &Error)
                   .has_value());
  EXPECT_NE(Error.find("does not fit"), std::string::npos);

  // The widest fitting value is still accepted.
  std::optional<Graph> G = parseGraph("graph w8 args(bv8) {\n"
                                      "  n0 = Const[0xff:8]()\n"
                                      "  results(n0)\n"
                                      "}\n",
                                      &Error);
  ASSERT_TRUE(G.has_value()) << Error;
  const Node *C = G->results()[0].Def;
  EXPECT_EQ(C->constValue(), BitValue(8, 0xFF));
}

TEST(Parser, RejectsMalformedWidths) {
  std::string Error;
  // Absurd graph widths (overflowing, zero, non-numeric) are malformed.
  EXPECT_FALSE(parseGraph("graph w12345678901 args(bv8) {\n  results(a0)\n}\n",
                          &Error)
                   .has_value());
  EXPECT_FALSE(
      parseGraph("graph wxyz args(bv8) {\n  results(a0)\n}\n", &Error)
          .has_value());
  // Const widths outside [1, 1024] or with garbage digits fail too.
  EXPECT_FALSE(parseGraph("graph w8 args(bv8) {\n"
                          "  n0 = Const[0x01:0]()\n  results(n0)\n}\n",
                          &Error)
                   .has_value());
  EXPECT_FALSE(parseGraph("graph w8 args(bv8) {\n"
                          "  n0 = Const[0xzz:8]()\n  results(n0)\n}\n",
                          &Error)
                   .has_value());
}

TEST(Parser, RejectsBadArityAndResultIndices) {
  std::string Error;
  EXPECT_FALSE(parseGraph("graph w8 args(bv8) {\n"
                          "  n0 = Add(a0)\n  results(n0)\n}\n",
                          &Error)
                   .has_value());
  EXPECT_NE(Error.find("operand count mismatch"), std::string::npos);

  EXPECT_FALSE(parseGraph("graph w8 args(mem, bv8) {\n"
                          "  n0 = Load(a0, a1)\n"
                          "  results(n0.0, n0.7)\n}\n",
                          &Error)
                   .has_value());
}

TEST(Parser, MalformedInputsDoNotRoundTrip) {
  // Inputs the parser rejects stay rejected after being embedded in
  // otherwise valid graphs (no partial-parse salvage).
  std::string Error;
  EXPECT_FALSE(parseGraph("graph w8 args(bv8) {\n"
                          "  n0 = Not(a0)\n"
                          "  n1 = Const[0x100:8]()\n"
                          "  n2 = Add(n0, n1)\n"
                          "  results(n2)\n"
                          "}\n",
                          &Error)
                   .has_value());
  EXPECT_NE(Error.find("does not fit"), std::string::npos);
}

// --- Hostile bytes ----------------------------------------------------------

namespace {

std::string shippedLibraryText(const char *Name) {
  std::optional<std::string> Text =
      readFileToString(std::string(SELGEN_ARTIFACTS_DIR) + "/" + Name);
  EXPECT_TRUE(Text.has_value()) << Name;
  return Text.value_or("");
}

/// \p Text split into lines, each keeping its '\n'.
std::vector<std::string> splitLines(const std::string &Text) {
  std::vector<std::string> Lines;
  for (size_t Start = 0; Start < Text.size();) {
    size_t End = std::min(Text.find('\n', Start), Text.size() - 1) + 1;
    Lines.push_back(Text.substr(Start, End - Start));
    Start = End;
  }
  return Lines;
}

std::string joinLines(const std::vector<std::string> &Lines) {
  std::string Text;
  for (const std::string &Line : Lines)
    Text += Line;
  return Text;
}

/// Truncation at every line boundary, every line dropped, every line
/// duplicated, and \p Flips seeded single-byte flips.
std::vector<std::string> lineMutants(const std::string &Text, Rng &Random,
                                     unsigned Flips) {
  std::vector<std::string> Lines = splitLines(Text);
  std::vector<std::string> Mutants;
  for (size_t Cut = 0; Cut <= Lines.size(); ++Cut)
    Mutants.push_back(joinLines(
        std::vector<std::string>(Lines.begin(), Lines.begin() + Cut)));
  for (size_t I = 0; I < Lines.size(); ++I) {
    std::vector<std::string> Dropped = Lines;
    Dropped.erase(Dropped.begin() + I);
    Mutants.push_back(joinLines(Dropped));
    std::vector<std::string> Duplicated = Lines;
    Duplicated.insert(Duplicated.begin() + I, Lines[I]);
    Mutants.push_back(joinLines(Duplicated));
  }
  for (unsigned Flip = 0; Flip < Flips && !Text.empty(); ++Flip) {
    std::string Mutant = Text;
    Mutant[Random.nextBelow(Mutant.size())] ^=
        static_cast<char>(1 + Random.nextBelow(255));
    Mutants.push_back(Mutant);
  }
  return Mutants;
}

/// Per-line edits of one graph: its first number grown to 11 and 20
/// digits, its first reference pointed at result 7, a definition
/// rebinding n0 or a0, and a definition moved up to the header (so its
/// operands are used before they are defined).
std::vector<std::string> graphMutants(const std::string &Text) {
  std::vector<std::string> Lines = splitLines(Text);
  std::vector<std::string> Mutants;
  for (size_t I = 0; I < Lines.size(); ++I) {
    const std::string &Line = Lines[I];
    auto withLine = [&](const std::string &Replacement) {
      std::vector<std::string> Copy = Lines;
      Copy[I] = Replacement;
      return joinLines(Copy);
    };
    size_t Digit = Line.find_first_of("0123456789");
    if (Digit != std::string::npos) {
      size_t End = Line.find_first_not_of("0123456789", Digit);
      for (const char *Big : {"12345678901", "99999999999999999999"})
        Mutants.push_back(
            withLine(Line.substr(0, Digit) + Big + Line.substr(End)));
    }
    size_t Open = Line.find('(');
    size_t End = Line.find_first_of(",)", Open);
    if (Open != std::string::npos && End != std::string::npos &&
        End > Open + 1)
      Mutants.push_back(
          withLine(Line.substr(0, End) + ".7" + Line.substr(End)));
    size_t Equals = Line.find(" = ");
    if (Equals != std::string::npos && I > 0) {
      for (const char *Name : {"  n0", "  a0"})
        Mutants.push_back(withLine(Name + Line.substr(Equals)));
      std::vector<std::string> Moved = Lines;
      Moved.erase(Moved.begin() + I);
      Moved.insert(Moved.begin() + 1, Line);
      Mutants.push_back(joinLines(Moved));
    }
  }
  return Mutants;
}

struct SweepSummary {
  size_t Mutants = 0;
  size_t Accepted = 0;
  uint32_t OutcomeCrc = 0; ///< Of every mutant's outcome line.
};

} // namespace

TEST(ParserHostileBytes, GraphMutantsParseOrFailWithMessage) {
  // Every mutant of every rule of the shipped basic library yields a
  // graph or a non-empty error, never an abort. The pin is the parent
  // parser's outcomes: the fingerprint of each accepted mutant and the
  // exact error text, line number included, of each rejected one.
  PatternDatabase Database = PatternDatabase::deserialize(
      shippedLibraryText("rule-library-basic-w8.dat"));
  ASSERT_GT(Database.size(), 100u);
  Rng Random(0x5E1);
  SweepSummary Summary;
  std::string Outcomes;
  for (const Rule &R : Database.rules()) {
    std::string Text = printGraph(R.Pattern);
    std::vector<std::string> Mutants = lineMutants(Text, Random, 8);
    for (std::string &Mutant : graphMutants(Text))
      Mutants.push_back(std::move(Mutant));
    for (const std::string &Mutant : Mutants) {
      std::string Error;
      std::optional<Graph> G = parseGraph(Mutant, &Error);
      ++Summary.Mutants;
      if (G) {
        ++Summary.Accepted;
        Outcomes += "graph " + G->fingerprint() + "\n";
      } else {
        EXPECT_FALSE(Error.empty()) << Mutant;
        Outcomes += "error " + Error + "\n";
      }
    }
  }
  Summary.OutcomeCrc = crc32(Outcomes);
  EXPECT_EQ(Summary.Mutants, 5757u);
  EXPECT_EQ(Summary.Accepted, 1173u);
  EXPECT_EQ(Summary.OutcomeCrc, 0x984046cfu);
}

TEST(ParserHostileBytes, LibraryMutantsLoadOrFailWithMessage) {
  // The same line-level mutations of the whole library file through
  // PatternDatabase::deserialize. The pin is the parent loader's
  // accept/reject decision and, for accepted mutants, the rules.
  std::string Text = shippedLibraryText("rule-library-basic-w8.dat");
  Rng Random(0xF11B);
  SweepSummary Summary;
  std::string Outcomes;
  for (const std::string &Mutant : lineMutants(Text, Random, 400)) {
    std::string Error;
    PatternDatabase Database = PatternDatabase::deserialize(Mutant, &Error);
    ++Summary.Mutants;
    if (!Error.empty()) {
      Outcomes += "error\n";
      continue;
    }
    ++Summary.Accepted;
    std::string Rules;
    for (const Rule &R : Database.rules())
      Rules += R.GoalName + " " + R.fingerprint() + "\n";
    Outcomes += "library " + crc32Hex(Rules) + "\n";
  }
  Summary.OutcomeCrc = crc32(Outcomes);
  EXPECT_EQ(Summary.Mutants, 3314u);
  EXPECT_EQ(Summary.Accepted, 877u);
  EXPECT_EQ(Summary.OutcomeCrc, 0x82549612u);
}

TEST(Verifier, DetectsSortErrors) {
  Graph G(8, {Sort::memory(), Sort::value(8)});
  Node *Load = G.createLoad(G.arg(0), G.arg(1));
  G.setResults({NodeRef(Load, 0), NodeRef(Load, 1)});
  EXPECT_TRUE(verifyGraph(G).empty());

  // Wire the load's value result into a memory operand slot.
  Load->setOperand(0, NodeRef(Load, 1));
  EXPECT_FALSE(verifyGraph(G).empty());
}

TEST(Verifier, DetectsNonlinearMemoryChain) {
  Graph G(8, {Sort::memory(), Sort::value(8), Sort::value(8)});
  // Two stores consuming the same memory token: not a chain.
  NodeRef S1 = G.createStore(G.arg(0), G.arg(1), G.arg(2));
  NodeRef S2 = G.createStore(G.arg(0), G.arg(2), G.arg(1));
  G.setResults({S1});
  (void)S2;
  std::vector<std::string> Problems = verifyGraph(G);
  ASSERT_FALSE(Problems.empty());
  EXPECT_NE(Problems[0].find("chain"), std::string::npos);
}

TEST(Verifier, DetectsCreationOrderCycle) {
  Graph G(8, {Sort::value(8)});
  NodeRef A = G.createUnary(Opcode::Not, G.arg(0));
  NodeRef B = G.createUnary(Opcode::Minus, A);
  // Rewire the earlier node to use the later one: a cycle through the
  // data dependencies.
  A.Def->setOperand(0, B);
  G.setResults({B});
  std::vector<std::string> Problems = verifyGraph(G);
  ASSERT_FALSE(Problems.empty());
  EXPECT_NE(Problems[0].find("breaks creation-order acyclicity"),
            std::string::npos);
}

TEST(Verifier, DetectsSortMismatchDiagnostic) {
  Graph G(8, {Sort::memory(), Sort::value(8)});
  NodeRef Add = G.createBinary(Opcode::Add, G.arg(1), G.arg(1));
  // Wire the memory argument into a value operand slot.
  Add.Def->setOperand(1, G.arg(0));
  G.setResults({Add});
  std::vector<std::string> Problems = verifyGraph(G);
  ASSERT_FALSE(Problems.empty());
  EXPECT_NE(Problems[0].find("has sort"), std::string::npos);
  EXPECT_NE(Problems[0].find("expected"), std::string::npos);
}

TEST(Verifier, DetectsResultIndexOutOfRange) {
  Graph G(8, {Sort::value(8)});
  NodeRef NotA = G.createUnary(Opcode::Not, G.arg(0));
  NodeRef Minus = G.createUnary(Opcode::Minus, NotA);
  Minus.Def->setOperand(0, NodeRef(NotA.Def, 3));
  G.setResults({Minus});
  std::vector<std::string> Problems = verifyGraph(G);
  ASSERT_FALSE(Problems.empty());
  EXPECT_NE(Problems[0].find("uses result index out of range"),
            std::string::npos);
}

TEST(Verifier, DetectsDanglingMemoryChain) {
  Graph G(8, {Sort::memory(), Sort::value(8), Sort::value(8)});
  NodeRef Store = G.createStore(G.arg(0), G.arg(1), G.arg(2));
  // The store's memory token neither feeds an operation nor escapes
  // through the results: its side effect is silently dropped.
  G.setResults({G.arg(2)});
  std::vector<std::string> Problems = verifyGraph(G);
  ASSERT_FALSE(Problems.empty());
  EXPECT_NE(Problems[0].find("memory chain dangles"), std::string::npos);

  // Letting the token escape fixes it.
  G.setResults({Store, G.arg(2)});
  EXPECT_TRUE(verifyGraph(G).empty());
}

TEST(Verifier, AcceptsProperChain) {
  Graph G(8, {Sort::memory(), Sort::value(8), Sort::value(8)});
  NodeRef S1 = G.createStore(G.arg(0), G.arg(1), G.arg(2));
  NodeRef S2 = G.createStore(S1, G.arg(2), G.arg(1));
  G.setResults({S2});
  EXPECT_TRUE(verifyGraph(G).empty());
}

TEST(Opcode, NamesRoundTrip) {
  for (Opcode Op : allTemplateOpcodes())
    EXPECT_EQ(opcodeFromName(opcodeName(Op)), Op);
  for (Relation Rel : allRelations()) {
    EXPECT_EQ(relationFromName(relationName(Rel)), Rel);
    EXPECT_EQ(negateRelation(negateRelation(Rel)), Rel);
    EXPECT_EQ(swapRelation(swapRelation(Rel)), Rel);
  }
}

TEST(Opcode, Signatures) {
  EXPECT_EQ(opcodeArgSorts(Opcode::Load, 32).size(), 2u);
  EXPECT_EQ(opcodeResultSorts(Opcode::Load, 32).size(), 2u);
  EXPECT_EQ(opcodeResultSorts(Opcode::Cond, 32).size(), 2u);
  EXPECT_TRUE(opcodeHasInternalAttribute(Opcode::Const));
  EXPECT_TRUE(opcodeHasInternalAttribute(Opcode::Cmp));
  EXPECT_FALSE(opcodeHasInternalAttribute(Opcode::Add));
  EXPECT_TRUE(opcodeIsCommutative(Opcode::Xor));
  EXPECT_FALSE(opcodeIsCommutative(Opcode::Sub));
  EXPECT_TRUE(opcodeTouchesMemory(Opcode::Store));
}

// --- GraphViz rendering ---------------------------------------------------

#include "ir/GraphViz.h"

TEST(GraphViz, PatternDot) {
  Graph G = makeFigure1Pattern();
  std::string Dot = graphToDot(G, "fig1");
  EXPECT_NE(Dot.find("digraph fig1"), std::string::npos);
  EXPECT_NE(Dot.find("Load"), std::string::npos);
  EXPECT_NE(Dot.find("Add"), std::string::npos);
  EXPECT_NE(Dot.find("style=dashed"), std::string::npos); // Memory edge.
  EXPECT_NE(Dot.find("Res1"), std::string::npos);
  // Balanced braces (very rough well-formedness).
  EXPECT_EQ(std::count(Dot.begin(), Dot.end(), '{'),
            std::count(Dot.begin(), Dot.end(), '}'));
}

TEST(GraphViz, FunctionDot) {
  Function F("dotfn", 8);
  BasicBlock *Entry =
      F.createBlock("entry", {Sort::memory(), Sort::value(8)});
  BasicBlock *Then = F.createBlock("then", {Sort::memory()});
  BasicBlock *Else = F.createBlock("els", {Sort::memory()});
  {
    Graph &G = Entry->body();
    NodeRef C = G.createCmp(Relation::Eq, G.arg(1),
                            G.createConst(BitValue(8, 0)));
    Entry->setBranch(C, Then, {G.arg(0)}, Else, {G.arg(0)});
  }
  for (BasicBlock *BB : {Then, Else}) {
    Graph &G = BB->body();
    BB->setReturn({G.arg(0), G.createConst(BitValue(8, 1))});
  }
  std::string Dot = functionToDot(F);
  EXPECT_NE(Dot.find("cluster_b0_"), std::string::npos);
  EXPECT_NE(Dot.find("taken"), std::string::npos);
  EXPECT_NE(Dot.find("Branch"), std::string::npos);
  EXPECT_EQ(std::count(Dot.begin(), Dot.end(), '{'),
            std::count(Dot.begin(), Dot.end(), '}'));
}
