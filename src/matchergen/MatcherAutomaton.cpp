//===- MatcherAutomaton.cpp - Discrimination-tree rule matcher ----------------===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//

#include "matchergen/MatcherAutomaton.h"

#include "support/AtomicFile.h"
#include "support/Error.h"

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <map>

using namespace selgen;

namespace {

/// One trie transition. Wildcard edges consume one subject value
/// without descending; node edges test one subject position
/// structurally and open its operand positions.
struct Edge {
  enum class Kind { Wildcard, Node };
  Kind EdgeKind = Kind::Wildcard;
  uint32_t To = 0;
  // Wildcard symbols: the pattern argument's sort.
  Sort WildSort = Sort::boolean();
  // Node symbols: the structural tests of Matcher's matchValue.
  uint32_t ResultIndex = binfmt::AnyResultIndex;
  Opcode Op = Opcode::Arg;
  bool HasConst = false;
  BitValue ConstValue;
  bool HasRelation = false;
  Relation Rel = Relation::Eq;
};

struct State {
  std::vector<Edge> Edges;
  /// Rule indices accepted here, ascending (priority order).
  std::vector<uint32_t> AcceptRules;
};

/// Structural equality of two symbols (the edge minus its target).
bool symbolsEqual(const Edge &A, const Edge &B) {
  if (A.EdgeKind != B.EdgeKind)
    return false;
  if (A.EdgeKind == Edge::Kind::Wildcard)
    return A.WildSort == B.WildSort;
  if (A.ResultIndex != B.ResultIndex || A.Op != B.Op ||
      A.HasConst != B.HasConst || A.HasRelation != B.HasRelation)
    return false;
  if (A.HasConst && (A.ConstValue.width() != B.ConstValue.width() ||
                     A.ConstValue != B.ConstValue))
    return false;
  if (A.HasRelation && A.Rel != B.Rel)
    return false;
  return true;
}

/// Fills the structural tests of a node symbol from a pattern node.
void fillNodeSymbol(Edge &E, const Node *N) {
  E.EdgeKind = Edge::Kind::Node;
  E.Op = N->opcode();
  if (N->opcode() == Opcode::Const) {
    E.HasConst = true;
    E.ConstValue = N->constValue();
  } else if (N->opcode() == Opcode::Cmp) {
    E.HasRelation = true;
    E.Rel = N->relation();
  }
}

/// Pre-order flattening of a pattern value: wildcard for arguments
/// (no descent), node symbol plus operand values otherwise.
void flattenValue(NodeRef V, std::vector<Edge> &Out) {
  const Node *N = V.Def;
  Edge E;
  if (N->opcode() == Opcode::Arg) {
    E.EdgeKind = Edge::Kind::Wildcard;
    E.WildSort = N->resultSort(0);
    Out.push_back(E);
    return;
  }
  E.ResultIndex = V.Index;
  fillNodeSymbol(E, N);
  Out.push_back(E);
  for (const NodeRef &Operand : N->operands())
    flattenValue(Operand, Out);
}

/// The trie under construction. State 0 is the body root, state 1 the
/// jump root; states are numbered in creation order and edges kept in
/// insertion order, which is what makes the emitted image a
/// deterministic function of the (priority-sorted) patterns.
class TrieBuilder {
public:
  TrieBuilder() {
    BodyRoot = newState();
    JumpRoot = newState();
  }

  void insertPattern(const AutomatonPattern &P);

  /// Renders the trie as a bin-v2 image (layout in BinaryAutomaton.h).
  std::string emit(const std::string &LibraryFingerprint, uint32_t NumRules,
                   const std::vector<RuleCost> &RuleCosts,
                   uint32_t CostVersion) const;

private:
  uint32_t newState() {
    States.emplace_back();
    return static_cast<uint32_t>(States.size() - 1);
  }
  /// Follows (or creates) the edge for \p Symbol out of \p From.
  uint32_t extend(uint32_t From, const Edge &Symbol);
  /// Doubles EdgeSlots and re-inserts every edge.
  void growEdgeSlots();

  /// One edge in the lookup table: its source state and its position
  /// in that state's Edges.
  struct EdgeSlot {
    uint64_t Hash = 0;
    uint32_t From = NoState;
    uint32_t Position = 0;
  };
  static constexpr uint32_t NoState = ~0u;

  std::vector<State> States;
  /// Open-addressing table over all edges, keyed by (source state,
  /// symbol) and at most half full, so extend() finds an edge without
  /// scanning its state's edges (one per distinct constant, in an
  /// inflated library).
  std::vector<EdgeSlot> EdgeSlots = std::vector<EdgeSlot>(64);
  size_t NumEdges = 0;
  /// insertPattern()'s symbol string, reused across patterns.
  std::vector<Edge> Symbols;
  uint32_t BodyRoot = 0;
  uint32_t JumpRoot = 0;
};

/// Hash of the symbol \p E on an edge out of state \p From; symbols
/// that symbolsEqual() equates hash alike.
uint64_t edgeHash(uint32_t From, const Edge &E) {
  uint64_t Hash = 1469598103934665603ull; // FNV-1a over the fields.
  auto mix = [&Hash](uint64_t Value) {
    Hash ^= Value;
    Hash *= 1099511628211ull;
  };
  mix(From);
  mix(uint64_t(E.EdgeKind));
  if (E.EdgeKind == Edge::Kind::Wildcard) {
    mix(uint64_t(E.WildSort.Kind) << 32 | E.WildSort.Width);
    return Hash;
  }
  mix(uint64_t(E.ResultIndex) << 32 | uint64_t(E.Op));
  if (E.HasConst)
    mix(E.ConstValue.hash() ^ E.ConstValue.width());
  if (E.HasRelation)
    mix(uint64_t(E.Rel) + 1);
  return Hash;
}

uint32_t TrieBuilder::extend(uint32_t From, const Edge &Symbol) {
  uint64_t Hash = edgeHash(From, Symbol);
  size_t Mask = EdgeSlots.size() - 1;
  for (size_t I = Hash & Mask;; I = (I + 1) & Mask) {
    EdgeSlot &Slot = EdgeSlots[I];
    if (Slot.From == NoState) {
      Slot = {Hash, From, static_cast<uint32_t>(States[From].Edges.size())};
      break;
    }
    if (Slot.Hash == Hash && Slot.From == From) {
      const Edge &E = States[From].Edges[Slot.Position];
      if (symbolsEqual(E, Symbol))
        return E.To;
    }
  }
  Edge New = Symbol;
  New.To = newState();
  States[From].Edges.push_back(New);
  if (2 * ++NumEdges > EdgeSlots.size())
    growEdgeSlots();
  return New.To;
}

void TrieBuilder::growEdgeSlots() {
  std::vector<EdgeSlot> Old(2 * EdgeSlots.size());
  Old.swap(EdgeSlots);
  size_t Mask = EdgeSlots.size() - 1;
  for (const EdgeSlot &Slot : Old) {
    if (Slot.From == NoState)
      continue;
    size_t I = Slot.Hash & Mask;
    while (EdgeSlots[I].From != NoState)
      I = (I + 1) & Mask;
    EdgeSlots[I] = Slot;
  }
}

void TrieBuilder::insertPattern(const AutomatonPattern &P) {
  Symbols.clear();
  uint32_t Root;
  if (P.IsJump) {
    // Jump rules match their Cond operand against the branch
    // condition value; the Cond node itself is not part of the string.
    flattenValue(P.Root->operand(0), Symbols);
    Root = JumpRoot;
  } else {
    // The body root aligns with a subject *node*; its result index is
    // not tested (Matcher's matchPattern starts at matchNode).
    Edge E;
    E.ResultIndex = binfmt::AnyResultIndex;
    fillNodeSymbol(E, P.Root);
    Symbols.push_back(E);
    for (const NodeRef &Operand : P.Root->operands())
      flattenValue(Operand, Symbols);
    Root = BodyRoot;
  }
  uint32_t StateId = Root;
  for (const Edge &Symbol : Symbols)
    StateId = extend(StateId, Symbol);
  States[StateId].AcceptRules.push_back(P.RuleIndex);
}

/// Appends \p Bytes at the next 8-aligned position; returns the offset.
uint32_t appendSection(std::string &Out, const void *Data, size_t Bytes) {
  while (Out.size() % 8)
    Out.push_back('\0');
  uint32_t Off = static_cast<uint32_t>(Out.size());
  if (Bytes)
    Out.append(static_cast<const char *>(Data), Bytes);
  return Off;
}

std::string TrieBuilder::emit(const std::string &LibraryFingerprint,
                              uint32_t NumRules,
                              const std::vector<RuleCost> &RuleCosts,
                              uint32_t CostVersion) const {
  std::vector<binfmt::State> BStates;
  std::vector<binfmt::Edge> BEdges;
  std::vector<uint32_t> BAccepts;
  std::vector<uint64_t> Pool;
  BStates.reserve(States.size());

  for (const State &S : States) {
    binfmt::State BS;
    BS.EdgeBegin = static_cast<uint32_t>(BEdges.size());
    BS.EdgeCount = static_cast<uint32_t>(S.Edges.size());
    BS.AcceptBegin = static_cast<uint32_t>(BAccepts.size());
    BS.AcceptCount = static_cast<uint32_t>(S.AcceptRules.size());
    for (const Edge &E : S.Edges) {
      binfmt::Edge BE;
      BE.To = E.To;
      if (E.EdgeKind == Edge::Kind::Wildcard) {
        BE.Kind = binfmt::EdgeKindWildcard;
        BE.ResultIndex = binfmt::AnyResultIndex;
        BE.OpOrSort = static_cast<uint8_t>(E.WildSort.Kind);
        BE.Width = E.WildSort.Width;
      } else {
        BE.Kind = binfmt::EdgeKindNode;
        BE.ResultIndex = E.ResultIndex;
        BE.OpOrSort = static_cast<uint8_t>(E.Op);
        if (E.HasConst) {
          BE.Flags |= binfmt::FlagHasConst;
          BE.Width = E.ConstValue.width();
          BE.ConstWordBegin = static_cast<uint32_t>(Pool.size());
          for (unsigned I = 0; I < E.ConstValue.wordCount(); ++I)
            Pool.push_back(E.ConstValue.word(I));
        }
        if (E.HasRelation) {
          BE.Flags |= binfmt::FlagHasRelation;
          BE.Rel = static_cast<uint8_t>(E.Rel);
        }
      }
      BEdges.push_back(BE);
    }
    BAccepts.insert(BAccepts.end(), S.AcceptRules.begin(),
                    S.AcceptRules.end());
    BStates.push_back(BS);
  }

  std::vector<binfmt::RuleCostRec> BCosts;
  BCosts.reserve(RuleCosts.size());
  for (const RuleCost &C : RuleCosts)
    BCosts.push_back({C.Instructions, C.Latency, C.Size});

  // Body-root edge ordinals by root opcode: the "indexed by root
  // opcode" entry point that makes candidate discovery start at the
  // right subtree in O(log #opcodes).
  std::map<Opcode, std::vector<uint32_t>> BodyRootEdgesByOpcode;
  const State &Root = States[BodyRoot];
  for (uint32_t I = 0; I < Root.Edges.size(); ++I)
    BodyRootEdgesByOpcode[Root.Edges[I].Op].push_back(I);
  std::vector<binfmt::RootEntry> RootIdx;
  std::vector<uint32_t> RootPool;
  for (const auto &[Op, Indices] : BodyRootEdgesByOpcode) {
    binfmt::RootEntry RE;
    RE.Op = static_cast<uint32_t>(Op);
    RE.PoolBegin = static_cast<uint32_t>(RootPool.size());
    RE.PoolCount = static_cast<uint32_t>(Indices.size());
    RootPool.insert(RootPool.end(), Indices.begin(), Indices.end());
    RootIdx.push_back(RE);
  }

  std::string Out(sizeof(binfmt::Header), '\0');
  binfmt::Header H;
  H.Magic = binfmt::Magic;
  H.Version = binfmt::Version;
  H.EndianTag = binfmt::EndianTag;
  H.NumRules = NumRules;
  H.NumStates = static_cast<uint32_t>(BStates.size());
  H.NumEdges = static_cast<uint32_t>(BEdges.size());
  H.NumAccepts = static_cast<uint32_t>(BAccepts.size());
  H.NumConstWords = static_cast<uint32_t>(Pool.size());
  H.BodyRoot = BodyRoot;
  H.JumpRoot = JumpRoot;
  H.StatesOff = appendSection(Out, BStates.data(),
                              BStates.size() * sizeof(binfmt::State));
  H.EdgesOff =
      appendSection(Out, BEdges.data(), BEdges.size() * sizeof(binfmt::Edge));
  H.AcceptsOff =
      appendSection(Out, BAccepts.data(), BAccepts.size() * sizeof(uint32_t));
  H.ConstWordsOff =
      appendSection(Out, Pool.data(), Pool.size() * sizeof(uint64_t));
  H.RootIndexOff = appendSection(Out, RootIdx.data(),
                                 RootIdx.size() * sizeof(binfmt::RootEntry));
  H.RootIndexCount = static_cast<uint32_t>(RootIdx.size());
  H.RootPoolOff =
      appendSection(Out, RootPool.data(), RootPool.size() * sizeof(uint32_t));
  H.RootPoolCount = static_cast<uint32_t>(RootPool.size());
  H.RuleCostsOff = appendSection(Out, BCosts.data(),
                                 BCosts.size() * sizeof(binfmt::RuleCostRec));
  H.CostVersion = CostVersion;
  H.FingerprintOff = static_cast<uint32_t>(Out.size());
  H.FingerprintLen = static_cast<uint32_t>(LibraryFingerprint.size());
  Out += LibraryFingerprint;
  H.TotalBytes = static_cast<uint32_t>(Out.size());
  H.PayloadCrc = crc32(Out.data() + sizeof(H), Out.size() - sizeof(H));
  H.HeaderCrc = crc32(&H, offsetof(binfmt::Header, HeaderCrc));
  std::memcpy(Out.data(), &H, sizeof(H));
  return Out;
}

} // namespace

MatcherAutomaton
MatcherAutomaton::compile(const std::vector<AutomatonPattern> &Patterns,
                          const std::string &LibraryFingerprint,
                          uint32_t NumRules,
                          const std::vector<RuleCost> &RuleCosts,
                          uint32_t CostVersion) {
  // Insert in ascending priority order so every accept list and the
  // whole trie layout are deterministic in the library order.
  std::vector<const AutomatonPattern *> Sorted;
  for (const AutomatonPattern &P : Patterns)
    Sorted.push_back(&P);
  std::sort(Sorted.begin(), Sorted.end(),
            [](const AutomatonPattern *L, const AutomatonPattern *R) {
              return L->RuleIndex < R->RuleIndex;
            });
  TrieBuilder Trie;
  for (const AutomatonPattern *P : Sorted)
    Trie.insertPattern(*P);
  std::string Image =
      Trie.emit(LibraryFingerprint, NumRules, RuleCosts, CostVersion);

  // The trie is dropped here; only the image survives, in a buffer of
  // whole words so the view's 8-byte alignment requirement holds.
  std::unique_ptr<uint64_t[]> Words(new uint64_t[(Image.size() + 7) / 8]());
  std::memcpy(Words.get(), Image.data(), Image.size());
  std::string Error;
  std::optional<BinaryAutomatonView> View =
      BinaryAutomatonView::fromMemory(Words.get(), Image.size(), &Error);
  if (!View)
    reportFatalError("compiled automaton image failed validation: " + Error);
  return MatcherAutomaton(std::move(Words), Image.size(), *View);
}

bool MatcherAutomaton::writeBinaryFile(const std::string &Path) const {
  return writeFileAtomic(Path, std::string(bytes()));
}
