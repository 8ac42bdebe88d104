//===- BinaryAutomaton.h - mmap-able binary automaton format -----*- C++ -*-===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The "selgen-matcher-automaton-bin-v3" format, the matcher
/// automaton's only form: one contiguous, pointer-free arena holding
/// the discrimination tree as flat tables addressed by uint32 indices.
/// MatcherAutomaton::compile emits it into an owned buffer, and
/// MatcherAutomaton::mapBinary maps a written copy; either way selection
/// matches through a BinaryAutomatonView over the bytes, so loading is
/// mmap + header/CRC validation + one bounds-check pass. The image is
/// immutable and position-independent; it can be shared read-only
/// across threads and processes.
///
/// Layout (all integers host-endian; a foreign-endian image is
/// rejected via the endianness tag, never byte-swapped):
///
///   Header        92 bytes, fixed (binfmt::Header below): magic,
///                 version, endian tag, table counts, root state ids,
///                 per-section offsets, total size, payload CRC-32,
///                 header CRC-32.
///   States        binfmt::State[NumStates]      (8-byte aligned)
///   Edges         binfmt::Edge[NumEdges]        (8-byte aligned)
///   Accepts       uint32[NumAccepts]            (8-byte aligned)
///   ConstWords    uint64[NumConstWords]         (8-byte aligned)
///   RootIndex     binfmt::RootEntry[RootIndexCount] (8-byte aligned)
///   RootPool      uint32[RootPoolCount]         (8-byte aligned)
///   Fingerprint   FingerprintLen raw bytes (unaligned tail)
///
/// States own [EdgeBegin, EdgeBegin+EdgeCount) of the edge table and
/// [AcceptBegin, ...) of the accept table; edges keep the compiler's
/// trie insertion order, so the image is a deterministic function of
/// the rule patterns, their priority order and the library fingerprint.
/// It holds no rule costs: selection prices tiles from the prepared
/// library (PreparedRule::Cost), derived at prepare time. Constant edge
/// attributes store (width, word span) into the shared uint64 pool,
/// least-significant word first, unused high bits zero — the same
/// invariant BitValue keeps, so equality is a width check plus word
/// compares. The root index is the "indexed by root opcode" entry
/// point: entries sorted strictly ascending by opcode, each owning a
/// span of body-root edge ordinals in the pool.
///
/// Validation contract: BinaryAutomatonView::fromMemory accepts a
/// buffer if and only if every table index, offset, and enum value it
/// could ever dereference is in range. Truncated, bit-flipped,
/// foreign-endian, or oversized-offset images fail with a typed
/// BinaryAutomatonError; matching on an accepted view performs no
/// further checks and cannot index out of the arena.
///
//===----------------------------------------------------------------------===//

#ifndef SELGEN_MATCHERGEN_BINARYAUTOMATON_H
#define SELGEN_MATCHERGEN_BINARYAUTOMATON_H

#include "ir/Graph.h"

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace selgen {

/// Why a binary image was rejected. Every load failure carries one of
/// these plus a human-readable message; no malformed image is ever UB.
enum class BinaryAutomatonError {
  None,
  Io,            ///< File missing/unreadable/unmappable.
  TooSmall,      ///< Shorter than the fixed header.
  Misaligned,    ///< Buffer base not 8-byte aligned.
  BadMagic,      ///< Not a binary automaton image (e.g. a text .mat).
  ForeignEndian, ///< Written on an opposite-endian host.
  BadVersion,    ///< Recognized magic, unsupported version.
  HeaderCorrupt, ///< Header CRC mismatch.
  SizeMismatch,  ///< Header's total size disagrees with the buffer.
  PayloadCorrupt,///< Payload CRC mismatch (bit rot, torn write).
  BadSection,    ///< Section offset/count outside the arena.
  BadStructure,  ///< In-bounds sections with out-of-range contents.
};

const char *binaryAutomatonErrorName(BinaryAutomatonError E);

/// On-disk structs. Exposed so tests can corrupt specific fields and
/// assert the typed rejection; everything else should go through
/// BinaryAutomatonView.
namespace binfmt {

/// The format's name, for diagnostics and dumps. The on-disk
/// discriminator is the header magic/version.
constexpr const char *FormatName = "selgen-matcher-automaton-bin-v3";
constexpr uint32_t Magic = 0x424D4753u; // "SGMB" when written little-endian.
/// v3 dropped v2's rule-cost section. Older images are refused with
/// BadVersion (there is no upgrade path; regenerate).
constexpr uint32_t Version = 3;
constexpr uint32_t EndianTag = 0x01020304u;
/// Result-index wildcard of a body pattern's first symbol: the root
/// aligns with a subject *node*, not a specific result.
constexpr uint32_t AnyResultIndex = 0xffffffffu;

struct Header {
  uint32_t Magic = 0;
  uint32_t Version = 0;
  uint32_t EndianTag = 0;
  uint32_t NumRules = 0;
  uint32_t NumStates = 0;
  uint32_t NumEdges = 0;
  uint32_t NumAccepts = 0;
  uint32_t NumConstWords = 0;
  uint32_t BodyRoot = 0;
  uint32_t JumpRoot = 0;
  uint32_t StatesOff = 0;
  uint32_t EdgesOff = 0;
  uint32_t AcceptsOff = 0;
  uint32_t ConstWordsOff = 0;
  uint32_t RootIndexOff = 0;
  uint32_t RootIndexCount = 0;
  uint32_t RootPoolOff = 0;
  uint32_t RootPoolCount = 0;
  uint32_t FingerprintOff = 0;
  uint32_t FingerprintLen = 0;
  uint32_t TotalBytes = 0;
  uint32_t PayloadCrc = 0; ///< CRC-32 of [sizeof(Header), TotalBytes).
  uint32_t HeaderCrc = 0;  ///< CRC-32 of the header bytes before this field.
};
static_assert(sizeof(Header) == 92, "fixed 92-byte header");

struct State {
  uint32_t EdgeBegin = 0;
  uint32_t EdgeCount = 0;
  uint32_t AcceptBegin = 0;
  uint32_t AcceptCount = 0;
};
static_assert(sizeof(State) == 16, "flat state record");

constexpr uint8_t EdgeKindWildcard = 0;
constexpr uint8_t EdgeKindNode = 1;
constexpr uint8_t FlagHasConst = 1;
constexpr uint8_t FlagHasRelation = 2;

struct Edge {
  uint32_t To = 0;
  /// Node edges: tested result index (AnyResultIndex for none).
  uint32_t ResultIndex = 0;
  /// Wildcard edges: the sort's bit width. Const node edges: the
  /// constant's bit width. Zero otherwise.
  uint32_t Width = 0;
  /// Const node edges: first word in the uint64 pool. Zero otherwise.
  uint32_t ConstWordBegin = 0;
  uint8_t Kind = 0;     ///< EdgeKindWildcard / EdgeKindNode.
  uint8_t OpOrSort = 0; ///< Node: Opcode. Wildcard: SortKind.
  uint8_t Flags = 0;    ///< FlagHasConst / FlagHasRelation.
  uint8_t Rel = 0;      ///< Relation when FlagHasRelation.
};
static_assert(sizeof(Edge) == 20, "flat edge record");

struct RootEntry {
  uint32_t Op = 0;        ///< Body-root opcode (ascending, unique).
  uint32_t PoolBegin = 0; ///< First body-root edge ordinal in RootPool.
  uint32_t PoolCount = 0;
};
static_assert(sizeof(RootEntry) == 12, "flat root-index record");

} // namespace binfmt

/// A zero-copy matcher over a validated binary image. Borrows the
/// memory — the arena (a mapped file or a compiled automaton's buffer)
/// must outlive the view. Matching is const, allocation-free apart
/// from the caller's output/stack vectors, and safe to run from many
/// threads over one shared image.
class BinaryAutomatonView {
public:
  /// The only way to make a view: validates \p Size bytes at \p Data
  /// (which must be 8-byte aligned, as any mmap or heap buffer is) and
  /// returns a view borrowing them. On rejection returns std::nullopt
  /// and sets \p Error / \p Code.
  static std::optional<BinaryAutomatonView>
  fromMemory(const void *Data, size_t Size, std::string *Error = nullptr,
             BinaryAutomatonError *Code = nullptr);

  // -- Matching -----------------------------------------------------------
  /// Appends to \p RulesOut the indices of every rule whose pattern
  /// could structurally match at subject node \p Subject, sorted
  /// ascending (library priority order). \p StatesVisited, if non-null,
  /// is incremented per automaton state visited.
  void matchBody(const Node *Subject, std::vector<uint32_t> &RulesOut,
                 uint64_t *StatesVisited = nullptr) const;

  /// Like matchBody for compare-and-jump rules, matching the jump tree
  /// against the branch condition value \p Subject.
  void matchJump(NodeRef Subject, std::vector<uint32_t> &RulesOut,
                 uint64_t *StatesVisited = nullptr) const;

  // -- Introspection ------------------------------------------------------
  uint32_t numRules() const { return Hdr->NumRules; }
  size_t numStates() const { return Hdr->NumStates; }
  uint64_t numTransitions() const { return Hdr->NumEdges; }
  std::string libraryFingerprint() const {
    return std::string(FingerprintData, Hdr->FingerprintLen);
  }

  /// Renders the image for humans: header fields and one line per
  /// state and edge. Write-only; nothing parses it back.
  std::string dump() const;

private:
  BinaryAutomatonView() = default;

  void collect(uint32_t StateId, std::vector<NodeRef> &Stack,
               std::vector<uint32_t> &RulesOut,
               uint64_t *StatesVisited) const;
  bool nodeEdgeAccepts(const binfmt::Edge &E, const Node *N) const;

  const binfmt::Header *Hdr = nullptr;
  const binfmt::State *States = nullptr;
  const binfmt::Edge *Edges = nullptr;
  const uint32_t *Accepts = nullptr;
  const uint64_t *ConstWords = nullptr;
  const binfmt::RootEntry *RootEntries = nullptr;
  const uint32_t *RootPool = nullptr;
  const char *FingerprintData = nullptr;
};

/// Owns one mmap'ed binary automaton image (PROT_READ) plus the
/// validated view over it. Produced by MatcherAutomaton::mapBinary.
class MappedAutomaton {
public:
  ~MappedAutomaton();
  MappedAutomaton(const MappedAutomaton &) = delete;
  MappedAutomaton &operator=(const MappedAutomaton &) = delete;

  const BinaryAutomatonView &view() const { return View; }
  size_t sizeBytes() const { return Size; }

private:
  friend class MatcherAutomaton;
  MappedAutomaton(void *Base, size_t Size, const BinaryAutomatonView &View)
      : Base(Base), Size(Size), View(View) {}

  void *Base;
  size_t Size;
  BinaryAutomatonView View;
};

} // namespace selgen

#endif // SELGEN_MATCHERGEN_BINARYAUTOMATON_H
