//===- BinaryAutomaton.cpp - mmap-able binary automaton format ----------------===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//

#include "matchergen/BinaryAutomaton.h"

#include "matchergen/MatcherAutomaton.h"
#include "support/AtomicFile.h"

#include <algorithm>
#include <cstddef>
#include <sstream>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace selgen;

const char *selgen::binaryAutomatonErrorName(BinaryAutomatonError E) {
  switch (E) {
  case BinaryAutomatonError::None:
    return "none";
  case BinaryAutomatonError::Io:
    return "io";
  case BinaryAutomatonError::TooSmall:
    return "too-small";
  case BinaryAutomatonError::Misaligned:
    return "misaligned";
  case BinaryAutomatonError::BadMagic:
    return "bad-magic";
  case BinaryAutomatonError::ForeignEndian:
    return "foreign-endian";
  case BinaryAutomatonError::BadVersion:
    return "bad-version";
  case BinaryAutomatonError::HeaderCorrupt:
    return "header-corrupt";
  case BinaryAutomatonError::SizeMismatch:
    return "size-mismatch";
  case BinaryAutomatonError::PayloadCorrupt:
    return "payload-corrupt";
  case BinaryAutomatonError::BadSection:
    return "bad-section";
  case BinaryAutomatonError::BadStructure:
    return "bad-structure";
  }
  return "unknown";
}

namespace {

constexpr uint8_t MaxOpcode = static_cast<uint8_t>(Opcode::Cond);
constexpr uint8_t MaxSortKind = static_cast<uint8_t>(SortKind::Memory);
constexpr uint8_t MaxRelation = static_cast<uint8_t>(Relation::Sge);

/// How to replace an image this build cannot read.
constexpr const char *RegenerateHint =
    "regenerate it with 'selgen-matchergen --library <rules.dat> "
    "--output <file>.matb'";

} // namespace

//===----------------------------------------------------------------------===//
// Validation (arena -> view).
//===----------------------------------------------------------------------===//

std::optional<BinaryAutomatonView>
BinaryAutomatonView::fromMemory(const void *Data, size_t Size,
                                std::string *Error,
                                BinaryAutomatonError *Code) {
  auto fail = [&](BinaryAutomatonError E, const std::string &Message)
      -> std::optional<BinaryAutomatonView> {
    if (Error)
      *Error = std::string(binaryAutomatonErrorName(E)) + ": " + Message;
    if (Code)
      *Code = E;
    return std::nullopt;
  };

  if (Size < sizeof(binfmt::Header))
    return fail(BinaryAutomatonError::TooSmall,
                "image shorter than the fixed header");
  if (reinterpret_cast<uintptr_t>(Data) % 8 != 0)
    return fail(BinaryAutomatonError::Misaligned,
                "image base not 8-byte aligned");

  const auto *Hdr = static_cast<const binfmt::Header *>(Data);
  auto bswap = [](uint32_t V) {
    return ((V & 0xFFu) << 24) | ((V & 0xFF00u) << 8) |
           ((V >> 8) & 0xFF00u) | (V >> 24);
  };
  if (Hdr->Magic != binfmt::Magic) {
    if (Hdr->Magic == bswap(binfmt::Magic))
      return fail(BinaryAutomatonError::ForeignEndian,
                  "image written on an opposite-endian host");
    return fail(BinaryAutomatonError::BadMagic,
                "not a " + std::string(binfmt::FormatName) + " image; " +
                    RegenerateHint);
  }
  if (Hdr->EndianTag != binfmt::EndianTag)
    return fail(BinaryAutomatonError::ForeignEndian,
                "image written on an opposite-endian host");
  if (Hdr->Version != binfmt::Version)
    return fail(BinaryAutomatonError::BadVersion,
                "format version " + std::to_string(Hdr->Version) +
                    ", this build reads " + std::to_string(binfmt::Version) +
                    "; " + RegenerateHint);
  if (crc32(Hdr, offsetof(binfmt::Header, HeaderCrc)) != Hdr->HeaderCrc)
    return fail(BinaryAutomatonError::HeaderCorrupt, "header CRC mismatch");
  if (Hdr->TotalBytes != Size)
    return fail(BinaryAutomatonError::SizeMismatch,
                "header claims " + std::to_string(Hdr->TotalBytes) +
                    " bytes, buffer has " + std::to_string(Size));
  const char *Bytes = static_cast<const char *>(Data);
  if (crc32(Bytes + sizeof(binfmt::Header),
            Size - sizeof(binfmt::Header)) != Hdr->PayloadCrc)
    return fail(BinaryAutomatonError::PayloadCorrupt,
                "payload CRC mismatch");

  // Section bounds. All arithmetic in uint64 so a hostile offset can
  // never wrap past the size check.
  auto sectionOk = [&](uint32_t Off, uint64_t Count, uint64_t Stride,
                       bool Aligned) {
    if (Off < sizeof(binfmt::Header) || (Aligned && Off % 8 != 0))
      return false;
    return uint64_t(Off) + Count * Stride <= uint64_t(Hdr->TotalBytes);
  };
  if (!sectionOk(Hdr->StatesOff, Hdr->NumStates, sizeof(binfmt::State), true))
    return fail(BinaryAutomatonError::BadSection, "state table out of range");
  if (!sectionOk(Hdr->EdgesOff, Hdr->NumEdges, sizeof(binfmt::Edge), true))
    return fail(BinaryAutomatonError::BadSection, "edge table out of range");
  if (!sectionOk(Hdr->AcceptsOff, Hdr->NumAccepts, sizeof(uint32_t), true))
    return fail(BinaryAutomatonError::BadSection,
                "accept table out of range");
  if (!sectionOk(Hdr->ConstWordsOff, Hdr->NumConstWords, sizeof(uint64_t),
                 true))
    return fail(BinaryAutomatonError::BadSection,
                "constant pool out of range");
  if (!sectionOk(Hdr->RootIndexOff, Hdr->RootIndexCount,
                 sizeof(binfmt::RootEntry), true))
    return fail(BinaryAutomatonError::BadSection, "root index out of range");
  if (!sectionOk(Hdr->RootPoolOff, Hdr->RootPoolCount, sizeof(uint32_t),
                 true))
    return fail(BinaryAutomatonError::BadSection, "root pool out of range");
  if (!sectionOk(Hdr->FingerprintOff, Hdr->FingerprintLen, 1, false))
    return fail(BinaryAutomatonError::BadSection, "fingerprint out of range");

  BinaryAutomatonView V;
  V.Hdr = Hdr;
  V.States = reinterpret_cast<const binfmt::State *>(Bytes + Hdr->StatesOff);
  V.Edges = reinterpret_cast<const binfmt::Edge *>(Bytes + Hdr->EdgesOff);
  V.Accepts = reinterpret_cast<const uint32_t *>(Bytes + Hdr->AcceptsOff);
  V.ConstWords =
      reinterpret_cast<const uint64_t *>(Bytes + Hdr->ConstWordsOff);
  V.RootEntries =
      reinterpret_cast<const binfmt::RootEntry *>(Bytes + Hdr->RootIndexOff);
  V.RootPool = reinterpret_cast<const uint32_t *>(Bytes + Hdr->RootPoolOff);
  V.FingerprintData = Bytes + Hdr->FingerprintOff;

  // Structural pass: after this, matching dereferences indices without
  // any further checks, so every index an edge/state/root entry could
  // feed into a table must be proven in range here.
  auto badStructure = [&](const std::string &Message) {
    return fail(BinaryAutomatonError::BadStructure, Message);
  };
  if (Hdr->NumStates == 0 || Hdr->BodyRoot >= Hdr->NumStates ||
      Hdr->JumpRoot >= Hdr->NumStates)
    return badStructure("root states out of range");
  // The span checks run branchless (OR-accumulated, so the compiler
  // can vectorize); the early-exit loop below reruns only on failure
  // to name the first offending span. mmap startup time rides on this
  // pass, so the valid-image path must not branch per record.
  bool AnyBadState = false;
  for (uint32_t I = 0; I < Hdr->NumStates; ++I) {
    const binfmt::State &S = V.States[I];
    AnyBadState |= uint64_t(S.EdgeBegin) + S.EdgeCount > Hdr->NumEdges;
    AnyBadState |= uint64_t(S.AcceptBegin) + S.AcceptCount > Hdr->NumAccepts;
  }
  if (AnyBadState)
    for (uint32_t I = 0; I < Hdr->NumStates; ++I) {
      const binfmt::State &S = V.States[I];
      if (uint64_t(S.EdgeBegin) + S.EdgeCount > Hdr->NumEdges)
        return badStructure("state edge span out of range");
      if (uint64_t(S.AcceptBegin) + S.AcceptCount > Hdr->NumAccepts)
        return badStructure("state accept span out of range");
    }
  for (uint32_t I = 0; I < Hdr->NumEdges; ++I) {
    const binfmt::Edge &E = V.Edges[I];
    if (E.To >= Hdr->NumStates)
      return badStructure("edge target out of range");
    if (E.Kind == binfmt::EdgeKindWildcard) {
      if (E.OpOrSort > MaxSortKind || E.Flags != 0 || E.Rel != 0 ||
          E.ConstWordBegin != 0 ||
          E.ResultIndex != binfmt::AnyResultIndex)
        return badStructure("malformed wildcard edge");
      bool IsValue =
          static_cast<SortKind>(E.OpOrSort) == SortKind::Value;
      if (IsValue ? E.Width == 0 : E.Width != 0)
        return badStructure("wildcard sort width mismatch");
    } else if (E.Kind == binfmt::EdgeKindNode) {
      if (E.OpOrSort > MaxOpcode || E.Flags > 3)
        return badStructure("malformed node edge");
      Opcode Op = static_cast<Opcode>(E.OpOrSort);
      bool HasConst = E.Flags & binfmt::FlagHasConst;
      bool HasRel = E.Flags & binfmt::FlagHasRelation;
      // The compiler attaches a constant exactly to Const edges and a
      // relation exactly to Cmp edges; anything else is not an image
      // our writer produced.
      if (HasConst != (Op == Opcode::Const) || HasRel != (Op == Opcode::Cmp))
        return badStructure("edge attribute/opcode mismatch");
      if (HasConst) {
        if (E.Width == 0)
          return badStructure("constant of width zero");
        uint64_t Words = (uint64_t(E.Width) + 63) / 64;
        if (uint64_t(E.ConstWordBegin) + Words > Hdr->NumConstWords)
          return badStructure("constant word span out of range");
        if (E.Width % 64 != 0 &&
            (V.ConstWords[E.ConstWordBegin + Words - 1] >>
             (E.Width % 64)) != 0)
          return badStructure("constant has nonzero unused bits");
      } else if (E.Width != 0 || E.ConstWordBegin != 0) {
        return badStructure("stray constant fields on edge");
      }
      if (HasRel ? E.Rel > MaxRelation : E.Rel != 0)
        return badStructure("edge relation out of range");
    } else {
      return badStructure("unknown edge kind");
    }
  }
  bool AnyBadAccept = false;
  for (uint32_t I = 0; I < Hdr->NumAccepts; ++I)
    AnyBadAccept |= V.Accepts[I] >= Hdr->NumRules;
  if (AnyBadAccept)
    return badStructure("accept rule out of range");
  uint32_t BodyEdgeCount = V.States[Hdr->BodyRoot].EdgeCount;
  for (uint32_t I = 0; I < Hdr->RootIndexCount; ++I) {
    const binfmt::RootEntry &RE = V.RootEntries[I];
    if (RE.Op > MaxOpcode)
      return badStructure("root index opcode out of range");
    if (I > 0 && V.RootEntries[I - 1].Op >= RE.Op)
      return badStructure("root index not strictly ascending");
    if (uint64_t(RE.PoolBegin) + RE.PoolCount > Hdr->RootPoolCount)
      return badStructure("root index span out of range");
    for (uint32_t J = 0; J < RE.PoolCount; ++J)
      if (V.RootPool[RE.PoolBegin + J] >= BodyEdgeCount)
        return badStructure("root pool edge ordinal out of range");
  }

  if (Code)
    *Code = BinaryAutomatonError::None;
  return V;
}

//===----------------------------------------------------------------------===//
// Matching off the mapped image.
//===----------------------------------------------------------------------===//

bool BinaryAutomatonView::nodeEdgeAccepts(const binfmt::Edge &E,
                                          const Node *N) const {
  if (static_cast<Opcode>(E.OpOrSort) != N->opcode())
    return false;
  if (E.Flags & binfmt::FlagHasConst) {
    const BitValue &V = N->constValue();
    if (V.width() != E.Width)
      return false;
    const unsigned Words = (E.Width + 63) / 64;
    for (unsigned I = 0; I < Words; ++I)
      if (ConstWords[E.ConstWordBegin + I] != V.word(I))
        return false;
  }
  if ((E.Flags & binfmt::FlagHasRelation) &&
      static_cast<Relation>(E.Rel) != N->relation())
    return false;
  return true;
}

void BinaryAutomatonView::collect(uint32_t StateId,
                                  std::vector<NodeRef> &Stack,
                                  std::vector<uint32_t> &RulesOut,
                                  uint64_t *StatesVisited) const {
  const binfmt::State &S = States[StateId];
  if (StatesVisited)
    ++*StatesVisited;
  if (Stack.empty()) {
    for (uint32_t I = 0; I < S.AcceptCount; ++I)
      RulesOut.push_back(Accepts[S.AcceptBegin + I]);
    return;
  }
  NodeRef V = Stack.back();
  for (uint32_t EI = 0; EI < S.EdgeCount; ++EI) {
    const binfmt::Edge &E = Edges[S.EdgeBegin + EI];
    if (E.Kind == binfmt::EdgeKindWildcard) {
      Sort VS = V.sort();
      if (static_cast<SortKind>(E.OpOrSort) != VS.Kind ||
          E.Width != VS.Width)
        continue;
      Stack.pop_back();
      collect(E.To, Stack, RulesOut, StatesVisited);
      Stack.push_back(V);
      continue;
    }
    if (E.ResultIndex != binfmt::AnyResultIndex &&
        E.ResultIndex != V.Index)
      continue;
    if (!nodeEdgeAccepts(E, V.Def))
      continue;
    Stack.pop_back();
    size_t Restore = Stack.size();
    const OperandList &Operands = V.Def->operands();
    for (auto It = Operands.rbegin(); It != Operands.rend(); ++It)
      Stack.push_back(*It);
    collect(E.To, Stack, RulesOut, StatesVisited);
    Stack.resize(Restore);
    Stack.push_back(V);
  }
}

void BinaryAutomatonView::matchBody(const Node *Subject,
                                    std::vector<uint32_t> &RulesOut,
                                    uint64_t *StatesVisited) const {
  if (StatesVisited)
    ++*StatesVisited; // The root state itself.
  uint32_t Op = static_cast<uint32_t>(Subject->opcode());
  const binfmt::RootEntry *Begin = RootEntries;
  const binfmt::RootEntry *End = RootEntries + Hdr->RootIndexCount;
  const binfmt::RootEntry *It = std::lower_bound(
      Begin, End, Op,
      [](const binfmt::RootEntry &E, uint32_t V) { return E.Op < V; });
  if (It == End || It->Op != Op)
    return;
  size_t Before = RulesOut.size();
  const binfmt::State &Root = States[Hdr->BodyRoot];
  std::vector<NodeRef> Stack;
  for (uint32_t I = 0; I < It->PoolCount; ++I) {
    const binfmt::Edge &E =
        Edges[Root.EdgeBegin + RootPool[It->PoolBegin + I]];
    if (!nodeEdgeAccepts(E, Subject))
      continue;
    Stack.clear();
    const OperandList &Operands = Subject->operands();
    for (auto OpIt = Operands.rbegin(); OpIt != Operands.rend(); ++OpIt)
      Stack.push_back(*OpIt);
    collect(E.To, Stack, RulesOut, StatesVisited);
  }
  // Different subtrees accept in trie order; restore priority order.
  std::sort(RulesOut.begin() + Before, RulesOut.end());
}

void BinaryAutomatonView::matchJump(NodeRef Subject,
                                    std::vector<uint32_t> &RulesOut,
                                    uint64_t *StatesVisited) const {
  size_t Before = RulesOut.size();
  std::vector<NodeRef> Stack{Subject};
  collect(Hdr->JumpRoot, Stack, RulesOut, StatesVisited);
  std::sort(RulesOut.begin() + Before, RulesOut.end());
}

//===----------------------------------------------------------------------===//
// Human-readable dump.
//===----------------------------------------------------------------------===//

namespace {

/// Rebuilds a BitValue from its pool words. Validation already proved
/// the unused high bits zero, so the per-word truncation is lossless.
BitValue constFromWords(unsigned Width, const uint64_t *Words) {
  BitValue V = BitValue::zero(Width);
  for (unsigned I = 0; I * 64 < Width; ++I) {
    unsigned PatchWidth = std::min(64u, Width - I * 64);
    V = V.insert(I * 64, BitValue(PatchWidth, Words[I]));
  }
  return V;
}

} // namespace

std::string BinaryAutomatonView::dump() const {
  std::ostringstream OS;
  OS << binfmt::FormatName << "\n";
  OS << "library " << libraryFingerprint() << "\n";
  OS << "rules " << Hdr->NumRules << "\n";
  OS << "states " << Hdr->NumStates << "\n";
  OS << "body " << Hdr->BodyRoot << "\n";
  OS << "jump " << Hdr->JumpRoot << "\n";
  for (uint32_t I = 0; I < Hdr->NumStates; ++I) {
    const binfmt::State &S = States[I];
    OS << "state " << I;
    if (S.AcceptCount) {
      OS << " accept";
      for (uint32_t A = 0; A < S.AcceptCount; ++A)
        OS << " " << Accepts[S.AcceptBegin + A];
    }
    OS << "\n";
    for (uint32_t EI = 0; EI < S.EdgeCount; ++EI) {
      const binfmt::Edge &E = Edges[S.EdgeBegin + EI];
      OS << "edge " << I << " " << E.To;
      if (E.Kind == binfmt::EdgeKindWildcard) {
        Sort WildSort{static_cast<SortKind>(E.OpOrSort), E.Width};
        OS << " wild " << WildSort.str();
      } else {
        OS << " node ";
        if (E.ResultIndex == binfmt::AnyResultIndex)
          OS << "any";
        else
          OS << E.ResultIndex;
        OS << " " << opcodeName(static_cast<Opcode>(E.OpOrSort));
        if (E.Flags & binfmt::FlagHasConst)
          OS << " const " << E.Width << " "
             << constFromWords(E.Width, ConstWords + E.ConstWordBegin)
                    .toHexString()
                    .substr(2);
        if (E.Flags & binfmt::FlagHasRelation)
          OS << " rel " << relationName(static_cast<Relation>(E.Rel));
      }
      OS << "\n";
    }
  }
  OS << "end\n";
  return OS.str();
}

//===----------------------------------------------------------------------===//
// Mapping.
//===----------------------------------------------------------------------===//

MappedAutomaton::~MappedAutomaton() {
  if (Base)
    ::munmap(Base, Size);
}

std::unique_ptr<MappedAutomaton>
MatcherAutomaton::mapBinary(const std::string &Path, std::string *Error) {
  auto fail = [&](const std::string &Message) {
    if (Error)
      *Error = Message;
    return std::unique_ptr<MappedAutomaton>();
  };
  int Fd = ::open(Path.c_str(), O_RDONLY | O_CLOEXEC);
  if (Fd < 0)
    return fail("io: cannot open " + Path);
  struct stat St;
  if (::fstat(Fd, &St) != 0) {
    ::close(Fd);
    return fail("io: cannot stat " + Path);
  }
  size_t Size = static_cast<size_t>(St.st_size);
  if (Size < sizeof(binfmt::Header)) {
    ::close(Fd);
    return fail(Path + ": " +
                binaryAutomatonErrorName(BinaryAutomatonError::TooSmall) +
                ": image shorter than the fixed header");
  }
  // MAP_POPULATE prefaults the whole image in one batch: validation
  // reads every byte immediately anyway (payload CRC), and one bulk
  // fault-in is several times cheaper than ~Size/4096 demand faults.
  int Flags = MAP_PRIVATE;
#ifdef MAP_POPULATE
  Flags |= MAP_POPULATE;
#endif
  void *Base = ::mmap(nullptr, Size, PROT_READ, Flags, Fd, 0);
  ::close(Fd);
  if (Base == MAP_FAILED)
    return fail("io: cannot mmap " + Path);
  std::string ViewError;
  std::optional<BinaryAutomatonView> View =
      BinaryAutomatonView::fromMemory(Base, Size, &ViewError);
  if (!View) {
    ::munmap(Base, Size);
    return fail(Path + ": " + ViewError);
  }
  return std::unique_ptr<MappedAutomaton>(
      new MappedAutomaton(Base, Size, *View));
}
