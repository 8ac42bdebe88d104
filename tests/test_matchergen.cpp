//===- test_matchergen.cpp - Matcher-automaton compiler tests ------------------===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//

#include "InflatedLibrary.h"
#include "ir/Normalizer.h"
#include "isel/AutomatonSelector.h"
#include "isel/Matcher.h"
#include "matchergen/BinaryAutomaton.h"
#include "matchergen/MatcherAutomaton.h"
#include "refsel/ReferenceSelectors.h"
#include "support/AtomicFile.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>

using namespace selgen;

namespace {

constexpr unsigned W = 8;

/// A prepared library over the hand-curated reference rules.
struct MatchergenTest : public ::testing::Test {
  GoalLibrary Goals = GoalLibrary::build(W, GoalLibrary::allGroups());
  PatternDatabase GnuRules = buildGnuLikeRules(W);
  PreparedLibrary Library{GnuRules, Goals};
  MatcherAutomaton Automaton = buildMatcherAutomaton(Library);
  const BinaryAutomatonView &View = Automaton.view();

  /// The rules the linear selector would try for body subject \p S
  /// (root-opcode prefilter only).
  std::vector<uint32_t> linearBodyCandidates(const Node *S) const {
    std::vector<uint32_t> Out;
    for (const PreparedRule &R : Library.rules())
      if (!R.IsJumpRule && R.Root->opcode() == S->opcode())
        Out.push_back(R.Index);
    return Out;
  }

  /// The rules that fully match at \p S per the reference matcher.
  std::vector<uint32_t> fullMatches(const Node *S) const {
    std::vector<uint32_t> Out;
    for (const PreparedRule &R : Library.rules()) {
      if (R.IsJumpRule)
        continue;
      if (matchPattern(R.TheRule->Pattern, R.Goal->Spec->argRoles(), R.Root,
                       S))
        Out.push_back(R.Index);
    }
    return Out;
  }
};

bool isSubset(const std::vector<uint32_t> &Inner,
              const std::vector<uint32_t> &Outer) {
  for (uint32_t X : Inner)
    if (std::find(Outer.begin(), Outer.end(), X) == Outer.end())
      return false;
  return true;
}

} // namespace

TEST_F(MatchergenTest, SharesCommonPrefixes) {
  // The trie must be smaller than one path per rule: the reference
  // library has many rules with the same root opcode (add_rr, add_ri,
  // lea forms, ...), whose prefixes collapse into shared states.
  uint64_t TotalSymbols = 0;
  for (const PreparedRule &R : Library.rules())
    TotalSymbols +=
        R.TheRule->Pattern.numOperations() + R.TheRule->Pattern.numArgs();
  EXPECT_GT(View.numStates(), 2u);
  EXPECT_LT(View.numTransitions(), TotalSymbols);
  // A tree: every state except the two roots has exactly one parent.
  EXPECT_EQ(View.numTransitions(), View.numStates() - 2);
}

TEST_F(MatchergenTest, CandidatesAreSupersetOfMatchesAndSubsetOfLinear) {
  // Subjects with various shapes, including ones no rule matches.
  Graph G(W, {Sort::memory(), Sort::value(W), Sort::value(W)});
  std::vector<const Node *> Subjects;
  NodeRef Sum = G.createBinary(Opcode::Add, G.arg(1), G.arg(2));
  Subjects.push_back(Sum.Def);
  NodeRef Imm = G.createBinary(Opcode::Add, G.arg(1),
                               G.createConst(BitValue(W, 7)));
  Subjects.push_back(Imm.Def);
  NodeRef Blsr = G.createBinary(
      Opcode::And, G.arg(1),
      G.createBinary(Opcode::Sub, G.arg(1), G.createConst(BitValue(W, 1))));
  Subjects.push_back(Blsr.Def);
  Node *Load = G.createLoad(G.arg(0), G.arg(1));
  Subjects.push_back(Load);
  NodeRef Mux = G.createMux(G.createCmp(Relation::Ult, G.arg(1), G.arg(2)),
                            G.arg(1), G.arg(2));
  Subjects.push_back(Mux.Def);

  for (const Node *S : Subjects) {
    std::vector<uint32_t> Candidates;
    View.matchBody(S, Candidates, nullptr);
    EXPECT_TRUE(std::is_sorted(Candidates.begin(), Candidates.end()));
    EXPECT_TRUE(isSubset(Candidates, linearBodyCandidates(S)))
        << "automaton offered a rule the linear prefilter would not";
    EXPECT_TRUE(isSubset(fullMatches(S), Candidates))
        << "automaton missed a rule that fully matches";
  }
}

TEST_F(MatchergenTest, ConstantValuesDiscriminate) {
  // Two subjects that differ only in a constant must reach different
  // accept states: blsr's decrement subtree must not fire for x - 2.
  // Subjects are normalized like every selector input (x - c becomes
  // x + (-c)).
  auto makeSubject = [](uint64_t Decrement) {
    Graph G(W, {Sort::value(W)});
    NodeRef R = G.createBinary(
        Opcode::And, G.arg(0),
        G.createBinary(Opcode::Sub, G.arg(0),
                       G.createConst(BitValue(W, Decrement))));
    G.setResults({R});
    return normalizeGraph(G);
  };
  Graph Good = makeSubject(1);
  Graph Bad = makeSubject(2);

  std::vector<uint32_t> GoodRules, BadRules;
  View.matchBody(Good.results()[0].Def, GoodRules, nullptr);
  View.matchBody(Bad.results()[0].Def, BadRules, nullptr);
  // The blsr rule (And(a, Sub(a, 1))) is a candidate only for Good.
  bool FoundBlsr = false;
  for (uint32_t Index : GoodRules) {
    const PreparedRule &R = Library.rules()[Index];
    if (R.Goal->Name == "blsr") {
      FoundBlsr = true;
      EXPECT_EQ(std::find_if(BadRules.begin(), BadRules.end(),
                             [&](uint32_t B) { return B == Index; }),
                BadRules.end());
    }
  }
  EXPECT_TRUE(FoundBlsr) << "reference library lost its blsr rule?";
}

TEST_F(MatchergenTest, StateVisitCounterAdvances) {
  Graph G(W, {Sort::value(W), Sort::value(W)});
  NodeRef Sum = G.createBinary(Opcode::Add, G.arg(0), G.arg(1));
  uint64_t Visited = 0;
  std::vector<uint32_t> Rules;
  View.matchBody(Sum.Def, Rules, &Visited);
  EXPECT_GT(Visited, 0u);
  EXPECT_FALSE(Rules.empty());
}

TEST_F(MatchergenTest, StaleLibraryIsRejected) {
  // An automaton compiled from the clang-like library must be flagged
  // as stale against the gnu-like one, and vice versa.
  PatternDatabase ClangRules = buildClangLikeRules(W);
  PreparedLibrary ClangLibrary(ClangRules, Goals);
  MatcherAutomaton ClangAutomaton = buildMatcherAutomaton(ClangLibrary);

  const BinaryAutomatonView &ClangView = ClangAutomaton.view();
  EXPECT_TRUE(automatonStalenessError(View, Library).empty());
  EXPECT_TRUE(automatonStalenessError(ClangView, ClangLibrary).empty());
  EXPECT_FALSE(automatonStalenessError(ClangView, Library).empty());
  EXPECT_FALSE(automatonStalenessError(View, ClangLibrary).empty());
}

TEST_F(MatchergenTest, FingerprintTracksRuleChanges) {
  // Adding one rule changes the prepared-library fingerprint, so any
  // previously written automaton image becomes stale.
  PatternDatabase Grown = buildGnuLikeRules(W);
  {
    Graph Pattern(W, {Sort::value(W), Sort::value(W)});
    NodeRef Weird = Pattern.createBinary(
        Opcode::Xor, Pattern.createBinary(Opcode::And, Pattern.arg(0),
                                          Pattern.arg(1)),
        Pattern.arg(1));
    Pattern.setResults({Weird});
    Grown.add("xor_rr", std::move(Pattern));
  }
  PreparedLibrary GrownLibrary(Grown, Goals);
  EXPECT_NE(GrownLibrary.fingerprint(), Library.fingerprint());
  EXPECT_FALSE(automatonStalenessError(View, GrownLibrary).empty());
}

TEST_F(MatchergenTest, DagReconvergenceIsLeafChecked) {
  // A pattern whose operation node is *shared* (a DAG): r = Add(t, t)
  // with t = Not(a0). The flattening re-walks the shared node, so the
  // automaton accepts any subject of shape Add(Not(x), Not(y)) — the
  // full matcher then rejects y != x at the leaf. The automaton must
  // offer the rule for both shapes (superset), and matchPattern must
  // accept only the truly re-convergent subject.
  PatternDatabase Db;
  {
    Graph Pattern(W, {Sort::value(W)});
    NodeRef T = Pattern.createUnary(Opcode::Not, Pattern.arg(0));
    NodeRef R = Pattern.createBinary(Opcode::Add, T, T);
    Pattern.setResults({R});
    Db.add("add_rr", std::move(Pattern));
  }
  PreparedLibrary DagLibrary(Db, Goals);
  ASSERT_EQ(DagLibrary.rules().size(), 1u);
  MatcherAutomaton DagAutomaton = buildMatcherAutomaton(DagLibrary);

  Graph G(W, {Sort::value(W), Sort::value(W)});
  // Reconvergent subject: one shared Not node.
  NodeRef SharedNot = G.createUnary(Opcode::Not, G.arg(0));
  NodeRef Reconverges = G.createBinary(Opcode::Add, SharedNot, SharedNot);
  // Tree-shaped subject: two distinct Not nodes over distinct values.
  NodeRef Split = G.createBinary(Opcode::Add,
                                 G.createUnary(Opcode::Not, G.arg(0)),
                                 G.createUnary(Opcode::Not, G.arg(1)));

  const PreparedRule &Rule = DagLibrary.rules()[0];
  for (NodeRef Subject : {Reconverges, Split}) {
    std::vector<uint32_t> Candidates;
    DagAutomaton.view().matchBody(Subject.Def, Candidates, nullptr);
    EXPECT_EQ(Candidates, std::vector<uint32_t>{0})
        << "automaton must offer the DAG rule structurally";
  }
  EXPECT_TRUE(matchPattern(Rule.TheRule->Pattern, Rule.Goal->Spec->argRoles(),
                           Rule.Root, Reconverges.Def));
  EXPECT_FALSE(matchPattern(Rule.TheRule->Pattern,
                            Rule.Goal->Spec->argRoles(), Rule.Root,
                            Split.Def))
      << "full matcher must reject broken re-convergence at the leaf";
}

//===----------------------------------------------------------------------===//
// Binary format ("selgen-matcher-automaton-bin-v2")
//===----------------------------------------------------------------------===//

namespace {

/// Copies an image into 8-byte-aligned storage: fromMemory requires an
/// aligned base (which any mmap or heap allocation provides), and a
/// std::string's buffer does not guarantee it.
struct AlignedImage {
  explicit AlignedImage(const std::string &Bytes)
      : Words(Bytes.size() / 8 + 1), Size(Bytes.size()) {
    std::memcpy(Words.data(), Bytes.data(), Bytes.size());
  }
  const void *data() const { return Words.data(); }

  std::vector<uint64_t> Words;
  size_t Size;
};

/// Attempts a load and returns the typed rejection (None on success).
BinaryAutomatonError loadCode(const std::string &Bytes) {
  AlignedImage Image(Bytes);
  BinaryAutomatonError Code = BinaryAutomatonError::None;
  std::string Error;
  std::optional<BinaryAutomatonView> View =
      BinaryAutomatonView::fromMemory(Image.data(), Image.Size, &Error,
                                      &Code);
  EXPECT_EQ(View.has_value(), Code == BinaryAutomatonError::None) << Error;
  if (!View) {
    EXPECT_FALSE(Error.empty());
  }
  return Code;
}

/// Recomputes both CRCs after a deliberate field edit, so targeted
/// corruptions reach the bounds/structure checks instead of being
/// masked by the integrity checks.
void fixCrcs(std::string &Image) {
  binfmt::Header H;
  std::memcpy(&H, Image.data(), sizeof(H));
  H.PayloadCrc =
      crc32(Image.data() + sizeof(H), Image.size() - sizeof(H));
  H.HeaderCrc = crc32(&H, offsetof(binfmt::Header, HeaderCrc));
  std::memcpy(&Image[0], &H, sizeof(H));
}

binfmt::Header headerOf(const std::string &Image) {
  binfmt::Header H;
  std::memcpy(&H, Image.data(), sizeof(H));
  return H;
}

void putField(std::string &Image, size_t Offset, uint32_t Value) {
  std::memcpy(&Image[Offset], &Value, sizeof(Value));
}

} // namespace

TEST_F(MatchergenTest, BinaryFileRoundTripAndSniffing) {
  // Writing the compiled image and mapping it back is byte-identity:
  // the file holds exactly the in-memory bytes, and the mapped view
  // offers the same candidates with the same work as the compiled one.
  std::string BinPath = ::testing::TempDir() + "matchergen_rt.matb";
  ASSERT_TRUE(Automaton.writeBinaryFile(BinPath));
  std::optional<std::string> OnDisk = readFileToString(BinPath);
  ASSERT_TRUE(OnDisk);
  EXPECT_EQ(*OnDisk, std::string(Automaton.bytes()));

  std::string Error;
  std::unique_ptr<MappedAutomaton> Mapped =
      MatcherAutomaton::mapBinary(BinPath, &Error);
  ASSERT_TRUE(Mapped) << Error;
  EXPECT_EQ(Mapped->sizeBytes(), Automaton.bytes().size());
  EXPECT_TRUE(automatonStalenessError(Mapped->view(), Library).empty());
  EXPECT_EQ(Mapped->view().dump(), View.dump());

  Graph G(W, {Sort::memory(), Sort::value(W), Sort::value(W)});
  std::vector<const Node *> Subjects;
  Subjects.push_back(
      G.createBinary(Opcode::Add, G.arg(1), G.arg(2)).Def);
  Subjects.push_back(
      G.createBinary(Opcode::Add, G.arg(1), G.createConst(BitValue(W, 7)))
          .Def);
  Subjects.push_back(G.createLoad(G.arg(0), G.arg(1)));
  Subjects.push_back(
      G.createMux(G.createCmp(Relation::Ult, G.arg(1), G.arg(2)), G.arg(1),
                  G.arg(2))
          .Def);
  for (const Node *S : Subjects) {
    std::vector<uint32_t> FromMemory, FromFile;
    uint64_t MemoryVisited = 0, FileVisited = 0;
    View.matchBody(S, FromMemory, &MemoryVisited);
    Mapped->view().matchBody(S, FromFile, &FileVisited);
    EXPECT_EQ(FromMemory, FromFile);
    EXPECT_EQ(MemoryVisited, FileVisited);
  }

  // Compiling again yields the same bytes: the image is deterministic.
  EXPECT_EQ(buildMatcherAutomaton(Library).bytes(), Automaton.bytes());

  EXPECT_FALSE(
      MatcherAutomaton::mapBinary(BinPath + ".does-not-exist", &Error));
}

TEST_F(MatchergenTest, BinaryRejectsTruncation) {
  std::string Image(Automaton.bytes());
  // Every truncation point must be rejected, typed, and crash-free:
  // short of a header it is TooSmall, otherwise the total size or the
  // payload CRC can no longer hold.
  for (size_t Len = 0; Len < Image.size();
       Len += (Len < sizeof(binfmt::Header) ? 13 : 101)) {
    BinaryAutomatonError Code = loadCode(Image.substr(0, Len));
    EXPECT_NE(Code, BinaryAutomatonError::None) << "length " << Len;
    if (Len < sizeof(binfmt::Header)) {
      EXPECT_EQ(Code, BinaryAutomatonError::TooSmall) << "length " << Len;
    }
  }
  EXPECT_EQ(loadCode(Image.substr(0, Image.size() - 1)),
            BinaryAutomatonError::SizeMismatch);
}

TEST_F(MatchergenTest, BinaryRejectsEveryBitFlip) {
  std::string Image(Automaton.bytes());
  // Deterministic single-bit mutation sweep. Every byte of the image
  // is covered by one of the two CRCs (and most by a stronger check
  // first), so no flip may survive — and none may crash or index out
  // of the arena.
  size_t Stride = std::max<size_t>(1, Image.size() / 256);
  for (size_t Pos = 0; Pos < Image.size(); Pos += Stride) {
    for (unsigned Bit : {0u, 4u, 7u}) {
      std::string Mutated = Image;
      Mutated[Pos] = static_cast<char>(Mutated[Pos] ^ (1u << Bit));
      EXPECT_NE(loadCode(Mutated), BinaryAutomatonError::None)
          << "surviving flip at byte " << Pos << " bit " << Bit;
    }
  }
}

TEST_F(MatchergenTest, BinaryRejectsForeignEndianAndVersion) {
  std::string Image(Automaton.bytes());

  // Byte-swapped magic: the image of an opposite-endian writer.
  std::string Swapped = Image;
  std::swap(Swapped[0], Swapped[3]);
  std::swap(Swapped[1], Swapped[2]);
  EXPECT_EQ(loadCode(Swapped), BinaryAutomatonError::ForeignEndian);

  // Correct magic but byte-swapped endianness tag.
  std::string BadTag = Image;
  std::swap(BadTag[8], BadTag[11]);
  std::swap(BadTag[9], BadTag[10]);
  EXPECT_EQ(loadCode(BadTag), BinaryAutomatonError::ForeignEndian);

  std::string NotMagic = Image;
  NotMagic[0] = 'X';
  EXPECT_EQ(loadCode(NotMagic), BinaryAutomatonError::BadMagic);

  std::string Future = Image;
  putField(Future, offsetof(binfmt::Header, Version), binfmt::Version + 1);
  fixCrcs(Future);
  EXPECT_EQ(loadCode(Future), BinaryAutomatonError::BadVersion);

  // A flipped header byte without a CRC fix-up is HeaderCorrupt.
  std::string Corrupt = Image;
  Corrupt[offsetof(binfmt::Header, NumStates)] ^= 1;
  EXPECT_EQ(loadCode(Corrupt), BinaryAutomatonError::HeaderCorrupt);

  // A flipped payload byte with a fixed header is PayloadCorrupt.
  std::string Rot = Image;
  Rot[Rot.size() - 1] = static_cast<char>(Rot[Rot.size() - 1] ^ 0x10);
  binfmt::Header H = headerOf(Rot);
  putField(Rot, offsetof(binfmt::Header, HeaderCrc), H.HeaderCrc);
  EXPECT_EQ(loadCode(Rot), BinaryAutomatonError::PayloadCorrupt);

  EXPECT_EQ(loadCode(std::string(200, '\0')),
            BinaryAutomatonError::BadMagic);

  // A text automaton from before the image became the only form is
  // refused as BadMagic, and the message says how to regenerate it.
  std::string Text = "selgen-matcher-automaton-v2\nlibrary " +
                     Library.fingerprint() + "\n";
  Text.resize(sizeof(binfmt::Header) + 64, '\n');
  AlignedImage TextImage(Text);
  BinaryAutomatonError Code = BinaryAutomatonError::None;
  std::string Error;
  EXPECT_FALSE(BinaryAutomatonView::fromMemory(TextImage.data(),
                                               TextImage.Size, &Error, &Code));
  EXPECT_EQ(Code, BinaryAutomatonError::BadMagic);
  EXPECT_NE(Error.find("selgen-matchergen --library <rules.dat> --output "
                       "<file>.matb"),
            std::string::npos)
      << Error;
}

TEST_F(MatchergenTest, BinaryRejectsOversizedOffsetsTyped) {
  std::string Image(Automaton.bytes());
  binfmt::Header H = headerOf(Image);

  // Section offset far past the arena: BadSection even though the
  // CRCs check out, and no dereference ever happens.
  std::string HugeOff = Image;
  putField(HugeOff, offsetof(binfmt::Header, EdgesOff), 0xFFFFFFF0u);
  fixCrcs(HugeOff);
  EXPECT_EQ(loadCode(HugeOff), BinaryAutomatonError::BadSection);

  // Count overflowing the arena (offset * stride wraps in 32 bits; the
  // 64-bit bounds check must still catch it).
  std::string HugeCount = Image;
  putField(HugeCount, offsetof(binfmt::Header, NumStates), 0x40000000u);
  fixCrcs(HugeCount);
  EXPECT_EQ(loadCode(HugeCount), BinaryAutomatonError::BadSection);

  // Misaligned section offset.
  std::string Odd = Image;
  putField(Odd, offsetof(binfmt::Header, AcceptsOff), H.AcceptsOff | 2);
  fixCrcs(Odd);
  EXPECT_EQ(loadCode(Odd), BinaryAutomatonError::BadSection);

  // Lying total size.
  std::string Lies = Image;
  putField(Lies, offsetof(binfmt::Header, TotalBytes), H.TotalBytes + 64);
  fixCrcs(Lies);
  EXPECT_EQ(loadCode(Lies), BinaryAutomatonError::SizeMismatch);

  // Misaligned buffer base (checked before any content is read).
  AlignedImage Aligned(Image);
  BinaryAutomatonError Code = BinaryAutomatonError::None;
  EXPECT_FALSE(BinaryAutomatonView::fromMemory(
      reinterpret_cast<const char *>(Aligned.data()) + 4, Aligned.Size,
      nullptr, &Code));
  EXPECT_EQ(Code, BinaryAutomatonError::Misaligned);
}

TEST_F(MatchergenTest, BinaryRejectsBadStructureTyped) {
  std::string Image(Automaton.bytes());
  binfmt::Header H = headerOf(Image);
  ASSERT_GT(H.NumEdges, 0u);

  // Root state id out of range.
  std::string BadRoot = Image;
  putField(BadRoot, offsetof(binfmt::Header, BodyRoot), H.NumStates);
  fixCrcs(BadRoot);
  EXPECT_EQ(loadCode(BadRoot), BinaryAutomatonError::BadStructure);

  // First edge's target state out of range.
  std::string BadEdge = Image;
  putField(BadEdge, H.EdgesOff + offsetof(binfmt::Edge, To), H.NumStates);
  fixCrcs(BadEdge);
  EXPECT_EQ(loadCode(BadEdge), BinaryAutomatonError::BadStructure);

  // First edge's kind is neither wildcard nor node.
  std::string BadKind = Image;
  BadKind[H.EdgesOff + offsetof(binfmt::Edge, Kind)] = 7;
  fixCrcs(BadKind);
  EXPECT_EQ(loadCode(BadKind), BinaryAutomatonError::BadStructure);

  // First accept entry names a rule past the library.
  ASSERT_GT(H.NumAccepts, 0u);
  std::string BadAccept = Image;
  putField(BadAccept, H.AcceptsOff, H.NumRules);
  fixCrcs(BadAccept);
  EXPECT_EQ(loadCode(BadAccept), BinaryAutomatonError::BadStructure);

  // First state's edge span runs past the edge table.
  std::string BadSpan = Image;
  putField(BadSpan, H.StatesOff + offsetof(binfmt::State, EdgeCount),
           H.NumEdges + 1);
  fixCrcs(BadSpan);
  EXPECT_EQ(loadCode(BadSpan), BinaryAutomatonError::BadStructure);

  // Root index ordinal past the body root's edge list.
  ASSERT_GT(H.RootPoolCount, 0u);
  std::string BadPool = Image;
  putField(BadPool, H.RootPoolOff, H.NumEdges);
  fixCrcs(BadPool);
  EXPECT_EQ(loadCode(BadPool), BinaryAutomatonError::BadStructure);
}

TEST(ShippedLibraryIdentity, PreparedFingerprintAndImageBytesArePinned) {
  // The values the shipped libraries produced before the library path
  // was optimized: the load -> filter -> sort -> prepare -> compile
  // pipeline of selgen-matchergen must keep its output byte-identical.
  struct Golden {
    const char *Library;
    const char *PreparedFingerprint;
    uint32_t SerializedCrc; ///< Of serialize() after filter and sort.
    uint32_t ImageCrc;      ///< Of the writeBinaryFile() bytes.
  };
  const Golden Pins[] = {
      {"rule-library-basic-w8.dat", "03e3529f05a3ed75", 0x698c4188u,
       0xb2e667d5u},
      {"rule-library-full-w8.dat", "2b4136da68b056a5", 0x702e364bu,
       0xafeede69u},
  };
  GoalLibrary Goals = GoalLibrary::build(W, GoalLibrary::allGroups());
  for (const Golden &Pin : Pins) {
    SCOPED_TRACE(Pin.Library);
    PatternDatabase Database = PatternDatabase::loadFromFile(
        std::string(SELGEN_ARTIFACTS_DIR) + "/" + Pin.Library);
    Database.filterNonNormalized();
    Database.sortSpecificFirst();
    EXPECT_EQ(crc32(Database.serialize()), Pin.SerializedCrc);
    PreparedLibrary Library(Database, Goals);
    EXPECT_EQ(Library.fingerprint(), Pin.PreparedFingerprint);

    std::string Path =
        ::testing::TempDir() + "/golden-" + Pin.Library + ".matb";
    ASSERT_TRUE(buildMatcherAutomaton(Library).writeBinaryFile(Path));
    std::optional<std::string> Image = readFileToString(Path);
    std::remove(Path.c_str());
    ASSERT_TRUE(Image);
    EXPECT_EQ(crc32(*Image), Pin.ImageCrc);
  }
}

TEST(InflatedLibraryIdentity, PreparedFingerprintAndImageBytesArePinned) {
  // The 10 000-rule library the serve benchmark loads, through the
  // parallel load, filter and prepare: a rule moved out of priority
  // order changes the fingerprint and the image.
  PatternDatabase Database = PatternDatabase::deserialize(
      inflated(shippedLibrary("rule-library-full-w8.dat"), 10000).serialize());
  ASSERT_EQ(Database.size(), 10000u);
  Database.filterNonNormalized();
  Database.sortSpecificFirst();
  EXPECT_EQ(Database.size(), 3004u);
  EXPECT_EQ(crc32(Database.serialize()), 0x6cd0e836u);
  GoalLibrary Goals = GoalLibrary::build(W, GoalLibrary::allGroups());
  PreparedLibrary Library(Database, Goals);
  EXPECT_EQ(Library.fingerprint(), "f3e5557e88d4abd1");
  MatcherAutomaton Automaton = buildMatcherAutomaton(Library);
  EXPECT_EQ(crc32(Automaton.bytes().data(), Automaton.bytes().size()),
            0x950a8919u);
}
