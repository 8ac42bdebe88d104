//===- test_lint.cpp - Rule-library auditor tests -----------------------------===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
// Seeds each class of defect selgen-lint exists to catch — an
// unsatisfiable shift precondition, a rule shadowed by an earlier more
// general rule, an inapplicable jump rule, a non-normalized pattern,
// malformed/ill-verified IR, a provable UB shift — and asserts the
// auditor reports the right finding code and severity for each.
//
//===----------------------------------------------------------------------===//

#include "analysis/RuleAudit.h"
#include "isel/PreparedLibrary.h"
#include "pattern/PatternDatabase.h"
#include "x86/Goals.h"

#include <gtest/gtest.h>

using namespace selgen;

namespace {

/// Deserializes a rule-library text, prepares it like the tool does,
/// and audits it.
std::vector<LintFinding> auditLibraryText(const std::string &Text,
                                          const LintOptions &Options = {}) {
  std::string Error;
  PatternDatabase Database = PatternDatabase::deserialize(Text, &Error);
  EXPECT_EQ(Error, "");
  Database.sortSpecificFirst();
  GoalLibrary Goals = GoalLibrary::build(8, GoalLibrary::allGroups());
  PreparedLibrary Library(Database, Goals);
  return auditPreparedLibrary(Library, 8, "test.dat", Options);
}

std::vector<const LintFinding *> byCode(const std::vector<LintFinding> &Fs,
                                        const std::string &Code) {
  std::vector<const LintFinding *> Out;
  for (const LintFinding &F : Fs)
    if (F.Code == Code)
      Out.push_back(&F);
  return Out;
}

TEST(RuleAudit, FlagsUnsatisfiableShiftPrecondition) {
  // A shift by the constant 12 at width 8 can never execute defined;
  // CEGIS asserts P+ during synthesis, so a shipped rule like this is
  // evidence of a corrupted library. The dataflow pre-filter flags it
  // and one SMT query confirms.
  std::vector<LintFinding> Findings =
      auditLibraryText("rule shl_ri\n"
                       "graph w8 args(bv8, bv8) {\n"
                       "  n0 = Const[0x0c:8]()\n"
                       "  n1 = Shl(a0, n0)\n"
                       "  results(n1)\n"
                       "}\n"
                       "endrule\n");
  std::vector<const LintFinding *> Unsat =
      byCode(Findings, "unsat-precondition");
  ASSERT_EQ(Unsat.size(), 1u);
  EXPECT_EQ(Unsat[0]->Severity, "error");
  EXPECT_EQ(Unsat[0]->Goal, "shl_ri");
  EXPECT_EQ(Unsat[0]->Library, "test.dat");
  EXPECT_GE(Unsat[0]->RuleIndex, 0);
  EXPECT_NE(Unsat[0]->Message.find("unsatisfiable"), std::string::npos);
  EXPECT_TRUE(lintHasErrors(Findings));
}

TEST(RuleAudit, InRangeConstantShiftIsClean) {
  std::vector<LintFinding> Findings =
      auditLibraryText("rule shl_ri\n"
                       "graph w8 args(bv8, bv8) {\n"
                       "  n0 = Const[0x03:8]()\n"
                       "  n1 = Shl(a0, n0)\n"
                       "  results(n1)\n"
                       "}\n"
                       "endrule\n");
  EXPECT_TRUE(byCode(Findings, "unsat-precondition").empty());
  EXPECT_FALSE(lintHasErrors(Findings));
}

TEST(RuleAudit, FlagsShadowedRule) {
  // Two rules with structurally identical patterns: whichever sorts
  // second can never fire — the earlier one claims every subject.
  std::vector<LintFinding> Findings =
      auditLibraryText("rule add_rr\n"
                       "graph w8 args(bv8, bv8) {\n"
                       "  n0 = Add(a0, a1)\n"
                       "  results(n0)\n"
                       "}\n"
                       "endrule\n"
                       "rule or_rr\n"
                       "graph w8 args(bv8, bv8) {\n"
                       "  n0 = Add(a0, a1)\n"
                       "  results(n0)\n"
                       "}\n"
                       "endrule\n");
  std::vector<const LintFinding *> Shadowed = byCode(Findings, "shadowed-rule");
  ASSERT_EQ(Shadowed.size(), 1u);
  EXPECT_EQ(Shadowed[0]->Severity, "warning");
  EXPECT_GE(Shadowed[0]->RuleIndex, 1);
  EXPECT_FALSE(lintHasErrors(Findings));
}

TEST(RuleAudit, DistinctPatternsAreNotShadowed) {
  std::vector<LintFinding> Findings =
      auditLibraryText("rule add_rr\n"
                       "graph w8 args(bv8, bv8) {\n"
                       "  n0 = Add(a0, a1)\n"
                       "  results(n0)\n"
                       "}\n"
                       "endrule\n"
                       "rule sub_rr\n"
                       "graph w8 args(bv8, bv8) {\n"
                       "  n0 = Sub(a0, a1)\n"
                       "  results(n0)\n"
                       "}\n"
                       "endrule\n");
  EXPECT_TRUE(byCode(Findings, "shadowed-rule").empty());
}

TEST(RuleAudit, FlagsInapplicableJumpRule) {
  // A compare-and-jump rule whose taken result is the raw Cmp value
  // instead of the Cond's taken output: the selection engine never
  // tries it (the shipped full library carries many of these).
  std::vector<LintFinding> Findings =
      auditLibraryText("rule cmp_je\n"
                       "graph w8 args(bv8, bv8) {\n"
                       "  n0 = Cmp[eq](a0, a1)\n"
                       "  n1 = Cond(n0)\n"
                       "  results(n0, n1.1)\n"
                       "}\n"
                       "endrule\n");
  std::vector<const LintFinding *> Jump =
      byCode(Findings, "inapplicable-jump-rule");
  ASSERT_EQ(Jump.size(), 1u);
  EXPECT_EQ(Jump[0]->Severity, "warning");
  EXPECT_EQ(Jump[0]->Goal, "cmp_je");
}

TEST(RuleAudit, ApplicableJumpRuleIsNotFlagged) {
  std::vector<LintFinding> Findings =
      auditLibraryText("rule cmp_je\n"
                       "graph w8 args(bv8, bv8) {\n"
                       "  n0 = Cmp[eq](a0, a1)\n"
                       "  n1 = Cond(n0)\n"
                       "  results(n1.0, n1.1)\n"
                       "}\n"
                       "endrule\n");
  EXPECT_TRUE(byCode(Findings, "inapplicable-jump-rule").empty());
}

TEST(RuleAudit, FlagsNonNormalizedRule) {
  // Add(a0, 0) folds away under normalization, so normalized subjects
  // can never match the pattern.
  std::vector<LintFinding> Findings =
      auditLibraryText("rule add_ri\n"
                       "graph w8 args(bv8, bv8) {\n"
                       "  n0 = Const[0x00:8]()\n"
                       "  n1 = Add(a0, n0)\n"
                       "  results(n1)\n"
                       "}\n"
                       "endrule\n");
  std::vector<const LintFinding *> NonNormal =
      byCode(Findings, "non-normalized-rule");
  ASSERT_EQ(NonNormal.size(), 1u);
  EXPECT_EQ(NonNormal[0]->Severity, "warning");
}

TEST(RuleAudit, ShippedStyleLibraryIsErrorFree) {
  // A small well-formed library mirroring shipped rules: no errors.
  std::vector<LintFinding> Findings =
      auditLibraryText("rule neg_r\n"
                       "graph w8 args(bv8) {\n"
                       "  n0 = Minus(a0)\n"
                       "  results(n0)\n"
                       "}\n"
                       "endrule\n"
                       "rule not_r\n"
                       "graph w8 args(bv8) {\n"
                       "  n0 = Not(a0)\n"
                       "  results(n0)\n"
                       "}\n"
                       "endrule\n");
  EXPECT_FALSE(lintHasErrors(Findings));
  EXPECT_TRUE(Findings.empty());
}

TEST(RuleAudit, ReportsAllSubsumersWhenAsked) {
  // Three structurally identical rules. Default presentation dedupes
  // to one shadowed-rule finding per rule (two findings); the full
  // relation has three pairs (#1 by #0, #2 by #0, #2 by #1).
  const std::string Text = "rule add_rr\n"
                           "graph w8 args(bv8, bv8) {\n"
                           "  n0 = Add(a0, a1)\n"
                           "  results(n0)\n"
                           "}\n"
                           "endrule\n"
                           "rule or_rr\n"
                           "graph w8 args(bv8, bv8) {\n"
                           "  n0 = Add(a0, a1)\n"
                           "  results(n0)\n"
                           "}\n"
                           "endrule\n"
                           "rule xor_rr\n"
                           "graph w8 args(bv8, bv8) {\n"
                           "  n0 = Add(a0, a1)\n"
                           "  results(n0)\n"
                           "}\n"
                           "endrule\n";
  std::vector<LintFinding> Deduped = auditLibraryText(Text);
  EXPECT_EQ(byCode(Deduped, "shadowed-rule").size(), 2u);

  LintOptions All;
  All.ReportAllSubsumers = true;
  std::vector<LintFinding> Full = auditLibraryText(Text, All);
  EXPECT_EQ(byCode(Full, "shadowed-rule").size(), 3u);
}

TEST(RuleAudit, FindingFingerprintsSurviveReordering) {
  // The baseline key must identify a finding by rule content, not by
  // its current priority index: inserting an unrelated rule shifts
  // every index but must not change the fingerprint.
  const std::string Shadow = "rule add_rr\n"
                             "graph w8 args(bv8, bv8) {\n"
                             "  n0 = Add(a0, a1)\n"
                             "  results(n0)\n"
                             "}\n"
                             "endrule\n"
                             "rule or_rr\n"
                             "graph w8 args(bv8, bv8) {\n"
                             "  n0 = Add(a0, a1)\n"
                             "  results(n0)\n"
                             "}\n"
                             "endrule\n";
  const std::string Unrelated = "rule sub_ri\n"
                                "graph w8 args(bv8, bv8) {\n"
                                "  n0 = Const[0x05:8]()\n"
                                "  n1 = Sub(a0, n0)\n"
                                "  results(n1)\n"
                                "}\n"
                                "endrule\n";
  std::vector<LintFinding> FirstCopy, SecondCopy;
  std::vector<LintFinding> A = auditLibraryText(Shadow);
  std::vector<LintFinding> B = auditLibraryText(Unrelated + Shadow);
  for (const LintFinding *F : byCode(A, "shadowed-rule"))
    FirstCopy.push_back(*F);
  for (const LintFinding *F : byCode(B, "shadowed-rule"))
    SecondCopy.push_back(*F);
  ASSERT_EQ(FirstCopy.size(), 1u);
  ASSERT_EQ(SecondCopy.size(), 1u);
  EXPECT_FALSE(FirstCopy[0].Fingerprint.empty());
  EXPECT_EQ(FirstCopy[0].Fingerprint, SecondCopy[0].Fingerprint);
  // The sub_ri insertion really did shift the rule's index.
  EXPECT_NE(FirstCopy[0].RuleIndex, SecondCopy[0].RuleIndex);
}

TEST(LintBaseline, SuppressesAcknowledgedFindings) {
  LintFinding Old;
  Old.Code = "shadowed-rule";
  Old.Severity = "warning";
  Old.Message = "old finding";
  Old.Library = "lib.dat";
  Old.Goal = "add_rr";
  Old.Fingerprint = "deadbeef";

  LintFinding New;
  New.Code = "shadowed-rule";
  New.Severity = "warning";
  New.Message = "new finding";
  New.Library = "lib.dat";
  New.Goal = "or_rr";
  New.Fingerprint = "0badcafe";

  LintFinding NoFp;
  NoFp.Code = "unreadable-file";
  NoFp.Severity = "error";
  NoFp.Message = "cannot read";
  NoFp.File = "gone.dat";

  // A baseline is just a previously-published findings report.
  std::string BaselineJson = findingsToJson({Old});
  std::set<std::string> Baseline = parseBaselineFingerprints(BaselineJson);
  EXPECT_EQ(Baseline.count("deadbeef"), 1u);

  std::vector<LintFinding> Findings = {Old, New, NoFp};
  size_t Suppressed = suppressBaselinedFindings(Findings, Baseline);
  EXPECT_EQ(Suppressed, 1u);
  ASSERT_EQ(Findings.size(), 2u);
  EXPECT_EQ(Findings[0].Message, "new finding");
  // Findings without a fingerprint never match a baseline.
  EXPECT_EQ(Findings[1].Code, "unreadable-file");

  std::string Json = findingsToJson(Findings, Suppressed);
  EXPECT_NE(Json.find("\"suppressed\": 1"), std::string::npos);
  EXPECT_NE(Json.find("\"fingerprint\": \"0badcafe\""), std::string::npos);
}

TEST(IrAudit, FlagsMalformedIr) {
  std::vector<LintFinding> Findings =
      auditIrText("graph w8 args(bv8) {\n", "bad.ir");
  ASSERT_EQ(Findings.size(), 1u);
  EXPECT_EQ(Findings[0].Code, "malformed-ir");
  EXPECT_EQ(Findings[0].Severity, "error");
  EXPECT_EQ(Findings[0].File, "bad.ir");
  EXPECT_TRUE(lintHasErrors(Findings));
}

TEST(IrAudit, FlagsDanglingMemoryChain) {
  // The store's memory token neither feeds another operation nor
  // escapes through the results: the verifier reports the dangle.
  std::vector<LintFinding> Findings =
      auditIrText("graph w8 args(mem, bv8, bv8) {\n"
                  "  n0 = Store(a0, a1, a2)\n"
                  "  results(a2)\n"
                  "}\n",
                  "dangle.ir");
  std::vector<const LintFinding *> Verifier =
      byCode(Findings, "verifier-error");
  ASSERT_GE(Verifier.size(), 1u);
  EXPECT_EQ(Verifier[0]->Severity, "error");
  EXPECT_NE(Verifier[0]->Message.find("dangles"), std::string::npos);
}

TEST(IrAudit, FlagsProvableUbShift) {
  std::vector<LintFinding> Findings =
      auditIrText("graph w8 args(bv8) {\n"
                  "  n0 = Const[0x09:8]()\n"
                  "  n1 = Shl(a0, n0)\n"
                  "  results(n1)\n"
                  "}\n",
                  "ub.ir");
  std::vector<const LintFinding *> Ub = byCode(Findings, "ub-shift");
  ASSERT_EQ(Ub.size(), 1u);
  EXPECT_EQ(Ub[0]->Severity, "error");
  EXPECT_TRUE(lintHasErrors(Findings));
}

TEST(IrAudit, NotesUnprovenShift) {
  std::vector<LintFinding> Findings =
      auditIrText("graph w8 args(bv8, bv8) {\n"
                  "  n0 = Shl(a0, a1)\n"
                  "  results(n0)\n"
                  "}\n",
                  "unproven.ir");
  std::vector<const LintFinding *> Notes = byCode(Findings, "unproven-shift");
  ASSERT_EQ(Notes.size(), 1u);
  EXPECT_EQ(Notes[0]->Severity, "note");
  EXPECT_FALSE(lintHasErrors(Findings));
}

TEST(IrAudit, MaskedShiftIsClean) {
  std::vector<LintFinding> Findings =
      auditIrText("graph w8 args(bv8, bv8) {\n"
                  "  n0 = Const[0x07:8]()\n"
                  "  n1 = And(a1, n0)\n"
                  "  n2 = Shl(a0, n1)\n"
                  "  results(n2)\n"
                  "}\n",
                  "clean.ir");
  EXPECT_TRUE(Findings.empty());
}

TEST(LintJson, CountsAndEscapes) {
  LintFinding Error;
  Error.Code = "ub-shift";
  Error.Severity = "error";
  Error.Message = "say \"hi\"\\";
  Error.File = "a.ir";

  LintFinding Warning;
  Warning.Code = "shadowed-rule";
  Warning.Severity = "warning";
  Warning.Message = "later rule never fires";
  Warning.Library = "lib.dat";
  Warning.Goal = "add_rr";
  Warning.RuleIndex = 3;

  LintFinding Note;
  Note.Code = "unproven-shift";
  Note.Severity = "note";
  Note.Message = "line1\nline2";
  Note.File = "b.ir";

  std::string Json = findingsToJson({Error, Warning, Note});
  EXPECT_NE(Json.find("\"errors\": 1"), std::string::npos);
  EXPECT_NE(Json.find("\"warnings\": 1"), std::string::npos);
  EXPECT_NE(Json.find("\"notes\": 1"), std::string::npos);
  EXPECT_NE(Json.find("say \\\"hi\\\"\\\\"), std::string::npos);
  EXPECT_NE(Json.find("line1\\nline2"), std::string::npos);
  EXPECT_NE(Json.find("\"ruleIndex\": 3"), std::string::npos);
  EXPECT_NE(Json.find("\"goal\": \"add_rr\""), std::string::npos);

  EXPECT_TRUE(lintHasErrors({Error, Warning, Note}));
  EXPECT_FALSE(lintHasErrors({Warning, Note}));
  EXPECT_FALSE(lintHasErrors({}));
}

TEST(LintJson, CarriageReturnAndControlCharactersEscaped) {
  // An IR file written with CRLF line ends puts '\r' into file names
  // and parser messages. The report escapes it (and any other control
  // character) the way every other JSON writer does, so the value
  // survives a round trip instead of turning into a space.
  LintFinding Finding;
  Finding.Code = "parse-error";
  Finding.Severity = "error";
  Finding.File = "crlf\r.ir";
  Finding.Message = "line1\r\nline2\x01";

  std::string Json = findingsToJson({Finding});
  EXPECT_EQ(Json.find('\r'), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"file\": \"crlf\\r.ir\""), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"message\": \"line1\\r\\nline2\\u0001\""),
            std::string::npos)
      << Json;
}

} // namespace
