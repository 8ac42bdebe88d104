//===- test_tool_differentials.cpp - End-to-end differentials over the CLIs ----===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//
//
// Differentials that drive the real command-line tools, so the contracts
// they print and write are checked where users meet them:
//
//   * Matcher differential: selgen-matchergen compiles the shipped
//     basic w8 library into an image; selgen-compile then runs every
//     workload once off that image and once with the paper's linear
//     scan. The coverage/cycle rows must agree, and the image run's
//     --stats-json must carry all five matcher counters, with
//     matcher.nodes_visited pinned.
//   * `selgen-matchergen dump` renders the image it maps.
//   * A text automaton (the retired .mat format) and an image compiled
//     from another library are refused by selgen-compile and
//     selgen-served with exit code 1 and a message saying how to
//     regenerate the image.
//   * Cost-model differential, over the mapped image of both shipped
//     libraries: every cost model (unit, latency, size) passes every
//     interpreter check (return values and final memory), its
//     --dump-asm output is pinned by CRC, and selgen-served under the
//     same --cost-model returns those .s files byte for byte. The
//     retired `tiling` selector value and a cost model on a
//     non-automaton selector are usage errors.
//   * Lint gate: selgen-lint audits both shipped libraries (the basic
//     one with examples/ir/*.ir) without an error, and with the
//     committed baselines it reports no finding at all, so any new
//     finding fails.
//   * Minimize differential, per shipped library: selgen-minimize
//     writes one certificate per deletion (the full library sheds at
//     least 50 rules), its output lints clean of shadowed-rule and
//     cost-dominated findings, selgen-compile --dump-asm is unchanged
//     below the header line, and the automaton does not grow.
//   * selgen-minimize exits 2 when it cannot write --stats-json.
//   * selgen-matchergen, selgen-compile and selgen-served report the
//     library load and preparation times, pattern.load_us and
//     isel.prepare_us, in --stats-json.
//   * A cache-less three-thread selgen-synth run screens candidates
//     concretely, grows its counterexample corpus, and never holds
//     more Z3 contexts than it has workers.
//   * Every tool refuses a --width that is not a power of two from 8
//     to 2^31, and a negative or non-numeric --threads or --runs, with
//     its usage exit code before it loads a library or starts any
//     goal work.
//
// The build injects the tool paths as SELGEN_MATCHERGEN_TOOL,
// SELGEN_COMPILE_TOOL, SELGEN_SERVED_TOOL, SELGEN_MINIMIZE_TOOL,
// SELGEN_LINT_TOOL, SELGEN_SYNTH_TOOL and SELGEN_TESTGEN_TOOL.
//
//===----------------------------------------------------------------------===//

#include "SpawnedServer.h"
#include "serve/ServeProtocol.h"
#include "support/AtomicFile.h"
#include "support/Wire.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <filesystem>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

namespace {

std::string freshDir(const std::string &Name) {
  std::string Dir = ::testing::TempDir() + "selgen_tools_" + Name;
  std::filesystem::remove_all(Dir);
  std::filesystem::create_directories(Dir);
  return Dir;
}

/// Runs \p Tool with \p Args, stdin from /dev/null, stdout and stderr
/// to \p LogPath; returns the exit code (-1 if the tool did not exit
/// normally).
int runTool(const std::string &Tool, const std::vector<std::string> &Args,
            const std::string &LogPath) {
  pid_t Child = ::fork();
  if (Child == 0) {
    if (!::freopen("/dev/null", "r", stdin) ||
        !::freopen(LogPath.c_str(), "w", stdout))
      ::_exit(126);
    ::dup2(::fileno(stdout), ::fileno(stderr));
    std::vector<std::string> Mutable = Args;
    std::string Path = Tool;
    std::vector<char *> Argv{Path.data()};
    for (std::string &Arg : Mutable)
      Argv.push_back(Arg.data());
    Argv.push_back(nullptr);
    ::execv(Path.c_str(), Argv.data());
    ::_exit(127);
  }
  int Status = 0;
  ::waitpid(Child, &Status, 0);
  return WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
}

std::string readLog(const std::string &Path) {
  return selgen::readFileToString(Path).value_or("");
}

/// The per-benchmark table rows of a selgen-compile log ("164.gzip
/// ..."), with runs of spaces squeezed: the table is padded to the
/// selector-name header, which legitimately differs between selectors.
std::vector<std::string> benchmarkRows(const std::string &Log) {
  std::vector<std::string> Rows;
  std::istringstream In(Log);
  std::string Line;
  while (std::getline(In, Line)) {
    size_t Digits = Line.find_first_not_of("0123456789");
    if (Digits == 0 || Digits == std::string::npos || Line[Digits] != '.')
      continue;
    std::string Squeezed;
    for (char C : Line)
      if (C != ' ' || Squeezed.empty() || Squeezed.back() != ' ')
        Squeezed.push_back(C);
    Rows.push_back(Squeezed);
  }
  return Rows;
}

/// The value of counter \p Name in a --stats-json dump, or -1 if the
/// dump does not carry it.
int64_t counterValue(const std::string &Json, const std::string &Name) {
  std::string Key = "\"" + Name + "\": ";
  size_t Pos = Json.find(Key);
  if (Pos == std::string::npos)
    return -1;
  return std::stoll(Json.substr(Pos + Key.size()));
}

const std::string BasicLibrary =
    std::string(SELGEN_ARTIFACTS_DIR) + "/rule-library-basic-w8.dat";
const std::string ShippedLibraries[] = {
    BasicLibrary,
    std::string(SELGEN_ARTIFACTS_DIR) + "/rule-library-full-w8.dat"};

} // namespace

TEST(MatcherDifferential, ImageRowsMatchLinearScanAndCountersLand) {
  std::string Dir = freshDir("matcher");
  std::string Image = Dir + "/basic.matb";
  std::string Stats = Dir + "/stats.json";
  ASSERT_EQ(runTool(SELGEN_MATCHERGEN_TOOL,
                    {"--library", BasicLibrary, "--output", Image},
                    Dir + "/matchergen.log"),
            0)
      << readLog(Dir + "/matchergen.log");
  ASSERT_EQ(runTool(SELGEN_COMPILE_TOOL,
                    {"--library", BasicLibrary, "--automaton", Image,
                     "--stats-json", Stats},
                    Dir + "/auto.log"),
            0)
      << readLog(Dir + "/auto.log");
  ASSERT_EQ(runTool(SELGEN_COMPILE_TOOL,
                    {"--library", BasicLibrary, "--selector", "linear"},
                    Dir + "/linear.log"),
            0)
      << readLog(Dir + "/linear.log");

  std::vector<std::string> AutoRows = benchmarkRows(readLog(Dir + "/auto.log"));
  std::vector<std::string> LinearRows =
      benchmarkRows(readLog(Dir + "/linear.log"));
  EXPECT_FALSE(AutoRows.empty());
  EXPECT_EQ(AutoRows, LinearRows);

  std::string Json = readLog(Stats);
  for (const char *Counter :
       {"automaton.states", "automaton.transitions", "selector.rules_tried",
        "matcher.nodes_visited", "selector.select_us"})
    EXPECT_NE(Json.find("\"" + std::string(Counter) + "\""),
              std::string::npos)
        << "missing " << Counter << " in " << Stats;
  // The automaton states candidate discovery visits over the eleven
  // workloads: a walk that visits a state twice or skips one moves it.
  EXPECT_EQ(counterValue(Json, "matcher.nodes_visited"), 3278) << Json;
}

TEST(ToolStats, LoadAndPrepareTimesLandInStatsJson) {
  // The selector tools share one load helper, which times the load
  // (deserialize, non-normalized filter, sort) and the preparation
  // under perfbench's span names.
  std::string Dir = freshDir("load_stats");
  std::string Image = Dir + "/basic.matb";
  std::map<std::string, std::string> Dumps = {
      {"selgen-matchergen", Dir + "/matchergen.json"},
      {"selgen-compile", Dir + "/compile.json"},
      {"selgen-served", Dir + "/served.json"}};
  ASSERT_EQ(runTool(SELGEN_MATCHERGEN_TOOL,
                    {"--library", BasicLibrary, "--output", Image,
                     "--stats-json", Dumps["selgen-matchergen"]},
                    Dir + "/matchergen.log"),
            0)
      << readLog(Dir + "/matchergen.log");
  ASSERT_EQ(runTool(SELGEN_COMPILE_TOOL,
                    {"--library", BasicLibrary, "--automaton", Image,
                     "--benchmark", "175.vpr", "--stats-json",
                     Dumps["selgen-compile"]},
                    Dir + "/compile.log"),
            0)
      << readLog(Dir + "/compile.log");
  signal(SIGPIPE, SIG_IGN);
  selgen::SpawnedServer Server;
  Server.start({SELGEN_SERVED_TOOL, "--library", BasicLibrary, "--automaton",
                Image, "--stats-json", Dumps["selgen-served"]});
  ASSERT_GE(Server.Pid, 0);
  ASSERT_TRUE(selgen::wire::writeFrame(Server.ToChild,
                                       selgen::wire::Shutdown, ""));
  int Status = Server.wait();
  ASSERT_TRUE(WIFEXITED(Status) && WEXITSTATUS(Status) == 0) << Status;

  for (const auto &[Tool, Path] : Dumps) {
    std::string Json = readLog(Path);
    EXPECT_GT(counterValue(Json, "pattern.load_us"), 0) << Tool << ": " << Json;
    EXPECT_GT(counterValue(Json, "isel.prepare_us"), 0) << Tool << ": " << Json;
  }
}

TEST(MatcherDifferential, DumpRendersTheMappedImage) {
  std::string Dir = freshDir("dump");
  std::string Image = Dir + "/basic.matb";
  ASSERT_EQ(runTool(SELGEN_MATCHERGEN_TOOL,
                    {"--library", BasicLibrary, "--output", Image},
                    Dir + "/matchergen.log"),
            0)
      << readLog(Dir + "/matchergen.log");
  ASSERT_EQ(runTool(SELGEN_MATCHERGEN_TOOL, {"dump", Image},
                    Dir + "/dump.log"),
            0)
      << readLog(Dir + "/dump.log");

  std::string Dump = readLog(Dir + "/dump.log");
  EXPECT_EQ(Dump.rfind("selgen-matcher-automaton-bin-v2\n", 0), 0u) << Dump;
  EXPECT_NE(Dump.find("\nstate 0\n"), std::string::npos);
  EXPECT_NE(Dump.find(" accept "), std::string::npos);
  EXPECT_NE(Dump.find("\ncost 0 "), std::string::npos);
  ASSERT_GE(Dump.size(), 4u);
  EXPECT_EQ(Dump.substr(Dump.size() - 4), "end\n");

  // One "state" line per state, as many as the header announces.
  size_t Announced = 0, Seen = 0;
  std::istringstream In(Dump);
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.rfind("states ", 0) == 0)
      Announced = std::stoul(Line.substr(7));
    else if (Line.rfind("state ", 0) == 0)
      ++Seen;
  }
  EXPECT_GT(Announced, 2u);
  EXPECT_EQ(Seen, Announced);

  EXPECT_EQ(runTool(SELGEN_MATCHERGEN_TOOL, {"dump", Dir + "/missing.matb"},
                    Dir + "/missing.log"),
            1);
}

TEST(MatcherDifferential, TextAutomatonRefusedWithRegenerateHint) {
  std::string Dir = freshDir("text");
  std::string Text = Dir + "/old.mat";
  ASSERT_TRUE(selgen::writeFileAtomic(
      Text, "selgen-matcher-automaton-v2\nlibrary 03e3529f05a3ed75\n"
            "rules 26\nstates 2\nbody 0\njump 1\ncostver 1\n"
            "state 0\nstate 1\nend\n"));
  const std::string Hint =
      "selgen-matchergen --library <rules.dat> --output <file>.matb";

  EXPECT_EQ(runTool(SELGEN_COMPILE_TOOL,
                    {"--library", BasicLibrary, "--automaton", Text},
                    Dir + "/compile.log"),
            1);
  std::string CompileLog = readLog(Dir + "/compile.log");
  EXPECT_NE(CompileLog.find("bad-magic"), std::string::npos) << CompileLog;
  EXPECT_NE(CompileLog.find(Hint), std::string::npos) << CompileLog;

  EXPECT_EQ(runTool(SELGEN_SERVED_TOOL,
                    {"--library", BasicLibrary, "--automaton", Text},
                    Dir + "/served.log"),
            1);
  std::string ServedLog = readLog(Dir + "/served.log");
  EXPECT_NE(ServedLog.find("bad-magic"), std::string::npos) << ServedLog;
  EXPECT_NE(ServedLog.find(Hint), std::string::npos) << ServedLog;

  // A well-formed image compiled from another library is stale: both
  // tools refuse it at startup instead of selecting with it.
  std::string Stale = Dir + "/full.matb";
  ASSERT_EQ(runTool(SELGEN_MATCHERGEN_TOOL,
                    {"--library", ShippedLibraries[1], "--output", Stale},
                    Dir + "/matchergen.log"),
            0)
      << readLog(Dir + "/matchergen.log");
  for (const char *Tool : {SELGEN_COMPILE_TOOL, SELGEN_SERVED_TOOL}) {
    std::string Log = Dir + "/stale.log";
    EXPECT_EQ(runTool(Tool, {"--library", BasicLibrary, "--automaton", Stale},
                      Log),
              1)
        << Tool;
    std::string Text = readLog(Log);
    EXPECT_NE(Text.find("stale automaton; re-run selgen-matchergen"),
              std::string::npos)
        << Tool << ": " << Text;
  }
}

namespace {

/// Starts selgen-served on pipes over \p Library and \p Image under
/// cost model \p Model, sends one batch naming the workload of each
/// .s file in \p AsmFiles, and expects each reply's machine code to
/// equal that file byte for byte.
void expectServedMatchesDump(const std::string &Library,
                             const std::string &Image, const char *Model,
                             const std::vector<std::string> &AsmFiles) {
  signal(SIGPIPE, SIG_IGN);
  selgen::SpawnedServer Server;
  Server.start({SELGEN_SERVED_TOOL, "--library", Library, "--automaton",
                Image, "--cost-model", Model, "--threads", "2"});
  ASSERT_GE(Server.Pid, 0);
  selgen::BatchRequest Request;
  Request.Width = 8;
  for (const std::string &File : AsmFiles)
    Request.Workloads.push_back(std::filesystem::path(File).stem().string());
  ASSERT_TRUE(selgen::wire::writeFrame(Server.ToChild, selgen::wire::Request,
                                       selgen::encodeBatchRequest(Request)));
  selgen::wire::Frame Frame;
  ASSERT_EQ(selgen::wire::readFrame(Server.FromChild, Frame, 120000),
            selgen::wire::ReadStatus::Ok);
  ASSERT_EQ(Frame.Type, selgen::wire::Response)
      << selgen::decodeServeError(Frame.Payload).Message;
  std::string Error;
  std::optional<selgen::BatchReply> Reply =
      selgen::decodeBatchReply(Frame.Payload, &Error);
  ASSERT_TRUE(Reply) << Error;
  ASSERT_EQ(Reply->Results.size(), AsmFiles.size());
  for (size_t I = 0; I < AsmFiles.size(); ++I)
    EXPECT_EQ(Reply->Results[I].Asm, readLog(AsmFiles[I]))
        << Model << " served code differs from " << AsmFiles[I];
  ASSERT_TRUE(selgen::wire::writeFrame(Server.ToChild,
                                       selgen::wire::Shutdown, ""));
  int Status = Server.wait();
  EXPECT_TRUE(WIFEXITED(Status) && WEXITSTATUS(Status) == 0) << Status;
}

} // namespace

TEST(CostModelDifferential, EveryModelMatchesPinsAndServedCode) {
  // The cost model is the automaton selector's only setting. Unit is
  // first-match; latency and size run the tiling pre-pass through the
  // mapped image and its per-rule cost table. Every interpreter check
  // must pass, and the emitted machine code, header line included,
  // must stay what it was (for latency and size, what the retired
  // `tiling` selector value emitted). The pins are the CRC-32 of the
  // workloads' .s files concatenated in file-name order. The compile
  // server under the same cost model returns the same bytes.
  struct Pin {
    const char *Model;
    uint32_t Crc[2]; ///< Basic, full library.
  };
  const Pin Pins[] = {{"unit", {0x5c070df2u, 0x7f658c36u}},
                      {"latency", {0x896983c4u, 0xa885119fu}},
                      {"size", {0x896983c4u, 0x3f4db766u}}};
  unsigned LibraryIndex = 0;
  for (const std::string &Library : ShippedLibraries) {
    std::string Dir = freshDir("costmodel_" + std::to_string(LibraryIndex));
    std::string Image = Dir + "/lib.matb";
    ASSERT_EQ(runTool(SELGEN_MATCHERGEN_TOOL,
                      {"--library", Library, "--output", Image},
                      Dir + "/matchergen.log"),
              0)
        << readLog(Dir + "/matchergen.log");
    for (const Pin &P : Pins) {
      std::string AsmDir = Dir + "/" + P.Model;
      std::string LogPath = AsmDir + ".log";
      int Code = runTool(SELGEN_COMPILE_TOOL,
                         {"--library", Library, "--automaton", Image,
                          "--cost-model", P.Model, "--dump-asm", AsmDir},
                         LogPath);
      std::string Log = readLog(LogPath);
      ASSERT_EQ(Code, 0) << Log;
      EXPECT_EQ(benchmarkRows(Log).size(), 11u) << Log;
      EXPECT_EQ(Log.find("MISMATCH"), std::string::npos) << Log;

      std::vector<std::string> Files;
      for (const auto &Entry : std::filesystem::directory_iterator(AsmDir))
        Files.push_back(Entry.path().string());
      std::sort(Files.begin(), Files.end());
      EXPECT_EQ(Files.size(), 11u);
      std::string All;
      for (const std::string &File : Files)
        All += readLog(File);
      EXPECT_EQ(selgen::crc32(All), P.Crc[LibraryIndex])
          << P.Model << " code changed for " << Library;
      expectServedMatchesDump(Library, Image, P.Model, Files);
    }
    ++LibraryIndex;
  }
}

TEST(CostModelDifferential, RetiredTilingSelectorIsAUsageError) {
  std::string Dir = freshDir("costmodel_usage");
  EXPECT_EQ(runTool(SELGEN_COMPILE_TOOL,
                    {"--library", BasicLibrary, "--selector", "tiling"},
                    Dir + "/tiling.log"),
            1);
  std::string TilingLog = readLog(Dir + "/tiling.log");
  EXPECT_NE(TilingLog.find("auto|linear|handwritten"), std::string::npos)
      << TilingLog;

  EXPECT_EQ(runTool(SELGEN_COMPILE_TOOL,
                    {"--library", BasicLibrary, "--cost-model", "latency",
                     "--selector", "linear"},
                    Dir + "/linear.log"),
            1);
  std::string LinearLog = readLog(Dir + "/linear.log");
  EXPECT_NE(LinearLog.find("--cost-model requires --selector auto"),
            std::string::npos)
      << LinearLog;
}

namespace {

/// Runs \p Tool like runTool and expects it to exit 0.
bool runsClean(const std::string &Tool, const std::vector<std::string> &Args,
               const std::string &LogPath) {
  int Code = runTool(Tool, Args, LogPath);
  EXPECT_EQ(Code, 0) << readLog(LogPath);
  return Code == 0;
}

/// The .s files selgen-compile --dump-asm wrote to \p Dir, by name,
/// without their header line (it names the selector).
std::map<std::string, std::string> dumpedAsmBodies(const std::string &Dir) {
  std::map<std::string, std::string> Files;
  for (const auto &Entry : std::filesystem::directory_iterator(Dir)) {
    std::string Text = readLog(Entry.path().string());
    Files[Entry.path().filename().string()] =
        Text.substr(std::min(Text.size(), Text.find('\n') + 1));
  }
  return Files;
}

/// The automaton state count selgen-matchergen reports for \p Library.
int64_t automatonStates(const std::string &Library, const std::string &Dir) {
  std::string Stats = Dir + "/matchergen-stats.json";
  runsClean(SELGEN_MATCHERGEN_TOOL,
            {"--library", Library, "--output", Dir + "/lib.matb",
             "--stats-json", Stats},
            Dir + "/matchergen.log");
  return counterValue(readLog(Stats), "automaton.states");
}

} // namespace

TEST(LintGate, ShippedLibrariesHaveNoFindingOutsideTheirBaselines) {
  std::string Dir = freshDir("lint");
  std::vector<std::string> IrFiles;
  for (const auto &Entry : std::filesystem::directory_iterator(
           std::filesystem::path(SELGEN_ARTIFACTS_DIR) / ".." / "examples" /
           "ir"))
    if (Entry.path().extension() == ".ir")
      IrFiles.push_back(Entry.path().string());
  ASSERT_FALSE(IrFiles.empty());

  for (std::string Name : {"basic", "full"}) {
    std::string Library = std::string(SELGEN_ARTIFACTS_DIR) +
                          "/rule-library-" + Name + "-w8.dat";
    // selgen-lint exits 1 iff a finding has severity error.
    std::vector<std::string> Args = {"--library", Library, "--width", "8",
                                     "--output", Dir + "/all.json",
                                     "--quiet"};
    if (Name == "basic")
      Args.insert(Args.end(), IrFiles.begin(), IrFiles.end());
    runsClean(SELGEN_LINT_TOOL, Args, Dir + "/" + Name + ".log");

    // The baseline acknowledges today's warnings by fingerprint, so
    // whatever the report still holds is new.
    std::string Report = Dir + "/" + Name + "-new.json";
    runsClean(SELGEN_LINT_TOOL,
              {"--library", Library, "--width", "8", "--baseline",
               std::string(SELGEN_ARTIFACTS_DIR) + "/lint-baseline-" + Name +
                   "-w8.json",
               "--output", Report, "--quiet"},
              Dir + "/" + Name + "-new.log");
    std::string Json = readLog(Report);
    EXPECT_NE(Json.find("\"findings\": []"), std::string::npos)
        << "new lint findings on " << Name << ":\n" << Json;
  }
}

TEST(MinimizeDifferential, CertifiedDeletionsKeepCodeAndLintClean) {
  for (unsigned I = 0; I < 2; ++I) {
    const std::string &Library = ShippedLibraries[I];
    std::string Dir = freshDir("minimize_" + std::to_string(I));
    std::string Minimized = Dir + "/min.dat";
    std::string Certificates = Dir + "/certificates.json";
    ASSERT_TRUE(runsClean(SELGEN_MINIMIZE_TOOL,
                          {"--library", Library, "--width", "8", "--output",
                           Minimized, "--certificate", Certificates},
                          Dir + "/minimize.log"));

    // One certificate per deleted rule; the full library sheds many.
    std::string Json = readLog(Certificates);
    int64_t Deleted = counterValue(Json, "deleted");
    EXPECT_GE(Deleted, I == 1 ? 50 : 1) << Json;
    EXPECT_EQ(counterValue(Json, "rulesBefore") -
                  counterValue(Json, "rulesAfter"),
              Deleted);
    size_t Certified = 0;
    for (size_t Pos = Json.find("\"ruleIndex\""); Pos != std::string::npos;
         Pos = Json.find("\"ruleIndex\"", Pos + 1))
      ++Certified;
    EXPECT_EQ(Certified, static_cast<size_t>(Deleted)) << Json;

    // The pass reaches a fixpoint: no dead rule is left to find.
    std::string Relint = Dir + "/relint.json";
    runsClean(SELGEN_LINT_TOOL,
              {"--library", Minimized, "--width", "8", "--output", Relint,
               "--quiet"},
              Dir + "/relint.log");
    for (const char *Code : {"shadowed-rule", "cost-dominated"})
      EXPECT_EQ(readLog(Relint).find(Code), std::string::npos)
          << Library << " minimized output still has " << Code;

    // First-match deletions keep selection byte for byte.
    for (const auto &[Lib, AsmDir] : {std::pair{Library, Dir + "/control"},
                                      std::pair{Minimized, Dir + "/after"}})
      ASSERT_TRUE(runsClean(SELGEN_COMPILE_TOOL,
                            {"--library", Lib, "--dump-asm", AsmDir},
                            Dir + "/compile.log"));
    std::map<std::string, std::string> Control =
        dumpedAsmBodies(Dir + "/control");
    EXPECT_EQ(Control.size(), 11u);
    EXPECT_TRUE(Control == dumpedAsmBodies(Dir + "/after"))
        << "minimizing " << Library << " changed the machine code";

    int64_t StatesBefore = automatonStates(Library, Dir);
    EXPECT_GT(StatesBefore, 0);
    EXPECT_LE(automatonStates(Minimized, Dir), StatesBefore) << Library;
  }
}

TEST(MinimizeTool, UnwritableStatsJsonExitsTwo) {
  std::string Dir = freshDir("minimize_stats");
  std::string Unwritable = Dir + "/no-such-dir/stats.json";
  EXPECT_EQ(runTool(SELGEN_MINIMIZE_TOOL,
                    {"--library", BasicLibrary, "--output",
                     Dir + "/min.dat", "--stats-json", Unwritable},
                    Dir + "/minimize.log"),
            2);
  std::string Log = readLog(Dir + "/minimize.log");
  EXPECT_NE(Log.find("cannot write " + Unwritable), std::string::npos)
      << Log;
}

TEST(SynthTool, PrescreenActiveAndOneContextPerWorker) {
  // A warm-cache run never enters CEGIS, so this run goes without a
  // cache.
  std::string Dir = freshDir("synth_prescreen");
  std::string Stats = Dir + "/stats.json";
  ASSERT_EQ(runTool(SELGEN_SYNTH_TOOL,
                    {"--goals", "add_rr,and_rr,inc_r", "--width", "8",
                     "--budget", "20", "--no-cache", "--threads", "3",
                     "--output", Dir + "/rules.dat", "--stats-json", Stats},
                    Dir + "/synth.log"),
            0)
      << readLog(Dir + "/synth.log");
  std::string Json = readLog(Stats);
  EXPECT_GT(counterValue(Json, "prescreen.candidates"), 0) << Json;
  EXPECT_GT(counterValue(Json, "corpus.insertions"), 0) << Json;
  int64_t PeakLive = counterValue(Json, "smt.contexts_peak_live");
  EXPECT_GE(PeakLive, 1) << Json;
  EXPECT_LE(PeakLive, 3) << Json;
  EXPECT_GE(counterValue(Json, "smt.contexts_created"), PeakLive) << Json;
}

namespace {

/// Runs \p Tool with \p Args plus `Flag Value`, output to \p Log, and
/// checks the value is refused up front: exit \p UsageExit and a
/// "<flag> must be" usage error. Returns the tool's log.
std::string expectRefuses(const std::string &Log, const std::string &Tool,
                          std::vector<std::string> Args,
                          const std::string &Flag, const std::string &Value,
                          int UsageExit = 1) {
  Args.push_back(Flag);
  Args.push_back(Value);
  int Code = runTool(Tool, Args, Log);
  std::string Text = readLog(Log);
  EXPECT_EQ(Code, UsageExit) << Tool << " " << Flag << " " << Value << "\n"
                             << Text;
  EXPECT_NE(Text.find(Flag + " must be"), std::string::npos)
      << Tool << " " << Flag << " " << Value << "\n"
      << Text;
  return Text;
}

/// Runs a one-goal selgen-synth with \p BadFlag set to \p Value and
/// checks it is refused before any goal work: no synthesis banner and
/// no library written.
void expectSynthRefuses(const std::string &Name, const std::string &BadFlag,
                        const std::string &Value) {
  std::string Dir = freshDir("synth_" + Name);
  std::string Text = expectRefuses(
      Dir + "/synth.log", SELGEN_SYNTH_TOOL,
      {"--goals", "mov_ri", "--budget", "5", "--no-cache", "--output",
       Dir + "/rules.dat"},
      BadFlag, Value);
  EXPECT_EQ(Text.find("synthesizing"), std::string::npos) << Text;
  EXPECT_FALSE(std::filesystem::exists(Dir + "/rules.dat"));
}

} // namespace

TEST(SynthTool, NegativeThreadsIsRejected) {
  expectSynthRefuses("threads_negative", "--threads", "-1");
}

TEST(SynthTool, ZeroWidthIsRejected) {
  expectSynthRefuses("width_zero", "--width", "0");
}

TEST(SynthTool, NonPowerOfTwoWidthIsRejected) {
  expectSynthRefuses("width_twelve", "--width", "12");
}

TEST(ToolCli, BadNumbersAreRefusedBeforeTheLibraryLoads) {
  // The library does not exist, so a tool that read its numbers only
  // after loading it would die on the load instead of naming the flag.
  // selgen-lint and selgen-minimize signal usage errors with exit 2.
  std::string Dir = freshDir("cli_numbers");
  const std::vector<std::string> Missing = {"--library",
                                            Dir + "/missing.dat"};
  std::vector<std::string> MinimizeArgs = Missing;
  MinimizeArgs.insert(MinimizeArgs.end(), {"--output", Dir + "/min.dat"});
  struct Case {
    const char *Tool;
    std::vector<std::string> Args;
    const char *Flag;
    const char *Value;
    int UsageExit;
  };
  const Case Cases[] = {
      {SELGEN_COMPILE_TOOL, Missing, "--width", "0", 1},
      {SELGEN_COMPILE_TOOL, Missing, "--width", "12", 1},
      {SELGEN_COMPILE_TOOL, Missing, "--runs", "-1", 1},
      {SELGEN_COMPILE_TOOL, Missing, "--runs", "three", 1},
      {SELGEN_SERVED_TOOL, Missing, "--width", "0", 1},
      {SELGEN_SERVED_TOOL, Missing, "--width", "12", 1},
      {SELGEN_SERVED_TOOL, Missing, "--threads", "-1", 1},
      {SELGEN_MATCHERGEN_TOOL, Missing, "--width", "12", 1},
      {SELGEN_TESTGEN_TOOL, Missing, "--width", "0", 1},
      {SELGEN_LINT_TOOL, Missing, "--width", "12", 2},
      {SELGEN_MINIMIZE_TOOL, MinimizeArgs, "--width", "0", 2},
  };
  for (size_t I = 0; I < std::size(Cases); ++I)
    expectRefuses(Dir + "/" + std::to_string(I) + ".log", Cases[I].Tool,
                  Cases[I].Args, Cases[I].Flag, Cases[I].Value,
                  Cases[I].UsageExit);
}
