// The tool contract, tested once: characterize_cell, characterize_corners,
// sta_path and netlist_sim share one flag grammar and one exit-code map
// (examples/cli.hpp, README "Exit codes").  Each probe runs the built tool
// in its own temporary directory and checks the exit code; a few also check
// that the stats report and the trace land on a failing run.
//
// Most probes take milliseconds: they fail at parse time, at the first
// budget charge or at checkpoint open, or run the analytic-library BLIF flow
// on the 30-gate golden circuit.  The --strict degrade probe characterizes
// the demo NAND2, the fleet check runs one quick corner, and the
// nearest-corner check runs a two-corner fleet.

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/registry.hpp"
#include "obs/report.hpp"
#include "support/fault_injection.hpp"

namespace {

namespace fs = std::filesystem;

const std::string kCell = PROX_TOOL_CHARACTERIZE_CELL;
const std::string kCorners = PROX_TOOL_CHARACTERIZE_CORNERS;
const std::string kSta = PROX_TOOL_STA_PATH;
const std::string kNetlist = PROX_TOOL_NETLIST_SIM;
const std::string kBlif =
    std::string("--blif=") + PROX_TEST_DATA_DIR + "/golden30.blif";

/// A fresh working directory per probe, removed afterwards.
struct WorkDir {
  fs::path path;
  explicit WorkDir(const std::string& name) {
    path = fs::temp_directory_path() /
           ("prox_cli_contract_" + std::to_string(::getpid()) + "_" + name);
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~WorkDir() { fs::remove_all(path); }
  WorkDir(const WorkDir&) = delete;
  WorkDir& operator=(const WorkDir&) = delete;
  bool has(const std::string& file) const { return fs::exists(path / file); }
  std::string read(const std::string& file) const {
    std::ifstream is(path / file);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
  }
};

/// Runs @p tool with @p args inside @p dir; a signal death reads 128 + the
/// signal number, as a shell reports it.
int run(const WorkDir& dir, const std::string& tool, const std::string& args) {
  const std::string cmd = "cd '" + dir.path.string() + "' && '" + tool +
                          "' " + args + " >out.txt 2>err.txt";
  const int status = std::system(cmd.c_str());
  if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
  return WEXITSTATUS(status);
}

struct Probe {
  const char* name;
  const std::string* tool;
  std::string args;
  int expected;
};

std::ostream& operator<<(std::ostream& os, const Probe& p) {
  return os << fs::path(*p.tool).filename().string() << " -> " << p.expected;
}

const std::vector<Probe>& probes() {
  static const std::vector<Probe> rows = {
      // Numbers are whole tokens: a malformed one is a usage error.
      {"CellCrashAtNotANumber", &kCell, "--quick --crash-at=abc", 2},
      {"CellCrashAtTrailingJunk", &kCell, "--quick --crash-at=5x", 2},
      {"StaThreadsNotANumber", &kSta, kBlif + " --threads=abc", 2},
      {"StaMaxNodesTrailingJunk", &kSta, kBlif + " --max-nodes=3x", 2},
      {"StaTimeoutNaN", &kSta, kBlif + " --timeout=nan", 2},
      {"CornersTimeoutNotANumber", &kCorners,
       "--quick --timeout=abc --out=b.proxbundle", 2},
      // A timeout past the clock's range arms no deadline.
      {"StaTimeoutBeyondClockRange", &kSta, kBlif + " --timeout=1e10", 0},
      // Unknown flags.
      {"CellUnknownFlag", &kCell, "--no-such-flag", 2},
      {"CornersUnknownFlag", &kCorners, "--no-such-flag", 2},
      {"StaUnknownFlag", &kSta, "--no-such-flag", 2},
      {"NetlistUnknownFlag", &kNetlist, "--no-such-flag", 2},
      // --stats always takes a value; an empty one is a usage error.
      {"CellEmptyStats", &kCell, "--stats= --quick --timeout=1", 2},
      {"CornersEmptyStats", &kCorners,
       "--stats= --quick --timeout=1 --out=b.proxbundle", 2},
      {"StaEmptyStats", &kSta, "--stats=", 2},
      {"NetlistEmptyStats", &kNetlist, "--stats=", 2},
      // A value flag followed by another flag never takes it as its value.
      {"CellStatsThenFlag", &kCell, "--stats --quick --timeout=1", 2},
      {"CornersStatsThenFlag", &kCorners, "--stats --quick", 2},
      {"StaThreadsThenFlag", &kSta, "--threads --stats", 2},
      {"StaBlifThenFlag", &kSta, "--blif --stats", 2},
      {"NetlistThreadsThenFlag", &kNetlist, "--threads --stats", 2},
      // I/O failures exit 1.
      {"StaUnwritableStats", &kSta, kBlif + " --stats=missing/s.json", 1},
      // A tripped resource budget exits 7: golden30 holds 30 instances.
      {"StaBlifOverNodeCap", &kSta, kBlif + " --max-nodes=3", 7},
      // --strict: 0 on a clean run, 3 when an arc degraded (a warning).
      {"StaStrictCleanBlif", &kSta, kBlif + " --strict", 0},
      {"StaStrictDegradedGraph", &kSta,
       "--strict --graph=cyclic --structural=degrade", 3},
      // netlist_sim is the deck example; timing flags live in sta_path.
      {"NetlistStrictIsUnknown", &kNetlist, "--strict", 2},
      {"NetlistBundleIsUnknown", &kNetlist, "--bundle=b.proxbundle", 2},
  };
  return rows;
}

class CliContract : public ::testing::TestWithParam<Probe> {};

TEST_P(CliContract, ExitCode) {
  const Probe& p = GetParam();
  WorkDir dir(p.name);
  EXPECT_EQ(run(dir, *p.tool, p.args), p.expected)
      << *p.tool << ' ' << p.args << "\nstderr:\n" << dir.read("err.txt");
  // The two-token form must not have swallowed the next flag as a file.
  EXPECT_FALSE(dir.has("--quick"));
  EXPECT_FALSE(dir.has("--stats"));
}

INSTANTIATE_TEST_SUITE_P(
    Tools, CliContract, ::testing::ValuesIn(probes()),
    [](const ::testing::TestParamInfo<Probe>& info) {
      return std::string(info.param.name);
    });

// A checkpoint that cannot be opened is an I/O failure (exit 1), and the
// stats report still lands.
TEST(CliContractReport, UnwritableCheckpointExitsOneWithStats) {
  WorkDir dir("UnwritableCheckpoint");
  EXPECT_EQ(run(dir, kCell,
                "--quick --checkpoint=missing/x.ckpt --stats=s.json"),
            1)
      << dir.read("err.txt");
  EXPECT_TRUE(dir.has("s.json"));
  EXPECT_FALSE(dir.has("nand3.prox"));
}

// A tripped budget exits 7 and still commits the stats report (with the
// budget counters) and the trace.
TEST(CliContractReport, BudgetFailureCommitsStatsAndTrace) {
  WorkDir dir("BudgetFailure");
  EXPECT_EQ(run(dir, kNetlist, "--max-nodes=2 --stats=s.json --trace=t.json"),
            7)
      << dir.read("err.txt");
  ASSERT_TRUE(dir.has("s.json"));
  EXPECT_TRUE(dir.has("t.json"));
  if (prox::obs::kStatsCompiledIn) {
    EXPECT_NE(dir.read("s.json").find("support.budget.exceeded"),
              std::string::npos);
  }
}

// The BLIF flow levelizes once per netlist: the proximity and the classic
// analysis walk one schedule of golden30's 30 gates in 5 levels.
TEST(CliContractReport, BlifFlowLevelizesOncePerNetlist) {
  WorkDir dir("BlifLevelize");
  EXPECT_EQ(run(dir, kSta, kBlif + " --stats=s.json"), 0)
      << dir.read("err.txt");
  EXPECT_NE(dir.read("out.txt").find("5 levels deep"), std::string::npos);
  if (prox::obs::kStatsCompiledIn) {
    const prox::obs::Report report = prox::obs::parseJson(dir.read("s.json"));
    EXPECT_EQ(report.counterValue("sta.graph.runs"), 2u);
    EXPECT_EQ(report.counterValue("sta.graph.nodes_levelized"), 30u);
    EXPECT_EQ(report.counterValue("sta.graph.levels"), 5u);
  }
}

// The fleet forwards --progress to its workers as the token it parsed: a
// value too small for six decimals must not reach them as "0.000000",
// which every worker would reject as a usage error.
TEST(CliContractReport, FleetForwardsProgressAsParsed) {
  WorkDir dir("FleetProgress");
  std::ofstream(dir.path / "one.corners")
      << "proxcorners 1\ncorner tt vdd 1.0 vt 0.0 kp 1.0 gamma 1.0\n";
  EXPECT_EQ(run(dir, kCorners,
                "--quick --corners=one.corners --progress=1e-7 "
                "--max-retries=0 --out=b.proxbundle --quiet"),
            0)
      << dir.read("err.txt");
}

#if PROX_ENABLE_FAULT_INJECTION
// --strict counts a bundle's nearest-corner substitution, which selectCorner
// logs as a Warning (exit 3); a characterized corner of the same bundle
// exits 0.
TEST(CliContractReport, StrictCountsNearestCornerSubstitution) {
  WorkDir dir("StrictNearestCorner");
  std::ofstream(dir.path / "two.corners")
      << "proxcorners 1\ncorner tt vdd 1.0 vt 0.0 kp 1.0 gamma 1.0\n"
         "corner ss vdd 1.0 vt 0.1 kp 1.0 gamma 1.0\n";
  // Shard 0 (tt) dies on all three attempts and is quarantined: exit 1.
  ASSERT_EQ(run(dir, kCorners,
                "--quick --corners=two.corners --retry-backoff=0.05 "
                "--inject=crash@0*3 --out=holes.proxbundle --quiet"),
            1)
      << dir.read("err.txt");
  EXPECT_EQ(run(dir, kSta,
                "--strict --bundle=holes.proxbundle --corner=tt "
                "--corner-policy=degrade"),
            3)
      << dir.read("err.txt");
  EXPECT_NE(dir.read("err.txt").find("nearest characterized corner"),
            std::string::npos);
  EXPECT_EQ(run(dir, kSta, "--strict --bundle=holes.proxbundle --corner=ss"),
            0)
      << dir.read("err.txt");
}
#endif  // PROX_ENABLE_FAULT_INJECTION

}  // namespace
