// Corner-sweep fleet tests: the corner parser's trust-boundary contract,
// the multi-corner bundle round trip (including deliberate corruption), the
// degrade-or-reject corner selection policy, the orchestrator's full failure
// ladder driven by stub /bin/sh workers, and -- under fault injection -- the
// real characterize_corners tool: kill-mid-corner --resume byte-identity,
// corrupt-journal-tail recovery, and 3-strikes quarantine.
//
// Also here: the SIGTERM signal contract (satellite of the same PR).  The
// first SIGTERM/SIGINT must take the graceful path (cancel the token, flush,
// exit 6) even when a --timeout deadline latched the token first; only a
// *second* signal escalates to the default disposition.

#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cells/corner.hpp"
#include "characterize/serialize.hpp"
#include "fleet/bundle.hpp"
#include "fleet/orchestrator.hpp"
#include "obs/report.hpp"
#include "obs/registry.hpp"
#include "support/cancel.hpp"
#include "support/diagnostic.hpp"
#include "support/journal.hpp"
#include "test_util.hpp"

namespace {

namespace fs = std::filesystem;
using namespace prox;
using support::DiagnosticError;
using support::StatusCode;

struct TempDir {
  fs::path path;
  TempDir() {
    path = fs::temp_directory_path() /
           ("prox_fleet_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
  std::string file(const std::string& name) const {
    return (path / name).string();
  }
};

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

StatusCode codeOf(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const DiagnosticError& e) {
    return e.code();
  }
  return StatusCode::Ok;
}

// -- corners file parser -----------------------------------------------------

const char* kGoodCorners =
    "proxcorners 1\n"
    "# comment line\n"
    "corner tt vdd 1.0 vt 0.0 kp 1.0 gamma 1.0\n"
    "\n"
    "corner ss vdd 0.9 vt 0.1 kp 0.85 gamma 1.1\n";

TEST(CornerParser, ParsesNamedCorners) {
  const auto corners = cells::parseCornersFile(kGoodCorners, "<test>");
  ASSERT_EQ(corners.size(), 2u);
  EXPECT_EQ(corners[0].name, "tt");
  EXPECT_EQ(corners[0].vddScale, 1.0);
  EXPECT_EQ(corners[1].name, "ss");
  EXPECT_EQ(corners[1].vtShift, 0.1);
  EXPECT_EQ(corners[1].kpScale, 0.85);
  EXPECT_EQ(corners[1].gammaScale, 1.1);
}

TEST(CornerParser, RejectsMalformedInput) {
  // Wrong magic.
  EXPECT_EQ(codeOf([] {
              cells::parseCornersFile("corners 1\ncorner tt vdd 1 vt 0 kp 1 "
                                      "gamma 1\n",
                                      "<t>");
            }),
            StatusCode::ParseError);
  // Duplicate name.
  EXPECT_EQ(codeOf([] {
              cells::parseCornersFile(
                  "proxcorners 1\n"
                  "corner tt vdd 1 vt 0 kp 1 gamma 1\n"
                  "corner tt vdd 1 vt 0 kp 1 gamma 1\n",
                  "<t>");
            }),
            StatusCode::ParseError);
  // Out-of-range scale (vdd x100 is not a corner, it is a typo).
  EXPECT_EQ(codeOf([] {
              cells::parseCornersFile(
                  "proxcorners 1\ncorner tt vdd 100 vt 0 kp 1 gamma 1\n",
                  "<t>");
            }),
            StatusCode::ParseError);
  // Name with a path separator -- corners name files in the work dir.
  EXPECT_EQ(codeOf([] {
              cells::parseCornersFile(
                  "proxcorners 1\ncorner ../evil vdd 1 vt 0 kp 1 gamma 1\n",
                  "<t>");
            }),
            StatusCode::ParseError);
  // Empty set.
  EXPECT_EQ(codeOf([] { cells::parseCornersFile("proxcorners 1\n", "<t>"); }),
            StatusCode::ParseError);
}

TEST(CornerParser, DefaultCornersAreValidAndStartNominal) {
  const auto corners = cells::defaultCorners();
  ASSERT_GE(corners.size(), 3u);
  EXPECT_EQ(corners[0].name, "tt");
  EXPECT_EQ(corners[0].vddScale, 1.0);
  EXPECT_EQ(corners[0].vtShift, 0.0);
}

TEST(CornerParser, ApplyCornerShiftsThresholdMagnitude) {
  const cells::Technology base = cells::Technology::generic5v();
  cells::Corner slow;
  slow.name = "slow";
  slow.vddScale = 0.9;
  slow.vtShift = 0.1;
  slow.kpScale = 0.8;
  slow.gammaScale = 1.2;
  const cells::Technology t = cells::applyCorner(base, slow);
  EXPECT_DOUBLE_EQ(t.vdd, base.vdd * 0.9);
  // vtShift moves the *magnitude* on both devices: NMOS up, PMOS (negative
  // vt0) down.
  EXPECT_DOUBLE_EQ(t.nmos.vt0, base.nmos.vt0 + 0.1);
  EXPECT_DOUBLE_EQ(t.pmos.vt0, base.pmos.vt0 - 0.1);
  EXPECT_DOUBLE_EQ(t.nmos.kp, base.nmos.kp * 0.8);
  EXPECT_DOUBLE_EQ(t.pmos.gamma, base.pmos.gamma * 1.2);
}

TEST(CornerParser, DistanceIsZeroOnSelfAndSymmetric) {
  const auto corners = cells::defaultCorners();
  EXPECT_EQ(cells::cornerDistance(corners[0], corners[0]), 0.0);
  EXPECT_DOUBLE_EQ(cells::cornerDistance(corners[0], corners[1]),
                   cells::cornerDistance(corners[1], corners[0]));
  EXPECT_GT(cells::cornerDistance(corners[0], corners[1]), 0.0);
}

// -- bundle round trip and corner selection ----------------------------------

/// Writes a three-corner bundle: tt (ok, the cached NAND2 model),
/// bad (quarantined), gone (missing).
std::string writeTestBundle(const TempDir& dir) {
  const std::string prox = dir.file("tt.prox");
  characterize::saveGateModel(testutil::nand2Model(), prox);

  std::vector<fleet::BundleWriteEntry> entries;
  fleet::BundleWriteEntry ok;
  ok.corner.name = "tt";
  ok.status = fleet::BundleCornerStatus::Ok;
  ok.proxPath = prox;
  entries.push_back(ok);

  fleet::BundleWriteEntry bad;
  bad.corner.name = "bad";
  bad.corner.vtShift = 0.1;
  bad.status = fleet::BundleCornerStatus::Quarantined;
  bad.reason = "attempts=3,signal=9";
  entries.push_back(bad);

  fleet::BundleWriteEntry gone;
  gone.corner.name = "gone";
  gone.corner.vddScale = 1.1;
  gone.status = fleet::BundleCornerStatus::Missing;
  entries.push_back(gone);

  const std::string path = dir.file("test.proxbundle");
  fleet::writeBundle(path, entries);
  return path;
}

TEST(Bundle, RoundTripsStatusReasonAndModel) {
  TempDir dir;
  const std::string path = writeTestBundle(dir);
  const fleet::Bundle bundle = fleet::loadBundleFile(path);
  ASSERT_EQ(bundle.entries.size(), 3u);
  EXPECT_EQ(bundle.okCount(), 1u);

  const fleet::BundleEntry* tt = bundle.find("tt");
  ASSERT_NE(tt, nullptr);
  EXPECT_EQ(tt->status, fleet::BundleCornerStatus::Ok);
  ASSERT_TRUE(tt->gate.has_value());
  EXPECT_EQ(tt->gate->pinCount(), 2);

  const fleet::BundleEntry* bad = bundle.find("bad");
  ASSERT_NE(bad, nullptr);
  EXPECT_EQ(bad->status, fleet::BundleCornerStatus::Quarantined);
  EXPECT_EQ(bad->reason, "attempts=3,signal=9");
  EXPECT_FALSE(bad->gate.has_value());
  EXPECT_EQ(bad->corner.vtShift, 0.1);

  EXPECT_EQ(bundle.find("gone")->status, fleet::BundleCornerStatus::Missing);
  EXPECT_EQ(bundle.find("nope"), nullptr);
}

TEST(Bundle, EmbeddedModelMatchesSourceArtifactByteForByte) {
  TempDir dir;
  const std::string path = writeTestBundle(dir);
  const fleet::Bundle bundle = fleet::loadBundleFile(path);
  // Re-serializing the embedded model reproduces the worker artifact
  // exactly: the bundle is a container, not a re-encoding.
  std::ostringstream os;
  characterize::saveGateModel(*bundle.find("tt")->gate, os);
  EXPECT_EQ(os.str(), slurp(dir.file("tt.prox")));
}

TEST(Bundle, SelectServesCharacterizedCornerUnderBothPolicies) {
  TempDir dir;
  const fleet::Bundle bundle = fleet::loadBundleFile(writeTestBundle(dir));
  for (const auto policy : {fleet::MissingCornerPolicy::Reject,
                            fleet::MissingCornerPolicy::Degrade}) {
    const fleet::CornerSelection sel =
        fleet::selectCorner(bundle, "tt", policy);
    EXPECT_FALSE(sel.degraded);
    EXPECT_EQ(sel.entry->corner.name, "tt");
  }
}

TEST(Bundle, RejectPolicyTurnsHoleIntoStructuralError) {
  TempDir dir;
  const fleet::Bundle bundle = fleet::loadBundleFile(writeTestBundle(dir));
  EXPECT_EQ(codeOf([&] {
              fleet::selectCorner(bundle, "bad",
                                  fleet::MissingCornerPolicy::Reject);
            }),
            StatusCode::StructuralError);
  EXPECT_EQ(codeOf([&] {
              fleet::selectCorner(bundle, "gone",
                                  fleet::MissingCornerPolicy::Reject);
            }),
            StatusCode::StructuralError);
}

TEST(Bundle, DegradePolicyServesNearestAndCountsTheFallback) {
  TempDir dir;
  const fleet::Bundle bundle = fleet::loadBundleFile(writeTestBundle(dir));
  obs::counter("fleet.bundle.nearest_fallbacks").reset();
  support::DiagnosticLog log;
  const fleet::CornerSelection sel = fleet::selectCorner(
      bundle, "bad", fleet::MissingCornerPolicy::Degrade, &log);
  EXPECT_TRUE(sel.degraded);
  EXPECT_EQ(sel.requested, "bad");
  EXPECT_EQ(sel.entry->corner.name, "tt");  // the only characterized corner
  ASSERT_TRUE(sel.entry->gate.has_value());
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log.entries()[0].severity, support::Severity::Warning);
  if (obs::kStatsCompiledIn) {
    EXPECT_EQ(obs::snapshot().counterValue("fleet.bundle.nearest_fallbacks"),
              1u);
  }
}

TEST(Bundle, UnknownCornerIsAlwaysStructuralError) {
  TempDir dir;
  const fleet::Bundle bundle = fleet::loadBundleFile(writeTestBundle(dir));
  for (const auto policy : {fleet::MissingCornerPolicy::Reject,
                            fleet::MissingCornerPolicy::Degrade}) {
    EXPECT_EQ(codeOf([&] { fleet::selectCorner(bundle, "nope", policy); }),
              StatusCode::StructuralError);
  }
}

TEST(Bundle, AllHolesBundleCannotDegrade) {
  TempDir dir;
  std::vector<fleet::BundleWriteEntry> entries;
  fleet::BundleWriteEntry bad;
  bad.corner.name = "bad";
  bad.status = fleet::BundleCornerStatus::Quarantined;
  entries.push_back(bad);
  const std::string path = dir.file("holes.proxbundle");
  fleet::writeBundle(path, entries);
  const fleet::Bundle bundle = fleet::loadBundleFile(path);
  EXPECT_EQ(codeOf([&] {
              fleet::selectCorner(bundle, "bad",
                                  fleet::MissingCornerPolicy::Degrade);
            }),
            StatusCode::StructuralError);
}

TEST(Bundle, CorruptionIsRejectedNotServed) {
  TempDir dir;
  const std::string path = writeTestBundle(dir);
  const std::string good = slurp(path);

  // A flipped byte inside an embedded section trips the section CRC.
  std::string flipped = good;
  flipped[flipped.size() - 20] ^= 0x40;
  EXPECT_EQ(codeOf([&] { fleet::parseBundle(flipped, "<t>"); }),
            StatusCode::ParseError);

  // A tampered manifest line trips the line CRC.
  std::string tampered = good;
  const std::size_t pos = tampered.find(" ok ");
  ASSERT_NE(pos, std::string::npos);
  tampered.replace(pos, 4, " OK ");
  EXPECT_EQ(codeOf([&] { fleet::parseBundle(tampered, "<t>"); }),
            StatusCode::ParseError);

  // Truncation: the declared section length no longer fits.
  EXPECT_EQ(codeOf([&] {
              fleet::parseBundle(good.substr(0, good.size() - 100), "<t>");
            }),
            StatusCode::ParseError);

  // Trailing garbage after the last declared section.
  EXPECT_EQ(codeOf([&] { fleet::parseBundle(good + "extra", "<t>"); }),
            StatusCode::ParseError);

  // The original still parses (the mutations above were the problem).
  EXPECT_NO_THROW(fleet::parseBundle(good, "<t>"));
}

// -- orchestrator: failure ladder with stub workers --------------------------

fleet::FleetOptions fastOptions() {
  fleet::FleetOptions o;
  o.maxParallel = 4;
  o.maxRetries = 2;
  o.backoffBaseSeconds = 0.02;
  o.backoffMaxSeconds = 0.1;
  o.echoWorkerOutput = false;
  return o;
}

fleet::ShardSpec shellShard(const std::string& name,
                            const std::string& script) {
  fleet::ShardSpec s;
  s.name = name;
  s.command = [script](int) {
    return std::vector<std::string>{"/bin/sh", "-c", script};
  };
  return s;
}

TEST(Orchestrator, BackoffDoublesFromBaseAndCaps) {
  fleet::FleetOptions o;
  o.backoffBaseSeconds = 0.25;
  o.backoffMaxSeconds = 8.0;
  EXPECT_DOUBLE_EQ(fleet::retryBackoffSeconds(1, o), 0.25);
  EXPECT_DOUBLE_EQ(fleet::retryBackoffSeconds(2, o), 0.5);
  EXPECT_DOUBLE_EQ(fleet::retryBackoffSeconds(3, o), 1.0);
  EXPECT_DOUBLE_EQ(fleet::retryBackoffSeconds(4, o), 2.0);
  EXPECT_DOUBLE_EQ(fleet::retryBackoffSeconds(10, o), 8.0);  // capped
}

TEST(Orchestrator, HappyPathRunsEveryShardOnce) {
  TempDir dir;
  std::vector<fleet::ShardSpec> shards;
  for (int i = 0; i < 3; ++i) {
    const std::string name = "s" + std::to_string(i);
    shards.push_back(
        shellShard(name, "echo working; touch " + dir.file(name)));
  }
  const fleet::FleetReport report = fleet::runFleet(shards, fastOptions());
  ASSERT_EQ(report.shards.size(), 3u);
  EXPECT_TRUE(report.allDone());
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(report.shards[i].state, fleet::ShardState::Done);
    EXPECT_EQ(report.shards[i].attempts, 1);
    EXPECT_EQ(report.shards[i].lastExitCode, 0);
    EXPECT_FALSE(report.shards[i].resumedFromJournal);
    EXPECT_TRUE(fs::exists(dir.file("s" + std::to_string(i))));
  }
}

TEST(Orchestrator, FailingAttemptIsRetriedThenSucceeds) {
  TempDir dir;
  // First attempt plants a marker and fails; the retry sees it and succeeds.
  const std::string marker = dir.file("marker");
  std::vector<fleet::ShardSpec> shards{shellShard(
      "flaky", "if [ -e " + marker + " ]; then exit 0; fi; touch " + marker +
                   "; echo transient failure; exit 3")};
  const fleet::FleetReport report = fleet::runFleet(shards, fastOptions());
  ASSERT_EQ(report.shards.size(), 1u);
  EXPECT_EQ(report.shards[0].state, fleet::ShardState::Done);
  EXPECT_EQ(report.shards[0].attempts, 2);
  EXPECT_EQ(report.shards[0].lastExitCode, 0);
  EXPECT_TRUE(report.shards[0].resumedFromJournal);  // retries replay
}

TEST(Orchestrator, ThreeStrikesQuarantinesWithExitCodeAndDiagnostic) {
  obs::counter("fleet.shard.quarantined").reset();
  obs::counter("fleet.shard.retries").reset();
  std::vector<fleet::ShardSpec> shards{
      shellShard("doomed", "echo the-actual-reason; exit 3")};
  const fleet::FleetReport report = fleet::runFleet(shards, fastOptions());
  ASSERT_EQ(report.shards.size(), 1u);
  const fleet::ShardResult& s = report.shards[0];
  EXPECT_EQ(s.state, fleet::ShardState::Quarantined);
  EXPECT_EQ(s.attempts, 3);  // 1 try + maxRetries=2
  EXPECT_EQ(s.lastExitCode, 3);
  EXPECT_EQ(s.lastSignal, 0);
  // The machine-readable record carries the worker's own last line.
  EXPECT_NE(s.lastDiagnostic.find("the-actual-reason"), std::string::npos);
  EXPECT_FALSE(report.allDone());
  EXPECT_EQ(report.countIn(fleet::ShardState::Quarantined), 1u);
  if (obs::kStatsCompiledIn) {
    EXPECT_EQ(obs::snapshot().counterValue("fleet.shard.quarantined"), 1u);
    EXPECT_EQ(obs::snapshot().counterValue("fleet.shard.retries"), 2u);
  }
}

TEST(Orchestrator, SignaledWorkerIsRecordedBySignalNumber) {
  auto options = fastOptions();
  options.maxRetries = 0;
  std::vector<fleet::ShardSpec> shards{
      shellShard("killed", "kill -9 $$")};
  const fleet::FleetReport report = fleet::runFleet(shards, options);
  const fleet::ShardResult& s = report.shards[0];
  EXPECT_EQ(s.state, fleet::ShardState::Quarantined);
  EXPECT_EQ(s.lastExitCode, -1);
  EXPECT_EQ(s.lastSignal, SIGKILL);
}

TEST(Orchestrator, ZeroExitWithInvalidArtifactIsRetriedNotTrusted) {
  TempDir dir;
  obs::counter("fleet.shard.invalid_artifacts").reset();
  // The worker always "succeeds"; validation fails until the marker exists
  // (planted by the second attempt).
  const std::string marker = dir.file("artifact");
  fleet::ShardSpec shard = shellShard(
      "liar", "if [ -e " + marker + ".tmp ]; then mv " + marker + ".tmp " +
                  marker + "; fi; touch " + marker + ".tmp; exit 0");
  shard.validateArtifact = [marker](std::string* reason) {
    if (fs::exists(marker)) return true;
    if (reason != nullptr) *reason = "artifact not written";
    return false;
  };
  const fleet::FleetReport report =
      fleet::runFleet({shard}, fastOptions());
  const fleet::ShardResult& s = report.shards[0];
  EXPECT_EQ(s.state, fleet::ShardState::Done);
  EXPECT_EQ(s.attempts, 2);
  if (obs::kStatsCompiledIn) {
    EXPECT_GE(obs::snapshot().counterValue("fleet.shard.invalid_artifacts"),
              1u);
  }
}

TEST(Orchestrator, DeadlineOverrunIsKilledAndDiagnosed) {
  auto options = fastOptions();
  options.maxRetries = 0;
  options.shardDeadlineSeconds = 0.2;
  options.killGraceSeconds = 0.2;
  std::vector<fleet::ShardSpec> shards{shellShard("slow", "sleep 30")};
  const fleet::FleetReport report = fleet::runFleet(shards, options);
  const fleet::ShardResult& s = report.shards[0];
  EXPECT_EQ(s.state, fleet::ShardState::Quarantined);
  EXPECT_NE(s.lastDiagnostic.find("killed by supervisor (deadline)"),
            std::string::npos);
  EXPECT_NE(s.lastSignal, 0);  // sh dies on SIGTERM (or SIGKILL escalation)
}

TEST(Orchestrator, HeartbeatSilenceIsKilledEvenBeforeDeadline) {
  auto options = fastOptions();
  options.maxRetries = 0;
  options.shardDeadlineSeconds = 60.0;  // far away: heartbeat must fire first
  options.heartbeatTimeoutSeconds = 0.25;
  options.killGraceSeconds = 0.2;
  std::vector<fleet::ShardSpec> shards{
      shellShard("silent", "echo one heartbeat; sleep 30")};
  const fleet::FleetReport report = fleet::runFleet(shards, options);
  const fleet::ShardResult& s = report.shards[0];
  EXPECT_EQ(s.state, fleet::ShardState::Quarantined);
  EXPECT_NE(s.lastDiagnostic.find("killed by supervisor (heartbeat)"),
            std::string::npos);
}

TEST(Orchestrator, CancellationTerminatesWorkersAndThrowsTyped) {
  support::CancelToken token;
  token.setTimeout(0.25);
  auto options = fastOptions();
  options.cancel = &token;
  options.killGraceSeconds = 0.2;
  std::vector<fleet::ShardSpec> shards{shellShard("longhaul", "sleep 30"),
                                       shellShard("quickone", "exit 0")};
  const StatusCode code =
      codeOf([&] { fleet::runFleet(shards, options); });
  EXPECT_TRUE(code == StatusCode::Cancelled ||
              code == StatusCode::DeadlineExceeded)
      << "got " << static_cast<int>(code);
}

TEST(Orchestrator, ReportJsonCarriesTheMachineReadableFacts) {
  std::vector<fleet::ShardSpec> shards{
      shellShard("ok", "exit 0"),
      shellShard("doomed", "echo 'boom \"quoted\"'; exit 7")};
  const fleet::FleetReport report = fleet::runFleet(shards, fastOptions());
  std::ostringstream os;
  report.writeJson(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"schema_version\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"ok\", \"state\": \"done\""),
            std::string::npos);
  EXPECT_NE(json.find("\"state\": \"quarantined\""), std::string::npos);
  EXPECT_NE(json.find("\"exit_code\": 7"), std::string::npos);
  EXPECT_NE(json.find("boom \\\"quoted\\\""), std::string::npos)
      << json;  // quotes escaped, not emitted raw
}

// -- SIGTERM signal contract (SignalCancelScope) -----------------------------

// The first SIGTERM must take the graceful path even when the --timeout
// deadline already latched the cancel token -- the historical bug: the
// handler tested cancelRequested() (true once a deadline latches) and
// escalated the *first* signal to the default disposition, so a timed-out
// run died by signal instead of flushing its checkpoint and exiting 6.
TEST(SignalContract, FirstSigtermAfterDeadlineLatchIsGraceful) {
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: latch the deadline, then deliver SIGTERM.  With the fix the
    // handler records the signal and returns; we observe it and exit 6.
    support::CancelToken token;
    support::SignalCancelScope scope(&token);
    token.setTimeout(1e-6);
    while (!token.cancelRequested()) ::usleep(1000);
    ::raise(SIGTERM);
    ::_exit(token.signalNumber() == SIGTERM ? 6 : 99);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status)) << "child died by signal "
                                 << (WIFSIGNALED(status) ? WTERMSIG(status)
                                                         : 0);
  EXPECT_EQ(WEXITSTATUS(status), 6);
}

TEST(SignalContract, SecondSigtermEscalatesToDefaultDisposition) {
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    support::CancelToken token;
    support::SignalCancelScope scope(&token);
    ::raise(SIGTERM);  // first: recorded on the token, handler returns
    if (token.signalNumber() != SIGTERM) ::_exit(99);
    ::raise(SIGTERM);  // second: escalates -- default disposition kills us
    ::_exit(98);       // unreachable when escalation works
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGTERM);
}

// -- end-to-end: the real characterize_corners tool --------------------------

// These run the actual fleet binary (quick grids, one corner) under the
// deterministic fault plan: SIGKILL mid-sweep, corrupt journal tails,
// 3-strikes quarantine, and --resume byte-identity.  Gated on fault
// injection being compiled in (the default).
#if PROX_ENABLE_FAULT_INJECTION && defined(PROX_FLEET_TOOL)

int runTool(const std::string& args) {
  const std::string cmd =
      std::string(PROX_FLEET_TOOL) + " " + args + " >/dev/null 2>&1";
  const int status = std::system(cmd.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

const char* kOneCorner =
    "proxcorners 1\ncorner tt vdd 1.0 vt 0.0 kp 1.0 gamma 1.0\n";

std::string writeOneCorner(const TempDir& dir) {
  const std::string path = dir.file("one.corners");
  std::ofstream(path) << kOneCorner;
  return path;
}

std::string fleetArgs(const TempDir& dir, const std::string& corners,
                      const std::string& bundle) {
  return "--quick --threads 1 --corners " + corners + " --out " +
         dir.file(bundle) + " --retry-backoff 0.02 --quiet";
}

TEST(FleetEndToEnd, KilledWorkerRetriesToByteIdenticalBundle) {
  TempDir dir;
  const std::string corners = writeOneCorner(dir);
  // Reference: uninterrupted run.
  ASSERT_EQ(runTool(fleetArgs(dir, corners, "ref.proxbundle")), 0);
  // Crash the first attempt mid-sweep (real SIGKILL); the retry resumes the
  // journal and must converge on the same bytes.
  ASSERT_EQ(runTool(fleetArgs(dir, corners, "crash.proxbundle") +
                    " --inject=crash@0"),
            0);
  EXPECT_EQ(slurp(dir.file("crash.proxbundle")),
            slurp(dir.file("ref.proxbundle")));
}

TEST(FleetEndToEnd, ThreeStrikesQuarantineThenResumeHealsByteIdentically) {
  TempDir dir;
  const std::string corners = writeOneCorner(dir);
  ASSERT_EQ(runTool(fleetArgs(dir, corners, "ref.proxbundle")), 0);

  // Crash every allowed attempt: the shard must land in quarantine (exit 1)
  // with the crash recorded in the report and a manifest hole in the bundle.
  ASSERT_EQ(runTool(fleetArgs(dir, corners, "q.proxbundle") +
                    " --inject=crash@0*3"),
            1);
  const std::string report = slurp(dir.file("q.proxbundle.fleet.json"));
  EXPECT_NE(report.find("\"state\": \"quarantined\""), std::string::npos);
  EXPECT_NE(report.find("\"attempts\": 3"), std::string::npos);
  EXPECT_NE(report.find("\"signal\": 9"), std::string::npos);
  const std::string bundleText = slurp(dir.file("q.proxbundle"));
  EXPECT_NE(bundleText.find(" quarantined "), std::string::npos);

  // --resume replays the journal from the crashed attempts and completes
  // the corner; the healed bundle is byte-identical to the uninterrupted
  // reference.
  ASSERT_EQ(runTool(fleetArgs(dir, corners, "q.proxbundle") + " --resume"),
            0);
  EXPECT_EQ(slurp(dir.file("q.proxbundle")), slurp(dir.file("ref.proxbundle")));
}

TEST(FleetEndToEnd, CorruptJournalTailIsRetriedNotWedged) {
  TempDir dir;
  const std::string corners = writeOneCorner(dir);
  ASSERT_EQ(runTool(fleetArgs(dir, corners, "ref.proxbundle")), 0);

  // Leave a journal behind by quarantining, then damage its tail the way a
  // power cut would (partial append).
  ASSERT_EQ(runTool(fleetArgs(dir, corners, "c.proxbundle") +
                    " --inject=crash@0*3"),
            1);
  const std::string journal = dir.file("c.proxbundle.work/shard-tt.ckpt");
  ASSERT_TRUE(fs::exists(journal));
  {
    std::ofstream os(journal, std::ios::binary | std::ios::app);
    os << "p dual 00";  // torn record: no CRC, no newline framing
  }

  // --resume must tolerate the torn tail (drop it, replay the valid prefix)
  // and still converge byte-identically -- not wedge, not start over.
  ASSERT_EQ(runTool(fleetArgs(dir, corners, "c.proxbundle") + " --resume"),
            0);
  EXPECT_EQ(slurp(dir.file("c.proxbundle")), slurp(dir.file("ref.proxbundle")));
}

#endif  // PROX_ENABLE_FAULT_INJECTION && PROX_FLEET_TOOL

}  // namespace
