// Crash-safe characterization tests: the checkpoint/resume machinery must
// reproduce a byte-identical .prox artifact no matter where a run died or
// how many threads the resume uses.  The crash itself is real -- a child
// process is SIGKILLed mid-sweep via the task-keyed ProcessCrash fault --
// so the journal's torn-tail tolerance and the atomic artifact writer are
// exercised exactly as an operator's `kill -9` would.

#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>

#include "characterize/checkpoint.hpp"
#include "characterize/serialize.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "support/budget.hpp"
#include "support/cancel.hpp"
#include "support/diagnostic.hpp"
#include "support/durable_io.hpp"
#include "support/fault_injection.hpp"
#include "support/journal.hpp"
#include "test_util.hpp"

namespace {

namespace fs = std::filesystem;
using namespace prox;
using characterize::CheckpointSession;
using characterize::configFingerprint;
using support::DiagnosticError;
using support::StatusCode;

struct TempDir {
  fs::path path;
  TempDir() {
    path = fs::temp_directory_path() /
           ("prox_checkpoint_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()
                ->current_test_info()
                ->name());
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
  std::string file(const std::string& name) const {
    return (path / name).string();
  }
  /// Directory entry count: a crashed atomic write must not leave temp files.
  std::size_t entryCount() const {
    std::size_t n = 0;
    for (auto it = fs::directory_iterator(path);
         it != fs::directory_iterator(); ++it) {
      ++n;
    }
    return n;
  }
};

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

/// The .prox text for @p gate -- the byte-identity currency of these tests.
std::string modelText(const characterize::CharacterizedGate& gate) {
  std::ostringstream os;
  characterize::saveGateModel(gate, os);
  return os.str();
}

/// The uninterrupted-run reference, characterized serially exactly once.
const std::string& referenceText() {
  static const std::string text = [] {
    auto cfg = testutil::fastConfig();
    cfg.threads = 1;
    return modelText(characterize::characterizeGate(testutil::nandSpec(2),
                                                    cfg));
  }();
  return text;
}

// -- fingerprint -------------------------------------------------------------

TEST(ConfigFingerprint, IgnoresExecutionOnlyFields) {
  const auto spec = testutil::nandSpec(2);
  auto a = testutil::fastConfig();
  auto b = testutil::fastConfig();
  a.threads = 1;
  b.threads = 8;
  support::CancelToken token;
  b.cancel = &token;
  EXPECT_EQ(configFingerprint(spec, a), configFingerprint(spec, b));
}

TEST(ConfigFingerprint, TracksEveryResultAffectingInput) {
  const auto spec = testutil::nandSpec(2);
  const auto base = testutil::fastConfig();
  const std::string fp = configFingerprint(spec, base);

  auto widerGrid = base;
  widerGrid.tauGrid.push_back(3e-9);
  EXPECT_NE(configFingerprint(spec, widerGrid), fp);

  auto otherCell = spec;
  otherCell.fanin = 3;
  EXPECT_NE(configFingerprint(otherCell, base), fp);

  auto otherLoad = spec;
  otherLoad.loadCap *= 2.0;
  EXPECT_NE(configFingerprint(otherLoad, base), fp);
}

// -- replay ------------------------------------------------------------------

TEST(CheckpointResume, FullReplayReproducesTheArtifactWithoutRecompute) {
  TempDir dir;
  const auto spec = testutil::nandSpec(2);
  auto cfg = testutil::fastConfig();
  cfg.threads = 1;
  const std::string fp = configFingerprint(spec, cfg);

  std::string firstText;
  {
    CheckpointSession fresh(dir.file("run.ckpt"), fp, /*resume=*/false);
    cfg.checkpoint = &fresh;
    firstText = modelText(characterize::characterizeGate(spec, cfg));
    fresh.flush();
  }
  EXPECT_EQ(firstText, referenceText());  // journaling must not perturb

  CheckpointSession again(dir.file("run.ckpt"), fp, /*resume=*/true);
  EXPECT_TRUE(again.resumed());
  EXPECT_GT(again.loadedRecords(), 0u);
  cfg.checkpoint = &again;
  const std::string secondText =
      modelText(characterize::characterizeGate(spec, cfg));
  EXPECT_EQ(secondText, referenceText());
  // Every journaled point was served from the replay map.
  EXPECT_EQ(again.replayCount(), again.loadedRecords());
}

TEST(CheckpointResume, ForeignJournalIsRejected) {
  TempDir dir;
  const auto spec = testutil::nandSpec(2);
  auto cfg = testutil::fastConfig();
  {
    CheckpointSession fresh(dir.file("run.ckpt"),
                            configFingerprint(spec, cfg), /*resume=*/false);
    fresh.record("single", 0, {1, 2, 3});
    fresh.flush();
  }
  auto otherCfg = cfg;
  otherCfg.tauGrid.push_back(9e-9);
  try {
    CheckpointSession resumed(dir.file("run.ckpt"),
                              configFingerprint(spec, otherCfg),
                              /*resume=*/true);
    FAIL() << "expected DiagnosticError";
  } catch (const DiagnosticError& e) {
    EXPECT_EQ(e.code(), StatusCode::ParseError);
  }
}

// -- cancellation ------------------------------------------------------------

TEST(CheckpointResume, CancelledRunLeavesValidResumableJournal) {
  TempDir dir;
  const auto spec = testutil::nandSpec(2);
  auto cfg = testutil::fastConfig();
  cfg.threads = 1;
  const std::string fp = configFingerprint(spec, cfg);

  {
    support::CancelToken token;
    token.setTimeout(0.0);  // the --timeout watchdog, already expired
    support::CancelScope mainScope(&token);
    CheckpointSession session(dir.file("run.ckpt"), fp, /*resume=*/false);
    cfg.checkpoint = &session;
    cfg.cancel = &token;
    try {
      characterize::characterizeGate(spec, cfg);
      FAIL() << "expected DiagnosticError";
    } catch (const DiagnosticError& e) {
      EXPECT_EQ(e.code(), StatusCode::DeadlineExceeded);
    }
    session.flush();  // what the tools do on the unwind path
  }

  // The journal is partial but valid: loadable, right identity.
  const auto contents = support::Journal::load(dir.file("run.ckpt"));
  ASSERT_TRUE(contents.has_value());
  EXPECT_EQ(contents->fingerprint, fp);

  // And a resume (no deadline this time) completes to the reference bytes.
  CheckpointSession resumed(dir.file("run.ckpt"), fp, /*resume=*/true);
  cfg.checkpoint = &resumed;
  cfg.cancel = nullptr;
  EXPECT_EQ(modelText(characterize::characterizeGate(spec, cfg)),
            referenceText());
}

// The token trips while a dual-sweep transient is in flight (the journal
// already holds a dual point).  The interrupted point must unwind with the
// run -- not be retried and journaled as a hole that a resume would then
// heal -- so resuming still writes the uninterrupted bytes.
TEST(CheckpointResume, MidSweepCancelResumesToByteIdenticalArtifact) {
  TempDir dir;
  const auto spec = testutil::nandSpec(2);
  auto cfg = testutil::fastConfig();
  const std::string fp = configFingerprint(spec, cfg);
  const std::string& ref = referenceText();

  {
    support::CancelToken token;
    CheckpointSession session(dir.file("run.ckpt"), fp, /*resume=*/false);
    cfg.checkpoint = &session;
    cfg.cancel = &token;
    std::optional<StatusCode> code;
    std::atomic<bool> finished{false};
    std::thread run([&] {
      support::CancelScope scope(&token);
      try {
        characterize::characterizeGate(spec, cfg);
      } catch (const DiagnosticError& e) {
        code = e.code();
      } catch (...) {
        code = StatusCode::Internal;  // fails the check below
      }
      finished = true;
    });
    while (!finished &&
           slurp(dir.file("run.ckpt")).find(" dual:") == std::string::npos) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    token.cancel();
    run.join();
    session.flush();
    ASSERT_EQ(code, StatusCode::Cancelled);
  }

  CheckpointSession resumed(dir.file("run.ckpt"), fp, /*resume=*/true);
  EXPECT_TRUE(resumed.resumed());
  cfg.checkpoint = &resumed;
  cfg.cancel = nullptr;
  EXPECT_EQ(modelText(characterize::characterizeGate(spec, cfg)), ref);
}

// -- bounded journal loading -------------------------------------------------

/// A journal line is payload + space + 8-hex CRC-32 of the payload.
std::string journalLine(const std::string& payload) {
  char crc[16];
  std::snprintf(crc, sizeof(crc), "%08x", support::crc32(payload));
  return payload + ' ' + crc + '\n';
}

TEST(JournalBounds, HugeRecordCountIsDroppedBeforeAllocation) {
  // A CRC-valid record whose length field declares 2^32-1 words: the count
  // exceeds what could ever fit on a capped line, so it is rejected by
  // arithmetic as a torn tail -- never handed to vector::resize.
  std::istringstream is(
      journalLine("proxjournal 1 deadbeef") +
      journalLine("p dual 0000000000000000 00000000ffffffff 0123"));
  const auto contents = support::Journal::loadStream(is, "<test>");
  ASSERT_TRUE(contents.has_value());
  EXPECT_EQ(contents->fingerprint, "deadbeef");
  EXPECT_TRUE(contents->truncatedTail);
  EXPECT_TRUE(contents->records.empty());
}

TEST(JournalBounds, OverlongLineIsDroppedAsTornTail) {
  // Past the 1 MiB line cap the rest of the stream is damage by definition;
  // the loader must keep everything before it and drop the rest unbuffered.
  std::string text = journalLine("proxjournal 1 cafe") +
                     journalLine("p dual 0000000000000001 0000000000000001 "
                                 "00000000000000ff");
  text += std::string((1u << 20) + 64, 'x');  // no newline, no CRC
  std::istringstream is(text);
  const auto contents = support::Journal::loadStream(is, "<test>");
  ASSERT_TRUE(contents.has_value());
  ASSERT_EQ(contents->records.size(), 1u);
  EXPECT_EQ(contents->records[0].words.size(), 1u);
  EXPECT_EQ(contents->records[0].words[0], 0xffu);
  EXPECT_TRUE(contents->truncatedTail);
}

TEST(JournalBounds, RecordBudgetIsEnforcedAtLoad) {
  std::string text = journalLine("proxjournal 1 feed");
  for (int i = 0; i < 4; ++i) {
    char payload[80];
    std::snprintf(payload, sizeof(payload),
                  "p dual %016x 0000000000000000", i);
    text += journalLine(payload);
  }
  support::ResourceBudget budget;
  budget.maxRecords = 2;
  support::BudgetTracker tracker(budget);
  support::BudgetScope scope(&tracker);
  std::istringstream is(text);
  try {
    support::Journal::loadStream(is, "<test>");
    FAIL() << "expected DiagnosticError(ResourceExhausted)";
  } catch (const DiagnosticError& e) {
    EXPECT_EQ(e.code(), StatusCode::ResourceExhausted);
  }
}

// -- kill -9 mid-sweep -------------------------------------------------------

#if PROX_ENABLE_FAULT_INJECTION

/// Forks a child that characterizes into @p journalPath with a ProcessCrash
/// armed at parallel task @p crashTask; asserts the child died by SIGKILL.
void runCrashingChild(const std::string& journalPath, long long crashTask,
                      int threads) {
  const auto spec = testutil::nandSpec(2);
  auto cfg = testutil::fastConfig();
  cfg.threads = threads;
  const std::string fp = configFingerprint(spec, cfg);

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0) << "fork failed";
  if (pid == 0) {
    // Child: no gtest assertions, no exit() (would flush parent-inherited
    // state); _exit on any path the crash fault fails to reach.
    try {
      CheckpointSession session(journalPath, fp, /*resume=*/false);
      cfg.checkpoint = &session;
      support::FaultPlan::arm({.site = "par.task",
                               .kind = support::FaultKind::ProcessCrash,
                               .taskIndex = crashTask});
      characterize::characterizeGate(spec, cfg);
    } catch (...) {
    }
    ::_exit(42);  // reaching here means the crash never fired
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status))
      << "child exited normally with status "
      << (WIFEXITED(status) ? WEXITSTATUS(status) : -1);
  EXPECT_EQ(WTERMSIG(status), SIGKILL);
}

// The --stats / --trace artifact contract under `kill -9`: the tools write
// both files through writeFileAtomic *after* the flow finishes, so a run
// killed mid-sweep must leave any previous artifacts byte-intact, no torn
// replacements, and no stray temp files -- absent-or-complete, never partial.
// This is the same child-process SIGKILL as the resume test above, with the
// tool epilogue (stats dump, trace export) spelled out after the crash point.
TEST(CheckpointResume, KilledRunLeavesStatsAndTraceArtifactsWholeOrAbsent) {
  TempDir dir;
  const std::string statsPath = dir.file("run.stats.json");
  const std::string tracePath = dir.file("run.trace.json");
  const std::string prevStats = "{\"schema_version\": 2, \"previous\": true}\n";
  const std::string prevTrace = "{\"traceEvents\": []}\n";
  support::writeFileAtomic(statsPath,
                           [&](std::ostream& os) { os << prevStats; });
  support::writeFileAtomic(tracePath,
                           [&](std::ostream& os) { os << prevTrace; });

  const auto spec = testutil::nandSpec(2);
  auto cfg = testutil::fastConfig();
  cfg.threads = 1;
  const std::string fp = configFingerprint(spec, cfg);

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0) << "fork failed";
  if (pid == 0) {
    // Child: the characterize_cell flow with --stats/--trace/--checkpoint,
    // crashed mid-sweep.  No gtest assertions, _exit on any survival path.
    try {
      prox::obs::trace::TraceSession session;
      CheckpointSession ckpt(dir.file("run.ckpt"), fp, /*resume=*/false);
      cfg.checkpoint = &ckpt;
      support::FaultPlan::arm({.site = "par.task",
                               .kind = support::FaultKind::ProcessCrash,
                               .taskIndex = 25});
      characterize::characterizeGate(spec, cfg);
      // Tool epilogue -- never reached; the crash fires first.
      support::writeFileAtomic(statsPath,
                               [](std::ostream& os) { obs::writeJson(os); });
      support::writeFileAtomic(tracePath, [&](std::ostream& os) {
        session.exportJson(os);
      });
    } catch (...) {
    }
    ::_exit(42);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGKILL);

  // The previous artifacts are byte-identical, not truncated or replaced.
  EXPECT_EQ(slurp(statsPath), prevStats);
  EXPECT_EQ(slurp(tracePath), prevTrace);
  // Exactly stats + trace + journal: no orphaned atomic-writer temp files.
  EXPECT_EQ(dir.entryCount(), 3u);

  // And the journal the crash left behind still resumes to the reference.
  CheckpointSession resumed(dir.file("run.ckpt"), fp, /*resume=*/true);
  EXPECT_GT(resumed.loadedRecords(), 0u);
  cfg.checkpoint = &resumed;
  EXPECT_EQ(modelText(characterize::characterizeGate(spec, cfg)),
            referenceText());
}

TEST(CheckpointResume, KilledRunResumesToByteIdenticalArtifact) {
  TempDir dir;
  const auto spec = testutil::nandSpec(2);

  // Two independent crashed runs (forked before any pool threads exist in
  // this process), resumed at different thread counts.
  runCrashingChild(dir.file("serial.ckpt"), /*crashTask=*/25, /*threads=*/1);
  runCrashingChild(dir.file("parallel.ckpt"), /*crashTask=*/40, /*threads=*/1);

  // The reference is characterized here, after the forks.
  const std::string& ref = referenceText();

  {
    auto cfg = testutil::fastConfig();
    cfg.threads = 1;
    CheckpointSession resumed(dir.file("serial.ckpt"),
                              configFingerprint(spec, cfg), /*resume=*/true);
    EXPECT_GT(resumed.loadedRecords(), 0u);  // the crash landed mid-sweep
    cfg.checkpoint = &resumed;
    EXPECT_EQ(modelText(characterize::characterizeGate(spec, cfg)), ref);
  }
  {
    auto cfg = testutil::fastConfig();
    cfg.threads = testutil::envThreads(8);
    CheckpointSession resumed(dir.file("parallel.ckpt"),
                              configFingerprint(spec, cfg), /*resume=*/true);
    EXPECT_GT(resumed.loadedRecords(), 0u);
    cfg.checkpoint = &resumed;
    EXPECT_EQ(modelText(characterize::characterizeGate(spec, cfg)), ref);
  }
}

#endif  // PROX_ENABLE_FAULT_INJECTION

}  // namespace
