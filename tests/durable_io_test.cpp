// Unit tests for the durability layer (src/support/): CRC-32 vectors, the
// atomic artifact writer's commit/abandon contract, the append-only journal's
// crash contract (torn tails, corrupt headers, fingerprint checks), and the
// cooperative-cancellation token/scope/signal machinery.

#include <gtest/gtest.h>

#include <cmath>
#include <csignal>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "support/cancel.hpp"
#include "support/diagnostic.hpp"
#include "support/durable_io.hpp"
#include "support/journal.hpp"

namespace {

namespace fs = std::filesystem;
using namespace prox;
using support::CancelToken;
using support::DiagnosticError;
using support::Journal;
using support::StatusCode;

/// A per-test scratch directory removed on destruction, so abandoned temp
/// files from a failed atomic write would be caught by the entry counts.
struct TempDir {
  fs::path path;
  TempDir() {
    path = fs::temp_directory_path() /
           ("prox_durable_test_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
  std::string file(const std::string& name) const {
    return (path / name).string();
  }
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

// -- CRC-32 ------------------------------------------------------------------

TEST(Crc32, KnownVectors) {
  // The standard check value for CRC-32/IEEE (zlib-compatible).
  EXPECT_EQ(support::crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(support::crc32(""), 0x00000000u);
  EXPECT_EQ(support::crc32("a"), 0xE8B7BE43u);
}

TEST(Crc32, IncrementalMatchesOneShot) {
  const std::string text = "proxjournal incremental crc check";
  std::uint32_t crc = support::kCrc32Init;
  for (char c : text) crc = support::crc32Update(crc, &c, 1);
  EXPECT_EQ(support::crc32Final(crc), support::crc32(text));
}

TEST(Crc32, DetectsSingleBitFlip) {
  std::string text = "sensitive payload";
  const std::uint32_t before = support::crc32(text);
  text[5] ^= 0x01;
  EXPECT_NE(support::crc32(text), before);
}

// -- AtomicFileWriter --------------------------------------------------------

TEST(AtomicFileWriter, CommitWritesContentAndLeavesNoTempFile) {
  TempDir dir;
  const std::string target = dir.file("artifact.txt");
  {
    support::AtomicFileWriter w(target);
    w.stream() << "hello\nworld\n";
    EXPECT_FALSE(w.committed());
    w.commit();
    EXPECT_TRUE(w.committed());
  }
  EXPECT_EQ(slurp(target), "hello\nworld\n");
  EXPECT_EQ(dir.entryCount(), 1u);  // only the artifact, no stray temp file
}

TEST(AtomicFileWriter, AbandonedWriterLeavesPreviousArtifactUntouched) {
  TempDir dir;
  const std::string target = dir.file("artifact.txt");
  support::writeFileAtomic(target,
                           [](std::ostream& os) { os << "version one\n"; });
  {
    support::AtomicFileWriter w(target);
    w.stream() << "version two, never committed\n";
    // no commit(): destructor must discard the temp file
  }
  EXPECT_EQ(slurp(target), "version one\n");
  EXPECT_EQ(dir.entryCount(), 1u);
}

TEST(AtomicFileWriter, CommitReplacesExistingArtifactWhole) {
  TempDir dir;
  const std::string target = dir.file("artifact.txt");
  support::writeFileAtomic(target, [](std::ostream& os) {
    os << "a much longer first version with plenty of bytes\n";
  });
  support::writeFileAtomic(target, [](std::ostream& os) { os << "short\n"; });
  // A truncate-in-place bug would leave tail bytes of the longer version.
  EXPECT_EQ(slurp(target), "short\n");
}

TEST(AtomicFileWriter, MissingDirectoryIsTypedIoError) {
  TempDir dir;
  const std::string target = dir.file("no/such/subdir/artifact.txt");
  try {
    support::writeFileAtomic(target, [](std::ostream& os) { os << "x\n"; });
    FAIL() << "expected DiagnosticError";
  } catch (const DiagnosticError& e) {
    EXPECT_EQ(e.code(), StatusCode::IoError);
  }
}

TEST(AtomicFileWriter, FillExceptionWritesNothing) {
  TempDir dir;
  const std::string target = dir.file("artifact.txt");
  EXPECT_THROW(support::writeFileAtomic(
                   target,
                   [](std::ostream&) { throw std::runtime_error("mid-fill"); }),
               std::runtime_error);
  EXPECT_FALSE(fs::exists(target));
  EXPECT_EQ(dir.entryCount(), 0u);
}

// -- Journal -----------------------------------------------------------------

TEST(JournalTest, DoubleBitsRoundTripLosslessly) {
  for (double v : {0.0, -0.0, 1.0, -3.14159e-12, 1e300,
                   std::numeric_limits<double>::infinity(),
                   std::numeric_limits<double>::denorm_min()}) {
    EXPECT_EQ(support::doubleToBits(support::bitsFromDouble(
                  support::doubleToBits(v))),
              support::doubleToBits(v));
  }
  // NaN payload bits survive too (== on the doubles themselves would fail).
  const std::uint64_t nanBits =
      support::doubleToBits(std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(support::doubleToBits(support::bitsFromDouble(nanBits)), nanBits);
}

TEST(JournalTest, FreshAppendLoadRoundTrip) {
  TempDir dir;
  const std::string path = dir.file("run.journal");
  {
    Journal j;
    j.openFresh(path, "fp-roundtrip");
    j.append("dual:0:1:r", 0, {support::doubleToBits(1.5)});
    j.append("dual:0:1:r", 7,
             {support::doubleToBits(std::numeric_limits<double>::quiet_NaN())});
    j.append("single", 2,
             {support::doubleToBits(100e-15), support::doubleToBits(1.0),
              support::doubleToBits(5.0)});
    j.close();
  }
  const auto contents = Journal::load(path);
  ASSERT_TRUE(contents.has_value());
  EXPECT_EQ(contents->fingerprint, "fp-roundtrip");
  EXPECT_FALSE(contents->truncatedTail);
  ASSERT_EQ(contents->records.size(), 3u);
  EXPECT_EQ(contents->records[0].scope, "dual:0:1:r");
  EXPECT_EQ(contents->records[0].index, 0u);
  EXPECT_EQ(contents->records[0].words,
            std::vector<std::uint64_t>{support::doubleToBits(1.5)});
  EXPECT_EQ(contents->records[1].index, 7u);
  EXPECT_TRUE(std::isnan(support::bitsFromDouble(contents->records[1].words[0])));
  EXPECT_EQ(contents->records[2].scope, "single");
  ASSERT_EQ(contents->records[2].words.size(), 3u);
}

TEST(JournalTest, MissingAndEmptyFilesLoadAsNoJournal) {
  TempDir dir;
  EXPECT_FALSE(Journal::load(dir.file("never-written")).has_value());
  std::ofstream(dir.file("empty")).close();
  EXPECT_FALSE(Journal::load(dir.file("empty")).has_value());
}

TEST(JournalTest, CorruptHeaderIsTypedParseError) {
  TempDir dir;
  const std::string path = dir.file("bad.journal");
  std::ofstream(path) << "this is not a journal header\n";
  try {
    Journal::load(path);
    FAIL() << "expected DiagnosticError";
  } catch (const DiagnosticError& e) {
    EXPECT_EQ(e.code(), StatusCode::ParseError);
  }
}

TEST(JournalTest, TornTailIsDroppedNotFatal) {
  TempDir dir;
  const std::string path = dir.file("torn.journal");
  {
    Journal j;
    j.openFresh(path, "fp-torn");
    j.append("s", 0, {1});
    j.append("s", 1, {2});
    j.append("s", 2, {3});
    j.close();
  }
  const auto cleanSize = fs::file_size(path);
  {
    // Simulate a crash mid-write(2): a partial record with no CRC/newline.
    std::ofstream os(path, std::ios::app | std::ios::binary);
    os << "p s 0000000000000003 0001 00000000000000";
  }
  const auto contents = Journal::load(path);
  ASSERT_TRUE(contents.has_value());
  EXPECT_EQ(contents->records.size(), 3u);
  EXPECT_TRUE(contents->truncatedTail);
  EXPECT_EQ(contents->validBytes, cleanSize);
}

TEST(JournalTest, CorruptMiddleRecordDropsEverythingAfterIt) {
  TempDir dir;
  const std::string path = dir.file("flip.journal");
  {
    Journal j;
    j.openFresh(path, "fp-flip");
    j.append("s", 0, {0x1111});
    j.append("s", 1, {0x2222});
    j.append("s", 2, {0x3333});
    j.close();
  }
  std::string raw = slurp(path);
  const auto pos = raw.find("2222");
  ASSERT_NE(pos, std::string::npos);
  raw[pos] = '9';  // bit rot inside record 1's payload
  std::ofstream(path, std::ios::binary | std::ios::trunc) << raw;

  const auto contents = Journal::load(path);
  ASSERT_TRUE(contents.has_value());
  // Validity is a prefix property: record 0 survives, 1 fails its CRC, and 2
  // -- though intact on disk -- is past the first invalid line.
  ASSERT_EQ(contents->records.size(), 1u);
  EXPECT_EQ(contents->records[0].words, std::vector<std::uint64_t>{0x1111});
  EXPECT_TRUE(contents->truncatedTail);
}

TEST(JournalTest, ResumeTruncatesTornTailAndAppendsCleanly) {
  TempDir dir;
  const std::string path = dir.file("resume.journal");
  {
    Journal j;
    j.openFresh(path, "fp-resume");
    j.append("s", 0, {10});
    j.append("s", 1, {11});
    j.close();
  }
  {
    std::ofstream os(path, std::ios::app | std::ios::binary);
    os << "p s torn-garbage";
  }
  Journal j;
  const auto replay = j.openResume(path, "fp-resume");
  ASSERT_EQ(replay.size(), 2u);
  j.append("s", 2, {12});
  j.close();

  const auto contents = Journal::load(path);
  ASSERT_TRUE(contents.has_value());
  EXPECT_FALSE(contents->truncatedTail);  // the torn bytes are gone for good
  ASSERT_EQ(contents->records.size(), 3u);
  EXPECT_EQ(contents->records[2].index, 2u);
  EXPECT_EQ(contents->records[2].words, std::vector<std::uint64_t>{12});
}

TEST(JournalTest, ResumeFingerprintMismatchIsTypedParseError) {
  TempDir dir;
  const std::string path = dir.file("foreign.journal");
  {
    Journal j;
    j.openFresh(path, "fp-original-cell");
    j.append("s", 0, {1});
    j.close();
  }
  Journal j;
  try {
    j.openResume(path, "fp-different-cell");
    FAIL() << "expected DiagnosticError";
  } catch (const DiagnosticError& e) {
    EXPECT_EQ(e.code(), StatusCode::ParseError);
  }
}

TEST(JournalTest, ResumeOnMissingFileStartsFresh) {
  TempDir dir;
  const std::string path = dir.file("new.journal");
  Journal j;
  const auto replay = j.openResume(path, "fp-new");
  EXPECT_TRUE(replay.empty());
  j.append("s", 0, {42});
  j.close();
  const auto contents = Journal::load(path);
  ASSERT_TRUE(contents.has_value());
  EXPECT_EQ(contents->fingerprint, "fp-new");
  ASSERT_EQ(contents->records.size(), 1u);
}

TEST(JournalTest, AppendIsDurableAfterSyncWithoutClose) {
  TempDir dir;
  const std::string path = dir.file("sync.journal");
  Journal j;
  j.openFresh(path, "fp-sync");
  j.append("s", 0, {7});
  j.sync();
  // Read while the writer still holds the file open (the crash viewpoint).
  const auto contents = Journal::load(path);
  ASSERT_TRUE(contents.has_value());
  ASSERT_EQ(contents->records.size(), 1u);
  j.close();
}

// -- CancelToken -------------------------------------------------------------

TEST(CancelTokenTest, StartsClearAndLatchesOnCancel) {
  CancelToken token;
  EXPECT_FALSE(token.cancelRequested());
  EXPECT_EQ(token.reason(), StatusCode::Ok);
  token.cancel();
  EXPECT_TRUE(token.cancelRequested());
  EXPECT_EQ(token.reason(), StatusCode::Cancelled);
  EXPECT_EQ(token.signalNumber(), 0);
  token.reset();
  EXPECT_FALSE(token.cancelRequested());
  EXPECT_EQ(token.reason(), StatusCode::Ok);
}

TEST(CancelTokenTest, SignalNumberIsRecorded) {
  CancelToken token;
  token.cancel(SIGINT);
  EXPECT_EQ(token.signalNumber(), SIGINT);
  EXPECT_EQ(token.reason(), StatusCode::Cancelled);
}

TEST(CancelTokenTest, ExpiredDeadlineLatchesAsDeadlineExceeded) {
  CancelToken token;
  token.setTimeout(0.0);  // already expired at the first poll
  EXPECT_TRUE(token.cancelRequested());
  EXPECT_EQ(token.reason(), StatusCode::DeadlineExceeded);
  // Latched: the reason stays stable across later polls.
  EXPECT_TRUE(token.cancelRequested());
  EXPECT_EQ(token.reason(), StatusCode::DeadlineExceeded);
}

TEST(CancelTokenTest, FutureDeadlineDoesNotTripEarly) {
  // From 1e10 s on the deadline lies past the clock's range and saturates
  // to none instead of wrapping into the past.
  for (const double seconds : {3600.0, 1e10, 1e300,
                               std::numeric_limits<double>::infinity()}) {
    CancelToken token;
    token.setTimeout(seconds);
    EXPECT_FALSE(token.cancelRequested()) << seconds;
  }
}

TEST(CancelTokenTest, ThrowIfCancelledCarriesTypedDiagnostic) {
  CancelToken token;
  token.cancel(SIGTERM);
  try {
    token.throwIfCancelled("test.site");
    FAIL() << "expected DiagnosticError";
  } catch (const DiagnosticError& e) {
    EXPECT_EQ(e.code(), StatusCode::Cancelled);
    EXPECT_EQ(e.diagnostic().site, "test.site");
  }
}

TEST(CancelScopeTest, PollObservesInstalledTokenAndRestoresOnExit) {
  EXPECT_EQ(support::currentCancelToken(), nullptr);
  EXPECT_NO_THROW(support::pollCancellation("test.poll"));  // no token: no-op

  CancelToken token;
  token.cancel();
  {
    support::CancelScope scope(&token);
    EXPECT_EQ(support::currentCancelToken(), &token);
    EXPECT_THROW(support::pollCancellation("test.poll"), DiagnosticError);
    {
      support::CancelScope nullScope(nullptr);  // null install is a no-op
      EXPECT_EQ(support::currentCancelToken(), &token);
    }
  }
  EXPECT_EQ(support::currentCancelToken(), nullptr);
  EXPECT_NO_THROW(support::pollCancellation("test.poll"));
}

TEST(SignalCancelScopeTest, RoutesSignalIntoToken) {
  CancelToken token;
  {
    support::SignalCancelScope scope(&token);
    ::raise(SIGTERM);  // handled by the scope: stores into the token, returns
    EXPECT_TRUE(token.cancelRequested());
    EXPECT_EQ(token.reason(), StatusCode::Cancelled);
    EXPECT_EQ(token.signalNumber(), SIGTERM);
  }
}

TEST(SignalCancelScopeTest, NestedInstallIsRejected) {
  CancelToken a, b;
  support::SignalCancelScope outer(&a);
  EXPECT_THROW(support::SignalCancelScope inner(&b), DiagnosticError);
}

}  // namespace
