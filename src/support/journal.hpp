#pragma once
// Append-only, CRC-checked journal for crash-safe incremental computation.
//
// A journal is a text file of self-validating records.  Every line carries a
// CRC-32 of its payload, so a reader can distinguish "complete record" from
// "the torn tail of a crashed write" without any out-of-band bookkeeping:
//
//   proxjournal 1 <fingerprint> <crc8>        -- header (version, run identity)
//   p <scope> <index> <n> <w1>..<wn> <crc8>   -- record: n 64-bit words (hex)
//
// Payload words are raw IEEE-754 bit patterns (or integers) rendered as hex,
// so replaying a journaled double is bit-exact -- the property the
// checkpoint/resume machinery needs to reproduce byte-identical artifacts.
//
// Crash contract:
//   * append() writes each record with a single write(2) and fsyncs every
//     Options::fsyncEveryN appends (and on close/sync), so a SIGKILL loses at
//     most the records since the last sync -- which a resume simply
//     recomputes.
//   * load() accepts a journal with a torn or corrupt tail: it returns every
//     record up to the first invalid line plus the byte offset where
//     validity ended, and never throws for tail damage.  A corrupt *header*
//     (or fingerprint mismatch at resume) is a typed ParseError: replaying
//     someone else's journal must fail loudly, not quietly mis-resume.
//   * openResume() truncates the file back to the last valid record before
//     appending, so one crash cannot poison records written after resume.
//
// Thread-safe: append() may be called concurrently from sweep workers.

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace prox::support {

struct JournalRecord {
  std::string scope;        ///< whitespace-free record namespace
  std::uint64_t index = 0;  ///< deterministic task index within the scope
  std::vector<std::uint64_t> words;  ///< payload (e.g. double bit patterns)
};

/// Result of reading a journal from disk.
struct JournalContents {
  std::string fingerprint;  ///< run identity from the header
  std::vector<JournalRecord> records;
  std::uint64_t validBytes = 0;  ///< file offset where valid records end
  bool truncatedTail = false;    ///< bytes past validBytes were dropped
};

/// Bit-pattern helpers for journaling doubles losslessly.
std::uint64_t doubleToBits(double v) noexcept;
double bitsFromDouble(std::uint64_t bits) noexcept;

// The sealed-line codec journals and bundle manifests share: a line is a
// payload of single-space-separated fields, one space, and the CRC-32 of the
// payload as 8 hex digits.  Numbers are lowercase hex.

std::string hex64(std::uint64_t v);  ///< 16 hex digits
std::string hex32(std::uint32_t v);  ///< 8 hex digits
/// Parses 1..16 lowercase hex digits; false on anything else.
bool parseHex(const std::string& s, std::uint64_t* out);
/// @p payload sealed with its CRC, newline included.
std::string sealLine(const std::string& payload);
/// Checks @p line's CRC (no newline) and splits its payload on single
/// spaces.  Sealed lines are machine-written, so a double space or a tab is
/// damage: it yields a field that fails validation downstream.
bool openSealedLine(const std::string& line, std::vector<std::string>* fields);

class Journal {
 public:
  /// Durability knobs, set before (or between) open calls.
  struct Options {
    /// fsync cadence: 1 = every record (safest, slowest); N loses at most
    /// the last N-1 records to a crash.  Sweep points cost milliseconds
    /// each, so the default keeps sync overhead well under 1%.  Values < 1
    /// are clamped to 1 at append time.
    int fsyncEveryN = 32;
  };

  Journal() = default;
  explicit Journal(const Options& options) : options_(options) {}
  ~Journal();

  /// Reads @p path, validating record CRCs.  Returns nullopt when the file
  /// does not exist.  Throws DiagnosticError(ParseError) when the header is
  /// missing/corrupt (an empty file reads as a missing journal).  Tail
  /// damage (torn last line, trailing garbage) is tolerated per the crash
  /// contract above.  Bounded: a line longer than the per-record cap or a
  /// record whose declared word count could not fit on a capped line is
  /// treated as corruption (truncated tail), never buffered or allocated;
  /// accepted records are charged against any active support::ResourceBudget
  /// (DiagnosticError(ResourceExhausted) when exceeded).
  static std::optional<JournalContents> load(const std::string& path);

  /// load() over an already-open stream; @p pathForDiag labels diagnostics.
  /// Exposed so corruption harnesses (and fuzzers) can drive the loader
  /// without a filesystem round-trip.  Returns nullopt for an empty stream.
  static std::optional<JournalContents> loadStream(
      std::istream& is, const std::string& pathForDiag);

  /// Creates/truncates @p path and writes a fresh header.  Throws
  /// DiagnosticError(IoError) when the file cannot be created.
  void openFresh(const std::string& path, const std::string& fingerprint);

  /// Opens @p path for resume: loads its valid records (returned), verifies
  /// the header fingerprint equals @p fingerprint (typed ParseError when it
  /// does not -- resuming under a different cell/config must not silently
  /// replay foreign results), truncates any torn tail, and positions for
  /// append.  When the file does not exist, behaves as openFresh and
  /// returns an empty record set.
  std::vector<JournalRecord> openResume(const std::string& path,
                                        const std::string& fingerprint);

  /// Appends one record.  Thread-safe; fsyncs every options().fsyncEveryN
  /// appends.  Throws DiagnosticError(IoError) on write failure.
  void append(const std::string& scope, std::uint64_t index,
              const std::vector<std::uint64_t>& words);

  /// Flushes appended records to disk (fsync).
  void sync();

  /// Syncs and closes.  Further appends are an error.
  void close();

  bool isOpen() const noexcept { return fd_ >= 0; }
  const std::string& path() const noexcept { return path_; }

  const Options& options() const noexcept { return options_; }
  /// Replaces the durability options; takes effect on the next append.
  void setOptions(const Options& options) { options_ = options; }

  /// Records appended since the last fsync -- the crash-loss window right
  /// now.  Lock-free snapshot for progress heartbeats ("checkpoint lag");
  /// may be momentarily stale relative to a concurrent append.
  int unsynced() const noexcept {
    return unsynced_.load(std::memory_order_relaxed);
  }

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

 private:
  void writeLine(const std::string& payload);

  std::mutex mu_;
  std::string path_;
  Options options_;
  int fd_ = -1;
  std::atomic<int> unsynced_{0};
};

}  // namespace prox::support
