#include "support/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "obs/registry.hpp"
#include "support/bounded.hpp"
#include "support/budget.hpp"
#include "support/diagnostic.hpp"
#include "support/durable_io.hpp"

namespace prox::support {

namespace {

constexpr const char* kMagic = "proxjournal";
constexpr int kVersion = 1;

// Journal lines are machine-written: "p <scope> <16hex> <16hex>" plus 17
// bytes per payload word plus the CRC.  Real records are a few hundred
// bytes; 1 MiB of headroom means any longer line is corruption, and it is
// dropped as a torn tail without ever being buffered.  The word-count cap
// follows from the line cap: a count that could not fit on a capped line is
// rejected by arithmetic before any allocation (a corrupt length field must
// not drive a multi-GB resize on its way to CRC rejection).
constexpr std::size_t kMaxLineBytes = 1u << 20;
constexpr std::uint64_t kMaxWordsPerRecord = kMaxLineBytes / 17;

[[noreturn]] void failIo(const std::string& what, const std::string& path) {
  const int err = errno;
  std::string msg = what + ": " + path;
  if (err != 0) msg += std::string(" (") + std::strerror(err) + ")";
  throw DiagnosticError(
      makeDiagnostic(StatusCode::IoError, msg).withSite("support.journal"));
}

[[noreturn]] void failParse(const std::string& msg, const std::string& path) {
  throw DiagnosticError(
      makeDiagnostic(StatusCode::ParseError, msg + ": " + path)
          .withSite("support.journal"));
}

std::string headerPayload(const std::string& fingerprint) {
  std::ostringstream os;
  os << kMagic << ' ' << kVersion << ' ' << fingerprint;
  return os.str();
}

}  // namespace

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string hex32(std::uint32_t v) {
  char buf[9];
  std::snprintf(buf, sizeof(buf), "%08x", v);
  return buf;
}

bool parseHex(const std::string& s, std::uint64_t* out) {
  if (s.empty() || s.size() > 16) return false;
  std::uint64_t v = 0;
  for (char c : s) {
    int d;
    if (c >= '0' && c <= '9') d = c - '0';
    else if (c >= 'a' && c <= 'f') d = c - 'a' + 10;
    else return false;
    v = (v << 4) | static_cast<std::uint64_t>(d);
  }
  *out = v;
  return true;
}

std::string sealLine(const std::string& payload) {
  return payload + ' ' + hex32(crc32(payload)) + '\n';
}

bool openSealedLine(const std::string& line, std::vector<std::string>* fields) {
  const std::size_t lastSpace = line.find_last_of(' ');
  if (lastSpace == std::string::npos || lastSpace + 9 != line.size()) {
    return false;
  }
  std::uint64_t want = 0;
  if (!parseHex(line.substr(lastSpace + 1), &want)) return false;
  const std::string_view payload = std::string_view(line).substr(0, lastSpace);
  if (crc32(payload) != static_cast<std::uint32_t>(want)) return false;
  fields->clear();
  std::size_t start = 0;
  while (true) {
    const std::size_t sp = payload.find(' ', start);
    fields->emplace_back(payload.substr(start, sp - start));
    if (sp == std::string_view::npos) return true;
    start = sp + 1;
  }
}

std::uint64_t doubleToBits(double v) noexcept {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double bitsFromDouble(std::uint64_t bits) noexcept {
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

Journal::~Journal() {
  if (fd_ >= 0) {
    ::fsync(fd_);
    ::close(fd_);
  }
}

std::optional<JournalContents> Journal::load(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return std::nullopt;
  return loadStream(is, path);
}

std::optional<JournalContents> Journal::loadStream(
    std::istream& is, const std::string& path) {
  JournalContents out;
  BoundedLine line;
  bool sawHeader = false;
  std::uint64_t offset = 0;
  while (getlineBounded(is, kMaxLineBytes, &line)) {
    // A final line without a '\n' (EOF before the delimiter) is a torn
    // write; a line past the cap is corruption dressed as data.  Either way
    // everything from here on is dropped.
    const std::uint64_t lineBytes = line.text.size() + 1;
    std::vector<std::string> fields;
    if (!line.sawNewline || line.overlong ||
        !openSealedLine(line.text, &fields)) {
      out.truncatedTail = true;
      break;
    }
    if (!sawHeader) {
      if (fields.size() != 3 || fields[0] != kMagic ||
          fields[1] != std::to_string(kVersion)) {
        failParse("bad journal header", path);
      }
      out.fingerprint = fields[2];
      sawHeader = true;
    } else if (fields.size() >= 4 && fields[0] == "p") {
      JournalRecord rec;
      rec.scope = fields[1];
      std::uint64_t count = 0;
      if (!parseHex(fields[2], &rec.index) || !parseHex(fields[3], &count) ||
          count > kMaxWordsPerRecord || fields.size() != 4 + count) {
        out.truncatedTail = true;
        break;
      }
      budgetChargeRecords(1, "support.journal");
      rec.words.resize(count);
      bool ok = true;
      for (std::uint64_t i = 0; i < count; ++i) {
        ok = ok && parseHex(fields[4 + i], &rec.words[i]);
      }
      if (!ok) {
        out.truncatedTail = true;
        break;
      }
      out.records.push_back(std::move(rec));
    } else {
      // Unknown record tag: a CRC-valid line written by a future version.
      // Skipping it keeps old binaries able to resume what they understand.
      PROX_OBS_COUNT("support.journal.unknown_records", 1);
    }
    offset += lineBytes;
    out.validBytes = offset;
  }
  if (!sawHeader) {
    if (out.validBytes == 0 && !out.truncatedTail) return std::nullopt;
    failParse("bad journal header", path);
  }
  if (out.truncatedTail) {
    PROX_OBS_COUNT("support.journal.torn_tails_dropped", 1);
  }
  return out;
}

void Journal::openFresh(const std::string& path,
                        const std::string& fingerprint) {
  std::lock_guard<std::mutex> lock(mu_);
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  path_ = path;
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd_ < 0) failIo("Journal: cannot create", path);
  writeLine(headerPayload(fingerprint));
  PROX_OBS_COUNT("support.journal.opened_fresh", 1);
}

std::vector<JournalRecord> Journal::openResume(const std::string& path,
                                               const std::string& fingerprint) {
  auto contents = load(path);
  if (!contents) {
    openFresh(path, fingerprint);
    return {};
  }
  if (contents->fingerprint != fingerprint) {
    failParse("journal fingerprint mismatch (different cell or "
              "characterization config): have " +
                  contents->fingerprint + ", want " + fingerprint,
              path);
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  path_ = path;
  fd_ = ::open(path.c_str(), O_WRONLY, 0644);
  if (fd_ < 0) failIo("Journal: cannot open for resume", path);
  // Drop the torn tail so appended records start on a clean line boundary.
  if (::ftruncate(fd_, static_cast<off_t>(contents->validBytes)) != 0) {
    failIo("Journal: truncate failed", path);
  }
  if (::lseek(fd_, 0, SEEK_END) < 0) failIo("Journal: seek failed", path);
  PROX_OBS_COUNT("support.journal.opened_resume", 1);
  return std::move(contents->records);
}

void Journal::append(const std::string& scope, std::uint64_t index,
                     const std::vector<std::uint64_t>& words) {
  std::ostringstream os;
  os << "p " << scope << ' ' << hex64(index) << ' ' << hex64(words.size());
  for (std::uint64_t w : words) os << ' ' << hex64(w);
  std::lock_guard<std::mutex> lock(mu_);
  if (fd_ < 0) {
    throw DiagnosticError(
        makeDiagnostic(StatusCode::Internal, "Journal: append while closed")
            .withSite("support.journal"));
  }
  writeLine(os.str());
  PROX_OBS_COUNT("support.journal.records_appended", 1);
  if (++unsynced_ >= std::max(1, options_.fsyncEveryN)) {
    ::fsync(fd_);
    unsynced_ = 0;
  }
}

void Journal::sync() {
  std::lock_guard<std::mutex> lock(mu_);
  if (fd_ >= 0) {
    ::fsync(fd_);
    unsynced_ = 0;
  }
}

void Journal::close() {
  std::lock_guard<std::mutex> lock(mu_);
  if (fd_ >= 0) {
    ::fsync(fd_);
    ::close(fd_);
    fd_ = -1;
  }
}

void Journal::writeLine(const std::string& payload) {
  const std::string line = sealLine(payload);
  // One write(2) per record: on most filesystems a small append either
  // lands entirely or becomes the torn tail load() drops -- never an
  // interleaving of two records (mu_ serializes writers within the
  // process, O_APPEND-like positioning is ours alone).
  std::size_t off = 0;
  while (off < line.size()) {
    const ssize_t n = ::write(fd_, line.data() + off, line.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      failIo("Journal: write failed", path_);
    }
    off += static_cast<std::size_t>(n);
  }
}

}  // namespace prox::support
