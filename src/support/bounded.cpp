#include "support/bounded.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <istream>
#include <limits>

namespace prox::support {

namespace {

/// The checked parsers work on a NUL-terminated copy so strtod/strtoll can
/// run without touching bytes past the token.  Tokens longer than any
/// representable number are malformed by construction; rejecting them first
/// also bounds the copy.
constexpr std::size_t kMaxNumericTokenBytes = 512;

bool copyToken(std::string_view token, char* buf, std::size_t bufSize) {
  if (token.empty() || token.size() >= bufSize) return false;
  for (std::size_t i = 0; i < token.size(); ++i) buf[i] = token[i];
  buf[token.size()] = '\0';
  return true;
}

}  // namespace

void failParse(const char* site, const std::string& message, int line) {
  Diagnostic d = makeDiagnostic(StatusCode::ParseError, message).withSite(site);
  if (line >= 0) d.withLine(line);
  throw DiagnosticError(std::move(d));
}

void failResource(const char* site, const std::string& message, int line) {
  Diagnostic d =
      makeDiagnostic(StatusCode::ResourceExhausted, message).withSite(site);
  if (line >= 0) d.withLine(line);
  throw DiagnosticError(std::move(d));
}

AllocationBudget::AllocationBudget(const char* site, std::size_t inputBytes,
                                   const ReaderLimits& limits)
    : site_(site) {
  // Saturating cap computation: a huge inputBytes must not wrap into a tiny
  // budget.
  const std::size_t maxSz = std::numeric_limits<std::size_t>::max();
  if (limits.allocFactor != 0 && inputBytes > maxSz / limits.allocFactor) {
    cap_ = maxSz;
  } else {
    const std::size_t scaled = limits.allocFactor * inputBytes;
    cap_ = scaled > maxSz - limits.allocFloor ? maxSz
                                              : scaled + limits.allocFloor;
  }
}

void AllocationBudget::charge(std::size_t bytes, const char* what, int line) {
  if (bytes > cap_ - charged_) {  // charged_ <= cap_ invariant: no underflow
    const std::size_t maxSz = std::numeric_limits<std::size_t>::max();
    const std::string need = bytes > maxSz - charged_
                                 ? "more than " + std::to_string(maxSz)
                                 : std::to_string(charged_ + bytes);
    failResource(site_,
                 std::string("allocation budget exceeded reading ") + what +
                     " (declared sizes need " + need + " bytes for a " +
                     std::to_string(cap_) +
                     "-byte budget derived from the input size)",
                 line);
  }
  charged_ += bytes;
}

void AllocationBudget::chargeItems(std::size_t n, std::size_t itemBytes,
                                   const char* what, int line) {
  if (itemBytes != 0 && n > std::numeric_limits<std::size_t>::max() / itemBytes) {
    failResource(site_,
                 std::string("allocation size overflow reading ") + what, line);
  }
  charge(n * itemBytes, what, line);
}

std::string readStreamBounded(std::istream& is, std::size_t maxBytes,
                              const char* site) {
  std::string out;
  char buf[64 << 10];
  while (is) {
    is.read(buf, sizeof(buf));
    const std::size_t got = static_cast<std::size_t>(is.gcount());
    if (got == 0) break;
    if (got > maxBytes - out.size()) {
      failResource(site, "input exceeds the " + std::to_string(maxBytes) +
                             "-byte reader cap");
    }
    out.append(buf, got);
  }
  return out;
}

std::string readFileBounded(const std::string& path, std::size_t maxBytes,
                            const char* site) {
  std::ifstream f(path, std::ios::binary);
  if (!f) {
    throw DiagnosticError(
        makeDiagnostic(StatusCode::IoError, "cannot open " + path)
            .withSite(site));
  }
  return readStreamBounded(f, maxBytes, site);
}

bool getlineBounded(std::istream& is, std::size_t maxBytes, BoundedLine* out) {
  out->text.clear();
  out->sawNewline = false;
  out->overlong = false;
  int c = is.get();
  if (c == std::char_traits<char>::eof()) return false;
  while (c != std::char_traits<char>::eof() && c != '\n') {
    if (out->text.size() >= maxBytes) {
      // Cap hit: drain the rest of the line unbuffered so the caller can
      // continue at the next record boundary.
      out->overlong = true;
      while (c != std::char_traits<char>::eof() && c != '\n') c = is.get();
      break;
    }
    out->text.push_back(static_cast<char>(c));
    c = is.get();
  }
  out->sawNewline = (c == '\n');
  return true;
}

double parseDoubleChecked(std::string_view token, const char* site,
                          const char* what, int line) {
  char buf[kMaxNumericTokenBytes];
  if (!copyToken(token, buf, sizeof(buf))) {
    failParse(site,
              std::string(token.empty() ? "empty number in "
                                        : "oversized number token in ") +
                  what,
              line);
  }
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(buf, &end);
  if (end != buf + token.size() || end == buf) {
    failParse(site, "malformed number '" + std::string(token) + "' in " + what,
              line);
  }
  if (errno == ERANGE) {
    // Overflow (±HUGE_VAL) and underflow-to-zero both report ERANGE; either
    // way the token does not round-trip and silently using the clamped
    // value would corrupt downstream arithmetic.
    failParse(site, "number out of range '" + std::string(token) + "' in " +
                        what,
              line);
  }
  if (std::isnan(v)) {
    failParse(site, "NaN is not a valid value in " + std::string(what), line);
  }
  return v;
}

double parseFiniteDoubleChecked(std::string_view token, const char* site,
                                const char* what, int line) {
  const double v = parseDoubleChecked(token, site, what, line);
  if (!std::isfinite(v)) {
    failParse(site, "non-finite value '" + std::string(token) + "' in " + what,
              line);
  }
  return v;
}

long long parseIntChecked(std::string_view token, const char* site,
                          const char* what, int line, long long minValue,
                          long long maxValue) {
  char buf[kMaxNumericTokenBytes];
  if (!copyToken(token, buf, sizeof(buf))) {
    failParse(site,
              std::string(token.empty() ? "empty integer in "
                                        : "oversized integer token in ") +
                  what,
              line);
  }
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(buf, &end, 10);
  if (end != buf + token.size() || end == buf || errno == ERANGE) {
    failParse(site,
              "malformed integer '" + std::string(token) + "' in " + what,
              line);
  }
  if (v < minValue || v > maxValue) {
    failParse(site,
              "integer '" + std::string(token) + "' out of range in " + what,
              line);
  }
  return v;
}

std::size_t parseCountChecked(std::string_view token, std::size_t cap,
                              const char* site, const char* what, int line) {
  const long long upper =
      cap > static_cast<std::size_t>(std::numeric_limits<long long>::max())
          ? std::numeric_limits<long long>::max()
          : static_cast<long long>(cap);
  const long long v = parseIntChecked(token, site, what, line, 0, upper);
  return static_cast<std::size_t>(v);
}

}  // namespace prox::support
