// Unit tests for the bounded-ingestion primitives (support/bounded.hpp):
// size-capped stream/line reading, input-size-derived allocation budgets,
// and the overflow-checked whole-token conversions every parser uses.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <string>

#include "support/bounded.hpp"
#include "support/diagnostic.hpp"

namespace {

using namespace prox::support;

constexpr const char* kSite = "test.bounded";

template <typename Fn>
Diagnostic expectTyped(StatusCode code, Fn&& fn) {
  try {
    fn();
  } catch (const DiagnosticError& e) {
    EXPECT_EQ(e.code(), code);
    return e.diagnostic();
  }
  ADD_FAILURE() << "expected DiagnosticError(" << statusCodeName(code) << ")";
  return {};
}

// --- readStreamBounded / readFileBounded ------------------------------------

TEST(BoundedReader, ReadsWholeStreamUnderCap) {
  std::istringstream is("hello\nworld\n");
  EXPECT_EQ(readStreamBounded(is, 1024, kSite), "hello\nworld\n");
}

TEST(BoundedReader, RejectsOversizedStreamBeforeBufferingIt) {
  std::istringstream is(std::string(4096, 'x'));
  const auto d = expectTyped(StatusCode::ResourceExhausted,
                             [&] { readStreamBounded(is, 100, kSite); });
  EXPECT_NE(d.message.find("reader cap"), std::string::npos);
  EXPECT_EQ(d.site, kSite);
}

TEST(BoundedReader, MissingFileIsATypedIoError) {
  expectTyped(StatusCode::IoError,
              [] { readFileBounded("/nonexistent/x.bin", 100, kSite); });
}

// --- getlineBounded ---------------------------------------------------------

TEST(BoundedReader, GetlineSplitsAtNewlines) {
  std::istringstream is("one\ntwo");
  BoundedLine line;
  ASSERT_TRUE(getlineBounded(is, 100, &line));
  EXPECT_EQ(line.text, "one");
  EXPECT_TRUE(line.sawNewline);
  EXPECT_FALSE(line.overlong);
  ASSERT_TRUE(getlineBounded(is, 100, &line));
  EXPECT_EQ(line.text, "two");
  EXPECT_FALSE(line.sawNewline);  // torn tail: EOF ended the line
  EXPECT_FALSE(getlineBounded(is, 100, &line));
}

TEST(BoundedReader, GetlineCapsOverlongLinesAndResynchronizes) {
  std::istringstream is(std::string(50, 'a') + "\nnext\n");
  BoundedLine line;
  ASSERT_TRUE(getlineBounded(is, 8, &line));
  EXPECT_EQ(line.text.size(), 8u);  // capped, remainder drained unbuffered
  EXPECT_TRUE(line.overlong);
  EXPECT_TRUE(line.sawNewline);
  ASSERT_TRUE(getlineBounded(is, 8, &line));
  EXPECT_EQ(line.text, "next");  // scanning resumed at the record boundary
  EXPECT_FALSE(line.overlong);
}

TEST(BoundedReader, GetlineHandlesEmptyLines) {
  std::istringstream is("\n\n");
  BoundedLine line;
  ASSERT_TRUE(getlineBounded(is, 8, &line));
  EXPECT_TRUE(line.text.empty());
  EXPECT_TRUE(line.sawNewline);
  ASSERT_TRUE(getlineBounded(is, 8, &line));
  EXPECT_FALSE(getlineBounded(is, 8, &line));
}

// --- AllocationBudget -------------------------------------------------------

TEST(BoundedReader, BudgetCapScalesWithInputSize) {
  ReaderLimits limits;
  limits.allocFactor = 4;
  limits.allocFloor = 100;
  AllocationBudget b(kSite, 1000, limits);
  EXPECT_EQ(b.cap(), 4u * 1000u + 100u);
  b.charge(4000, "payload");
  EXPECT_EQ(b.charged(), 4000u);
  const auto d = expectTyped(StatusCode::ResourceExhausted,
                             [&] { b.charge(101, "payload", 7); });
  EXPECT_NE(d.message.find("allocation budget exceeded"), std::string::npos);
  EXPECT_NE(d.message.find("need 4101 bytes for a 4100-byte budget"),
            std::string::npos);
  EXPECT_EQ(d.line, 7);
  // A need past size_t is reported as such, not wrapped.
  const auto past = expectTyped(StatusCode::ResourceExhausted, [&] {
    b.charge(std::numeric_limits<std::size_t>::max(), "payload");
  });
  EXPECT_NE(past.message.find("need more than "), std::string::npos);
}

TEST(BoundedReader, BudgetChargeItemsRejectsMultiplicationOverflow) {
  AllocationBudget b(kSite, 1 << 20);
  const std::size_t huge = std::numeric_limits<std::size_t>::max() / 2;
  const auto d = expectTyped(StatusCode::ResourceExhausted,
                             [&] { b.chargeItems(huge, 16, "table"); });
  EXPECT_NE(d.message.find("overflow"), std::string::npos);
}

TEST(BoundedReader, BudgetCapSaturatesOnHugeInputSize) {
  AllocationBudget b(kSite, std::numeric_limits<std::size_t>::max() / 2);
  EXPECT_EQ(b.cap(), std::numeric_limits<std::size_t>::max());
}

// --- parseDoubleChecked / parseFiniteDoubleChecked --------------------------

TEST(BoundedReader, ParsesPlainAndScientificDoubles) {
  EXPECT_DOUBLE_EQ(parseDoubleChecked("1.5", kSite, "x"), 1.5);
  EXPECT_DOUBLE_EQ(parseDoubleChecked("-2e-12", kSite, "x"), -2e-12);
  EXPECT_DOUBLE_EQ(parseDoubleChecked("0", kSite, "x"), 0.0);
}

TEST(BoundedReader, RejectsPartialAndEmptyNumberTokens) {
  expectTyped(StatusCode::ParseError,
              [] { parseDoubleChecked("1.5abc", kSite, "x"); });
  expectTyped(StatusCode::ParseError,
              [] { parseDoubleChecked("", kSite, "x"); });
  expectTyped(StatusCode::ParseError,
              [] { parseDoubleChecked("--3", kSite, "x"); });
}

TEST(BoundedReader, RejectsOverflowAndUnderflowInsteadOfClamping) {
  // strtod would silently return +inf / 0.0 here; the checked parser must
  // refuse to round-trip either.
  const auto d = expectTyped(StatusCode::ParseError, [] {
    parseDoubleChecked("1e999", kSite, "x", 3);
  });
  EXPECT_NE(d.message.find("out of range"), std::string::npos);
  EXPECT_EQ(d.line, 3);
  expectTyped(StatusCode::ParseError,
              [] { parseDoubleChecked("1e-999", kSite, "x"); });
}

TEST(BoundedReader, RejectsNanAndOversizedTokens) {
  expectTyped(StatusCode::ParseError,
              [] { parseDoubleChecked("nan", kSite, "x"); });
  expectTyped(StatusCode::ParseError, [] {
    parseDoubleChecked(std::string(600, '1'), kSite, "x");
  });
}

TEST(BoundedReader, FiniteVariantRejectsInfinity) {
  const auto d = expectTyped(StatusCode::ParseError, [] {
    parseFiniteDoubleChecked("inf", kSite, "threshold");
  });
  EXPECT_NE(d.message.find("non-finite"), std::string::npos);
}

// --- parseIntChecked / parseCountChecked ------------------------------------

TEST(BoundedReader, ParsesIntegersWholeTokenOnly) {
  EXPECT_EQ(parseIntChecked("42", kSite, "n"), 42);
  EXPECT_EQ(parseIntChecked("-7", kSite, "n"), -7);
  expectTyped(StatusCode::ParseError,
              [] { parseIntChecked("42x", kSite, "n"); });
  expectTyped(StatusCode::ParseError,
              [] { parseIntChecked("4.2", kSite, "n"); });
}

TEST(BoundedReader, IntRangeIsEnforced) {
  EXPECT_EQ(parseIntChecked("10", kSite, "n", -1, 0, 10), 10);
  expectTyped(StatusCode::ParseError,
              [] { parseIntChecked("11", kSite, "n", -1, 0, 10); });
  // Wider than long long: strtoll saturates with ERANGE -> typed rejection.
  expectTyped(StatusCode::ParseError, [] {
    parseIntChecked("99999999999999999999999999", kSite, "n");
  });
}

TEST(BoundedReader, CountRejectsNegativeAndOverCap) {
  EXPECT_EQ(parseCountChecked("4096", 4096, kSite, "rows"), 4096u);
  expectTyped(StatusCode::ParseError,
              [] { parseCountChecked("-1", 4096, kSite, "rows"); });
  const auto d = expectTyped(StatusCode::ParseError, [] {
    parseCountChecked("4097", 4096, kSite, "rows", 12);
  });
  EXPECT_EQ(d.line, 12);
}

// --- fail helpers -----------------------------------------------------------

TEST(BoundedReader, FailHelpersCarrySiteLineAndCode) {
  const auto p = expectTyped(StatusCode::ParseError,
                             [] { failParse(kSite, "bad thing", 9); });
  EXPECT_EQ(p.site, kSite);
  EXPECT_EQ(p.line, 9);
  const auto r = expectTyped(StatusCode::ResourceExhausted,
                             [] { failResource(kSite, "too big"); });
  EXPECT_EQ(r.site, kSite);
}

}  // namespace
