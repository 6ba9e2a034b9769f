// Robustness corpus for the .prox serialization: a synthetic package is
// saved once and then corrupted by string surgery -- truncation, non-finite
// entries, non-ascending grids, bad pull-network expressions, unknown
// section tags -- asserting that every corruption dies with a *typed*
// ParseError diagnostic carrying the offending source line, never a silent
// mis-load.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>

#include "characterize/serialize.hpp"
#include "obs/registry.hpp"
#include "support/diagnostic.hpp"

namespace {

using namespace prox;
using support::DiagnosticError;
using support::StatusCode;
using wave::Edge;

// All literal values are exactly representable in binary so the
// setprecision(17) text they serialize to is predictable ("1.5", "0.625"),
// making the find/replace surgery below unambiguous.
model::DualTable syntheticTable() {
  model::DualTable t;
  t.u = {1.5, 2.5};
  t.v = {0.5, 1.5};
  t.w = {-1.0, 1.0};
  t.ratio = {0.5, 0.625, 0.75, 0.875, 1.0, 1.125, 1.25, 1.375};
  return t;
}

characterize::CharacterizedGate syntheticCell() {
  characterize::CharacterizedGate g;
  g.gate.spec.type = cells::GateType::Inverter;
  g.gate.spec.fanin = 1;
  g.gate.thresholds = {1.5, 3.5};
  g.singles = std::make_unique<model::SingleInputModelSet>();
  for (const Edge e : {Edge::Rising, Edge::Falling}) {
    std::vector<model::SingleInputModel::Sample> table = {
        {100e-12, 150e-12, 200e-12}, {600e-12, 300e-12, 500e-12}};
    g.singles->set(
        model::SingleInputModel(0, e, std::move(table), 100e-15, 1.0, 5.0));
  }
  g.dual = std::make_unique<model::TabulatedDualInputModel>(*g.singles);
  for (const Edge e : {Edge::Rising, Edge::Falling}) {
    g.dual->setDelayTable(0, e, syntheticTable());
    g.dual->setTransitionTable(0, e, syntheticTable());
  }
  return g;
}

const std::string& baselineText() {
  static const std::string* text = [] {
    std::ostringstream os;
    characterize::saveGateModel(syntheticCell(), os);
    return new std::string(os.str());
  }();
  return *text;
}

// First-occurrence replacement; the test fails loudly when the pattern is
// not found (e.g. after a format change) instead of silently testing nothing.
std::string replaced(const std::string& from, const std::string& to) {
  std::string text = baselineText();
  const auto pos = text.find(from);
  if (pos == std::string::npos) {
    ADD_FAILURE() << "surgery pattern not found: " << from;
    return text;
  }
  return text.replace(pos, from.size(), to);
}

// 1-based line number where @p pattern starts inside @p text.
int lineOf(const std::string& text, const std::string& pattern) {
  const auto pos = text.find(pattern);
  if (pos == std::string::npos) return -1;
  return 1 + static_cast<int>(std::count(text.begin(), text.begin() + pos, '\n'));
}

support::Diagnostic loadExpectingParseError(const std::string& text) {
  std::istringstream is(text);
  try {
    characterize::loadGateModel(is);
  } catch (const DiagnosticError& e) {
    EXPECT_EQ(e.code(), StatusCode::ParseError);
    EXPECT_EQ(e.diagnostic().site, "characterize.serialize");
    return e.diagnostic();
  }
  ADD_FAILURE() << "expected a typed parse error";
  return {};
}

TEST(SerializeRobustness, RoundTripPreservesEverything) {
  std::istringstream is(baselineText());
  const auto g = characterize::loadGateModel(is);
  EXPECT_EQ(g.gate.spec.type, cells::GateType::Inverter);
  EXPECT_DOUBLE_EQ(g.gate.thresholds.vil, 1.5);
  EXPECT_DOUBLE_EQ(g.gate.thresholds.vih, 3.5);
  const auto& t = g.dual->delayTable(0, Edge::Rising);
  EXPECT_EQ(t.u, syntheticTable().u);
  EXPECT_EQ(t.ratio, syntheticTable().ratio);
  EXPECT_EQ(t.healedCount(), 0u);
  EXPECT_DOUBLE_EQ(g.singles->at(0, Edge::Rising).delay(100e-12), 150e-12);
}

TEST(SerializeRobustness, HealedMarksSurviveTheRoundTrip) {
  auto g = syntheticCell();
  auto t = syntheticTable();
  t.markHealed(1, 0, 1);
  g.dual->setDelayTable(0, Edge::Rising, t);
  std::ostringstream os;
  characterize::saveGateModel(g, os);
  EXPECT_NE(os.str().find("healed 1"), std::string::npos);

  std::istringstream is(os.str());
  const auto back = characterize::loadGateModel(is);
  const auto& dt = back.dual->delayTable(0, Edge::Rising);
  EXPECT_EQ(dt.healedCount(), 1u);
  EXPECT_TRUE(dt.isHealed(1, 0, 1));
  EXPECT_FALSE(dt.isHealed(0, 0, 0));
  // The other tables were written without a healed section.
  EXPECT_EQ(back.dual->transitionTable(0, Edge::Rising).healedCount(), 0u);
}

// Renders the baseline as a pre-checksum legacy file: version token dropped
// to @p version and the trailing "crc32 <hex>" line removed.
std::string legacyText(const char* version) {
  std::string text =
      replaced("proxdelay-model 3", std::string("proxdelay-model ") + version);
  const auto pos = text.find("crc32 ");
  if (pos == std::string::npos) {
    ADD_FAILURE() << "no crc32 line in baseline";
    return text;
  }
  return text.erase(pos);
}

TEST(SerializeRobustness, VersionOneFilesStillLoad) {
  std::istringstream is(legacyText("1"));
  const auto g = characterize::loadGateModel(is);
  EXPECT_EQ(g.dual->delayTable(0, Edge::Falling).ratio, syntheticTable().ratio);
}

TEST(SerializeRobustness, VersionTwoFilesWithoutChecksumStillLoad) {
  std::istringstream is(legacyText("2"));
  const auto g = characterize::loadGateModel(is);
  EXPECT_EQ(g.dual->delayTable(0, Edge::Rising).ratio, syntheticTable().ratio);
}

TEST(SerializeRobustness, UnknownVersionIsRejectedOnLineOne) {
  const auto d =
      loadExpectingParseError(replaced("proxdelay-model 3", "proxdelay-model 99"));
  EXPECT_NE(d.message.find("bad header"), std::string::npos);
  EXPECT_EQ(d.line, 1);
}

TEST(SerializeRobustness, CorruptedValueFailsTheChecksum) {
  // "0.625" -> "0.635" parses cleanly (finite, in-range, right count), so
  // only the token-stream CRC can catch this single-digit bit rot.
  const auto d = loadExpectingParseError(replaced("0.625", "0.635"));
  EXPECT_NE(d.message.find("crc32 mismatch"), std::string::npos);
}

TEST(SerializeRobustness, MissingChecksumOnVersionThreeIsRejected) {
  std::string text = baselineText();
  const auto pos = text.find("crc32 ");
  ASSERT_NE(pos, std::string::npos);
  text.erase(pos);
  const auto d = loadExpectingParseError(text);
  EXPECT_NE(d.message.find("crc32"), std::string::npos);
}

TEST(SerializeRobustness, ChecksumIsWhitespaceLayoutInsensitive) {
  // The CRC covers the token stream, not raw bytes: collapsing every newline
  // to a space preserves the tokens, so the file still loads and verifies.
  std::string text = baselineText();
  std::replace(text.begin(), text.end(), '\n', ' ');
  std::istringstream is(text);
  const auto g = characterize::loadGateModel(is);
  EXPECT_EQ(g.dual->delayTable(0, Edge::Rising).ratio, syntheticTable().ratio);
}

TEST(SerializeRobustness, ChecksumMismatchesAreCounted) {
  const auto before =
      obs::counter("characterize.serialize.crc_mismatches").value();
  loadExpectingParseError(replaced("1.125", "1.135"));
  if (obs::kStatsCompiledIn) {
    EXPECT_EQ(
        obs::counter("characterize.serialize.crc_mismatches").value() - before,
        1u);
  }
}

TEST(SerializeRobustness, TruncatedFileIsATypedParseError) {
  const std::string& full = baselineText();
  const auto d = loadExpectingParseError(full.substr(0, full.size() / 2));
  EXPECT_GT(d.line, 1);
}

TEST(SerializeRobustness, NanThresholdIsRejected) {
  const std::string text = replaced("thresholds 1.5", "thresholds nan");
  const auto d = loadExpectingParseError(text);
  EXPECT_NE(d.message.find("non-finite"), std::string::npos);
  EXPECT_EQ(d.line, lineOf(text, "thresholds nan"));
}

TEST(SerializeRobustness, NanTableEntryIsRejected) {
  const auto d = loadExpectingParseError(replaced("0.875", "nan"));
  EXPECT_NE(d.message.find("non-finite"), std::string::npos);
  EXPECT_NE(d.message.find("ratio"), std::string::npos);
}

TEST(SerializeRobustness, NonAscendingGridIsRejected) {
  const std::string text = replaced("2 1.5 2.5", "2 2.5 1.5");
  const auto d = loadExpectingParseError(text);
  EXPECT_NE(d.message.find("not strictly ascending"), std::string::npos);
  EXPECT_EQ(d.line, lineOf(text, "2 2.5 1.5"));
}

TEST(SerializeRobustness, HealedIndexOutOfRangeIsRejected) {
  auto g = syntheticCell();
  auto t = syntheticTable();
  t.markHealed(0, 0, 0);
  g.dual->setDelayTable(0, Edge::Rising, t);
  std::ostringstream os;
  characterize::saveGateModel(g, os);
  std::string text = os.str();
  const auto pos = text.find("healed 1 0");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 10, "healed 1 8");  // one past the 8-entry table
  loadExpectingParseError(text);
}

TEST(SerializeRobustness, BadPullNetworkTokenIsRejected) {
  const std::string text =
      replaced("gate INV 1\n", "gate COMPLEX 2\npullnet a!b\n");
  const auto d = loadExpectingParseError(text);
  EXPECT_NE(d.message.find("pullnet"), std::string::npos);
}

TEST(SerializeRobustness, UnknownSectionTagIsRejected) {
  const std::string text = replaced("correction", "corruption");
  const auto d = loadExpectingParseError(text);
  EXPECT_NE(d.message.find("corruption"), std::string::npos);
  EXPECT_EQ(d.line, lineOf(text, "corruption"));
}

TEST(SerializeRobustness, DuplicateSingleSectionIsRejected) {
  // Turning "single 0 F" into a second "single 0 R" makes the key collide;
  // duplicate detection fires while parsing, before the CRC trailer.
  const auto d = loadExpectingParseError(replaced("single 0 F", "single 0 R"));
  EXPECT_NE(d.message.find("duplicate section 'single 0 R'"),
            std::string::npos);
}

TEST(SerializeRobustness, DuplicateDualSectionIsRejected) {
  const auto d =
      loadExpectingParseError(replaced("dualdelay 0 F", "dualdelay 0 R"));
  EXPECT_NE(d.message.find("duplicate section"), std::string::npos);
}

TEST(SerializeRobustness, OutOfRangePinIsRejected) {
  const auto d = loadExpectingParseError(replaced("single 0 R", "single 5 R"));
  EXPECT_NE(d.message.find("pin 5 outside [0, 1)"), std::string::npos);
}

TEST(SerializeRobustness, HugeGridCountIsACapRejection) {
  // A 200-byte header declaring a billion-point axis must be refused by
  // arithmetic on the declared count, not honoured by the allocator.
  const auto before =
      obs::counter("characterize.serialize.cap_rejections").value();
  const auto d =
      loadExpectingParseError(replaced("2 1.5 2.5", "999999999 1.5 2.5"));
  EXPECT_NE(d.message.find("exceeds ceiling"), std::string::npos);
  if (obs::kStatsCompiledIn) {
    EXPECT_EQ(
        obs::counter("characterize.serialize.cap_rejections").value() - before,
        1u);
  }
}

TEST(SerializeRobustness, NegativeCountIsRejected) {
  const auto d = loadExpectingParseError(replaced("2 1.5 2.5", "-2 1.5 2.5"));
  EXPECT_NE(d.message.find("negative count"), std::string::npos);
}

TEST(SerializeRobustness, MissingFileIsATypedIoError) {
  try {
    characterize::loadGateModelFile("/nonexistent/model.prox");
    FAIL() << "expected IoError";
  } catch (const DiagnosticError& e) {
    EXPECT_EQ(e.code(), StatusCode::IoError);
  }
}

TEST(SerializeRobustness, ParseErrorsAreCounted) {
  const auto before =
      obs::counter("characterize.serialize.parse_errors").value();
  loadExpectingParseError(replaced("correction", "corruption"));
  if (obs::kStatsCompiledIn) {
    EXPECT_EQ(obs::counter("characterize.serialize.parse_errors").value() -
                  before,
              1u);
  }
}

}  // namespace
