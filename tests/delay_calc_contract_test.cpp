// Contract of the batched delay calculator: one evaluateGateBatch() call over
// a chunk of arcs must be indistinguishable from a per-arc evaluateGate()
// loop over the same arcs -- same arrival bits, same ArcQuality, same
// model.proximity.* / sta.delay_calc.* tallies, and under fail-fast options
// the same escaping exception (the lowest failing arc's).  Full-quality arcs
// must also equal the model-level ProximityCalculator::compute().

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <typeinfo>
#include <vector>

#include "cells/pull_network.hpp"
#include "obs/registry.hpp"
#include "obs/report.hpp"
#include "sta/delay_calc.hpp"
#include "support/diagnostic.hpp"
#include "test_util.hpp"

namespace {

using namespace prox;
using sta::Arrival;
using sta::ArcQuality;
using sta::DelayMode;
using wave::Edge;

using Pins = std::vector<std::optional<Arrival>>;

const characterize::CharacterizedGate& nor2Model() {
  static const characterize::CharacterizedGate g =
      characterize::characterizeGate(testutil::norSpec(2),
                                     testutil::fastConfig());
  return g;
}

const characterize::CharacterizedGate& aoi21Model() {
  static const characterize::CharacterizedGate g =
      characterize::characterizeComplexGate(cells::aoi21(),
                                            testutil::fastConfig());
  return g;
}

/// NAND2 singles with an explicitly empty dual model: every in-window
/// lookup misses its table.
characterize::CharacterizedGate* nand2Shell() {
  auto* c = new characterize::CharacterizedGate();
  c->gate = model::makeGate(testutil::nandSpec(2), 0.05);
  model::GateSimulator sim(c->gate);
  c->singles = std::make_unique<model::SingleInputModelSet>(
      model::SingleInputModelSet::characterizeAll(sim, {100e-12, 600e-12}));
  c->dual = std::make_unique<model::TabulatedDualInputModel>(*c->singles);
  return c;
}

const characterize::CharacterizedGate& missingTableCell() {
  static const auto* cell = nand2Shell();
  return *cell;
}

/// Narrow tables far from any realistic normalized query: every lookup
/// clamps by ~1000 grid spans (identity values keep the clamped answer
/// benign).
const characterize::CharacterizedGate& farTableCell() {
  static const auto* cell = [] {
    auto* c = nand2Shell();
    model::DualTable t;
    t.u = t.v = t.w = {1000.0, 1001.0};
    t.ratio.assign(8, 1.0);
    for (int pin : {0, 1}) {
      for (const Edge e : {Edge::Rising, Edge::Falling}) {
        c->dual->setDelayTable(pin, e, t);
        c->dual->setTransitionTable(pin, e, t);
      }
    }
    return c;
  }();
  return *cell;
}

/// No single-input models at all: proximity and classic both fail, so the
/// arc lands on the slew-estimate rung.
const characterize::CharacterizedGate& modelessCell() {
  static const auto* cell = [] {
    auto* c = new characterize::CharacterizedGate();
    c->gate = model::makeGate(testutil::nandSpec(2), 0.05);
    c->singles = std::make_unique<model::SingleInputModelSet>();
    c->dual = std::make_unique<model::TabulatedDualInputModel>(*c->singles);
    return c;
  }();
  return *cell;
}

/// Trust distance that only the far-table cell's lookups exceed.
constexpr double kTrustDistance = 100.0;

struct Chunk {
  std::vector<const characterize::CharacterizedGate*> cells;
  std::vector<Pins> pins;

  std::vector<sta::BatchArc> arcs() const {
    std::vector<sta::BatchArc> out;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      out.push_back({cells[i], &pins[i]});
    }
    return out;
  }
};

/// 96 arcs (more than one 64-arc STA chunk) cycling through the real cells
/// and the degraded fixtures, with every 9th arc idle.  Separations span
/// simultaneous, in-window, transition-window-only and far-apart inputs in
/// both directions, so the mix exercises window exits and skips,
/// transition-only folds and the corrective term.
Chunk mixedChunk() {
  const characterize::CharacterizedGate* real[] = {
      &testutil::nand2Model(), &nor2Model(), &testutil::nand3Model(),
      &aoi21Model()};
  const double seps[] = {0.0, 15e-12, 45e-12, 110e-12, 260e-12,
                         520e-12, 1500e-12, -70e-12, -300e-12};
  const double taus[] = {60e-12, 150e-12, 400e-12, 900e-12};
  Chunk c;
  for (std::size_t k = 0; k < 96; ++k) {
    const characterize::CharacterizedGate* cell = real[k % 4];
    if (k % 16 == 5) cell = &missingTableCell();
    if (k % 16 == 11) cell = &farTableCell();
    if (k == 30) cell = &modelessCell();
    const Edge edge = (k / 4) % 2 == 0 ? Edge::Rising : Edge::Falling;
    Pins pins(static_cast<std::size_t>(cell->pinCount()));
    if (k % 9 != 4) {
      const double base = 1e-9 + 10e-12 * static_cast<double>(k);
      for (std::size_t p = 0; p < pins.size(); ++p) {
        // Leave a pin stable now and then, but never the dominant one.
        if (p > 0 && (k + p) % 7 == 0) continue;
        const double sep = p == 0 ? 0.0 : seps[(k * 5 + p * 3) % 9];
        pins[p] = Arrival{base + sep, taus[(k + p * 2) % 4], edge};
      }
    }
    c.cells.push_back(cell);
    c.pins.push_back(std::move(pins));
  }
  return c;
}

std::vector<model::InputEvent> eventsOf(const Pins& pins) {
  std::vector<model::InputEvent> events;
  for (std::size_t p = 0; p < pins.size(); ++p) {
    if (pins[p]) {
      events.push_back({static_cast<int>(p), pins[p]->edge, pins[p]->time,
                        pins[p]->slope});
    }
  }
  return events;
}

/// Counter values and timer sample counts under the delay-calc prefixes.
std::map<std::string, std::uint64_t> delayCalcTallies() {
  std::map<std::string, std::uint64_t> out;
  const obs::Report r = obs::snapshot();
  const auto watched = [](const std::string& name) {
    return name.rfind("model.proximity.", 0) == 0 ||
           name.rfind("sta.delay_calc.", 0) == 0;
  };
  for (const auto& c : r.counters) {
    if (watched(c.name)) out[c.name] = c.value;
  }
  for (const auto& t : r.timers) {
    if (watched(t.name)) out[t.name + "#count"] = t.count;
  }
  return out;
}

std::map<std::string, std::uint64_t> tallyDelta(
    const std::map<std::string, std::uint64_t>& before,
    const std::map<std::string, std::uint64_t>& after) {
  std::map<std::string, std::uint64_t> d;
  for (const auto& [name, v] : after) {
    const auto it = before.find(name);
    const std::uint64_t delta = v - (it == before.end() ? 0 : it->second);
    if (delta != 0) d[name] = delta;
  }
  return d;
}

struct Evaluated {
  std::vector<sta::BatchArcResult> results;
  std::map<std::string, std::uint64_t> tallies;
};

Evaluated runBatch(const Chunk& c, DelayMode mode,
                   const sta::DelayCalcOptions& opt) {
  const auto arcs = c.arcs();
  Evaluated e;
  e.results.resize(arcs.size());
  const auto before = delayCalcTallies();
  sta::evaluateGateBatch(arcs, mode, opt, e.results);
  e.tallies = tallyDelta(before, delayCalcTallies());
  return e;
}

Evaluated runPerArc(const Chunk& c, DelayMode mode,
                    const sta::DelayCalcOptions& opt) {
  Evaluated e;
  e.results.resize(c.cells.size());
  const auto before = delayCalcTallies();
  for (std::size_t i = 0; i < c.cells.size(); ++i) {
    e.results[i].arrival = sta::evaluateGate(*c.cells[i], c.pins[i], mode, opt,
                                             &e.results[i].quality);
  }
  e.tallies = tallyDelta(before, delayCalcTallies());
  return e;
}

void expectSameArcs(const Evaluated& batch, const Evaluated& perArc) {
  ASSERT_EQ(batch.results.size(), perArc.results.size());
  for (std::size_t i = 0; i < batch.results.size(); ++i) {
    const auto& b = batch.results[i];
    const auto& s = perArc.results[i];
    EXPECT_EQ(b.quality, s.quality) << "arc " << i;
    ASSERT_EQ(b.arrival.has_value(), s.arrival.has_value()) << "arc " << i;
    if (!b.arrival) continue;
    // Exact `==` on doubles, deliberately: the contract is the same bits.
    EXPECT_EQ(b.arrival->time, s.arrival->time) << "arc " << i;
    EXPECT_EQ(b.arrival->slope, s.arrival->slope) << "arc " << i;
    EXPECT_EQ(b.arrival->edge, s.arrival->edge) << "arc " << i;
  }
}

TEST(DelayCalcContract, ProximityBatchMatchesPerArcAndModel) {
  const Chunk chunk = mixedChunk();  // characterizes every fixture first
  sta::DelayCalcOptions opt;
  opt.maxClampDistance = kTrustDistance;

  const Evaluated batch = runBatch(chunk, DelayMode::Proximity, opt);
  const Evaluated perArc = runPerArc(chunk, DelayMode::Proximity, opt);
  expectSameArcs(batch, perArc);
  EXPECT_EQ(batch.tallies, perArc.tallies);
  if (obs::kStatsCompiledIn) {
    EXPECT_GT(batch.tallies.count("model.proximity.computes"), 0u);
    EXPECT_GT(batch.tallies.count("sta.delay_calc.degraded_arcs"), 0u);
  }

  // Full arcs are Algorithm ProximityDelay itself, and the mix reaches every
  // rung of the ladder and every branch of the composition loop.
  std::size_t idle = 0, full = 0, single = 0, slew = 0;
  std::size_t transitionOnly = 0, windowDropped = 0, corrected = 0;
  for (std::size_t i = 0; i < chunk.cells.size(); ++i) {
    const auto& r = batch.results[i];
    if (!r.arrival) {
      ++idle;
      continue;
    }
    if (r.quality == ArcQuality::SingleInput) ++single;
    if (r.quality == ArcQuality::SlewEstimate) ++slew;
    if (r.quality != ArcQuality::Full) continue;
    ++full;
    const auto events = eventsOf(chunk.pins[i]);
    const model::ProximityResult m =
        chunk.cells[i]->calculator().compute(events);
    EXPECT_EQ(r.arrival->time, m.outputRefTime) << "arc " << i;
    EXPECT_EQ(r.arrival->slope, m.transitionTime) << "arc " << i;
    if (!m.transitionOnlyPins.empty()) ++transitionOnly;
    if (m.processedPins.size() + m.transitionOnlyPins.size() < events.size()) {
      ++windowDropped;
    }
    if (m.correctionApplied != 0.0) ++corrected;
  }
  EXPECT_GT(chunk.cells.size(), 64u);
  EXPECT_GT(idle, 0u);
  EXPECT_GT(full, 40u);
  EXPECT_GT(single, 0u);
  EXPECT_GT(slew, 0u);
  EXPECT_GT(transitionOnly, 0u);
  EXPECT_GT(windowDropped, 0u);
  EXPECT_GT(corrected, 0u);
}

TEST(DelayCalcContract, ClassicBatchMatchesPerArc) {
  const Chunk chunk = mixedChunk();
  sta::DelayCalcOptions opt;
  opt.maxClampDistance = kTrustDistance;
  const Evaluated batch = runBatch(chunk, DelayMode::Classic, opt);
  const Evaluated perArc = runPerArc(chunk, DelayMode::Classic, opt);
  expectSameArcs(batch, perArc);
  EXPECT_EQ(batch.tallies, perArc.tallies);
}

/// What escaped a call: nothing, or the exception's dynamic type, message and
/// (for typed diagnostics) status code and pin.
struct Escape {
  bool threw = false;
  std::string type;
  std::string what;
  std::optional<support::StatusCode> code;
  int pin = -1;
};

Escape escapeOf(const std::function<void()>& fn) {
  Escape e;
  try {
    fn();
  } catch (const support::DiagnosticError& ex) {
    e = {true, typeid(ex).name(), ex.what(), ex.code(), ex.diagnostic().pin};
  } catch (const std::exception& ex) {
    e = {true, typeid(ex).name(), ex.what(), std::nullopt, -1};
  }
  return e;
}

/// The batch throws exactly what the per-arc loop throws first.  Returns the
/// index of the first per-arc failure (size() when none failed).
std::size_t expectSameEscape(const Chunk& c, DelayMode mode,
                             const sta::DelayCalcOptions& opt) {
  Escape expected;
  std::size_t first = c.cells.size();
  for (std::size_t i = 0; i < c.cells.size() && !expected.threw; ++i) {
    expected = escapeOf(
        [&] { (void)sta::evaluateGate(*c.cells[i], c.pins[i], mode, opt); });
    if (expected.threw) first = i;
  }
  const auto arcs = c.arcs();
  std::vector<sta::BatchArcResult> results(arcs.size());
  const Escape got =
      escapeOf([&] { sta::evaluateGateBatch(arcs, mode, opt, results); });
  EXPECT_EQ(got.threw, expected.threw);
  EXPECT_EQ(got.type, expected.type);
  EXPECT_EQ(got.what, expected.what);
  EXPECT_EQ(got.code, expected.code);
  EXPECT_EQ(got.pin, expected.pin);
  return first;
}

Chunk dropFirst(const Chunk& c, std::size_t n) {
  Chunk out;
  out.cells.assign(c.cells.begin() + static_cast<std::ptrdiff_t>(n),
                   c.cells.end());
  out.pins.assign(c.pins.begin() + static_cast<std::ptrdiff_t>(n),
                  c.pins.end());
  return out;
}

TEST(DelayCalcContract, FailFastThrowsLowestFailingArc) {
  sta::DelayCalcOptions strict;
  strict.allowDegraded = false;
  strict.maxClampDistance = kTrustDistance;
  Chunk chunk = mixedChunk();

  // The first failure is the missing-table arc (TableMissing, reference pin
  // attached); with it dropped, the clamp-beyond-trust arc (TableOutOfRange).
  const std::size_t first =
      expectSameEscape(chunk, DelayMode::Proximity, strict);
  ASSERT_EQ(first, 5u);
  chunk = dropFirst(chunk, first + 1);
  const std::size_t second =
      expectSameEscape(chunk, DelayMode::Proximity, strict);
  ASSERT_EQ(second, 5u);  // arc 11 of the original chunk

  // Classic mode only fails on the model-less arc.
  expectSameEscape(mixedChunk(), DelayMode::Classic, strict);
}

TEST(DelayCalcContract, CallerBugsEscapeEvenWhenDegrading) {
  Chunk chunk = mixedChunk();
  // A mixed-direction arc late in the chunk: the degradable failures before
  // it complete, the caller bug throws invalid_argument.
  Pins mixed(2);
  mixed[0] = Arrival{0.0, 100e-12, Edge::Rising};
  mixed[1] = Arrival{10e-12, 100e-12, Edge::Falling};
  chunk.cells[70] = &testutil::nand2Model();
  chunk.pins[70] = mixed;
  sta::DelayCalcOptions opt;
  opt.maxClampDistance = kTrustDistance;
  EXPECT_EQ(expectSameEscape(chunk, DelayMode::Proximity, opt), 70u);

  // A pin-count mismatch before it wins.
  chunk.pins[40] = Pins(5);
  EXPECT_EQ(expectSameEscape(chunk, DelayMode::Proximity, opt), 40u);
}

}  // namespace
