// Golden determinism harness for the parallel characterization and STA
// engine (DESIGN.md "Parallel execution & determinism contract"): every
// characterized artifact -- dual ratio tables, healed marks, single-input
// samples, corrective terms, diagnostics -- and every STA arrival time must
// be *bit-identical* across thread counts {1, 2, 8} and across repeated
// runs, including while a fault plan is actively injecting failures.
//
// All comparisons below use exact `==` on doubles on purpose: "close" would
// hide scheduling-dependent reduction orders, which is precisely the bug
// class this harness exists to catch.

#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cells/pull_network.hpp"
#include "characterize/characterize.hpp"
#include "model/dual_input.hpp"
#include "model/single_input.hpp"
#include "obs/registry.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "sta/blif.hpp"
#include "sta/synth.hpp"
#include "sta/timing_graph.hpp"
#include "support/durable_io.hpp"
#include "support/fault_injection.hpp"
#include "dual_table_reference.hpp"
#include "test_util.hpp"

namespace {

using namespace prox;
using wave::Edge;

// A deliberately small grid: determinism is a structural property and does
// not need dense tables, and this binary characterizes the same gate many
// times over.
characterize::CharacterizationConfig smallConfig(int threads) {
  characterize::CharacterizationConfig c;
  c.tauGrid = {100e-12, 400e-12, 1000e-12};
  c.dualTauIndices = {0, 1, 2};
  c.vGrid = {0.3, 1.0, 3.0};
  c.wGrid = {-1.0, -0.5, 0.0, 0.5, 1.0};
  c.vGridTransition = {0.3, 1.0, 3.0};
  c.wGridTransition = {-1.0, 0.0, 1.0, 3.0};
  c.vtcStep = 0.05;
  c.threads = threads;
  return c;
}

void expectTableIdentical(const model::DualTable& a, const model::DualTable& b,
                          const char* what) {
  EXPECT_EQ(a.u, b.u) << what;
  EXPECT_EQ(a.v, b.v) << what;
  EXPECT_EQ(a.w, b.w) << what;
  ASSERT_EQ(a.ratio.size(), b.ratio.size()) << what;
  for (std::size_t i = 0; i < a.ratio.size(); ++i) {
    EXPECT_EQ(a.ratio[i], b.ratio[i]) << what << " ratio[" << i << "]";
  }
  EXPECT_EQ(a.healed, b.healed) << what << " healed marks";
}

void expectCellsIdentical(const characterize::CharacterizedGate& a,
                          const characterize::CharacterizedGate& b) {
  ASSERT_EQ(a.pinCount(), b.pinCount());
  for (int pin = 0; pin < a.pinCount(); ++pin) {
    for (const Edge e : {Edge::Rising, Edge::Falling}) {
      // Single-input macromodels: every sample field, bit for bit.
      const auto& sa = a.singles->at(pin, e);
      const auto& sb = b.singles->at(pin, e);
      ASSERT_EQ(sa.table().size(), sb.table().size());
      for (std::size_t i = 0; i < sa.table().size(); ++i) {
        EXPECT_EQ(sa.table()[i].tau, sb.table()[i].tau);
        EXPECT_EQ(sa.table()[i].delay, sb.table()[i].delay);
        EXPECT_EQ(sa.table()[i].transition, sb.table()[i].transition);
      }
      EXPECT_EQ(sa.loadCap(), sb.loadCap());
      EXPECT_EQ(sa.strengthK(), sb.strengthK());
      EXPECT_EQ(sa.vdd(), sb.vdd());

      expectTableIdentical(a.dual->delayTable(pin, e),
                           b.dual->delayTable(pin, e), "delay table");
      expectTableIdentical(a.dual->transitionTable(pin, e),
                           b.dual->transitionTable(pin, e),
                           "transition table");
    }
  }
  // Complex gates also carry the pair matrix (Figure 4-2 option 2(a)).
  ASSERT_EQ(a.dual->pairKeys(), b.dual->pairKeys());
  for (const auto& [ref, other, e] : a.dual->pairKeys()) {
    expectTableIdentical(a.dual->pairDelayTable(ref, other, e),
                         b.dual->pairDelayTable(ref, other, e),
                         "pair delay table");
    expectTableIdentical(a.dual->pairTransitionTable(ref, other, e),
                         b.dual->pairTransitionTable(ref, other, e),
                         "pair transition table");
  }
  EXPECT_EQ(a.correction.delayErrorRising, b.correction.delayErrorRising);
  EXPECT_EQ(a.correction.delayErrorFalling, b.correction.delayErrorFalling);
  EXPECT_EQ(a.correction.transitionErrorRising,
            b.correction.transitionErrorRising);
  EXPECT_EQ(a.correction.transitionErrorFalling,
            b.correction.transitionErrorFalling);

  // Diagnostics must agree in count, order, and rendered content (the merge
  // happens in enumeration order, never completion order).
  ASSERT_EQ(a.diagnostics.entries().size(), b.diagnostics.entries().size());
  for (std::size_t i = 0; i < a.diagnostics.entries().size(); ++i) {
    EXPECT_EQ(a.diagnostics.entries()[i].toString(),
              b.diagnostics.entries()[i].toString());
  }
}

// Clean (no fault plan) characterizations, cached per thread count: the
// comparisons below all reference these.
const characterize::CharacterizedGate& cleanCell(int threads) {
  static auto* cache = new std::map<int, characterize::CharacterizedGate>();
  auto it = cache->find(threads);
  if (it == cache->end()) {
    it = cache
             ->emplace(threads, characterize::characterizeGate(
                                    testutil::nandSpec(2),
                                    smallConfig(threads)))
             .first;
  }
  return it->second;
}

TEST(CharacterizationDeterminism, TwoThreadsMatchesSerial) {
  expectCellsIdentical(cleanCell(1), cleanCell(2));
}

TEST(CharacterizationDeterminism, EightThreadsMatchesSerial) {
  expectCellsIdentical(cleanCell(1), cleanCell(8));
}

TEST(CharacterizationDeterminism, RepeatedParallelRunsMatch) {
  const auto rerun = characterize::characterizeGate(testutil::nandSpec(2),
                                                    smallConfig(8));
  expectCellsIdentical(cleanCell(8), rerun);
}

// AOI21's (pin, partner) pair sweeps repeat a per-reference sweep point for
// point, so they are memo hits -- at every thread count, not only at one.
// Same bits is not enough: which points simulate (the transient count, and
// so where a task-keyed fault lands) must not depend on the thread count.
struct ComplexRun {
  characterize::CharacterizedGate cell;
  std::uint64_t transients = 0;
};

ComplexRun characterizeAoi21(int threads) {
  const auto before = obs::snapshot();
  ComplexRun run{characterize::characterizeComplexGate(cells::aoi21(),
                                                       smallConfig(threads))};
  run.transients = obs::snapshot().counterValue("model.gate_sim.transients") -
                   before.counterValue("model.gate_sim.transients");
  return run;
}

TEST(CharacterizationDeterminism, ComplexGateSameBitsAndWorkAtAnyThreadCount) {
  const ComplexRun serial = characterizeAoi21(1);
  ASSERT_FALSE(serial.cell.dual->pairKeys().empty());
  for (const int threads : {2, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const ComplexRun run = characterizeAoi21(threads);
    expectCellsIdentical(serial.cell, run.cell);
    if (obs::kStatsCompiledIn) {
      EXPECT_GT(serial.transients, 0u);
      EXPECT_EQ(run.transients, serial.transients);
    }
  }
}

TEST(CharacterizationDeterminism, CleanRunsLogNothingAtAnyThreadCount) {
  EXPECT_TRUE(cleanCell(1).diagnostics.empty());
  EXPECT_TRUE(cleanCell(2).diagnostics.empty());
  EXPECT_TRUE(cleanCell(8).diagnostics.empty());
}

// The sparse MNA pipeline (pattern-cached stamping, symbolic/numeric-split
// LU, same-Jacobian reuse) is now the only transient solve path; this test
// both proves the sparse machinery actually ran underneath a full
// characterization and pins its thread-count invariance at {1, 8}.  The
// fast-path reuse heuristic in particular must not make results depend on
// solve *history* in any thread-visible way: each task owns its circuit and
// workspace, so serial and 8-way runs see identical iteration sequences.
TEST(CharacterizationDeterminism, SparseSolvePathBitIdenticalAtOneAndEight) {
  const auto before = obs::snapshot();
  const auto serial = characterize::characterizeGate(testutil::nandSpec(2),
                                                     smallConfig(1));
  const auto eight = characterize::characterizeGate(testutil::nandSpec(2),
                                                    smallConfig(8));
  expectCellsIdentical(serial, eight);

  if (obs::kStatsCompiledIn) {
    const auto after = obs::snapshot();
    // Both the full-factor and the refactor numeric phases must have fired:
    // characterization transient solves run through SparseLu, not the dense
    // fallback.
    EXPECT_GT(after.counterValue("linalg.sparse.factorizations"),
              before.counterValue("linalg.sparse.factorizations"));
    EXPECT_GT(after.counterValue("linalg.sparse.refactorizations"),
              before.counterValue("linalg.sparse.refactorizations"));
  }
}

// Tracing is purely observational: recording spans, heartbeat counters and
// per-point events while a TraceSession is active must not perturb a single
// bit of the characterized artifact, at any thread count.  This is the
// observability layer's core contract (DESIGN.md), pinned here with the same
// exact-== comparisons as the rest of the harness.
TEST(CharacterizationDeterminism, TracingOnDoesNotChangeResults) {
  for (const int threads : {1, 8}) {
    obs::trace::TraceSession session;
    const auto traced = characterize::characterizeGate(testutil::nandSpec(2),
                                                       smallConfig(threads));
    session.stop();
    expectCellsIdentical(cleanCell(1), traced);
#if PROX_ENABLE_STATS
    // The session must actually have observed the run, or this test proves
    // nothing: the per-point spans land in the exported JSON.  (With stats
    // compiled out the span macros are empty and the trace is, too.)
    EXPECT_NE(session.exportJson().find("char.point"), std::string::npos)
        << "threads=" << threads;
#endif
  }
}

#if PROX_ENABLE_FAULT_INJECTION
// With a task-keyed fault plan armed, the *same* sweep point fails (and
// heals) no matter how many workers race through the sweep: spec.taskIndex
// addresses "parallel task 7", which parallelFor pins to loop index 7 at
// every thread count.  count = 2 also kills the retry, forcing the healing
// path.
characterize::CharacterizedGate faultedCell(int threads) {
  support::FaultSpec spec;
  spec.site = "model.gate_sim.simulate";
  spec.kind = support::FaultKind::SimulationFailure;
  spec.triggerHit = 1;
  spec.count = 2;
  spec.taskIndex = 7;
  support::FaultPlan::Scope scope(spec);
  return characterize::characterizeGate(testutil::nandSpec(2),
                                        smallConfig(threads));
}

TEST(FaultedCharacterizationDeterminism, SameHoleHealsAtEveryThreadCount) {
  const auto serial = faultedCell(1);
  const auto two = faultedCell(2);
  const auto eight = faultedCell(8);

  // The plan must actually have bitten: at least one healed point and a
  // Warning-severity log entry.
  std::size_t healed = 0;
  for (int pin = 0; pin < serial.pinCount(); ++pin) {
    for (const Edge e : {Edge::Rising, Edge::Falling}) {
      healed += serial.dual->delayTable(pin, e).healedCount();
      healed += serial.dual->transitionTable(pin, e).healedCount();
    }
  }
  EXPECT_GE(healed, 1u);
  EXPECT_FALSE(serial.diagnostics.empty());

  expectCellsIdentical(serial, two);
  expectCellsIdentical(serial, eight);
}

TEST(FaultedCharacterizationDeterminism, RepeatedFaultedRunsMatch) {
  expectCellsIdentical(faultedCell(8), faultedCell(8));
}

// Task 7 of each of AOI21's six per-reference sweeps takes hits 1-6; hits 7
// and 8 (the point and its retry) land in the first pair sweep that really
// simulates its task 7.  The pair sweeps that repeat a per-reference sweep
// are memo hits there, so this holds only if they are at every thread count.
characterize::CharacterizedGate faultedAoi21(int threads) {
  support::FaultSpec spec;
  spec.site = "model.gate_sim.simulate";
  spec.kind = support::FaultKind::SimulationFailure;
  spec.triggerHit = 7;
  spec.count = 2;
  spec.taskIndex = 7;
  support::FaultPlan::Scope scope(spec);
  return characterize::characterizeComplexGate(cells::aoi21(),
                                               smallConfig(threads));
}

TEST(FaultedCharacterizationDeterminism, ComplexGateHoleHealsInOnePairTable) {
  const auto serial = faultedAoi21(1);
  std::size_t pairHealed = 0;
  for (const auto& [ref, other, e] : serial.dual->pairKeys()) {
    pairHealed += serial.dual->pairDelayTable(ref, other, e).healedCount();
    pairHealed += serial.dual->pairTransitionTable(ref, other, e).healedCount();
  }
  EXPECT_EQ(pairHealed, 1u);
  EXPECT_FALSE(serial.diagnostics.empty());

  expectCellsIdentical(serial, faultedAoi21(2));
  expectCellsIdentical(serial, faultedAoi21(8));
}
#endif  // PROX_ENABLE_FAULT_INJECTION

// -- STA ---------------------------------------------------------------------

// Three levels, with a two-arc level in the middle of the fan-in cone so the
// parallel evaluator actually has sibling arcs to race: all switching inputs
// of any one gate share a direction (NANDs invert level by level).
struct StaRun {
  std::vector<sta::Arrival> arrivals;
  std::size_t degraded = 0;
};

StaRun runSta(const characterize::CharacterizedGate& cell, int threads) {
  sta::Netlist nl;
  for (const char* pi : {"a", "b", "c", "d"}) nl.addPrimaryInput(pi);
  nl.addInstance("u1", cell, {"a", "b"}, "n1");
  nl.addInstance("u2", cell, {"c", "d"}, "n2");
  nl.addInstance("u3", cell, {"n1", "n2"}, "m1");
  nl.addInstance("u4", cell, {"n2", "n1"}, "m2");
  nl.addInstance("u5", cell, {"m1", "m2"}, "out");

  sta::DelayCalcOptions opt;
  opt.threads = threads;
  sta::TimingAnalyzer ta(nl, sta::DelayMode::Proximity, opt);
  // Close arrivals on every pair: forces dual-table proximity lookups
  // instead of the wide-separation short-circuit.
  ta.setInputArrival("a", {0.0, 120e-12, Edge::Rising});
  ta.setInputArrival("b", {30e-12, 150e-12, Edge::Rising});
  ta.setInputArrival("c", {10e-12, 100e-12, Edge::Rising});
  ta.setInputArrival("d", {25e-12, 180e-12, Edge::Rising});
  ta.run();

  StaRun out;
  for (const char* net : {"n1", "n2", "m1", "m2", "out"}) {
    const auto arr = ta.arrival(net);
    EXPECT_TRUE(arr.has_value()) << net;
    out.arrivals.push_back(arr.value_or(sta::Arrival{}));
  }
  out.degraded = ta.degradedArcs();
  return out;
}

void expectRunsIdentical(const StaRun& a, const StaRun& b) {
  ASSERT_EQ(a.arrivals.size(), b.arrivals.size());
  for (std::size_t i = 0; i < a.arrivals.size(); ++i) {
    EXPECT_EQ(a.arrivals[i].time, b.arrivals[i].time) << "net " << i;
    EXPECT_EQ(a.arrivals[i].slope, b.arrivals[i].slope) << "net " << i;
    EXPECT_EQ(a.arrivals[i].edge, b.arrivals[i].edge) << "net " << i;
  }
  EXPECT_EQ(a.degraded, b.degraded);
}

TEST(StaDeterminism, ArrivalsBitIdenticalAcrossThreadCounts) {
  const auto& cell = cleanCell(1);
  const StaRun serial = runSta(cell, 1);
  expectRunsIdentical(serial, runSta(cell, 2));
  expectRunsIdentical(serial, runSta(cell, 8));
}

TEST(StaDeterminism, RepeatedParallelRunsMatch) {
  const auto& cell = cleanCell(1);
  expectRunsIdentical(runSta(cell, 8), runSta(cell, 8));
}

TEST(StaDeterminism, ParallelCellDrivesIdenticalSta) {
  // End to end: a cell characterized in parallel must drive the exact same
  // timing analysis as one characterized serially.
  expectRunsIdentical(runSta(cleanCell(1), 1), runSta(cleanCell(8), 8));
}

TEST(StaDeterminism, TracingOnDoesNotChangeArrivals) {
  const auto& cell = cleanCell(1);
  const StaRun untraced = runSta(cell, 1);
  for (const int threads : {1, 8}) {
    obs::trace::TraceSession session;
    const StaRun traced = runSta(cell, threads);
    session.stop();
    expectRunsIdentical(untraced, traced);
#if PROX_ENABLE_STATS
    EXPECT_NE(session.exportJson().find("sta.level"), std::string::npos)
        << "threads=" << threads;
#endif
  }
}

// -- Large-circuit STA determinism -------------------------------------------
//
// A 10k-gate synthetic circuit (50 layers x 200 gates, analytic cell
// library) with its arrivals reduced to a single CRC-32 in fixed
// layer-major net order.  The reference values below were captured against
// the pre-arena string-keyed netlist implementation, so they pin three
// contracts at once: thread-count invariance, run-to-run stability, and
// bit-identical results across the flat-arena storage refactor.  The
// analytic library is built from exactly-representable rational constants
// (no libm), which is what makes a cross-toolchain pinned checksum sound.

constexpr std::uint32_t kLargeProximityChecksum = 0xDB0EAFA7u;
constexpr std::uint32_t kLargeClassicChecksum = 0x67FB8952u;

sta::SynthSpec largeSpec() {
  sta::SynthSpec spec;
  spec.seed = 2026;
  spec.depth = 50;
  spec.width = 200;  // 10000 gates
  spec.primaryInputs = 200;
  spec.maxFanin = 3;
  return spec;
}

const sta::GateLibrary& largeLibrary() {
  static const sta::GateLibrary lib = sta::analyticLibrary();
  return lib;
}

/// CRC-32 over (time, slope, edge) of every internal net in layer-major
/// order -- the reduction is order-fixed, so any scheduling-dependent bit
/// anywhere in the graph changes the digest.
std::uint32_t arrivalChecksum(const sta::SynthSpec& spec,
                              const sta::TimingAnalyzer& ta) {
  std::uint32_t crc = support::kCrc32Init;
  for (std::uint32_t layer = 0; layer < spec.depth; ++layer) {
    for (std::uint32_t pos = 0; pos < spec.width; ++pos) {
      const std::string net =
          "n" + std::to_string(layer) + "_" + std::to_string(pos);
      const auto a = ta.arrival(net);
      EXPECT_TRUE(a.has_value()) << net;
      if (!a) continue;
      crc = support::crc32Update(crc, &a->time, sizeof(a->time));
      crc = support::crc32Update(crc, &a->slope, sizeof(a->slope));
      const int e = static_cast<int>(a->edge);
      crc = support::crc32Update(crc, &e, sizeof(e));
    }
  }
  return support::crc32Final(crc);
}

std::uint32_t largeChecksum(bool viaBlif, int threads, sta::DelayMode mode) {
  const sta::SynthSpec spec = largeSpec();
  sta::Netlist nl;
  if (viaBlif) {
    sta::readBlifString(sta::generateBlifString(spec), largeLibrary(), &nl);
  } else {
    sta::buildNetlist(spec, largeLibrary(), &nl);
  }
  sta::DelayCalcOptions opt;
  opt.threads = threads;
  sta::TimingAnalyzer ta(nl, mode, opt);
  for (const auto& [net, arr] : sta::synthInputArrivals(spec)) {
    ta.setInputArrival(net, arr);
  }
  ta.run();
  EXPECT_EQ(ta.degradedArcs(), 0u);
  return arrivalChecksum(spec, ta);
}

TEST(LargeStaDeterminism, ProximityChecksumPinnedAcrossThreadCounts) {
  EXPECT_EQ(largeChecksum(false, 1, sta::DelayMode::Proximity),
            kLargeProximityChecksum);
  EXPECT_EQ(largeChecksum(false, 2, sta::DelayMode::Proximity),
            kLargeProximityChecksum);
  EXPECT_EQ(largeChecksum(false, 8, sta::DelayMode::Proximity),
            kLargeProximityChecksum);
}

TEST(LargeStaDeterminism, ClassicChecksumPinnedAcrossThreadCounts) {
  EXPECT_EQ(largeChecksum(false, 1, sta::DelayMode::Classic),
            kLargeClassicChecksum);
  EXPECT_EQ(largeChecksum(false, 8, sta::DelayMode::Classic),
            kLargeClassicChecksum);
}

TEST(LargeStaDeterminism, RepeatedParallelRunsMatch) {
  EXPECT_EQ(largeChecksum(false, 8, sta::DelayMode::Proximity),
            largeChecksum(false, 8, sta::DelayMode::Proximity));
}

TEST(LargeStaDeterminism, BlifRoundTripMatchesDirectBuild) {
  // Generate -> emit BLIF -> re-parse -> analyze must land on the same
  // digest as building the netlist directly: the text format carries the
  // complete circuit identity.
  EXPECT_EQ(largeChecksum(true, 2, sta::DelayMode::Proximity),
            kLargeProximityChecksum);
}

TEST(LargeStaDeterminism, ConcurrentAnalysesFillOneSchedule) {
  // Four analyzers race to fill the schedule of one freshly built netlist:
  // one of them levelizes it, and every one walks that schedule to the same
  // bits.
  const sta::SynthSpec spec = largeSpec();
  sta::Netlist nl;
  sta::buildNetlist(spec, largeLibrary(), &nl);
  const auto levelized = obs::counter("sta.graph.nodes_levelized").value();
  std::array<std::uint32_t, 4> sums{};
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < sums.size(); ++t) {
    workers.emplace_back([&, t] {
      sta::TimingAnalyzer ta(nl, sta::DelayMode::Proximity);
      for (const auto& [net, arr] : sta::synthInputArrivals(spec)) {
        ta.setInputArrival(net, arr);
      }
      ta.run();
      EXPECT_EQ(ta.degradedArcs(), 0u);
      sums[t] = arrivalChecksum(spec, ta);
    });
  }
  for (std::thread& w : workers) w.join();
  for (const std::uint32_t sum : sums) {
    EXPECT_EQ(sum, kLargeProximityChecksum);
  }
  if (obs::kStatsCompiledIn) {
    EXPECT_EQ(obs::counter("sta.graph.nodes_levelized").value() - levelized,
              nl.nodeCount());
  }
}

// --- batched dual-table lookups vs the scalar reference ---------------------
//
// Property: evaluateMany() must be bit-identical to the scalar map-walk
// reference (dual_table_reference.hpp) -- values, clamp distances and
// statuses -- for arbitrary query mixes (in-grid, clamped, window shortcuts,
// missing tables).

/// Deterministic 64-bit generator (splitmix64): no std random machinery, so
/// the query set is identical on every platform and run.
std::uint64_t nextRand(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e9b5ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double randUnit(std::uint64_t& state) {
  return static_cast<double>(nextRand(state) >> 11) * 0x1.0p-53;
}

model::DualTable syntheticDualTable(std::uint64_t seed, double lo, double hi) {
  model::DualTable t;
  t.u = {0.2, 0.6, 1.0, 1.8};
  t.v = {0.1, 0.9, 2.0};
  t.w = {-0.5, 0.0, 0.4, 1.0};
  t.ratio.resize(t.u.size() * t.v.size() * t.w.size());
  for (double& r : t.ratio) r = lo + (hi - lo) * randUnit(seed);
  return t;
}

struct BatchedFixture {
  model::SingleInputModelSet singles;
  std::unique_ptr<model::TabulatedDualInputModel> model;

  BatchedFixture() {
    // Pins 0..2 get single-input models on both edges; pin 3 has none at
    // all, so queries referencing it exercise the missing-single lane.
    for (int pin = 0; pin <= 2; ++pin) {
      for (const Edge e : {Edge::Rising, Edge::Falling}) {
        std::vector<model::SingleInputModel::Sample> table;
        for (double tau : {50e-12, 150e-12, 300e-12, 600e-12}) {
          const double skew = pin * 7e-12 + (e == Edge::Rising ? 0.0 : 3e-12);
          table.push_back({tau, 0.6 * tau + 80e-12 + skew,
                           0.9 * tau + 40e-12 + skew});
        }
        singles.set(model::SingleInputModel(pin, e, std::move(table), 20e-15,
                                            1e-4, 3.3));
      }
    }
    model = std::make_unique<model::TabulatedDualInputModel>(singles);
    // Reference pins 0 and 1 get per-reference tables on both edges; pin 2
    // has singles but no dual tables (missing-dual lane).  One pair table
    // checks the pair-before-reference precedence.
    std::uint64_t seed = 0x5eed;
    for (int pin = 0; pin <= 1; ++pin) {
      for (const Edge e : {Edge::Rising, Edge::Falling}) {
        model->setDelayTable(pin, e,
                             syntheticDualTable(nextRand(seed), 0.6, 1.4));
        model->setTransitionTable(pin, e,
                                  syntheticDualTable(nextRand(seed), 0.7, 1.3));
      }
    }
    model->setPairDelayTable(0, 1, Edge::Rising,
                             syntheticDualTable(nextRand(seed), 0.4, 0.9));
    model->setPairTransitionTable(0, 1, Edge::Rising,
                                  syntheticDualTable(nextRand(seed), 1.1, 1.6));
  }

  std::vector<model::DualQuery> randomQueries(std::size_t n) const {
    std::vector<model::DualQuery> qs(n);
    std::uint64_t seed = 0xfeedface;
    for (model::DualQuery& q : qs) {
      q.refPin = static_cast<int>(nextRand(seed) % 4);  // 3 = missing single
      q.otherPin = (q.refPin + 1 + static_cast<int>(nextRand(seed) % 3)) % 4;
      q.edge = (nextRand(seed) & 1) != 0 ? Edge::Rising : Edge::Falling;
      q.kind = (nextRand(seed) & 1) != 0 ? model::DualKind::Delay
                                         : model::DualKind::Transition;
      // tauRef spans well past the grids on both sides (clamped lanes);
      // sep spans negative through beyond-window (shortcut lanes).
      q.tauRef = 1e-12 + 2e-9 * randUnit(seed);
      q.tauOther = 1e-12 + 2e-9 * randUnit(seed);
      q.sep = -1e-9 + 2.5e-9 * randUnit(seed);
    }
    return qs;
  }
};

void expectBatchMatchesScalar(const BatchedFixture& fx,
                              const std::vector<model::DualQuery>& qs) {
  std::vector<model::DualResult> batch(qs.size());
  fx.model->evaluateMany(qs, batch);
  std::size_t missing = 0;
  for (std::size_t i = 0; i < qs.size(); ++i) {
    const model::DualResult scalar =
        testref::lookup(*fx.model, fx.singles, qs[i]);
    ASSERT_EQ(batch[i].status, scalar.status) << "lane " << i;
    if (scalar.status != model::DualResult::Status::Ok) {
      ++missing;
      continue;
    }
    // Exact `==` on doubles, deliberately: the batched path promises the
    // same bits, not "close".
    EXPECT_EQ(batch[i].value, scalar.value) << "lane " << i;
    EXPECT_EQ(batch[i].clampDistance, scalar.clampDistance) << "lane " << i;
  }
  // The query mix must actually exercise the missing-table lane.
  EXPECT_GT(missing, 0u);
}

TEST(BatchedDualDeterminism, EvaluateManyMatchesScalarBitForBit) {
  const BatchedFixture fx;
  expectBatchMatchesScalar(fx, fx.randomQueries(512));
}

TEST(BatchedDualDeterminism, EvaluateManyHandlesEdgeLanes) {
  // Clamp-edge and degenerate lanes, pinned explicitly: exact grid nodes,
  // exact grid edges, far outside the grid, zero/negative separation, and
  // the window shortcut.
  const BatchedFixture fx;
  std::vector<model::DualQuery> qs;
  const model::DualTable& t = fx.model->delayTable(0, Edge::Rising);
  const auto& m = fx.singles.at(0, Edge::Rising);
  for (double uNorm : {t.u.front(), t.u.back(), 3.0, 1e-3}) {
    for (double wNorm : {t.w.front(), t.w.back(), -2.0, 5.0}) {
      model::DualQuery q;
      q.refPin = 0;
      q.otherPin = 1;
      q.edge = Edge::Rising;
      q.kind = model::DualKind::Delay;
      // Invert the normalization so the scaled coordinates land exactly on
      // the chosen grid values: u = tauRef / d1(tauRef) is solved by probing.
      q.tauRef = 200e-12;
      const double d1 = m.delay(q.tauRef);
      q.tauRef = uNorm * d1;  // approximate landing; still deterministic
      q.tauOther = 150e-12;
      q.sep = wNorm * m.delay(q.tauRef);
      qs.push_back(q);
    }
  }
  std::vector<model::DualResult> batch(qs.size());
  fx.model->evaluateMany(qs, batch);
  for (std::size_t i = 0; i < qs.size(); ++i) {
    const model::DualResult scalar =
        testref::lookup(*fx.model, fx.singles, qs[i]);
    EXPECT_EQ(batch[i].status, model::DualResult::Status::Ok) << "lane " << i;
    EXPECT_EQ(batch[i].status, scalar.status) << "lane " << i;
    EXPECT_EQ(batch[i].value, scalar.value) << "lane " << i;
    EXPECT_EQ(batch[i].clampDistance, scalar.clampDistance) << "lane " << i;
  }
}

}  // namespace
