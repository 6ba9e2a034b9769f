// Tests for dominance ordering and Algorithm ProximityDelay (Figure 4-1).

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <vector>

#include "test_util.hpp"

namespace {

using namespace prox;
using model::InputEvent;
using wave::Edge;

TEST(Dominance, FallingInputsEarliestCrossingWins) {
  const auto& cg = testutil::nand2Model();
  // Falling NAND inputs engage the parallel PMOS bank: earliest wins.
  ASSERT_EQ(model::dominanceSense(cells::GateType::Nand, Edge::Falling),
            model::DominanceSense::EarliestFirst);
  std::vector<InputEvent> evs{{0, Edge::Falling, 100e-12, 200e-12},
                              {1, Edge::Falling, 0.0, 200e-12}};
  const auto order = model::dominanceOrder(
      evs, *cg.singles, model::DominanceSense::EarliestFirst);
  EXPECT_EQ(order[0], 1u);
}

TEST(Dominance, RisingInputsLatestCrossingWins) {
  const auto& cg = testutil::nand2Model();
  // Rising NAND inputs complete the series stack: the output waits for the
  // last input, so the latest predicted crossing dominates.
  ASSERT_EQ(model::dominanceSense(cells::GateType::Nand, Edge::Rising),
            model::DominanceSense::LatestFirst);
  std::vector<InputEvent> evs{{0, Edge::Rising, 100e-12, 200e-12},
                              {1, Edge::Rising, 0.0, 200e-12}};
  const auto order = model::dominanceOrder(evs, *cg.singles,
                                           model::DominanceSense::LatestFirst);
  EXPECT_EQ(order[0], 0u);
}

TEST(Dominance, NorSensesMirrorNand) {
  EXPECT_EQ(model::dominanceSense(cells::GateType::Nor, Edge::Rising),
            model::DominanceSense::EarliestFirst);
  EXPECT_EQ(model::dominanceSense(cells::GateType::Nor, Edge::Falling),
            model::DominanceSense::LatestFirst);
}

TEST(Dominance, FasterLateInputCanDominate) {
  // Figure 3-2: a slow input arriving first loses to a fast one arriving a
  // little later, because the fast one's standalone output crossing is
  // earlier.
  const auto& cg = testutil::nand2Model();
  const double dSlow = cg.singles->at(0, Edge::Falling).delay(2000e-12);
  const double dFast = cg.singles->at(1, Edge::Falling).delay(50e-12);
  ASSERT_GT(dSlow, dFast);
  const double sep = 0.5 * (dSlow - dFast);  // less than the crossover
  std::vector<InputEvent> evs{{0, Edge::Falling, 0.0, 2000e-12},
                              {1, Edge::Falling, sep, 50e-12}};
  const auto order = model::dominanceOrder(evs, *cg.singles);
  EXPECT_EQ(order[0], 1u) << "fast input must dominate inside the crossover";
}

TEST(Dominance, CrossoverMatchesDelayDifference) {
  const auto& cg = testutil::nand2Model();
  InputEvent a{0, Edge::Falling, 0.0, 2000e-12};
  InputEvent b{1, Edge::Falling, 0.0, 50e-12};
  const double sc = model::dominanceCrossover(a, b, *cg.singles);
  EXPECT_NEAR(sc,
              cg.singles->at(0, Edge::Falling).delay(2000e-12) -
                  cg.singles->at(1, Edge::Falling).delay(50e-12),
              1e-18);
  // Just beyond the crossover, a dominates again.
  b.tRef = sc * 1.01;
  const auto order =
      model::dominanceOrder({a, b}, *cg.singles);
  EXPECT_EQ(order[0], 0u);
}

TEST(Dominance, BufferedOrderTakesEachDelayOnceAndKeepsTies) {
  const auto& cg = testutil::nand3Model();
  // Events 0 and 3 are identical (a tie in either sense); event 1 crosses
  // first and event 2 last.
  const std::vector<InputEvent> evs{{0, Edge::Falling, 0.0, 300e-12},
                                    {1, Edge::Falling, -200e-12, 300e-12},
                                    {2, Edge::Falling, 400e-12, 300e-12},
                                    {0, Edge::Falling, 0.0, 300e-12}};
  // Stale, longer buffers, as a fold reusing them across arcs holds.
  std::vector<std::size_t> order(7, 99);
  std::vector<double> delay1(7, -1.0), crossing(7, -1.0);
  for (const auto sense : {model::DominanceSense::EarliestFirst,
                           model::DominanceSense::LatestFirst}) {
    model::dominanceOrder(evs, *cg.singles, sense, order, delay1, crossing);
    ASSERT_EQ(delay1.size(), evs.size());
    ASSERT_EQ(crossing.size(), evs.size());
    for (std::size_t i = 0; i < evs.size(); ++i) {
      EXPECT_EQ(delay1[i],
                cg.singles->at(evs[i].pin, evs[i].edge).delay(evs[i].tau));
      EXPECT_EQ(crossing[i], model::predictedCrossing(evs[i], *cg.singles));
    }
    const std::vector<std::size_t> expected =
        sense == model::DominanceSense::EarliestFirst
            ? std::vector<std::size_t>{1, 0, 3, 2}
            : std::vector<std::size_t>{2, 0, 3, 1};
    EXPECT_EQ(order, expected);
    EXPECT_EQ(model::dominanceOrder(evs, *cg.singles, sense), expected);
  }
}

TEST(Proximity, SingleEventReducesToSingleInputModel) {
  const auto& cg = testutil::nand2Model();
  const auto calc = cg.calculator();
  const InputEvent ev{0, Edge::Rising, 1e-9, 300e-12};
  const auto r = calc.compute({ev});
  EXPECT_DOUBLE_EQ(r.delay, cg.singles->at(0, Edge::Rising).delay(300e-12));
  EXPECT_DOUBLE_EQ(r.outputRefTime, ev.tRef + r.delay);
  EXPECT_EQ(r.dominantPin, 0);
  EXPECT_EQ(r.processedPins.size(), 1u);
}

TEST(Proximity, FarSeparationLeavesDelayUntouched) {
  // Falling pair (earliest-first sense): once the second input trails past
  // the transition window, the delay is exactly the single-input value.
  const auto& cg = testutil::nand2Model();
  const auto calc = cg.calculator();
  const double d1 = cg.singles->at(0, Edge::Falling).delay(300e-12);
  const double t1 = cg.singles->at(0, Edge::Falling).transition(300e-12);
  std::vector<InputEvent> evs{{0, Edge::Falling, 0.0, 300e-12},
                              {1, Edge::Falling, d1 + t1 + 1e-9, 300e-12}};
  const auto r = calc.compute(evs);
  EXPECT_DOUBLE_EQ(r.delay, d1);
  EXPECT_EQ(r.processedPins.size(), 1u);
  EXPECT_TRUE(r.transitionOnlyPins.empty());
}

TEST(Proximity, RisingFarSeparationTracksLateInput) {
  // Rising pair (latest-first sense): a NAND output cannot fall until the
  // last input rises, so for well-separated rising inputs the output
  // crossing tracks the LATE input -- the case the direction-aware
  // dominance exists for.  Verified against a full simulation.
  const auto& cg = testutil::nand2Model();
  model::GateSimulator sim(cg.gate);
  const auto calc = cg.calculator();
  const double sep = 1.5e-9;
  std::vector<InputEvent> evs{{0, Edge::Rising, 0.0, 300e-12},
                              {1, Edge::Rising, sep, 300e-12}};
  const auto r = calc.compute(evs);
  EXPECT_EQ(r.dominantPin, 1);
  const auto full = sim.simulate(evs, 0);
  ASSERT_TRUE(full.outputRefTime.has_value());
  EXPECT_NEAR(r.outputRefTime, *full.outputRefTime,
              0.15 * (*full.outputRefTime));
}

TEST(Proximity, TransitionOnlyWindowBetweenDelayAndTransitionEdges) {
  const auto& cg = testutil::nand2Model();
  const auto calc = cg.calculator();
  const double d1 = cg.singles->at(0, Edge::Falling).delay(300e-12);
  const double t1 = cg.singles->at(0, Edge::Falling).transition(300e-12);
  std::vector<InputEvent> evs{{0, Edge::Falling, 0.0, 300e-12},
                              {1, Edge::Falling, d1 + 0.3 * t1, 300e-12}};
  const auto r = calc.compute(evs);
  EXPECT_DOUBLE_EQ(r.delay, d1);  // outside the delay window
  ASSERT_EQ(r.transitionOnlyPins.size(), 1u);
  EXPECT_EQ(r.transitionOnlyPins[0], 1);
}

TEST(Proximity, CloseFallingPairIsFasterThanSingle) {
  // Figure 1-2(a) through the algorithm: proximity reduces delay.
  const auto& cg = testutil::nand2Model();
  const auto calc = cg.calculator();
  std::vector<InputEvent> evs{{0, Edge::Falling, 0.0, 500e-12},
                              {1, Edge::Falling, 0.0, 100e-12}};
  const auto r = calc.compute(evs);
  const double dDominantAlone =
      cg.singles->at(r.dominantPin, Edge::Falling)
          .delay(r.dominantPin == 0 ? 500e-12 : 100e-12);
  EXPECT_LT(r.delay, dDominantAlone);
  EXPECT_EQ(r.processedPins.size(), 2u);
}

TEST(Proximity, CloseRisingPairIsSlowerThanSingle) {
  const auto& cg = testutil::nand2Model();
  model::ProximityOptions opts;
  opts.applyCorrection = false;  // isolate the dual-model contribution
  const auto calc = cg.calculator(opts);
  std::vector<InputEvent> evs{{0, Edge::Rising, 0.0, 500e-12},
                              {1, Edge::Rising, 0.0, 500e-12}};
  const auto r = calc.compute(evs);
  const double dAlone =
      cg.singles->at(r.dominantPin, Edge::Rising).delay(500e-12);
  EXPECT_GT(r.delay, dAlone);
}

TEST(Proximity, DelayAlwaysPositiveEvenForExtremeSlopes) {
  // The Section 2 guarantee carried through the algorithm.
  const auto& cg = testutil::nand3Model();
  const auto calc = cg.calculator();
  for (double tau : {50e-12, 2200e-12, 5000e-12}) {
    for (double sep : {-1e-9, -100e-12, 0.0, 100e-12, 1e-9}) {
      std::vector<InputEvent> evs{{0, Edge::Rising, 0.0, tau},
                                  {1, Edge::Rising, sep, 300e-12},
                                  {2, Edge::Rising, -sep, tau}};
      const auto r = calc.compute(evs);
      EXPECT_GT(r.delay, 0.0) << "tau=" << tau << " sep=" << sep;
      EXPECT_GT(r.transitionTime, 0.0);
    }
  }
}

TEST(Proximity, MixedDirectionsThrow) {
  const auto& cg = testutil::nand2Model();
  const auto calc = cg.calculator();
  std::vector<InputEvent> evs{{0, Edge::Rising, 0.0, 300e-12},
                              {1, Edge::Falling, 0.0, 300e-12}};
  EXPECT_THROW(calc.compute(evs), std::invalid_argument);
}

TEST(Proximity, EmptyEventsThrow) {
  const auto& cg = testutil::nand2Model();
  const auto calc = cg.calculator();
  EXPECT_THROW(calc.compute({}), std::invalid_argument);
  EXPECT_THROW(calc.computeClassic({}), std::invalid_argument);
}

TEST(Proximity, CorrectionAppliedOnlyWhenMultipleProcessed) {
  const auto& cg = testutil::nand3Model();
  const auto calc = cg.calculator();
  // Single event: no correction possible.
  const auto r1 = calc.compute({{0, Edge::Rising, 0.0, 200e-12}});
  EXPECT_EQ(r1.correctionApplied, 0.0);
  // Simultaneous events: correction active (full weight).
  std::vector<InputEvent> evs{{0, Edge::Rising, 0.0, 200e-12},
                              {1, Edge::Rising, 0.0, 200e-12},
                              {2, Edge::Rising, 0.0, 200e-12}};
  const auto r3 = calc.compute(evs);
  if (!cg.correction.empty()) {
    EXPECT_NE(r3.correctionApplied, 0.0);
  }
}

TEST(Proximity, CorrectionFadesWithSeparation) {
  const auto& cg = testutil::nand3Model();
  const auto calc = cg.calculator();
  auto runWithSep = [&](double s) {
    std::vector<InputEvent> evs{{0, Edge::Rising, 0.0, 200e-12},
                                {1, Edge::Rising, s, 200e-12}};
    return calc.compute(evs).correctionApplied;
  };
  const double c0 = std::fabs(runWithSep(0.0));
  const double cMid = std::fabs(runWithSep(100e-12));
  EXPECT_GE(c0 + 1e-18, cMid);  // weight decays with positive separation
}

TEST(Proximity, ClassicIgnoresProximity) {
  const auto& cg = testutil::nand2Model();
  const auto calc = cg.calculator();
  std::vector<InputEvent> evs{{0, Edge::Falling, 0.0, 500e-12},
                              {1, Edge::Falling, 10e-12, 100e-12}};
  const auto classic = calc.computeClassic(evs);
  const auto prox = calc.compute(evs);
  EXPECT_DOUBLE_EQ(
      classic.delay,
      cg.singles->at(classic.dominantPin, Edge::Falling)
          .delay(classic.dominantPin == 0 ? 500e-12 : 100e-12));
  EXPECT_NE(classic.delay, prox.delay);
}

TEST(Proximity, AgainstFullSimulationSanity) {
  // One end-to-end accuracy spot-check (detailed statistics live in the
  // integration test and the Table 5-1 bench).
  const auto& cg = testutil::nand2Model();
  model::GateSimulator sim(cg.gate);
  const auto calc = cg.calculator();
  std::vector<InputEvent> evs{{0, Edge::Rising, 0.0, 400e-12},
                              {1, Edge::Rising, 100e-12, 700e-12}};
  const auto full = sim.simulate(evs, 0);
  ASSERT_TRUE(full.outputRefTime.has_value());
  const auto r = calc.compute(evs);
  EXPECT_NEAR(r.outputRefTime, *full.outputRefTime,
              0.15 * *full.delay);  // coarse-grid package
}

TEST(Proximity, AdditiveCompositionOptionChangesTransitionOnly) {
  // The ablation knob: additive vs multiplicative transition composition
  // must differ on multi-input folds but leave the delay untouched.
  const auto& cg = testutil::nand3Model();
  model::ProximityOptions add;
  add.transitionComposition = model::TransitionComposition::Additive;
  const auto calcAdd = cg.calculator(add);
  const auto calcMul = cg.calculator();
  std::vector<InputEvent> evs{{0, Edge::Falling, 0.0, 500e-12},
                              {1, Edge::Falling, 20e-12, 100e-12},
                              {2, Edge::Falling, -30e-12, 300e-12}};
  const auto ra = calcAdd.compute(evs);
  const auto rm = calcMul.compute(evs);
  EXPECT_DOUBLE_EQ(ra.delay, rm.delay);
  EXPECT_NE(ra.transitionTime, rm.transitionTime);
}

TEST(StepCorrection, LookupSaturatesAtTableEnd) {
  model::StepCorrection c;
  c.delayErrorRising = {1e-12, 2e-12};
  EXPECT_DOUBLE_EQ(c.delayFor(2, Edge::Rising), 1e-12);
  EXPECT_DOUBLE_EQ(c.delayFor(3, Edge::Rising), 2e-12);
  EXPECT_DOUBLE_EQ(c.delayFor(9, Edge::Rising), 2e-12);  // clamped
  EXPECT_DOUBLE_EQ(c.delayFor(1, Edge::Rising), 0.0);
  EXPECT_DOUBLE_EQ(c.delayFor(3, Edge::Falling), 0.0);  // no falling table
}

}  // namespace
