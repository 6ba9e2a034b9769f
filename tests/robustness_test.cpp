// Cross-module robustness tests: solver options, analysis edge cases,
// measurement corner cases, and API misuse that must fail loudly.

#include <gtest/gtest.h>

#include <cmath>

#include "cells/fixture.hpp"
#include "dense_lu.hpp"
#include "model/glitch.hpp"
#include "spice/dcsweep.hpp"
#include "spice/netlist.hpp"
#include "spice/op.hpp"
#include "spice/tran.hpp"
#include "test_util.hpp"
#include "waveform/measure.hpp"

namespace {

using namespace prox;
using namespace prox::spice;
using wave::Edge;

TEST(Newton, IterationBudgetRespected) {
  // A CMOS inverter at mid-rail from a cold start with a tiny budget: the
  // solver must report non-convergence rather than loop.
  Circuit ckt;
  const auto nets = cells::buildCell(ckt, testutil::invSpec(), "x0");
  ckt.add<VoltageSource>("vin", nets.inputs[0], kGround, 2.5);
  ckt.finalize();
  linalg::Vector x(static_cast<std::size_t>(ckt.unknownCount()), 0.0);
  NewtonOptions opt;
  opt.maxIterations = 1;
  const auto st = solveNewton(ckt, x, StampContext{}, opt);
  EXPECT_FALSE(st.converged);
  EXPECT_EQ(st.iterations, 1);
}

TEST(Newton, DampingLimitsPerIterationMove) {
  // With a 0.1 V damping limit, the first iteration from zero cannot move
  // any node by more than 0.1 V.
  Circuit ckt;
  const NodeId a = ckt.node("a");
  ckt.add<VoltageSource>("v", a, kGround, 5.0);
  ckt.add<Resistor>("r", a, kGround, 1e3);
  ckt.finalize();
  linalg::Vector x(static_cast<std::size_t>(ckt.unknownCount()), 0.0);
  NewtonOptions opt;
  opt.maxIterations = 1;
  opt.maxVoltageStep = 0.1;
  solveNewton(ckt, x, StampContext{}, opt);
  EXPECT_LE(std::fabs(x[0]), 0.1 + 1e-12);
}

TEST(Op, TimeParameterSelectsPwlValue) {
  // The same circuit solved at two different times sees different source
  // values (used by the transient's t=0 initial condition).
  Circuit ckt;
  const NodeId a = ckt.node("a");
  wave::Waveform w;
  w.append(0.0, 1.0);
  w.append(1e-9, 3.0);
  ckt.add<VoltageSource>("v", a, kGround, w);
  ckt.add<Resistor>("r", a, kGround, 1e3);
  OpOptions opt;
  opt.time = 0.0;
  const auto x0 = operatingPoint(ckt, opt);
  opt.time = 1e-9;
  const auto x1 = operatingPoint(ckt, opt);
  ASSERT_TRUE(x0 && x1);
  EXPECT_NEAR(ckt.nodeVoltage(*x0, a), 1.0, 1e-6);
  EXPECT_NEAR(ckt.nodeVoltage(*x1, a), 3.0, 1e-6);
}

TEST(VoltageSource, RetargetBetweenDcAndPwl) {
  Circuit ckt;
  const NodeId a = ckt.node("a");
  auto& v = ckt.add<VoltageSource>("v", a, kGround, 2.0);
  EXPECT_DOUBLE_EQ(v.valueAt(5.0), 2.0);
  wave::Waveform w;
  w.append(0.0, 0.0);
  w.append(1.0, 4.0);
  v.setWaveform(w);
  EXPECT_DOUBLE_EQ(v.valueAt(0.5), 2.0);
  v.setDc(1.0);
  EXPECT_DOUBLE_EQ(v.valueAt(0.5), 1.0);
  EXPECT_THROW(v.setWaveform(wave::Waveform{}), std::invalid_argument);
}

TEST(DcSweep, StepLargerThanRangeYieldsSinglePoint) {
  Circuit ckt;
  const auto nets = cells::buildCell(ckt, testutil::invSpec(), "x0");
  auto& vin = ckt.add<VoltageSource>("vin", nets.inputs[0], kGround, 0.0);
  const auto sweep = dcSweep(ckt, vin, 0.0, 1.0, 5.0);
  EXPECT_EQ(sweep.sweepValues.size(), 1u);
  EXPECT_DOUBLE_EQ(sweep.sweepValues[0], 0.0);
}

TEST(Tran, ResultNodeLookupByNameAndErrors) {
  Circuit ckt;
  const NodeId a = ckt.node("a");
  ckt.add<VoltageSource>("v", a, kGround, 1.0);
  ckt.add<Resistor>("r", a, kGround, 1e3);
  TranOptions opt;
  opt.tstop = 1e-10;
  const auto res = transient(ckt, opt);
  EXPECT_NEAR(res.node("a").value(1e-10), 1.0, 1e-6);
  EXPECT_THROW(res.node("nonexistent"), std::invalid_argument);
}

TEST(GateSim, ReferenceIndexSelectsMeasurementAnchor) {
  // Same stimulus, two reference choices: delays differ by the separation.
  model::GateSimulator sim(testutil::nand2Gate());
  const double sep = 80e-12;
  std::vector<model::InputEvent> evs{{0, Edge::Falling, 0.0, 300e-12},
                                     {1, Edge::Falling, sep, 300e-12}};
  const auto r0 = sim.simulate(evs, 0);
  const auto r1 = sim.simulate(evs, 1);
  ASSERT_TRUE(r0.delay && r1.delay);
  EXPECT_NEAR(*r0.delay - *r1.delay, sep, 2e-12);
  EXPECT_THROW(sim.simulate(evs, 5), std::invalid_argument);
  EXPECT_THROW(sim.simulate({}, 0), std::invalid_argument);
}

TEST(GateSim, NegativeEventTimesHandledBySelfShifting) {
  // Events far in negative time: the simulator shifts internally and maps
  // results back, so the answer matches the same events at positive times.
  model::GateSimulator sim(testutil::nand2Gate());
  const auto early = sim.simulate({{0, Edge::Rising, -5e-9, 200e-12}}, 0);
  const auto late = sim.simulate({{0, Edge::Rising, 2e-9, 200e-12}}, 0);
  ASSERT_TRUE(early.delay && late.delay);
  EXPECT_NEAR(*early.delay, *late.delay, 2e-12);
}

TEST(Measure, ZeroSwingOutputYieldsNoTransition) {
  const wave::Thresholds th{1.0, 4.0};
  const auto flat = wave::constant(2.0);
  EXPECT_FALSE(wave::transitionTime(flat, Edge::Rising, th).has_value());
  EXPECT_FALSE(wave::outputRefTime(flat, Edge::Falling, th).has_value());
}

TEST(Fixture, NorDefaultsToGroundedInputs) {
  cells::CellFixture fix(testutil::norSpec(2));
  // Non-controlling for a NOR is 0: output rests high.
  const auto out = fix.runOutput(1e-9);
  EXPECT_GT(out.minValue(), 4.9);
}

TEST(Characterize, SingleTauGridStillWorks) {
  // A degenerate 1-point tau grid: interpolation collapses to a constant.
  model::GateSimulator sim(testutil::nand2Gate());
  const auto m = model::SingleInputModel::characterize(sim, 0, Edge::Rising,
                                                       {300e-12});
  EXPECT_DOUBLE_EQ(m.delay(100e-12), m.delay(900e-12));
  EXPECT_GT(m.delay(300e-12), 0.0);
}

TEST(Characterize, EmptyTauGridThrows) {
  model::GateSimulator sim(testutil::nand2Gate());
  EXPECT_THROW(model::SingleInputModel::characterize(sim, 0, Edge::Rising, {}),
               std::invalid_argument);
}

TEST(Circuit, BreakpointsSortedAndDeduplicated) {
  Circuit ckt;
  const NodeId a = ckt.node("a");
  const NodeId b = ckt.node("b");
  wave::Waveform w1;
  w1.append(0.0, 0.0);
  w1.append(2e-9, 1.0);
  wave::Waveform w2;
  w2.append(0.0, 0.0);
  w2.append(1e-9, 1.0);
  w2.append(2e-9, 1.0);  // duplicate breakpoint with w1
  ckt.add<VoltageSource>("v1", a, kGround, w1);
  ckt.add<VoltageSource>("v2", b, kGround, w2);
  const auto bps = ckt.breakpoints();
  ASSERT_EQ(bps.size(), 3u);  // 0, 1n, 2n -- deduplicated
  EXPECT_TRUE(std::is_sorted(bps.begin(), bps.end()));
}

TEST(Resistor, SetResistanceRevalidates) {
  Circuit ckt;
  auto& r = ckt.add<Resistor>("r", ckt.node("a"), kGround, 1e3);
  r.setResistance(2e3);
  EXPECT_DOUBLE_EQ(r.resistance(), 2e3);
  EXPECT_THROW(r.setResistance(0.0), std::invalid_argument);
}

TEST(Matrix, ResizeZeroesContent) {
  testref::Matrix m(2, 2);
  m(0, 0) = 7.0;
  m.resize(3, 4);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  EXPECT_EQ(m(0, 0), 0.0);
}

TEST(GlitchModel, WorksOnSubmicronTechnology) {
  // Section 6 machinery on the alpha-power process.
  cells::CellSpec spec = testutil::nandSpec(2);
  spec.tech = cells::Technology::submicron3v();
  spec.wn = 3e-6;
  spec.wp = 4e-6;
  spec.loadCap = 60e-15;
  model::Gate g = model::makeGate(spec, 0.02);
  model::GateSimulator sim(g);
  std::vector<double> seps;
  for (double s = -500e-12; s <= 700.1e-12; s += 100e-12) seps.push_back(s);
  const auto gm = model::GlitchModel::characterize(sim, 0, 400e-12, 1,
                                                   100e-12, seps);
  const auto sMin = gm.minimumValidSeparation(g.thresholds.vil);
  ASSERT_TRUE(sMin.has_value());
  EXPECT_GT(gm.extremeVoltage(*sMin - 200e-12), g.thresholds.vil);
  EXPECT_LT(gm.extremeVoltage(*sMin + 200e-12), g.thresholds.vil);
}

TEST(Sta, ClassicSemanticsMatchMinMaxPropagation) {
  // Classic mode = standard STA: min(t + Delta) for parallel-conduction
  // directions, max(t + Delta) for series-completion directions.
  const auto& cell = testutil::nand2Model();
  const auto calc = cell.calculator();

  std::vector<model::InputEvent> falling{{0, Edge::Falling, 0.0, 300e-12},
                                         {1, Edge::Falling, 50e-12, 300e-12}};
  const auto rf = calc.computeClassic(falling);
  const double c0 = model::predictedCrossing(falling[0], *cell.singles);
  const double c1 = model::predictedCrossing(falling[1], *cell.singles);
  EXPECT_NEAR(rf.outputRefTime, std::min(c0, c1), 1e-15);

  std::vector<model::InputEvent> rising{{0, Edge::Rising, 0.0, 300e-12},
                                        {1, Edge::Rising, 50e-12, 300e-12}};
  const auto rr = calc.computeClassic(rising);
  const double d0 = model::predictedCrossing(rising[0], *cell.singles);
  const double d1 = model::predictedCrossing(rising[1], *cell.singles);
  EXPECT_NEAR(rr.outputRefTime, std::max(d0, d1), 1e-15);
}

}  // namespace
