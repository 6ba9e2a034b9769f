// STA-layer tests: netlist structure, topological ordering, delay-calc
// semantics, and classic-vs-proximity propagation.

#include <gtest/gtest.h>

#include "sta/timing_graph.hpp"
#include "test_util.hpp"

namespace {

using namespace prox;
using sta::Arrival;
using sta::DelayMode;
using wave::Edge;

TEST(Netlist, RejectsDuplicateInstanceNames) {
  const auto& cell = testutil::nand2Model();
  sta::Netlist nl;
  nl.addPrimaryInput("a");
  nl.addPrimaryInput("b");
  nl.addInstance("u1", cell, {"a", "b"}, "y");
  EXPECT_THROW(nl.addInstance("u1", cell, {"a", "b"}, "z"),
               std::invalid_argument);
}

TEST(Netlist, RejectsMultipleDrivers) {
  const auto& cell = testutil::nand2Model();
  sta::Netlist nl;
  nl.addPrimaryInput("a");
  nl.addPrimaryInput("b");
  nl.addInstance("u1", cell, {"a", "b"}, "y");
  EXPECT_THROW(nl.addInstance("u2", cell, {"a", "b"}, "y"),
               std::invalid_argument);
  EXPECT_THROW(nl.addPrimaryInput("y"), std::invalid_argument);
}

TEST(Netlist, RejectsPinCountMismatch) {
  const auto& cell = testutil::nand2Model();
  sta::Netlist nl;
  nl.addPrimaryInput("a");
  EXPECT_THROW(nl.addInstance("u1", cell, {"a"}, "y"), std::invalid_argument);
}

TEST(Netlist, TopologicalOrderRespectsDependencies) {
  const auto& cell = testutil::nand2Model();
  sta::Netlist nl;
  nl.addPrimaryInput("a");
  nl.addPrimaryInput("b");
  // Add the consumer first to make the sort do real work.
  nl.addInstance("u2", cell, {"y1", "b"}, "y2");
  nl.addInstance("u1", cell, {"a", "b"}, "y1");
  const auto order = nl.levelize(sta::StructuralPolicy::Reject).order;
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(nl.nodeName(order[0]), "u1");
  EXPECT_EQ(nl.nodeName(order[1]), "u2");
}

TEST(Netlist, DetectsUndrivenInput) {
  const auto& cell = testutil::nand2Model();
  sta::Netlist nl;
  nl.addPrimaryInput("a");
  nl.addInstance("u1", cell, {"a", "floating"}, "y");
  EXPECT_THROW(nl.levelize(sta::StructuralPolicy::Reject),
               std::runtime_error);
}

TEST(Netlist, DetectsCycle) {
  const auto& cell = testutil::nand2Model();
  sta::Netlist nl;
  nl.addPrimaryInput("a");
  nl.addInstance("u1", cell, {"a", "y2"}, "y1");
  nl.addInstance("u2", cell, {"a", "y1"}, "y2");
  EXPECT_THROW(nl.levelize(sta::StructuralPolicy::Reject),
               std::runtime_error);
}

TEST(DelayCalc, NoSwitchingPinsYieldsNoOutput) {
  const auto& cell = testutil::nand2Model();
  const auto out =
      sta::evaluateGate(cell, {std::nullopt, std::nullopt}, DelayMode::Classic);
  EXPECT_FALSE(out.has_value());
}

TEST(DelayCalc, SingleSwitchingPinPropagates) {
  const auto& cell = testutil::nand2Model();
  Arrival a{1e-9, 300e-12, Edge::Rising};
  const auto out =
      sta::evaluateGate(cell, {a, std::nullopt}, DelayMode::Classic);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->edge, Edge::Falling);  // NAND inverts
  EXPECT_NEAR(out->time,
              1e-9 + cell.singles->at(0, Edge::Rising).delay(300e-12), 1e-15);
  EXPECT_GT(out->slope, 0.0);
}

TEST(DelayCalc, MixedDirectionsThrow) {
  const auto& cell = testutil::nand2Model();
  Arrival r{0.0, 300e-12, Edge::Rising};
  Arrival f{0.0, 300e-12, Edge::Falling};
  EXPECT_THROW(sta::evaluateGate(cell, {r, f}, DelayMode::Classic),
               std::invalid_argument);
}

TEST(DelayCalc, ProximityDiffersFromClassicWhenClose) {
  const auto& cell = testutil::nand2Model();
  Arrival a{0.0, 500e-12, Edge::Falling};
  Arrival b{20e-12, 100e-12, Edge::Falling};
  const auto classic = sta::evaluateGate(cell, {a, b}, DelayMode::Classic);
  const auto prox = sta::evaluateGate(cell, {a, b}, DelayMode::Proximity);
  ASSERT_TRUE(classic && prox);
  EXPECT_NE(classic->time, prox->time);
  // Falling pair: parallel pullup reinforcement makes proximity earlier.
  EXPECT_LT(prox->time, classic->time);
}

TEST(Analyzer, PropagatesThroughTwoLevels) {
  const auto& cell = testutil::nand2Model();
  sta::Netlist nl;
  nl.addPrimaryInput("a");
  nl.addPrimaryInput("b");
  nl.addPrimaryInput("c");
  nl.addInstance("u1", cell, {"a", "b"}, "y1");   // falls
  nl.addInstance("u2", cell, {"y1", "c"}, "y2");  // c stable: y2 rises

  sta::TimingAnalyzer ta(nl, DelayMode::Proximity);
  ta.setInputArrival("a", {0.0, 300e-12, Edge::Rising});
  ta.setInputArrival("b", {50e-12, 300e-12, Edge::Rising});
  ta.run();

  const auto y1 = ta.arrival("y1");
  ASSERT_TRUE(y1.has_value());
  EXPECT_EQ(y1->edge, Edge::Falling);
  const auto y2 = ta.arrival("y2");
  ASSERT_TRUE(y2.has_value());
  EXPECT_EQ(y2->edge, Edge::Rising);
  EXPECT_GT(y2->time, y1->time);
  // c never switches.
  EXPECT_FALSE(ta.arrival("c").has_value());
}

TEST(Analyzer, RejectsArrivalOnNonPrimaryInput) {
  const auto& cell = testutil::nand2Model();
  sta::Netlist nl;
  nl.addPrimaryInput("a");
  nl.addPrimaryInput("b");
  nl.addInstance("u1", cell, {"a", "b"}, "y");
  sta::TimingAnalyzer ta(nl, DelayMode::Classic);
  EXPECT_THROW(ta.setInputArrival("y", {0.0, 1e-10, Edge::Rising}),
               std::invalid_argument);
}

TEST(Analyzer, MixedCellTypesPropagate) {
  // A NAND2 feeding a NOR2: the falling NAND output is a non-controlling
  // transition for the NOR (its stable side input sits at 0), so the NOR
  // output rises -- two different dominance senses in one path.
  const auto& nand = testutil::nand2Model();
  static const characterize::CharacterizedGate nor =
      characterize::characterizeGate(testutil::norSpec(2),
                                     testutil::fastConfig());
  sta::Netlist nl;
  nl.addPrimaryInput("a");
  nl.addPrimaryInput("b");
  nl.addPrimaryInput("s");
  nl.addInstance("u1", nand, {"a", "b"}, "y1");   // rising a,b -> y1 falls
  nl.addInstance("u2", nor, {"y1", "s"}, "y2");   // falling y1 -> y2 rises

  sta::TimingAnalyzer ta(nl, DelayMode::Proximity);
  ta.setInputArrival("a", {0.0, 250e-12, Edge::Rising});
  ta.setInputArrival("b", {30e-12, 250e-12, Edge::Rising});
  ta.run();
  const auto y1 = ta.arrival("y1");
  const auto y2 = ta.arrival("y2");
  ASSERT_TRUE(y1 && y2);
  EXPECT_EQ(y1->edge, Edge::Falling);
  EXPECT_EQ(y2->edge, Edge::Rising);
  EXPECT_GT(y2->time, y1->time);
}

TEST(Analyzer, ClassicVsProximityEndToEnd) {
  // A NAND3 with three near-simultaneous rising inputs: the proximity path
  // reports a *later* output (series stack slowdown) than classic STA.
  const auto& cell = testutil::nand3Model();
  sta::Netlist nl;
  nl.addPrimaryInput("a");
  nl.addPrimaryInput("b");
  nl.addPrimaryInput("c");
  nl.addInstance("u1", cell, {"a", "b", "c"}, "y");

  auto analyze = [&](DelayMode mode) {
    sta::TimingAnalyzer ta(nl, mode);
    ta.setInputArrival("a", {0.0, 200e-12, Edge::Rising});
    ta.setInputArrival("b", {10e-12, 200e-12, Edge::Rising});
    ta.setInputArrival("c", {20e-12, 200e-12, Edge::Rising});
    ta.run();
    return ta.arrival("y");
  };
  const auto classic = analyze(DelayMode::Classic);
  const auto prox = analyze(DelayMode::Proximity);
  ASSERT_TRUE(classic && prox);
  EXPECT_GT(prox->time, classic->time);
}

}  // namespace
