// Structural netlist validation: cycle detection with the offending path
// named, multi-driver and dangling-net checks, the
// DelayCalcOptions::structural degradation ladder exercised end-to-end
// through TimingAnalyzer at both settings (Reject throws a typed
// StructuralError; Degrade completes with the defect tallied in
// structuralIssues()/degradedArcNames()), and the netlist's kept schedule:
// levelized once per netlist, dropped by a mutation, never kept for a
// rejected graph.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>

#include "obs/registry.hpp"
#include "sta/timing_graph.hpp"
#include "support/diagnostic.hpp"
#include "test_util.hpp"

namespace {

using namespace prox;
using sta::DelayMode;
using sta::Netlist;
using sta::StructuralIssue;
using sta::StructuralPolicy;
using support::DiagnosticError;
using support::StatusCode;
using wave::Edge;

using Kind = StructuralIssue::Kind;

// u1 -> u2 -> u3 -> u1 ring, plus a clean u0 so degraded runs still have
// something valid to analyze.
Netlist cyclicNetlist() {
  const auto& cell = testutil::nand2Model();
  Netlist nl;
  nl.addPrimaryInput("a");
  nl.addPrimaryInput("b");
  nl.addInstance("u0", cell, {"a", "b"}, "y0");
  nl.addInstance("u1", cell, {"a", "y3"}, "y1");
  nl.addInstance("u2", cell, {"y1", "b"}, "y2");
  nl.addInstance("u3", cell, {"y2", "a"}, "y3");
  return nl;
}

const StructuralIssue* findIssue(const std::vector<StructuralIssue>& issues,
                                 Kind kind) {
  const auto it = std::find_if(issues.begin(), issues.end(),
                               [&](const auto& i) { return i.kind == kind; });
  return it == issues.end() ? nullptr : &*it;
}

std::uint64_t counterValue(const char* name) {
  return obs::counter(name).value();
}

TEST(StructuralValidation, CleanNetlistHasNoIssues) {
  const auto& cell = testutil::nand2Model();
  Netlist nl;
  nl.addPrimaryInput("a");
  nl.addPrimaryInput("b");
  nl.addInstance("u1", cell, {"a", "b"}, "y1");
  nl.addInstance("u2", cell, {"y1", "b"}, "y2");
  EXPECT_TRUE(nl.validate().empty());
  const auto res = nl.levelize(StructuralPolicy::Reject);
  ASSERT_EQ(res.levelCount(), 2u);
  EXPECT_TRUE(res.issues.empty());
  EXPECT_TRUE(res.degradedNodes.empty());
}

TEST(StructuralValidation, CycleIsNamedInPathOrder) {
  const auto issues = cyclicNetlist().validate();
  const auto* cycle = findIssue(issues, Kind::Cycle);
  ASSERT_NE(cycle, nullptr);
  // Signal-flow order: u2 drives u3 drives u1 drives u2.
  EXPECT_NE(cycle->message.find("u2 -> u3 -> u1 -> u2"), std::string::npos)
      << cycle->message;
  EXPECT_EQ(cycle->instances,
            (std::vector<std::string>{"u2", "u3", "u1"}));
}

TEST(StructuralValidation, RejectPolicyThrowsTypedStructuralError) {
  try {
    cyclicNetlist().levelize(StructuralPolicy::Reject);
    FAIL() << "expected DiagnosticError(StructuralError)";
  } catch (const DiagnosticError& e) {
    EXPECT_EQ(e.code(), StatusCode::StructuralError);
    EXPECT_EQ(e.diagnostic().site, "sta.netlist");
    EXPECT_NE(e.diagnostic().message.find("combinational cycle"),
              std::string::npos);
  }
}

TEST(StructuralValidation, DegradeBreaksLoopAtLowestNumberedMember) {
  const Netlist nl = cyclicNetlist();
  const auto res = nl.levelize(StructuralPolicy::Degrade);
  // Every instance placed exactly once -- levelization terminated.
  EXPECT_EQ(res.order.size(), 4u);
  ASSERT_FALSE(res.degradedNodes.empty());
  // u1 is the lowest-numbered cycle member, so the break lands there.
  EXPECT_EQ(nl.nodeName(res.degradedNodes.front()), "u1");
  EXPECT_NE(findIssue(res.issues, Kind::Cycle), nullptr);
}

TEST(StructuralValidation, SelfLoopIsItsOwnKind) {
  const auto& cell = testutil::nand2Model();
  Netlist nl;
  nl.addPrimaryInput("a");
  nl.addInstance("u1", cell, {"a", "y1"}, "y1");
  const auto issues = nl.validate();
  const auto* loop = findIssue(issues, Kind::SelfLoop);
  ASSERT_NE(loop, nullptr);
  EXPECT_NE(loop->message.find("u1 -> u1"), std::string::npos);
  EXPECT_THROW(nl.levelize(StructuralPolicy::Reject), DiagnosticError);
}

TEST(StructuralValidation, LenientMultiDriverIsReportedNotThrown) {
  const auto& cell = testutil::nand2Model();
  Netlist nl;
  nl.addPrimaryInput("a");
  nl.addPrimaryInput("b");
  nl.addInstance("u1", cell, {"a", "b"}, "y");
  nl.addInstanceLenient("u2", cell, {"b", "a"}, "y");  // second driver of y
  const auto issues = nl.validate();
  const auto* md = findIssue(issues, Kind::MultiDriver);
  ASSERT_NE(md, nullptr);
  EXPECT_NE(md->message.find("multiply driven"), std::string::npos);
  EXPECT_NE(md->message.find("y"), std::string::npos);
  // Reject still refuses the graph; strict addInstance still throws.
  EXPECT_THROW(nl.levelize(StructuralPolicy::Reject), DiagnosticError);
  EXPECT_THROW(nl.addInstance("u3", cell, {"a", "b"}, "y"),
               std::invalid_argument);
}

TEST(StructuralValidation, DanglingInputIsNamed) {
  const auto& cell = testutil::nand2Model();
  Netlist nl;
  nl.addPrimaryInput("a");
  nl.addInstance("u1", cell, {"a", "floating"}, "y1");
  const auto issues = nl.validate();
  const auto* d = findIssue(issues, Kind::DanglingInput);
  ASSERT_NE(d, nullptr);
  EXPECT_NE(d->message.find("floating"), std::string::npos);
  EXPECT_EQ(d->instances, std::vector<std::string>{"u1"});
  // Degrade treats the dangling net as no-event and still levelizes.
  const auto res = nl.levelize(StructuralPolicy::Degrade);
  ASSERT_EQ(res.levelCount(), 1u);
  ASSERT_EQ(res.degradedNodes.size(), 1u);
  EXPECT_EQ(nl.nodeName(res.degradedNodes[0]), "u1");
}

TEST(StructuralValidation, EachKindCountsUnderItsOwnCounter) {
  const auto cycles = counterValue("sta.structural.cycles");
  const auto dangling = counterValue("sta.structural.dangling_inputs");
  (void)cyclicNetlist().levelize(StructuralPolicy::Degrade);
  Netlist nl;
  nl.addPrimaryInput("a");
  nl.addInstance("u1", testutil::nand2Model(), {"a", "floating"}, "y1");
  (void)nl.levelize(StructuralPolicy::Degrade);
  if (obs::kStatsCompiledIn) {
    EXPECT_EQ(counterValue("sta.structural.cycles") - cycles, 1u);
    EXPECT_EQ(counterValue("sta.structural.dangling_inputs") - dangling, 1u);
  }
}

TEST(StructuralValidation, KindNamesAreStable) {
  EXPECT_STREQ(sta::structuralKindName(Kind::Cycle), "cycle");
  EXPECT_STREQ(sta::structuralKindName(Kind::SelfLoop), "self-loop");
  EXPECT_STREQ(sta::structuralKindName(Kind::MultiDriver), "multi-driver");
  EXPECT_STREQ(sta::structuralKindName(Kind::DanglingInput),
               "dangling-input");
}

// --- degradation ladder through the analyzer --------------------------------

TEST(StructuralLadder, AnalyzerRejectsDefectiveGraphByDefault) {
  const Netlist nl = cyclicNetlist();
  sta::TimingAnalyzer ta(nl, DelayMode::Proximity);  // default: Reject
  ta.setInputArrival("a", {0.0, 300e-12, Edge::Rising});
  EXPECT_THROW(ta.run(), DiagnosticError);
}

TEST(StructuralLadder, AnalyzerDegradeCompletesAndTalliesTheDamage) {
  const Netlist nl = cyclicNetlist();
  sta::DelayCalcOptions opts;
  opts.structural = StructuralPolicy::Degrade;
  sta::TimingAnalyzer ta(nl, DelayMode::Proximity, opts);
  // One switching input only: the broken loop must not manufacture
  // mixed-direction events at any gate.
  ta.setInputArrival("a", {0.0, 300e-12, Edge::Rising});
  ta.run();

  // The clean side of the graph still produced real analysis.
  EXPECT_TRUE(ta.arrival("y0").has_value());
  // The loop-break is visible in all three reporting channels.
  EXPECT_GE(ta.degradedArcs(), 1u);
  const auto& names = ta.degradedArcNames();
  EXPECT_NE(std::find(names.begin(), names.end(), "u1"), names.end());
  EXPECT_NE(findIssue(ta.structuralIssues(), Kind::Cycle), nullptr);
}

TEST(StructuralLadder, DegradeOnCleanGraphReportsNothing) {
  const auto& cell = testutil::nand2Model();
  Netlist nl;
  nl.addPrimaryInput("a");
  nl.addPrimaryInput("b");
  nl.addInstance("u1", cell, {"a", "b"}, "y1");
  sta::DelayCalcOptions opts;
  opts.structural = StructuralPolicy::Degrade;
  sta::TimingAnalyzer ta(nl, DelayMode::Proximity, opts);
  ta.setInputArrival("a", {0.0, 300e-12, Edge::Rising});
  ta.run();
  EXPECT_TRUE(ta.structuralIssues().empty());
  EXPECT_TRUE(ta.degradedArcNames().empty());
  EXPECT_EQ(ta.degradedArcs(), 0u);
}

// --- the kept schedule ------------------------------------------------------

// Two stages, a and b switching, c stable: y1 falls, y2 rises.
Netlist twoStageNetlist() {
  const auto& cell = testutil::nand2Model();
  Netlist nl;
  nl.addPrimaryInput("a");
  nl.addPrimaryInput("b");
  nl.addPrimaryInput("c");
  nl.addInstance("u1", cell, {"a", "b"}, "y1");
  nl.addInstance("u2", cell, {"y1", "c"}, "y2");
  return nl;
}

std::optional<sta::Arrival> analyzeTwoStage(const Netlist& nl) {
  sta::TimingAnalyzer ta(nl, DelayMode::Proximity);
  ta.setInputArrival("a", {0.0, 300e-12, Edge::Rising});
  ta.setInputArrival("b", {50e-12, 300e-12, Edge::Rising});
  ta.run();
  EXPECT_EQ(ta.levelCount(), 2u);
  return ta.arrival("y2");
}

TEST(KeptSchedule, TwoRunsLevelizeOnce) {
  const Netlist nl = twoStageNetlist();
  const auto levelized = counterValue("sta.graph.nodes_levelized");
  const auto first = analyzeTwoStage(nl);
  const auto second = analyzeTwoStage(nl);
  ASSERT_TRUE(first && second);
  EXPECT_EQ(first->time, second->time);
  EXPECT_EQ(first->slope, second->slope);
  if (obs::kStatsCompiledIn) {
    EXPECT_EQ(counterValue("sta.graph.nodes_levelized") - levelized,
              nl.nodeCount());
  }
}

TEST(KeptSchedule, MutationDropsTheSchedule) {
  const auto& cell = testutil::nand2Model();
  Netlist nl;
  nl.addPrimaryInput("a");
  nl.addPrimaryInput("b");
  nl.addPrimaryInput("c");
  nl.addInstance("u1", cell, {"a", "b"}, "y1");
  ASSERT_EQ(nl.levelize(StructuralPolicy::Reject).levelCount(), 1u);
  sta::TimingAnalyzer ta(nl, DelayMode::Proximity);
  ta.setInputArrival("a", {0.0, 300e-12, Edge::Rising});
  ta.setInputArrival("b", {50e-12, 300e-12, Edge::Rising});
  ta.run();
  ASSERT_TRUE(ta.arrival("y1").has_value());

  // A gate on existing nets: the next levelize() and run() must see it.
  nl.addInstance("u2", cell, {"y1", "c"}, "y2");
  const sta::LevelizeResult& res = nl.levelize(StructuralPolicy::Reject);
  ASSERT_EQ(res.levelCount(), 2u);
  ASSERT_EQ(res.level(sta::LevelId(1u)).size(), 1u);
  EXPECT_EQ(nl.nodeName(res.level(sta::LevelId(1u))[0]), "u2");
  ta.run();
  EXPECT_EQ(ta.levelCount(), 2u);
  const auto y2 = ta.arrival("y2");
  ASSERT_TRUE(y2.has_value());
  EXPECT_GT(y2->time, ta.arrival("y1")->time);
}

TEST(KeptSchedule, RejectIsNeverKept) {
  const Netlist nl = cyclicNetlist();
  sta::TimingAnalyzer ta(nl, DelayMode::Proximity);  // default: Reject
  ta.setInputArrival("a", {0.0, 300e-12, Edge::Rising});
  const auto rejects = counterValue("sta.structural.rejects");
  for (int run = 0; run < 2; ++run) {
    SCOPED_TRACE("run " + std::to_string(run));
    try {
      ta.run();
      ADD_FAILURE() << "expected DiagnosticError(StructuralError)";
    } catch (const DiagnosticError& e) {
      EXPECT_EQ(e.code(), StatusCode::StructuralError);
    }
  }
  if (obs::kStatsCompiledIn) {
    EXPECT_EQ(counterValue("sta.structural.rejects") - rejects, 2u);
  }
}

TEST(KeptSchedule, DegradeReportsOnEveryRun) {
  const Netlist nl = cyclicNetlist();
  sta::DelayCalcOptions opts;
  opts.structural = StructuralPolicy::Degrade;
  // One analyzer for both runs: the second walks the kept schedule.
  sta::TimingAnalyzer ta(nl, DelayMode::Proximity, opts);
  ta.setInputArrival("a", {0.0, 300e-12, Edge::Rising});
  for (int run = 0; run < 2; ++run) {
    SCOPED_TRACE("run " + std::to_string(run));
    ta.run();
    EXPECT_NE(findIssue(ta.structuralIssues(), Kind::Cycle), nullptr);
    const auto& names = ta.degradedArcNames();
    EXPECT_NE(std::find(names.begin(), names.end(), "u1"), names.end());
  }
}

// A loop-break gate reads its ring input before the run writes it, so a
// second run of one analyzer must see that net as quiet again, not the
// first run's falling y3 next to the rising a.
TEST(KeptSchedule, SecondRunStartsFromTheInputsAlone) {
  const Netlist nl = cyclicNetlist();
  sta::DelayCalcOptions opts;
  opts.structural = StructuralPolicy::Degrade;
  sta::TimingAnalyzer fresh(nl, DelayMode::Proximity, opts);
  fresh.setInputArrival("a", {0.0, 300e-12, Edge::Rising});
  fresh.run();

  sta::TimingAnalyzer ta(nl, DelayMode::Proximity, opts);
  ta.setInputArrival("a", {0.0, 300e-12, Edge::Rising});
  ta.run();
  ASSERT_NO_THROW(ta.run());
  for (const char* net : {"a", "b", "y0", "y1", "y2", "y3"}) {
    SCOPED_TRACE(net);
    const auto want = fresh.arrival(net);
    const auto got = ta.arrival(net);
    ASSERT_EQ(got.has_value(), want.has_value());
    if (!want) continue;
    EXPECT_EQ(got->time, want->time);
    EXPECT_EQ(got->slope, want->slope);
    EXPECT_EQ(got->edge, want->edge);
  }
  EXPECT_EQ(ta.degradedArcNames(), fresh.degradedArcNames());
}

}  // namespace
