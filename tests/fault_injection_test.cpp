// Fault-injection proof of the fault-tolerance layer: deterministic faults
// forced at named sites exercise every rung of the Newton recovery ladder,
// the transient BE fallback and typed timestep underflow, characterization
// hole healing, and the STA degraded-arc ladder.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>

#include "characterize/characterize.hpp"
#include "model/dual_input.hpp"
#include "model/gate_sim.hpp"
#include "obs/registry.hpp"
#include "spice/capacitor.hpp"
#include "spice/resistor.hpp"
#include "spice/tran.hpp"
#include "spice/vsource.hpp"
#include "sta/timing_graph.hpp"
#include "support/diagnostic.hpp"
#include "support/fault_injection.hpp"
#include "test_util.hpp"

#if !PROX_ENABLE_FAULT_INJECTION

// The whole binary is about injected faults; report a visible skip when the
// build has the injection hooks compiled out.
TEST(FaultInjection, DISABLED_RequiresFaultInjectionBuild) {}

#else

namespace {

using namespace prox;
using spice::Circuit;
using spice::kGround;
using support::DiagnosticError;
using support::FaultKind;
using support::FaultPlan;
using support::Severity;
using support::StatusCode;
using wave::Edge;

std::uint64_t counterValue(const char* name) {
  return obs::counter(name).value();
}

// A well-conditioned divider: every solve succeeds unless a fault is forced.
struct Divider {
  Circuit ckt;
  spice::NodeId a;
  Divider() {
    a = ckt.node("a");
    ckt.add<spice::VoltageSource>("v", a, kGround, 5.0);
    ckt.add<spice::Resistor>("r", a, kGround, 1e3);
    ckt.finalize();
  }
};

// An RC low-pass driven by a 1 ns ramp: plenty of healthy transient steps to
// inject failures into.
struct RcRamp {
  Circuit ckt;
  spice::NodeId out;
  RcRamp() {
    const spice::NodeId in = ckt.node("in");
    out = ckt.node("out");
    ckt.add<spice::VoltageSource>("vin", in, kGround,
                                  wave::Waveform({{0.0, 0.0}, {1e-9, 5.0}}));
    ckt.add<spice::Resistor>("r", in, out, 1e3);
    ckt.add<spice::Capacitor>("c", out, kGround, 1e-12);
    ckt.finalize();
  }
};

TEST(FaultInjectionNewton, InjectedNonConvergenceIsTyped) {
  Divider d;
  linalg::Vector x(d.ckt.unknownCount(), 0.0);
  FaultPlan::Scope scope({"spice.newton", FaultKind::NewtonNonConverge, 1, 1});
  const auto st = spice::solveNewton(d.ckt, x, spice::StampContext{}, {});
  EXPECT_FALSE(st.converged);
  EXPECT_EQ(st.code(), StatusCode::NewtonNonConverge);
  EXPECT_EQ(FaultPlan::fired(), 1u);
}

TEST(FaultInjectionNewton, InjectedNanResidualFlagsNonFinite) {
  Divider d;
  linalg::Vector x(d.ckt.unknownCount(), 0.0);
  FaultPlan::Scope scope(
      {"spice.newton.residual", FaultKind::NanResidual, 1, 1});
  const auto st = spice::solveNewton(d.ckt, x, spice::StampContext{}, {});
  EXPECT_FALSE(st.converged);
  EXPECT_TRUE(st.nonFinite);
  EXPECT_EQ(st.code(), StatusCode::NonFiniteSolution);
}

TEST(FaultInjectionNewton, InjectedSingularLuFlagsSingular) {
  Divider d;
  linalg::Vector x(d.ckt.unknownCount(), 0.0);
  FaultPlan::Scope scope({"linalg.lu.factor", FaultKind::SingularLu, 1, 1});
  const auto st = spice::solveNewton(d.ckt, x, spice::StampContext{}, {});
  EXPECT_FALSE(st.converged);
  EXPECT_TRUE(st.singular);
  EXPECT_EQ(st.code(), StatusCode::SingularMatrix);
}

TEST(FaultInjectionNewton, DampingRungRecovers) {
  Divider d;
  linalg::Vector x(d.ckt.unknownCount(), 0.0);
  const auto recovered = counterValue("spice.newton.recovery.damping_recovered");
  // Exactly one failure: the plain solve consumes it, the damping retry is
  // clean and must converge.
  FaultPlan::Scope scope({"spice.newton", FaultKind::NewtonNonConverge, 1, 1});
  const auto out =
      spice::solveNewtonRecover(d.ckt, x, spice::StampContext{}, {});
  EXPECT_TRUE(out.status.converged);
  EXPECT_EQ(out.rung, spice::RecoveryRung::Damping);
  EXPECT_NEAR(d.ckt.nodeVoltage(x, d.a), 5.0, 1e-6);
  if (obs::kStatsCompiledIn) {
    EXPECT_EQ(
        counterValue("spice.newton.recovery.damping_recovered") - recovered,
        1u);
  }
}

TEST(FaultInjectionNewton, GminRampRungRecovers) {
  Divider d;
  linalg::Vector x(d.ckt.unknownCount(), 0.0);
  const auto recovered = counterValue("spice.newton.recovery.gmin_recovered");
  // Two failures take out the plain solve and the damping rung; the gmin
  // ramp must finish the job.
  FaultPlan::Scope scope({"spice.newton", FaultKind::NewtonNonConverge, 1, 2});
  const auto out =
      spice::solveNewtonRecover(d.ckt, x, spice::StampContext{}, {});
  EXPECT_TRUE(out.status.converged);
  EXPECT_EQ(out.rung, spice::RecoveryRung::GminRamp);
  EXPECT_NEAR(d.ckt.nodeVoltage(x, d.a), 5.0, 1e-6);
  if (obs::kStatsCompiledIn) {
    EXPECT_EQ(counterValue("spice.newton.recovery.gmin_recovered") - recovered,
              1u);
  }
}

TEST(FaultInjectionNewton, SingularLuRecoveredByLadder) {
  Divider d;
  linalg::Vector x(d.ckt.unknownCount(), 0.0);
  FaultPlan::Scope scope({"linalg.lu.factor", FaultKind::SingularLu, 1, 1});
  const auto out =
      spice::solveNewtonRecover(d.ckt, x, spice::StampContext{}, {});
  EXPECT_TRUE(out.status.converged);
  EXPECT_NE(out.rung, spice::RecoveryRung::Plain);
}

TEST(FaultInjectionNewton, ExhaustedLadderRestoresEntryIterate) {
  Divider d;
  linalg::Vector x(d.ckt.unknownCount(), 0.0);
  const auto exhausted = counterValue("spice.newton.recovery.exhausted");
  // Every rung fails: the ladder must give up and hand back the iterate it
  // was called with instead of a half-converged vector.
  FaultPlan::Scope scope(
      {"spice.newton", FaultKind::NewtonNonConverge, 1, 1000000});
  const auto out =
      spice::solveNewtonRecover(d.ckt, x, spice::StampContext{}, {});
  EXPECT_FALSE(out.status.converged);
  if (obs::kStatsCompiledIn) {
    EXPECT_EQ(counterValue("spice.newton.recovery.exhausted") - exhausted, 1u);
  }
  for (const double v : x) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(FaultInjectionTran, StepHalvingAbsorbsInjectedBurst) {
  RcRamp rc;
  spice::TranOptions opt;
  opt.tstop = 4e-9;
  // Skip the initial operating point (hit 1) and fail three step solves in a
  // row: routine halving must absorb the burst without the ladder.
  FaultPlan::Scope scope({"spice.newton", FaultKind::NewtonNonConverge, 2, 3});
  const auto res = spice::transient(rc.ckt, opt);
  EXPECT_EQ(FaultPlan::fired(), 3u);
  EXPECT_NEAR(res.node(rc.out).value(4e-9), 5.0, 0.2);
}

TEST(FaultInjectionTran, BeFallbackThenTypedUnderflow) {
  RcRamp rc;
  spice::TranOptions opt;
  opt.tstop = 1e-9;
  opt.hmin = 1e-14;
  const auto fallbacks = counterValue("spice.tran.recovery.be_fallbacks");
  // Unbounded failures: halving collapses the step, the ladder fails, the
  // BE-only restart fails too, and the run must die with a *typed* underflow.
  FaultPlan::Scope scope(
      {"spice.newton", FaultKind::NewtonNonConverge, 2, 1000000});
  try {
    spice::transient(rc.ckt, opt);
    FAIL() << "expected timestep underflow";
  } catch (const DiagnosticError& e) {
    EXPECT_EQ(e.code(), StatusCode::TimestepUnderflow);
    EXPECT_NE(std::string(e.what()).find("underflow"), std::string::npos);
  }
  if (obs::kStatsCompiledIn) {
    EXPECT_EQ(counterValue("spice.tran.recovery.be_fallbacks") - fallbacks, 1u);
  }
}

TEST(FaultInjectionTran, InitialOpFailureIsTyped) {
  RcRamp rc;
  spice::TranOptions opt;
  opt.tstop = 1e-9;
  FaultPlan::Scope scope(
      {"spice.newton", FaultKind::NewtonNonConverge, 1, 1000000});
  try {
    spice::transient(rc.ckt, opt);
    FAIL() << "expected initial OP failure";
  } catch (const DiagnosticError& e) {
    EXPECT_EQ(e.code(), StatusCode::InitialOpFailed);
  }
}

// A deliberately tiny characterization grid (mirrors the examples' coarse
// config) so the healing tests stay fast.
characterize::CharacterizationConfig tinyConfig() {
  characterize::CharacterizationConfig c;
  c.tauGrid = {100e-12, 600e-12};
  c.dualTauIndices = {0, 1};
  c.vGrid = {0.3, 1.0, 3.0};
  c.wGrid = {-1.0, 0.0, 0.5, 1.0};
  c.vGridTransition = {0.3, 1.0, 3.0};
  c.wGridTransition = {-1.0, 0.0, 1.0, 3.0};
  c.vtcStep = 0.05;
  return c;
}

TEST(FaultInjectionCharacterize, HealsInjectedPointFailure) {
  const auto cfg = tinyConfig();
  model::GateSimulator sim(model::makeGate(testutil::nandSpec(2), cfg.vtcStep));
  const auto singles =
      model::SingleInputModelSet::characterizeAll(sim, cfg.tauGrid);
  model::DualTable dt;
  model::DualTable tt;
  support::DiagnosticLog log;
  const auto healed = counterValue("characterize.points_healed");
  const auto failed = counterValue("characterize.points_failed");
  {
    // The third sweep point fails on both its first attempt and its retry
    // (count = 2), so it must be left as a hole and healed after the sweep.
    FaultPlan::Scope scope(
        {"model.gate_sim.simulate", FaultKind::SimulationFailure, 3, 2});
    characterize::buildDualTables(sim, singles, 0, 1, Edge::Rising, cfg, &dt,
                                  &tt, &log);
  }
  EXPECT_EQ(dt.healedCount() + tt.healedCount(), 1u);
  if (obs::kStatsCompiledIn) {
    EXPECT_EQ(counterValue("characterize.points_healed") - healed, 1u);
    EXPECT_EQ(counterValue("characterize.points_failed") - failed, 1u);
  }
  ASSERT_FALSE(log.empty());
  EXPECT_EQ(log.worstSeverity(), Severity::Warning);
  EXPECT_EQ(log.entries().front().pin, 0);
  for (const double r : dt.ratio) EXPECT_TRUE(std::isfinite(r));
  for (const double r : tt.ratio) EXPECT_TRUE(std::isfinite(r));

  // The healed value must stay close to what a clean sweep would have
  // produced: locate the healed point and re-evaluate it with the oracle.
  const auto& mRef = singles.at(0, Edge::Rising);
  const model::DualTable& t = dt.healedCount() > 0 ? dt : tt;
  const bool inDelay = dt.healedCount() > 0;
  for (std::size_t iu = 0; iu < t.u.size(); ++iu) {
    for (std::size_t iv = 0; iv < t.v.size(); ++iv) {
      for (std::size_t iw = 0; iw < t.w.size(); ++iw) {
        if (!t.isHealed(iu, iv, iw)) continue;
        const double tauRef = iu == 0 ? cfg.tauGrid[0] : cfg.tauGrid[1];
        const double norm =
            inDelay ? mRef.delay(tauRef) : mRef.transition(tauRef);
        model::DualQuery q;
        q.refPin = 0;
        q.otherPin = 1;
        q.edge = Edge::Rising;
        q.tauRef = tauRef;
        q.tauOther = std::clamp(t.v[iv] * norm, 1e-12, 50e-9);
        q.sep = t.w[iw] * norm;
        model::OracleDualInputModel oracle(sim, singles);
        const double expected =
            inDelay ? oracle.delayRatio(q) : oracle.transitionRatio(q);
        EXPECT_NEAR(t.at(iu, iv, iw), expected, 0.1 * std::fabs(expected));
      }
    }
  }
}

TEST(FaultInjectionCharacterize, CharacterizeGateCompletesAndLogs) {
  // Hit 12 lands inside the first dual-table sweep (the 8 single-input
  // characterization transients come first); with the retry also failing the
  // full flow must absorb the fault, heal the hole, and log it.
  FaultPlan::Scope scope(
      {"model.gate_sim.simulate", FaultKind::SimulationFailure, 12, 2});
  const auto cell =
      characterize::characterizeGate(testutil::nandSpec(2), tinyConfig());
  EXPECT_FALSE(cell.diagnostics.empty());
  EXPECT_EQ(cell.diagnostics.worstSeverity(), Severity::Warning);
  std::size_t healed = 0;
  for (int pin : {0, 1}) {
    for (const Edge e : {Edge::Rising, Edge::Falling}) {
      healed += cell.dual->delayTable(pin, e).healedCount();
      healed += cell.dual->transitionTable(pin, e).healedCount();
    }
  }
  EXPECT_EQ(healed, 1u);
}

// Cached cells for the STA degraded-mode tests (characterizing singles costs
// a handful of transients; do it once).
const characterize::CharacterizedGate& cellWithoutDuals() {
  static const auto* cell = [] {
    auto* c = new characterize::CharacterizedGate();
    c->gate = model::makeGate(testutil::nandSpec(2), 0.05);
    model::GateSimulator sim(c->gate);
    c->singles = std::make_unique<model::SingleInputModelSet>(
        model::SingleInputModelSet::characterizeAll(sim,
                                                    {100e-12, 600e-12}));
    c->dual = std::make_unique<model::TabulatedDualInputModel>(*c->singles);
    return c;
  }();
  return *cell;
}

// A table whose grids sit far away from any realistic normalized query, so
// every lookup clamps with a large distance (the values are the identity
// ratio, keeping the clamped answer benign).
model::DualTable farTable() {
  model::DualTable t;
  t.u = {1000.0, 2000.0};
  t.v = {1000.0, 2000.0};
  t.w = {1000.0, 2000.0};
  t.ratio.assign(8, 1.0);
  return t;
}

const characterize::CharacterizedGate& cellWithFarTables() {
  static const auto* cell = [] {
    auto* c = new characterize::CharacterizedGate();
    c->gate = model::makeGate(testutil::nandSpec(2), 0.05);
    model::GateSimulator sim(c->gate);
    c->singles = std::make_unique<model::SingleInputModelSet>(
        model::SingleInputModelSet::characterizeAll(sim,
                                                    {100e-12, 600e-12}));
    c->dual = std::make_unique<model::TabulatedDualInputModel>(*c->singles);
    for (int pin : {0, 1}) {
      for (const Edge e : {Edge::Rising, Edge::Falling}) {
        c->dual->setDelayTable(pin, e, farTable());
        c->dual->setTransitionTable(pin, e, farTable());
      }
    }
    return c;
  }();
  return *cell;
}

// Two switching inputs in close proximity: forces dual-table lookups (wide
// separations short-circuit to ratio 1 without touching the tables).
void setCloseArrivals(sta::TimingAnalyzer& ta) {
  ta.setInputArrival("a", {0.0, 100e-12, Edge::Rising});
  ta.setInputArrival("b", {20e-12, 100e-12, Edge::Rising});
}

sta::Netlist oneGateNetlist(const characterize::CharacterizedGate& cell) {
  sta::Netlist nl;
  nl.addPrimaryInput("a");
  nl.addPrimaryInput("b");
  nl.addInstance("u1", cell, {"a", "b"}, "y");
  return nl;
}

// model.dual.* lookup tallies, for asserting that a degraded arc's lookups
// are counted once: the arc stages two (its transition and delay queries),
// and falling back to the classic model must not re-run them.
struct DualLookupDeltas {
  std::uint64_t lookups = counterValue("model.dual.table_lookups");
  std::uint64_t clamped = counterValue("model.dual.clamped_lookups");
  std::uint64_t missing = counterValue("model.dual.missing_tables");

  void expect(std::uint64_t lookupsDelta, std::uint64_t clampedDelta,
              std::uint64_t missingDelta) const {
    if (!obs::kStatsCompiledIn) return;
    EXPECT_EQ(counterValue("model.dual.table_lookups") - lookups, lookupsDelta);
    EXPECT_EQ(counterValue("model.dual.clamped_lookups") - clamped,
              clampedDelta);
    EXPECT_EQ(counterValue("model.dual.missing_tables") - missing,
              missingDelta);
  }
};

TEST(StaDegraded, MissingDualTablesFallBackToSingleInput) {
  const auto nl = oneGateNetlist(cellWithoutDuals());
  sta::TimingAnalyzer ta(nl, sta::DelayMode::Proximity);
  setCloseArrivals(ta);
  const auto degraded = counterValue("sta.delay_calc.degraded_arcs");
  const auto single = counterValue("sta.delay_calc.single_input_fallbacks");
  const DualLookupDeltas dual;
  ta.run();
  EXPECT_EQ(ta.degradedArcs(), 1u);
  if (obs::kStatsCompiledIn) {
    EXPECT_EQ(counterValue("sta.delay_calc.degraded_arcs") - degraded, 1u);
    EXPECT_EQ(counterValue("sta.delay_calc.single_input_fallbacks") - single,
              1u);
  }
  dual.expect(2, 0, 2);
  const auto y = ta.arrival("y");
  ASSERT_TRUE(y.has_value());
  EXPECT_EQ(y->edge, Edge::Falling);
  EXPECT_GT(y->time, 0.0);
}

TEST(StaDegraded, StrictOptionsRethrowTyped) {
  const auto nl = oneGateNetlist(cellWithoutDuals());
  sta::DelayCalcOptions strict;
  strict.allowDegraded = false;
  sta::TimingAnalyzer ta(nl, sta::DelayMode::Proximity, strict);
  setCloseArrivals(ta);
  try {
    ta.run();
    FAIL() << "expected missing-table failure";
  } catch (const DiagnosticError& e) {
    EXPECT_EQ(e.code(), StatusCode::TableMissing);
    // The batched STA reports exactly what compute() throws for the same
    // arc, reference pin included.
    try {
      cellWithoutDuals().calculator().compute(
          {{0, Edge::Rising, 0.0, 100e-12}, {1, Edge::Rising, 20e-12, 100e-12}});
      FAIL() << "expected compute() to fail too";
    } catch (const DiagnosticError& scalar) {
      EXPECT_STREQ(e.what(), scalar.what());
      EXPECT_EQ(e.diagnostic().pin, scalar.diagnostic().pin);
      EXPECT_GE(e.diagnostic().pin, 0);
    }
  }
}

TEST(StaDegraded, ComputeCountsTheLookupsTheBatchCounts) {
  // compute() and the STA answer a fold through one loop, so a missing-table
  // arc counts its transition and delay lookups, both missing, either way.
  const std::vector<model::InputEvent> events = {
      {0, Edge::Rising, 0.0, 100e-12}, {1, Edge::Rising, 20e-12, 100e-12}};
  const DualLookupDeltas scalar;
  EXPECT_THROW(cellWithoutDuals().calculator().compute(events),
               DiagnosticError);
  scalar.expect(2, 0, 2);

  const std::vector<std::optional<sta::Arrival>> pins = {
      sta::Arrival{0.0, 100e-12, Edge::Rising},
      sta::Arrival{20e-12, 100e-12, Edge::Rising}};
  const DualLookupDeltas batch;
  sta::evaluateGate(cellWithoutDuals(), pins, sta::DelayMode::Proximity);
  batch.expect(2, 0, 2);
}

TEST(StaDegraded, DistrustedClampDegradesArc) {
  const auto nl = oneGateNetlist(cellWithFarTables());
  // Default options tolerate any clamp: the arc completes at full quality.
  sta::TimingAnalyzer tolerant(nl, sta::DelayMode::Proximity);
  setCloseArrivals(tolerant);
  const auto clamped = counterValue("sta.delay_calc.clamped_arcs");
  const DualLookupDeltas tolerantDual;
  tolerant.run();
  EXPECT_EQ(tolerant.degradedArcs(), 0u);
  if (obs::kStatsCompiledIn) {
    EXPECT_GE(counterValue("sta.delay_calc.clamped_arcs") - clamped, 1u);
  }
  tolerantDual.expect(2, 2, 0);

  // A tight clamp budget rejects the extrapolated lookup and degrades.
  sta::DelayCalcOptions picky;
  picky.maxClampDistance = 0.5;
  sta::TimingAnalyzer strict(nl, sta::DelayMode::Proximity, picky);
  setCloseArrivals(strict);
  const DualLookupDeltas dual;
  strict.run();
  EXPECT_EQ(strict.degradedArcs(), 1u);
  EXPECT_TRUE(strict.arrival("y").has_value());
  dual.expect(2, 2, 0);
}

TEST(DualModel, MissingTableThrowsTypedAndClampStatsTrack) {
  model::DualQuery q;
  q.refPin = 0;
  q.otherPin = 1;
  q.edge = Edge::Rising;
  q.tauRef = 100e-12;
  q.tauOther = 100e-12;
  q.sep = 0.0;  // inside the proximity window, so the table IS consulted

  const auto missing = counterValue("model.dual.missing_tables");
  try {
    cellWithoutDuals().dual->delayRatio(q);
    FAIL() << "expected missing-table failure";
  } catch (const DiagnosticError& e) {
    EXPECT_EQ(e.code(), StatusCode::TableMissing);
    EXPECT_EQ(e.diagnostic().pin, 0);
  }
  if (obs::kStatsCompiledIn) {
    EXPECT_EQ(counterValue("model.dual.missing_tables") - missing, 1u);
  }

  // The non-throwing lookup marks the same miss instead of throwing.
  EXPECT_EQ(cellWithoutDuals().dual->lookup(q).status,
            model::DualResult::Status::MissingTable);

  // A clamped lookup reports its distance with the answer.
  const auto& far = cellWithFarTables();
  const auto lookups = counterValue("model.dual.table_lookups");
  const auto clamps = counterValue("model.dual.clamped_lookups");
  const model::DualResult r = far.dual->lookup(q);
  EXPECT_EQ(r.status, model::DualResult::Status::Ok);
  EXPECT_TRUE(std::isfinite(r.value));
  EXPECT_GT(r.clampDistance, 0.5);
  EXPECT_EQ(far.dual->delayRatio(q), r.value);
  if (obs::kStatsCompiledIn) {
    EXPECT_EQ(counterValue("model.dual.table_lookups") - lookups, 2u);
    EXPECT_EQ(counterValue("model.dual.clamped_lookups") - clamps, 2u);
  }
}

}  // namespace

#endif  // PROX_ENABLE_FAULT_INJECTION
