// Dual-input proximity macromodel tests: the physics the paper's Figure 1-2
// reports (parallel reinforcement speeds the output up, series stacks slow
// it down), window limits, and table interpolation.

#include <gtest/gtest.h>

#include "dual_table_reference.hpp"
#include "test_util.hpp"

namespace {

using namespace prox;
using model::DualQuery;
using wave::Edge;

DualQuery query(int ref, int other, Edge e, double tauRef, double tauOther,
                double sep) {
  DualQuery q;
  q.refPin = ref;
  q.otherPin = other;
  q.edge = e;
  q.tauRef = tauRef;
  q.tauOther = tauOther;
  q.sep = sep;
  return q;
}

TEST(OracleDual, FallingPairSpeedsOutputUp) {
  // Figure 1-2(a): two falling inputs on a NAND turn on parallel PMOS paths;
  // close proximity reduces the delay -> ratio < 1.
  const auto& cg = testutil::nand2Model();
  model::GateSimulator sim(cg.gate);
  model::OracleDualInputModel oracle(sim, *cg.singles);
  const double r = oracle.delayRatio(
      query(0, 1, Edge::Falling, 500e-12, 100e-12, 0.0));
  EXPECT_LT(r, 0.98);
  EXPECT_GT(r, 0.2);
}

TEST(OracleDual, RisingPairSlowsOutputDown) {
  // Figure 1-2(c): two rising inputs drive the series stack together; the
  // delay at zero separation exceeds the single-input delay -> ratio > 1.
  const auto& cg = testutil::nand2Model();
  model::GateSimulator sim(cg.gate);
  model::OracleDualInputModel oracle(sim, *cg.singles);
  const double r = oracle.delayRatio(
      query(0, 1, Edge::Rising, 500e-12, 500e-12, 0.0));
  EXPECT_GT(r, 1.02);
}

TEST(OracleDual, RatioApproachesOneOutsideWindow) {
  const auto& cg = testutil::nand2Model();
  model::GateSimulator sim(cg.gate);
  model::OracleDualInputModel oracle(sim, *cg.singles);
  const double d1 = cg.singles->at(0, Edge::Falling).delay(500e-12);
  // Separation well beyond Delta^(1): the other input is blocked.
  const double r = oracle.delayRatio(
      query(0, 1, Edge::Falling, 500e-12, 100e-12, d1 + 2e-9));
  EXPECT_NEAR(r, 1.0, 0.03);
}

TEST(OracleDual, CachingReturnsIdenticalValues) {
  const auto& cg = testutil::nand2Model();
  model::GateSimulator sim(cg.gate);
  model::OracleDualInputModel oracle(sim, *cg.singles);
  const DualQuery q = query(0, 1, Edge::Falling, 300e-12, 300e-12, 50e-12);
  const double r1 = oracle.delayRatio(q);
  const long simsAfterFirst = sim.simulationCount();
  const double r2 = oracle.delayRatio(q);
  EXPECT_EQ(r1, r2);
  EXPECT_EQ(sim.simulationCount(), simsAfterFirst);  // cache hit, no new sim
}

TEST(DualMemo, KeepsEveryKeyBelowItsCap) {
  // A fresh memo (64k-slot cap) holding a few thousand keys is far below its
  // cap, so nothing may be lost: every key inserted is found again with its
  // own value.  A characterization sweep relies on this for "same work
  // at any thread count".
  const auto key = [](int i) {
    return model::DualMemo::makeKey(i % 3, (i + 1) % 3, i % 2 == 0,
                                    (50 + i) * 1e-12, (10 + 7 * i) * 1e-12,
                                    (i - 1500) * 1e-12);
  };
  constexpr int kKeys = 3000;
  model::DualMemo memo;
  for (int i = 0; i < kKeys; ++i) memo.insert(key(i), {1.0 + i, 2.0 + i});
  int found = 0;
  for (int i = 0; i < kKeys; ++i) {
    model::DualMemo::Pair p;
    if (memo.find(key(i), &p) && p.delayRatio == 1.0 + i &&
        p.transitionRatio == 2.0 + i) {
      ++found;
    }
  }
  EXPECT_EQ(found, kKeys);

  // At its cap (64 slots, 5/8 load) the memo takes no new keys: the first
  // 40 stay, each with its own value, and every later one misses.
  model::DualMemo capped(64);
  for (int i = 0; i < kKeys; ++i) capped.insert(key(i), {1.0 + i, 2.0 + i});
  for (int i = 0; i < kKeys; ++i) {
    model::DualMemo::Pair p;
    const bool hit = capped.find(key(i), &p);
    EXPECT_EQ(hit, i < 40) << "key " << i;
    if (hit) {
      EXPECT_EQ(p.delayRatio, 1.0 + i);
      EXPECT_EQ(p.transitionRatio, 2.0 + i);
    }
  }
}

TEST(DualTable, TrilinearInterpolationExactAtNodes) {
  model::DualTable t;
  t.u = {0.0, 1.0};
  t.v = {0.0, 1.0};
  t.w = {0.0, 1.0};
  t.ratio.assign(8, 0.0);
  // ratio = u + 2v + 4w at the corners -> trilinear reproduces it exactly.
  for (std::size_t iu = 0; iu < 2; ++iu) {
    for (std::size_t iv = 0; iv < 2; ++iv) {
      for (std::size_t iw = 0; iw < 2; ++iw) {
        t.at(iu, iv, iw) = static_cast<double>(iu) + 2.0 * static_cast<double>(iv) +
                           4.0 * static_cast<double>(iw);
      }
    }
  }
  const auto at = [&t](double u, double v, double w) {
    return testref::evaluateAt(t, u, v, w).value;
  };
  EXPECT_DOUBLE_EQ(at(0.0, 0.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(at(1.0, 1.0, 1.0), 7.0);
  EXPECT_DOUBLE_EQ(at(0.5, 0.5, 0.5), 3.5);
  EXPECT_DOUBLE_EQ(at(0.25, 0.75, 0.5), 0.25 + 1.5 + 2.0);
}

TEST(DualTable, ClampsOutsideGrid) {
  model::DualTable t;
  t.u = {0.0, 1.0};
  t.v = {0.0, 1.0};
  t.w = {0.0, 1.0};
  t.ratio.assign(8, 2.0);
  EXPECT_DOUBLE_EQ(testref::evaluateAt(t, -5.0, 0.5, 9.0).value, 2.0);
}

TEST(DualTable, BytesAccountsForAxesAndValues) {
  model::DualTable t;
  t.u = {0.0, 1.0};
  t.v = {0.0, 1.0, 2.0};
  t.w = {0.0};
  t.ratio.assign(6, 1.0);
  EXPECT_EQ(t.bytes(), sizeof(double) * (2 + 3 + 1 + 6));
}

TEST(TabulatedDual, AgreesWithOracleInsideGrid) {
  const auto& cg = testutil::nand2Model();
  model::GateSimulator sim(cg.gate);
  model::OracleDualInputModel oracle(sim, *cg.singles);
  // A query near the middle of the characterized region.
  const DualQuery q = query(0, 1, Edge::Falling, 400e-12, 300e-12, 60e-12);
  const double rOracle = oracle.delayRatio(q);
  const double rTable = cg.dual->delayRatio(q);
  EXPECT_NEAR(rTable, rOracle, 0.12);  // fast-config grid tolerance
}

TEST(TabulatedDual, ReturnsOneBeyondDelayWindow) {
  const auto& cg = testutil::nand2Model();
  const double d1 = cg.singles->at(0, Edge::Rising).delay(200e-12);
  EXPECT_DOUBLE_EQ(
      cg.dual->delayRatio(query(0, 1, Edge::Rising, 200e-12, 200e-12, d1 * 1.01)),
      1.0);
}

TEST(TabulatedDual, ReturnsOneBeyondTransitionWindow) {
  const auto& cg = testutil::nand2Model();
  const auto& m = cg.singles->at(0, Edge::Rising);
  const double edge = m.delay(200e-12) + m.transition(200e-12);
  EXPECT_DOUBLE_EQ(cg.dual->transitionRatio(
                       query(0, 1, Edge::Rising, 200e-12, 200e-12, edge * 1.01)),
                   1.0);
}

TEST(TabulatedDual, HasTablesForEveryPinAndEdge) {
  const auto& cg = testutil::nand2Model();
  for (int pin = 0; pin < 2; ++pin) {
    for (Edge e : {Edge::Rising, Edge::Falling}) {
      EXPECT_TRUE(cg.dual->hasTables(pin, e));
      EXPECT_FALSE(cg.dual->delayTable(pin, e).ratio.empty());
    }
  }
  EXPECT_GT(cg.dual->totalBytes(), 0u);
}

TEST(TabulatedDual, DelayRatioDirectionalPhysics) {
  // Table-based model preserves the Figure 1-2 signs at zero separation.
  const auto& cg = testutil::nand2Model();
  const double rFall =
      cg.dual->delayRatio(query(0, 1, Edge::Falling, 500e-12, 100e-12, 0.0));
  const double rRise =
      cg.dual->delayRatio(query(0, 1, Edge::Rising, 500e-12, 500e-12, 0.0));
  EXPECT_LT(rFall, 1.0);
  EXPECT_GT(rRise, 1.0);
}

}  // namespace
