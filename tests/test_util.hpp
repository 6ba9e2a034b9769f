#pragma once
// Shared helpers for the test suite: reduced characterization configs (to
// keep test runtime low), per-binary cached characterized gates, and
// single-evaluation tolerance assertions.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>

#include "characterize/characterize.hpp"

namespace prox::testutil {

/// PROX_THREADS as an int when set to a positive value, else @p fallback.
/// Test configs thread this through so the ThreadSanitizer CI job can run
/// the sweeps on 8 workers (PROX_THREADS=8) while the default tier-1 run
/// keeps them on the calling thread.
inline int envThreads(int fallback = 1) {
  const char* env = std::getenv("PROX_THREADS");
  if (env == nullptr || *env == '\0') return fallback;
  const int v = std::atoi(env);
  return v > 0 ? v : fallback;
}

/// A characterization config with coarser grids than the production default;
/// accuracy is lower but every structural property still holds.
inline characterize::CharacterizationConfig fastConfig() {
  characterize::CharacterizationConfig c;
  c.tauGrid = {50e-12, 200e-12, 700e-12, 2200e-12};
  c.dualTauIndices = {0, 1, 2, 3};
  c.vGrid = {0.1, 0.3, 1.0, 3.0, 8.0};
  c.wGrid = {-2.0, -1.0, -0.5, 0.0, 0.3, 0.6, 1.0};
  c.vGridTransition = {0.1, 0.3, 1.0, 3.0, 12.0};
  c.wGridTransition = {-2.0, -1.0, 0.0, 1.0, 2.0, 4.0, 6.0};
  c.vtcStep = 0.02;
  c.threads = envThreads(1);
  return c;
}

inline cells::CellSpec nandSpec(int fanin) {
  cells::CellSpec s;
  s.type = cells::GateType::Nand;
  s.fanin = fanin;
  return s;
}

inline cells::CellSpec norSpec(int fanin) {
  cells::CellSpec s;
  s.type = cells::GateType::Nor;
  s.fanin = fanin;
  return s;
}

inline cells::CellSpec invSpec() {
  cells::CellSpec s;
  s.type = cells::GateType::Inverter;
  s.fanin = 1;
  return s;
}

/// Cached characterized NAND2 (fast config).  Characterized once per binary.
inline const characterize::CharacterizedGate& nand2Model() {
  static const characterize::CharacterizedGate g =
      characterize::characterizeGate(nandSpec(2), fastConfig());
  return g;
}

/// Cached characterized NAND3 (fast config).
inline const characterize::CharacterizedGate& nand3Model() {
  static const characterize::CharacterizedGate g =
      characterize::characterizeGate(nandSpec(3), fastConfig());
  return g;
}

/// Cached Section 2 gate (thresholds only, no tables) for the NAND3.
inline const model::Gate& nand3Gate() {
  static const model::Gate g = model::makeGate(nandSpec(3), 0.02);
  return g;
}

inline const model::Gate& nand2Gate() {
  static const model::Gate g = model::makeGate(nandSpec(2), 0.02);
  return g;
}

// ---------------------------------------------------------------------------
// Tolerance assertions.  These are predicate-formatters driven through
// gtest's {EXPECT,ASSERT}_PRED_FORMAT3, so every argument expression is
// evaluated exactly once (the macro binds each to a parameter before the
// formatter runs) -- safe for arguments with side effects such as
// `nextSample()` or counter increments, unlike naive `#define NEAR(a,b,t)
// EXPECT_LE(std::fabs((a)-(b)), (t))` helpers that re-expand the text.
// NaN/Inf differences always fail.  See test_util_test.cpp for the
// self-test.

/// |actual - expected| <= tol.
inline ::testing::AssertionResult AbsNear(const char* actualExpr,
                                          const char* expectedExpr,
                                          const char* tolExpr, double actual,
                                          double expected, double tol) {
  const double diff = std::fabs(actual - expected);
  if (std::isfinite(diff) && diff <= tol) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << actualExpr << " = " << actual << " vs " << expectedExpr << " = "
         << expected << ": |difference| = " << diff << " exceeds " << tolExpr
         << " = " << tol;
}

/// |actual - expected| <= tol * max(|expected|, DBL_MIN-guard).  The guard
/// makes an exact-zero expectation behave like an absolute comparison
/// against tol instead of demanding bit equality.
inline ::testing::AssertionResult RelNear(const char* actualExpr,
                                          const char* expectedExpr,
                                          const char* tolExpr, double actual,
                                          double expected, double tol) {
  const double diff = std::fabs(actual - expected);
  const double scale = std::max(std::fabs(expected), 1.0e-300);
  if (std::isfinite(diff) && diff <= tol * scale) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << actualExpr << " = " << actual << " vs " << expectedExpr << " = "
         << expected << ": relative difference = " << diff / scale
         << " exceeds " << tolExpr << " = " << tol;
}

}  // namespace prox::testutil

/// Single-evaluation |actual - expected| <= tol assertions.
#define PROX_EXPECT_ABS_NEAR(actual, expected, tol) \
  EXPECT_PRED_FORMAT3(::prox::testutil::AbsNear, actual, expected, tol)
#define PROX_ASSERT_ABS_NEAR(actual, expected, tol) \
  ASSERT_PRED_FORMAT3(::prox::testutil::AbsNear, actual, expected, tol)

/// Single-evaluation relative-tolerance assertions.
#define PROX_EXPECT_REL_NEAR(actual, expected, tol) \
  EXPECT_PRED_FORMAT3(::prox::testutil::RelNear, actual, expected, tol)
#define PROX_ASSERT_REL_NEAR(actual, expected, tol) \
  ASSERT_PRED_FORMAT3(::prox::testutil::RelNear, actual, expected, tol)
