// Sparse MNA solver cross-checks: SparsityPattern slot resolution, and
// SparseLu factor/refactor/solve verified against the dense LuFactorization
// oracle (dense_lu.hpp) on random SPD-ish matrices and MNA-shaped systems
// (zero-diagonal auxiliary rows, gmin ladders, stale-pivot refactors).
// Also pins the allocation-freedom contract of the Newton hot path: after a
// workspace is bound, repeated solves never allocate (spice.solve.allocs).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "dense_lu.hpp"
#include "linalg/sparse.hpp"
#include "obs/registry.hpp"
#include "obs/report.hpp"
#include "spice/capacitor.hpp"
#include "spice/mosfet.hpp"
#include "spice/newton.hpp"
#include "spice/op.hpp"
#include "spice/resistor.hpp"
#include "spice/tran.hpp"
#include "spice/vsource.hpp"

namespace {

using namespace prox;
using testref::Matrix;
using linalg::SparseLu;
using linalg::SparseMatrix;
using linalg::SparsityPattern;
using linalg::Vector;

// Deterministic xorshift64* generator: the cross-check matrices must be
// identical on every run and platform.
struct Rng {
  std::uint64_t s = 0x9e3779b97f4a7c15ull;
  std::uint64_t nextU64() {
    s ^= s >> 12;
    s ^= s << 25;
    s ^= s >> 27;
    return s * 0x2545f4914f6cdd1dull;
  }
  /// Uniform in [-1, 1).
  double next() {
    return static_cast<double>(nextU64() >> 11) * (2.0 / 9007199254740992.0) -
           1.0;
  }
};

/// Builds a pattern + values from a dense matrix, declaring exactly the
/// nonzero positions (plus the diagonal, as Circuit::finalize does).
void fromDense(const Matrix& d, SparsityPattern& p, SparseMatrix& a) {
  const std::size_t n = d.rows();
  p.reset(n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      if (d(r, c) != 0.0 || r == c) p.addEntry(r, c);
    }
  }
  p.finalize();
  a.bind(p);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      if (d(r, c) != 0.0) a.add(r, c, d(r, c));
    }
  }
}

void expectSolvesMatchDense(const Matrix& d, SparseLu& lu, const Vector& rhs,
                            double tol) {
  testref::LuFactorization dense;
  ASSERT_TRUE(dense.factor(d));
  const Vector want = dense.solve(rhs);
  Vector got = rhs;
  lu.solveInPlace(got);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_NEAR(got[i], want[i], tol) << "x[" << i << "]";
  }
}

/// Random sparse diagonally-dominant ("SPD-ish") matrix: off-diagonal
/// density ~30%, diagonal dominating its row sum.
Matrix randomSpdish(std::size_t n, Rng& rng) {
  Matrix d(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    double rowSum = 0.0;
    for (std::size_t c = 0; c < n; ++c) {
      if (r == c) continue;
      if ((rng.nextU64() % 10) < 3) {
        d(r, c) = rng.next();
        rowSum += std::fabs(d(r, c));
      }
    }
    d(r, r) = rowSum + 1.0 + std::fabs(rng.next());
  }
  return d;
}

/// MNA-shaped system: nv voltage rows (diagonally dominant conductances)
/// plus na auxiliary branch rows with +-1 incidence entries and a
/// structurally ZERO diagonal -- the shape that forces partial pivoting.
Matrix randomMna(std::size_t nv, std::size_t na, Rng& rng) {
  const std::size_t n = nv + na;
  Matrix d(n, n);
  for (std::size_t r = 0; r < nv; ++r) {
    double rowSum = 0.0;
    for (std::size_t c = 0; c < nv; ++c) {
      if (r == c) continue;
      if ((rng.nextU64() % 10) < 4) {
        const double g = -(0.1 + std::fabs(rng.next()));
        d(r, c) = g;
        rowSum += std::fabs(g);
      }
    }
    d(r, r) = rowSum + 0.5 + std::fabs(rng.next());
  }
  for (std::size_t k = 0; k < na; ++k) {
    const std::size_t row = nv + k;
    // Distinct node per branch: two sources on one node would make two
    // identical aux rows -- a genuinely singular system.
    const std::size_t node = k % nv;
    d(row, node) = 1.0;
    d(node, row) = 1.0;  // branch current into the node's KCL row
  }
  return d;
}

Vector randomRhs(std::size_t n, Rng& rng) {
  Vector b(n);
  for (double& v : b) v = rng.next();
  return b;
}

TEST(SparsityPattern, SlotsResolveAndDeduplicate) {
  SparsityPattern p;
  p.reset(3);
  p.addEntry(0, 0);
  p.addEntry(0, 2);
  p.addEntry(0, 2);  // duplicate coalesces
  p.addEntry(2, 1);
  p.finalize();

  EXPECT_EQ(p.entryCount(), 3u);
  EXPECT_NE(p.slot(0, 0), SparsityPattern::npos);
  EXPECT_NE(p.slot(0, 2), SparsityPattern::npos);
  EXPECT_NE(p.slot(2, 1), SparsityPattern::npos);
  EXPECT_EQ(p.slot(1, 1), SparsityPattern::npos);  // never declared
  EXPECT_EQ(p.slot(0, 1), SparsityPattern::npos);

  SparseMatrix a(p);
  a.at(p.slot(0, 2)) = 7.0;
  EXPECT_EQ(a.value(0, 2), 7.0);
  EXPECT_EQ(a.value(1, 0), 0.0);  // structural zero reads as 0
}

TEST(SparseLu, FactorSolveMatchesDenseOnRandomSpdish) {
  Rng rng;
  for (const std::size_t n : {3u, 8u, 17u, 32u}) {
    const Matrix d = randomSpdish(n, rng);
    SparsityPattern p;
    SparseMatrix a;
    fromDense(d, p, a);

    SparseLu lu;
    lu.analyze(p);
    ASSERT_TRUE(lu.factor(a)) << "n=" << n;
    expectSolvesMatchDense(d, lu, randomRhs(n, rng), 1e-9);
  }
}

TEST(SparseLu, FactorSolveMatchesDenseOnMnaShapes) {
  Rng rng;
  for (const std::size_t nv : {4u, 10u, 24u}) {
    const std::size_t na = nv / 3 + 1;
    const Matrix d = randomMna(nv, na, rng);
    SparsityPattern p;
    SparseMatrix a;
    fromDense(d, p, a);

    SparseLu lu;
    lu.analyze(p);
    ASSERT_TRUE(lu.factor(a)) << "nv=" << nv;
    expectSolvesMatchDense(d, lu, randomRhs(nv + na, rng), 1e-9);
  }
}

TEST(SparseLu, RefactorMatchesDenseAfterValueChange) {
  // Same pattern, new values (a Newton iteration): refactor() must agree
  // with a dense factorization of the *new* values.
  Rng rng;
  const std::size_t nv = 12;
  const std::size_t na = 4;
  const Matrix d1 = randomMna(nv, na, rng);
  SparsityPattern p;
  SparseMatrix a;
  fromDense(d1, p, a);

  SparseLu lu;
  lu.analyze(p);
  ASSERT_TRUE(lu.factor(a));

  // Perturb every structural value (keeping diagonal dominance so the
  // frozen pivot order stays numerically fine).
  Matrix d2 = d1;
  for (std::size_t r = 0; r < nv + na; ++r) {
    for (std::size_t c = 0; c < nv + na; ++c) {
      if (d1(r, c) != 0.0) {
        d2(r, c) = d1(r, c) * (1.0 + 0.05 * rng.next());
        a.at(p.slot(r, c)) = d2(r, c);
      }
    }
  }
  ASSERT_TRUE(lu.refactor(a));
  expectSolvesMatchDense(d2, lu, randomRhs(nv + na, rng), 1e-9);
}

TEST(SparseLu, RefactorBeforeFactorReportsFailure) {
  SparsityPattern p;
  SparseMatrix a;
  Matrix d(2, 2);
  d(0, 0) = 2.0;
  d(1, 1) = 3.0;
  fromDense(d, p, a);
  SparseLu lu;
  lu.analyze(p);
  EXPECT_FALSE(lu.refactor(a));  // no frozen structure yet
  EXPECT_FALSE(lu.valid());
}

TEST(SparseLu, SingularMatrixRejected) {
  // Two identical rows: numerically singular at the second pivot.
  Matrix d(3, 3);
  d(0, 0) = 1.0;
  d(0, 1) = 2.0;
  d(1, 0) = 1.0;
  d(1, 1) = 2.0;
  d(2, 2) = 1.0;
  SparsityPattern p;
  SparseMatrix a;
  fromDense(d, p, a);
  SparseLu lu;
  lu.analyze(p);
  EXPECT_FALSE(lu.factor(a));
  EXPECT_FALSE(lu.valid());
}

TEST(SparseLu, StalePivotRefactorFallsBackToFactor) {
  // Values for which the frozen pivot order is fine...
  Matrix d1(2, 2);
  d1(0, 0) = 4.0;
  d1(0, 1) = 1.0;
  d1(1, 0) = 1.0;
  d1(1, 1) = 3.0;
  SparsityPattern p;
  SparseMatrix a;
  fromDense(d1, p, a);
  SparseLu lu;
  lu.analyze(p);
  ASSERT_TRUE(lu.factor(a));

  // ...then values that zero the frozen (0, 0) pivot while staying
  // nonsingular.  refactor() must refuse; a fresh factor() (new pivoting)
  // must succeed and match the dense oracle -- the exact ladder solveNewton
  // climbs.
  Matrix d2(2, 2);
  d2(0, 1) = 1.0;
  d2(1, 0) = 1.0;
  d2(1, 1) = 1.0;
  a.setZero();
  a.add(0, 1, 1.0);
  a.add(1, 0, 1.0);
  a.add(1, 1, 1.0);
  EXPECT_FALSE(lu.refactor(a));
  ASSERT_TRUE(lu.factor(a));
  expectSolvesMatchDense(d2, lu, Vector{1.0, 2.0}, 1e-12);
}

TEST(SparseLu, GminLadderRefactorsTrackDense) {
  // The recovery ladder's gmin ramp re-solves the same pattern with shunt
  // conductances spanning nine orders of magnitude.  Every rung must stay a
  // pure refactor (frozen pivots survive) and agree with the dense oracle.
  Rng rng;
  const std::size_t nv = 10;
  const std::size_t na = 3;
  const Matrix base = randomMna(nv, na, rng);
  SparsityPattern p;
  SparseMatrix a;
  fromDense(base, p, a);
  SparseLu lu;
  lu.analyze(p);
  ASSERT_TRUE(lu.factor(a));

  const Vector rhs = randomRhs(nv + na, rng);
  for (double gmin = 1e-3; gmin >= 1e-12; gmin *= 0.1) {
    Matrix d = base;
    a.setZero();
    for (std::size_t r = 0; r < nv + na; ++r) {
      for (std::size_t c = 0; c < nv + na; ++c) {
        if (base(r, c) != 0.0) a.add(r, c, base(r, c));
      }
    }
    for (std::size_t i = 0; i < nv; ++i) {
      d(i, i) += gmin;
      a.add(i, i, gmin);
    }
    if (!lu.refactor(a)) {
      ASSERT_TRUE(lu.factor(a)) << "gmin=" << gmin;
    }
    expectSolvesMatchDense(d, lu, rhs, 1e-9);
  }
}

TEST(SparseLu, NumericPhasesNeverAllocate) {
  Rng rng;
  const Matrix d = randomMna(16, 5, rng);
  SparsityPattern p;
  SparseMatrix a;
  fromDense(d, p, a);
  SparseLu lu;
  lu.analyze(p);
  ASSERT_TRUE(lu.factor(a));

  const std::uint64_t allocsAfterFirstFactor = lu.allocCount();
  Vector b = randomRhs(21, rng);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(lu.refactor(a));
    Vector& x = b;
    lu.solveInPlace(x);
    ASSERT_TRUE(lu.factor(a));
    lu.solveInPlace(x);
    for (double& v : x) v = std::tanh(v);  // keep values bounded
  }
  EXPECT_EQ(lu.allocCount(), allocsAfterFirstFactor);
}

// -- Newton workspace: the spice-level allocation-freedom contract ----------

spice::Circuit& inverterCircuit(spice::Circuit& ckt) {
  using namespace spice;
  const NodeId vdd = ckt.node("vdd");
  const NodeId in = ckt.node("in");
  const NodeId out = ckt.node("out");
  ckt.add<VoltageSource>("vvdd", vdd, kGround, 3.3);
  ckt.add<VoltageSource>("vin", in, kGround, 1.1);
  MosfetParams nmos;
  nmos.nmos = true;
  MosfetParams pmos;
  pmos.nmos = false;
  pmos.vt0 = -0.8;
  ckt.add<Mosfet>("mp", out, in, vdd, vdd, pmos);
  ckt.add<Mosfet>("mn", out, in, kGround, kGround, nmos);
  ckt.add<Capacitor>("cl", out, kGround, 50e-15);
  ckt.add<Resistor>("rl", out, kGround, 1e8);
  return ckt;
}

TEST(NewtonWorkspace, SteadyStateSolvesAreAllocationFree) {
  using namespace spice;
  Circuit ckt;
  inverterCircuit(ckt);
  ckt.finalize();

  NewtonWorkspace ws;
  ws.bind(ckt);
  StampContext sc;
  linalg::Vector x;

  // Warm-up: first solve may grow nothing further (bind allocated it all),
  // but give the path one pass before pinning the counter.
  ASSERT_TRUE(solveNewton(ckt, x, sc, {}, ws).converged);

  const auto before = obs::snapshot().counterValue("spice.solve.allocs");
  const std::uint64_t luBefore = ws.lu.allocCount();
  for (int i = 0; i < 25; ++i) {
    linalg::Vector& xi = x;
    xi[0] += 1e-5;  // nudge so iterations do real work
    ASSERT_TRUE(solveNewton(ckt, xi, sc, {}, ws).converged);
  }
  const auto after = obs::snapshot().counterValue("spice.solve.allocs");
  EXPECT_EQ(after, before) << "Newton solves allocated after warm-up";
  EXPECT_EQ(ws.lu.allocCount(), luBefore);
}

TEST(NewtonWorkspace, JacobianReuseEngagesAndStaysCorrect) {
  using namespace spice;
  Circuit ckt;
  inverterCircuit(ckt);
  ckt.finalize();

  NewtonWorkspace ws;
  ws.bind(ckt);
  StampContext sc;
  linalg::Vector x;
  ASSERT_TRUE(solveNewton(ckt, x, sc, {}, ws).converged);
  const linalg::Vector xRef = x;

  // Re-solving from the converged point must hit the reuse fast path...
  const auto reusedBefore =
      obs::snapshot().counterValue("spice.refactor.reused");
  ASSERT_TRUE(solveNewton(ckt, x, sc, {}, ws).converged);
  const auto reusedAfter = obs::snapshot().counterValue("spice.refactor.reused");
  if (obs::kStatsCompiledIn) {
    EXPECT_GT(reusedAfter, reusedBefore);
  }

  // ...and land on the same solution to within Newton tolerance (the chord
  // step solves with a frozen Jacobian, so agreement is to vAbsTol, not
  // bit-exact).
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(x[i], xRef[i], 1e-5) << "x[" << i << "]";
  }

  // A solve with jacobianReuseTol = 0 must not reuse.
  NewtonOptions noReuse;
  noReuse.jacobianReuseTol = 0.0;
  const auto reusedBefore2 =
      obs::snapshot().counterValue("spice.refactor.reused");
  ASSERT_TRUE(solveNewton(ckt, x, sc, noReuse, ws).converged);
  EXPECT_EQ(obs::snapshot().counterValue("spice.refactor.reused"),
            reusedBefore2);
}

TEST(NewtonWorkspace, TransientRunMatchesConvenienceOverloads) {
  // The workspace-threaded transient (tran.cpp) against per-call-workspace
  // solves must be bit-identical: the workspace only changes where buffers
  // live, never the arithmetic.
  using namespace spice;
  Circuit ckt;
  inverterCircuit(ckt);
  ckt.finalize();

  NewtonWorkspace ws;
  StampContext sc;
  linalg::Vector xShared;
  linalg::Vector xLocal;
  ASSERT_TRUE(solveNewton(ckt, xShared, sc, {}, ws).converged);
  ASSERT_TRUE(solveNewton(ckt, xLocal, sc, {}).converged);
  ASSERT_EQ(xShared.size(), xLocal.size());
  for (std::size_t i = 0; i < xShared.size(); ++i) {
    EXPECT_EQ(xShared[i], xLocal[i]) << "x[" << i << "]";
  }
}

}  // namespace
