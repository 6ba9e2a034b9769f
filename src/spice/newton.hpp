#pragma once
// Damped Newton-Raphson solver for the nonlinear MNA system.  Shared by the
// operating-point, DC-sweep and transient analyses.
//
// Two entry points:
//   * solveNewton       -- one plain solve; reports a typed status.
//   * solveNewtonRecover -- the fault-tolerance ladder: on failure of the
//     plain solve it escalates through damping tightening and a gmin ramp
//     before reporting failure.  Each rung attempt and recovery is counted
//     in the observability registry (spice.newton.recovery.*).
//
// Both take a NewtonWorkspace: the reusable sparse system (matrix, RHS,
// iterate buffers, LU factorization) bound once per circuit and carried
// across every iteration and timestep of an analysis, so the hot loop is
// allocation-free.  The convenience overloads without a workspace create a
// transient one (cold paths and tests only).

#include "linalg/sparse.hpp"
#include "spice/circuit.hpp"
#include "support/diagnostic.hpp"

namespace prox::spice {

struct NewtonOptions {
  int maxIterations = 100;
  double vAbsTol = 1e-6;   ///< absolute tolerance on node voltages [V]
  double iAbsTol = 1e-9;   ///< absolute tolerance on branch currents [A]
  double relTol = 1e-3;    ///< relative tolerance on all unknowns
  double maxVoltageStep = 0.5;  ///< per-iteration damping limit on voltages [V]
  double gmin = 1e-12;     ///< shunt conductance to ground on every node [S]
  /// Same-Jacobian fast path: when the entry iterate of a solve is within
  /// this distance (max over node voltages, [V]) of the iterate the current
  /// numeric factorization was computed at -- and the stamp context is
  /// unchanged -- the first iteration reuses that factorization instead of
  /// refactoring.  Iteration 2 onward always refactors, so a stalled reuse
  /// step self-corrects.  Set to 0 to disable.
  double jacobianReuseTol = 1e-4;
  /// Transient-only widening of the fast path's stamp-context match: the
  /// cached factorization may also be reused when the current timestep
  /// differs from the one it was computed at by at most this relative
  /// amount.  The iterate-distance guard above still applies, and iteration
  /// 2 onward always refactors, so a chord step taken with a slightly-stale
  /// dt self-corrects exactly like one taken with a stale iterate.  Set to
  /// 0 (the default) to require an exact dt match.
  double chordDtRelTol = 0.0;
};

/// Time/integration context for device stamping, shared across iterations.
struct StampContext {
  double time = 0.0;
  double dt = 0.0;
  bool transient = false;
  bool trapezoidal = true;
  double srcScale = 1.0;
};

struct NewtonStatus {
  bool converged = false;
  int iterations = 0;
  bool singular = false;
  bool nonFinite = false;  ///< NaN/Inf appeared in the solution vector

  /// Typed view of the outcome for diagnostics.
  support::StatusCode code() const {
    if (converged) return support::StatusCode::Ok;
    if (singular) return support::StatusCode::SingularMatrix;
    if (nonFinite) return support::StatusCode::NonFiniteSolution;
    return support::StatusCode::NewtonNonConverge;
  }
};

/// Escalation policy for solveNewtonRecover and the transient stepper.
struct RecoveryOptions {
  /// Rung 1 (damping tightening): maxVoltageStep is multiplied by this and
  /// the iteration budget by dampingIterationsFactor.
  double dampingFactor = 0.2;
  int dampingIterationsFactor = 3;
  /// Rung 2 (gmin ramp): solve with a heavy shunt first, then relax it by
  /// gminShrink per stage down to the configured gmin.
  double gminStart = 1e-3;
  double gminShrink = 0.1;
  /// Transient only: the ladder engages once the timestep has been halved to
  /// within ladderStepFactor * hmin (the plain halving cascade runs first).
  double ladderStepFactor = 64.0;
};

/// Which recovery rung produced the final status.
enum class RecoveryRung {
  Plain = 0,     ///< no escalation needed
  Damping = 1,   ///< tightened per-iteration voltage damping
  GminRamp = 2,  ///< gmin continuation from a heavy shunt
};

struct RecoveryOutcome {
  NewtonStatus status;
  RecoveryRung rung = RecoveryRung::Plain;
};

/// Reusable solve state for one circuit, owned by the analysis driver
/// (operating point, DC sweep, transient stepper) and threaded through every
/// solveNewton call.  bind() performs all allocation up front -- matrix
/// values, RHS/iterate buffers, the symbolic LU analysis, cached diagonal
/// slots for the gmin shunt -- so the Newton loop itself never allocates.
/// Allocation events are counted under spice.solve.allocs.
///
/// The workspace also carries the numeric factorization across solves for
/// the same-Jacobian fast path (NewtonOptions::jacobianReuseTol), together
/// with the iterate and stamp context it was computed at.
///
/// Not thread-safe; use one workspace per thread/circuit.
class NewtonWorkspace {
 public:
  /// Binds to @p ckt's finalized pattern.  No-op (beyond dropping the cached
  /// factorization) when already bound to the current pattern generation.
  void bind(const Circuit& ckt);

  /// True when bound to @p ckt's current pattern generation.
  bool boundTo(const Circuit& ckt) const;

  /// Drops the cached numeric factorization; the next solve refactors.
  void invalidateFactor() { factorValid_ = false; }

  /// Forgets every numeric result while keeping the symbolic analysis and
  /// all buffers: drops the cached factorization AND the frozen pivot
  /// structure, so the next solve runs a full factor() with fresh pivoting.
  /// Call between independent runs that share one workspace (adjacent
  /// characterization sweep points); each run is then bit-identical to one
  /// on a freshly bound workspace, while skipping re-analysis and every
  /// buffer allocation.
  void resetNumeric() {
    factorValid_ = false;
    chordRun_ = 0;
    lu.invalidateStructure();
  }

  // Solver-owned buffers, public for the solveNewton implementation.
  linalg::SparseMatrix g;
  linalg::Vector rhs;
  linalg::Vector xNew;
  linalg::Vector xEntry;  ///< recovery-ladder entry-iterate snapshot
  linalg::SparseLu lu;
  std::vector<std::size_t> diagSlots;  ///< slot of (i, i) per voltage unknown

  // Jacobian-reuse bookkeeping: the iterate and stamp context the current
  // numeric factorization was computed at.
  linalg::Vector xFactor;
  bool factorValid_ = false;
  /// Consecutive solves that reused the cached factorization (chord steps);
  /// flushed into the spice.newton.chord_run_length histogram when the run
  /// ends with a fresh (re)factorization.
  std::uint64_t chordRun_ = 0;
  double dtFactor_ = 0.0;
  double gminFactor_ = 0.0;
  bool transientFactor_ = false;
  bool trapezoidalFactor_ = false;

 private:
  const linalg::SparsityPattern* boundPattern_ = nullptr;
  std::uint64_t boundGeneration_ = 0;
};

/// Runs Newton-Raphson starting from @p x (updated in place with the best
/// iterate).  The circuit must be finalized.  @p ws is bound on demand and
/// keeps its numeric factorization across calls.
NewtonStatus solveNewton(const Circuit& ckt, linalg::Vector& x,
                         const StampContext& sc, const NewtonOptions& opt,
                         NewtonWorkspace& ws);

/// Convenience overload with a solve-local workspace (allocates; cold paths
/// and tests only).
NewtonStatus solveNewton(const Circuit& ckt, linalg::Vector& x,
                         const StampContext& sc, const NewtonOptions& opt);

/// Plain solve plus the recovery ladder: on non-convergence the solve is
/// retried from the entry iterate with tightened damping, then with a gmin
/// continuation ramp.  On total failure @p x is restored to the entry
/// iterate and the last rung's status is returned.
RecoveryOutcome solveNewtonRecover(const Circuit& ckt, linalg::Vector& x,
                                   const StampContext& sc,
                                   const NewtonOptions& opt,
                                   const RecoveryOptions& recovery,
                                   NewtonWorkspace& ws);

/// Convenience overload with a solve-local workspace.
RecoveryOutcome solveNewtonRecover(const Circuit& ckt, linalg::Vector& x,
                                   const StampContext& sc,
                                   const NewtonOptions& opt,
                                   const RecoveryOptions& recovery = {});

}  // namespace prox::spice
