#include "spice/newton.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/registry.hpp"
#include "support/cancel.hpp"
#include "support/fault_injection.hpp"

namespace prox::spice {

namespace {
// Counts a resize that actually grew the heap buffer (mirrors the
// accounting inside SparseLu::analyze).
template <typename T>
std::uint64_t growCount(std::vector<T>& v, std::size_t n) {
  const bool grew = n > v.capacity();
  v.resize(n);
  return grew ? 1 : 0;
}
}  // namespace

void NewtonWorkspace::bind(const Circuit& ckt) {
  const linalg::SparsityPattern& p = ckt.pattern();
  if (boundTo(ckt)) {
    invalidateFactor();
    return;
  }
  const std::size_t n = p.size();
  const std::size_t nv = static_cast<std::size_t>(ckt.voltageUnknownCount());

  std::uint64_t allocs = 1;  // SparseMatrix::bind value storage
  const std::uint64_t luBefore = lu.allocCount();
  g.bind(p);
  lu.analyze(p);
  allocs += lu.allocCount() - luBefore;
  allocs += growCount(rhs, n);
  allocs += growCount(xNew, n);
  allocs += growCount(xFactor, n);
  allocs += growCount(xEntry, n);
  allocs += growCount(diagSlots, nv);
  // The (i, i) diagonal of every voltage unknown is declared unconditionally
  // by Circuit::finalize(), so these slots always resolve.
  for (std::size_t i = 0; i < nv; ++i) diagSlots[i] = p.slot(i, i);

  boundPattern_ = &p;
  boundGeneration_ = p.generation();
  factorValid_ = false;
  PROX_OBS_COUNT("spice.solve.allocs", allocs);
}

bool NewtonWorkspace::boundTo(const Circuit& ckt) const {
  return boundPattern_ == &ckt.pattern() &&
         boundGeneration_ == ckt.pattern().generation();
}

NewtonStatus solveNewton(const Circuit& ckt, linalg::Vector& x,
                         const StampContext& sc, const NewtonOptions& opt,
                         NewtonWorkspace& ws) {
  PROX_OBS_COUNT("spice.newton.solves", 1);
  NewtonStatus status;
  if (PROX_FAULT_POINT("spice.newton", NewtonNonConverge)) {
    PROX_OBS_COUNT("spice.newton.injected_faults", 1);
    PROX_OBS_COUNT("spice.newton.nonconverged", 1);
    return status;
  }
  const std::size_t n = static_cast<std::size_t>(ckt.unknownCount());
  const std::size_t nv = static_cast<std::size_t>(ckt.voltageUnknownCount());
  if (x.size() != n) x.assign(n, 0.0);
  if (!ws.boundTo(ckt)) ws.bind(ckt);

  for (int iter = 1; iter <= opt.maxIterations; ++iter) {
    // Cancellation poll point: one thread-local load when no token is
    // installed, and a circuit this size iterates in microseconds, so a
    // tripped token (Ctrl-C, --timeout) aborts the analysis promptly.
    support::pollCancellation("spice.newton");
    status.iterations = iter;
    ws.g.setZero();
    std::fill(ws.rhs.begin(), ws.rhs.end(), 0.0);

    StampArgs args{ws.g, ws.rhs, x, sc.time, sc.dt, sc.transient,
                   sc.trapezoidal, sc.srcScale};
    for (const auto& dev : ckt.devices()) dev->stamp(args);

    if (iter == 1 && !ws.rhs.empty() &&
        PROX_FAULT_POINT("spice.newton.residual", NanResidual)) {
      PROX_OBS_COUNT("spice.newton.injected_faults", 1);
      ws.rhs[0] = std::numeric_limits<double>::quiet_NaN();
    }

    // Convergence-aid shunt to ground on every voltage unknown, written
    // through the cached diagonal slots.
    for (std::size_t i = 0; i < nv; ++i) ws.g.at(ws.diagSlots[i]) += opt.gmin;

    // Same-Jacobian fast path: when the entry iterate sits within
    // jacobianReuseTol of the iterate the cached factorization was computed
    // at -- under a matching stamp context (method / gmin exact; dt exact,
    // or within chordDtRelTol during a transient; sources only move the
    // RHS) -- the first iteration solves with the previous numeric
    // factorization.  Iteration 2 onward always refactors, so a stalled
    // reuse step falls back to a fresh Jacobian automatically.
    bool reuse = false;
    if (iter == 1 && ws.factorValid_ && ws.lu.valid() &&
        opt.jacobianReuseTol > 0.0 &&
        (sc.dt == ws.dtFactor_ ||
         (opt.chordDtRelTol > 0.0 && sc.transient &&
          std::fabs(sc.dt - ws.dtFactor_) <=
              opt.chordDtRelTol * ws.dtFactor_)) &&
        sc.transient == ws.transientFactor_ &&
        sc.trapezoidal == ws.trapezoidalFactor_ &&
        opt.gmin == ws.gminFactor_) {
      double move = 0.0;
      for (std::size_t i = 0; i < nv; ++i) {
        move = std::max(move, std::fabs(x[i] - ws.xFactor[i]));
      }
      reuse = move <= opt.jacobianReuseTol;
    }
    if (reuse) {
      PROX_OBS_COUNT("spice.refactor.reused", 1);
      ++ws.chordRun_;
    } else {
      // A fresh factorization ends any chord (reuse) run; record its length
      // so the report shows how far the fast path typically carries.
      if (ws.chordRun_ > 0) {
        PROX_OBS_HIST("spice.newton.chord_run_length", ws.chordRun_);
        ws.chordRun_ = 0;
      }
      // Numeric-only refactorization over the frozen pivot order; a full
      // factor (fresh pivoting + structure) only on the first solve or when
      // a frozen pivot degraded.
      bool ok = ws.lu.refactor(ws.g);
      if (!ok) ok = ws.lu.factor(ws.g);
      if (!ok) {
        ws.factorValid_ = false;
        status.singular = true;
        PROX_OBS_COUNT("spice.newton.iterations", status.iterations);
        PROX_OBS_HIST("spice.newton.iterations", status.iterations);
        PROX_OBS_COUNT("spice.newton.singular", 1);
        return status;
      }
      std::copy(x.begin(), x.end(), ws.xFactor.begin());
      ws.factorValid_ = true;
      ws.dtFactor_ = sc.dt;
      ws.gminFactor_ = opt.gmin;
      ws.transientFactor_ = sc.transient;
      ws.trapezoidalFactor_ = sc.trapezoidal;
    }

    std::copy(ws.rhs.begin(), ws.rhs.end(), ws.xNew.begin());
    ws.lu.solveInPlace(ws.xNew);
    linalg::Vector& xNew = ws.xNew;

    // Non-finite guard: a NaN/Inf iterate would otherwise satisfy the
    // convergence comparisons vacuously (every NaN comparison is false) and
    // be reported as converged.  Fail loudly and typed instead.
    for (double v : xNew) {
      if (!std::isfinite(v)) {
        status.nonFinite = true;
        PROX_OBS_COUNT("spice.newton.iterations", status.iterations);
        PROX_OBS_HIST("spice.newton.iterations", status.iterations);
        PROX_OBS_COUNT("spice.newton.nonfinite", 1);
        return status;
      }
    }

    // Damping: cap the largest voltage move per iteration.  Branch currents
    // are left free (they equilibrate instantly once voltages settle).
    double dvMax = 0.0;
    for (std::size_t i = 0; i < nv; ++i) {
      dvMax = std::max(dvMax, std::fabs(xNew[i] - x[i]));
    }
    double alpha = 1.0;
    if (dvMax > opt.maxVoltageStep) alpha = opt.maxVoltageStep / dvMax;

    bool converged = alpha == 1.0;  // a damped step is never the last one
    for (std::size_t i = 0; i < n; ++i) {
      const double delta = xNew[i] - x[i];
      const double absTol = i < nv ? opt.vAbsTol : opt.iAbsTol;
      if (std::fabs(delta) > absTol + opt.relTol * std::fabs(xNew[i])) {
        converged = false;
      }
      x[i] += alpha * delta;
    }
    if (converged) {
      status.converged = true;
      PROX_OBS_COUNT("spice.newton.iterations", status.iterations);
      PROX_OBS_HIST("spice.newton.iterations", status.iterations);
      return status;
    }
  }
  PROX_OBS_COUNT("spice.newton.iterations", status.iterations);
  PROX_OBS_HIST("spice.newton.iterations", status.iterations);
  PROX_OBS_COUNT("spice.newton.nonconverged", 1);
  return status;
}

NewtonStatus solveNewton(const Circuit& ckt, linalg::Vector& x,
                         const StampContext& sc, const NewtonOptions& opt) {
  NewtonWorkspace ws;
  return solveNewton(ckt, x, sc, opt, ws);
}

RecoveryOutcome solveNewtonRecover(const Circuit& ckt, linalg::Vector& x,
                                   const StampContext& sc,
                                   const NewtonOptions& opt,
                                   const RecoveryOptions& recovery,
                                   NewtonWorkspace& ws) {
  RecoveryOutcome out;
  if (!ws.boundTo(ckt)) ws.bind(ckt);
  // Entry iterate snapshot in a workspace buffer (allocation-free in steady
  // state); rungs restart from it and total failure restores it.
  ws.xEntry.assign(x.begin(), x.end());

  out.status = solveNewton(ckt, x, sc, opt, ws);
  if (out.status.converged) return out;

  // Rung 1: damping tightening.  Smaller per-iteration voltage moves with a
  // larger iteration budget walk through sharp device nonlinearities that
  // overshoot under the default damping limit.
  {
    PROX_OBS_COUNT("spice.newton.recovery.damping_attempts", 1);
    NewtonOptions tight = opt;
    tight.maxVoltageStep =
        std::max(opt.maxVoltageStep * recovery.dampingFactor, 1e-3);
    tight.maxIterations =
        opt.maxIterations * std::max(recovery.dampingIterationsFactor, 1);
    x.assign(ws.xEntry.begin(), ws.xEntry.end());
    out.status = solveNewton(ckt, x, sc, tight, ws);
    out.rung = RecoveryRung::Damping;
    if (out.status.converged) {
      PROX_OBS_COUNT("spice.newton.recovery.damping_recovered", 1);
      return out;
    }
  }

  // Rung 2: gmin continuation.  A heavy shunt makes the Jacobian strongly
  // diagonally dominant (fixing singular/near-singular systems); relaxing it
  // stage by stage carries the solution to the configured gmin.
  {
    PROX_OBS_COUNT("spice.newton.recovery.gmin_attempts", 1);
    x.assign(ws.xEntry.begin(), ws.xEntry.end());
    NewtonOptions ramp = opt;
    bool ok = true;
    for (double gmin = recovery.gminStart; gmin >= opt.gmin * 0.99;
         gmin *= recovery.gminShrink) {
      ramp.gmin = gmin;
      out.status = solveNewton(ckt, x, sc, ramp, ws);
      if (!out.status.converged) {
        ok = false;
        break;
      }
    }
    if (ok) {
      ramp.gmin = opt.gmin;
      out.status = solveNewton(ckt, x, sc, ramp, ws);
    }
    out.rung = RecoveryRung::GminRamp;
    if (out.status.converged) {
      PROX_OBS_COUNT("spice.newton.recovery.gmin_recovered", 1);
      return out;
    }
  }

  PROX_OBS_COUNT("spice.newton.recovery.exhausted", 1);
  x.assign(ws.xEntry.begin(), ws.xEntry.end());
  return out;
}

RecoveryOutcome solveNewtonRecover(const Circuit& ckt, linalg::Vector& x,
                                   const StampContext& sc,
                                   const NewtonOptions& opt,
                                   const RecoveryOptions& recovery) {
  NewtonWorkspace ws;
  return solveNewtonRecover(ckt, x, sc, opt, recovery, ws);
}

}  // namespace prox::spice
