#include "spice/tran.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cmath>

#include "obs/registry.hpp"
#include "obs/scoped_timer.hpp"
#include "spice/op.hpp"
#include "support/cancel.hpp"
#include "support/diagnostic.hpp"

namespace prox::spice {

wave::Waveform TranResult::node(NodeId node) const {
  wave::Waveform w;
  for (std::size_t i = 0; i < times_.size(); ++i) {
    w.append(times_[i], ckt_->nodeVoltage(solutions_[i], node));
  }
  return w;
}

wave::Waveform TranResult::node(const std::string& name) const {
  const auto id = ckt_->findNode(name);
  if (!id) throw std::invalid_argument("TranResult::node: unknown node " + name);
  return node(*id);
}

TranResult transient(Circuit& ckt, const TranOptions& opt) {
  if (!(opt.tstop > 0.0)) throw std::invalid_argument("transient: tstop <= 0");
  PROX_OBS_COUNT("spice.tran.runs", 1);
  PROX_OBS_SCOPED_TIMER("spice.tran.seconds");
  ckt.finalize();

  const double hmax = opt.hmax > 0.0 ? opt.hmax : opt.tstop / 200.0;

  // One solver workspace for the whole run: the sparse system, factorization
  // and iterate buffers are allocated here once and reused by the initial
  // operating point and every Newton solve of every timestep.  A caller-owned
  // workspace carries those allocations (and the symbolic analysis) across
  // runs; resetNumeric() forgets the previous run's factorization and pivot
  // order so this run's numerics cannot depend on it.
  NewtonWorkspace localWs;
  NewtonWorkspace& ws = opt.workspace != nullptr ? *opt.workspace : localWs;
  ws.bind(ckt);
  ws.resetNumeric();

  // Initial condition: DC operating point with sources evaluated at t = 0.
  OpOptions opOpt;
  opOpt.newton = opt.newton;
  opOpt.time = 0.0;
  auto x0 = operatingPoint(ckt, opOpt, nullptr, ws);
  if (!x0) {
    PROX_OBS_COUNT("spice.tran.initial_op_failures", 1);
    throw support::DiagnosticError(
        support::makeDiagnostic(support::StatusCode::InitialOpFailed,
                                "transient: initial operating point failed")
            .withSite("spice.tran"));
  }
  linalg::Vector x = *x0;

  for (const auto& dev : ckt.devices()) dev->startTransient(x);

  // Breakpoints inside (0, tstop): the stepper lands on each exactly and
  // takes one backward-Euler step right after it.
  std::vector<double> bps;
  for (double b : ckt.breakpoints()) {
    if (b > 0.0 && b < opt.tstop) bps.push_back(b);
  }
  std::size_t bpIdx = 0;

  std::vector<double> times{0.0};
  std::vector<linalg::Vector> solutions{x};

  const std::size_t nv = static_cast<std::size_t>(ckt.voltageUnknownCount());
  double t = 0.0;
  double h = hmax / 64.0;  // conservative first step
  bool nextStepBE = true;  // damp startup the same way as post-breakpoint
  // Voltage movement seen at the last dv-rejection.  When halving the step
  // does not shrink the movement, the jump is memoryless (e.g. a floating
  // stack node re-equilibrating through gmin after its path turns off) and
  // must be accepted rather than chased to a timestep underflow.
  double lastRejectDv = -1.0;
  // Last rung of the recovery ladder: once engaged, the rest of the run
  // integrates with backward Euler only (trapezoidal ringing on stiff
  // systems is the classic cause of unrecoverable step collapse).
  bool beOnly = false;

  StampContext sc;
  sc.transient = true;

  // Predictor buffer reused across steps (swapped with x on accept, so both
  // vectors keep their capacity for the whole run).
  linalg::Vector xNew;

  while (t < opt.tstop - 1e-21) {
    // Cancellation poll point: once per accepted-or-rejected step attempt,
    // so a Ctrl-C or --timeout aborts a long transient within one timestep.
    support::pollCancellation("spice.tran");
    // Clamp the proposed step to the horizon and the next breakpoint.
    double hTry = std::min({h, hmax, opt.tstop - t});
    while (bpIdx < bps.size() && bps[bpIdx] <= t + 1e-21) ++bpIdx;
    bool hitBreakpoint = false;
    if (bpIdx < bps.size() && t + hTry >= bps[bpIdx] - 1e-21) {
      hTry = bps[bpIdx] - t;
      hitBreakpoint = true;
    }

    sc.time = t + hTry;
    sc.dt = hTry;
    sc.trapezoidal = !nextStepBE && !beOnly;

    xNew.assign(x.begin(), x.end());  // previous solution as predictor
    NewtonStatus st;
    // Plain halving handles routine non-convergence; the per-step recovery
    // ladder (damping tightening, gmin ramp) only engages once the step has
    // collapsed near hmin and halving is clearly not the cure.
    const bool desperate = hTry <= opt.recovery.ladderStepFactor * opt.hmin;
    if (desperate) {
      PROX_OBS_COUNT("spice.tran.recovery.ladder_solves", 1);
      const RecoveryOutcome ro =
          solveNewtonRecover(ckt, xNew, sc, opt.newton, opt.recovery, ws);
      st = ro.status;
      if (st.converged && ro.rung != RecoveryRung::Plain) {
        PROX_OBS_COUNT("spice.tran.recovery.recovered_steps", 1);
      }
    } else {
      st = solveNewton(ckt, xNew, sc, opt.newton, ws);
    }

    bool reject = !st.converged;
    double dv = 0.0;
    if (!reject) {
      for (std::size_t i = 0; i < nv; ++i) {
        dv = std::max(dv, std::fabs(xNew[i] - x[i]));
      }
      // Enforce dense sampling through transitions, but never stall: once the
      // step is within an epsilon of hmin the move is accepted as-is, and a
      // movement that did not shrink with the step is memoryless -- refusing
      // it forever would underflow the timestep.
      if (dv > opt.dvMax && hTry > 16.0 * opt.hmin &&
          !(lastRejectDv >= 0.0 && dv > 0.8 * lastRejectDv)) {
        reject = true;
        lastRejectDv = dv;
      }
    }

    if (reject) {
      PROX_OBS_COUNT("spice.tran.steps_rejected", 1);
      if (st.converged) {
        PROX_OBS_COUNT("spice.tran.rejects_dv", 1);
      } else {
        PROX_OBS_COUNT("spice.tran.rejects_nonconverged", 1);
      }
      if (std::getenv("PROX_TRAN_DEBUG") != nullptr) {
        std::fprintf(stderr,
                     "tran reject: t=%g hTry=%g conv=%d singular=%d iters=%d "
                     "dv=%g\n",
                     t, hTry, st.converged, st.singular, st.iterations, dv);
      }
      PROX_OBS_COUNT("spice.tran.step_halvings", 1);
      h = hTry / 2.0;
      if (h < opt.hmin) {
        // Final recovery rung before giving up: restart the step at a sane
        // size with backward-Euler-only integration for the rest of the run.
        if (!beOnly) {
          beOnly = true;
          h = hmax / 64.0;
          lastRejectDv = -1.0;
          PROX_OBS_COUNT("spice.tran.recovery.be_fallbacks", 1);
          continue;
        }
        // Diagnose the underflow: report what the last Newton solve did at
        // this timestep instead of silently giving up after the halvings.
        PROX_OBS_COUNT("spice.tran.underflows", 1);
        char msg[256];
        std::snprintf(msg, sizeof(msg),
                      "transient: timestep underflow at t = %g (h = %g < hmin "
                      "= %g; last step: Newton %s after %d iteration%s%s%s",
                      t, h, opt.hmin,
                      st.converged ? "converged" : "did not converge",
                      st.iterations, st.iterations == 1 ? "" : "s",
                      st.singular ? ", singular Jacobian" : "",
                      st.converged ? ", rejected by dv cap)" : ")");
        throw support::DiagnosticError(
            support::makeDiagnostic(support::StatusCode::TimestepUnderflow,
                                    msg)
                .withSite("spice.tran"));
      }
      continue;
    }

    // Accept.
    PROX_OBS_COUNT("spice.tran.steps_accepted", 1);
    lastRejectDv = -1.0;
    for (const auto& dev : ckt.devices()) dev->acceptStep(xNew, sc.time, hTry);
    t = sc.time;
    std::swap(x, xNew);
    times.push_back(t);
    solutions.push_back(x);

    if (hitBreakpoint) {
      PROX_OBS_COUNT("spice.tran.breakpoints_hit", 1);
      ++bpIdx;
      nextStepBE = true;   // damp the slope discontinuity
      h = std::min(h, hmax / 64.0);
    } else {
      nextStepBE = false;
      // Grow gently when the step was easy for both Newton and the dv cap.
      if (st.iterations <= 10 && dv < 0.5 * opt.dvMax) {
        h = std::min(hTry * 1.5, hmax);
      } else {
        h = hTry;
      }
    }
  }

  return TranResult(ckt, std::move(times), std::move(solutions));
}

}  // namespace prox::spice
