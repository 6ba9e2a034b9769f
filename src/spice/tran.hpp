#pragma once
// Adaptive-timestep transient analysis.
//
// Integration: trapezoidal companion models by default (2nd order, A-stable)
// with a backward-Euler step taken immediately after every source breakpoint
// to damp the trapezoidal method's response to slope discontinuities.
// Step control combines three signals:
//   * Newton convergence (non-convergence halves the step),
//   * a per-step node-voltage movement cap (dvMax) that bounds the local
//     truncation error and guarantees dense sampling through transitions,
//   * hard breakpoints from PWL sources that the stepper lands on exactly.

#include <stdexcept>
#include <vector>

#include "spice/newton.hpp"
#include "waveform/waveform.hpp"

namespace prox::spice {

struct TranOptions {
  double tstop = 0.0;      ///< end time [s]; must be positive
  double hmax = 0.0;       ///< max step; 0 selects tstop/200
  double hmin = 1e-18;     ///< absolute minimum step before giving up
  double dvMax = 0.05;     ///< max node-voltage change per accepted step [V]
  NewtonOptions newton;
  /// Fault-tolerance ladder: once halving approaches hmin, failed steps are
  /// retried with tightened damping and a gmin ramp (solveNewtonRecover);
  /// as a last rung the run switches to BE-only integration before a typed
  /// timestep-underflow diagnostic is raised.
  RecoveryOptions recovery;
  /// Optional caller-owned solver workspace.  When set, the run binds it
  /// (a no-op when already bound to the circuit's pattern) and numerically
  /// resets it instead of allocating a fresh workspace, so repeated
  /// transients over the same circuit -- adjacent characterization sweep
  /// points -- skip the symbolic LU analysis and every buffer allocation.
  /// The reset keeps each run bit-identical to one on a fresh workspace.
  NewtonWorkspace* workspace = nullptr;
};

class TranResult {
 public:
  TranResult(const Circuit& ckt, std::vector<double> times,
             std::vector<linalg::Vector> solutions)
      : ckt_(&ckt), times_(std::move(times)), solutions_(std::move(solutions)) {}

  const std::vector<double>& times() const { return times_; }
  const std::vector<linalg::Vector>& solutions() const { return solutions_; }
  std::size_t pointCount() const { return times_.size(); }

  /// Voltage waveform of @p node over the simulated window.
  wave::Waveform node(NodeId node) const;

  /// Voltage waveform of the node named @p name.
  wave::Waveform node(const std::string& name) const;

 private:
  const Circuit* ckt_;
  std::vector<double> times_;
  std::vector<linalg::Vector> solutions_;
};

/// Runs a transient analysis from t = 0 to opt.tstop.  The circuit's DC
/// operating point at t = 0 provides the initial condition.
/// Throws support::DiagnosticError (a std::runtime_error carrying a typed
/// StatusCode: InitialOpFailed or TimestepUnderflow) when the initial OP
/// fails or a timestep underflows after the recovery ladder is exhausted.
TranResult transient(Circuit& ckt, const TranOptions& opt);

}  // namespace prox::spice
