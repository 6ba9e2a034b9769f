#pragma once
// Cell characterization flow: runs the transistor-level simulator over
// controlled stimulus grids and produces the deployable macromodel package
// for one gate:
//   * Section 2 thresholds (min V_il / max V_ih over all VTCs),
//   * single-input macromodels Delta^(1)/tau^(1) per (pin, edge),
//   * dual-input 3-D ratio tables per (reference pin, edge) -- the paper's
//     "2n macromodels for delay plus 2n for transition time" footprint,
//   * simultaneous-step corrective terms per input count and edge.

#include <memory>

#include "model/dual_input.hpp"
#include "model/proximity.hpp"
#include "support/diagnostic.hpp"

namespace prox::support {
class CancelToken;  // support/cancel.hpp
}  // namespace prox::support

namespace prox::characterize {

class CheckpointSession;  // characterize/checkpoint.hpp

struct CharacterizationConfig {
  /// Input transition-time grid for the single-input models [s].
  std::vector<double> tauGrid = {50e-12,  100e-12, 200e-12, 400e-12,
                                 700e-12, 1100e-12, 1600e-12, 2200e-12};
  /// Subset of tauGrid used as the dual-table reference-tau axis (indices).
  std::vector<std::size_t> dualTauIndices = {0, 2, 4, 6, 7};
  /// Other-input tau as a multiple of the reference Delta^(1) (v axis).
  /// The 0.1 anchor matters: simultaneous fast steps (the corrective-term
  /// characterization point) sit near v ~ 0.13, and clamping them to a
  /// coarser boundary poisons the correction.
  std::vector<double> vGrid = {0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0};
  /// Separation as a multiple of the reference Delta^(1) (w axis).  The
  /// delay proximity window ends at exactly w = 1.
  std::vector<double> wGrid = {-3.0, -2.0, -1.5, -1.0, -0.6, -0.3,
                               0.0,  0.2,  0.4,  0.6,  0.8,  1.0};
  /// Transition-table axes are normalized by tau^(1), which is typically
  /// several times smaller than Delta^(1): the other-input tau ratio can
  /// reach ~10 and the transition window extends to (Delta^(1)+tau^(1))/
  /// tau^(1), so both axes span wider ranges than the delay table's.
  std::vector<double> vGridTransition = {0.1, 0.25, 0.5, 1.0,
                                         2.0, 4.0,  8.0, 12.0};
  std::vector<double> wGridTransition = {-3.0, -2.0, -1.0, -0.5, 0.0, 0.5,
                                         1.0,  1.5,  2.0,  3.0,  4.5, 6.0};
  /// DC sweep increment for VTC extraction [V].
  double vtcStep = 0.01;
  /// Transition time used for the "step" in correction characterization [s].
  double stepTau = 50e-12;
  /// Worker threads for the sweep engine: 1 (default) runs every sweep on
  /// the calling thread; 0 resolves to par::defaultThreadCount()
  /// (PROX_THREADS env, else hardware concurrency); N > 1 adds pool workers.
  /// Every count runs the same loop with one simulator per worker and one
  /// oracle memo per gate, so results are bit-identical at any thread count
  /// and, while the memo is below its cap, so is the set of points that
  /// simulate (conditions in DESIGN.md "Parallel execution & determinism
  /// contract").
  int threads = 1;
  /// Crash-safe checkpointing: when set, every computed result (single-input
  /// table, dual-table sweep point, correction term) is journaled through
  /// the session and previously journaled results are replayed instead of
  /// re-simulated -- the `--checkpoint/--resume` machinery (checkpoint.hpp).
  /// Excluded from the checkpoint fingerprint (execution knob).  Not owned.
  CheckpointSession* checkpoint = nullptr;
  /// Cooperative cancellation: when set, sweep loops stop issuing points
  /// once the token trips and the flow unwinds with the token's typed
  /// DiagnosticError (Cancelled / DeadlineExceeded), leaving any checkpoint
  /// partial but valid.  Excluded from the fingerprint.  Not owned.
  support::CancelToken* cancel = nullptr;
  /// Progress heartbeat: > 0 prints a line to stderr roughly every this many
  /// seconds during the dual-table sweeps (points done, points/sec, ETA,
  /// checkpoint lag) and emits matching trace counters when a TraceSession
  /// is active.  0 (default) disables the heartbeat.  Purely observational:
  /// results are bit-identical either way.  Excluded from the fingerprint.
  double progressIntervalSeconds = 0.0;
};

/// The complete characterized model package for one gate.  Move-only: the
/// dual model refers to the singles set through a stable heap address.
class CharacterizedGate {
 public:
  model::Gate gate;
  std::unique_ptr<model::SingleInputModelSet> singles;
  std::unique_ptr<model::TabulatedDualInputModel> dual;
  model::StepCorrection correction;
  /// Per-point failures the healing machinery absorbed (Warning severity) --
  /// empty when the characterization ran clean.  `--strict` front ends
  /// promote a non-empty log to a hard error.
  support::DiagnosticLog diagnostics;

  /// Convenience: a ProximityCalculator over this package's tables.  Complex
  /// gates get the structural dominance-sense resolver automatically.
  model::ProximityCalculator calculator(
      model::ProximityOptions options = {}) const {
    return model::ProximityCalculator(model::senseResolverFor(gate), *singles,
                                      *dual, correction, options);
  }

  int pinCount() const { return gate.pinCount(); }
};

/// Characterizes @p spec end to end.  This is the expensive offline step
/// (hundreds of transistor-level transients); the returned package answers
/// delay queries in microseconds.
CharacterizedGate characterizeGate(const cells::CellSpec& spec,
                                   const CharacterizationConfig& config = {});

/// Complex-gate (AOI/OAI) variant of the same flow.  Non-sensitizable pin
/// pairs fall back to identity dual tables; non-sensitizable prefixes are
/// skipped in the correction characterization.
CharacterizedGate characterizeComplexGate(
    const cells::ComplexCellSpec& spec,
    const CharacterizationConfig& config = {});

/// Builds one dual-input ratio-table pair (delay + transition) for a
/// reference pin/edge using the oracle.  Exposed for tests and for the
/// storage-complexity bench.  A sweep point whose transistor-level transient
/// fails is retried once and, if still failing, left as a hole that
/// neighbor interpolation heals after the sweep: the point is recorded in
/// @p log (when non-null) at Warning severity and marked healed in the
/// tables, and the sweep completes instead of aborting.  A cancelled run
/// unwinds instead (no retry, no hole).  @p scopePrefix
/// namespaces this sweep's checkpoint records (the per-reference tables use
/// the default "dual"; the complex-gate pair matrix passes "pair" so both
/// sweeps over the same pin pair stay distinct in the journal).
void buildDualTables(model::GateSimulator& sim,
                     const model::SingleInputModelSet& singles, int refPin,
                     int otherPin, wave::Edge edge,
                     const CharacterizationConfig& config,
                     model::DualTable* delayTable,
                     model::DualTable* transitionTable,
                     support::DiagnosticLog* log = nullptr,
                     const char* scopePrefix = "dual");

/// Characterizes the simultaneous-step corrective terms for the gate given
/// an (uncorrected) calculator over @p dual.  Returns signed errors
/// (simulated minus modeled) for input counts 2..fanin.  A failed
/// correction point degrades to a zero corrective term (recorded in @p log)
/// instead of aborting.  @p threads > 1 evaluates the
/// correction points on the pool (one simulator per worker); this requires
/// a thread-safe @p dual (the tabulated model is; the oracle shares one
/// simulator and is not), so leave threads at 1 when passing an oracle.
/// @p cancel and @p checkpoint bind the correction sweep to the cooperative
/// cancellation / crash-safe checkpoint machinery (scope "corr").
model::StepCorrection characterizeStepCorrection(
    model::GateSimulator& sim, const model::SingleInputModelSet& singles,
    const model::DualInputModel& dual, double stepTau,
    support::DiagnosticLog* log = nullptr, int threads = 1,
    support::CancelToken* cancel = nullptr,
    CheckpointSession* checkpoint = nullptr);

}  // namespace prox::characterize
