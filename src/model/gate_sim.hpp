#pragma once
// Gate-level simulation facade: runs the transistor-level simulator on a cell
// with a set of input events and measures delay / transition time using the
// Section 2 thresholds.  This is the "HSPICE" of the reproduction -- both the
// characterization flow and the validation experiments go through it.

#include <optional>
#include <vector>

#include "cells/complex_fixture.hpp"
#include "cells/fixture.hpp"
#include "model/dual_memo.hpp"
#include "model/stimulus.hpp"
#include "vtc/complex.hpp"
#include "vtc/thresholds.hpp"

namespace prox::model {

/// A gate plus its (Section 2) measurement thresholds.
///
/// For simple cells `spec` fully describes the circuit.  For complex
/// (AOI/OAI) gates `complex` holds the pull network and `spec` mirrors the
/// common fields (type = GateType::Complex, fanin, technology, sizing, load)
/// so that downstream code can treat both uniformly.
struct Gate {
  cells::CellSpec spec;
  std::optional<cells::ComplexCellSpec> complex;
  wave::Thresholds thresholds;

  int pinCount() const {
    return spec.type == cells::GateType::Inverter ? 1 : spec.fanin;
  }
};

/// Builds a Gate by extracting every VTC and applying the min-V_il/max-V_ih
/// rule.  @p vtcStep is the DC sweep increment.
Gate makeGate(const cells::CellSpec& spec, double vtcStep = 0.01);

/// Complex-gate variant: thresholds come from every *sensitizable* subset's
/// VTC (see vtc/complex.hpp).
Gate makeComplexGate(const cells::ComplexCellSpec& spec, double vtcStep = 0.01);

/// Result of one measured transient.
struct SimOutcome {
  wave::Waveform out;                     ///< output waveform (absolute time)
  std::optional<double> delay;            ///< wrt the reference event [s]
  std::optional<double> transitionTime;   ///< output transition time [s]
  std::optional<double> outputRefTime;    ///< absolute output crossing [s]
  double minOutputVoltage = 0.0;          ///< over the simulated window
  double maxOutputVoltage = 0.0;
};

class GateSimulator {
 public:
  explicit GateSimulator(Gate gate);

  const Gate& gate() const { return gate_; }
  const wave::Thresholds& thresholds() const { return gate_.thresholds; }

  /// Simulates the gate with @p events applied (remaining inputs held at the
  /// non-controlling level).  Delay and transition time are measured with
  /// respect to events[refIdx] and the output edge implied by its direction.
  /// Events may sit anywhere on the time axis (including negative tRef); the
  /// simulation window is shifted and sized automatically.
  SimOutcome simulate(const std::vector<InputEvent>& events,
                      std::size_t refIdx = 0, double dvMax = 0.05);

  /// Single-switching-input measurement (the Delta^(1)/tau^(1) primitives).
  SimOutcome simulateSingle(const InputEvent& ev, double dvMax = 0.05);

  /// Number of transistor-level transients run so far (for the perf bench).
  long simulationCount() const { return simCount_; }

  /// Memo shared by every OracleDualInputModel constructed over this
  /// simulator (and by a parallel sweep's per-worker oracles, which pass it
  /// explicitly), so repeated (pins, slew, separation) oracle queries across
  /// sweep steps -- and across whole sweeps over the same simulator -- skip
  /// the transient re-run.
  DualMemo& dualMemo() { return dualMemo_; }

 private:
  Gate gate_;
  std::optional<cells::CellFixture> fixture_;
  std::optional<cells::ComplexCellFixture> complexFixture_;
  long simCount_ = 0;
  DualMemo dualMemo_;
};

}  // namespace prox::model
