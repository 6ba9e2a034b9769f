#pragma once
// Per-gate delay calculation for the STA: converts input-pin arrival events
// into an output arrival event using either the classic single-switching-
// input model or the paper's proximity model.

#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "characterize/characterize.hpp"
#include "sta/netlist.hpp"

namespace prox::sta {

/// A transition event on a net.
struct Arrival {
  double time = 0.0;   ///< reference-threshold crossing [s]
  double slope = 0.0;  ///< full transition time [s]
  wave::Edge edge = wave::Edge::Rising;
};

enum class DelayMode {
  Classic,    ///< dominant input's Delta^(1); proximity ignored
  Proximity,  ///< Algorithm ProximityDelay (Figure 4-1)
};

/// How much of the model the arc actually used.  Anything below Full means
/// the preferred calculation failed (missing/unusable tables, solver error)
/// and a cruder-but-safe estimate was substituted.
enum class ArcQuality {
  Full = 0,      ///< requested mode computed cleanly
  SingleInput,   ///< proximity failed; classic single-input delay used
  SlewEstimate,  ///< even classic failed; latest input's slew as the delay
};

struct DelayCalcOptions {
  /// When true (default), a failed delay calculation degrades down the
  /// ladder Proximity -> Classic -> slew estimate instead of throwing; each
  /// degraded arc is counted under sta.delay_calc.degraded_arcs.  false
  /// restores fail-fast evaluation.
  bool allowDegraded = true;
  /// Largest tolerated out-of-grid clamp (relative to the grid span) before
  /// a proximity lookup is considered too extrapolated to trust and the arc
  /// degrades to the classic model.  Infinity accepts any clamp.
  double maxClampDistance = std::numeric_limits<double>::infinity();
  /// Worker threads for levelized arc evaluation in TimingAnalyzer::run():
  /// 1 (default) = serial on the calling thread, 0 = par::defaultThreadCount(),
  /// N > 1 evaluates each level's arcs as pool tasks.  Arrival times are
  /// bit-identical at any thread count (results commit in instance order).
  int threads = 1;
  /// Cooperative cancellation: when set, levelized evaluation stops issuing
  /// arcs once the token trips and run() unwinds with the token's typed
  /// DiagnosticError (see support/cancel.hpp).  Not owned.
  support::CancelToken* cancel = nullptr;
  /// Structural degradation ladder for defective netlists (cycles,
  /// multiply-driven nets, dangling inputs).  Reject (default): run()
  /// throws DiagnosticError(StructuralError) naming the defect.  Degrade:
  /// levelization breaks each loop deterministically, dangling inputs
  /// become no-event nets, and every issue is reported through
  /// TimingAnalyzer::structuralIssues() with the affected instances counted
  /// as degraded arcs.
  StructuralPolicy structural = StructuralPolicy::Reject;
};

/// One arc of a batch: a characterized cell and its per-pin input arrivals
/// (nullopt for pins whose nets are stable at the non-controlling level).
/// Both pointees must outlive the call.
struct BatchArc {
  const characterize::CharacterizedGate* cell = nullptr;
  const std::vector<std::optional<Arrival>>* pins = nullptr;
};

struct BatchArcResult {
  std::optional<Arrival> arrival;  ///< nullopt when no pin switches
  ArcQuality quality = ArcQuality::Full;
};

/// Evaluates arcs[i] into results[i] (@p results at least as long as
/// @p arcs).  In Proximity mode every arc runs Algorithm ProximityDelay as a
/// model::ProximityFold, and model::answerFolds() answers the chunk's folds
/// in lockstep rounds -- the loop ProximityCalculator::compute() runs over
/// one fold.  An arc whose requested mode fails (missing table or
/// single-input model, a lookup clamped beyond opt.maxClampDistance)
/// degrades down the ladder Proximity -> classic -> slew estimate when
/// opt.allowDegraded is set.
/// All switching pins of an arc must share a direction.  After every arc is
/// evaluated, the lowest-index arc's error is thrown: std::invalid_argument
/// for mixed directions or a pin-count mismatch (caller bugs are never
/// degraded away), or, with allowDegraded off, the failing rung's error.
void evaluateGateBatch(std::span<const BatchArc> arcs, DelayMode mode,
                       const DelayCalcOptions& opt,
                       std::span<BatchArcResult> results);

/// evaluateGateBatch() over one arc: the output arrival of @p cell, or
/// nullopt when no pin switches.  @p quality (when non-null) receives how
/// far down the fallback ladder the arc landed.
std::optional<Arrival> evaluateGate(const characterize::CharacterizedGate& cell,
                                    const std::vector<std::optional<Arrival>>& pins,
                                    DelayMode mode,
                                    const DelayCalcOptions& opt = {},
                                    ArcQuality* quality = nullptr);

}  // namespace prox::sta
