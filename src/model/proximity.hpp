#pragma once
// Algorithm ProximityDelay (Section 4, Figure 4-1): multi-input delay and
// output transition time by repeated application of the dual-input
// proximity macromodel.
//
//   1. Order the switching inputs by dominance (most dominant = y1).
//   2. Delta := Delta_{y1}^(1).
//   3. For each next input y_i inside the proximity window (s_{y1,yi} <
//      Delta^{(i-1)}): replace the cumulative effect of y_1..y_{i-1} by an
//      equivalent waveform y* = y1 shifted so it reproduces the cumulative
//      crossing (eq 4.3), apply the dual-input model to (y*, y_i) (eq 4.4),
//      and change the reference back to y1 (eq 4.5):
//          Delta^{(i)} = Delta^{(i-1)}
//                      + Delta^{(1)} * [ D^(2)(tau_1/Delta^(1),
//                                              tau_i/Delta^(1),
//                                              (s + Delta^(1) - Delta^{(i-1)})/Delta^(1)) - 1 ]
//   4. Inputs outside the delay window but inside the transition window
//      (s < Delta + tau) still perturb the output transition time.
//   5. A corrective term repairs the two known failure modes (simultaneous
//      identical inputs; very late dominant input): full magnitude (the
//      characterized simultaneous-step error) for s_{y1,ym} <= 0, decaying
//      linearly to zero at s_{y1,ym} = Delta^{(m-1)}.
//
// The algorithm is written once, as ProximityFold, and answered by one
// loop, answerFolds(): ProximityCalculator::compute() runs it over one fold,
// sta::evaluateGateBatch() over a chunk of arcs.

#include <algorithm>
#include <cstdint>
#include <exception>
#include <span>
#include <vector>

#include "model/dominance.hpp"
#include "model/dual_input.hpp"

namespace prox::model {

/// Characterized corrective-term magnitudes (Section 4).  Entry k-2 of each
/// vector is the signed error (simulation minus uncorrected algorithm) when
/// k inputs receive a simultaneous step in the given direction.
struct StepCorrection {
  std::vector<double> delayErrorRising;       ///< [k-2] signed delay error [s]
  std::vector<double> delayErrorFalling;
  std::vector<double> transitionErrorRising;  ///< [k-2] signed error [s]
  std::vector<double> transitionErrorFalling;

  bool empty() const {
    return delayErrorRising.empty() && delayErrorFalling.empty();
  }
  double delayFor(std::size_t inputCount, wave::Edge inputEdge) const;
  double transitionFor(std::size_t inputCount, wave::Edge inputEdge) const;
};

/// How per-input transition-time ratios combine across the composition loop.
enum class TransitionComposition {
  /// tau^(i) = tau^(i-1) * T2 -- the default; accurate because transition
  /// perturbations are large and compound (see DESIGN.md 4b).
  Multiplicative,
  /// tau^(i) = tau^(i-1) + tau^(1) (T2 - 1) -- the literal analog of the
  /// paper's delay recurrence (4.5); kept for the ablation bench.
  Additive,
};

struct ProximityOptions {
  bool applyCorrection = true;
  /// The paper notes "a similar correction can be done while computing the
  /// output transition time"; on our validation workload that correction
  /// *degraded* transition accuracy (see bench_ablation_correction), so it
  /// is opt-in.
  bool applyTransitionCorrection = false;
  TransitionComposition transitionComposition =
      TransitionComposition::Multiplicative;
  /// When false, inputs are processed in raw arrival order (earliest tRef
  /// first) instead of the paper's dominance order -- the naive alternative
  /// quantified by bench_ablation_dominance.
  bool orderByDominance = true;
};

struct ProximityResult {
  double delay = 0.0;           ///< wrt the dominant input's reference crossing
  double transitionTime = 0.0;  ///< output transition time
  int dominantPin = -1;
  double outputRefTime = 0.0;   ///< absolute output crossing time
  /// Pins folded into the delay, in processing order (dominant first).
  std::vector<int> processedPins;
  /// Pins that only influenced the transition time.
  std::vector<int> transitionOnlyPins;
  double correctionApplied = 0.0;  ///< signed corrective delay term [s]
};

/// Algorithm ProximityDelay for one arc, written once as a fold that
/// answerFolds() answers round by round.  Each round stages the next input
/// inside a proximity window: its transition query, plus its delay query
/// inside the delay window.
///
///   fold.start(events, sense, singles, options);
///   while (fold.next()) {
///     const double t = ratio(fold.query(DualKind::Transition));
///     const double d = fold.inDelayWindow()
///                          ? ratio(fold.query(DualKind::Delay)) : 1.0;
///     fold.apply(t, d);
///   }
///   fold.finish(correction);
///
/// The fold owns everything else: dominance order, window exits and skips,
/// the recurrence, the corrective term and the result.
class ProximityFold {
 public:
  /// Steps 1-2: orders @p events (non-empty, same-direction, outliving the
  /// fold's use) by dominance, taking each input's Delta^(1) once, and seeds
  /// the recurrence with the dominant input's Delta^(1)/tau^(1).  Throws
  /// when a needed single-input model is missing.  Buffers keep their
  /// capacity across arcs.
  void start(const std::vector<InputEvent>& events, DominanceSense sense,
             const SingleInputModelSet& singles,
             const ProximityOptions& options);

  /// Step 3's loop: moves to the next input inside a proximity window and
  /// stages it; false once the loop is over.
  bool next();
  bool inDelayWindow() const { return inDelayWindow_; }
  /// The staged input's query (the delay query only inside the delay window).
  DualQuery query(DualKind kind) const;
  /// Folds the staged input's answers in (@p delayRatio is ignored outside
  /// the delay window).
  void apply(double transitionRatio, double delayRatio);

  /// Step 5: the corrective term, once next() has returned false.
  void finish(const StepCorrection& correction);
  double outputRefTime() const { return y1_.tRef + dCum_; }
  double transitionTime() const { return std::max(tCum_, 0.0); }
  /// The finished fold's full result (moves the pin lists out).
  ProximityResult result() &&;

  /// Marks the fold unused, so recordStats() skips it until the next start().
  void reset() { started_ = false; }

  /// Emits the model.proximity.* tallies of @p folds in one registry update:
  /// a started fold counts as a compute with its window exits and skips so
  /// far; a finished one adds its processed inputs and corrective term.
  static void recordStats(std::span<const ProximityFold> folds);

 private:
  const std::vector<InputEvent>* events_ = nullptr;
  DominanceSense sense_ = DominanceSense::EarliestFirst;
  ProximityOptions options_;
  std::vector<std::size_t> order_;
  /// Step 1's per-event Delta^(1) and predicted crossings (dominanceOrder()).
  std::vector<double> delay1_, crossing_;
  std::size_t idx_ = 1;  ///< position in order_ of the next input to visit

  InputEvent y1_;
  double d1_ = 0.0, t1_ = 0.0;      ///< Delta_{y1}^{(1)}, tau_{y1}^{(1)}
  double dCum_ = 0.0, tCum_ = 0.0;  ///< Delta^{(i-1)}, tau^{(i-1)}
  /// Delta^{(m-1)}: cumulative delay *before* the last processed input was
  /// folded in -- the corrective term's decay length.
  double dBeforeLast_ = 0.0;
  double sLast_ = 0.0;  ///< s_{y1, ym} of the last processed input

  InputEvent yi_;   ///< the staged input
  double s_ = 0.0;  ///< its s_{y1, yi}
  bool inDelayWindow_ = false;

  std::vector<int> processedPins_, transitionOnlyPins_;
  double correction_ = 0.0;

  bool started_ = false, finished_ = false, reordered_ = false;
  std::uint64_t windowExits_ = 0, windowSkipped_ = 0;
};

/// A fold's place in answerFolds(): the model that answers its queries, the
/// corrective term it finishes with, and what its answers left behind.
struct FoldLane {
  const DualInputModel* dual = nullptr;
  const StepCorrection* correction = nullptr;
  /// Set by the caller once the fold has started; answerFolds() clears it
  /// when the fold finishes or fails.
  bool folding = false;
  double maxClamp = 0.0;       ///< worst clamp distance of the fold's answers
  std::exception_ptr failure;  ///< why the fold failed, e.g. a missing table
  double tRatio = 1.0, dRatio = 1.0;  ///< the current round's answers
};

/// Answers folds[i] through lanes[i], for every folding lane, round by round
/// until each fold has finished or failed.  Each round stages every live
/// fold's queries, groups them per model in first-use order, and answers
/// each group with one evaluateMany().  A MissingTable answer fails its
/// fold with missingTableError(), the transition query's before the delay
/// query's.  An exception thrown by evaluateMany() itself (a failed oracle
/// simulation) propagates.
void answerFolds(std::span<ProximityFold> folds, std::span<FoldLane> lanes);

/// Classic single-input-switching calculation: the most dominant input's
/// Delta^(1)/tau^(1) with proximity ignored.  @p events must be non-empty;
/// throws when the dominant input's single-input model is missing.
ProximityResult classicDelay(const std::vector<InputEvent>& events,
                             DominanceSense sense,
                             const SingleInputModelSet& singles);

class ProximityCalculator {
 public:
  /// All references must outlive the calculator.  @p gateType selects the
  /// dominance sense per transition direction (see dominance.hpp).
  ProximityCalculator(cells::GateType gateType,
                      const SingleInputModelSet& singles,
                      const DualInputModel& dual,
                      StepCorrection correction = {},
                      ProximityOptions options = {});

  /// Variant with an explicit dominance-sense strategy (senseResolverFor()
  /// in dominance.hpp; complex gates need the structural one).
  ProximityCalculator(SenseResolver sense, const SingleInputModelSet& singles,
                      const DualInputModel& dual,
                      StepCorrection correction = {},
                      ProximityOptions options = {});

  /// Computes delay/transition for a set of same-direction input events:
  /// answerFolds() over one fold.  Throws std::invalid_argument for empty
  /// input or mixed directions (use GlitchModel for opposite transitions),
  /// and missingTableError() when no dual table answers a query.
  ProximityResult compute(const std::vector<InputEvent>& events) const;

  /// classicDelay() for the same events.  Used by the ablation and
  /// STA-comparison benches.
  ProximityResult computeClassic(const std::vector<InputEvent>& events) const;

 private:
  SenseResolver sense_;
  const SingleInputModelSet& singles_;
  const DualInputModel& dual_;
  StepCorrection correction_;
  ProximityOptions options_;
};

}  // namespace prox::model
