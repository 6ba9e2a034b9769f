#include "sta/delay_calc.hpp"

#include <algorithm>
#include <cstdint>
#include <exception>
#include <stdexcept>

#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "support/diagnostic.hpp"

namespace prox::sta {

namespace {

/// The STA's per-arc state beside the arc's fold and its lane.
struct ArcState {
  model::DominanceSense sense = model::DominanceSense::EarliestFirst;
  std::exception_ptr escape;  ///< what this arc throws out of the batch
};

/// Reusable per-thread scratch: the STA calls evaluateGateBatch once per
/// 64-arc chunk, and fresh folds and event vectors per call made allocation
/// churn the dominant batching cost (EXPERIMENTS.md §P3).  Every buffer keeps
/// its capacity across chunks.
struct EvalScratch {
  std::vector<model::ProximityFold> folds;
  std::vector<std::vector<model::InputEvent>> events;
  std::vector<model::FoldLane> lanes;
  std::vector<ArcState> states;

  void reset(std::size_t n) {
    lanes.assign(n, model::FoldLane{});
    states.assign(n, ArcState{});
    if (folds.size() < n) {
      folds.resize(n);
      events.resize(n);
    }
    for (std::size_t i = 0; i < n; ++i) {
      folds[i].reset();
      events[i].clear();
    }
  }
};

EvalScratch& evalScratch() {
  thread_local EvalScratch s;
  return s;
}

}  // namespace

void evaluateGateBatch(std::span<const BatchArc> arcs, DelayMode mode,
                       const DelayCalcOptions& opt,
                       std::span<BatchArcResult> results) {
  if (results.size() < arcs.size()) {
    throw std::invalid_argument("evaluateGateBatch: results span too small");
  }
  const std::size_t n = arcs.size();
  if (n == 0) return;
  EvalScratch& s = evalScratch();
  s.reset(n);
  std::uint64_t idle = 0, arcEvals = 0, switchingPins = 0, clampedArcs = 0;
  std::uint64_t singleFallbacks = 0, slewFallbacks = 0, degraded = 0;

  // Setup: events, caller-bug checks, and Steps 1-2 of every fold.
  for (std::size_t i = 0; i < n; ++i) {
    ArcState& st = s.states[i];
    model::FoldLane& lane = s.lanes[i];
    std::vector<model::InputEvent>& events = s.events[i];
    const characterize::CharacterizedGate& cell = *arcs[i].cell;
    const std::vector<std::optional<Arrival>>& pins = *arcs[i].pins;
    results[i] = BatchArcResult{};
    if (static_cast<int>(pins.size()) != cell.pinCount()) {
      st.escape = std::make_exception_ptr(
          std::invalid_argument("evaluateGate: pin count mismatch"));
      continue;
    }
    for (std::size_t p = 0; p < pins.size(); ++p) {
      if (!pins[p]) continue;
      events.push_back({static_cast<int>(p), pins[p]->edge, pins[p]->time,
                        pins[p]->slope});
    }
    if (events.empty()) {
      ++idle;
      continue;
    }
    ++arcEvals;
    switchingPins += events.size();
    const wave::Edge edge = events.front().edge;
    if (std::any_of(events.begin(), events.end(),
                    [edge](const auto& ev) { return ev.edge != edge; })) {
      st.escape = std::make_exception_ptr(std::invalid_argument(
          "evaluateGate: mixed input directions on one gate"));
      continue;
    }
    st.sense = model::dominanceSense(cell.gate, events);
    if (mode != DelayMode::Proximity) continue;
    lane.dual = cell.dual.get();
    lane.correction = &cell.correction;
    try {
      // The STA always runs the default ProximityOptions, exactly what
      // cell.calculator() constructs.
      s.folds[i].start(events, st.sense, *cell.singles, {});
      lane.folding = true;
    } catch (const std::exception&) {
      lane.failure = std::current_exception();
    }
  }

  model::answerFolds(std::span(s.folds.data(), n), s.lanes);

  // Degradation ladder: the requested mode first; on a model-side failure
  // fall to the classic single-input calculation, and as a last resort to a
  // pure slew estimate so the STA always completes with a bounded answer.
  for (std::size_t i = 0; i < n; ++i) {
    ArcState& st = s.states[i];
    model::FoldLane& lane = s.lanes[i];
    const std::vector<model::InputEvent>& events = s.events[i];
    if (events.empty() || st.escape) continue;
    const characterize::CharacterizedGate& cell = *arcs[i].cell;
    if (mode == DelayMode::Proximity && !lane.failure) {
      // Trust distance: a finished fold fails when its worst lookup clamped
      // too far outside the grid.
      if (lane.maxClamp > 0.0) ++clampedArcs;
      if (lane.maxClamp > opt.maxClampDistance) {
        lane.failure = std::make_exception_ptr(support::DiagnosticError(
            support::makeDiagnostic(
                support::StatusCode::TableOutOfRange,
                "proximity lookup clamped beyond the trust distance")
                .withSite("sta.delay_calc")));
      }
    }
    ArcQuality q = ArcQuality::Full;
    Arrival out;
    out.edge = cell.gate.spec.outputEdgeFor(events.front().edge);
    if (mode == DelayMode::Proximity && !lane.failure) {
      out.time = s.folds[i].outputRefTime();
      out.slope = s.folds[i].transitionTime();
    } else {
      if (mode == DelayMode::Proximity) {
        if (!opt.allowDegraded) {
          st.escape = lane.failure;
          continue;
        }
        ++singleFallbacks;
        q = ArcQuality::SingleInput;
      }
      try {
        const model::ProximityResult r =
            model::classicDelay(events, st.sense, *cell.singles);
        out.time = r.outputRefTime;
        out.slope = r.transitionTime;
      } catch (const std::exception&) {
        if (!opt.allowDegraded) {
          st.escape = std::current_exception();
          continue;
        }
        // Last rung: no model answered, so bound the arc by the latest
        // input's transition -- arrival after one full slew, slope carried
        // through.
        ++slewFallbacks;
        q = ArcQuality::SlewEstimate;
        const auto latest = std::max_element(
            events.begin(), events.end(),
            [](const model::InputEvent& a, const model::InputEvent& b) {
              return a.tRef < b.tRef;
            });
        out.time = latest->tRef + latest->tau;
        out.slope = latest->tau;
      }
    }
    if (q != ArcQuality::Full) {
      ++degraded;
      // Pin each degradation to its moment on the evaluating thread's track.
      PROX_OBS_TRACE_INSTANT("sta.arc_degraded");
    }
    results[i].arrival = out;
    results[i].quality = q;
  }

  model::ProximityFold::recordStats(std::span(s.folds.data(), n));
  PROX_OBS_BATCH(obsCells);
  PROX_OBS_COUNT_IN(obsCells, "sta.delay_calc.idle_gates", idle);
  PROX_OBS_COUNT_IN(obsCells, "sta.delay_calc.arc_evals", arcEvals);
  PROX_OBS_COUNT_IN(obsCells, "sta.delay_calc.switching_pins", switchingPins);
  PROX_OBS_COUNT_IN(obsCells, "sta.delay_calc.clamped_arcs", clampedArcs);
  PROX_OBS_COUNT_IN(obsCells, "sta.delay_calc.single_input_fallbacks",
                    singleFallbacks);
  PROX_OBS_COUNT_IN(obsCells, "sta.delay_calc.slew_fallbacks", slewFallbacks);
  PROX_OBS_COUNT_IN(obsCells, "sta.delay_calc.degraded_arcs", degraded);

  for (std::size_t i = 0; i < n; ++i) {
    if (s.states[i].escape) std::rethrow_exception(s.states[i].escape);
  }
}

std::optional<Arrival> evaluateGate(const characterize::CharacterizedGate& cell,
                                    const std::vector<std::optional<Arrival>>& pins,
                                    DelayMode mode,
                                    const DelayCalcOptions& opt,
                                    ArcQuality* quality) {
  if (quality != nullptr) *quality = ArcQuality::Full;
  const BatchArc arc{&cell, &pins};
  BatchArcResult result;
  evaluateGateBatch({&arc, 1}, mode, opt, {&result, 1});
  if (quality != nullptr) *quality = result.quality;
  return result.arrival;
}

}  // namespace prox::sta
