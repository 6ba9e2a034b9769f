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

/// The batch sink's per-arc state beside the arc's fold and events.
struct Lane {
  model::DominanceSense sense = model::DominanceSense::EarliestFirst;
  bool folding = false;  ///< the fold still has rounds to answer
  double tRatio = 1.0, dRatio = 1.0;  ///< the current round's answers
  double maxClamp = 0.0;  ///< worst clamp distance of the arc's lookups
  std::exception_ptr failure;  ///< why the Proximity rung failed
  std::exception_ptr escape;   ///< what this arc throws out of the batch
};

/// One round's queries against one dual-table model.
struct Bucket {
  const model::TabulatedDualInputModel* model = nullptr;
  std::vector<model::DualQuery> queries;
  std::vector<std::uint32_t> arcs;  ///< the arc of each query
};

/// Reusable per-thread scratch: the STA calls evaluateGateBatch once per
/// 64-arc chunk, and fresh folds, event vectors and buckets per call made
/// allocation churn the dominant batching cost (EXPERIMENTS.md §P3).  Every
/// buffer keeps its capacity across chunks.
struct EvalScratch {
  std::vector<model::ProximityFold> folds;
  std::vector<std::vector<model::InputEvent>> events;
  std::vector<Lane> lanes;
  std::vector<Bucket> buckets;
  std::size_t bucketsUsed = 0;
  std::vector<model::DualResult> answers;

  void reset(std::size_t n) {
    lanes.assign(n, Lane{});
    if (folds.size() < n) {
      folds.resize(n);
      events.resize(n);
    }
    for (std::size_t i = 0; i < n; ++i) {
      folds[i].reset();
      events[i].clear();
    }
  }

  Bucket& bucketFor(const model::TabulatedDualInputModel* model) {
    for (std::size_t b = 0; b < bucketsUsed; ++b) {
      if (buckets[b].model == model) return buckets[b];
    }
    if (bucketsUsed == buckets.size()) buckets.emplace_back();
    Bucket& b = buckets[bucketsUsed++];
    b.model = model;
    b.queries.clear();
    b.arcs.clear();
    return b;
  }
};

EvalScratch& evalScratch() {
  thread_local EvalScratch s;
  return s;
}

/// Answers the lanes' folds round by round until every fold has finished or
/// failed.  Each round stages every live fold's next queries, grouped by
/// table model in first-use order, and answers each group with one
/// evaluateMany().
void answerFolds(std::span<const BatchArc> arcs, const DelayCalcOptions& opt,
                 EvalScratch& s, std::uint64_t& clampedArcs) {
  const std::size_t n = arcs.size();
  for (;;) {
    s.bucketsUsed = 0;
    for (std::size_t i = 0; i < n; ++i) {
      Lane& lane = s.lanes[i];
      if (!lane.folding) continue;
      model::ProximityFold& fold = s.folds[i];
      const characterize::CharacterizedGate& cell = *arcs[i].cell;
      if (!fold.next()) {
        lane.folding = false;
        fold.finish(cell.correction);
        if (lane.maxClamp > 0.0) ++clampedArcs;
        if (lane.maxClamp > opt.maxClampDistance) {
          lane.failure = std::make_exception_ptr(support::DiagnosticError(
              support::makeDiagnostic(
                  support::StatusCode::TableOutOfRange,
                  "proximity lookup clamped beyond the trust distance")
                  .withSite("sta.delay_calc")));
        }
        continue;
      }
      Bucket& b = s.bucketFor(cell.dual.get());
      const auto arc = static_cast<std::uint32_t>(i);
      b.queries.push_back(fold.query(model::DualKind::Transition));
      b.arcs.push_back(arc);
      if (fold.inDelayWindow()) {
        b.queries.push_back(fold.query(model::DualKind::Delay));
        b.arcs.push_back(arc);
      }
    }
    if (s.bucketsUsed == 0) return;

    for (std::size_t bi = 0; bi < s.bucketsUsed; ++bi) {
      const Bucket& b = s.buckets[bi];
      s.answers.assign(b.queries.size(), model::DualResult{});
      b.model->evaluateMany(b.queries, s.answers);
      // Staging order puts an arc's transition answer before its delay
      // answer, so a missing table fails the arc on the query the scalar
      // sink would have thrown on.
      for (std::size_t k = 0; k < b.queries.size(); ++k) {
        Lane& lane = s.lanes[b.arcs[k]];
        if (!lane.folding) continue;
        const model::DualResult& r = s.answers[k];
        if (r.status != model::DualResult::Status::Ok) {
          lane.failure =
              std::make_exception_ptr(model::missingTableError(b.queries[k]));
          lane.folding = false;
          continue;
        }
        lane.maxClamp = std::max(lane.maxClamp, r.clampDistance);
        (b.queries[k].kind == model::DualKind::Delay ? lane.dRatio
                                                     : lane.tRatio) = r.value;
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      const Lane& lane = s.lanes[i];
      if (lane.folding) s.folds[i].apply(lane.tRatio, lane.dRatio);
    }
  }
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
    Lane& lane = s.lanes[i];
    std::vector<model::InputEvent>& events = s.events[i];
    const characterize::CharacterizedGate& cell = *arcs[i].cell;
    const std::vector<std::optional<Arrival>>& pins = *arcs[i].pins;
    results[i] = BatchArcResult{};
    if (static_cast<int>(pins.size()) != cell.pinCount()) {
      lane.escape = std::make_exception_ptr(
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
      lane.escape = std::make_exception_ptr(std::invalid_argument(
          "evaluateGate: mixed input directions on one gate"));
      continue;
    }
    lane.sense = model::dominanceSense(cell.gate, events);
    if (mode != DelayMode::Proximity) continue;
    try {
      // The STA always runs the default ProximityOptions, exactly what
      // cell.calculator() constructs.
      s.folds[i].start(events, lane.sense, *cell.singles, {});
      lane.folding = true;
    } catch (const std::exception&) {
      lane.failure = std::current_exception();
    }
  }

  answerFolds(arcs, opt, s, clampedArcs);

  // Degradation ladder: the requested mode first; on a model-side failure
  // fall to the classic single-input calculation, and as a last resort to a
  // pure slew estimate so the STA always completes with a bounded answer.
  for (std::size_t i = 0; i < n; ++i) {
    Lane& lane = s.lanes[i];
    const std::vector<model::InputEvent>& events = s.events[i];
    if (events.empty() || lane.escape) continue;
    const characterize::CharacterizedGate& cell = *arcs[i].cell;
    ArcQuality q = ArcQuality::Full;
    Arrival out;
    out.edge = cell.gate.spec.outputEdgeFor(events.front().edge);
    if (mode == DelayMode::Proximity && !lane.failure) {
      out.time = s.folds[i].outputRefTime();
      out.slope = s.folds[i].transitionTime();
    } else {
      if (mode == DelayMode::Proximity) {
        if (!opt.allowDegraded) {
          lane.escape = lane.failure;
          continue;
        }
        ++singleFallbacks;
        q = ArcQuality::SingleInput;
      }
      try {
        const model::ProximityResult r =
            model::classicDelay(events, lane.sense, *cell.singles);
        out.time = r.outputRefTime;
        out.slope = r.transitionTime;
      } catch (const std::exception&) {
        if (!opt.allowDegraded) {
          lane.escape = std::current_exception();
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
    if (s.lanes[i].escape) std::rethrow_exception(s.lanes[i].escape);
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
