#include "model/proximity.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "obs/registry.hpp"

namespace prox::model {

namespace {
double lookupCorrection(const std::vector<double>& table,
                        std::size_t inputCount) {
  if (inputCount < 2 || table.empty()) return 0.0;
  const std::size_t idx = std::min(inputCount - 2, table.size() - 1);
  return table[idx];
}
}  // namespace

double StepCorrection::delayFor(std::size_t inputCount,
                                wave::Edge inputEdge) const {
  return lookupCorrection(
      inputEdge == wave::Edge::Rising ? delayErrorRising : delayErrorFalling,
      inputCount);
}

double StepCorrection::transitionFor(std::size_t inputCount,
                                     wave::Edge inputEdge) const {
  return lookupCorrection(inputEdge == wave::Edge::Rising
                              ? transitionErrorRising
                              : transitionErrorFalling,
                          inputCount);
}

ProximityCalculator::ProximityCalculator(cells::GateType gateType,
                                         const SingleInputModelSet& singles,
                                         const DualInputModel& dual,
                                         StepCorrection correction,
                                         ProximityOptions options)
    : ProximityCalculator(senseResolverFor(gateType), singles, dual,
                          std::move(correction), options) {}

ProximityCalculator::ProximityCalculator(SenseResolver sense,
                                         const SingleInputModelSet& singles,
                                         const DualInputModel& dual,
                                         StepCorrection correction,
                                         ProximityOptions options)
    : sense_(std::move(sense)),
      singles_(singles),
      dual_(dual),
      correction_(std::move(correction)),
      options_(options) {}

void ProximityFold::start(const std::vector<InputEvent>& events,
                          DominanceSense sense,
                          const SingleInputModelSet& singles,
                          const ProximityOptions& options) {
  started_ = true;
  finished_ = reordered_ = false;
  events_ = &events;
  sense_ = sense;
  options_ = options;
  idx_ = 1;
  windowExits_ = windowSkipped_ = 0;
  if (options_.orderByDominance) {
    dominanceOrder(events, singles, sense, order_, delay1_, crossing_);
    // A dominance reordering is any deviation from arrival order in the
    // sense direction (ascending tRef for earliest-first, descending for
    // latest-first) -- the paper's Step 1 doing real work rather than
    // echoing the input sequence.
    reordered_ = obs::kStatsCompiledIn && obs::enabled() &&
                 !std::is_sorted(order_.begin(), order_.end(),
                                 [&](std::size_t a, std::size_t b) {
                                   return sense == DominanceSense::EarliestFirst
                                              ? events[a].tRef < events[b].tRef
                                              : events[a].tRef > events[b].tRef;
                                 });
  } else {
    order_.resize(events.size());
    std::iota(order_.begin(), order_.end(), std::size_t{0});
    std::stable_sort(order_.begin(), order_.end(),
                     [&](std::size_t a, std::size_t b) {
                       return events[a].tRef < events[b].tRef;
                     });
  }
  y1_ = events[order_[0]];
  const SingleInputModel& m1 = singles.at(y1_.pin, y1_.edge);
  // Step 2 reuses the Delta^(1) that Step 1 took for its dominance order.
  d1_ = options_.orderByDominance ? delay1_[order_[0]] : m1.delay(y1_.tau);
  t1_ = m1.transition(y1_.tau);
  dCum_ = d1_;
  tCum_ = t1_;
  dBeforeLast_ = d1_;
  sLast_ = 0.0;
  processedPins_.assign(1, y1_.pin);
  transitionOnlyPins_.clear();
  correction_ = 0.0;
}

bool ProximityFold::next() {
  for (; idx_ < order_.size(); ++idx_) {
    const InputEvent& yi = (*events_)[order_[idx_]];
    const double s = yi.tRef - y1_.tRef;  // s_{y1, yi}
    // Inside the delay proximity window, eq (4.4)/(4.5) applies; outside it
    // but inside the transition-time window (Section 3: only for
    // s > Delta^(1) + tau^(1) can the effect on the output transition time
    // be ignored) the input still perturbs the transition time.
    inDelayWindow_ = s < dCum_;
    if (inDelayWindow_ || s < dCum_ + tCum_) {
      yi_ = yi;
      s_ = s;
      ++idx_;
      return true;
    }
    // Step 3's loop condition: with earliest-first ordering the first input
    // outside the window stops the processing (later inputs are assumed
    // unimportant).  With latest-first ordering (series stacks) the
    // remaining inputs are *earlier*, not later, so they are skipped
    // individually rather than cutting the loop.
    if (sense_ == DominanceSense::EarliestFirst) {
      ++windowExits_;
      windowSkipped_ += order_.size() - idx_;
      idx_ = order_.size();
      return false;
    }
    ++windowSkipped_;
  }
  return false;
}

DualQuery ProximityFold::query(DualKind kind) const {
  DualQuery q{y1_.pin, yi_.pin, y1_.edge, y1_.tau, yi_.tau};
  q.kind = kind;
  // Delay: the equivalent waveform y* reproduces the cumulative crossing
  // (eq 4.3), so the separation is measured from y*.  Transition time: the
  // paper's "slight modification of the algorithm" aligns y* on the output's
  // *completion* time (Delta + tau) instead of its crossing -- validated
  // against the simulator, like the multiplicative composition in apply().
  q.sep = kind == DualKind::Delay ? s_ + d1_ - dCum_
                                  : s_ + (d1_ + t1_) - (dCum_ + tCum_);
  return q;
}

void ProximityFold::apply(double transitionRatio, double delayRatio) {
  // Transition-time perturbations are large (a second parallel path can
  // halve the transition), where the additive form double-counts.
  if (options_.transitionComposition == TransitionComposition::Additive) {
    tCum_ += t1_ * (transitionRatio - 1.0);
  } else {
    tCum_ *= transitionRatio;
  }
  if (!inDelayWindow_) {
    transitionOnlyPins_.push_back(yi_.pin);
    return;
  }
  // Eq (4.5): change the reference back to y1.
  dBeforeLast_ = dCum_;
  dCum_ += d1_ * (delayRatio - 1.0);
  sLast_ = s_;
  processedPins_.push_back(yi_.pin);
}

void ProximityFold::finish(const StepCorrection& correction) {
  finished_ = true;
  // Corrective term (Section 4): bounded by the simultaneous-step error,
  // fading linearly to zero at s_{y1,ym} = Delta^{(m-1)}.
  if (!options_.applyCorrection || processedPins_.size() < 2 ||
      correction.empty()) {
    return;
  }
  // With latest-first ordering the "spreading apart" direction is negative
  // separation, so the fade mirrors.
  const double sEff =
      sense_ == DominanceSense::EarliestFirst ? sLast_ : -sLast_;
  const double weight =
      sEff <= 0.0 ? 1.0
                  : std::max(0.0, 1.0 - sEff / std::max(dBeforeLast_, 1e-18));
  correction_ = correction.delayFor(processedPins_.size(), y1_.edge) * weight;
  dCum_ += correction_;
  if (options_.applyTransitionCorrection) {
    tCum_ += correction.transitionFor(processedPins_.size(), y1_.edge) * weight;
  }
}

ProximityResult ProximityFold::result() && {
  ProximityResult res;
  res.delay = dCum_;
  res.transitionTime = transitionTime();
  res.dominantPin = y1_.pin;
  res.outputRefTime = outputRefTime();
  res.processedPins = std::move(processedPins_);
  res.transitionOnlyPins = std::move(transitionOnlyPins_);
  res.correctionApplied = correction_;
  return res;
}

void ProximityFold::recordStats(std::span<const ProximityFold> folds) {
  std::uint64_t computes = 0, inputsSeen = 0, reorders = 0, windowExits = 0;
  std::uint64_t windowSkipped = 0, corrections = 0, processed = 0;
  std::uint64_t transitionOnly = 0;
  PROX_OBS_BATCH(obsCells);
  for (const ProximityFold& f : folds) {
    if (!f.started_) continue;
    ++computes;
    inputsSeen += f.events_->size();
    reorders += f.reordered_ ? 1 : 0;
    windowExits += f.windowExits_;
    windowSkipped += f.windowSkipped_;
    if (!f.finished_) continue;
    processed += f.processedPins_.size();
    transitionOnly += f.transitionOnlyPins_.size();
    if (f.correction_ != 0.0) {
      ++corrections;
      // Magnitude of the corrective term, recorded as a real-valued sample
      // (seconds): mean/min/max show how hard the repair works in practice.
      PROX_OBS_RECORD_IN(obsCells, "model.proximity.correction_magnitude_s",
                         std::fabs(f.correction_));
    }
  }
  PROX_OBS_COUNT_IN(obsCells, "model.proximity.computes", computes);
  PROX_OBS_COUNT_IN(obsCells, "model.proximity.inputs_seen", inputsSeen);
  PROX_OBS_COUNT_IN(obsCells, "model.proximity.dominance_reorders", reorders);
  PROX_OBS_COUNT_IN(obsCells, "model.proximity.window_exits", windowExits);
  PROX_OBS_COUNT_IN(obsCells, "model.proximity.inputs_window_skipped",
                    windowSkipped);
  PROX_OBS_COUNT_IN(obsCells, "model.proximity.corrections_applied",
                    corrections);
  PROX_OBS_COUNT_IN(obsCells, "model.proximity.inputs_processed", processed);
  PROX_OBS_COUNT_IN(obsCells, "model.proximity.inputs_transition_only",
                    transitionOnly);
}

namespace {

/// One round's queries against one dual-input model.
struct Bucket {
  const DualInputModel* model = nullptr;
  std::vector<DualQuery> queries;
  std::vector<std::uint32_t> lanes;  ///< the lane of each query
};

/// Per-thread round scratch: buckets and answers keep their capacity across
/// calls, so a chunk of STA arcs allocates nothing per round once warm.
struct RoundScratch {
  std::vector<Bucket> buckets;
  std::size_t bucketsUsed = 0;
  std::vector<DualResult> answers;

  Bucket& bucketFor(const DualInputModel* model) {
    for (std::size_t b = 0; b < bucketsUsed; ++b) {
      if (buckets[b].model == model) return buckets[b];
    }
    if (bucketsUsed == buckets.size()) buckets.emplace_back();
    Bucket& b = buckets[bucketsUsed++];
    b.model = model;
    b.queries.clear();
    b.lanes.clear();
    return b;
  }
};

}  // namespace

void answerFolds(std::span<ProximityFold> folds, std::span<FoldLane> lanes) {
  thread_local RoundScratch s;
  for (;;) {
    s.bucketsUsed = 0;
    for (std::size_t i = 0; i < lanes.size(); ++i) {
      FoldLane& lane = lanes[i];
      if (!lane.folding) continue;
      ProximityFold& fold = folds[i];
      if (!fold.next()) {
        lane.folding = false;
        fold.finish(*lane.correction);
        continue;
      }
      Bucket& b = s.bucketFor(lane.dual);
      const auto li = static_cast<std::uint32_t>(i);
      b.queries.push_back(fold.query(DualKind::Transition));
      b.lanes.push_back(li);
      if (fold.inDelayWindow()) {
        b.queries.push_back(fold.query(DualKind::Delay));
        b.lanes.push_back(li);
      }
    }
    if (s.bucketsUsed == 0) return;

    for (std::size_t bi = 0; bi < s.bucketsUsed; ++bi) {
      const Bucket& b = s.buckets[bi];
      s.answers.assign(b.queries.size(), DualResult{});
      b.model->evaluateMany(b.queries, s.answers);
      // Staging order puts a fold's transition answer before its delay
      // answer, so a missing table fails the fold on its transition query.
      for (std::size_t k = 0; k < b.queries.size(); ++k) {
        FoldLane& lane = lanes[b.lanes[k]];
        if (!lane.folding) continue;
        const DualResult& r = s.answers[k];
        if (r.status != DualResult::Status::Ok) {
          lane.failure =
              std::make_exception_ptr(missingTableError(b.queries[k]));
          lane.folding = false;
          continue;
        }
        lane.maxClamp = std::max(lane.maxClamp, r.clampDistance);
        (b.queries[k].kind == DualKind::Delay ? lane.dRatio : lane.tRatio) =
            r.value;
      }
    }
    for (std::size_t i = 0; i < lanes.size(); ++i) {
      if (lanes[i].folding) folds[i].apply(lanes[i].tRatio, lanes[i].dRatio);
    }
  }
}

ProximityResult classicDelay(const std::vector<InputEvent>& events,
                             DominanceSense sense,
                             const SingleInputModelSet& singles) {
  PROX_OBS_COUNT("model.proximity.classic_computes", 1);
  // The STA's classic mode calls this once per arc: reuse Step 1's buffers.
  thread_local std::vector<std::size_t> order;
  thread_local std::vector<double> delay1, crossing;
  dominanceOrder(events, singles, sense, order, delay1, crossing);
  const InputEvent& y1 = events[order[0]];

  ProximityResult res;
  res.dominantPin = y1.pin;
  res.processedPins.push_back(y1.pin);
  res.delay = delay1[order[0]];
  res.transitionTime = singles.at(y1.pin, y1.edge).transition(y1.tau);
  res.outputRefTime = y1.tRef + res.delay;
  return res;
}

ProximityResult ProximityCalculator::compute(
    const std::vector<InputEvent>& events) const {
  if (events.empty()) {
    throw std::invalid_argument("ProximityCalculator: no events");
  }
  for (const InputEvent& ev : events) {
    if (ev.edge != events.front().edge) {
      throw std::invalid_argument(
          "ProximityCalculator: mixed transition directions (use GlitchModel)");
    }
  }
  ProximityFold fold;
  FoldLane lane;
  lane.dual = &dual_;
  lane.correction = &correction_;
  try {
    fold.start(events, sense_(events), singles_, options_);
    lane.folding = true;
    answerFolds({&fold, 1}, {&lane, 1});
  } catch (...) {
    // A failed start or simulation still counts the compute and the windows
    // it crossed, as a failed lookup does.
    ProximityFold::recordStats({&fold, 1});
    throw;
  }
  ProximityFold::recordStats({&fold, 1});
  if (lane.failure) std::rethrow_exception(lane.failure);
  return std::move(fold).result();
}

ProximityResult ProximityCalculator::computeClassic(
    const std::vector<InputEvent>& events) const {
  if (events.empty()) {
    throw std::invalid_argument("ProximityCalculator: no events");
  }
  return classicDelay(events, sense_(events), singles_);
}

}  // namespace prox::model
