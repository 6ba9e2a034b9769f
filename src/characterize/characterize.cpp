#include "characterize/characterize.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <optional>
#include <stdexcept>

#include "characterize/checkpoint.hpp"
#include "obs/registry.hpp"
#include "obs/scoped_timer.hpp"
#include "obs/trace.hpp"
#include "par/parallel_for.hpp"
#include "support/budget.hpp"
#include "support/cancel.hpp"
#include "support/journal.hpp"

namespace prox::characterize {

namespace {

/// Interpolates a hole from its nearest finite neighbors along one grid
/// axis, weighted by axis coordinate.  @p sample maps an index on that axis
/// to the (pristine) table value; returns false when the whole line is holes.
template <class Sample>
bool healAlong(const std::vector<double>& grid, std::size_t pos,
               const Sample& sample, double* out) {
  double below = 0.0;
  double above = 0.0;
  double xb = 0.0;
  double xa = 0.0;
  bool hasBelow = false;
  bool hasAbove = false;
  for (std::size_t k = pos; k-- > 0;) {
    const double r = sample(k);
    if (std::isfinite(r)) {
      below = r;
      xb = grid[k];
      hasBelow = true;
      break;
    }
  }
  for (std::size_t k = pos + 1; k < grid.size(); ++k) {
    const double r = sample(k);
    if (std::isfinite(r)) {
      above = r;
      xa = grid[k];
      hasAbove = true;
      break;
    }
  }
  if (hasBelow && hasAbove) {
    const double f = xa > xb ? (grid[pos] - xb) / (xa - xb) : 0.5;
    *out = below + f * (above - below);
    return true;
  }
  if (hasBelow) {
    *out = below;
    return true;
  }
  if (hasAbove) {
    *out = above;
    return true;
  }
  return false;
}

/// Replaces every non-finite table entry by neighbor interpolation -- along
/// the w line first (the smoothest direction of the ratio surface), then v,
/// then u, falling back to the identity ratio 1.0 for fully isolated holes.
/// Healed entries are marked in the table.  Returns the number healed.
std::size_t healTable(model::DualTable& t) {
  std::vector<std::array<std::size_t, 3>> holes;
  for (std::size_t iu = 0; iu < t.u.size(); ++iu) {
    for (std::size_t iv = 0; iv < t.v.size(); ++iv) {
      for (std::size_t iw = 0; iw < t.w.size(); ++iw) {
        if (!std::isfinite(t.at(iu, iv, iw))) holes.push_back({iu, iv, iw});
      }
    }
  }
  if (holes.empty()) return 0;
  const model::DualTable orig = t;  // heal from pristine values only
  for (const auto& h : holes) {
    const std::size_t iu = h[0];
    const std::size_t iv = h[1];
    const std::size_t iw = h[2];
    double val = 1.0;
    const bool ok =
        healAlong(t.w, iw, [&](std::size_t k) { return orig.at(iu, iv, k); },
                  &val) ||
        healAlong(t.v, iv, [&](std::size_t k) { return orig.at(iu, k, iw); },
                  &val) ||
        healAlong(t.u, iu, [&](std::size_t k) { return orig.at(k, iv, iw); },
                  &val);
    t.at(iu, iv, iw) = ok ? val : 1.0;
    t.markHealed(iu, iv, iw);
  }
  return holes.size();
}

/// Describes a per-point failure, preserving the typed diagnostic when the
/// exception carries one.  Parallel sweeps collect these into per-point
/// slots and merge them into the log in enumeration order, so the log
/// content is independent of task interleaving.
support::Diagnostic describePointFailure(const std::exception& e, int refPin,
                                         double tauRef, double sep) {
  const auto* de = dynamic_cast<const support::DiagnosticError*>(&e);
  support::Diagnostic d =
      de ? de->diagnostic()
         : support::makeDiagnostic(support::StatusCode::SimulationFailed,
                                   e.what());
  return d.withSeverity(support::Severity::Warning)
      .withSite("characterize.dual_sweep")
      .withPin(refPin)
      .withSweepPoint(tauRef, sep);
}

/// Merges per-task diagnostic slots into @p log in task order.
void mergeDiagnostics(support::DiagnosticLog* log,
                      std::vector<std::optional<support::Diagnostic>>& slots) {
  if (log == nullptr) return;
  for (auto& d : slots) {
    if (d) log->record(std::move(*d));
  }
}

/// One simulator per parallelFor worker: worker 0 is the caller's @p sim,
/// so a serial run constructs nothing, and any other worker builds its own
/// over the same gate on first use.  A transient is a pure function of the
/// gate and its events (transient() resets the solver's numeric state on
/// every run), so which worker simulates a point never changes a bit.
class WorkerSimulators {
 public:
  explicit WorkerSimulators(model::GateSimulator& sim) : sim_(sim) {}
  WorkerSimulators(const WorkerSimulators&) = delete;
  WorkerSimulators& operator=(const WorkerSimulators&) = delete;

  model::GateSimulator& operator[](int worker) {
    if (worker == 0) return sim_;
    auto& own = own_[static_cast<std::size_t>(worker)];
    if (!own) own = std::make_unique<model::GateSimulator>(sim_.gate());
    return *own;
  }

 private:
  model::GateSimulator& sim_;
  std::array<std::unique_ptr<model::GateSimulator>, par::kMaxThreads> own_;
};

/// Periodic sweep progress: points/sec, ETA and checkpoint lag, reported by
/// whichever worker crosses the interval boundary first.  Purely
/// observational -- it reads counters and the clock, never results, so the
/// determinism contract is untouched.
class ProgressHeartbeat {
 public:
  ProgressHeartbeat(std::string label, std::size_t total,
                    const CharacterizationConfig& config)
      : label_(std::move(label)),
        total_(total),
        intervalNs_(static_cast<std::int64_t>(config.progressIntervalSeconds *
                                              1e9)),
        checkpoint_(config.checkpoint),
        start_(std::chrono::steady_clock::now()) {
    nextBeat_.store(intervalNs_, std::memory_order_relaxed);
  }

  /// Called once per completed (or replayed) sweep point, from any worker.
  void tick() {
    const std::uint64_t done =
        done_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (intervalNs_ <= 0) return;
    const std::int64_t elapsed =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start_)
            .count();
    std::int64_t beat = nextBeat_.load(std::memory_order_relaxed);
    if (elapsed < beat) return;
    // One worker wins the beat with a CAS; the rest carry on immediately.
    if (!nextBeat_.compare_exchange_strong(beat, elapsed + intervalNs_,
                                           std::memory_order_relaxed)) {
      return;
    }
    emit(done, elapsed);
  }

 private:
  void emit(std::uint64_t done, std::int64_t elapsedNs) const {
    const double seconds = static_cast<double>(elapsedNs) * 1e-9;
    const double rate =
        seconds > 0.0 ? static_cast<double>(done) / seconds : 0.0;
    const double etaSeconds = rate > 0.0 && done < total_
                                  ? static_cast<double>(total_ - done) / rate
                                  : 0.0;
    const int lag =
        checkpoint_ != nullptr ? checkpoint_->unsyncedRecords() : 0;
    const int cadence = checkpoint_ != nullptr ? checkpoint_->fsyncEveryN() : 0;
    PROX_OBS_TRACE_COUNTER("char.progress.points_done", done);
    PROX_OBS_TRACE_COUNTER("char.progress.checkpoint_lag",
                           static_cast<std::uint64_t>(lag));
    std::fprintf(stderr,
                 "[characterize] %s: %llu/%llu points, %.1f pts/s, "
                 "ETA %.0fs, checkpoint lag %d/%d\n",
                 label_.c_str(), static_cast<unsigned long long>(done),
                 static_cast<unsigned long long>(total_), rate, etaSeconds,
                 lag, cadence);
  }

  std::string label_;
  std::uint64_t total_;
  std::int64_t intervalNs_;
  CheckpointSession* checkpoint_;
  std::chrono::steady_clock::time_point start_;
  std::atomic<std::uint64_t> done_{0};
  std::atomic<std::int64_t> nextBeat_{0};
};

}  // namespace

void buildDualTables(model::GateSimulator& sim,
                     const model::SingleInputModelSet& singles, int refPin,
                     int otherPin, wave::Edge edge,
                     const CharacterizationConfig& config,
                     model::DualTable* delayTable,
                     model::DualTable* transitionTable,
                     support::DiagnosticLog* log, const char* scopePrefix) {
  if (delayTable == nullptr || transitionTable == nullptr) {
    throw std::invalid_argument("buildDualTables: null output");
  }
  PROX_OBS_COUNT("characterize.tables_built", 2);  // delay + transition
  PROX_OBS_SCOPED_TIMER("characterize.table_seconds");
  PROX_OBS_SPAN("char.table");
  // Resource governance: tables count against any active budget, and the
  // per-table cadence is a natural place to sample the RSS ceiling.
  support::budgetChargeTables(2, "characterize.tables");
  support::budgetCheckRss("characterize.tables");
  const model::SingleInputModel& mRef = singles.at(refPin, edge);

  // Reference-tau axis: actual taus from the grid; their normalized
  // coordinates (tau/Delta^(1) for delay, tau/tau^(1) for transition) are
  // monotone in tau, so each table keeps a rectangular normalized grid with
  // exact sample placement and no inversion step.
  std::vector<double> tauRefs;
  for (std::size_t idx : config.dualTauIndices) {
    if (idx >= config.tauGrid.size()) {
      throw std::invalid_argument("buildDualTables: dualTauIndices out of range");
    }
    tauRefs.push_back(config.tauGrid[idx]);
  }
  std::sort(tauRefs.begin(), tauRefs.end());

  model::DualTable& dt = *delayTable;
  model::DualTable& tt = *transitionTable;
  dt.u.clear();
  tt.u.clear();
  for (double tau : tauRefs) {
    dt.u.push_back(tau / mRef.delay(tau));
    tt.u.push_back(tau / mRef.transition(tau));
  }
  if (!std::is_sorted(dt.u.begin(), dt.u.end()) ||
      !std::is_sorted(tt.u.begin(), tt.u.end())) {
    throw std::runtime_error(
        "buildDualTables: normalized tau axis not monotone; refine tauGrid");
  }
  dt.v = config.vGrid;
  dt.w = config.wGrid;
  tt.v = config.vGridTransition;
  tt.w = config.wGridTransition;
  dt.ratio.assign(dt.u.size() * dt.v.size() * dt.w.size(), 1.0);
  tt.ratio.assign(tt.u.size() * tt.v.size() * tt.w.size(), 1.0);
  PROX_OBS_COUNT("characterize.table_points",
                 dt.ratio.size() + tt.ratio.size());

  // Enumerate every sweep point (per iu: the delay grid (iv, iw)-major, then
  // the transition grid).  The enumeration index is the point's task index:
  // each result lands in the slot its index owns, so placement never depends
  // on scheduling.
  struct SweepPoint {
    model::DualQuery q;
    bool transition = false;
    std::size_t slot = 0;
  };
  std::vector<SweepPoint> points;
  points.reserve(dt.ratio.size() + tt.ratio.size());
  for (std::size_t iu = 0; iu < tauRefs.size(); ++iu) {
    const double tauRef = tauRefs[iu];
    const double d1 = mRef.delay(tauRef);
    const double t1 = mRef.transition(tauRef);
    // Delay table: v and w in Delta^(1) units.
    for (std::size_t iv = 0; iv < dt.v.size(); ++iv) {
      SweepPoint p;
      p.q.refPin = refPin;
      p.q.otherPin = otherPin;
      p.q.edge = edge;
      p.q.tauRef = tauRef;
      p.q.tauOther = std::clamp(dt.v[iv] * d1, 1e-12, 50e-9);
      for (std::size_t iw = 0; iw < dt.w.size(); ++iw) {
        p.q.sep = dt.w[iw] * d1;
        p.transition = false;
        p.slot = dt.index(iu, iv, iw);
        points.push_back(p);
      }
    }
    // Transition table: v and w in tau^(1) units.
    for (std::size_t iv = 0; iv < tt.v.size(); ++iv) {
      SweepPoint p;
      p.q.refPin = refPin;
      p.q.otherPin = otherPin;
      p.q.edge = edge;
      p.q.tauRef = tauRef;
      p.q.tauOther = std::clamp(tt.v[iv] * t1, 1e-12, 50e-9);
      for (std::size_t iw = 0; iw < tt.w.size(); ++iw) {
        p.q.sep = tt.w[iw] * t1;
        p.transition = true;
        p.slot = tt.index(iu, iv, iw);
        points.push_back(p);
      }
    }
  }

  // One sweep point: one retry, then leave a NaN hole for the healing pass
  // below.  A failed oracle eval is never cached, so the retry really re-runs
  // the transient (and any injected-fault window advances).  Failure
  // diagnostics land in per-point slots and merge in enumeration order.
  constexpr int kAttempts = 2;
  // Checkpoint scope naming this sweep: prefix, pin pair, edge.  The point's
  // enumeration index keys the record, so replay works at any thread count.
  const std::string ckptScope =
      std::string(scopePrefix) + ':' + std::to_string(refPin) + ':' +
      std::to_string(otherPin) + ':' +
      (edge == wave::Edge::Rising ? 'r' : 'f');
  std::vector<std::optional<support::Diagnostic>> pointDiags(points.size());
  const auto evalPoint = [&](model::GateSimulator& s, std::size_t i) {
    const SweepPoint& p = points[i];
    double value = std::numeric_limits<double>::quiet_NaN();
    if (config.checkpoint != nullptr) {
      std::vector<std::uint64_t> replay;
      if (config.checkpoint->lookup(ckptScope, i, &replay) &&
          replay.size() == 1) {
        // A journaled NaN replays the hole too, so the healing pass below
        // fills it exactly as the original run did.
        (p.transition ? tt : dt).ratio[p.slot] =
            support::bitsFromDouble(replay[0]);
        return;
      }
    }
    // Every oracle memoizes through the caller's simulator, whichever
    // worker's simulator runs its transients: a point an earlier sweep over
    // @p sim answered (AOI21's pair sweeps repeat its per-reference ones) is
    // a memo hit at any thread count.
    const model::OracleDualInputModel oracle(s, singles, &sim.dualMemo());
    for (int a = 0; a < kAttempts; ++a) {
      try {
        if (a > 0) PROX_OBS_COUNT("characterize.point_retries", 1);
        value =
            p.transition ? oracle.transitionRatio(p.q) : oracle.delayRatio(p.q);
        break;
      } catch (const std::exception& e) {
        // A cancelled run unwinds: the transient stopped because the token
        // tripped, so the point is neither retried nor journaled as a hole.
        support::pollCancellation("characterize.dual_sweep");
        if (a + 1 == kAttempts) {
          PROX_OBS_COUNT("characterize.points_failed", 1);
          pointDiags[i] = describePointFailure(e, refPin, p.q.tauRef, p.q.sep);
        }
      }
    }
    (p.transition ? tt : dt).ratio[p.slot] = value;
    if (config.checkpoint != nullptr) {
      config.checkpoint->record(ckptScope, i, {support::doubleToBits(value)});
    }
  };

  WorkerSimulators sims(sim);
  ProgressHeartbeat heartbeat(ckptScope, points.size(), config);
  par::parallelFor(
      points.size(),
      [&](std::size_t i, int worker) {
        PROX_OBS_SPAN_ARG("char.point", "index", i);
        evalPoint(sims[worker], i);
        heartbeat.tick();
      },
      {.threads = config.threads, .cancel = config.cancel});
  mergeDiagnostics(log, pointDiags);

  const std::size_t healedPoints = healTable(dt) + healTable(tt);
  if (healedPoints > 0) {
    PROX_OBS_COUNT("characterize.points_healed", healedPoints);
  }
}

model::StepCorrection characterizeStepCorrection(
    model::GateSimulator& sim, const model::SingleInputModelSet& singles,
    const model::DualInputModel& dual, double stepTau,
    support::DiagnosticLog* log, int threads, support::CancelToken* cancel,
    CheckpointSession* checkpoint) {
  model::StepCorrection corr;
  const int n = sim.gate().spec.type == cells::GateType::Inverter
                    ? 1
                    : sim.gate().spec.fanin;
  if (n < 2) return corr;

  model::ProximityOptions noCorrection;
  noCorrection.applyCorrection = false;
  const model::ProximityCalculator raw(model::senseResolverFor(sim.gate()),
                                       singles, dual, {}, noCorrection);

  // Tasks in order Rising k = 2..n, then Falling, including the
  // non-sensitizable prefixes: their indices stay stable so task-keyed fault
  // plans address the same (edge, k) term at any thread count.
  struct CorrTask {
    wave::Edge edge = wave::Edge::Rising;
    int k = 2;
    bool skip = false;  // non-sensitizable prefix -> zero corrective term
  };
  std::vector<CorrTask> tasks;
  for (wave::Edge edge : {wave::Edge::Rising, wave::Edge::Falling}) {
    for (int k = 2; k <= n; ++k) {
      CorrTask t;
      t.edge = edge;
      t.k = k;
      if (sim.gate().complex) {
        std::vector<int> pins;
        for (int p = 0; p < k; ++p) pins.push_back(p);
        // Complex gates: skip prefixes that cannot toggle the output.
        t.skip = !sim.gate().complex->sensitizingAssignment(pins);
      }
      tasks.push_back(t);
    }
  }

  struct CorrResult {
    double dErr = 0.0;
    double tErr = 0.0;
  };
  std::vector<CorrResult> results(tasks.size());
  std::vector<std::optional<support::Diagnostic>> taskDiags(tasks.size());
  const auto evalTask = [&](model::GateSimulator& s, std::size_t i) {
    PROX_OBS_SPAN_ARG("char.corr_term", "index", i);
    const CorrTask& t = tasks[i];
    if (t.skip) return;
    if (checkpoint != nullptr) {
      std::vector<std::uint64_t> replay;
      if (checkpoint->lookup("corr", i, &replay) && replay.size() == 2) {
        results[i].dErr = support::bitsFromDouble(replay[0]);
        results[i].tErr = support::bitsFromDouble(replay[1]);
        return;
      }
    }
    PROX_OBS_COUNT("characterize.correction_points", 1);
    // A failed correction point degrades to a zero corrective term: the
    // uncorrected model is the paper's baseline, so "no correction" is the
    // safe identity rather than an abort.
    std::vector<model::InputEvent> events;
    for (int p = 0; p < t.k; ++p) events.push_back({p, t.edge, 0.0, stepTau});
    try {
      const model::SimOutcome actual = s.simulate(events, 0);
      const model::ProximityResult modeled = raw.compute(events);
      results[i].dErr = actual.delay ? *actual.delay - modeled.delay : 0.0;
      results[i].tErr = actual.transitionTime
                            ? *actual.transitionTime - modeled.transitionTime
                            : 0.0;
    } catch (const std::exception& e) {
      // Cancellation unwinds; only a real failure becomes a zero term.
      support::pollCancellation("characterize.correction");
      PROX_OBS_COUNT("characterize.correction_points_failed", 1);
      taskDiags[i] = describePointFailure(e, /*refPin=*/0, stepTau, 0.0);
    }
    // Journaled after the catch so a healed failure records its degraded
    // zero term -- a resume replays the same zeros the original run kept.
    if (checkpoint != nullptr) {
      checkpoint->record("corr", i, {support::doubleToBits(results[i].dErr),
                                     support::doubleToBits(results[i].tErr)});
    }
  };

  // One simulator per worker; @p dual must be thread-safe (see header note).
  WorkerSimulators sims(sim);
  par::parallelFor(
      tasks.size(),
      [&](std::size_t i, int worker) { evalTask(sims[worker], i); },
      {.threads = threads, .cancel = cancel});
  mergeDiagnostics(log, taskDiags);

  for (std::size_t i = 0; i < tasks.size(); ++i) {
    if (tasks[i].edge == wave::Edge::Rising) {
      corr.delayErrorRising.push_back(results[i].dErr);
      corr.transitionErrorRising.push_back(results[i].tErr);
    } else {
      corr.delayErrorFalling.push_back(results[i].dErr);
      corr.transitionErrorFalling.push_back(results[i].tErr);
    }
  }
  return corr;
}

namespace {

/// Shared body of the simple and complex characterization flows: the gate's
/// thresholds are already in place; this runs the single-input sweeps, the
/// dual-table construction and the correction characterization.
CharacterizedGate characterizeFromGate(model::Gate gate,
                                       const CharacterizationConfig& config) {
  PROX_OBS_COUNT("characterize.gates", 1);
  PROX_OBS_SCOPED_TIMER("characterize.gate_seconds");
  PROX_OBS_SPAN("char.gate");
  CharacterizedGate out;
  out.gate = std::move(gate);

  model::GateSimulator sim(out.gate);

  // Single-input sweeps: one task per (pin, edge), pin-major, Rising then
  // Falling.
  {
    const auto pins = static_cast<std::size_t>(out.pinCount());
    std::vector<model::SingleInputModel> singleModels(2 * pins);
    const auto singleTask = [&](model::GateSimulator& s, std::size_t i) {
      PROX_OBS_SPAN_ARG("char.single", "index", i);
      const int pin = static_cast<int>(i / 2);
      const wave::Edge edge =
          i % 2 == 0 ? wave::Edge::Rising : wave::Edge::Falling;
      // Checkpoint scope "single": one whole-table record per (pin, edge) --
      // 3 header words (loadCap, K, Vdd) then (tau, delay, transition) bit
      // patterns per grid row.
      if (config.checkpoint != nullptr) {
        std::vector<std::uint64_t> replay;
        if (config.checkpoint->lookup("single", i, &replay) &&
            replay.size() >= 6 && (replay.size() - 3) % 3 == 0) {
          std::vector<model::SingleInputModel::Sample> table;
          for (std::size_t r = 3; r + 2 < replay.size(); r += 3) {
            table.push_back({support::bitsFromDouble(replay[r]),
                             support::bitsFromDouble(replay[r + 1]),
                             support::bitsFromDouble(replay[r + 2])});
          }
          singleModels[i] = model::SingleInputModel(
              pin, edge, std::move(table), support::bitsFromDouble(replay[0]),
              support::bitsFromDouble(replay[1]),
              support::bitsFromDouble(replay[2]));
          return;
        }
      }
      singleModels[i] =
          model::SingleInputModel::characterize(s, pin, edge, config.tauGrid);
      if (config.checkpoint != nullptr) {
        const model::SingleInputModel& m = singleModels[i];
        std::vector<std::uint64_t> words{
            support::doubleToBits(m.loadCap()),
            support::doubleToBits(m.strengthK()),
            support::doubleToBits(m.vdd())};
        for (const model::SingleInputModel::Sample& row : m.table()) {
          words.push_back(support::doubleToBits(row.tau));
          words.push_back(support::doubleToBits(row.delay));
          words.push_back(support::doubleToBits(row.transition));
        }
        config.checkpoint->record("single", i, words);
      }
    };
    WorkerSimulators sims(sim);
    par::parallelFor(
        singleModels.size(),
        [&](std::size_t i, int worker) { singleTask(sims[worker], i); },
        {.threads = config.threads, .cancel = config.cancel});
    auto set = std::make_unique<model::SingleInputModelSet>();
    for (model::SingleInputModel& m : singleModels) set->set(std::move(m));
    out.singles = std::move(set);
    // The singles are the axes every later sweep normalizes by; pin them to
    // disk before the (much longer) dual sweeps start.
    if (config.checkpoint != nullptr) config.checkpoint->flush();
  }
  out.dual = std::make_unique<model::TabulatedDualInputModel>(*out.singles);

  const int n = out.pinCount();
  for (int pin = 0; pin < n; ++pin) {
    // Representative partner pin: the next pin for simple gates; for
    // complex gates, the first pin forming a sensitizable pair.
    int partner = n > 1 ? (pin + 1) % n : pin;
    bool havePartner = n > 1;
    if (out.gate.complex && havePartner) {
      havePartner = false;
      for (int q = 1; q < n; ++q) {
        const int cand = (pin + q) % n;
        if (out.gate.complex->sensitizingAssignment({pin, cand})) {
          partner = cand;
          havePartner = true;
          break;
        }
      }
    }
    for (wave::Edge edge : {wave::Edge::Rising, wave::Edge::Falling}) {
      model::DualTable dt;
      model::DualTable tt;
      if (havePartner) {
        buildDualTables(sim, *out.singles, pin, partner, edge, config, &dt, &tt,
                        &out.diagnostics);
      } else {
        // Degenerate (single-input gate or unpairable pin): identity tables.
        dt.u = {1.0};
        dt.v = {1.0};
        dt.w = {0.0};
        dt.ratio = {1.0};
        tt = dt;
      }
      out.dual->setDelayTable(pin, edge, std::move(dt));
      out.dual->setTransitionTable(pin, edge, std::move(tt));
    }
  }

  // Complex gates additionally get the full pair matrix (Figure 4-2 option
  // 2(a)): the per-reference approximation assumes every partner behaves
  // alike, which holds for single-stack NAND/NOR but not when one partner
  // shares a series branch and another a parallel branch.
  if (out.gate.complex) {
    for (int ref = 0; ref < n; ++ref) {
      for (int other = 0; other < n; ++other) {
        if (ref == other) continue;
        if (!out.gate.complex->sensitizingAssignment({ref, other})) continue;
        for (wave::Edge edge : {wave::Edge::Rising, wave::Edge::Falling}) {
          model::DualTable dt;
          model::DualTable tt;
          buildDualTables(sim, *out.singles, ref, other, edge, config, &dt,
                          &tt, &out.diagnostics, /*scopePrefix=*/"pair");
          out.dual->setPairDelayTable(ref, other, edge, std::move(dt));
          out.dual->setPairTransitionTable(ref, other, edge, std::move(tt));
        }
      }
    }
  }

  out.correction = characterizeStepCorrection(
      sim, *out.singles, *out.dual, config.stepTau, &out.diagnostics,
      config.threads, config.cancel, config.checkpoint);
  if (config.checkpoint != nullptr) config.checkpoint->flush();
  return out;
}

}  // namespace

CharacterizedGate characterizeGate(const cells::CellSpec& spec,
                                   const CharacterizationConfig& config) {
  return characterizeFromGate(model::makeGate(spec, config.vtcStep), config);
}

CharacterizedGate characterizeComplexGate(const cells::ComplexCellSpec& spec,
                                          const CharacterizationConfig& config) {
  return characterizeFromGate(model::makeComplexGate(spec, config.vtcStep),
                              config);
}

}  // namespace prox::characterize
