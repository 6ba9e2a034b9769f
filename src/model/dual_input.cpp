#include "model/dual_input.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/registry.hpp"

namespace prox::model {

std::size_t DualTable::healedCount() const {
  std::size_t n = 0;
  for (const std::uint8_t h : healed) n += h != 0 ? 1 : 0;
  return n;
}

OracleDualInputModel::OracleDualInputModel(GateSimulator& sim,
                                           const SingleInputModelSet& singles,
                                           DualMemo* memo)
    : sim_(sim),
      singles_(singles),
      memo_(memo != nullptr ? *memo : sim.dualMemo()) {}

DualMemo::Pair OracleDualInputModel::evaluate(const DualQuery& q) const {
  // Memoize on attosecond-quantized times: queries repeated across sweeps
  // (the common case in the benches) hit the cache.
  const DualMemo::Key key =
      DualMemo::makeKey(q.refPin, q.otherPin, q.edge == wave::Edge::Rising,
                        q.tauRef, q.tauOther, q.sep);
  DualMemo::Pair p;
  if (memo_.find(key, &p)) {
    PROX_OBS_COUNT("model.dual.oracle_cache_hits", 1);
    return p;
  }
  PROX_OBS_COUNT("model.dual.oracle_cache_misses", 1);
  PROX_OBS_COUNT("model.dual.oracle_evals", 1);

  InputEvent ref{q.refPin, q.edge, 0.0, q.tauRef};
  InputEvent other{q.otherPin, q.edge, q.sep, q.tauOther};
  const SimOutcome o = sim_.simulate({ref, other}, 0);

  const SingleInputModel& m = singles_.at(q.refPin, q.edge);
  const double d1 = m.delay(q.tauRef);
  const double t1 = m.transition(q.tauRef);

  p = DualMemo::Pair{};
  if (o.delay && d1 > 0.0) p.delayRatio = *o.delay / d1;
  if (o.transitionTime && t1 > 0.0) p.transitionRatio = *o.transitionTime / t1;
  // Inserted only after a successful simulate(): a failed evaluation is
  // never cached (exactly the old map memo's behavior).
  memo_.insert(key, p);
  return p;
}

void OracleDualInputModel::evaluateMany(std::span<const DualQuery> queries,
                                        std::span<DualResult> results) const {
  if (results.size() < queries.size()) {
    throw std::invalid_argument(
        "OracleDualInputModel::evaluateMany: results span too small");
  }
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const DualMemo::Pair p = evaluate(queries[i]);
    results[i] = DualResult{};
    results[i].value = queries[i].kind == DualKind::Delay ? p.delayRatio
                                                          : p.transitionRatio;
  }
}

support::DiagnosticError missingTableError(const DualQuery& q) {
  return support::DiagnosticError(
      support::makeDiagnostic(
          support::StatusCode::TableMissing,
          q.kind == DualKind::Delay
              ? "no dual delay table for reference pin"
              : "no dual transition table for reference pin")
          .withSite("model.dual")
          .withPin(q.refPin));
}

DualResult DualInputModel::lookup(const DualQuery& q) const {
  DualResult r;
  evaluateMany({&q, 1}, {&r, 1});
  return r;
}

double DualInputModel::ratio(const DualQuery& q) const {
  const DualResult r = lookup(q);
  if (r.status != DualResult::Status::Ok) throw missingTableError(q);
  return r.value;
}

TabulatedDualInputModel::TabulatedDualInputModel(
    const SingleInputModelSet& singles)
    : singles_(singles) {}

void TabulatedDualInputModel::install(std::map<int, DualTable>& tables,
                                      Slots& slots, int k, DualTable table) {
  const DualTable& stored = tables[k] = std::move(table);
  if (k < 0) return;  // no slot: queries on it answer MissingTable
  const auto i = static_cast<std::size_t>(k);
  if (slots.size() <= i) slots.resize(i + 1, nullptr);
  slots[i] = &stored;
}

void TabulatedDualInputModel::setDelayTable(int refPin, wave::Edge edge,
                                            DualTable table) {
  install(delayTables_, delaySlots_, key(refPin, edge), std::move(table));
}

void TabulatedDualInputModel::setTransitionTable(int refPin, wave::Edge edge,
                                                 DualTable table) {
  install(transitionTables_, transSlots_, key(refPin, edge), std::move(table));
}

void TabulatedDualInputModel::setPairDelayTable(int refPin, int otherPin,
                                                wave::Edge edge,
                                                DualTable table) {
  install(pairDelayTables_, pairDelaySlots_, pairKey(refPin, otherPin, edge),
          std::move(table));
}

void TabulatedDualInputModel::setPairTransitionTable(int refPin, int otherPin,
                                                     wave::Edge edge,
                                                     DualTable table) {
  install(pairTransitionTables_, pairTransSlots_,
          pairKey(refPin, otherPin, edge), std::move(table));
}

bool TabulatedDualInputModel::hasTables(int refPin, wave::Edge edge) const {
  return delayTables_.count(key(refPin, edge)) != 0 &&
         transitionTables_.count(key(refPin, edge)) != 0;
}

bool TabulatedDualInputModel::hasPairTables(int refPin, int otherPin,
                                            wave::Edge edge) const {
  return pairDelayTables_.count(pairKey(refPin, otherPin, edge)) != 0 &&
         pairTransitionTables_.count(pairKey(refPin, otherPin, edge)) != 0;
}

const DualTable& TabulatedDualInputModel::pairDelayTable(
    int refPin, int otherPin, wave::Edge edge) const {
  return pairDelayTables_.at(pairKey(refPin, otherPin, edge));
}

const DualTable& TabulatedDualInputModel::pairTransitionTable(
    int refPin, int otherPin, wave::Edge edge) const {
  return pairTransitionTables_.at(pairKey(refPin, otherPin, edge));
}

std::vector<std::tuple<int, int, wave::Edge>> TabulatedDualInputModel::pairKeys()
    const {
  std::vector<std::tuple<int, int, wave::Edge>> out;
  for (const auto& [k, t] : pairDelayTables_) {
    const wave::Edge e = k % 2 == 0 ? wave::Edge::Rising : wave::Edge::Falling;
    const int refOther = k / 2;
    out.emplace_back(refOther / 64, refOther % 64, e);
  }
  return out;
}

const DualTable& TabulatedDualInputModel::delayTable(int refPin,
                                                     wave::Edge edge) const {
  return delayTables_.at(key(refPin, edge));
}

const DualTable& TabulatedDualInputModel::transitionTable(int refPin,
                                                          wave::Edge edge) const {
  return transitionTables_.at(key(refPin, edge));
}

namespace {

/// Map-key -> table probe; an out-of-range key means "no table".
const DualTable* slotAt(const std::vector<const DualTable*>& slots, int k) {
  return k >= 0 && static_cast<std::size_t>(k) < slots.size()
             ? slots[static_cast<std::size_t>(k)]
             : nullptr;
}

/// Where a normalized coordinate falls on one table axis.
struct AxisHit {
  std::size_t cell = 0;  ///< lower grid index of the bracketing cell
  double f = 0.0;        ///< interpolation fraction within the cell
  double over = 0.0;     ///< overshoot beyond the grid, relative to its span
};

/// Locates @p x on @p g (ascending, non-empty).  Off the grid the fraction
/// clamps to 0 or 1 and the overshoot is the distance past the nearer end
/// over the axis span (over max(|g[0]|, 1) for a single-point grid).  The
/// low end is tested first, so it wins on an all-equal axis.
AxisHit locate(const std::vector<double>& g, double x) {
  const std::size_t n = g.size();
  const double lo = g.front();
  const double hi = g.back();
  const double below = lo - x;
  const double above = x - hi;
  double past = below > above ? below : above;
  past = past > 0.0 ? past : 0.0;
  const double span = hi - lo;
  AxisHit a;
  a.over = past / (span > 0.0 ? span : std::max(std::fabs(lo), 1.0));
  if (n == 1 || x <= lo) return a;
  if (x >= hi) {
    a.cell = n - 2;
    a.f = 1.0;
    return a;
  }
  for (std::size_t k = 1; k + 1 < n; ++k) a.cell += g[k] < x ? 1 : 0;
  a.f = (x - g[a.cell]) / (g[a.cell + 1] - g[a.cell]);
  return a;
}

double lerp(double a, double b, double f) { return a + f * (b - a); }

/// Trilinear blend of @p t's cell at (u, v, w): four lerps along u, two
/// along v, one along w, each a separate multiply, subtract and add.
double blend(const DualTable& t, const AxisHit& u, const AxisHit& v,
             const AxisHit& w) {
  const std::size_t u0 = u.cell, v0 = v.cell, w0 = w.cell;
  const std::size_t u1 = std::min(u0 + 1, t.u.size() - 1);
  const std::size_t v1 = std::min(v0 + 1, t.v.size() - 1);
  const std::size_t w1 = std::min(w0 + 1, t.w.size() - 1);
  const double c00 = lerp(t.at(u0, v0, w0), t.at(u1, v0, w0), u.f);
  const double c01 = lerp(t.at(u0, v0, w1), t.at(u1, v0, w1), u.f);
  const double c10 = lerp(t.at(u0, v1, w0), t.at(u1, v1, w0), u.f);
  const double c11 = lerp(t.at(u0, v1, w1), t.at(u1, v1, w1), u.f);
  const double c0 = lerp(c00, c10, v.f);
  const double c1 = lerp(c01, c11, v.f);
  return lerp(c0, c1, w.f);
}

}  // namespace

void TabulatedDualInputModel::evaluateMany(std::span<const DualQuery> queries,
                                           std::span<DualResult> results) const {
  if (results.size() < queries.size()) {
    throw std::invalid_argument(
        "TabulatedDualInputModel::evaluateMany: results span too small");
  }
  if (queries.empty()) return;
  PROX_OBS_BATCH(obsCells);
  PROX_OBS_COUNT_IN(obsCells, "model.dual.batch_calls", 1);
  PROX_OBS_COUNT_IN(obsCells, "model.dual.batch_queries", queries.size());
  PROX_OBS_COUNT_IN(obsCells, "model.dual.table_lookups", queries.size());

  std::uint64_t shortcuts = 0;
  std::uint64_t clamped = 0;
  std::uint64_t missing = 0;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const DualQuery& q = queries[i];
    DualResult& r = results[i];
    r = DualResult{};

    const SingleInputModel* m = singles_.find(q.refPin, q.edge);
    if (m == nullptr) {
      // Marked, but not counted in missing_tables.
      r.status = DualResult::Status::MissingTable;
      continue;
    }
    const double d1 = m->delay(q.tauRef);
    const bool delay = q.kind == DualKind::Delay;
    // The delay normalizes by Delta^(1) and its window is sep < Delta^(1);
    // the transition time normalizes by tau^(1) and its window is
    // sep < Delta^(1) + tau^(1).  Outside the window the other input
    // cannot affect the answer, which keeps its default 1.0.
    const double norm = delay ? d1 : m->transition(q.tauRef);
    if (q.sep >= (delay ? d1 : d1 + norm)) {
      ++shortcuts;
      continue;
    }
    const Slots& pairs = delay ? pairDelaySlots_ : pairTransSlots_;
    const DualTable* t = slotAt(pairs, pairKey(q.refPin, q.otherPin, q.edge));
    if (t == nullptr) {
      t = slotAt(delay ? delaySlots_ : transSlots_, key(q.refPin, q.edge));
    }
    if (t == nullptr) {
      ++missing;
      r.status = DualResult::Status::MissingTable;
      continue;
    }
    if (t->u.empty() || t->v.empty() || t->w.empty()) {
      // An empty grid is missing, but not counted as such.
      r.status = DualResult::Status::MissingTable;
      continue;
    }
    const AxisHit u = locate(t->u, q.tauRef / norm);
    const AxisHit v = locate(t->v, q.tauOther / norm);
    const AxisHit w = locate(t->w, q.sep / norm);
    r.clampDistance = std::max({u.over, v.over, w.over});
    if (r.clampDistance > 0.0) ++clamped;
    r.value = blend(*t, u, v, w);
  }

  PROX_OBS_COUNT_IN(obsCells, "model.dual.window_shortcuts", shortcuts);
  PROX_OBS_COUNT_IN(obsCells, "model.dual.clamped_lookups", clamped);
  PROX_OBS_COUNT_IN(obsCells, "model.dual.missing_tables", missing);
}

std::size_t TabulatedDualInputModel::totalBytes() const {
  std::size_t b = 0;
  for (const auto& [k, t] : delayTables_) b += t.bytes();
  for (const auto& [k, t] : transitionTables_) b += t.bytes();
  for (const auto& [k, t] : pairDelayTables_) b += t.bytes();
  for (const auto& [k, t] : pairTransitionTables_) b += t.bytes();
  return b;
}

}  // namespace prox::model
