#pragma once
// The scalar reference TabulatedDualInputModel::evaluateMany() is checked
// against: the DualTable map walk, one query at a time, with per-axis
// locate/overshoot and the trilinear blend written the plain way.
// evaluateMany() must agree with it bit for bit -- values, clamp distances,
// statuses and window shortcuts (determinism_test's
// BatchedDualDeterminism.*).

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "model/dual_input.hpp"

namespace prox::testref {

/// Index of the grid cell containing @p x, clamped to the valid range, plus
/// the interpolation fraction.
inline std::pair<std::size_t, double> locate(const std::vector<double>& grid,
                                             double x) {
  if (grid.size() == 1) return {0, 0.0};
  if (x <= grid.front()) return {0, 0.0};
  if (x >= grid.back()) return {grid.size() - 2, 1.0};
  std::size_t hi = 1;
  while (hi + 1 < grid.size() && grid[hi] < x) ++hi;
  const double f = (x - grid[hi - 1]) / (grid[hi] - grid[hi - 1]);
  return {hi - 1, f};
}

/// Relative overshoot of @p x beyond the grid span (0 for in-grid queries).
/// Degenerate single-point grids normalize by the point's magnitude instead.
inline double overshoot(const std::vector<double>& grid, double x) {
  const double lo = grid.front();
  const double hi = grid.back();
  if (x >= lo && x <= hi) return 0.0;
  const double span = hi - lo;
  const double denom = span > 0.0 ? span : std::max(std::fabs(lo), 1.0);
  return (x < lo ? lo - x : x - hi) / denom;
}

/// Trilinear interpolation of @p t, clamped to the grid boundary;
/// @p clampDistance receives the largest per-axis overshoot.
inline double interpolate(const model::DualTable& t, double uu, double vv,
                          double ww, double* clampDistance) {
  *clampDistance = std::max(
      {overshoot(t.u, uu), overshoot(t.v, vv), overshoot(t.w, ww)});
  const auto [iu, fu] = locate(t.u, uu);
  const auto [iv, fv] = locate(t.v, vv);
  const auto [iw, fw] = locate(t.w, ww);
  const std::size_t iu1 = std::min(iu + 1, t.u.size() - 1);
  const std::size_t iv1 = std::min(iv + 1, t.v.size() - 1);
  const std::size_t iw1 = std::min(iw + 1, t.w.size() - 1);

  auto lerp = [](double a, double b, double f) { return a + f * (b - a); };
  const double c00 = lerp(t.at(iu, iv, iw), t.at(iu1, iv, iw), fu);
  const double c01 = lerp(t.at(iu, iv, iw1), t.at(iu1, iv, iw1), fu);
  const double c10 = lerp(t.at(iu, iv1, iw), t.at(iu1, iv1, iw), fu);
  const double c11 = lerp(t.at(iu, iv1, iw1), t.at(iu1, iv1, iw1), fu);
  const double c0 = lerp(c00, c10, fv);
  const double c1 = lerp(c01, c11, fv);
  return lerp(c0, c1, fw);
}

/// @p q answered from @p m's DualTable maps.  Pair tables are found through
/// hasPairTables(), so a fixture installs a pair's delay and transition
/// tables together.
inline model::DualResult lookup(const model::TabulatedDualInputModel& m,
                                const model::SingleInputModelSet& singles,
                                const model::DualQuery& q) {
  model::DualResult r;
  if (!singles.has(q.refPin, q.edge)) {
    r.status = model::DualResult::Status::MissingTable;
    return r;
  }
  const model::SingleInputModel& s = singles.at(q.refPin, q.edge);
  const bool delay = q.kind == model::DualKind::Delay;
  const double d1 = s.delay(q.tauRef);
  const double norm = delay ? d1 : s.transition(q.tauRef);
  if (q.sep >= (delay ? d1 : d1 + norm)) return r;  // outside the window
  const model::DualTable* t = nullptr;
  if (m.hasPairTables(q.refPin, q.otherPin, q.edge)) {
    t = delay ? &m.pairDelayTable(q.refPin, q.otherPin, q.edge)
              : &m.pairTransitionTable(q.refPin, q.otherPin, q.edge);
  } else if (m.hasTables(q.refPin, q.edge)) {
    t = delay ? &m.delayTable(q.refPin, q.edge)
              : &m.transitionTable(q.refPin, q.edge);
  }
  if (t == nullptr || t->u.empty() || t->v.empty() || t->w.empty()) {
    r.status = model::DualResult::Status::MissingTable;
    return r;
  }
  r.value = interpolate(*t, q.tauRef / norm, q.tauOther / norm, q.sep / norm,
                        &r.clampDistance);
  return r;
}

/// Table @p t answered by evaluateMany() at table coordinates (u, v, w):
/// a TabulatedDualInputModel whose lone single-input sample has
/// tau^(1) = 1 and Delta^(1) = 1000, so a transition query's normalized
/// coordinates are its raw times and its window ends at w = 1001.
inline model::DualResult evaluateAt(const model::DualTable& t, double u,
                                    double v, double w) {
  model::SingleInputModelSet singles;
  singles.set(model::SingleInputModel(0, wave::Edge::Rising,
                                      {{1.0, 1000.0, 1.0}}, 1.0, 1.0, 1.0));
  model::TabulatedDualInputModel m(singles);
  m.setTransitionTable(0, wave::Edge::Rising, t);
  model::DualQuery q;
  q.kind = model::DualKind::Transition;
  q.tauRef = u;
  q.tauOther = v;
  q.sep = w;
  return m.lookup(q);
}

}  // namespace prox::testref
