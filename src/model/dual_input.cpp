#include "model/dual_input.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <stdexcept>

#include "obs/registry.hpp"
#include "simd/dispatch.hpp"
#include "simd/trilerp.hpp"

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

void TabulatedDualInputModel::setDelayTable(int refPin, wave::Edge edge,
                                            DualTable table) {
  delayTables_[key(refPin, edge)] = std::move(table);
  rebuildIndex();
}

void TabulatedDualInputModel::setTransitionTable(int refPin, wave::Edge edge,
                                                 DualTable table) {
  transitionTables_[key(refPin, edge)] = std::move(table);
  rebuildIndex();
}

void TabulatedDualInputModel::setPairDelayTable(int refPin, int otherPin,
                                                wave::Edge edge,
                                                DualTable table) {
  pairDelayTables_[pairKey(refPin, otherPin, edge)] = std::move(table);
  rebuildIndex();
}

void TabulatedDualInputModel::setPairTransitionTable(int refPin, int otherPin,
                                                     wave::Edge edge,
                                                     DualTable table) {
  pairTransitionTables_[pairKey(refPin, otherPin, edge)] = std::move(table);
  rebuildIndex();
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

void TabulatedDualInputModel::appendView(const DualTable& t) {
  // The overshoot normalizer, hoisted per axis: the span, or max(|lo|, 1)
  // for single-point grids.
  const auto axisDenom = [](const std::vector<double>& g) {
    if (g.empty()) return 1.0;
    const double span = g.back() - g.front();
    return span > 0.0 ? span : std::max(std::fabs(g.front()), 1.0);
  };

  TableView v;
  v.nu = static_cast<std::uint32_t>(t.u.size());
  v.nv = static_cast<std::uint32_t>(t.v.size());
  v.nw = static_cast<std::uint32_t>(t.w.size());
  v.strideV = v.nw;
  v.strideU = v.nv * v.nw;
  v.uOff = static_cast<std::uint32_t>(arena_.size());
  arena_.insert(arena_.end(), t.u.begin(), t.u.end());
  v.vOff = static_cast<std::uint32_t>(arena_.size());
  arena_.insert(arena_.end(), t.v.begin(), t.v.end());
  v.wOff = static_cast<std::uint32_t>(arena_.size());
  arena_.insert(arena_.end(), t.w.begin(), t.w.end());
  v.valOff = static_cast<std::uint32_t>(arena_.size());
  arena_.insert(arena_.end(), t.ratio.begin(), t.ratio.end());
  v.uDenom = axisDenom(t.u);
  v.vDenom = axisDenom(t.v);
  v.wDenom = axisDenom(t.w);
  views_.push_back(v);
}

void TabulatedDualInputModel::rebuildIndex() {
  arena_.clear();
  views_.clear();

  // Fixed compilation order (delay, transition, pairDelay, pairTransition;
  // ascending key within each) keeps the arena layout a pure function of the
  // installed tables.
  const auto compile = [this](const std::map<int, DualTable>& tables,
                              std::vector<std::int32_t>& slots) {
    int maxKey = -1;
    for (const auto& [k, t] : tables) maxKey = std::max(maxKey, k);
    slots.assign(maxKey >= 0 ? static_cast<std::size_t>(maxKey) + 1 : 0, -1);
    for (const auto& [k, t] : tables) {
      if (k < 0) continue;  // no slot: queries on it answer MissingTable
      slots[static_cast<std::size_t>(k)] =
          static_cast<std::int32_t>(views_.size());
      appendView(t);
    }
  };
  compile(delayTables_, delaySlots_);
  compile(transitionTables_, transSlots_);
  compile(pairDelayTables_, pairDelaySlots_);
  compile(pairTransitionTables_, pairTransSlots_);
}

namespace {

/// Per-thread staging buffers for evaluateMany's multi-pass pipeline.  Flat
/// arrays written by index (no push_back in the hot loops); resize() is a
/// no-op after the first call at a given batch size.
struct BatchScratch {
  // Lane-indexed (one entry per query of the current tile).
  std::vector<std::uint8_t> alive;                   ///< single model found
  std::vector<double> sNum, sDen, aD, bD, aT, bT;    ///< staged tau segment
  std::vector<double> d1, t1;                        ///< Delta^(1), tau^(1)
  // Compact (survivors of the window/slot pass; size <= tile, tracked by
  // the caller's `staged` counter).
  std::vector<std::uint32_t> lane;   ///< staged index -> tile-local lane
  std::vector<std::int32_t> view;    ///< staged index -> table view
  std::vector<double> uu, vv, ww;    ///< numerators, then coordinates
  std::vector<double> nrm;           ///< shared normalization denominator
  // View-grouped (counting-sorted so each table's lanes are contiguous and
  // the axis kernels run monomorphically against one shared grid).
  std::vector<std::uint32_t> laneG;  ///< group position -> tile-local lane
  std::vector<double> uuP, vvP, wwP;            ///< packed coordinates
  std::vector<double> fu, fv, fw;               ///< axis fractions
  std::vector<double> overU, overV, overW;      ///< axis overshoots
  std::vector<std::uint32_t> idxU, idxV, idxW;  ///< axis cell indices
  std::vector<std::uint32_t> corner[8];
  std::vector<double> out;
  // Per-view group bookkeeping (sized to the view count, not the tile).
  std::vector<std::uint32_t> vcnt, voff;

  void resize(std::size_t n) {
    alive.resize(n);
    for (auto* p : {&sNum, &sDen, &aD, &bD, &aT, &bT, &d1, &t1, &uu, &vv,
                    &ww, &nrm, &uuP, &vvP, &wwP, &fu, &fv, &fw, &overU,
                    &overV, &overW, &out}) {
      p->resize(n);
    }
    for (auto* p : {&lane, &laneG, &idxU, &idxV, &idxW}) p->resize(n);
    view.resize(n);
    for (auto& c : corner) c.resize(n);
  }
};

/// Map-key -> view-index probe; an out-of-range key means "no table".
std::int32_t slotAt(const std::vector<std::int32_t>& slots, int k) {
  return k >= 0 && static_cast<std::size_t>(k) < slots.size()
             ? slots[static_cast<std::size_t>(k)]
             : -1;
}

/// Records which SIMD kernel is live as the "simd.dispatch.path" report
/// label; re-recorded only when the resolved path changes.
void recordDispatchPath() {
  static std::atomic<int> last{-1};
  const simd::Path p = simd::activePath();
  const int pi = static_cast<int>(p);
  if (last.load(std::memory_order_relaxed) == pi) return;
  last.store(pi, std::memory_order_relaxed);
  obs::setLabel("simd.dispatch.path", simd::pathName(p));
}

}  // namespace

void TabulatedDualInputModel::evaluateMany(std::span<const DualQuery> queries,
                                           std::span<DualResult> results) const {
  if (results.size() < queries.size()) {
    throw std::invalid_argument(
        "TabulatedDualInputModel::evaluateMany: results span too small");
  }
  const std::size_t n = queries.size();
  if (n == 0) return;
  PROX_OBS_BATCH(obsCells);
  PROX_OBS_COUNT_IN(obsCells, "model.dual.batch_calls", 1);
  PROX_OBS_COUNT_IN(obsCells, "model.dual.batch_queries", n);
  PROX_OBS_COUNT_IN(obsCells, "model.dual.table_lookups", n);
  recordDispatchPath();

  // Tiled pipeline: each tile's staging arrays stay L1/L2-resident across
  // all six passes instead of streaming ~20 full-batch arrays through the
  // cache hierarchy.  Lanes are independent and the clamp/shortcut/missing
  // tallies are additive, so tiling cannot change any result.
  constexpr std::size_t kTile = 512;
  thread_local BatchScratch s;
  s.resize(std::min(n, kTile));

  // Per-call single-input model cache for the common pin range: one map
  // lookup per distinct (pin, edge) instead of one per query.  Built lazily
  // inside the call, so it can never go stale against singles_ mutations.
  constexpr int kSingleCache = 128;
  const SingleInputModel* singleCache[kSingleCache];
  bool singleCached[kSingleCache] = {};

  std::uint64_t shortcuts = 0;
  std::uint64_t clamped = 0;
  std::uint64_t missing = 0;
  const double* arena = arena_.data();

  for (std::size_t tile0 = 0; tile0 < n; tile0 += kTile) {
  const std::size_t tn = std::min(kTile, n - tile0);
  const DualQuery* qs = queries.data() + tile0;
  DualResult* rs = results.data() + tile0;

  // Pass 1 (scalar): resolve each lane's single-input model and stage the
  // bracketing tau segment of its sample table.  The fraction's division and
  // the endpoint lerps move to the vector pass; everything staged here is
  // branch/search work the vector units cannot express.
  for (std::size_t i = 0; i < tn; ++i) {
    const DualQuery& q = qs[i];
    rs[i] = DualResult{};

    const int skey = key(q.refPin, q.edge);
    const SingleInputModel* m = nullptr;
    if (skey >= 0 && skey < kSingleCache) {
      if (!singleCached[skey]) {
        singleCache[skey] =
            singles_.has(q.refPin, q.edge) ? &singles_.at(q.refPin, q.edge)
                                           : nullptr;
        singleCached[skey] = true;
      }
      m = singleCache[skey];
    } else if (singles_.has(q.refPin, q.edge)) {
      m = &singles_.at(q.refPin, q.edge);
    }
    s.alive[i] = m != nullptr ? 1 : 0;
    if (m == nullptr) {
      // Marked without counting missing_tables.  Benign operands keep the
      // dead lane's vector arithmetic out of NaN territory.
      rs[i].status = DualResult::Status::MissingTable;
      s.sNum[i] = 0.0;
      s.sDen[i] = 1.0;
      s.aD[i] = s.bD[i] = s.aT[i] = s.bT[i] = 0.0;
      continue;
    }
    const auto& t = m->table();
    if (t.size() == 1) {
      // interp() returns the lone sample directly; f = 0/1 reproduces it.
      s.sNum[i] = 0.0;
      s.sDen[i] = 1.0;
      s.aD[i] = s.bD[i] = t[0].delay;
      s.aT[i] = s.bT[i] = t[0].transition;
    } else {
      // Branchless twin of interp()'s bracketing scan: on a sorted grid the
      // scan's stopping index equals 1 + |{k in [1, size-2] : tau_k < tau}|.
      std::size_t hi = 1;
      for (std::size_t k = 1; k + 1 < t.size(); ++k) {
        hi += t[k].tau < q.tauRef ? 1 : 0;
      }
      const auto& a = t[hi - 1];
      const auto& b = t[hi];
      s.sNum[i] = q.tauRef - a.tau;
      s.sDen[i] = b.tau - a.tau;
      s.aD[i] = a.delay;
      s.bD[i] = b.delay;
      s.aT[i] = a.transition;
      s.bT[i] = b.transition;
    }
  }

  // Pass 2 (SIMD): Delta^(1)(tauRef) and tau^(1)(tauRef) for every lane --
  // the batch's first round of divisions, bit-identical to
  // SingleInputModel::delay()/transition() on the staged segments.
  {
    simd::InterpPairBatch b;
    b.num = s.sNum.data();
    b.den = s.sDen.data();
    b.aD = s.aD.data();
    b.bD = s.bD.data();
    b.aT = s.aT.data();
    b.bT = s.bT.data();
    b.d1 = s.d1.data();
    b.t1 = s.t1.data();
    b.n = tn;
    simd::interpPair(b);
  }

  // Pass 3 (scalar): proximity-window shortcuts and table-slot resolution.
  // Survivors are compacted so the remaining passes only touch lanes that
  // actually reach the trilinear blend.
  std::size_t staged = 0;
  for (std::size_t i = 0; i < tn; ++i) {
    if (s.alive[i] == 0) continue;
    const DualQuery& q = qs[i];
    const double d1 = s.d1[i];
    double norm;
    std::int32_t vi;
    if (q.kind == DualKind::Delay) {
      // Outside the proximity window the other input cannot affect the delay.
      if (q.sep >= d1) {
        ++shortcuts;
        continue;  // result keeps its default value 1.0
      }
      vi = slotAt(pairDelaySlots_, pairKey(q.refPin, q.otherPin, q.edge));
      if (vi < 0) vi = slotAt(delaySlots_, key(q.refPin, q.edge));
      norm = d1;
    } else {
      const double t1 = s.t1[i];
      // Transition-time proximity window: sep < Delta^(1) + tau^(1).
      if (q.sep >= d1 + t1) {
        ++shortcuts;
        continue;
      }
      vi = slotAt(pairTransSlots_, pairKey(q.refPin, q.otherPin, q.edge));
      if (vi < 0) vi = slotAt(transSlots_, key(q.refPin, q.edge));
      norm = t1;
    }
    if (vi < 0) {
      ++missing;
      rs[i].status = DualResult::Status::MissingTable;
      continue;
    }
    const TableView& tv = views_[static_cast<std::size_t>(vi)];
    if (tv.nu == 0 || tv.nv == 0 || tv.nw == 0) {
      // An empty grid is missing, but not counted as such.
      rs[i].status = DualResult::Status::MissingTable;
      continue;
    }
    s.lane[staged] = static_cast<std::uint32_t>(i);
    s.view[staged] = vi;
    s.uu[staged] = q.tauRef;
    s.vv[staged] = q.tauOther;
    s.ww[staged] = q.sep;
    s.nrm[staged] = norm;
    ++staged;
  }

  if (staged > 0) {
    // Pass 4 (SIMD): normalized table coordinates, in place over the staged
    // numerators.
    simd::divide(s.uu.data(), s.nrm.data(), s.uu.data(), staged);
    simd::divide(s.vv.data(), s.nrm.data(), s.vv.data(), staged);
    simd::divide(s.ww.data(), s.nrm.data(), s.ww.data(), staged);

    // Pass 5: group the staged lanes by table view (counting sort), so every
    // axis kernel runs monomorphically against one shared grid -- the grid
    // values become broadcast constants instead of per-lane gathers.  Lanes
    // are merely reordered (each is still processed exactly once against its
    // own table), so grouping cannot change any result.
    const std::size_t nviews = views_.size();
    s.vcnt.assign(nviews, 0);
    for (std::size_t j = 0; j < staged; ++j) {
      ++s.vcnt[static_cast<std::size_t>(s.view[j])];
    }
    s.voff.resize(nviews);
    std::uint32_t run = 0;
    for (std::size_t v = 0; v < nviews; ++v) {
      s.voff[v] = run;
      run += s.vcnt[v];
    }
    for (std::size_t j = 0; j < staged; ++j) {
      const std::uint32_t pos = s.voff[static_cast<std::size_t>(s.view[j])]++;
      s.laneG[pos] = s.lane[j];
      s.uuP[pos] = s.uu[j];
      s.vvP[pos] = s.vv[j];
      s.wwP[pos] = s.ww[j];
    }

    // Per group: the axis-location kernel (overshoot, cell index, fraction)
    // for each axis, then a short scalar combine staging the clamp distance
    // and the 8 corner indices with the view's strides hoisted.
    for (std::size_t v = 0; v < nviews; ++v) {
      const std::uint32_t cnt = s.vcnt[v];
      if (cnt == 0) continue;
      const std::uint32_t glo = s.voff[v] - cnt;  // voff was bumped to the end
      const TableView& tv = views_[v];

      const auto runAxis = [&](std::uint32_t off, std::uint32_t nx,
                               double denom, const std::vector<double>& xs,
                               std::vector<double>& f, std::vector<double>& over,
                               std::vector<std::uint32_t>& idx) {
        if (nx >= 2) {
          simd::AxisLocateBatch ab;
          ab.grid = arena + off;
          ab.n = nx;
          ab.denom = denom;
          ab.x = xs.data() + glo;
          ab.f = f.data() + glo;
          ab.over = over.data() + glo;
          ab.idx = idx.data() + glo;
          ab.count = cnt;
          simd::axisLocate(ab);
        } else {
          // Single-point grid: cell 0 with fraction 0; the overshoot is the
          // distance from the lone point, in select form.
          const double g0 = arena[off];
          for (std::uint32_t p = glo; p < glo + cnt; ++p) {
            const double x = xs[p];
            const double m1 = g0 - x;
            const double m2 = x - g0;
            double m = m1 > m2 ? m1 : m2;
            m = m > 0.0 ? m : 0.0;
            over[p] = m / denom;
            f[p] = 0.0;
            idx[p] = 0;
          }
        }
      };
      runAxis(tv.uOff, tv.nu, tv.uDenom, s.uuP, s.fu, s.overU, s.idxU);
      runAxis(tv.vOff, tv.nv, tv.vDenom, s.vvP, s.fv, s.overV, s.idxV);
      runAxis(tv.wOff, tv.nw, tv.wDenom, s.wwP, s.fw, s.overW, s.idxW);

      const std::uint32_t ghi = glo + cnt;
      for (std::uint32_t p = glo; p < ghi; ++p) {
        const double dist = std::max({s.overU[p], s.overV[p], s.overW[p]});
        DualResult& r = rs[s.laneG[p]];
        r.clampDistance = dist;
        if (dist > 0.0) ++clamped;
        const std::uint32_t iu = s.idxU[p];
        const std::uint32_t iv = s.idxV[p];
        const std::uint32_t iw = s.idxW[p];
        const std::uint32_t iu1 = std::min(iu + 1, tv.nu - 1);
        const std::uint32_t iv1 = std::min(iv + 1, tv.nv - 1);
        const std::uint32_t iw1 = std::min(iw + 1, tv.nw - 1);
        const std::uint32_t rowLo = tv.valOff + iu * tv.strideU;
        const std::uint32_t rowHi = tv.valOff + iu1 * tv.strideU;
        const std::uint32_t colLo = iv * tv.strideV;
        const std::uint32_t colHi = iv1 * tv.strideV;
        // Corner order matches the kernel contract: c000 c100 c001 c101
        //                                           c010 c110 c011 c111.
        s.corner[0][p] = rowLo + colLo + iw;
        s.corner[1][p] = rowHi + colLo + iw;
        s.corner[2][p] = rowLo + colLo + iw1;
        s.corner[3][p] = rowHi + colLo + iw1;
        s.corner[4][p] = rowLo + colHi + iw;
        s.corner[5][p] = rowHi + colHi + iw;
        s.corner[6][p] = rowLo + colHi + iw1;
        s.corner[7][p] = rowHi + colHi + iw1;
      }
    }

    // Pass 6 (SIMD): trilinear blends over the grouped lanes, then scatter
    // back to each lane's result.
    simd::TrilerpBatch batch;
    batch.base = arena;
    for (int c = 0; c < 8; ++c) batch.corner[c] = s.corner[c].data();
    batch.fu = s.fu.data();
    batch.fv = s.fv.data();
    batch.fw = s.fw.data();
    batch.out = s.out.data();
    batch.n = staged;
    simd::trilerp(batch);
    for (std::size_t j = 0; j < staged; ++j) {
      rs[s.laneG[j]].value = s.out[j];
    }
  }
  }  // tile loop

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
