#include "model/single_input.hpp"

#include <algorithm>
#include <stdexcept>

namespace prox::model {

namespace {

/// Piecewise-linear interpolation with linear extrapolation at both ends.
double interp(const std::vector<SingleInputModel::Sample>& t, double tau,
              double SingleInputModel::Sample::*field) {
  if (t.size() == 1) return t[0].*field;
  // Locate the bracketing pair (or the end pair for extrapolation).
  std::size_t hi = 1;
  while (hi + 1 < t.size() && t[hi].tau < tau) ++hi;
  const auto& a = t[hi - 1];
  const auto& b = t[hi];
  const double f = (tau - a.tau) / (b.tau - a.tau);
  return a.*field + f * (b.*field - a.*field);
}

}  // namespace

SingleInputModel::SingleInputModel(int pin, wave::Edge edge,
                                   std::vector<Sample> table, double loadCap,
                                   double strengthK, double vdd)
    : pin_(pin),
      edge_(edge),
      table_(std::move(table)),
      loadCap_(loadCap),
      strengthK_(strengthK),
      vdd_(vdd) {
  if (table_.empty()) {
    throw std::invalid_argument("SingleInputModel: empty table");
  }
  if (!std::is_sorted(table_.begin(), table_.end(),
                      [](const Sample& a, const Sample& b) { return a.tau < b.tau; })) {
    throw std::invalid_argument("SingleInputModel: table not sorted by tau");
  }
}

double SingleInputModel::delay(double tau) const {
  if (table_.empty()) throw std::runtime_error("SingleInputModel: not characterized");
  return interp(table_, tau, &Sample::delay);
}

double SingleInputModel::transition(double tau) const {
  if (table_.empty()) throw std::runtime_error("SingleInputModel: not characterized");
  return interp(table_, tau, &Sample::transition);
}

double SingleInputModel::normalizedX(double tau) const {
  return loadCap_ / (strengthK_ * vdd_ * tau);
}

double SingleInputModel::delayOverTauAtX(double x) const {
  // Invert x(tau) = CL/(K Vdd tau): tau = CL/(K Vdd x), then evaluate.
  const double tau = loadCap_ / (strengthK_ * vdd_ * x);
  return delay(tau) / tau;
}

SingleInputModel SingleInputModel::characterize(
    GateSimulator& sim, int pin, wave::Edge edge,
    const std::vector<double>& tauGrid) {
  if (tauGrid.empty()) {
    throw std::invalid_argument("SingleInputModel::characterize: empty grid");
  }
  std::vector<Sample> table;
  for (double tau : tauGrid) {
    InputEvent ev;
    ev.pin = pin;
    ev.edge = edge;
    ev.tau = tau;
    ev.tRef = 0.0;
    const SimOutcome o = sim.simulateSingle(ev);
    if (!o.delay || !o.transitionTime) {
      throw std::runtime_error(
          "SingleInputModel::characterize: output never crossed thresholds");
    }
    table.push_back({tau, *o.delay, *o.transitionTime});
  }
  std::sort(table.begin(), table.end(),
            [](const Sample& a, const Sample& b) { return a.tau < b.tau; });

  const cells::CellSpec& spec = sim.gate().spec;
  // The driving strength for the normalized coordinate: the pulldown bank
  // moves a falling output (rising inputs) and vice versa.
  const bool outputFalls =
      spec.outputEdgeFor(edge) == wave::Edge::Falling;
  const spice::MosfetParams& p = outputFalls ? spec.tech.nmos : spec.tech.pmos;
  const double w = outputFalls ? spec.wn : spec.wp;
  const double k = 0.5 * p.kp * w / p.l;

  return SingleInputModel(pin, edge, std::move(table), spec.loadCap, k,
                          spec.tech.vdd);
}

void SingleInputModelSet::set(SingleInputModel m) {
  if (!m.valid()) throw std::invalid_argument("SingleInputModelSet: invalid model");
  models_[key(m.pin(), m.edge())] = std::move(m);
}

const SingleInputModel* SingleInputModelSet::find(int pin,
                                                  wave::Edge edge) const {
  const auto it = models_.find(key(pin, edge));
  return it != models_.end() ? &it->second : nullptr;
}

bool SingleInputModelSet::has(int pin, wave::Edge edge) const {
  return find(pin, edge) != nullptr;
}

const SingleInputModel& SingleInputModelSet::at(int pin, wave::Edge edge) const {
  const SingleInputModel* m = find(pin, edge);
  if (m == nullptr) {
    throw std::out_of_range("SingleInputModelSet: no model for pin " +
                            std::to_string(pin));
  }
  return *m;
}

SingleInputModelSet SingleInputModelSet::characterizeAll(
    GateSimulator& sim, const std::vector<double>& tauGrid) {
  SingleInputModelSet set;
  const cells::CellSpec& spec = sim.gate().spec;
  const int n = spec.type == cells::GateType::Inverter ? 1 : spec.fanin;
  for (int pin = 0; pin < n; ++pin) {
    set.set(SingleInputModel::characterize(sim, pin, wave::Edge::Rising, tauGrid));
    set.set(SingleInputModel::characterize(sim, pin, wave::Edge::Falling, tauGrid));
  }
  return set;
}

}  // namespace prox::model
