#include "model/dominance.hpp"

namespace prox::model {

double predictedCrossing(const InputEvent& ev, const SingleInputModelSet& singles) {
  return ev.tRef + singles.at(ev.pin, ev.edge).delay(ev.tau);
}

DominanceSense dominanceSense(cells::GateType type, wave::Edge inputEdge) {
  // Controlling value: 0 for NAND/inverter, 1 (Vdd) for NOR.  A transition
  // toward the controlling value engages the parallel bank (earliest wins);
  // toward the non-controlling value it completes the series stack (latest
  // wins).
  const bool towardControlling = type == cells::GateType::Nor
                                     ? inputEdge == wave::Edge::Rising
                                     : inputEdge == wave::Edge::Falling;
  return towardControlling ? DominanceSense::EarliestFirst
                           : DominanceSense::LatestFirst;
}

void dominanceOrder(const std::vector<InputEvent>& events,
                    const SingleInputModelSet& singles, DominanceSense sense,
                    std::vector<std::size_t>& order,
                    std::vector<double>& delay1, std::vector<double>& crossing) {
  const std::size_t n = events.size();
  delay1.resize(n);
  crossing.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const InputEvent& ev = events[i];
    delay1[i] = singles.at(ev.pin, ev.edge).delay(ev.tau);
    crossing[i] = ev.tRef + delay1[i];  // predictedCrossing(ev, singles)
  }
  const auto before = [&](std::size_t a, std::size_t b) {
    return sense == DominanceSense::EarliestFirst ? crossing[a] < crossing[b]
                                                  : crossing[a] > crossing[b];
  };
  // Stable insertion sort: an index moves only past strictly later-ranked
  // ones, so equal crossings keep event order -- for a strict weak order the
  // one order std::stable_sort gives, without its buffer or the Delta^(1)
  // lookups its comparator repeated.  Gates have a handful of inputs.
  order.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t j = i;
    for (; j > 0 && before(i, order[j - 1]); --j) order[j] = order[j - 1];
    order[j] = i;
  }
}

std::vector<std::size_t> dominanceOrder(const std::vector<InputEvent>& events,
                                        const SingleInputModelSet& singles,
                                        DominanceSense sense) {
  std::vector<std::size_t> order;
  std::vector<double> delay1, crossing;
  dominanceOrder(events, singles, sense, order, delay1, crossing);
  return order;
}

std::vector<std::size_t> dominanceOrder(const std::vector<InputEvent>& events,
                                        const SingleInputModelSet& singles) {
  return dominanceOrder(events, singles, DominanceSense::EarliestFirst);
}

DominanceSense complexDominanceSense(const cells::ComplexCellSpec& spec,
                                     const std::vector<int>& switchingPins,
                                     wave::Edge inputEdge) {
  if (switchingPins.size() < 2) return DominanceSense::EarliestFirst;
  const auto stable = spec.sensitizingAssignment(switchingPins);
  if (!stable) return DominanceSense::EarliestFirst;  // degenerate; unused

  // Pre-transition level of the switching pins: low for rising, high for
  // falling.  If flipping any single pin to its post-transition level
  // already toggles the output, the first arrival wins the race.
  const bool pre = inputEdge == wave::Edge::Falling;
  std::vector<bool> base = *stable;
  for (int p : switchingPins) base[static_cast<std::size_t>(p)] = pre;
  const bool outBefore = spec.outputFor(base);
  for (int p : switchingPins) {
    std::vector<bool> probe = base;
    probe[static_cast<std::size_t>(p)] = !pre;
    if (spec.outputFor(probe) != outBefore) {
      return DominanceSense::EarliestFirst;
    }
  }
  return DominanceSense::LatestFirst;
}

namespace {
DominanceSense complexSenseFor(const cells::ComplexCellSpec& spec,
                               const std::vector<InputEvent>& events) {
  std::vector<int> pins;
  pins.reserve(events.size());
  for (const InputEvent& ev : events) pins.push_back(ev.pin);
  return complexDominanceSense(spec, pins, events.front().edge);
}
}  // namespace

DominanceSense dominanceSense(const Gate& gate,
                              const std::vector<InputEvent>& events) {
  return gate.complex ? complexSenseFor(*gate.complex, events)
                      : dominanceSense(gate.spec.type, events.front().edge);
}

SenseResolver senseResolverFor(cells::GateType type) {
  return [type](const std::vector<InputEvent>& events) {
    return dominanceSense(type, events.front().edge);
  };
}

SenseResolver senseResolverFor(const Gate& gate) {
  if (!gate.complex) return senseResolverFor(gate.spec.type);
  return [spec = *gate.complex](const std::vector<InputEvent>& events) {
    return complexSenseFor(spec, events);
  };
}

double dominanceCrossover(const InputEvent& a, const InputEvent& b,
                          const SingleInputModelSet& singles) {
  const double da = singles.at(a.pin, a.edge).delay(a.tau);
  const double db = singles.at(b.pin, b.edge).delay(b.tau);
  return da - db;
}

}  // namespace prox::model
