#include "model/dominance.hpp"

#include <algorithm>
#include <numeric>

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

std::vector<std::size_t> dominanceOrder(const std::vector<InputEvent>& events,
                                        const SingleInputModelSet& singles,
                                        DominanceSense sense) {
  std::vector<std::size_t> order(events.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     const double ca = predictedCrossing(events[a], singles);
                     const double cb = predictedCrossing(events[b], singles);
                     return sense == DominanceSense::EarliestFirst ? ca < cb
                                                                   : ca > cb;
                   });
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
