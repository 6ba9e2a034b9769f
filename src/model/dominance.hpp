#pragma once
// Dominant-input identification (Section 3, Figure 3-2).
//
// Between two switching inputs a and b, the dominant input is the one whose
// *standalone* output response crosses the delay threshold closest to the
// combined response -- equivalently, the one with the earlier predicted
// crossing t_k + Delta_k^(1).  The paper's Step 1 relabeling condition
// (i before j iff s_ij > Delta_i^(1) - Delta_j^(1)) is exactly a sort by this
// predicted crossing time.

// Direction matters ("an analogous argument can be made for the case when
// the two inputs are rising"):
//   * transitions toward the gate's CONTROLLING value (falling inputs on a
//     NAND, rising on a NOR) drive parallel conduction paths -- the output
//     responds to the FIRST input, so the dominant input is the one with the
//     earliest predicted crossing;
//   * transitions toward the NON-CONTROLLING value (rising on a NAND,
//     falling on a NOR) must complete a series stack -- the output waits for
//     the LAST input, so the dominant input has the latest predicted
//     crossing.

#include <functional>
#include <vector>

#include "cells/pull_network.hpp"
#include "model/single_input.hpp"
#include "model/stimulus.hpp"

namespace prox::model {

/// Predicted standalone output crossing time of @p ev: tRef + Delta^(1)(tau).
double predictedCrossing(const InputEvent& ev, const SingleInputModelSet& singles);

/// Which end of the predicted-crossing order dominates.
enum class DominanceSense {
  EarliestFirst,  ///< parallel conduction: first input wins
  LatestFirst,    ///< series conduction: last input wins
};

/// Sense for a gate type and an input transition direction.
DominanceSense dominanceSense(cells::GateType type, wave::Edge inputEdge);

/// Sense for a complex gate: with the non-switching pins at a sensitizing
/// assignment, the switching subnetwork is OR-like when any single switching
/// pin can toggle the output by itself (parallel race: earliest wins) and
/// AND-like otherwise (series completion: latest wins).
DominanceSense complexDominanceSense(const cells::ComplexCellSpec& spec,
                                     const std::vector<int>& switchingPins,
                                     wave::Edge inputEdge);

/// Sense for @p events on @p gate: structural (complexDominanceSense) for a
/// complex gate, by gate type otherwise.  Every resolver below agrees with it.
DominanceSense dominanceSense(const Gate& gate,
                              const std::vector<InputEvent>& events);

/// Strategy that maps an event set to the dominance sense to use.
using SenseResolver =
    std::function<DominanceSense(const std::vector<InputEvent>&)>;

/// Resolver for a simple gate type.
SenseResolver senseResolverFor(cells::GateType type);

/// Resolver for @p gate: dominanceSense(gate, events) as a strategy (copies a
/// complex gate's spec).
SenseResolver senseResolverFor(const Gate& gate);

/// Step 1 into caller-owned buffers (their capacity is reused across arcs):
/// takes each event's Delta^(1) once into @p delay1, its predicted crossing
/// (tRef + Delta^(1)) into @p crossing, and sorts the event indices in
/// @p order by dominance (most dominant first) in the given sense.  The sort
/// is a stable insertion sort over the crossings, so ties are broken by
/// event order, matching the paper's observation that with identical inputs
/// "our algorithm will identify one of the inputs as the dominant one and
/// proceed".  Throws when an event's single-input model is missing.
void dominanceOrder(const std::vector<InputEvent>& events,
                    const SingleInputModelSet& singles, DominanceSense sense,
                    std::vector<std::size_t>& order,
                    std::vector<double>& delay1, std::vector<double>& crossing);

/// The dominance order alone (the buffered overload above, fresh buffers).
std::vector<std::size_t> dominanceOrder(const std::vector<InputEvent>& events,
                                        const SingleInputModelSet& singles,
                                        DominanceSense sense);

/// Convenience overload: EarliestFirst (the paper's Figure 3-2 derivation).
std::vector<std::size_t> dominanceOrder(const std::vector<InputEvent>& events,
                                        const SingleInputModelSet& singles);

/// Dominance crossover separation between two inputs (Figure 3-3): for
/// separations s_ab beyond Delta_a^(1) - Delta_b^(1), input a stops being
/// dominant.  Returns that crossover value.
double dominanceCrossover(const InputEvent& a, const InputEvent& b,
                          const SingleInputModelSet& singles);

}  // namespace prox::model
