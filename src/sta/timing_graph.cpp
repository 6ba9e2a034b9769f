#include "sta/timing_graph.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "obs/registry.hpp"
#include "obs/scoped_timer.hpp"
#include "obs/trace.hpp"
#include "par/parallel_for.hpp"
#include "support/budget.hpp"

namespace prox::sta {

void TimingAnalyzer::syncArrivalStorage() {
  if (arrivals_.size() < netlist_.netCount()) {
    arrivals_.resize(netlist_.netCount());
    hasArrival_.resize(netlist_.netCount(), 0);
  }
}

void TimingAnalyzer::setInputArrival(const std::string& net, Arrival arrival) {
  const NetId id = netlist_.findNet(net);
  if (!id.valid() || !netlist_.netIsPrimaryInput(id)) {
    throw std::invalid_argument("TimingAnalyzer: not a primary input: " + net);
  }
  setInputArrival(id, arrival);
}

void TimingAnalyzer::setInputArrival(NetId net, Arrival arrival) {
  if (!net.valid() || !netlist_.netIsPrimaryInput(net)) {
    throw std::invalid_argument("TimingAnalyzer: not a primary input net id");
  }
  syncArrivalStorage();
  arrivals_[net.value] = arrival;
  hasArrival_[net.value] = 1;
}

void TimingAnalyzer::run() {
  PROX_OBS_COUNT("sta.graph.runs", 1);
  PROX_OBS_SCOPED_TIMER("sta.graph.seconds");
  PROX_OBS_SPAN("sta.run");
  degradedArcs_ = 0;
  degradedArcNames_.clear();
  structuralIssues_.clear();
  syncArrivalStorage();
  // Only the primary inputs' arrivals carry over from a previous run: a net
  // read before this run writes it (a loop break) must see no event, not
  // the last run's answer.
  for (std::uint32_t i = 0; i < hasArrival_.size(); ++i) {
    if (!netlist_.netIsPrimaryInput(NetId(i))) hasArrival_[i] = 0;
  }
  const int threads =
      options_.threads == 0 ? par::defaultThreadCount() : options_.threads;

  // Structural gate: under Reject a defective graph throws here, before any
  // arc is evaluated; under Degrade the netlist's schedule already has the
  // loops broken and the defects recorded.  The schedule is levelized once
  // per netlist and policy, so repeated analyses share it.
  const LevelizeResult& structure = netlist_.levelize(options_.structural);
  structuralIssues_ = structure.issues;
  levelCount_ = structure.levelCount();
  std::vector<char> structurallyDegraded(netlist_.nodeCount(), 0);
  for (const NodeId n : structure.degradedNodes) {
    structurallyDegraded[n.value] = 1;
  }

  // Levelized evaluation: all arcs of one level read only arrivals committed
  // by earlier levels, so a level's tasks share the arrival array read-only
  // and each writes its own result slots.  A task owns a fixed 64-arc chunk
  // of the level and feeds it to evaluateGateBatch, which answers the
  // chunk's dual-table queries through evaluateMany.  Slots commit serially
  // in node order between levels, making arrival values (and
  // degradedArcs_) bit-identical at any thread count and independent of the
  // chunking.  Task indices restart per level, so task-keyed fault plans
  // address "chunk c of each level" deterministically.
  constexpr std::size_t kChunk = 64;
  std::vector<BatchArcResult> results;
  for (std::size_t levelIndex = 0; levelIndex < structure.levelCount();
       ++levelIndex) {
    PROX_OBS_SPAN_ARG("sta.level", "level", levelIndex);
    support::budgetCheckRss("sta.timing_graph");
    const std::span<const NodeId> level =
        structure.level(LevelId(static_cast<std::uint32_t>(levelIndex)));
    results.assign(level.size(), BatchArcResult{});
    const std::size_t chunkCount = (level.size() + kChunk - 1) / kChunk;
    par::parallelFor(
        chunkCount,
        [&](std::size_t c) {
          const std::size_t begin = c * kChunk;
          const std::size_t count = std::min(kChunk, level.size() - begin);
          PROX_OBS_COUNT("sta.graph.nodes_visited", count);
          // Per-thread chunk scratch: one chunk is in flight per thread at a
          // time, so reusing these across chunks (capacity preserved)
          // removes ~2 allocations per arc from the inner loop.
          thread_local std::vector<std::vector<std::optional<Arrival>>> pinsBuf;
          thread_local std::vector<BatchArc> arcs;
          if (pinsBuf.size() < count) pinsBuf.resize(count);
          arcs.assign(count, BatchArc{});
          for (std::size_t k = 0; k < count; ++k) {
            const NodeId node = level[begin + k];
            std::vector<std::optional<Arrival>>& pins = pinsBuf[k];
            pins.clear();
            for (const NetId net : netlist_.nodeInputs(node)) {
              pins.push_back(hasArrival_[net.value] != 0
                                 ? std::optional<Arrival>(arrivals_[net.value])
                                 : std::nullopt);
            }
            arcs[k] = {&netlist_.nodeCell(node), &pins};
          }
          evaluateGateBatch(std::span<const BatchArc>(arcs.data(), count),
                            mode_, options_,
                            std::span(results).subspan(begin, count));
        },
        {.threads = threads, .cancel = options_.cancel});
    for (std::size_t i = 0; i < level.size(); ++i) {
      const NodeId node = level[i];
      if (results[i].arrival) {
        const NetId out = netlist_.nodeOutput(node);
        arrivals_[out.value] = *results[i].arrival;
        hasArrival_[out.value] = 1;
      }
      if (results[i].quality != ArcQuality::Full ||
          structurallyDegraded[node.value] != 0) {
        ++degradedArcs_;
        degradedArcNames_.push_back(netlist_.nodeName(node));
      }
    }
    // Running degradation tally next to the level spans, so a trace shows
    // where in the graph the delay model started falling back.
    PROX_OBS_TRACE_COUNTER("sta.degraded_arcs", degradedArcs_);
  }
}

std::optional<Arrival> TimingAnalyzer::arrival(const std::string& net) const {
  return arrival(netlist_.findNet(net));
}

std::optional<Arrival> TimingAnalyzer::arrival(NetId net) const {
  if (!net.valid() || net.value >= hasArrival_.size() ||
      hasArrival_[net.value] == 0) {
    return std::nullopt;
  }
  return arrivals_[net.value];
}

}  // namespace prox::sta
