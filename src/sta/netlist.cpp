#include "sta/netlist.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "support/budget.hpp"
#include "support/diagnostic.hpp"

namespace prox::sta {

namespace {

constexpr const char* kSite = "sta.netlist";

[[noreturn]] void failStructural(const std::string& msg) {
  PROX_OBS_COUNT("sta.structural.rejects", 1);
  throw support::DiagnosticError(
      support::makeDiagnostic(support::StatusCode::StructuralError, msg)
          .withSite(kSite));
}

const char* issueCounter(StructuralIssue::Kind k) {
  switch (k) {
    case StructuralIssue::Kind::Cycle: return "sta.structural.cycles";
    case StructuralIssue::Kind::SelfLoop: return "sta.structural.self_loops";
    case StructuralIssue::Kind::MultiDriver:
      return "sta.structural.multi_drivers";
    case StructuralIssue::Kind::DanglingInput:
      return "sta.structural.dangling_inputs";
  }
  return "sta.structural.unknown";
}

}  // namespace

const char* structuralKindName(StructuralIssue::Kind k) {
  switch (k) {
    case StructuralIssue::Kind::Cycle: return "cycle";
    case StructuralIssue::Kind::SelfLoop: return "self-loop";
    case StructuralIssue::Kind::MultiDriver: return "multi-driver";
    case StructuralIssue::Kind::DanglingInput: return "dangling-input";
  }
  return "?";
}

void Netlist::reserve(std::size_t nets, std::size_t nodes, std::size_t pins) {
  netNames_.reserve(nets);
  netDriver_.reserve(nets);
  netIsPi_.reserve(nets);
  netIndex_.reserve(nets);
  nodeNames_.reserve(nodes);
  nodeCells_.reserve(nodes);
  nodeOutput_.reserve(nodes);
  nodeIndex_.reserve(nodes);
  pinFirst_.reserve(nodes + 1);
  pinNets_.reserve(pins);
}

NetId Netlist::internNet(const std::string& name) {
  const auto [it, inserted] = netIndex_.try_emplace(name, NetId());
  if (inserted) {
    if (netNames_.size() >= kInvalidIdValue) {
      throw std::length_error("Netlist: net count overflows 32-bit IDs");
    }
    it->second = NetId(netNames_.size());
    netNames_.push_back(name);
    netDriver_.emplace_back();
    netIsPi_.push_back(0);
  }
  return it->second;
}

NetId Netlist::addPrimaryInput(const std::string& net) {
  schedules_.clear();
  if (isDriven(net)) {
    throw std::invalid_argument("Netlist: net already driven: " + net);
  }
  const NetId id = internNet(net);
  netIsPi_[id.value] = 1;
  primaryInputs_.push_back(id);
  return id;
}

NodeId Netlist::addInstance(const std::string& name,
                            const characterize::CharacterizedGate& cell,
                            const std::vector<std::string>& inputNets,
                            const std::string& outputNet) {
  if (isDriven(outputNet)) {
    throw std::invalid_argument("Netlist: net multiply driven: " + outputNet);
  }
  return addInstanceLenient(name, cell, inputNets, outputNet);
}

NodeId Netlist::addInstanceLenient(const std::string& name,
                                   const characterize::CharacterizedGate& cell,
                                   const std::vector<std::string>& inputNets,
                                   const std::string& outputNet) {
  return addInstanceLenient(name, cell, std::span<const std::string>(inputNets),
                            outputNet);
}

NodeId Netlist::addInstanceLenient(const std::string& name,
                                   const characterize::CharacterizedGate& cell,
                                   std::span<const std::string> inputNets,
                                   const std::string& outputNet) {
  schedules_.clear();
  if (nodeCount() >= kInvalidIdValue) {
    throw std::length_error("Netlist: node count overflows 32-bit IDs");
  }
  const auto [it, inserted] = nodeIndex_.try_emplace(name, NodeId());
  if (!inserted) {
    throw std::invalid_argument("Netlist: duplicate instance: " + name);
  }
  if (static_cast<int>(inputNets.size()) != cell.pinCount()) {
    nodeIndex_.erase(it);
    throw std::invalid_argument("Netlist: pin count mismatch on " + name);
  }
  support::budgetChargeNodes(1, kSite);

  const NodeId node(nodeCount());
  it->second = node;
  nodeNames_.push_back(name);
  nodeCells_.push_back(&cell);
  for (const std::string& net : inputNets) pinNets_.push_back(internNet(net));
  pinFirst_.push_back(static_cast<std::uint32_t>(pinNets_.size()));

  const NetId out = internNet(outputNet);
  nodeOutput_.push_back(out);
  if (netIsPi_[out.value] != 0 || netDriver_[out.value].valid()) {
    // Untrusted input: the first driver keeps the net; this one is recorded
    // for validate()/levelize() to report.
    extraDrivers_.emplace_back(out, node);
  } else {
    netDriver_[out.value] = node;
  }
  return node;
}

NetId Netlist::findNet(const std::string& name) const {
  const auto it = netIndex_.find(name);
  return it == netIndex_.end() ? NetId() : it->second;
}

NodeId Netlist::findNode(const std::string& name) const {
  const auto it = nodeIndex_.find(name);
  return it == nodeIndex_.end() ? NodeId() : it->second;
}

bool Netlist::isDriven(const std::string& net) const {
  const NetId id = findNet(net);
  if (!id.valid()) return false;
  return netIsPi_[id.value] != 0 || netDriver_[id.value].valid();
}

const LevelizeResult& Netlist::levelize(StructuralPolicy policy) const {
  const std::lock_guard<std::mutex> lock(schedules_.fill);
  std::optional<LevelizeResult>& slot =
      schedules_.byPolicy[static_cast<std::size_t>(policy)];
  // A Reject failure throws out of computeLevels() and leaves the slot empty.
  if (!slot) slot = computeLevels(policy);
  return *slot;
}

LevelizeResult Netlist::computeLevels(StructuralPolicy policy) const {
  PROX_OBS_SPAN("sta.graph.levelize");
  LevelizeResult out;
  const std::size_t n = nodeCount();
  const bool reject = policy == StructuralPolicy::Reject;

  std::vector<char> degraded(n, 0);
  const auto report = [&](StructuralIssue issue, const NodeId* degradeIdx) {
    // Looked up by name: PROX_OBS_COUNT caches its counter in a static, which
    // would pin every kind to the first one counted.
    if (obs::kStatsCompiledIn) obs::counter(issueCounter(issue.kind)).add(1);
    if (reject) {
      failStructural("Netlist: " + issue.message);
    }
    if (degradeIdx != nullptr) degraded[degradeIdx->value] = 1;
    out.issues.push_back(std::move(issue));
  };

  // Multiply-driven nets recorded at lenient construction.
  for (const auto& [net, loser] : extraDrivers_) {
    StructuralIssue issue;
    issue.kind = StructuralIssue::Kind::MultiDriver;
    issue.message = "net multiply driven: " + netNames_[net.value] +
                    " (instance " + nodeNames_[loser.value] + " loses to " +
                    (netDriver_[net.value].valid()
                         ? nodeNames_[netDriver_[net.value].value]
                         : std::string("primary input")) +
                    ")";
    issue.instances.push_back(nodeNames_[loser.value]);
    report(std::move(issue), &loser);
  }

  // Dependency edges, straight off the pin CSR (ID-only), into a consumer
  // CSR built in two passes: the first counts each driver's consumers (and
  // reports dangling inputs, which either reject or become no-event nets
  // with the consumer marked degraded), the second fills each driver's
  // slice in consumer order.  A consumer reading one driver on two pins
  // appears twice and waits for both.  A primary input never has a driver.
  std::vector<std::uint32_t> remaining(n, 0);
  std::vector<std::uint32_t> consumerFirst(n + 1, 0);
  for (std::uint32_t i = 0; i < n; ++i) {
    for (const NetId net : nodeInputs(NodeId(i))) {
      if (netIsPi_[net.value] != 0) continue;
      const NodeId driver = netDriver_[net.value];
      if (!driver.valid()) {
        StructuralIssue issue;
        issue.kind = StructuralIssue::Kind::DanglingInput;
        issue.message = "undriven input net " + netNames_[net.value] +
                        " on instance " + nodeNames_[i];
        issue.instances.push_back(nodeNames_[i]);
        const NodeId self(i);
        report(std::move(issue), &self);
        continue;
      }
      ++consumerFirst[driver.value + 1];
      ++remaining[i];
    }
  }
  for (std::size_t d = 0; d < n; ++d) consumerFirst[d + 1] += consumerFirst[d];
  std::vector<std::uint32_t> consumers(consumerFirst[n]);
  {
    std::vector<std::uint32_t> fill(consumerFirst.begin(),
                                    consumerFirst.end() - 1);
    for (std::uint32_t i = 0; i < n; ++i) {
      for (const NetId net : nodeInputs(NodeId(i))) {
        const NodeId driver = netDriver_[net.value];
        if (driver.valid()) consumers[fill[driver.value]++] = i;
      }
    }
  }

  // Frontier-by-frontier Kahn: each frontier is one level.  When the
  // frontier drains with nodes still unplaced, those nodes sit on or behind
  // a cycle; Degrade breaks the cycle at its lowest-numbered member (a
  // deterministic choice) and resumes, so the loop always terminates with
  // every node placed exactly once.
  std::vector<char> placedMark(n, 0);
  std::size_t placed = 0;
  out.order.reserve(n);
  std::vector<std::uint32_t> frontier;
  std::vector<std::uint32_t> next;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (remaining[i] == 0) frontier.push_back(i);
  }
  while (true) {
    while (!frontier.empty()) {
      next.clear();
      for (const std::uint32_t i : frontier) {
        out.order.push_back(NodeId(i));
        placedMark[i] = 1;
        ++placed;
        for (std::uint32_t e = consumerFirst[i]; e < consumerFirst[i + 1];
             ++e) {
          const std::uint32_t c = consumers[e];
          if (remaining[c] > 0 && --remaining[c] == 0 && placedMark[c] == 0) {
            next.push_back(c);
          }
        }
      }
      // Declaration order within a level keeps task indices (and thus the
      // deterministic fault-plan keying) independent of discovery order.
      std::sort(next.begin(), next.end());
      out.levelFirst.push_back(static_cast<std::uint32_t>(out.order.size()));
      frontier.swap(next);
    }
    if (placed == n) break;

    // Stuck: extract one cycle by walking unplaced predecessors (in pin
    // order) from the lowest-numbered unplaced node.  Every unplaced node
    // has an unplaced dependency, so the walk must revisit a node.
    std::uint32_t start = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
      if (placedMark[i] == 0) {
        start = i;
        break;
      }
    }
    std::vector<std::uint32_t> path;
    std::vector<std::uint32_t> posInPath(n, static_cast<std::uint32_t>(n));
    std::uint32_t cur = start;
    while (posInPath[cur] == n) {
      posInPath[cur] = static_cast<std::uint32_t>(path.size());
      path.push_back(cur);
      for (const NetId net : nodeInputs(NodeId(cur))) {
        const NodeId driver = netDriver_[net.value];
        if (driver.valid() && placedMark[driver.value] == 0) {
          cur = driver.value;
          break;
        }
      }
    }
    // path[posInPath[cur]..] is the cycle in predecessor order; reverse it
    // so the message reads in signal-flow (driver -> consumer) order.
    std::vector<std::uint32_t> cycle(path.begin() + posInPath[cur], path.end());
    std::reverse(cycle.begin(), cycle.end());

    StructuralIssue issue;
    issue.kind = cycle.size() == 1 ? StructuralIssue::Kind::SelfLoop
                                   : StructuralIssue::Kind::Cycle;
    for (const std::uint32_t i : cycle) issue.instances.push_back(nodeNames_[i]);
    std::string pathText;
    for (const std::string& name : issue.instances) {
      pathText += name;
      pathText += " -> ";
    }
    pathText += issue.instances.front();
    issue.message = std::string(cycle.size() == 1 ? "self-loop"
                                                  : "combinational cycle") +
                    " detected: " + pathText;

    const NodeId breaker(*std::min_element(cycle.begin(), cycle.end()));
    report(std::move(issue), &breaker);
    PROX_OBS_COUNT("sta.structural.loop_breaks", 1);
    remaining[breaker.value] = 0;
    frontier.assign(1, breaker.value);
  }

  // levelFirst currently holds each level's end offset; prepend the start.
  out.levelFirst.insert(out.levelFirst.begin(), 0);
  for (std::uint32_t i = 0; i < n; ++i) {
    if (degraded[i] != 0) out.degradedNodes.push_back(NodeId(i));
  }
  PROX_OBS_COUNT("sta.graph.nodes_levelized", placed);
  PROX_OBS_COUNT("sta.graph.levels", out.levelCount());
  return out;
}

std::vector<StructuralIssue> Netlist::validate() const {
  return levelize(StructuralPolicy::Degrade).issues;
}

}  // namespace prox::sta
