#pragma once
// Gate-level netlist for the demonstration STA, stored as a flat graph
// arena: instances and nets are dense typed IDs (sta/ids.hpp) over
// contiguous struct-of-arrays storage, input pins live in one CSR array,
// and names are interned exactly once at construction.  The traversal hot
// path (levelization, arc evaluation) never touches a string or a hash map;
// string lookups exist only at the API boundary (findNet / findNode) for
// front ends and reports.
//
// Structural trust boundary: netlists arriving from outside the process are
// validated *before* timing analysis.  validate() names every structural
// defect (combinational cycles with the offending path spelled out,
// multiply-driven nets, dangling instance inputs, self-loops); levelize()
// either rejects a defective graph with a typed DiagnosticError
// (StructuralPolicy::Reject) or degrades deterministically -- breaking each
// loop at its lowest-numbered instance and treating dangling inputs as
// no-event nets -- so levelization can never infinite-loop or mis-level
// (StructuralPolicy::Degrade).
//
// The levelized schedule is part of the netlist: levelize() computes it once
// per policy and keeps it until the next mutation, so every analysis of an
// unchanged netlist walks the same schedule.

#include <array>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "characterize/characterize.hpp"
#include "sta/ids.hpp"

namespace prox::sta {

/// How levelization responds to structural defects (see DelayCalcOptions).
enum class StructuralPolicy {
  Reject,   ///< throw DiagnosticError(StructuralError) naming the defect
  Degrade,  ///< warn-and-continue: break loops, skip dangling deps, tally
};

/// One named structural defect found by validate()/levelize().
struct StructuralIssue {
  enum class Kind { Cycle, SelfLoop, MultiDriver, DanglingInput };
  Kind kind = Kind::Cycle;
  /// Human-readable description; for cycles this names the offending path
  /// ("u1 -> u2 -> u3 -> u1").
  std::string message;
  /// Instances involved (cycle members in path order; the extra driver for
  /// MultiDriver; the consumer for DanglingInput).
  std::vector<std::string> instances;
};

const char* structuralKindName(StructuralIssue::Kind k);

/// levelize() output: a level-major CSR schedule plus everything that had to
/// be degraded to produce it.  With StructuralPolicy::Reject, issues is
/// always empty (defects throw instead).
struct LevelizeResult {
  /// All nodes, level-major; level L occupies order[levelFirst[L] ..
  /// levelFirst[L+1]).  Nodes within a level are in declaration (NodeId)
  /// order, so the schedule is deterministic.
  std::vector<NodeId> order;
  std::vector<std::uint32_t> levelFirst;  ///< size levelCount() + 1
  std::vector<StructuralIssue> issues;
  /// Nodes whose dependencies were forcibly cut (loop breaks, dangling
  /// inputs), in NodeId order: their arrival times are estimates, not
  /// analysis.
  std::vector<NodeId> degradedNodes;

  std::size_t levelCount() const {
    return levelFirst.empty() ? 0 : levelFirst.size() - 1;
  }
  std::span<const NodeId> level(LevelId l) const {
    return std::span<const NodeId>(order.data() + levelFirst[l.value],
                                   levelFirst[l.value + 1] -
                                       levelFirst[l.value]);
  }
};

class Netlist {
 public:
  /// Sizes the arena for about @p nets nets, @p nodes instances and @p pins
  /// input pins in all -- the per-net and per-node arrays, the pin CSR and
  /// both name indexes -- so a bulk build fills it without regrowing.  The
  /// counts are hints: a build that exceeds them still works.
  void reserve(std::size_t nets, std::size_t nodes, std::size_t pins);

  /// Declares a primary input net.  Throws std::invalid_argument when the
  /// net is already driven.
  NetId addPrimaryInput(const std::string& net);

  /// Adds a cell instance.  Throws std::invalid_argument on pin-count
  /// mismatch, duplicate instance name, or multiply-driven output net.
  NodeId addInstance(const std::string& name,
                     const characterize::CharacterizedGate& cell,
                     const std::vector<std::string>& inputNets,
                     const std::string& outputNet);

  /// addInstance for *untrusted* graph construction: a multiply-driven
  /// output net is recorded as a StructuralIssue for validate() instead of
  /// throwing (the first driver keeps the net).  Duplicate instance names
  /// and pin-count mismatches still throw std::invalid_argument -- those are
  /// caller bugs, not input properties.
  NodeId addInstanceLenient(const std::string& name,
                            const characterize::CharacterizedGate& cell,
                            const std::vector<std::string>& inputNets,
                            const std::string& outputNet);
  /// The one implementation behind both adds, taking the input nets as any
  /// contiguous run of names (a BLIF card's tokens, with no copy).
  NodeId addInstanceLenient(const std::string& name,
                            const characterize::CharacterizedGate& cell,
                            std::span<const std::string> inputNets,
                            const std::string& outputNet);

  // --- Arena accessors (hot path: all O(1), no strings) ---------------------

  std::size_t nodeCount() const { return nodeCells_.size(); }
  std::size_t netCount() const { return netNames_.size(); }

  const std::string& nodeName(NodeId n) const { return nodeNames_[n.value]; }
  const characterize::CharacterizedGate& nodeCell(NodeId n) const {
    return *nodeCells_[n.value];
  }
  NetId nodeOutput(NodeId n) const { return nodeOutput_[n.value]; }
  /// The node's input nets in pin order (a slice of the pin CSR).
  std::span<const NetId> nodeInputs(NodeId n) const {
    return std::span<const NetId>(pinNets_.data() + pinFirst_[n.value],
                                  pinFirst_[n.value + 1] - pinFirst_[n.value]);
  }

  const std::string& netName(NetId n) const { return netNames_[n.value]; }
  /// Driving node of @p net; invalid when the net is a primary input or
  /// undriven.
  NodeId netDriver(NetId n) const { return netDriver_[n.value]; }
  bool netIsPrimaryInput(NetId n) const { return netIsPi_[n.value] != 0; }
  /// Primary-input nets in declaration order.
  const std::vector<NetId>& primaryInputs() const { return primaryInputs_; }

  // --- String boundary (cold path) ------------------------------------------

  /// The net / instance named @p name; invalid ID when unknown.
  NetId findNet(const std::string& name) const;
  NodeId findNode(const std::string& name) const;

  /// True when @p net is driven by an instance or declared a primary input.
  bool isDriven(const std::string& net) const;

  // --- Structure ------------------------------------------------------------

  /// Full structural audit: every cycle (path named), multiply-driven net,
  /// dangling instance input, and self-loop, without throwing.  Empty means
  /// the graph is a well-formed combinational netlist.
  std::vector<StructuralIssue> validate() const;

  /// Nodes grouped by dependency depth under @p policy.  Reject: any
  /// structural defect throws support::DiagnosticError (StructuralError, a
  /// std::runtime_error) naming the defect.  Degrade: defects are recorded
  /// in the result, dangling inputs are treated as no-event nets, and each
  /// cycle is broken at its lowest-numbered member so levelization always
  /// terminates with every node placed exactly once.  Level 0 consumes only
  /// primary inputs; level L consumes at least one level-(L-1) output and
  /// nothing deeper; nodes within a level are independent of each other (the
  /// parallel STA evaluates a level concurrently) and appear in declaration
  /// order, so the schedule is deterministic.
  ///
  /// The result is computed on first use per policy and kept: the reference
  /// stays valid until the netlist's next mutation (addPrimaryInput,
  /// addInstance, addInstanceLenient), which drops it.  A rejected graph is
  /// never kept, so it throws (and counts) on every call.  Safe for
  /// concurrent const use: callers racing to fill the schedule serialize on
  /// a mutex, and the first one computes it.
  const LevelizeResult& levelize(StructuralPolicy policy) const;

 private:
  /// levelize()'s kept schedules, one slot per StructuralPolicy.  A copied
  /// or moved netlist starts with none and levelizes on its own first use.
  struct Schedules {
    Schedules() = default;
    Schedules(const Schedules&) {}
    Schedules& operator=(const Schedules&) {
      clear();
      return *this;
    }
    void clear() {
      for (std::optional<LevelizeResult>& slot : byPolicy) slot.reset();
    }

    std::mutex fill;
    std::array<std::optional<LevelizeResult>, 2> byPolicy;
  };

  /// The uncached levelization behind levelize().
  LevelizeResult computeLevels(StructuralPolicy policy) const;

  /// Interns @p name, growing the per-net arrays.
  NetId internNet(const std::string& name);

  // Per-net arrays, indexed by NetId.
  std::vector<std::string> netNames_;
  std::vector<NodeId> netDriver_;
  std::vector<char> netIsPi_;
  std::unordered_map<std::string, NetId> netIndex_;  // build/boundary only
  std::vector<NetId> primaryInputs_;

  // Per-node arrays, indexed by NodeId.
  std::vector<std::string> nodeNames_;
  std::vector<const characterize::CharacterizedGate*> nodeCells_;
  std::vector<NetId> nodeOutput_;
  std::unordered_map<std::string, NodeId> nodeIndex_;  // build/boundary only

  // Pin CSR: node n's pins are pinNets_[pinFirst_[n] .. pinFirst_[n+1]).
  std::vector<std::uint32_t> pinFirst_ = {0};
  std::vector<NetId> pinNets_;

  /// (net, losing node) pairs recorded by addInstanceLenient.
  std::vector<std::pair<NetId, NodeId>> extraDrivers_;

  mutable Schedules schedules_;
};

}  // namespace prox::sta
