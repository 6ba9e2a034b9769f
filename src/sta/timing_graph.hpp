#pragma once
// Arrival-time propagation over a combinational netlist.  The analyzer walks
// the arena's levelized schedule, evaluating each gate with the selected
// delay calculation mode.  Nets without an assigned arrival are treated as
// stable at the driving gate's non-controlling level (classic STA "no event"
// semantics).
//
// Hot-path storage is ID-indexed: arrivals live in a NetId-indexed flat
// array, the schedule is a NodeId CSR, and pin reads go through the
// netlist's pin CSR -- no strings or hash lookups per arc.  The string
// overloads (setInputArrival / arrival) resolve names once at the API
// boundary.

#include "sta/delay_calc.hpp"
#include "sta/netlist.hpp"

namespace prox::sta {

class TimingAnalyzer {
 public:
  TimingAnalyzer(const Netlist& netlist, DelayMode mode,
                 DelayCalcOptions options = {})
      : netlist_(netlist), mode_(mode), options_(options) {}

  /// Sets the arrival event of a primary input net.  Throws
  /// std::invalid_argument when @p net is not a declared primary input.
  void setInputArrival(const std::string& net, Arrival arrival);
  void setInputArrival(NetId net, Arrival arrival);

  /// Propagates arrivals through the whole netlist along its levelized
  /// schedule (Netlist::levelize(), computed on the netlist's first analysis
  /// and reused until it changes).  Each run starts from the primary-input
  /// arrivals alone: every other net's arrival from an earlier run is
  /// cleared first, so re-running an analyzer equals a fresh one.
  /// Structural defects (cycles, multiply-driven nets, undriven inputs)
  /// follow options().structural: Reject throws
  /// DiagnosticError(StructuralError) naming the defect, on every run;
  /// Degrade levelizes anyway (loops broken deterministically) and records
  /// every issue in structuralIssues() on every run.
  /// Model-side per-arc failures follow options().allowDegraded: degraded
  /// arcs complete with a cruder estimate and are tallied in degradedArcs().
  void run();

  /// Arrival on @p net after run(); nullopt when the net never switches.
  std::optional<Arrival> arrival(const std::string& net) const;
  std::optional<Arrival> arrival(NetId net) const;

  DelayMode mode() const { return mode_; }
  const DelayCalcOptions& options() const { return options_; }

  /// Arcs of the last run() that fell below ArcQuality::Full, including
  /// instances degraded for structural reasons under
  /// StructuralPolicy::Degrade.
  std::size_t degradedArcs() const { return degradedArcs_; }

  /// Names of the instances degraded by the last run() -- model-side
  /// fallbacks and structural loop-breaks alike -- in declaration order.
  const std::vector<std::string>& degradedArcNames() const {
    return degradedArcNames_;
  }

  /// Structural defects the last run() degraded through (always empty under
  /// StructuralPolicy::Reject -- those throw instead).
  const std::vector<StructuralIssue>& structuralIssues() const {
    return structuralIssues_;
  }

  /// Depth of the schedule the last run() walked: the netlist's levelization
  /// under options().structural, which the run reused if it was kept.
  std::size_t levelCount() const { return levelCount_; }

 private:
  /// Grows the NetId-indexed arrival arrays to the netlist's current size.
  void syncArrivalStorage();

  const Netlist& netlist_;
  DelayMode mode_;
  DelayCalcOptions options_;
  // Arrival slots indexed by NetId.value; hasArrival_ distinguishes "never
  // switches" from a default-constructed slot.
  std::vector<Arrival> arrivals_;
  std::vector<char> hasArrival_;
  std::size_t degradedArcs_ = 0;
  std::vector<std::string> degradedArcNames_;
  std::vector<StructuralIssue> structuralIssues_;
  std::size_t levelCount_ = 0;
};

}  // namespace prox::sta
