#pragma once
// Circuit container for the MNA-based simulator.
//
// The simulator follows the classic SPICE architecture:
//   * a Circuit owns nodes (named, ground = node 0) and devices;
//   * every analysis assembles the modified nodal analysis (MNA) system
//     G x = b at each Newton iteration by asking every device to *stamp*
//     its linearized companion model;
//   * the unknown vector x holds node voltages (excluding ground) followed by
//     auxiliary branch currents (one per voltage source).
//
// Devices are value-owned by the circuit via unique_ptr; add<>() hands back a
// typed reference that stays valid for the circuit's lifetime (devices are
// never removed).

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "linalg/sparse.hpp"
#include "linalg/vector.hpp"

namespace prox::spice {

/// Node identifier.  0 is always ground.
using NodeId = int;
inline constexpr NodeId kGround = 0;

class Circuit;

/// Everything a device needs to stamp its linearized model into the MNA
/// system for one Newton iteration.  The matrix is sparse with a pattern
/// fixed by Circuit::finalize(); devices write through slot indices cached
/// during their bindStamp() pass, so stamping is allocation- and search-free.
struct StampArgs {
  linalg::SparseMatrix& g;  ///< conductance matrix (nUnknowns x nUnknowns)
  linalg::Vector& rhs;      ///< right-hand side (equivalent current sources)
  const linalg::Vector& x;  ///< current Newton iterate
  double time = 0.0;        ///< simulation time (0 for DC analyses)
  double dt = 0.0;          ///< current timestep (0 for DC analyses)
  bool transient = false;   ///< true when reactive elements must integrate
  bool trapezoidal = true;  ///< trapezoidal vs backward-Euler companions
  double srcScale = 1.0;    ///< source-stepping scale factor in [0, 1]
};

/// Abstract circuit element.
///
/// Devices with memory (capacitors) keep their integration state internally;
/// the analysis drives it through startTransient()/acceptStep().
class Device {
 public:
  explicit Device(std::string name) : name_(std::move(name)) {}
  virtual ~Device() = default;

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  const std::string& name() const { return name_; }

  /// Stamps the device's linearized companion model.
  virtual void stamp(const StampArgs& a) = 0;

  /// Declares every matrix position this device may ever write, so the
  /// circuit can freeze the MNA sparsity pattern once per topology.  Called
  /// by Circuit::finalize() after auxiliary indices are assigned.  Devices
  /// that only write the RHS (current sources) keep the empty default.
  virtual void declareStamp(linalg::SparsityPattern& /*p*/) const {}

  /// Caches slot indices into the finalized pattern, so stamp() writes
  /// through direct indices instead of per-call position lookups.  Called by
  /// Circuit::finalize() right after the pattern is frozen.
  virtual void bindStamp(const linalg::SparsityPattern& /*p*/) {}

  /// Number of auxiliary MNA unknowns (branch currents) this device needs.
  virtual int auxVarCount() const { return 0; }

  /// Called once by the circuit to hand the device its auxiliary indices
  /// (positions in the unknown vector).
  virtual void assignAuxIndices(int /*first*/) {}

  /// Called when a transient starts, with the DC operating point solution.
  virtual void startTransient(const linalg::Vector& /*x*/) {}

  /// Called when a transient step is accepted, so integrating devices can
  /// commit their state.  @p dt is the step just taken, ending at @p time.
  virtual void acceptStep(const linalg::Vector& /*x*/, double /*time*/,
                          double /*dt*/) {}

  /// Appends hard time breakpoints (e.g. PWL corners) that the transient
  /// analysis must land on exactly.
  virtual void collectBreakpoints(std::vector<double>& /*out*/) const {}

 private:
  std::string name_;
};

/// A circuit: named nodes plus an ordered list of devices.
class Circuit {
 public:
  Circuit() { nodeNames_.push_back("0"); }

  /// Returns the node with the given name, creating it if necessary.
  /// "0", "gnd" and "GND" all map to ground.
  NodeId node(const std::string& name);

  /// Looks up an existing node without creating it.
  std::optional<NodeId> findNode(const std::string& name) const;

  const std::string& nodeName(NodeId n) const { return nodeNames_.at(static_cast<std::size_t>(n)); }

  /// Total number of nodes, ground included.
  int nodeCount() const { return static_cast<int>(nodeNames_.size()); }

  /// Constructs a device in place and returns a typed reference.
  template <typename D, typename... Args>
  D& add(Args&&... args) {
    auto dev = std::make_unique<D>(std::forward<Args>(args)...);
    D& ref = *dev;
    devices_.push_back(std::move(dev));
    dirty_ = true;
    return ref;
  }

  const std::vector<std::unique_ptr<Device>>& devices() const { return devices_; }

  /// Index of node @p n's voltage in the unknown vector, or -1 for ground.
  int unknownIndex(NodeId n) const { return n - 1; }

  /// Finalizes the unknown layout: assigns auxiliary indices to devices,
  /// freezes the MNA sparsity pattern from the devices' declareStamp()
  /// pass, and lets every device cache its stamp slots.  Called
  /// automatically by analyses; idempotent until devices change.
  void finalize();

  /// The frozen MNA sparsity pattern.  Valid after finalize(); its
  /// generation() changes whenever devices are added and finalize() reruns.
  const linalg::SparsityPattern& pattern() const { return pattern_; }

  /// Number of MNA unknowns (node voltages + branch currents).  Valid after
  /// finalize().
  int unknownCount() const { return unknownCount_; }

  /// Number of node-voltage unknowns (nodeCount() - 1).
  int voltageUnknownCount() const { return nodeCount() - 1; }

  /// Voltage of node @p n in solution vector @p x (0 for ground).
  double nodeVoltage(const linalg::Vector& x, NodeId n) const;

  /// Sorted, de-duplicated breakpoints from all devices.
  std::vector<double> breakpoints() const;

 private:
  std::vector<std::string> nodeNames_;
  std::unordered_map<std::string, NodeId> nodesByName_;
  std::vector<std::unique_ptr<Device>> devices_;
  linalg::SparsityPattern pattern_;
  int unknownCount_ = 0;
  bool dirty_ = true;
};

}  // namespace prox::spice
