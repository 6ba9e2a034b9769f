#pragma once
// Single-input macromodels Delta^(1)(tau) and tau^(1)(tau) -- equations (3.7)
// and (3.8) of the paper.  Dimensional analysis reduces each to a
// one-argument function of x = C_L / (K * Vdd * tau); we characterize on a
// tau grid at the cell's load and store both the raw (tau -> value) table and
// the normalized coordinate so the model transfers across loads.

#include <map>
#include <vector>

#include "model/gate_sim.hpp"

namespace prox::model {

class SingleInputModel {
 public:
  struct Sample {
    double tau = 0.0;         ///< input transition time [s]
    double delay = 0.0;       ///< Delta^(1) [s]
    double transition = 0.0;  ///< tau^(1) [s]
  };

  SingleInputModel() = default;

  /// @p table must be sorted by tau, non-empty.  @p strengthK is the paper's
  /// K = (1/2) mu Cox W/L of the driving transistor (pulldown for falling
  /// output, pullup for rising); together with @p loadCap and @p vdd it
  /// defines the normalized coordinate x = C_L/(K Vdd tau).
  SingleInputModel(int pin, wave::Edge edge, std::vector<Sample> table,
                   double loadCap, double strengthK, double vdd);

  int pin() const { return pin_; }
  wave::Edge edge() const { return edge_; }
  const std::vector<Sample>& table() const { return table_; }
  bool valid() const { return !table_.empty(); }
  double loadCap() const { return loadCap_; }
  double strengthK() const { return strengthK_; }
  double vdd() const { return vdd_; }

  /// Delta^(1) at transition time @p tau (linear interpolation in tau;
  /// linear extrapolation beyond the grid).
  double delay(double tau) const;

  /// tau^(1) at transition time @p tau.
  double transition(double tau) const;

  /// The dimensionless load coordinate x = C_L / (K Vdd tau) -- eq (3.7).
  double normalizedX(double tau) const;

  /// Delta^(1)/tau as a function of x (the normalized macromodel form).
  /// Provided for the normalized-form tests and the Fig 4-2 storage bench.
  double delayOverTauAtX(double x) const;

  /// Characterizes the model by simulating the gate for each tau in @p grid.
  static SingleInputModel characterize(GateSimulator& sim, int pin,
                                       wave::Edge edge,
                                       const std::vector<double>& tauGrid);

 private:
  int pin_ = -1;
  wave::Edge edge_ = wave::Edge::Rising;
  std::vector<Sample> table_;
  double loadCap_ = 0.0;
  double strengthK_ = 0.0;
  double vdd_ = 0.0;
};

/// The per-gate collection of single-input macromodels: one per (pin, edge).
class SingleInputModelSet {
 public:
  void set(SingleInputModel m);
  bool has(int pin, wave::Edge edge) const;
  const SingleInputModel& at(int pin, wave::Edge edge) const;
  /// The model for (@p pin, @p edge), or null when there is none.
  const SingleInputModel* find(int pin, wave::Edge edge) const;

  /// Characterizes models for every pin of the gate in both directions.
  static SingleInputModelSet characterizeAll(GateSimulator& sim,
                                             const std::vector<double>& tauGrid);

 private:
  static int key(int pin, wave::Edge edge) {
    return pin * 2 + (edge == wave::Edge::Rising ? 0 : 1);
  }
  std::map<int, SingleInputModel> models_;
};

}  // namespace prox::model
