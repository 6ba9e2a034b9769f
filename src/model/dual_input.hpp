#pragma once
// The dual-input proximity macromodel (Section 3): three-argument functions
//
//   Delta^(2)/Delta^(1) = D^(2)( tau_i/Delta^(1), tau_j/Delta^(1), s_ij/Delta^(1) )   (3.11)
//   tau^(2)/tau^(1)     = T^(2)( tau_i/tau^(1),   tau_j/tau^(1),   s_ij/tau^(1) )     (3.12)
//
// where i is the *dominant* (reference) input.  Every query goes through one
// virtual, DualInputModel::evaluateMany(); a scalar lookup is a batch of
// one.  Two interchangeable implementations answer it:
//   * OracleDualInputModel -- answers every query by running the
//     transistor-level simulator on the reduced two-input configuration.
//     This is exactly the paper's Section 5 methodology ("we used HSPICE as
//     the macromodel for processing the dual-input case").
//   * TabulatedDualInputModel -- a characterized 3-D table per reference pin
//     with trilinear interpolation; the deployable library model whose
//     storage cost is the subject of Fig 4-2.

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <tuple>
#include <vector>

#include "model/dual_memo.hpp"
#include "model/single_input.hpp"
#include "support/diagnostic.hpp"

namespace prox::model {

/// Which of the two macromodel quantities a query asks for.
enum class DualKind : std::uint8_t {
  Delay,       ///< Delta^(2)/Delta^(1)
  Transition,  ///< tau^(2)/tau^(1)
};

/// A dual-input query in raw (seconds) units.  Both inputs move in the same
/// direction @p edge; @p sep is measured from the reference input to the
/// other input at the Section 3 reference thresholds.
struct DualQuery {
  int refPin = 0;
  int otherPin = 1;
  wave::Edge edge = wave::Edge::Rising;
  double tauRef = 0.0;
  double tauOther = 0.0;
  double sep = 0.0;
  DualKind kind = DualKind::Delay;
};

/// One answer from evaluateMany().  Where ratio() throws (no table covers
/// the query), the answer is marked instead, so one bad query cannot poison
/// its whole batch.
struct DualResult {
  enum class Status : std::uint8_t {
    Ok,
    MissingTable,  ///< no single-input model or no dual table for the query
  };
  double value = 1.0;
  /// How far outside the table grid the query fell: the largest per-axis
  /// overshoot relative to that axis's span (0 for in-grid queries).  STA
  /// uses it to decide when a clamped answer is too extrapolated to trust.
  double clampDistance = 0.0;
  Status status = Status::Ok;
};

/// The typed error ratio() throws for a query no table answers:
/// TableMissing, with the reference pin attached.
support::DiagnosticError missingTableError(const DualQuery& q);

class DualInputModel {
 public:
  virtual ~DualInputModel() = default;

  /// Answers queries[i] into results[i] (@p results at least as long as
  /// @p queries): the ratio its kind asks for, Delta^(2)/Delta^(1) (>= 0;
  /// -> 1 as sep leaves the window) or tau^(2)/tau^(1).
  virtual void evaluateMany(std::span<const DualQuery> queries,
                            std::span<DualResult> results) const = 0;

  /// evaluateMany() over one query.
  DualResult lookup(const DualQuery& q) const;
  /// lookup()'s value; throws missingTableError() when no table covers @p q.
  double ratio(const DualQuery& q) const;

  double delayRatio(DualQuery q) const {
    q.kind = DualKind::Delay;
    return ratio(q);
  }
  double transitionRatio(DualQuery q) const {
    q.kind = DualKind::Transition;
    return ratio(q);
  }
};

/// Simulation-backed macromodel with memoization.
class OracleDualInputModel : public DualInputModel {
 public:
  /// @p sim, @p singles and @p memo must outlive the model.  A null @p memo
  /// means @p sim's own dualMemo(), so every oracle over one simulator
  /// shares one cache; a parallel sweep passes the caller's memo to the
  /// oracles over its per-worker simulators.
  OracleDualInputModel(GateSimulator& sim, const SingleInputModelSet& singles,
                       DualMemo* memo = nullptr);

  /// Simulates (or recalls from the memo) each query in index order.  A
  /// failed simulation throws out of the batch.
  void evaluateMany(std::span<const DualQuery> queries,
                    std::span<DualResult> results) const override;

 private:
  DualMemo::Pair evaluate(const DualQuery& q) const;

  GateSimulator& sim_;
  const SingleInputModelSet& singles_;
  // The memo is internally synchronized; the referenced simulator is NOT
  // thread-safe, so concurrent callers need one simulator per thread -- as
  // the parallel characterization sweep keeps one per worker.
  DualMemo& memo_;
};

/// One characterized 3-D ratio table over normalized coordinates.
struct DualTable {
  std::vector<double> u;  ///< tau_ref / norm grid (ascending)
  std::vector<double> v;  ///< tau_other / norm grid (ascending)
  std::vector<double> w;  ///< sep / norm grid (ascending)
  std::vector<double> ratio;  ///< [iu][iv][iw] flattened u-major

  /// Per-point healed marks: empty when no point needed healing, otherwise
  /// one flag per ratio entry (same flattening).  A healed point's value was
  /// reconstructed by neighbor interpolation after the characterization sweep
  /// failed there even with retries; the mark survives serialization so a
  /// downstream consumer can discount such points.
  std::vector<std::uint8_t> healed;

  double at(std::size_t iu, std::size_t iv, std::size_t iw) const {
    return ratio[(iu * v.size() + iv) * w.size() + iw];
  }
  double& at(std::size_t iu, std::size_t iv, std::size_t iw) {
    return ratio[(iu * v.size() + iv) * w.size() + iw];
  }

  std::size_t index(std::size_t iu, std::size_t iv, std::size_t iw) const {
    return (iu * v.size() + iv) * w.size() + iw;
  }
  bool isHealed(std::size_t iu, std::size_t iv, std::size_t iw) const {
    return !healed.empty() && healed[index(iu, iv, iw)] != 0;
  }
  void markHealed(std::size_t iu, std::size_t iv, std::size_t iw) {
    if (healed.empty()) healed.assign(ratio.size(), 0);
    healed[index(iu, iv, iw)] = 1;
  }
  /// Number of healed points (0 when the sweep completed cleanly).
  std::size_t healedCount() const;

  /// Storage footprint in bytes (Fig 4-2 accounting).
  std::size_t bytes() const {
    return sizeof(double) * (u.size() + v.size() + w.size() + ratio.size()) +
           sizeof(std::uint8_t) * healed.size();
  }
};

/// Table-backed macromodel.
///
/// Two granularities, matching the paper's Figure 4-2 options:
///   * per-reference-pin tables ("we need only n such macromodels") -- valid
///     for single-stack gates (NAND/NOR), where every partner behaves alike;
///   * per-(reference, other) *pair* tables (option 2(a), n^2 - n tables) --
///     required for complex gates, where two pins of the same reference can
///     sit in a series branch (slow-down) or a parallel branch (speed-up).
/// Lookup prefers the pair table and falls back to the per-reference one.
///
/// The DualTable maps own the tables; dense slot arrays keyed exactly like
/// the maps point into them, so a query finds its table without a map walk.
/// The slots point into this model's own maps, so the model is not copyable.
class TabulatedDualInputModel : public DualInputModel {
 public:
  explicit TabulatedDualInputModel(const SingleInputModelSet& singles);
  TabulatedDualInputModel(const TabulatedDualInputModel&) = delete;
  TabulatedDualInputModel& operator=(const TabulatedDualInputModel&) = delete;

  /// Installs the per-reference delay table for (refPin, edge).
  void setDelayTable(int refPin, wave::Edge edge, DualTable table);
  /// Installs the per-reference transition-time table for (refPin, edge).
  void setTransitionTable(int refPin, wave::Edge edge, DualTable table);

  /// Installs pair-specific tables for (refPin, otherPin, edge).
  void setPairDelayTable(int refPin, int otherPin, wave::Edge edge,
                         DualTable table);
  void setPairTransitionTable(int refPin, int otherPin, wave::Edge edge,
                              DualTable table);

  bool hasTables(int refPin, wave::Edge edge) const;
  bool hasPairTables(int refPin, int otherPin, wave::Edge edge) const;
  const DualTable& delayTable(int refPin, wave::Edge edge) const;
  const DualTable& transitionTable(int refPin, wave::Edge edge) const;
  const DualTable& pairDelayTable(int refPin, int otherPin,
                                  wave::Edge edge) const;
  const DualTable& pairTransitionTable(int refPin, int otherPin,
                                       wave::Edge edge) const;

  /// All installed pair-table keys as (refPin, otherPin, edge) tuples.
  std::vector<std::tuple<int, int, wave::Edge>> pairKeys() const;

  /// Answers each query from start to finish, in index order: @p q's kind
  /// selects the delay or transition table.  A query outside its proximity
  /// window is 1.0; a query outside a table grid is answered with the
  /// clamped boundary value and its clamp distance; a query no table covers
  /// comes back with Status::MissingTable.
  ///
  /// Not safe to call concurrently with set*Table; concurrent evaluateMany
  /// calls are fine.
  void evaluateMany(std::span<const DualQuery> queries,
                    std::span<DualResult> results) const override;

  /// Total table storage in bytes.
  std::size_t totalBytes() const;

 private:
  using Slots = std::vector<const DualTable*>;

  static int key(int pin, wave::Edge edge) {
    return pin * 2 + (edge == wave::Edge::Rising ? 0 : 1);
  }
  static int pairKey(int refPin, int otherPin, wave::Edge edge) {
    return (refPin * 64 + otherPin) * 2 + (edge == wave::Edge::Rising ? 0 : 1);
  }
  /// Stores @p table under @p k and points @p slots[k] at it.
  static void install(std::map<int, DualTable>& tables, Slots& slots, int k,
                      DualTable table);

  const SingleInputModelSet& singles_;
  std::map<int, DualTable> delayTables_;
  std::map<int, DualTable> transitionTables_;
  std::map<int, DualTable> pairDelayTables_;
  std::map<int, DualTable> pairTransitionTables_;

  /// Dense slot arrays: map key -> table, null when absent.  Sized to the
  /// largest installed key, so an out-of-range probe means "no table".
  Slots delaySlots_, transSlots_;
  Slots pairDelaySlots_, pairTransSlots_;
};

}  // namespace prox::model
