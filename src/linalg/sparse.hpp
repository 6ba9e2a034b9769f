#pragma once
// Sparse MNA storage and LU factorization with symbolic/numeric splitting.
//
// Circuit matrices have a *fixed* sparsity pattern: the set of (row, col)
// positions a device may ever write is known from the topology alone, before
// any numeric value exists.  Classic SPICE practice (Nagel's SPICE2; KLU,
// Davis & Palamadai Natarajan) exploits this by splitting the solve into
//   1. a symbolic phase run once per pattern -- ordering, fill-in, workspace
//      allocation -- and
//   2. a numeric phase run once per Newton iteration that only rewrites
//      values through precomputed indices, allocation-free.
//
// Three types implement the split:
//   * SparsityPattern -- CSR position set, built by the devices' declare pass
//     and frozen by finalize().  Entry lookups resolve to *slots* (indices
//     into the value array) that stamping code caches once.
//   * SparseMatrix    -- values bound to a pattern.  setZero()/slot writes
//     never allocate.
//   * SparseLu        -- analyze() (symbolic, allocates every buffer),
//     factor() (numeric with partial pivoting; discovers and freezes the
//     fill structure), refactor() (numeric only, frozen pivot order and
//     structure, allocation-free), solveInPlace() (allocation-free).
//
// The dense LU that sparse_solver_test checks SparseLu against lives in
// tests/dense_lu.hpp.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "linalg/vector.hpp"

namespace prox::linalg {

/// Immutable-after-finalize CSR position set.
///
/// Build protocol: reset(n); addEntry(r, c) for every position any writer
/// may touch (duplicates fine); finalize().  After finalize(), slot(r, c)
/// resolves a position to its index in the bound value arrays.
class SparsityPattern {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// Starts a new pattern for an n x n system, discarding any previous one.
  /// Buffer capacity is retained so repeated rebuilds do not reallocate.
  void reset(std::size_t n);

  /// Declares position (r, c) as structurally nonzero.  Only valid between
  /// reset() and finalize().  Duplicate declarations are coalesced.
  void addEntry(std::size_t r, std::size_t c);

  /// Sorts, deduplicates, and freezes the CSR structure.
  void finalize();

  bool finalized() const { return finalized_; }
  std::size_t size() const { return n_; }
  std::size_t entryCount() const { return cols_.size(); }

  /// Slot of position (r, c), or npos when the position was never declared.
  /// Binary search within the row; callers on hot paths cache the result.
  std::size_t slot(std::size_t r, std::size_t c) const;

  /// CSR row [begin, end) slot range and per-slot column indices.
  std::size_t rowBegin(std::size_t r) const { return rowPtr_[r]; }
  std::size_t rowEnd(std::size_t r) const { return rowPtr_[r + 1]; }
  const std::vector<std::uint32_t>& columns() const { return cols_; }

  /// Monotonic generation, bumped by every finalize(); lets bound consumers
  /// (cached slots, factorizations) detect a rebuilt pattern cheaply.
  std::uint64_t generation() const { return generation_; }

 private:
  std::size_t n_ = 0;
  std::vector<std::uint64_t> pending_;     // packed (row << 32 | col) keys
  std::vector<std::size_t> rowPtr_;        // n + 1 entries once finalized
  std::vector<std::uint32_t> cols_;        // column index per slot
  std::uint64_t generation_ = 0;
  bool finalized_ = false;
};

/// Values bound to a SparsityPattern.  All mutation paths after bind() are
/// allocation-free.
class SparseMatrix {
 public:
  SparseMatrix() = default;
  explicit SparseMatrix(const SparsityPattern& pattern) { bind(pattern); }

  /// Binds to @p pattern and zeroes the values.  The pattern must outlive
  /// the matrix and be finalized.
  void bind(const SparsityPattern& pattern);

  const SparsityPattern& pattern() const { return *pattern_; }
  bool bound() const { return pattern_ != nullptr; }
  std::size_t size() const { return pattern_ != nullptr ? pattern_->size() : 0; }

  /// Zeroes every structural entry without touching the structure.
  void setZero();

  /// Value cell of @p slot (from SparsityPattern::slot or a cached copy).
  double& at(std::size_t slot) { return values_[slot]; }
  double at(std::size_t slot) const { return values_[slot]; }

  /// Adds @p v at position (r, c).  The position must have been declared;
  /// slow path (binary search) intended for tests and cold code.
  void add(std::size_t r, std::size_t c, double v);

  /// Value at (r, c); structural zeros read as 0.0.
  double value(std::size_t r, std::size_t c) const;

  /// Largest absolute structural value (0 for an empty matrix).
  double maxAbs() const;

  /// y = A * x (sizes must match).  Test/verification helper.
  Vector multiply(const Vector& x) const;

  const double* data() const { return values_.data(); }
  double* data() { return values_.data(); }

 private:
  const SparsityPattern* pattern_ = nullptr;
  std::vector<double> values_;
};

/// Sparse LU with partial pivoting, split into symbolic and numeric phases.
///
/// Lifecycle:
///   analyze(pattern)      once per pattern: allocates every workspace and
///                         output buffer (worst-case sized, so the numeric
///                         phases below never allocate);
///   factor(a)             full numeric factorization: chooses the pivot
///                         order, computes the fill structure, freezes both;
///   refactor(a)           numeric-only refactorization over the frozen
///                         pivot order and structure; returns false when a
///                         frozen pivot has become numerically unusable
///                         (caller falls back to factor());
///   solveInPlace(b)       forward/back substitution, b is overwritten with
///                         the solution.
class SparseLu {
 public:
  /// Symbolic phase: sizes every buffer for @p pattern.  Invalidates any
  /// previous factorization.
  void analyze(const SparsityPattern& pattern);

  /// Full numeric factorization of @p a (bound to the analyzed pattern):
  /// partial (row) pivoting, structure discovery, freeze.  Returns false if
  /// the matrix is numerically singular (pivot below @p pivotTol times the
  /// matrix scale).
  bool factor(const SparseMatrix& a, double pivotTol = 1e-13);

  /// Numeric refactorization with the frozen pivot order and fill structure.
  /// Allocation-free.  Returns false (leaving the factorization invalid)
  /// when no structure is frozen yet or a frozen pivot falls below
  /// @p pivotTol times the matrix scale; callers then retry with factor().
  bool refactor(const SparseMatrix& a, double pivotTol = 1e-13);

  /// Solves A x = b in place (b becomes x).  valid() must hold.
  /// Allocation-free.
  void solveInPlace(Vector& b) const;

  bool valid() const { return valid_; }

  /// Drops the frozen pivot order + fill structure along with the numeric
  /// factorization: the next numeric pass must go through factor(), which
  /// re-pivots from scratch.  Keeps every buffer from analyze(), so nothing
  /// is freed or reallocated.  Used between independent runs that share one
  /// solver workspace, so a run's pivoting can never depend on the values
  /// an earlier run froze.
  void invalidateStructure() {
    structureFrozen_ = false;
    valid_ = false;
  }

  /// True once factor() has frozen a pivot order + structure for the
  /// analyzed pattern (refactor() is then meaningful).
  bool analyzed() const { return analyzedGeneration_ != 0; }
  std::size_t size() const { return n_; }

  /// Structural nonzeros in L + U (fill included).  Valid after factor().
  std::size_t fillCount() const;

  /// Heap allocations performed by this object so far (analyze and any
  /// capacity growth).  The numeric phases must never advance this; the
  /// spice.solve.allocs counter and the allocation-freedom test read it.
  std::uint64_t allocCount() const { return allocs_; }

 private:
  void freezeStructure();
  bool numericRefactor(const SparseMatrix& a, double pivotTol);

  std::size_t n_ = 0;
  const SparsityPattern* pattern_ = nullptr;
  std::uint64_t analyzedGeneration_ = 0;  // pattern generation at analyze()

  // Dense scratch for factor(): values plus per-row structure bitsets.
  std::vector<double> dense_;            // n * n, row-major
  std::vector<std::uint64_t> bits_;      // n rows * wordsPerRow_
  std::size_t wordsPerRow_ = 0;

  // Frozen factorization (pivot order + structure + values).
  std::vector<std::size_t> perm_;        // pivot row k <- original row perm_[k]
  std::vector<std::uint32_t> lCol_;      // L columns, rows concatenated
  std::vector<double> lVal_;
  std::vector<std::size_t> lRowPtr_;     // n + 1
  std::vector<std::uint32_t> uCol_;      // U columns (diagonal first per row)
  std::vector<double> uVal_;
  std::vector<std::size_t> uRowPtr_;     // n + 1
  std::vector<double> invDiag_;          // 1 / U(k, k)

  // Numeric-phase scratch (allocated by analyze()).
  std::vector<double> work_;             // dense accumulator row / solve vec
  bool structureFrozen_ = false;
  bool valid_ = false;
  std::uint64_t allocs_ = 0;
};

}  // namespace prox::linalg
