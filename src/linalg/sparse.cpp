#include "linalg/sparse.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "obs/registry.hpp"
#include "obs/scoped_timer.hpp"
#include "support/fault_injection.hpp"

namespace prox::linalg {

// ---------------------------------------------------------------------------
// SparsityPattern

void SparsityPattern::reset(std::size_t n) {
  n_ = n;
  pending_.clear();
  finalized_ = false;
}

void SparsityPattern::addEntry(std::size_t r, std::size_t c) {
  if (finalized_) {
    throw std::logic_error("SparsityPattern::addEntry: pattern is finalized");
  }
  if (r >= n_ || c >= n_) {
    throw std::out_of_range("SparsityPattern::addEntry: index out of range");
  }
  pending_.push_back((static_cast<std::uint64_t>(r) << 32) |
                     static_cast<std::uint64_t>(c));
}

void SparsityPattern::finalize() {
  std::sort(pending_.begin(), pending_.end());
  pending_.erase(std::unique(pending_.begin(), pending_.end()),
                 pending_.end());

  rowPtr_.assign(n_ + 1, 0);
  cols_.clear();
  cols_.reserve(pending_.size());
  for (const std::uint64_t key : pending_) {
    const auto r = static_cast<std::size_t>(key >> 32);
    ++rowPtr_[r + 1];
    cols_.push_back(static_cast<std::uint32_t>(key & 0xffffffffu));
  }
  for (std::size_t r = 0; r < n_; ++r) rowPtr_[r + 1] += rowPtr_[r];
  pending_.clear();
  ++generation_;
  finalized_ = true;
}

std::size_t SparsityPattern::slot(std::size_t r, std::size_t c) const {
  if (!finalized_) {
    throw std::logic_error("SparsityPattern::slot: pattern not finalized");
  }
  if (r >= n_ || c >= n_) return npos;
  const auto first = cols_.begin() + static_cast<std::ptrdiff_t>(rowPtr_[r]);
  const auto last = cols_.begin() + static_cast<std::ptrdiff_t>(rowPtr_[r + 1]);
  const auto it = std::lower_bound(first, last, static_cast<std::uint32_t>(c));
  if (it == last || *it != static_cast<std::uint32_t>(c)) return npos;
  return static_cast<std::size_t>(it - cols_.begin());
}

// ---------------------------------------------------------------------------
// SparseMatrix

void SparseMatrix::bind(const SparsityPattern& pattern) {
  if (!pattern.finalized()) {
    throw std::logic_error("SparseMatrix::bind: pattern not finalized");
  }
  pattern_ = &pattern;
  values_.assign(pattern.entryCount(), 0.0);
}

void SparseMatrix::setZero() {
  std::fill(values_.begin(), values_.end(), 0.0);
}

void SparseMatrix::add(std::size_t r, std::size_t c, double v) {
  const std::size_t s = pattern_->slot(r, c);
  if (s == SparsityPattern::npos) {
    throw std::logic_error("SparseMatrix::add: position not in pattern");
  }
  values_[s] += v;
}

double SparseMatrix::value(std::size_t r, std::size_t c) const {
  const std::size_t s = pattern_->slot(r, c);
  return s == SparsityPattern::npos ? 0.0 : values_[s];
}

double SparseMatrix::maxAbs() const {
  double m = 0.0;
  for (const double v : values_) m = std::max(m, std::fabs(v));
  return m;
}

Vector SparseMatrix::multiply(const Vector& x) const {
  const std::size_t n = size();
  if (x.size() != n) {
    throw std::invalid_argument("SparseMatrix::multiply: size mismatch");
  }
  Vector y(n, 0.0);
  const auto& cols = pattern_->columns();
  for (std::size_t r = 0; r < n; ++r) {
    double acc = 0.0;
    for (std::size_t s = pattern_->rowBegin(r); s < pattern_->rowEnd(r); ++s) {
      acc += values_[s] * x[cols[s]];
    }
    y[r] = acc;
  }
  return y;
}

// ---------------------------------------------------------------------------
// SparseLu

namespace {
// Tracks whether a vector resize actually moved/grew the heap buffer, so
// allocCount() reflects real allocations, not no-op resizes.
template <typename T>
bool resizeGrew(std::vector<T>& v, std::size_t n) {
  const bool grew = n > v.capacity();
  v.resize(n);
  return grew;
}
}  // namespace

void SparseLu::analyze(const SparsityPattern& pattern) {
  pattern_ = &pattern;
  n_ = pattern.size();
  analyzedGeneration_ = pattern.generation();
  wordsPerRow_ = (n_ + 63) / 64;

  // Every buffer is sized for the worst case (full fill) once, so factor(),
  // refactor() and solveInPlace() never allocate.
  std::uint64_t grown = 0;
  grown += resizeGrew(dense_, n_ * n_);
  grown += resizeGrew(bits_, n_ * wordsPerRow_);
  grown += resizeGrew(perm_, n_);
  grown += resizeGrew(lRowPtr_, n_ + 1);
  grown += resizeGrew(uRowPtr_, n_ + 1);
  grown += resizeGrew(invDiag_, n_);
  grown += resizeGrew(work_, n_);
  grown += resizeGrew(lCol_, n_ * n_ / 2 + n_);
  grown += resizeGrew(lVal_, n_ * n_ / 2 + n_);
  grown += resizeGrew(uCol_, n_ * n_ / 2 + n_);
  grown += resizeGrew(uVal_, n_ * n_ / 2 + n_);
  allocs_ += grown;

  structureFrozen_ = false;
  valid_ = false;
}

std::size_t SparseLu::fillCount() const {
  return lRowPtr_[n_] + uRowPtr_[n_];
}

bool SparseLu::factor(const SparseMatrix& a, double pivotTol) {
  PROX_OBS_COUNT("linalg.sparse.factorizations", 1);
  // Full factors are rare (first solve / pivot fallback), so every one is
  // timed; the latency distribution sits next to refactor_ns in the report.
  PROX_OBS_SCOPED_HIST_NS("linalg.sparse.factor_ns");
  if (pattern_ == nullptr || &a.pattern() != pattern_ ||
      a.pattern().generation() != analyzedGeneration_) {
    analyze(a.pattern());
  }
  valid_ = false;
  structureFrozen_ = false;
  if (PROX_FAULT_POINT("linalg.lu.factor", SingularLu)) {
    PROX_OBS_COUNT("linalg.sparse.injected_faults", 1);
    PROX_OBS_COUNT("linalg.sparse.singular", 1);
    return false;
  }
  const std::size_t n = n_;
  const std::size_t w = wordsPerRow_;

  // Scatter the CSR values into the dense scratch and the structure bitsets.
  std::memset(dense_.data(), 0, n * n * sizeof(double));
  std::memset(bits_.data(), 0, n * w * sizeof(std::uint64_t));
  const auto& cols = pattern_->columns();
  const double* av = a.data();
  for (std::size_t r = 0; r < n; ++r) {
    double* drow = dense_.data() + r * n;
    std::uint64_t* brow = bits_.data() + r * w;
    for (std::size_t s = pattern_->rowBegin(r); s < pattern_->rowEnd(r); ++s) {
      const std::uint32_t c = cols[s];
      drow[c] = av[s];
      brow[c >> 6] |= std::uint64_t{1} << (c & 63);
    }
    perm_[r] = r;
  }

  const double scale = std::max(a.maxAbs(), 1.0);
  const double tiny = pivotTol * scale;

  // Right-looking elimination with partial pivoting.  Numeric updates run
  // over *structural* positions (the bitsets), so the frozen structure is a
  // superset of every possible numeric nonzero -- exact numeric
  // cancellation cannot poke holes refactor() would later fall through.
  for (std::size_t k = 0; k < n; ++k) {
    std::size_t pivotRow = k;
    double pivotMag = std::fabs(dense_[k * n + k]);
    for (std::size_t r = k + 1; r < n; ++r) {
      const double mag = std::fabs(dense_[r * n + k]);
      if (mag > pivotMag) {
        pivotMag = mag;
        pivotRow = r;
      }
    }
    if (pivotMag < tiny) {
      PROX_OBS_COUNT("linalg.sparse.singular", 1);
      return false;
    }
    if (pivotRow != k) {
      for (std::size_t c = 0; c < n; ++c) {
        std::swap(dense_[k * n + c], dense_[pivotRow * n + c]);
      }
      for (std::size_t j = 0; j < w; ++j) {
        std::swap(bits_[k * w + j], bits_[pivotRow * w + j]);
      }
      std::swap(perm_[k], perm_[pivotRow]);
    }

    const double* krow = dense_.data() + k * n;
    const std::uint64_t* kbits = bits_.data() + k * w;
    const double inv = 1.0 / krow[k];
    for (std::size_t r = k + 1; r < n; ++r) {
      std::uint64_t* rbits = bits_.data() + r * w;
      if ((rbits[k >> 6] & (std::uint64_t{1} << (k & 63))) == 0) continue;
      double* rrow = dense_.data() + r * n;
      const double f = rrow[k] * inv;
      rrow[k] = f;  // L factor
      // Structural update: row r inherits row k's U structure past column k.
      for (std::size_t j = k >> 6; j < w; ++j) {
        std::uint64_t word = kbits[j];
        if (j == (k >> 6)) word &= ~((std::uint64_t{2} << (k & 63)) - 1);
        if (word == 0) continue;
        rbits[j] |= word;
        std::uint64_t scan = word;
        const std::size_t base = j << 6;
        while (scan != 0) {
          const unsigned bit =
              static_cast<unsigned>(__builtin_ctzll(scan));
          scan &= scan - 1;
          const std::size_t c = base + bit;
          rrow[c] -= f * krow[c];
        }
      }
    }
  }

  freezeStructure();
  valid_ = true;
  return true;
}

void SparseLu::freezeStructure() {
  // Compress the dense LU scratch into frozen CSR-style L and U rows.  The
  // structure comes from the bitsets (symbolic), the values from the dense
  // scratch; positions that are structurally nonzero but numerically zero
  // keep their place so refactor() stays exact for any future values.
  const std::size_t n = n_;
  const std::size_t w = wordsPerRow_;
  std::size_t ln = 0;
  std::size_t un = 0;
  for (std::size_t k = 0; k < n; ++k) {
    lRowPtr_[k] = ln;
    uRowPtr_[k] = un;
    const double* krow = dense_.data() + k * n;
    const std::uint64_t* kbits = bits_.data() + k * w;
    // Diagonal first in the U row, so solve/refactor read it at uRowPtr_[k].
    uCol_[un] = static_cast<std::uint32_t>(k);
    uVal_[un] = krow[k];
    ++un;
    for (std::size_t j = 0; j < w; ++j) {
      std::uint64_t scan = kbits[j];
      const std::size_t base = j << 6;
      while (scan != 0) {
        const unsigned bit = static_cast<unsigned>(__builtin_ctzll(scan));
        scan &= scan - 1;
        const std::size_t c = base + bit;
        if (c < k) {
          lCol_[ln] = static_cast<std::uint32_t>(c);
          lVal_[ln] = krow[c];
          ++ln;
        } else if (c > k) {
          uCol_[un] = static_cast<std::uint32_t>(c);
          uVal_[un] = krow[c];
          ++un;
        }
      }
    }
    invDiag_[k] = 1.0 / krow[k];
  }
  lRowPtr_[n] = ln;
  uRowPtr_[n] = un;
  structureFrozen_ = true;
}

bool SparseLu::refactor(const SparseMatrix& a, double pivotTol) {
  if (!structureFrozen_ || &a.pattern() != pattern_ ||
      a.pattern().generation() != analyzedGeneration_) {
    return false;
  }
  PROX_OBS_COUNT("linalg.sparse.refactorizations", 1);
  // Refactors run ~10M times per characterization at ~200ns each, so only
  // every 16th call pays the two clock reads; the histogram still sees an
  // unbiased sample of the latency distribution.
  PROX_OBS_SCOPED_HIST_NS_SAMPLED("linalg.sparse.refactor_ns", 4);
  if (PROX_FAULT_POINT("linalg.lu.factor", SingularLu)) {
    PROX_OBS_COUNT("linalg.sparse.injected_faults", 1);
    PROX_OBS_COUNT("linalg.sparse.singular", 1);
    valid_ = false;
    return false;
  }
  return numericRefactor(a, pivotTol);
}

bool SparseLu::numericRefactor(const SparseMatrix& a, double pivotTol) {
  valid_ = false;
  const std::size_t n = n_;
  const double scale = std::max(a.maxAbs(), 1.0);
  const double tiny = pivotTol * scale;

  const auto& cols = pattern_->columns();
  const double* av = a.data();
  double* wk = work_.data();

  // Up-looking (Doolittle) elimination over the frozen structure: for each
  // pivot row k, scatter original row perm_[k], eliminate through the frozen
  // L columns in ascending order, gather L and U values back out.
  for (std::size_t k = 0; k < n; ++k) {
    // Clear exactly the union structure of LU row k, then scatter A's row.
    for (std::size_t s = lRowPtr_[k]; s < lRowPtr_[k + 1]; ++s) {
      wk[lCol_[s]] = 0.0;
    }
    for (std::size_t s = uRowPtr_[k]; s < uRowPtr_[k + 1]; ++s) {
      wk[uCol_[s]] = 0.0;
    }
    const std::size_t src = perm_[k];
    for (std::size_t s = pattern_->rowBegin(src); s < pattern_->rowEnd(src);
         ++s) {
      wk[cols[s]] = av[s];
    }
    for (std::size_t s = lRowPtr_[k]; s < lRowPtr_[k + 1]; ++s) {
      const std::size_t c = lCol_[s];
      const double f = wk[c] * invDiag_[c];
      lVal_[s] = f;
      if (f == 0.0) continue;
      // U row c: diagonal at uRowPtr_[c] is skipped (it produced f).
      for (std::size_t t = uRowPtr_[c] + 1; t < uRowPtr_[c + 1]; ++t) {
        wk[uCol_[t]] -= f * uVal_[t];
      }
    }
    const double diag = wk[k];
    if (std::fabs(diag) < tiny) {
      // The frozen pivot order is numerically stale for these values; the
      // caller falls back to a full factor() with fresh pivoting.
      PROX_OBS_COUNT("linalg.sparse.refactor_pivot_fallbacks", 1);
      return false;
    }
    for (std::size_t s = uRowPtr_[k]; s < uRowPtr_[k + 1]; ++s) {
      uVal_[s] = wk[uCol_[s]];
    }
    invDiag_[k] = 1.0 / diag;
  }
  valid_ = true;
  return true;
}

void SparseLu::solveInPlace(Vector& b) const {
  if (!valid_) {
    throw std::runtime_error("SparseLu::solveInPlace: not factored");
  }
  if (b.size() != n_) {
    throw std::invalid_argument("SparseLu::solveInPlace: rhs size mismatch");
  }
  const std::size_t n = n_;
  // work_ doubles as the permuted forward-substitution vector; solveInPlace
  // is const to callers, so cast the scratch (single-threaded use per
  // workspace by contract).
  double* y = const_cast<double*>(work_.data());

  // L y = P b (L has unit diagonal).
  for (std::size_t k = 0; k < n; ++k) {
    double acc = b[perm_[k]];
    for (std::size_t s = lRowPtr_[k]; s < lRowPtr_[k + 1]; ++s) {
      acc -= lVal_[s] * y[lCol_[s]];
    }
    y[k] = acc;
  }
  // U x = y; x lands directly in b (no column permutation).
  for (std::size_t ki = n; ki-- > 0;) {
    double acc = y[ki];
    for (std::size_t s = uRowPtr_[ki] + 1; s < uRowPtr_[ki + 1]; ++s) {
      acc -= uVal_[s] * b[uCol_[s]];
    }
    b[ki] = acc * invDiag_[ki];
  }
}

}  // namespace prox::linalg
