#pragma once
// Batched trilinear blending over a shared value arena.
//
// The caller (TabulatedDualInputModel::evaluateMany) has already done the
// scalar per-query work -- axis location, fraction computation, clamping --
// and hands this kernel pure data-parallel arithmetic: for each lane i,
// gather the 8 cell-corner values and blend them with the precomputed
// fractions in the exact operation order of the scalar reference in
// tests/dual_table_reference.hpp:
//
//   lerp(a, b, f) = a + f * (b - a)
//   c00 = lerp(v000, v100, fu);  c01 = lerp(v001, v101, fu)
//   c10 = lerp(v010, v110, fu);  c11 = lerp(v011, v111, fu)
//   c0  = lerp(c00, c10, fv);    c1  = lerp(c01, c11, fv)
//   out = lerp(c0, c1, fw)
//
// Bit-identity contract: every implementation performs these 7 lerps as
// individual IEEE double multiply/subtract/add operations in this order.
// The AVX2 translation unit is therefore compiled with FMA contraction
// disabled (-mno-fma -ffp-contract=off); fusing any mul+add would change
// the last ulp and break the pinned STA arrival checksums.

#include <cstddef>
#include <cstdint>

namespace prox::simd {

/// One batch of trilinear blends.  Corner indices are 32-bit offsets into
/// the shared @p base arena, stored corner-major (corner[c][i] is corner c
/// of lane i) so each corner loads contiguously into a vector register.
/// Corner order: c000 c100 c001 c101 c010 c110 c011 c111 (u fastest).
struct TrilerpBatch {
  const double* base = nullptr;
  const std::uint32_t* corner[8] = {};
  const double* fu = nullptr;
  const double* fv = nullptr;
  const double* fw = nullptr;
  double* out = nullptr;
  std::size_t n = 0;
};

/// Portable fallback; the reference for bit-identity.
void trilerpScalar(const TrilerpBatch& b);

#if defined(__x86_64__) || defined(_M_X64)
/// AVX2 kernel (4 lanes per vector, vgatherdpd corner loads).  Only call
/// when the CPU supports AVX2.
void trilerpAvx2(const TrilerpBatch& b);
#endif

#if defined(__aarch64__)
/// NEON kernel (2 lanes per vector).
void trilerpNeon(const TrilerpBatch& b);
#endif

/// Runs the batch on the dispatch shim's active path.
void trilerp(const TrilerpBatch& b);

/// Elementwise out[i] = num[i] / den[i].  IEEE double division is correctly
/// rounded on every path, so the vector and scalar results are bit-identical
/// by construction -- this is what lets evaluateMany() stage its (serially
/// dependent, ~15-20 cycle) divisions into data-parallel passes.  In-place
/// operation (out == num or out == den) is allowed.
void divide(const double* num, const double* den, double* out, std::size_t n);
void divideScalar(const double* num, const double* den, double* out,
                  std::size_t n);
#if defined(__x86_64__) || defined(_M_X64)
void divideAvx2(const double* num, const double* den, double* out,
                std::size_t n);
#endif
#if defined(__aarch64__)
void divideNeon(const double* num, const double* den, double* out,
                std::size_t n);
#endif

/// Batched single-input table interpolation: for each lane,
///   f  = num / den
///   d1 = aD + f * (bD - aD)
///   t1 = aT + f * (bT - aT)
/// -- the exact operation sequence of SingleInputModel::delay()/transition()
/// once the bracketing segment is known (num = tau - a.tau, den = b.tau -
/// a.tau, endpoints from the segment).  Division is correctly rounded and
/// the lerps stay separate mul/sub/add, so every path is bit-identical to
/// the scalar member functions.
struct InterpPairBatch {
  const double* num = nullptr;
  const double* den = nullptr;
  const double* aD = nullptr;
  const double* bD = nullptr;
  const double* aT = nullptr;
  const double* bT = nullptr;
  double* d1 = nullptr;
  double* t1 = nullptr;
  std::size_t n = 0;
};
void interpPair(const InterpPairBatch& b);
void interpPairScalar(const InterpPairBatch& b);
#if defined(__x86_64__) || defined(_M_X64)
void interpPairAvx2(const InterpPairBatch& b);
#endif
#if defined(__aarch64__)
void interpPairNeon(const InterpPairBatch& b);
#endif

/// Batched axis location against one shared grid (lanes grouped by table):
/// for each lane with coordinate x,
///   over = max(g[0] - x, x - g[n-1], 0) / denom          (0 when in-grid)
///   low  = x <= g[0];  high = x >= g[n-1]
///   hi   = 1 + |{k in [1, n-2] : g[k] < x}|              (bracketing scan)
///   idx  = low ? 0 : high ? n-2 : hi-1
///   f    = (low ? 0 : high ? 1 : x - g[idx]) /
///          (low || high ? 1 : g[idx+1] - g[idx])
/// This is the per-axis location and overshoot of the scalar reference
/// (tests/dual_table_reference.hpp) with the fraction's edge cases staged
/// as the exact quotients 0/1 and 1/1, the bracketing scan replaced by the
/// equivalent sorted-prefix count, and the overshoot's early return
/// replaced by max-with-0 (identical value for every finite x).  All selects use strict (a > b ? a : b) semantics and
/// the divisions are correctly rounded, so scalar and vector paths agree
/// bit for bit.  Requires n >= 2 (single-point grids are the caller's
/// trivial special case).
struct AxisLocateBatch {
  const double* grid = nullptr;
  std::uint32_t n = 0;     ///< grid size, >= 2
  double denom = 1.0;      ///< precomputed overshoot normalizer
  const double* x = nullptr;
  double* f = nullptr;     ///< out: interpolation fraction
  double* over = nullptr;  ///< out: relative overshoot
  std::uint32_t* idx = nullptr;  ///< out: cell index, <= n-2
  std::size_t count = 0;
};
void axisLocate(const AxisLocateBatch& b);
void axisLocateScalar(const AxisLocateBatch& b);
#if defined(__x86_64__) || defined(_M_X64)
void axisLocateAvx2(const AxisLocateBatch& b);
#endif
#if defined(__aarch64__)
void axisLocateNeon(const AxisLocateBatch& b);
#endif

}  // namespace prox::simd
