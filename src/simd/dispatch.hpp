#pragma once
// Kept for programs that still report a dispatch path: the dual-table
// lookup (TabulatedDualInputModel::evaluateMany) is one scalar loop, so the
// path is always Scalar.

namespace prox::simd {

enum class Path {
  Scalar,
};

inline Path activePath() { return Path::Scalar; }

inline const char* pathName(Path) { return "scalar"; }

}  // namespace prox::simd
