#pragma once
// The solver's vector type, with the norms and difference that residual
// checks use.

#include <vector>

namespace prox::linalg {

/// A dynamically sized vector of doubles.  Thin alias over std::vector so
/// that arithmetic helpers can live next to the type without polluting the
/// global namespace.
using Vector = std::vector<double>;

/// Euclidean norm of @p v.
double norm2(const Vector& v);

/// Infinity norm (largest absolute entry) of @p v.
double normInf(const Vector& v);

/// Element-wise a - b. Sizes must match.
Vector subtract(const Vector& a, const Vector& b);

}  // namespace prox::linalg
