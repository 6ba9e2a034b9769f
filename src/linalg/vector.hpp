#pragma once
// The solver's vector type.

#include <vector>

namespace prox::linalg {

/// A dynamically sized vector of doubles.
using Vector = std::vector<double>;

}  // namespace prox::linalg
