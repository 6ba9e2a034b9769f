#include "linalg/vector.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace prox::linalg {

double norm2(const Vector& v) {
  double s = 0.0;
  for (double x : v) s += x * x;
  return std::sqrt(s);
}

double normInf(const Vector& v) {
  double s = 0.0;
  for (double x : v) s = std::max(s, std::fabs(x));
  return s;
}

Vector subtract(const Vector& a, const Vector& b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("linalg::subtract: size mismatch");
  }
  Vector r(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) r[i] = a[i] - b[i];
  return r;
}

}  // namespace prox::linalg
