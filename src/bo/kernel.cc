#include "bo/kernel.h"

#include <cmath>

#include "bo/matrix.h"
#include "common/check.h"

namespace hypertune {

Matern52Kernel::Matern52Kernel(double lengthscale) : lengthscale_(lengthscale) {
  HT_CHECK(lengthscale > 0);
}

double Matern52Kernel::FromSquaredDistance(double d2) const {
  const double d = std::sqrt(d2) / lengthscale_;
  const double sqrt5_d = std::sqrt(5.0) * d;
  return (1.0 + sqrt5_d + 5.0 * d * d / 3.0) * std::exp(-sqrt5_d);
}

double Matern52Kernel::operator()(std::span<const double> a,
                                  std::span<const double> b) const {
  return FromSquaredDistance(SquaredDistance(a, b));
}

}  // namespace hypertune
