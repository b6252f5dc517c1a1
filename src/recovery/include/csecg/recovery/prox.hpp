// Proximal operators and projections used by the first-order solvers.
#pragma once

#include "csecg/linalg/vector.hpp"

namespace csecg::recovery {

/// Scalar soft-thresholding sign(v)·max(|v| − t, 0): v − t where v > t,
/// v + t where v < −t, and +0.0 otherwise (±0, |v| = t, NaN).  Both
/// candidates are computed unconditionally and tested against zero, which
/// with gradual underflow is the same test as v against ±t, so a loop over
/// this function has no branches and vectorises.
inline double soft_threshold(double value, double threshold) noexcept {
  const double above = value - threshold;
  const double below = value + threshold;
  const double shrunk = below < 0.0 ? below : 0.0;
  return above > 0.0 ? above : shrunk;
}

/// Element-wise soft-thresholding (prox of threshold·‖·‖₁).
linalg::Vector soft_threshold(const linalg::Vector& v, double threshold);

/// Projection onto the ℓ2 ball of given radius centered at `center`:
/// argmin_{‖z−center‖≤radius} ‖z−v‖.  radius must be ≥ 0.
linalg::Vector project_l2_ball(const linalg::Vector& v,
                               const linalg::Vector& center, double radius);

/// Projection onto the box [lower, upper] element-wise.  Dimensions must
/// match and lower ≤ upper element-wise (validated).
linalg::Vector project_box(const linalg::Vector& v,
                           const linalg::Vector& lower,
                           const linalg::Vector& upper);

}  // namespace csecg::recovery
