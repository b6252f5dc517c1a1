#include "csecg/recovery/prox.hpp"

#include <algorithm>
#include <cmath>

#include "csecg/common/check.hpp"

namespace csecg::recovery {

linalg::Vector soft_threshold(const linalg::Vector& v, double threshold) {
  CSECG_CHECK(threshold >= 0.0, "soft_threshold: negative threshold");
  linalg::Vector out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    out[i] = soft_threshold(v[i], threshold);
  }
  return out;
}

linalg::Vector project_l2_ball(const linalg::Vector& v,
                               const linalg::Vector& center, double radius) {
  CSECG_CHECK(v.size() == center.size(),
              "project_l2_ball dimension mismatch");
  CSECG_CHECK(radius >= 0.0, "project_l2_ball: negative radius");
  linalg::Vector diff = v - center;
  const double dist = linalg::norm2(diff);
  if (dist <= radius) return v;
  const double scale = radius / dist;
  linalg::Vector out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    out[i] = center[i] + scale * diff[i];
  }
  return out;
}

linalg::Vector project_box(const linalg::Vector& v,
                           const linalg::Vector& lower,
                           const linalg::Vector& upper) {
  CSECG_CHECK(v.size() == lower.size() && v.size() == upper.size(),
              "project_box dimension mismatch");
  linalg::Vector out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    CSECG_CHECK(lower[i] <= upper[i],
                "project_box: empty box at index " << i);
    out[i] = std::clamp(v[i], lower[i], upper[i]);
  }
  return out;
}

}  // namespace csecg::recovery
