#include "csecg/recovery/spgl1.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "csecg/common/check.hpp"
#include "csecg/obs/registry.hpp"
#include "csecg/obs/trace.hpp"

namespace csecg::recovery {

linalg::Vector project_l1_ball(const linalg::Vector& v, double radius) {
  CSECG_CHECK(radius >= 0.0, "project_l1_ball: negative radius");
  if (linalg::norm1(v) <= radius) return v;
  if (radius == 0.0) return linalg::Vector(v.size());
  // Duchi et al.: find the soft threshold θ from the sorted magnitudes.
  std::vector<double> magnitudes(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    magnitudes[i] = std::abs(v[i]);
  }
  std::sort(magnitudes.begin(), magnitudes.end(), std::greater<>());
  double cumulative = 0.0;
  double theta = 0.0;
  for (std::size_t k = 0; k < magnitudes.size(); ++k) {
    cumulative += magnitudes[k];
    const double candidate =
        (cumulative - radius) / static_cast<double>(k + 1);
    if (k + 1 == magnitudes.size() || magnitudes[k + 1] <= candidate) {
      theta = candidate;
      break;
    }
  }
  linalg::Vector out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    const double mag = std::abs(v[i]) - theta;
    out[i] = mag > 0.0 ? (v[i] > 0.0 ? mag : -mag) : 0.0;
  }
  return out;
}

void validate(const Spgl1Options& options) {
  CSECG_CHECK(options.max_root_iterations >= 1,
              "Spgl1Options: max_root_iterations must be >= 1");
  CSECG_CHECK(options.max_inner_iterations >= 1,
              "Spgl1Options: max_inner_iterations must be >= 1");
  CSECG_CHECK(options.inner_tol > 0.0 && options.root_tol > 0.0,
              "Spgl1Options: tolerances must be positive");
}

Spgl1Result solve_bpdn_spgl1(const linalg::LinearOperator& a,
                             const linalg::Vector& y, double sigma,
                             const Spgl1Options& options) {
  static obs::Histogram& solve_hist = obs::histogram("solver.spgl1.solve_ns");
  obs::Stage stage("solver.spgl1.solve", "solver", &solve_hist,
                   "inner_iterations");
  validate(options);
  CSECG_CHECK(y.size() == a.rows(), "solve_bpdn_spgl1: y dimension mismatch");
  CSECG_CHECK(sigma >= 0.0, "solve_bpdn_spgl1: sigma must be non-negative");

  Spgl1Result result;
  result.coefficients = linalg::Vector(a.cols());
  const double y_norm = linalg::norm2(y);
  if (y_norm <= sigma) {
    // α = 0 is feasible and ℓ1-minimal.
    result.residual_norm = y_norm;
    result.converged = true;
    obs::counter("solver.spgl1.solves").add();
    obs::counter("solver.spgl1.converged").add();
    return result;
  }

  const double lipschitz =
      std::pow(linalg::operator_norm_estimate(a, 60), 2);
  CSECG_CHECK(lipschitz > 0.0, "solve_bpdn_spgl1: zero operator");
  const double step = 1.0 / lipschitz;
  const double scale = std::max(y_norm, 1.0);

  double tau = 0.0;
  linalg::Vector alpha(a.cols());
  linalg::Vector residual = y;  // y − A·0.

  // Reused across root and inner iterations (allocation-free products).
  linalg::Vector ax(a.rows());
  linalg::Vector grad(a.cols());
  linalg::Vector candidate(a.cols());

  for (int root_it = 1; root_it <= options.max_root_iterations; ++root_it) {
    result.root_iterations = root_it;
    obs::trace_instant("solver.spgl1.root_step", "solver", "root_iteration",
                       static_cast<std::uint64_t>(root_it));
    // Newton step on the Pareto curve: φ(τ) ≈ ‖r‖, φ'(τ) = −‖Aᵀr‖∞/‖r‖.
    const double phi = linalg::norm2(residual);
    a.apply_adjoint_into(residual, grad);
    const double dual_norm = linalg::norm_inf(grad);
    if (dual_norm <= 0.0) break;
    tau += (phi - sigma) * phi / dual_norm;
    if (tau < 0.0) tau = 0.0;

    // Solve the LASSO-constrained subproblem at this τ by projected
    // gradient, warm-started from the previous α.
    alpha = project_l1_ball(alpha, tau);
    for (int it = 0; it < options.max_inner_iterations; ++it) {
      ++result.total_inner_iterations;
      a.apply_into(alpha, ax);
      for (std::size_t i = 0; i < residual.size(); ++i) {
        residual[i] = y[i] - ax[i];
      }
      a.apply_adjoint_into(residual, grad);
      for (std::size_t i = 0; i < alpha.size(); ++i) {
        candidate[i] = alpha[i] + step * grad[i];
      }
      linalg::Vector next = project_l1_ball(candidate, tau);
      const double change = linalg::norm2(next - alpha) /
                            std::max(linalg::norm2(next), 1.0);
      alpha = std::move(next);
      if (change <= options.inner_tol) break;
    }
    a.apply_into(alpha, ax);
    for (std::size_t i = 0; i < residual.size(); ++i) {
      residual[i] = y[i] - ax[i];
    }
    result.residual_norm = linalg::norm2(residual);
    if (std::abs(result.residual_norm - sigma) <=
        options.root_tol * scale) {
      result.converged = true;
      break;
    }
  }

  result.tau = tau;
  result.coefficients = std::move(alpha);

  static obs::Counter& solves = obs::counter("solver.spgl1.solves");
  static obs::Counter& inner_iterations =
      obs::counter("solver.spgl1.inner_iterations");
  static obs::Counter& converged = obs::counter("solver.spgl1.converged");
  static obs::Counter& non_converged =
      obs::counter("solver.spgl1.non_converged");
  solves.add();
  inner_iterations.add(
      static_cast<std::uint64_t>(result.total_inner_iterations));
  (result.converged ? converged : non_converged).add();
  stage.set_arg(static_cast<std::uint64_t>(result.total_inner_iterations));
  return result;
}

}  // namespace csecg::recovery
