#include "csecg/recovery/pdhg.hpp"

#include <algorithm>
#include <cmath>

#include "csecg/common/check.hpp"
#include "csecg/obs/registry.hpp"
#include "csecg/obs/span.hpp"
#include "csecg/obs/trace.hpp"
#include "csecg/recovery/prox.hpp"

namespace csecg::recovery {

void validate(const PdhgOptions& options) {
  CSECG_CHECK(options.max_iterations > 0, "PdhgOptions: max_iterations <= 0");
  CSECG_CHECK(options.tol > 0.0, "PdhgOptions: tol must be positive");
  CSECG_CHECK(options.feasibility_tol > 0.0,
              "PdhgOptions: feasibility_tol must be positive");
  CSECG_CHECK(options.check_every > 0, "PdhgOptions: check_every <= 0");
  CSECG_CHECK(options.theta >= 0.0 && options.theta <= 1.0,
              "PdhgOptions: theta must be in [0, 1]");
  CSECG_CHECK(options.step_safety > 0.0 && options.step_safety < 1.0,
              "PdhgOptions: step_safety must be in (0, 1)");
  CSECG_CHECK(options.dual_primal_ratio > 0.0,
              "PdhgOptions: dual_primal_ratio must be positive");
  CSECG_CHECK(options.phi_norm_hint >= 0.0,
              "PdhgOptions: phi_norm_hint must be non-negative");
  for (double w : options.coefficient_weights) {
    CSECG_CHECK(w >= 0.0, "PdhgOptions: coefficient weights must be >= 0");
  }
}

PdhgResult solve_bpdn(const linalg::LinearOperator& phi,
                      const linalg::LinearOperator& psi,
                      const linalg::Vector& y, double sigma,
                      const std::optional<BoxConstraint>& box,
                      const PdhgOptions& options) {
  static obs::Histogram& solve_hist = obs::histogram("solver.pdhg.solve_ns");
  const obs::Span solve_span(solve_hist);
  obs::TraceScope solve_trace("solver.pdhg.solve", "solver", "iterations");
  validate(options);
  const std::size_t m = phi.rows();
  const std::size_t n = phi.cols();
  CSECG_CHECK(psi.rows() == n && psi.cols() == n,
              "solve_bpdn: psi must be n x n with n = " << n);
  CSECG_CHECK(y.size() == m, "solve_bpdn: y has " << y.size()
                                                  << " entries, expected "
                                                  << m);
  CSECG_CHECK(sigma >= 0.0, "solve_bpdn: sigma must be non-negative");
  if (box) {
    CSECG_CHECK(box->lower.size() == n && box->upper.size() == n,
                "solve_bpdn: box dimension mismatch");
    for (std::size_t i = 0; i < n; ++i) {
      CSECG_CHECK(box->lower[i] <= box->upper[i],
                  "solve_bpdn: empty box at sample " << i);
    }
  }
  const bool weighted = !options.coefficient_weights.empty();
  if (weighted) {
    CSECG_CHECK(options.coefficient_weights.size() == n,
                "solve_bpdn: coefficient_weights must have length " << n);
  }

  // Operator norm of K = [Φ; I] (or Φ alone without the box block).
  const double phi_norm = options.phi_norm_hint > 0.0
                              ? options.phi_norm_hint
                              : linalg::operator_norm_estimate(phi, 60);
  const double k_norm =
      box ? std::sqrt(phi_norm * phi_norm + 1.0) : std::max(phi_norm, 1e-12);
  const double ratio_sqrt = std::sqrt(options.dual_primal_ratio);
  const double tau = options.step_safety / (k_norm * ratio_sqrt);
  const double sigma_d = options.step_safety * ratio_sqrt / k_norm;

  // Warm start: caller-provided, else box midpoint (already nearly
  // feasible), else zero.
  linalg::Vector x(n);
  if (!options.x0.empty()) {
    CSECG_CHECK(options.x0.size() == n,
                "solve_bpdn: x0 has " << options.x0.size()
                                      << " entries, expected " << n);
    x = options.x0;
  } else if (box) {
    for (std::size_t i = 0; i < n; ++i) {
      x[i] = 0.5 * (box->lower[i] + box->upper[i]);
    }
  }
  linalg::Vector x_bar = x;
  linalg::Vector q1(m);
  linalg::Vector q2(box ? n : 0);

  // Φ is applied once per iteration, to the new iterate: u = Φx is
  // carried, Φx̄ follows from it by linearity, and the convergence check
  // reads u instead of applying Φ again.
  linalg::Vector u(m);
  phi.apply_into(x, u);
  linalg::Vector u_bar = u;    // Φx̄ = u + θ(u − u_prev).
  linalg::Vector u_new(m);     // Φx_new.

  // Per-solve workspaces, reused every iteration so the loop itself is
  // allocation-free (the operators' *_into paths write in place).
  linalg::Vector w_m(m);       // σ_d·Φx̄ + q1.
  linalg::Vector scaled_m(m);  // w_m / σ_d (the point to project).
  linalg::Vector diff_m(m);    // scaled_m − y.
  linalg::Vector grad(n);      // Φᵀq1 [+ q2].
  linalg::Vector x_new(n);
  linalg::Vector coeffs(n);
  linalg::Vector check_diff(n);

  const double y_scale = std::max(linalg::norm2(y), 1.0);
  double box_scale = 1.0;
  if (box) {
    double w = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      w = std::max(w, box->upper[i] - box->lower[i]);
    }
    box_scale = std::max(w, 1e-12);
  }

  PdhgResult result;
  linalg::Vector x_prev_check = x;

  for (int it = 1; it <= options.max_iterations; ++it) {
    // Dual ascent on the ball block: q1 += σ_d·Φx̄ then Moreau.
    {
      for (std::size_t i = 0; i < m; ++i) w_m[i] = u_bar[i] * sigma_d + q1[i];
      for (std::size_t i = 0; i < m; ++i) scaled_m[i] = w_m[i] / sigma_d;
      // project_l2_ball(scaled_m, y, sigma), in place.
      for (std::size_t i = 0; i < m; ++i) diff_m[i] = scaled_m[i] - y[i];
      const double dist = linalg::norm2(diff_m);
      if (dist <= sigma) {
        for (std::size_t i = 0; i < m; ++i) {
          q1[i] = w_m[i] - sigma_d * scaled_m[i];
        }
      } else {
        const double scale = sigma / dist;
        for (std::size_t i = 0; i < m; ++i) {
          q1[i] = w_m[i] - sigma_d * (y[i] + scale * diff_m[i]);
        }
      }
    }
    // Dual ascent on the box block.
    if (box) {
      for (std::size_t i = 0; i < n; ++i) {
        const double v = q2[i] + sigma_d * x_bar[i];
        const double proj =
            std::clamp(v / sigma_d, box->lower[i], box->upper[i]);
        q2[i] = v - sigma_d * proj;
      }
    }
    // Primal descent: x ← prox_{τ‖Ψᵀ·‖₁}(x − τ·Kᵀq).
    phi.apply_adjoint_into(q1, grad);
    if (box) grad += q2;
    for (std::size_t i = 0; i < n; ++i) x_new[i] = x[i] - tau * grad[i];
    {
      psi.apply_adjoint_into(x_new, coeffs);
      for (std::size_t i = 0; i < n; ++i) {
        const double threshold =
            weighted ? tau * options.coefficient_weights[i] : tau;
        coeffs[i] = soft_threshold(coeffs[i], threshold);
      }
      psi.apply_into(coeffs, x_new);
    }
    // Extrapolation, then adopt x_new as x (swap: x's old storage becomes
    // next iteration's x_new scratch).
    phi.apply_into(x_new, u_new);
    for (std::size_t i = 0; i < n; ++i) {
      x_bar[i] = x_new[i] + options.theta * (x_new[i] - x[i]);
    }
    for (std::size_t i = 0; i < m; ++i) {
      u_bar[i] = u_new[i] + options.theta * (u_new[i] - u[i]);
    }
    std::swap(x, x_new);
    std::swap(u, u_new);
    result.iterations = it;

    if (it % options.check_every == 0 || it == options.max_iterations) {
      obs::trace_instant("solver.pdhg.check", "solver", "iteration",
                         static_cast<std::uint64_t>(it));
      for (std::size_t i = 0; i < n; ++i) {
        check_diff[i] = x[i] - x_prev_check[i];
      }
      const double dx = linalg::norm2(check_diff);
      const double rel_change = dx / std::max(linalg::norm2(x), 1.0);
      x_prev_check = x;

      for (std::size_t i = 0; i < m; ++i) w_m[i] = u[i] - y[i];
      const double ball_viol =
          std::max(0.0, linalg::norm2(w_m) - sigma);
      double box_viol = 0.0;
      if (box) {
        for (std::size_t i = 0; i < n; ++i) {
          box_viol = std::max(box_viol, box->lower[i] - x[i]);
          box_viol = std::max(box_viol, x[i] - box->upper[i]);
        }
        box_viol = std::max(box_viol, 0.0);
      }
      result.ball_violation = ball_viol;
      result.box_violation = box_viol;
      const bool feasible =
          ball_viol <= options.feasibility_tol * y_scale &&
          box_viol <= options.feasibility_tol * box_scale;
      if (rel_change <= options.tol && feasible) {
        result.converged = true;
        break;
      }
    }
  }

  result.objective = linalg::norm1(psi.apply_adjoint(x));
  result.x = std::move(x);

  static obs::Counter& solves = obs::counter("solver.pdhg.solves");
  static obs::Counter& iterations = obs::counter("solver.pdhg.iterations");
  static obs::Counter& converged = obs::counter("solver.pdhg.converged");
  static obs::Counter& non_converged =
      obs::counter("solver.pdhg.non_converged");
  static obs::Gauge& last_residual = obs::gauge("solver.pdhg.last_residual");
  static obs::Gauge& last_epsilon = obs::gauge("solver.pdhg.last_epsilon");
  solves.add();
  iterations.add(static_cast<std::uint64_t>(result.iterations));
  (result.converged ? converged : non_converged).add();
  last_residual.set(result.ball_violation);
  last_epsilon.set(sigma);
  solve_trace.set_arg(static_cast<std::uint64_t>(result.iterations));
  return result;
}

}  // namespace csecg::recovery
