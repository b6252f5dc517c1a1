#include "csecg/recovery/pdhg.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "csecg/common/check.hpp"
#include "csecg/obs/registry.hpp"
#include "csecg/obs/span.hpp"
#include "csecg/obs/trace.hpp"
#include "csecg/recovery/prox.hpp"

namespace csecg::recovery {

namespace {

// Over-relaxation ρ of the primal-first Chambolle–Pock step,
// z ← z + ρ(T z − z).  Any ρ in (0, 2) converges; 1.9 takes nearly the
// longest step that does.
constexpr double kRelaxation = 1.9;

// Iterations between primal-weight updates.
constexpr int kWeightEvery = 50;

// Feasibility-scale floors: the ball tolerance never drops below
// feasibility_tol·kBallFloor·‖y‖ (so σ ≈ 0 solves still stop), and a
// zero-width box cell is measured against kBoxFloor times the widest cell.
constexpr double kBallFloor = 1e-3;
constexpr double kBoxFloor = 1e-3;

// The element-wise passes of an iteration.  Each takes its arrays as
// __restrict parameters (the solver's workspaces are distinct vectors), so
// the compiler vectorises it; every element sees exactly the operations
// of the plain scalar loop.

/// step = x − τ·kq.
void primal_step(std::size_t n, double tau, const double* __restrict x,
                 const double* __restrict kq, double* __restrict step) {
  for (std::size_t i = 0; i < n; ++i) step[i] = x[i] - tau * kq[i];
}

/// out = soft(v, τ·w), with w ≡ 1 (threshold exactly τ) when w is null.
void threshold_coefficients(std::size_t n, double tau,
                            const double* __restrict w,
                            const double* __restrict v,
                            double* __restrict out) {
  if (w != nullptr) {
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = soft_threshold(v[i], tau * w[i]);
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) out[i] = soft_threshold(v[i], tau);
  }
}

/// q1_new = q1 + σ_ball(2u_new − u − y).
void ball_step(std::size_t m, double sigma_ball, const double* __restrict q1,
               const double* __restrict u_new, const double* __restrict u,
               const double* __restrict y, double* __restrict q1_new) {
  for (std::size_t i = 0; i < m; ++i) {
    q1_new[i] = q1[i] + sigma_ball * (2.0 * u_new[i] - u[i] - y[i]);
  }
}

/// The box block: q̃₂ = v − σ_box·clamp(v/σ_box, l, u) with
/// v = q₂ + σ_box(2x̃ − x), written as max(·, 0) + min(·, 0) with the
/// exact std::max/std::min ±0 and NaN semantics; adds q̃₂ to kq_new and
/// relaxes q₂ towards it.
void box_step(std::size_t n, double sigma_box, const double* __restrict lower,
              const double* __restrict upper, const double* __restrict x_new,
              const double* __restrict x, double* __restrict q2,
              double* __restrict kq_new) {
  for (std::size_t i = 0; i < n; ++i) {
    const double v = q2[i] + sigma_box * (2.0 * x_new[i] - x[i]);
    const double q2_new = std::max(v - sigma_box * upper[i], 0.0) +
                          std::min(v - sigma_box * lower[i], 0.0);
    kq_new[i] += q2_new;
    q2[i] += kRelaxation * (q2_new - q2[i]);
  }
}

/// Over-relaxation z ← z + ρ(z̃ − z).
void relax(std::size_t len, const double* __restrict z_new,
           double* __restrict z) {
  for (std::size_t i = 0; i < len; ++i) {
    z[i] += kRelaxation * (z_new[i] - z[i]);
  }
}

/// ‖a − b‖², summed in index order.
double squared_distance(const linalg::Vector& a, const linalg::Vector& b) {
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    sum += d * d;
  }
  return sum;
}

}  // namespace

void validate(const PdhgOptions& options) {
  CSECG_CHECK(options.max_iterations > 0, "PdhgOptions: max_iterations <= 0");
  CSECG_CHECK(options.tol > 0.0, "PdhgOptions: tol must be positive");
  CSECG_CHECK(options.feasibility_tol > 0.0,
              "PdhgOptions: feasibility_tol must be positive");
  CSECG_CHECK(options.check_every > 0, "PdhgOptions: check_every <= 0");
  CSECG_CHECK(options.step_safety > 0.0 && options.step_safety < 1.0,
              "PdhgOptions: step_safety must be in (0, 1)");
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
  const auto weight = [&](std::size_t i) {
    return weighted ? options.coefficient_weights[i] : 1.0;
  };

  // Block-diagonal steps from the row sums of K = [Φ; I] (Pock & Chambolle
  // 2011): c_ball = 1, c_box = n.  With τ = η/ω and σ_b = η·ω·c_b the
  // preconditioned ‖Σ^½KT^½‖ is step_safety whatever the primal weight ω.
  const double phi_norm = options.phi_norm_hint > 0.0
                              ? options.phi_norm_hint
                              : linalg::operator_norm_estimate(phi, 60);
  const double c_box = box ? static_cast<double>(n) : 0.0;
  const double eta =
      options.step_safety /
      std::max(std::sqrt(phi_norm * phi_norm + c_box), 1e-12);

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

  // Primal weight ω: the ratio of the dual to the primal scale.  It starts
  // from the data, PDLP's ‖c‖/‖b‖ read as ‖w‖₂ over the start point's norm
  // (or ‖y‖/‖Φ‖, the norm of a measurement-consistent x, from a zero
  // start), so multiplying y, σ and the box by s starts ω at 1/s and the
  // whole iteration is scale-equivariant.
  double omega = 1.0;
  {
    double w_norm2 = 0.0;
    for (std::size_t i = 0; i < n; ++i) w_norm2 += weight(i) * weight(i);
    double x_scale = linalg::norm2(x);
    if (x_scale == 0.0 && phi_norm > 0.0) x_scale = linalg::norm2(y) / phi_norm;
    if (x_scale > 0.0 && w_norm2 > 0.0) omega = std::sqrt(w_norm2) / x_scale;
  }
  double tau = eta / omega;
  double sigma_ball = eta * omega;
  double sigma_box = eta * omega * c_box;

  // The iterate carries Ψᵀx, Φx and Kᵀq next to x and q.  All three are
  // linear in the iterate, so the relaxation step updates them without an
  // operator call: a solve applies Φ once per iteration (to the primal
  // prox point) plus once at the start, and Φᵀ once per iteration.
  linalg::Vector coeffs(n);  // Ψᵀx.
  psi.apply_adjoint_into(x, coeffs);
  linalg::Vector u(m);  // Φx.
  phi.apply_into(x, u);
  linalg::Vector q1(m);
  linalg::Vector q2(box ? n : 0);
  linalg::Vector kq(n);  // Kᵀq = Φᵀq₁ + q₂.

  // Per-solve workspaces, reused every iteration so the loop itself is
  // allocation-free (the operators' *_into paths write in place).
  linalg::Vector step_point(n);    // x − τKᵀq.
  linalg::Vector step_coeffs(n);   // Ψᵀ(x − τKᵀq).
  linalg::Vector coeffs_new(n);    // Ψᵀx̃ = soft(Ψᵀ(x − τKᵀq)).
  linalg::Vector x_new(n);         // x̃.
  linalg::Vector u_new(m);         // Φx̃.
  linalg::Vector q1_new(m);
  linalg::Vector kq_new(n);
  linalg::Vector x_anchor = x;     // Iterate at the last ω update.
  linalg::Vector q1_anchor(m);
  linalg::Vector q2_anchor(box ? n : 0);
  linalg::Vector box_dual(box ? n : 0);    // g, the box bound's ℓ1 dual.
  linalg::Vector box_normal(box ? n : 0);  // c = Ψg + Φᵀq₁.

  // Feasibility scales: σ (floored by ‖y‖) for the ball, each cell's own
  // width (floored by the widest) for the box.
  const double ball_tol =
      options.feasibility_tol * std::max(sigma, kBallFloor * linalg::norm2(y));
  double box_floor = 0.0;
  if (box) {
    double widest = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      widest = std::max(widest, box->upper[i] - box->lower[i]);
    }
    box_floor = kBoxFloor * widest;
  }

  PdhgResult result;
  // The certificate at the current iterate (x, q); `last` marks the exit
  // check.  Ψᵀx is carried, and ΨᵀKᵀq = (Ψᵀx − Ψᵀ(x − τKᵀq))/τ comes from
  // the primal step's own Ψᵀ product, so the scaled bound applies no
  // operator; the box bound applies Ψ once, and only where it can decide
  // the outcome.  The check writes nothing the iteration reads.
  const auto certify = [&](bool last) {
    result.ball_violation =
        std::max(0.0, std::sqrt(squared_distance(u, y)) - sigma);
    bool feasible = result.ball_violation <= ball_tol;
    double box_viol = 0.0;
    double box_support = 0.0;  // Σᵢ max(lᵢq₂ᵢ, uᵢq₂ᵢ).
    if (box) {
      for (std::size_t i = 0; i < n; ++i) {
        const double lo = box->lower[i];
        const double hi = box->upper[i];
        const double viol = std::max({lo - x[i], x[i] - hi, 0.0});
        box_viol = std::max(box_viol, viol);
        feasible = feasible && viol <= options.feasibility_tol *
                                           std::max(hi - lo, box_floor);
        box_support += std::max(lo * q2[i], hi * q2[i]);
      }
    }
    result.box_violation = box_viol;

    // Primal objective P = Σ wᵢ|(Ψᵀx)ᵢ|.  Dual bound D = −F*(q)/s, where
    // F* is the support function of ball × box and s ≥ 1 is the smallest
    // scaling that makes q dual-feasible, ‖W⁻¹ΨᵀKᵀq‖∞ ≤ s.
    double primal = 0.0;
    double scale = 1.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double w = weight(i);
      primal += w * std::abs(coeffs[i]);
      const double g = std::abs(coeffs[i] - step_coeffs[i]) / tau;
      if (g > w * scale) {
        scale = w > 0.0 ? g / w : std::numeric_limits<double>::infinity();
      }
    }
    const double ball_support = linalg::dot(q1, y) + sigma * linalg::norm2(q1);
    double dual = -(ball_support + box_support) / scale;

    // With a box, the Lagrangian bound that keeps the box on the primal
    // side: for g = clamp(−ΨᵀKᵀq, −w, w) and c = Ψg + Φᵀq₁, every feasible
    // x has Σwᵢ|(Ψᵀx)ᵢ| ≥ ⟨g, Ψᵀx⟩ = ⟨c, x⟩ − ⟨q₁, Φx⟩
    // ≥ Σᵢ min(lᵢcᵢ, uᵢcᵢ) − ⟨q₁, y⟩ − σ‖q₁‖.  It needs no rescaling of q
    // (a zero weight just forces gᵢ = 0).  It costs a Ψ product, so it is
    // evaluated only at a feasible iterate (where it can certify, or tighten
    // the reported gap of an exit) and at the last check.  A NaN bound
    // (0·∞ on an unbounded cell) loses the std::max below.
    if (box && (feasible || last)) {
      for (std::size_t i = 0; i < n; ++i) {
        const double w = weight(i);
        const double r = (coeffs[i] - step_coeffs[i]) / tau;
        box_dual[i] = std::clamp(-r, -w, w);
      }
      psi.apply_into(box_dual, box_normal);
      double box_bound = -ball_support;
      for (std::size_t i = 0; i < n; ++i) {
        const double c = box_normal[i] + (kq[i] - q2[i]);
        box_bound += std::min(box->lower[i] * c, box->upper[i] * c);
      }
      dual = std::max(dual, box_bound);
    }
    const double magnitude = std::max(std::abs(primal), std::abs(dual));
    result.gap = magnitude > 0.0 ? std::abs(primal - dual) / magnitude : 0.0;
    result.converged = feasible && result.gap <= options.tol;
  };

  for (int it = 0;; ++it) {
    // Primal step argument, in the coefficient domain.
    primal_step(n, tau, x.data(), kq.data(), step_point.data());
    psi.apply_adjoint_into(step_point, step_coeffs);
    if (it == options.max_iterations ||
        (it > 0 && it % options.check_every == 0)) {
      obs::trace_instant("solver.pdhg.check", "solver", "iteration",
                         static_cast<std::uint64_t>(it));
      certify(it == options.max_iterations);
      if (result.converged || it == options.max_iterations) {
        result.iterations = it;
        break;
      }
    }

    // x̃ = prox_{τ‖WΨᵀ·‖₁}(x − τKᵀq) = Ψ·soft(Ψᵀ(x − τKᵀq), τw).
    threshold_coefficients(
        n, tau, weighted ? options.coefficient_weights.data() : nullptr,
        step_coeffs.data(), coeffs_new.data());
    psi.apply_into(coeffs_new, x_new);
    phi.apply_into(x_new, u_new);

    // q̃ = prox_{ΣF*}(q + ΣK(2x̃ − x)), block by block through Moreau.
    // Ball: q̃₁ = max(0, 1 − σ_ball·σ/‖v‖)·v, v = q₁ + σ_ball(2Φx̃ − Φx − y).
    ball_step(m, sigma_ball, q1.data(), u_new.data(), u.data(), y.data(),
              q1_new.data());
    const double v_norm = linalg::norm2(q1_new);
    const double shrink =
        v_norm > 0.0 ? std::max(0.0, 1.0 - sigma_ball * sigma / v_norm) : 0.0;
    for (std::size_t i = 0; i < m; ++i) q1_new[i] *= shrink;
    phi.apply_adjoint_into(q1_new, kq_new);

    // Over-relaxation z ← z + ρ(z̃ − z) of the iterate and of its carried
    // products.  The box block's q̃₂ reads the x before the relaxation and
    // completes kq_new = Φᵀq̃₁ + q̃₂.
    relax(m, u_new.data(), u.data());
    relax(m, q1_new.data(), q1.data());
    if (box) {
      box_step(n, sigma_box, box->lower.data(), box->upper.data(),
               x_new.data(), x.data(), q2.data(), kq_new.data());
    }
    relax(n, x_new.data(), x.data());
    relax(n, coeffs_new.data(), coeffs.data());
    relax(n, kq_new.data(), kq.data());

    // Adaptive primal weight (PDLP): ω ← √(ω·‖Δq‖/‖Δx‖) over the last
    // kWeightEvery iterations, with the dual blocks in their own metric.
    if ((it + 1) % kWeightEvery == 0) {
      const double dx = std::sqrt(squared_distance(x, x_anchor));
      const double dq = std::sqrt(
          squared_distance(q1, q1_anchor) +
          (box ? squared_distance(q2, q2_anchor) / c_box : 0.0));
      if (dx > 0.0 && dq > 0.0 && std::isfinite(dq / dx)) {
        omega = std::sqrt(omega * dq / dx);
        tau = eta / omega;
        sigma_ball = eta * omega;
        sigma_box = eta * omega * c_box;
      }
      x_anchor = x;
      q1_anchor = q1;
      q2_anchor = q2;
    }
  }

  result.objective = linalg::norm1(coeffs);
  result.x = std::move(x);

  static obs::Counter& solves = obs::counter("solver.pdhg.solves");
  static obs::Counter& iterations = obs::counter("solver.pdhg.iterations");
  static obs::Counter& converged = obs::counter("solver.pdhg.converged");
  static obs::Counter& non_converged =
      obs::counter("solver.pdhg.non_converged");
  solves.add();
  iterations.add(static_cast<std::uint64_t>(result.iterations));
  (result.converged ? converged : non_converged).add();
  solve_trace.set_arg(static_cast<std::uint64_t>(result.iterations));
  return result;
}

}  // namespace csecg::recovery
