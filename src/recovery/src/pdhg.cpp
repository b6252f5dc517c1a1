#include "csecg/recovery/pdhg.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "csecg/common/check.hpp"
#include "csecg/obs/registry.hpp"
#include "csecg/obs/trace.hpp"
#include "csecg/recovery/prox.hpp"

namespace csecg::recovery {

namespace {

// Over-relaxation ρ of the primal-first Chambolle–Pock step,
// z ← z + ρ(T z − z).  Any ρ in (0, 2) converges; 1.9 takes nearly the
// longest step that does.
constexpr double kRelaxation = 1.9;

// Safety factor on the step sizes: the product of primal and dual steps is
// kStepSafety² / ‖K‖² in the preconditioned metric.
constexpr double kStepSafety = 0.99;

// Every kCheckEvery iterations, an iterate that meets the ball but not the
// box is certified at its projection onto the box.
constexpr int kCheckEvery = 10;

// Adaptive restarts (PDLP, Applegate et al. 2021).  Every kRestartEvery
// iterations the current and the average iterate since the last restart
// are scored by a relative KKT error, and the solve restarts to the better
// of the two when it has cut the restart point's error by kSufficient, or
// by kNecessary and stopped improving, or when the epoch has lasted
// kArtificial of all iterations so far.
constexpr int kRestartEvery = 64;
constexpr double kSufficient = 0.2;
constexpr double kNecessary = 0.8;
constexpr double kArtificial = 0.36;

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
/// exact std::max/std::min ±0 and NaN semantics; adds q̃₂ to kq_new,
/// relaxes q₂ towards it and adds the relaxed q₂ to q2_sum.
void box_step(std::size_t n, double sigma_box, const double* __restrict lower,
              const double* __restrict upper, const double* __restrict x_new,
              const double* __restrict x, double* __restrict q2,
              double* __restrict q2_sum, double* __restrict kq_new) {
  for (std::size_t i = 0; i < n; ++i) {
    const double v = q2[i] + sigma_box * (2.0 * x_new[i] - x[i]);
    const double q2_new = std::max(v - sigma_box * upper[i], 0.0) +
                          std::min(v - sigma_box * lower[i], 0.0);
    kq_new[i] += q2_new;
    q2[i] += kRelaxation * (q2_new - q2[i]);
    q2_sum[i] += q2[i];
  }
}

/// Over-relaxation z ← z + ρ(z̃ − z), adding the relaxed z to z_sum.
void relax(std::size_t len, const double* __restrict z_new,
           double* __restrict z, double* __restrict z_sum) {
  for (std::size_t i = 0; i < len; ++i) {
    z[i] += kRelaxation * (z_new[i] - z[i]);
    z_sum[i] += z[i];
  }
}

/// Whether x lies within `tol` of the cell [lo, hi]: the exact test the
/// certificate applies to each sample.
bool within_cell(double x, double lo, double hi, double tol) {
  return std::max({lo - x, x - hi, 0.0}) <= tol;
}

/// relax() of the carried Φx, returning ‖u − y‖² of the relaxed u, summed
/// in index order (as squared_distance sums it).
double relax_residual(std::size_t m, const double* __restrict u_new,
                      const double* __restrict y, double* __restrict u,
                      double* __restrict u_sum) {
  double sum = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    u[i] += kRelaxation * (u_new[i] - u[i]);
    u_sum[i] += u[i];
    const double d = u[i] - y[i];
    sum += d * d;
  }
  return sum;
}

/// relax() of x, returning how many relaxed samples lie outside their
/// cell's tolerance (counted in a double, so the loop vectorises).
double relax_outside_box(std::size_t n, const double* __restrict x_new,
                         const double* __restrict lower,
                         const double* __restrict upper,
                         const double* __restrict tol, double* __restrict x,
                         double* __restrict x_sum) {
  double outside = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    x[i] += kRelaxation * (x_new[i] - x[i]);
    x_sum[i] += x[i];
    outside += within_cell(x[i], lower[i], upper[i], tol[i]) ? 0.0 : 1.0;
  }
  return outside;
}

/// The iterate z = (x, q₁, q₂) with the products the solver carries next
/// to it: Ψᵀx, Φx and Kᵀq = Φᵀq₁ + q₂.  All of them are linear in z, so a
/// sum or an average of iterates carries its products too.
struct Iterate {
  Iterate(std::size_t n, std::size_t m, std::size_t box_n)
      : x(n), coeffs(n), u(m), q1(m), q2(box_n), kq(n) {}

  linalg::Vector x;
  linalg::Vector coeffs;  // Ψᵀx.
  linalg::Vector u;       // Φx.
  linalg::Vector q1;
  linalg::Vector q2;
  linalg::Vector kq;      // Kᵀq.

  /// this = s·other, member by member.
  void assign_scaled(const Iterate& other, double s) {
    scale_into(other.x, s, x);
    scale_into(other.coeffs, s, coeffs);
    scale_into(other.u, s, u);
    scale_into(other.q1, s, q1);
    scale_into(other.q2, s, q2);
    scale_into(other.kq, s, kq);
  }

  void set_zero() {
    for (linalg::Vector* v : {&x, &coeffs, &u, &q1, &q2, &kq}) v->fill(0.0);
  }

 private:
  static void scale_into(const linalg::Vector& from, double s,
                         linalg::Vector& to) {
    for (std::size_t i = 0; i < from.size(); ++i) to[i] = s * from[i];
  }
};

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
  obs::Stage stage("solver.pdhg.solve", "solver", &solve_hist, "iterations");
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
  // preconditioned ‖Σ^½KT^½‖ is kStepSafety whatever the primal weight ω.
  const double phi_norm = options.phi_norm_hint > 0.0
                              ? options.phi_norm_hint
                              : linalg::operator_norm_estimate(phi, 60);
  const double c_box = box ? static_cast<double>(n) : 0.0;
  const double eta =
      kStepSafety / std::max(std::sqrt(phi_norm * phi_norm + c_box), 1e-12);

  // Warm start: caller-provided, else box midpoint (already nearly
  // feasible), else zero.
  Iterate z(n, m, box ? n : 0);
  linalg::Vector& x = z.x;
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
  // from the data, half of PDLP's ‖c‖/‖b‖ read as ‖w‖₂ over the start
  // point's norm (or ‖y‖/‖Φ‖, the norm of a measurement-consistent x, from
  // a zero start): restarts settle ω near half of that ratio anyway.  So
  // multiplying y, σ and the box by s starts ω at 1/s and the whole
  // iteration is scale-equivariant.
  double omega = 1.0;
  {
    double w_norm2 = 0.0;
    for (std::size_t i = 0; i < n; ++i) w_norm2 += weight(i) * weight(i);
    double x_scale = linalg::norm2(x);
    if (x_scale == 0.0 && phi_norm > 0.0) x_scale = linalg::norm2(y) / phi_norm;
    if (x_scale > 0.0 && w_norm2 > 0.0) {
      omega = std::sqrt(w_norm2) / (2.0 * x_scale);
    }
  }
  double tau = eta / omega;
  double sigma_ball = eta * omega;
  double sigma_box = eta * omega * c_box;

  // The iterate carries Ψᵀx, Φx and Kᵀq next to x and q.  All three are
  // linear in the iterate, so the relaxation step, the running sum and a
  // restart to the average update them without an operator call: a solve
  // applies Φ once per iteration (to the primal prox point), once at the
  // start and once per box projection it tries, and Φᵀ once per
  // iteration.
  psi.apply_adjoint_into(x, z.coeffs);
  phi.apply_into(x, z.u);
  linalg::Vector& coeffs = z.coeffs;
  linalg::Vector& u = z.u;
  linalg::Vector& q1 = z.q1;
  linalg::Vector& q2 = z.q2;
  linalg::Vector& kq = z.kq;

  // Per-solve workspaces, reused every iteration so the loop itself is
  // allocation-free (the operators' *_into paths write in place).
  linalg::Vector step_point(n);    // x − τKᵀq.
  linalg::Vector step_coeffs(n);   // Ψᵀ(x − τKᵀq).
  linalg::Vector coeffs_new(n);    // Ψᵀx̃ = soft(Ψᵀ(x − τKᵀq)).
  linalg::Vector x_new(n);         // x̃.
  linalg::Vector u_new(m);         // Φx̃.
  linalg::Vector q1_new(m);
  linalg::Vector kq_new(n);
  linalg::Vector box_dual(box ? n : 0);    // g, the box bound's ℓ1 dual.
  linalg::Vector box_normal(box ? n : 0);  // c = Ψg + Φᵀq₁.
  linalg::Vector x_proj(box ? n : 0);       // clamp(x, l, u).
  linalg::Vector coeffs_proj(box ? n : 0);  // Ψᵀx_proj.
  linalg::Vector u_proj(box ? m : 0);       // Φx_proj.
  // Restart state: the sum of the iterates since the last restart, their
  // average and its ΨᵀKᵀq, and the last restart point.
  Iterate sum(n, m, box ? n : 0);
  Iterate average(n, m, box ? n : 0);
  linalg::Vector current_r(n);  // ΨᵀKᵀq of the current iterate.
  linalg::Vector average_r(n);
  Iterate anchor = z;

  // Feasibility scales: σ (floored by ‖y‖) for the ball, each cell's own
  // width (floored by the widest) for the box, and from them the ball's
  // and each cell's tolerance.
  const double ball_scale = std::max(sigma, kBallFloor * linalg::norm2(y));
  const double ball_tol = options.feasibility_tol * ball_scale;
  double box_floor = 0.0;
  linalg::Vector box_tol(box ? n : 0);
  if (box) {
    double widest = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      widest = std::max(widest, box->upper[i] - box->lower[i]);
    }
    box_floor = kBoxFloor * widest;
    for (std::size_t i = 0; i < n; ++i) {
      box_tol[i] = options.feasibility_tol *
                   std::max(box->upper[i] - box->lower[i], box_floor);
    }
  }
  // The certificate's feasibility tests: max(0, ‖Φx − y‖ − σ) ≤ ball_tol
  // given ‖Φx − y‖², and every sample within its cell's tolerance (always
  // true without a box).
  const auto meets_ball = [&](double residual2) {
    return std::max(0.0, std::sqrt(residual2) - sigma) <= ball_tol;
  };
  const auto within_box = [&](const linalg::Vector& v) {
    bool inside = true;
    for (std::size_t i = 0; i < box_tol.size(); ++i) {
      inside &= within_cell(v[i], box->lower[i], box->upper[i], box_tol[i]);
    }
    return inside;
  };
  double max_weight = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    max_weight = std::max(max_weight, weight(i));
  }
  if (max_weight == 0.0) max_weight = 1.0;

  // The relative KKT error of an iterate, given its r = ΨᵀKᵀq: the
  // Euclidean norm of the relative gap between P = Σwᵢ|(Ψᵀx)ᵢ| and the
  // Lagrangian dual value −F*(q), the ball and box violations in the
  // feasibility scales, and the dual violation max(|rᵢ| − wᵢ, 0) over the
  // largest weight.  Every term is unchanged when y, σ and the box are
  // scaled together, and none depends on tol, so restarts never move with
  // the stopping rule.
  const auto kkt_error = [&](const Iterate& point, const double* r) {
    double primal = 0.0;
    double dual_viol = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double w = weight(i);
      primal += w * std::abs(point.coeffs[i]);
      dual_viol = std::max(dual_viol, std::abs(r[i]) - w);
    }
    double support =
        linalg::dot(point.q1, y) + sigma * linalg::norm2(point.q1);
    double box_rel = 0.0;
    if (box) {
      for (std::size_t i = 0; i < n; ++i) {
        const double lo = box->lower[i];
        const double hi = box->upper[i];
        const double viol =
            std::max({lo - point.x[i], point.x[i] - hi, 0.0});
        const double width = std::max(hi - lo, box_floor);
        box_rel = std::max(box_rel, width > 0.0 ? viol / width : viol);
        support += std::max(lo * point.q2[i], hi * point.q2[i]);
      }
    }
    const double magnitude = std::max(std::abs(primal), std::abs(support));
    const double gap =
        magnitude > 0.0 ? std::abs(primal + support) / magnitude : 0.0;
    const double ball_viol =
        std::max(0.0, std::sqrt(squared_distance(point.u, y)) - sigma);
    const double ball_rel =
        ball_scale > 0.0 ? ball_viol / ball_scale : ball_viol;
    const double dual_rel = dual_viol / max_weight;
    return std::sqrt(gap * gap + ball_rel * ball_rel + box_rel * box_rel +
                     dual_rel * dual_rel);
  };

  PdhgResult result;
  // The certificate of the point (px, Ψᵀpx, Φpx) against the current dual
  // q: the iterate itself, or its box projection.  ΨᵀKᵀq = (Ψᵀx −
  // Ψᵀ(x − τKᵀq))/τ comes from the primal step's own Ψᵀ product, so the
  // scaled bound applies no operator; the box bound applies Ψ once, and
  // only where it can decide the outcome.  The check writes nothing the
  // iteration reads.
  const auto certify = [&](int it, const linalg::Vector& px,
                           const linalg::Vector& pcoeffs,
                           const linalg::Vector& pu) {
    obs::trace_instant("solver.pdhg.check", "solver", "iteration",
                       static_cast<std::uint64_t>(it));
    const bool last = it == options.max_iterations;
    result.ball_violation =
        std::max(0.0, std::sqrt(squared_distance(pu, y)) - sigma);
    bool feasible = result.ball_violation <= ball_tol;
    double box_viol = 0.0;
    double box_support = 0.0;  // Σᵢ max(lᵢq₂ᵢ, uᵢq₂ᵢ).
    if (box) {
      for (std::size_t i = 0; i < n; ++i) {
        const double lo = box->lower[i];
        const double hi = box->upper[i];
        const double viol = std::max({lo - px[i], px[i] - hi, 0.0});
        box_viol = std::max(box_viol, viol);
        feasible = feasible && viol <= box_tol[i];
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
      primal += w * std::abs(pcoeffs[i]);
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
    // evaluated only at a feasible point (where it can certify, or tighten
    // the reported gap of an exit) and at the cap.  A NaN bound (0·∞ on an
    // unbounded cell) loses the std::max below.
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

  // The box projection x_c = clamp(x, l, u) of an iterate that meets the
  // ball but not the box.  Every optimum lies in the box, so x_c is no
  // further from any of them than x; it meets the box exactly, and it
  // costs Φx_c, then (if it still meets the ball) Ψᵀx_c and the box
  // bound's Ψ product.  Returns whether it certifies.
  const auto certify_projection = [&](int it) {
    for (std::size_t i = 0; i < n; ++i) {
      x_proj[i] = std::clamp(x[i], box->lower[i], box->upper[i]);
    }
    phi.apply_into(x_proj, u_proj);
    if (!meets_ball(squared_distance(u_proj, y))) return false;
    psi.apply_adjoint_into(x_proj, coeffs_proj);
    certify(it, x_proj, coeffs_proj, u_proj);
    return result.converged;
  };

  // Restart bookkeeping: the epoch's first iteration, the KKT error at its
  // start and at the previous evaluation's candidate.
  int epoch_start = 0;
  int averaged = 0;  // Iterates in `sum`.
  double restart_error = 0.0;
  double previous_error = std::numeric_limits<double>::infinity();

  // Every kRestartEvery iterations, at the top of the loop (step_coeffs
  // holds Ψᵀ(x − τKᵀq) of the current iterate): score the current and the
  // average iterate, and restart to the better one when a PDLP rule
  // fires.  A restart moves ω halfway in log space towards the observed
  // ratio, ω ← √(ω·‖Δq‖/‖Δx‖), with Δ taken between restart points and
  // the dual blocks in their own metric; then it recomputes the primal
  // step argument.  Returns whether the average replaced the iterate.
  const auto maybe_restart = [&](int it) {
    for (std::size_t i = 0; i < n; ++i) {
      current_r[i] = (coeffs[i] - step_coeffs[i]) / tau;
    }
    const double current_error = kkt_error(z, current_r.data());
    if (averaged == 0) {
      restart_error = current_error;
      return false;
    }
    average.assign_scaled(sum, 1.0 / static_cast<double>(averaged));
    psi.apply_adjoint_into(average.kq, average_r);
    const double average_error = kkt_error(average, average_r.data());
    const bool to_average = average_error < current_error;
    const double candidate = to_average ? average_error : current_error;
    const bool restart =
        candidate <= kSufficient * restart_error ||
        (candidate <= kNecessary * restart_error &&
         candidate > previous_error) ||
        it - epoch_start >= kArtificial * static_cast<double>(it);
    if (!restart) {
      previous_error = candidate;
      return false;
    }
    if (to_average) std::swap(z, average);
    const double dx = std::sqrt(squared_distance(x, anchor.x));
    const double dq = std::sqrt(
        squared_distance(q1, anchor.q1) +
        (box ? squared_distance(q2, anchor.q2) / c_box : 0.0));
    if (dx > 0.0 && dq > 0.0 && std::isfinite(dq / dx)) {
      omega = std::sqrt(omega * dq / dx);
      tau = eta / omega;
      sigma_ball = eta * omega;
      sigma_box = eta * omega * c_box;
    }
    anchor = z;
    sum.set_zero();
    averaged = 0;
    epoch_start = it;
    restart_error = candidate;
    previous_error = std::numeric_limits<double>::infinity();
    primal_step(n, tau, x.data(), kq.data(), step_point.data());
    psi.apply_adjoint_into(step_point, step_coeffs);
    return to_average;
  };

  // The feasibility screen of the current iterate: ‖Φx − y‖² and whether
  // every sample lies within its cell's tolerance.  The relax passes keep
  // it current at no extra pass, and it decides feasibility exactly as the
  // certificate does, so the certificate runs at every iterate that can
  // pass it, and at no other except the cap.
  double residual2 = squared_distance(u, y);
  bool inside = within_box(x);
  bool projected = false;  // The solve stopped at x_proj.

  for (int it = 0;; ++it) {
    // Primal step argument, in the coefficient domain.
    primal_step(n, tau, x.data(), kq.data(), step_point.data());
    psi.apply_adjoint_into(step_point, step_coeffs);
    if (it % kRestartEvery == 0 && maybe_restart(it)) {
      residual2 = squared_distance(u, y);
      inside = within_box(x);
    }
    const bool last = it == options.max_iterations;
    const bool ball_ok = meets_ball(residual2);
    if (last || (ball_ok && inside)) {
      certify(it, x, coeffs, u);
      if (result.converged || last) {
        result.iterations = it;
        break;
      }
    } else if (ball_ok && it > 0 && it % kCheckEvery == 0 &&
               certify_projection(it)) {  // Off the box, so there is one.
      result.iterations = it;
      projected = true;
      break;
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
    // products, each relaxed value also added to the running sum; the
    // passes over Φx and x also refresh the feasibility screen.  The box
    // block's q̃₂ reads the x before the relaxation and completes
    // kq_new = Φᵀq̃₁ + q̃₂.
    residual2 = relax_residual(m, u_new.data(), y.data(), u.data(),
                               sum.u.data());
    relax(m, q1_new.data(), q1.data(), sum.q1.data());
    if (box) {
      box_step(n, sigma_box, box->lower.data(), box->upper.data(),
               x_new.data(), x.data(), q2.data(), sum.q2.data(),
               kq_new.data());
      inside = relax_outside_box(n, x_new.data(), box->lower.data(),
                                 box->upper.data(), box_tol.data(), x.data(),
                                 sum.x.data()) == 0.0;
    } else {
      relax(n, x_new.data(), x.data(), sum.x.data());
    }
    relax(n, coeffs_new.data(), coeffs.data(), sum.coeffs.data());
    relax(n, kq_new.data(), kq.data(), sum.kq.data());
    ++averaged;
  }

  result.objective = linalg::norm1(projected ? coeffs_proj : coeffs);
  result.x = std::move(projected ? x_proj : x);

  static obs::Counter& solves = obs::counter("solver.pdhg.solves");
  static obs::Counter& iterations = obs::counter("solver.pdhg.iterations");
  static obs::Counter& converged = obs::counter("solver.pdhg.converged");
  static obs::Counter& non_converged =
      obs::counter("solver.pdhg.non_converged");
  solves.add();
  iterations.add(static_cast<std::uint64_t>(result.iterations));
  (result.converged ? converged : non_converged).add();
  stage.set_arg(static_cast<std::uint64_t>(result.iterations));
  return result;
}

}  // namespace csecg::recovery
