// Primal-dual (Chambolle–Pock / PDHG) solver for the paper's problem (1).
//
// The paper solves, with SDPT3,
//
//   min ‖α‖₁  s.t.  ‖ΦΨα − y‖₂ ≤ σ,   ẋ ≤ Ψα ≤ ẋ + d            (1)
//
// With an *orthonormal* Ψ this is equivalent, through x = Ψα, to the
// analysis form
//
//   min ‖Ψᵀx‖₁  s.t.  ‖Φx − y‖₂ ≤ σ,   l ≤ x ≤ u
//
// which PDHG handles with only Φ/Φᵀ and Ψ/Ψᵀ products: write it as
// G(x) + F(Kx) with G = ‖Ψᵀ·‖₁ (prox = Ψ∘soft∘Ψᵀ), K = [Φ; I], and
// F(q₁,q₂) = δ_ball(q₁) + δ_box(q₂) (prox of F* by Moreau).  Dropping the
// box block gives the "normal CS" baseline of Fig. 7/8 — the same
// constrained basis-pursuit-denoise the paper's non-hybrid decoder solves.
//
// The iteration is over-relaxed primal-first Chambolle–Pock with
// block-diagonal dual steps and a primal weight that adapts to the
// problem's scale; it stops on a duality-gap certificate plus feasibility
// (DESIGN.md §5, item 7).
#pragma once

#include <optional>

#include "csecg/linalg/operator.hpp"
#include "csecg/linalg/vector.hpp"

namespace csecg::recovery {

/// Optional per-sample box constraint l ≤ x ≤ u.
struct BoxConstraint {
  linalg::Vector lower;
  linalg::Vector upper;
};

/// PDHG options.
///
/// The step sizes, the over-relaxation, the primal weight that balances
/// them and the projection cadence are not options: the steps come from
/// ‖Φ‖ and the row sums of K = [Φ; I], and the primal weight adapts to the
/// problem's own primal and dual scales (see solve_bpdn).
struct PdhgOptions {
  int max_iterations = 2000;
  /// Relative duality-gap tolerance: the solve stops once
  /// |P − D| ≤ tol·max(|P|, |D|) for the primal objective P and the dual
  /// bound D at the same iterate, and the iterate is feasible.
  double tol = 1e-3;
  /// Allowed constraint violation at a certified exit, relative to
  /// max(σ, 10⁻³‖y‖) for the ball and to each cell's width for the box.
  double feasibility_tol = 1e-3;
  /// Known ‖Φ‖₂, to skip the internal power iteration when the caller
  /// reuses one sensing operator across many solves.  0 = estimate.
  double phi_norm_hint = 0.0;
  /// Optional warm start for the primal variable (empty = default start:
  /// box midpoint when a box is given, zero otherwise).  A measurement-
  /// consistent start such as the least-norm solution Φᵀ(ΦΦᵀ)⁻¹y cuts the
  /// iteration count dramatically for the unconstrained baseline.
  linalg::Vector x0;
  /// Optional per-coefficient ℓ1 weights (empty = all ones): the objective
  /// becomes Σᵢ wᵢ·|（Ψᵀx)ᵢ|.  Used by the reweighted-ℓ1 wrapper.  A zero
  /// weight leaves no dual slack on its coefficient, so without a box such
  /// a solve only certifies once the dual is exactly feasible there; with
  /// a box the box-aware dual bound covers it exactly.
  linalg::Vector coefficient_weights;
};

/// Validates PdhgOptions; throws std::invalid_argument on nonsense.
void validate(const PdhgOptions& options);

/// Solver outcome.
struct PdhgResult {
  linalg::Vector x;        ///< Recovered sample-domain signal.
  int iterations = 0;
  /// Certified: relative gap ≤ tol and feasible, checked at the returned
  /// x (the exit iterate or its box projection).
  bool converged = false;
  double objective = 0.0;  ///< ‖Ψᵀx‖₁ at exit.
  /// Relative duality gap at exit, against the better of the scaled and
  /// (with a box) the box-aware dual bound.
  double gap = 0.0;
  double ball_violation = 0.0;  ///< max(0, ‖Φx−y‖₂ − σ) at exit.
  double box_violation = 0.0;   ///< max over samples of box violation.
};

/// Solves   min ‖Ψᵀx‖₁  s.t. ‖Φx−y‖₂ ≤ σ  [and l ≤ x ≤ u if box given].
///
/// `phi` is the m×n measurement operator, `psi` the n×n orthonormal
/// synthesis operator (apply = Ψ, apply_adjoint = Ψᵀ), `sigma` the fidelity
/// radius (≥ 0).  The box, when present, must have matching dimensions and
/// non-empty cells.  Stops at the first iterate that is certified (see
/// PdhgResult::converged), or, checked every 10th iteration, at the first
/// box projection clamp(x, l, u) of an iterate that certifies, or at
/// max_iterations.  Throws std::invalid_argument on dimension errors.
PdhgResult solve_bpdn(const linalg::LinearOperator& phi,
                      const linalg::LinearOperator& psi,
                      const linalg::Vector& y, double sigma,
                      const std::optional<BoxConstraint>& box = std::nullopt,
                      const PdhgOptions& options = {});

}  // namespace csecg::recovery
