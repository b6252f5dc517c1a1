// Unit tests for csecg::recovery — proximal operators, the PDHG
// box-constrained BPDN solver (paper problem (1)), FISTA/ADMM LASSO
// agreement, and greedy pursuit exact-recovery properties.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <stdexcept>

#include "csecg/linalg/matrix.hpp"
#include "csecg/linalg/operator.hpp"
#include "csecg/recovery/admm.hpp"
#include "csecg/recovery/fista.hpp"
#include "csecg/recovery/greedy.hpp"
#include "csecg/recovery/pdhg.hpp"
#include "csecg/recovery/prox.hpp"
#include "csecg/rng/distributions.hpp"
#include "csecg/rng/xoshiro.hpp"

namespace csecg::recovery {
namespace {

using linalg::LinearOperator;
using linalg::Matrix;
using linalg::Vector;

Matrix gaussian_matrix(std::size_t m, std::size_t n, std::uint64_t seed,
                       bool normalize = true) {
  rng::Xoshiro256 gen(seed);
  Matrix a(m, n);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) a(i, j) = rng::normal(gen);
  }
  if (normalize) linalg::normalize_columns(a);
  return a;
}

Vector sparse_vector(std::size_t n, std::size_t k, std::uint64_t seed) {
  rng::Xoshiro256 gen(seed);
  Vector x(n);
  for (std::size_t i = 0; i < k; ++i) {
    std::size_t idx = 0;
    do {
      idx = static_cast<std::size_t>(rng::uniform_below(gen, n));
    } while (x[idx] != 0.0);
    // Amplitudes bounded away from zero so support identification is
    // well-posed for the greedy solvers.
    x[idx] = static_cast<double>(rng::rademacher(gen)) *
             rng::uniform(gen, 1.0, 3.0);
  }
  return x;
}

// ---------------------------------------------------------------------------
// Proximal operators.

TEST(Prox, SoftThresholdScalar) {
  EXPECT_DOUBLE_EQ(soft_threshold(3.0, 1.0), 2.0);
  EXPECT_DOUBLE_EQ(soft_threshold(-3.0, 1.0), -2.0);
  EXPECT_DOUBLE_EQ(soft_threshold(0.5, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(soft_threshold(-0.5, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(soft_threshold(2.0, 0.0), 2.0);
}

TEST(Prox, SoftThresholdIsBitIdenticalToTheBranchingDefinition) {
  // The branch-free inline form must return exactly what the textbook
  // branches return, including the sign of zero, at the threshold, and
  // for NaN and infinite values or thresholds.
  const auto branching = [](double value, double threshold) {
    if (value > threshold) return value - threshold;
    if (value < -threshold) return value + threshold;
    return 0.0;
  };
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double tiny = std::numeric_limits<double>::denorm_min();
  const double thresholds[] = {0.0, -0.0, tiny, 0.75, 1.0, 3.0, 1e300, inf,
                               nan};
  for (const double t : thresholds) {
    const double values[] = {0.0,  -0.0, t,    -t,    std::nextafter(t, inf),
                             std::nextafter(t, -inf),  -std::nextafter(t, inf),
                             tiny, -tiny, 0.5,  -0.5,  2.0,
                             -2.0, 1e308, -1e308, inf, -inf, nan};
    for (const double v : values) {
      const double got = soft_threshold(v, t);
      const double want = branching(v, t);
      EXPECT_EQ(std::memcmp(&got, &want, sizeof(double)), 0)
          << "v=" << v << " t=" << t << " got " << got << " want " << want;
    }
  }
}

TEST(Prox, SoftThresholdVector) {
  const Vector v{3.0, -0.5, -4.0};
  const Vector out = soft_threshold(v, 1.0);
  EXPECT_EQ(out, (Vector{2.0, 0.0, -3.0}));
  EXPECT_THROW(soft_threshold(v, -1.0), std::invalid_argument);
}

TEST(Prox, L2BallInsideUntouched) {
  const Vector v{1.0, 0.0};
  const Vector c{0.5, 0.0};
  EXPECT_EQ(project_l2_ball(v, c, 1.0), v);
}

TEST(Prox, L2BallProjectsToSurface) {
  const Vector v{3.0, 4.0};
  const Vector c(2);
  const Vector p = project_l2_ball(v, c, 1.0);
  EXPECT_NEAR(linalg::norm2(p), 1.0, 1e-12);
  // Direction preserved.
  EXPECT_NEAR(p[0] / p[1], 3.0 / 4.0, 1e-12);
}

TEST(Prox, L2BallZeroRadiusReturnsCenter) {
  const Vector v{3.0, 4.0};
  const Vector c{1.0, 1.0};
  const Vector p = project_l2_ball(v, c, 0.0);
  EXPECT_NEAR(p[0], 1.0, 1e-12);
  EXPECT_NEAR(p[1], 1.0, 1e-12);
}

TEST(Prox, L2BallValidation) {
  EXPECT_THROW(project_l2_ball(Vector{1.0}, Vector{1.0, 2.0}, 1.0),
               std::invalid_argument);
  EXPECT_THROW(project_l2_ball(Vector{1.0}, Vector{1.0}, -1.0),
               std::invalid_argument);
}

TEST(Prox, BoxClamps) {
  const Vector v{-5.0, 0.5, 5.0};
  const Vector lo{0.0, 0.0, 0.0};
  const Vector hi{1.0, 1.0, 1.0};
  EXPECT_EQ(project_box(v, lo, hi), (Vector{0.0, 0.5, 1.0}));
}

TEST(Prox, BoxValidation) {
  EXPECT_THROW(project_box(Vector{1.0}, Vector{2.0}, Vector{1.0}),
               std::invalid_argument);
  EXPECT_THROW(project_box(Vector{1.0, 2.0}, Vector{0.0}, Vector{1.0}),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// PDHG (problem (1) and the normal-CS baseline).

TEST(Pdhg, OptionsValidation) {
  PdhgOptions bad;
  bad.max_iterations = 0;
  EXPECT_THROW(validate(bad), std::invalid_argument);
  bad = PdhgOptions{};
  bad.tol = 0.0;  // A relative duality gap of zero is never certified.
  EXPECT_THROW(validate(bad), std::invalid_argument);
}

TEST(Pdhg, DimensionValidation) {
  const Matrix a = gaussian_matrix(10, 32, 1);
  const auto phi = LinearOperator::from_matrix(a);
  const auto psi = LinearOperator::identity(32);
  EXPECT_THROW(solve_bpdn(phi, LinearOperator::identity(16), Vector(10), 0.1),
               std::invalid_argument);
  EXPECT_THROW(solve_bpdn(phi, psi, Vector(9), 0.1), std::invalid_argument);
  EXPECT_THROW(solve_bpdn(phi, psi, Vector(10), -1.0), std::invalid_argument);
  BoxConstraint box;
  box.lower = Vector(32, 1.0);
  box.upper = Vector(32, 0.0);  // Empty boxes.
  EXPECT_THROW(solve_bpdn(phi, psi, Vector(10), 0.1, box),
               std::invalid_argument);
}

TEST(Pdhg, RecoversSparseSignalNoiseless) {
  // Identity dictionary: x itself is sparse.
  const std::size_t n = 64;
  const std::size_t m = 32;
  const Matrix a = gaussian_matrix(m, n, 2);
  const Vector x_true = sparse_vector(n, 4, 3);
  const Vector y = linalg::multiply(a, x_true);
  PdhgOptions options;
  options.max_iterations = 5000;
  options.tol = 1e-9;
  const PdhgResult res = solve_bpdn(LinearOperator::from_matrix(a),
                                    LinearOperator::identity(n), y, 1e-8,
                                    std::nullopt, options);
  EXPECT_LT(linalg::norm2(res.x - x_true) / linalg::norm2(x_true), 1e-3);
}

TEST(Pdhg, ObjectiveNotWorseThanTruth) {
  // ℓ1 minimality: the solution's ℓ1 norm can't exceed the (feasible)
  // ground truth's by more than the tolerance slack.
  const std::size_t n = 64;
  const Matrix a = gaussian_matrix(24, n, 4);
  const Vector x_true = sparse_vector(n, 3, 5);
  const Vector y = linalg::multiply(a, x_true);
  PdhgOptions options;
  options.max_iterations = 4000;
  const PdhgResult res =
      solve_bpdn(LinearOperator::from_matrix(a), LinearOperator::identity(n),
                 y, 1e-6, std::nullopt, options);
  EXPECT_LE(res.objective, linalg::norm1(x_true) * (1.0 + 1e-2));
}

TEST(Pdhg, RespectsNoiseBall) {
  const std::size_t n = 64;
  const std::size_t m = 24;
  const Matrix a = gaussian_matrix(m, n, 6);
  const Vector x_true = sparse_vector(n, 3, 7);
  rng::Xoshiro256 gen(8);
  Vector y = linalg::multiply(a, x_true);
  for (auto& v : y) v += rng::normal(gen, 0.0, 0.01);
  const double sigma = 0.01 * std::sqrt(static_cast<double>(m)) * 1.5;
  PdhgOptions options;
  options.max_iterations = 3000;
  const PdhgResult res =
      solve_bpdn(LinearOperator::from_matrix(a), LinearOperator::identity(n),
                 y, sigma, std::nullopt, options);
  const double resid = linalg::norm2(linalg::multiply(a, res.x) - y);
  EXPECT_LE(resid, sigma * 1.02);
}

TEST(Pdhg, BoxConstraintHonored) {
  const std::size_t n = 64;
  const Matrix a = gaussian_matrix(16, n, 9);
  const Vector x_true = sparse_vector(n, 3, 10);
  const Vector y = linalg::multiply(a, x_true);
  BoxConstraint box;
  box.lower = Vector(n);
  box.upper = Vector(n);
  for (std::size_t i = 0; i < n; ++i) {
    box.lower[i] = x_true[i] - 0.05;
    box.upper[i] = x_true[i] + 0.05;
  }
  PdhgOptions options;
  options.max_iterations = 3000;
  const PdhgResult res =
      solve_bpdn(LinearOperator::from_matrix(a), LinearOperator::identity(n),
                 y, 1e-6, box, options);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_GE(res.x[i], box.lower[i] - 0.005);
    EXPECT_LE(res.x[i], box.upper[i] + 0.005);
  }
  // Inside a ±0.05 box the error can't exceed the box diagonal.
  EXPECT_LT(linalg::norm_inf(res.x - x_true), 0.06);
}

TEST(Pdhg, HybridBeatsNormalAtFewMeasurements) {
  // The paper's central claim in miniature: with very few measurements,
  // the box side-information rescues recovery while normal CS fails.
  const std::size_t n = 128;
  const std::size_t m = 10;  // Far below the s·log(n/s) requirement.
  const Matrix a = gaussian_matrix(m, n, 11);
  const Vector x_true = sparse_vector(n, 8, 12);
  const Vector y = linalg::multiply(a, x_true);

  PdhgOptions options;
  options.max_iterations = 3000;
  const PdhgResult normal =
      solve_bpdn(LinearOperator::from_matrix(a), LinearOperator::identity(n),
                 y, 1e-6, std::nullopt, options);

  BoxConstraint box;
  box.lower = Vector(n);
  box.upper = Vector(n);
  for (std::size_t i = 0; i < n; ++i) {
    box.lower[i] = x_true[i] - 0.2;
    box.upper[i] = x_true[i] + 0.2;
  }
  const PdhgResult hybrid =
      solve_bpdn(LinearOperator::from_matrix(a), LinearOperator::identity(n),
                 y, 1e-6, box, options);

  const double err_normal = linalg::norm2(normal.x - x_true);
  const double err_hybrid = linalg::norm2(hybrid.x - x_true);
  EXPECT_LT(err_hybrid, 0.5 * err_normal);
}

TEST(Pdhg, WorksWithNonIdentityDictionary) {
  // Random orthonormal dictionary via QR of a Gaussian matrix: x = Qα with
  // sparse α.
  const std::size_t n = 32;
  Matrix g = gaussian_matrix(n, n, 13, false);
  // Gram-Schmidt (small n, fine numerically for a test).
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t k = 0; k < j; ++k) {
      double proj = 0.0;
      for (std::size_t i = 0; i < n; ++i) proj += g(i, j) * g(i, k);
      for (std::size_t i = 0; i < n; ++i) g(i, j) -= proj * g(i, k);
    }
    double norm = 0.0;
    for (std::size_t i = 0; i < n; ++i) norm += g(i, j) * g(i, j);
    norm = std::sqrt(norm);
    for (std::size_t i = 0; i < n; ++i) g(i, j) /= norm;
  }
  const Vector alpha_true = sparse_vector(n, 3, 14);
  const Vector x_true = linalg::multiply(g, alpha_true);
  const Matrix a = gaussian_matrix(16, n, 15);
  const Vector y = linalg::multiply(a, x_true);
  PdhgOptions options;
  options.max_iterations = 5000;
  options.tol = 1e-9;
  const PdhgResult res =
      solve_bpdn(LinearOperator::from_matrix(a),
                 LinearOperator::from_matrix(g), y, 1e-8, std::nullopt,
                 options);
  EXPECT_LT(linalg::norm2(res.x - x_true) / linalg::norm2(x_true), 5e-3);
}

TEST(Pdhg, PhiNormHintGivesSameAnswer) {
  const std::size_t n = 64;
  const Matrix a = gaussian_matrix(24, n, 16);
  const Vector x_true = sparse_vector(n, 4, 17);
  const Vector y = linalg::multiply(a, x_true);
  PdhgOptions options;
  options.max_iterations = 2000;
  const PdhgResult base =
      solve_bpdn(LinearOperator::from_matrix(a), LinearOperator::identity(n),
                 y, 1e-6, std::nullopt, options);
  PdhgOptions hinted = options;
  hinted.phi_norm_hint =
      linalg::operator_norm_estimate(LinearOperator::from_matrix(a), 60);
  const PdhgResult with_hint =
      solve_bpdn(LinearOperator::from_matrix(a), LinearOperator::identity(n),
                 y, 1e-6, std::nullopt, hinted);
  EXPECT_LT(linalg::norm2(base.x - with_hint.x), 1e-6);
}

TEST(Pdhg, AppliesPhiOncePerIterationAndChecksTheCarriedProduct) {
  // Φx is carried across iterations (Φx̄ by linearity), so a solve costs
  // one forward product per iteration plus one for the start point, and
  // the feasibility check needs none of its own.
  const std::size_t n = 48;
  const Matrix a = gaussian_matrix(20, n, 20);
  const Vector y = linalg::multiply(a, sparse_vector(n, 4, 21));
  const LinearOperator inner = LinearOperator::from_matrix(a);
  int forward_calls = 0;
  int adjoint_calls = 0;
  const LinearOperator counted(
      a.rows(), a.cols(),
      [&](const Vector& x) {
        ++forward_calls;
        return inner.apply(x);
      },
      [&](const Vector& q) {
        ++adjoint_calls;
        return inner.apply_adjoint(q);
      },
      [&](const Vector& x, Vector& out) {
        ++forward_calls;
        inner.apply_into(x, out);
      },
      [&](const Vector& q, Vector& out) {
        ++adjoint_calls;
        inner.apply_adjoint_into(q, out);
      });
  PdhgOptions options;
  options.max_iterations = 57;
  options.phi_norm_hint = linalg::operator_norm_estimate(inner, 60);
  const double sigma = 1e-3;
  const PdhgResult res = solve_bpdn(counted, LinearOperator::identity(n), y,
                                    sigma, std::nullopt, options);
  ASSERT_EQ(res.iterations, 57);
  EXPECT_EQ(forward_calls, res.iterations + 1);
  EXPECT_EQ(adjoint_calls, res.iterations);
  // The last check ran at the final iterate and read the carried Φx.
  const double direct = std::max(
      0.0, linalg::norm2(linalg::multiply(a, res.x) - y) - sigma);
  EXPECT_NEAR(res.ball_violation, direct, 1e-9 * linalg::norm2(y));
}

TEST(Pdhg, ReportsViolationsOnTinyBudget) {
  const std::size_t n = 32;
  const Matrix a = gaussian_matrix(16, n, 18);
  const Vector y = linalg::multiply(a, sparse_vector(n, 4, 19));
  PdhgOptions options;
  options.max_iterations = 3;  // Deliberately unconverged.
  const PdhgResult res =
      solve_bpdn(LinearOperator::from_matrix(a), LinearOperator::identity(n),
                 y, 1e-9, std::nullopt, options);
  EXPECT_FALSE(res.converged);
  EXPECT_EQ(res.iterations, 3);
  EXPECT_GT(res.ball_violation, 0.0);
  EXPECT_GT(res.gap, options.tol);  // No false certificate either.
}

/// A boxed problem with a sparse truth: Gaussian Φ, a ±0.05 box around
/// x_true and the noiseless measurements, every part multiplied by `scale`.
struct BoxedProblem {
  Matrix a;
  Vector y;
  double sigma = 0.0;
  BoxConstraint box;
};

BoxedProblem boxed_problem(double scale) {
  const std::size_t n = 128;
  BoxedProblem p;
  p.a = gaussian_matrix(32, n, 30);
  const Vector x_true = sparse_vector(n, 6, 31);
  p.y = linalg::multiply(p.a, x_true) * scale;
  p.sigma = 1e-2 * scale;
  p.box.lower = Vector(n);
  p.box.upper = Vector(n);
  for (std::size_t i = 0; i < n; ++i) {
    p.box.lower[i] = (x_true[i] - 0.05) * scale;
    p.box.upper[i] = (x_true[i] + 0.05) * scale;
  }
  return p;
}

TEST(Pdhg, CertifiesWithinToleranceUnderTheDefaultCap) {
  const BoxedProblem p = boxed_problem(1.0);
  const PdhgOptions options;
  const PdhgResult res =
      solve_bpdn(LinearOperator::from_matrix(p.a),
                 LinearOperator::identity(128), p.y, p.sigma, p.box, options);
  ASSERT_TRUE(res.converged);
  EXPECT_LT(res.iterations, options.max_iterations);
  EXPECT_LE(res.gap, options.tol);
  EXPECT_LE(res.ball_violation, options.feasibility_tol * p.sigma);
  EXPECT_LE(res.box_violation, options.feasibility_tol * 0.1);
}

TEST(Pdhg, IterationCountIsScaleInvariant) {
  // Multiplying y, σ and the box by 10³ multiplies the solution by 10³ and
  // leaves the dual alone; the adaptive primal weight absorbs that, so the
  // iteration count barely moves.  A fixed primal/dual step ratio would not.
  const BoxedProblem unit = boxed_problem(1.0);
  const BoxedProblem big = boxed_problem(1e3);
  const auto phi = LinearOperator::from_matrix(unit.a);
  const auto psi = LinearOperator::identity(128);
  const PdhgResult a = solve_bpdn(phi, psi, unit.y, unit.sigma, unit.box);
  const PdhgResult b = solve_bpdn(phi, psi, big.y, big.sigma, big.box);
  ASSERT_TRUE(a.converged);
  ASSERT_TRUE(b.converged);
  EXPECT_LE(std::abs(a.iterations - b.iterations), a.iterations / 10)
      << a.iterations << " vs " << b.iterations;
  EXPECT_LT(linalg::norm2(b.x * 1e-3 - a.x), 1e-2 * linalg::norm2(a.x));
}

TEST(Pdhg, ZeroWeightsDoNotCertifyEarly) {
  // Without a box, a zero weight leaves its coefficient free, so the dual
  // bound is only valid where the dual is exactly zero there.  Dividing by
  // the zero weight must not produce a bound (NaN, or a finite scale) that
  // certifies an unconverged iterate: under the default cap, where the
  // unit-weight problem certifies, the zero-weight solve must not, because
  // its dual is never exactly zero on the free coefficients.  (With a box
  // there is a valid bound; see ZeroWeightsCertifyOnlyOnAValidBoxBound.)
  const BoxedProblem p = boxed_problem(1.0);
  const auto phi = LinearOperator::from_matrix(p.a);
  const auto psi = LinearOperator::identity(128);
  PdhgOptions options;
  options.coefficient_weights = Vector(128, 1.0);
  const PdhgResult unit =
      solve_bpdn(phi, psi, p.y, p.sigma, std::nullopt, options);
  ASSERT_TRUE(unit.converged);
  for (std::size_t i = 0; i < 128; i += 4) {
    options.coefficient_weights[i] = 0.0;
  }
  const PdhgResult zero =
      solve_bpdn(phi, psi, p.y, p.sigma, std::nullopt, options);
  EXPECT_FALSE(zero.converged);
  EXPECT_EQ(zero.iterations, options.max_iterations);
  EXPECT_GT(zero.gap, options.tol);
}

TEST(Pdhg, ZeroWeightsWithABoxCertifyAtTightTolerance) {
  // With a box, zero weights leave a valid bound (see
  // ZeroWeightsCertifyOnlyOnAValidBoxBound), so a tight solve must reach
  // it.  Without restarts this one cycles: ω freezes and the iterate stays
  // 10⁻⁴ off the ball at every cap.
  const BoxedProblem p = boxed_problem(1.0);
  PdhgOptions options;
  options.tol = 1e-9;
  options.feasibility_tol = 1e-9;
  options.max_iterations = 20000;
  options.coefficient_weights = Vector(128, 1.0);
  for (std::size_t i = 0; i < 128; i += 4) {
    options.coefficient_weights[i] = 0.0;
  }
  const PdhgResult res =
      solve_bpdn(LinearOperator::from_matrix(p.a),
                 LinearOperator::identity(128), p.y, p.sigma, p.box, options);
  EXPECT_TRUE(res.converged) << "gap " << res.gap << ", ball "
                             << res.ball_violation << ", box "
                             << res.box_violation;
  EXPECT_LT(res.iterations, options.max_iterations);
  EXPECT_LE(res.gap, options.tol);
}

/// Σ wᵢ|xᵢ| (Ψ = I), with w ≡ 1 when `weights` is empty.
double weighted_l1(const Vector& x, const Vector& weights) {
  double sum = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    sum += (weights.empty() ? 1.0 : weights[i]) * std::abs(x[i]);
  }
  return sum;
}

/// The dual bound a result vouches for: its gap is |P − D|/max(|P|, |D|)
/// at the exit iterate, so D = P(1 − gap) when D ≤ P (and D is larger
/// than that when D > P, which is still no larger than a valid bound).
double implied_bound(const PdhgResult& res, const Vector& weights) {
  return weighted_l1(res.x, weights) * (1.0 - res.gap);
}

/// An upper bound on a boxed problem's weighted optimum, within a few 10⁻⁴
/// of it: the weighted objective of a long, tight (tol = feasibility_tol =
/// 10⁻⁹) solve on a strictly smaller set — σ shrunk by 5%, each cell by
/// 10⁻⁴ of its width at both ends — whose iterate must then meet the
/// original constraints exactly.  Every x that does bounds the optimum from
/// above, whether or not the solve certified (with zero weights it stalls
/// near a 10⁻⁴ gap).
double optimum_upper_bound(const BoxedProblem& p, const Vector& weights) {
  BoxConstraint inner = p.box;
  for (std::size_t i = 0; i < inner.lower.size(); ++i) {
    const double margin = 1e-4 * (inner.upper[i] - inner.lower[i]);
    inner.lower[i] += margin;
    inner.upper[i] -= margin;
  }
  PdhgOptions tight;
  tight.tol = 1e-9;
  tight.feasibility_tol = 1e-9;
  tight.max_iterations = 20000;
  tight.coefficient_weights = weights;
  const PdhgResult ref = solve_bpdn(LinearOperator::from_matrix(p.a),
                                    LinearOperator::identity(128), p.y,
                                    0.95 * p.sigma, inner, tight);
  EXPECT_LE(linalg::norm2(linalg::multiply(p.a, ref.x) - p.y), p.sigma);
  for (std::size_t i = 0; i < ref.x.size(); ++i) {
    EXPECT_GE(ref.x[i], p.box.lower[i]) << "sample " << i;
    EXPECT_LE(ref.x[i], p.box.upper[i]) << "sample " << i;
  }
  return weighted_l1(ref.x, weights);
}

TEST(Pdhg, ZeroWeightsCertifyOnlyOnAValidBoxBound) {
  // With a box, a zero weight still forces its coefficient's ℓ1 dual to
  // zero, and the Lagrangian bound over the box stays valid, so the
  // zero-weight solve may certify.  What it certifies must be a lower
  // bound: the bound behind the returned (P, gap) cannot exceed the
  // weighted optimum.
  const BoxedProblem p = boxed_problem(1.0);
  PdhgOptions options;
  options.coefficient_weights = Vector(128, 1.0);
  for (std::size_t i = 0; i < 128; i += 4) {
    options.coefficient_weights[i] = 0.0;
  }
  const PdhgResult res =
      solve_bpdn(LinearOperator::from_matrix(p.a),
                 LinearOperator::identity(128), p.y, p.sigma, p.box, options);
  EXPECT_TRUE(res.converged);
  EXPECT_LE(implied_bound(res, options.coefficient_weights),
            optimum_upper_bound(p, options.coefficient_weights) *
                (1.0 + 1e-9));
}

TEST(Pdhg, BoxAwareBoundNeverExceedsTheOptimum) {
  // At any cap, the exit check's bound — the better of the scaled and the
  // box-aware one — lies below the optimum, on unit weights, on 1/4 zero
  // weights and on the problem scaled by 10³.  The reference is a feasible
  // point, so the 10⁻⁹ relative slack only covers rounding.
  Vector quarter_zero(128, 1.0);
  for (std::size_t i = 0; i < 128; i += 4) quarter_zero[i] = 0.0;
  struct Case {
    double scale;
    Vector weights;
  };
  const Case cases[] = {{1.0, {}}, {1.0, quarter_zero}, {1e3, {}}};
  for (const Case& c : cases) {
    const BoxedProblem p = boxed_problem(c.scale);
    const double optimum = optimum_upper_bound(p, c.weights);
    for (const int cap : {10, 20, 50, 100, 200, 400}) {
      PdhgOptions options;
      options.max_iterations = cap;
      options.coefficient_weights = c.weights;
      const PdhgResult res = solve_bpdn(
          LinearOperator::from_matrix(p.a), LinearOperator::identity(128),
          p.y, p.sigma, p.box, options);
      EXPECT_LE(implied_bound(res, c.weights), optimum * (1.0 + 1e-9))
          << "scale " << c.scale << ", cap " << cap << ", gap " << res.gap;
    }
  }
}

TEST(Pdhg, CertificateDoesNotMoveTheIterates) {
  // The certificate only reads the iterate: a solve that runs past every
  // check (tol = 10⁻¹²) to the iteration where the default solve stopped
  // ends at exactly the same x.
  const BoxedProblem p = boxed_problem(1.0);
  const auto phi = LinearOperator::from_matrix(p.a);
  const auto psi = LinearOperator::identity(128);
  const PdhgResult stopped = solve_bpdn(phi, psi, p.y, p.sigma, p.box);
  ASSERT_TRUE(stopped.converged);
  PdhgOptions uncertifiable;
  uncertifiable.tol = 1e-12;
  uncertifiable.max_iterations = stopped.iterations;
  const PdhgResult capped =
      solve_bpdn(phi, psi, p.y, p.sigma, p.box, uncertifiable);
  ASSERT_FALSE(capped.converged);
  ASSERT_EQ(capped.iterations, stopped.iterations);
  ASSERT_EQ(capped.x.size(), stopped.x.size());
  EXPECT_EQ(std::memcmp(capped.x.data(), stopped.x.data(),
                        stopped.x.size() * sizeof(double)),
            0);
}

/// boxed_problem(1.0) with a loose ball (σ = 0.3), so the box binds at the
/// optimum and iterates that meet the ball stray outside the box.
BoxedProblem binding_box_problem() {
  BoxedProblem p = boxed_problem(1.0);
  p.sigma = 0.3;
  return p;
}

/// `inner`, counting its forward products in `calls`.
LinearOperator counting_phi(const LinearOperator& inner, int& calls) {
  return LinearOperator(
      inner.rows(), inner.cols(),
      [&inner, &calls](const Vector& x) {
        ++calls;
        return inner.apply(x);
      },
      [&inner](const Vector& q) { return inner.apply_adjoint(q); },
      [&inner, &calls](const Vector& x, Vector& out) {
        ++calls;
        inner.apply_into(x, out);
      },
      [&inner](const Vector& q, Vector& out) {
        inner.apply_adjoint_into(q, out);
      });
}

// The solver's projection cadence (kCheckEvery in pdhg.cpp).
constexpr int kProjectEvery = 10;

TEST(Pdhg, CertifiedBoxProjectionIsReturnedExactly) {
  // When the iterate meets the ball but not the box, the solve certifies
  // clamp(x, l, u) instead.  What it returns is then that point: inside the
  // box exactly, with every reported figure recomputed from it.
  const BoxedProblem p = binding_box_problem();
  const auto phi = LinearOperator::from_matrix(p.a);
  const auto psi = LinearOperator::identity(128);
  const PdhgResult res = solve_bpdn(phi, psi, p.y, p.sigma, p.box);
  ASSERT_TRUE(res.converged);
  // The stop was at a projection: on the cadence, and the iterate itself,
  // from an uncertifiable solve capped there, lies outside the box.
  EXPECT_EQ(res.iterations % kProjectEvery, 0);
  PdhgOptions uncertifiable;
  uncertifiable.tol = 1e-12;
  uncertifiable.max_iterations = res.iterations;
  const PdhgResult iterate =
      solve_bpdn(phi, psi, p.y, p.sigma, p.box, uncertifiable);
  ASSERT_GT(iterate.box_violation, 0.0);

  for (std::size_t i = 0; i < res.x.size(); ++i) {
    EXPECT_GE(res.x[i], p.box.lower[i]) << "sample " << i;
    EXPECT_LE(res.x[i], p.box.upper[i]) << "sample " << i;
  }
  EXPECT_EQ(res.box_violation, 0.0);
  const double ball = std::max(
      0.0, linalg::norm2(linalg::multiply(p.a, res.x) - p.y) - p.sigma);
  EXPECT_NEAR(res.ball_violation, ball, 1e-12 * linalg::norm2(p.y));
  EXPECT_NEAR(res.objective, linalg::norm1(res.x), 1e-12 * res.objective);
  EXPECT_LE(res.gap, PdhgOptions{}.tol);
}

TEST(Pdhg, StopsAtTheFirstCertifiedIterate) {
  // Every iterate that passes the certificate is checked: capped one
  // iteration short of where it stopped, a solve ends uncertified — with a
  // box (stopping at the iterate, and at its projection) and without.
  struct Case {
    BoxedProblem problem;
    bool boxed;
  };
  const Case cases[] = {{boxed_problem(1.0), true},
                        {binding_box_problem(), true},
                        {boxed_problem(1.0), false}};
  for (const Case& c : cases) {
    const BoxedProblem& p = c.problem;
    const auto phi = LinearOperator::from_matrix(p.a);
    const auto psi = LinearOperator::identity(128);
    const std::optional<BoxConstraint> box =
        c.boxed ? std::optional<BoxConstraint>(p.box) : std::nullopt;
    const PdhgResult stopped = solve_bpdn(phi, psi, p.y, p.sigma, box);
    ASSERT_TRUE(stopped.converged) << "sigma " << p.sigma;
    ASSERT_GT(stopped.iterations, 0);
    PdhgOptions short_cap;
    short_cap.max_iterations = stopped.iterations - 1;
    const PdhgResult capped = solve_bpdn(phi, psi, p.y, p.sigma, box,
                                         short_cap);
    EXPECT_FALSE(capped.converged)
        << "sigma " << p.sigma << ", boxed " << c.boxed << ": certified at "
        << capped.iterations << ", stopped at " << stopped.iterations;
  }
}

TEST(Pdhg, ProjectsOnlyOnTheCadenceAndNeverAtTheCap) {
  // Each projection applies Φ once.  On an uncertifiable solve, one more
  // iteration adds one Φ product, plus one when the iteration it passes
  // (the old cap) is on the cadence and tries a projection: none off the
  // cadence, none at the cap itself, and some on it.
  const BoxedProblem p = binding_box_problem();
  const auto inner = LinearOperator::from_matrix(p.a);
  const auto psi = LinearOperator::identity(128);
  PdhgOptions options;
  options.tol = 1e-12;
  options.phi_norm_hint = linalg::operator_norm_estimate(inner, 60);
  const auto phi_calls = [&](int cap) {
    int calls = 0;
    options.max_iterations = cap;
    const PdhgResult res = solve_bpdn(counting_phi(inner, calls), psi, p.y,
                                      p.sigma, p.box, options);
    EXPECT_EQ(res.iterations, cap);
    return calls;
  };
  int projections = 0;
  int previous = phi_calls(1);
  EXPECT_EQ(previous, 2);
  for (int cap = 1; cap < 120; ++cap) {
    const int calls = phi_calls(cap + 1);
    if (cap % kProjectEvery != 0) {
      EXPECT_EQ(calls - previous, 1) << "cap " << cap;
    } else {
      EXPECT_GE(calls - previous, 1) << "cap " << cap;
      EXPECT_LE(calls - previous, 2) << "cap " << cap;
      projections += calls - previous - 1;
    }
    previous = calls;
  }
  EXPECT_GT(projections, 0);
}

TEST(Pdhg, BoxedSolvePaysOnePhiProductPerProjectionAtMost) {
  // A boxed solve applies Φ once per iteration, once at the start and at
  // most once per projection attempt, so at most ⌊iterations/10⌋ more.
  for (const BoxedProblem& p : {boxed_problem(1.0), binding_box_problem()}) {
    const auto inner = LinearOperator::from_matrix(p.a);
    PdhgOptions options;
    options.phi_norm_hint = linalg::operator_norm_estimate(inner, 60);
    int calls = 0;
    const PdhgResult res =
        solve_bpdn(counting_phi(inner, calls), LinearOperator::identity(128),
                   p.y, p.sigma, p.box, options);
    ASSERT_TRUE(res.converged);
    EXPECT_GE(calls, res.iterations + 1) << "sigma " << p.sigma;
    EXPECT_LE(calls, res.iterations + 1 + res.iterations / kProjectEvery)
        << "sigma " << p.sigma;
  }
}

// ---------------------------------------------------------------------------
// FISTA & ADMM.

TEST(Fista, OptionsValidation) {
  FistaOptions bad;
  bad.max_iterations = 0;
  EXPECT_THROW(validate(bad), std::invalid_argument);
}

TEST(Fista, RecoversSparseSignal) {
  const std::size_t n = 128;
  const Matrix a = gaussian_matrix(48, n, 20);
  const Vector alpha_true = sparse_vector(n, 5, 21);
  const Vector y = linalg::multiply(a, alpha_true);
  FistaOptions options;
  options.max_iterations = 2000;
  const FistaResult res =
      solve_lasso_fista(LinearOperator::from_matrix(a), y, 1e-4, options);
  EXPECT_LT(linalg::norm2(res.coefficients - alpha_true) /
                linalg::norm2(alpha_true),
            0.02);
}

TEST(Fista, LambdaControlsSparsity) {
  const std::size_t n = 128;
  const Matrix a = gaussian_matrix(48, n, 22);
  rng::Xoshiro256 gen(220);
  Vector y = linalg::multiply(a, sparse_vector(n, 5, 23));
  // Noise makes the small-λ solution overfit with a dense support.
  for (auto& v : y) v += rng::normal(gen, 0.0, 0.05);
  const auto op = LinearOperator::from_matrix(a);
  FistaOptions options;
  options.max_iterations = 1000;
  const FistaResult loose = solve_lasso_fista(op, y, 1e-3, options);
  const FistaResult tight = solve_lasso_fista(op, y, 0.5, options);
  EXPECT_LT(linalg::count_above(tight.coefficients, 1e-8),
            linalg::count_above(loose.coefficients, 1e-8));
}

TEST(Fista, RejectsBadLambdaAndDims) {
  const Matrix a = gaussian_matrix(8, 16, 24);
  const auto op = LinearOperator::from_matrix(a);
  EXPECT_THROW(solve_lasso_fista(op, Vector(8), 0.0), std::invalid_argument);
  EXPECT_THROW(solve_lasso_fista(op, Vector(7), 0.1), std::invalid_argument);
}

TEST(Admm, OptionsValidation) {
  AdmmOptions bad;
  bad.rho = 0.0;
  EXPECT_THROW(validate(bad), std::invalid_argument);
}

TEST(Admm, MatchesFistaOptimum) {
  // Same LASSO, two solvers, one optimum.
  const std::size_t n = 96;
  const Matrix a = gaussian_matrix(32, n, 25);
  const Vector y = linalg::multiply(a, sparse_vector(n, 4, 26));
  const double lambda = 0.01;
  FistaOptions fista_options;
  fista_options.max_iterations = 4000;
  fista_options.tol = 1e-12;
  AdmmOptions admm_options;
  admm_options.max_iterations = 4000;
  admm_options.abs_tol = 1e-10;
  admm_options.rel_tol = 1e-9;
  const FistaResult f = solve_lasso_fista(LinearOperator::from_matrix(a), y,
                                          lambda, fista_options);
  const AdmmResult ad = solve_lasso_admm(a, y, lambda, admm_options);
  EXPECT_NEAR(f.objective, ad.objective,
              1e-4 * std::max(1.0, f.objective));
}

TEST(Admm, RejectsTallMatrix) {
  const Matrix a = gaussian_matrix(16, 16, 27);
  EXPECT_NO_THROW(solve_lasso_admm(a, Vector(16), 0.1));
  const Matrix tall = gaussian_matrix(20, 16, 28);
  (void)tall;
  Matrix t2(20, 16);
  EXPECT_THROW(solve_lasso_admm(t2, Vector(20), 0.1), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Greedy pursuit.

TEST(Greedy, OptionsValidation) {
  GreedyOptions bad;
  bad.max_sparsity = 0;
  EXPECT_THROW(validate(bad), std::invalid_argument);
}

TEST(Omp, ExactRecoveryWellConditioned) {
  const std::size_t n = 256;
  const std::size_t m = 64;
  const Matrix a = gaussian_matrix(m, n, 29);
  const Vector x_true = sparse_vector(n, 8, 30);
  const Vector y = linalg::multiply(a, x_true);
  GreedyOptions options;
  options.max_sparsity = 8;
  const GreedyResult res = solve_omp(a, y, options);
  EXPECT_TRUE(res.converged);
  EXPECT_LT(linalg::norm2(res.coefficients - x_true) /
                linalg::norm2(x_true),
            1e-8);
}

TEST(Omp, SupportSizeBounded) {
  const Matrix a = gaussian_matrix(32, 128, 31);
  const Vector y = linalg::multiply(a, sparse_vector(128, 20, 32));
  GreedyOptions options;
  options.max_sparsity = 5;
  const GreedyResult res = solve_omp(a, y, options);
  EXPECT_LE(res.support.size(), 5u);
  EXPECT_FALSE(res.converged);  // 20-sparse can't be fit with 5 atoms.
}

TEST(Omp, ZeroMeasurementVector) {
  const Matrix a = gaussian_matrix(16, 64, 33);
  GreedyOptions options;
  options.max_sparsity = 8;
  const GreedyResult res = solve_omp(a, Vector(16), options);
  EXPECT_TRUE(res.support.empty());
  EXPECT_EQ(linalg::norm2(res.coefficients), 0.0);
}

TEST(Omp, Validation) {
  const Matrix a = gaussian_matrix(16, 64, 34);
  EXPECT_THROW(solve_omp(a, Vector(15)), std::invalid_argument);
  GreedyOptions options;
  options.max_sparsity = 17;  // > m.
  EXPECT_THROW(solve_omp(a, Vector(16), options), std::invalid_argument);
}

TEST(CoSaMp, ExactRecoveryWellConditioned) {
  const std::size_t n = 256;
  const std::size_t m = 96;
  const Matrix a = gaussian_matrix(m, n, 35);
  const Vector x_true = sparse_vector(n, 8, 36);
  const Vector y = linalg::multiply(a, x_true);
  GreedyOptions options;
  options.max_sparsity = 8;
  const GreedyResult res = solve_cosamp(a, y, options);
  EXPECT_TRUE(res.converged);
  EXPECT_LT(linalg::norm2(res.coefficients - x_true) /
                linalg::norm2(x_true),
            1e-6);
}

TEST(CoSaMp, NoisyMeasurementsBoundedResidual) {
  const std::size_t n = 128;
  const std::size_t m = 64;
  const Matrix a = gaussian_matrix(m, n, 37);
  const Vector x_true = sparse_vector(n, 6, 38);
  rng::Xoshiro256 gen(39);
  Vector y = linalg::multiply(a, x_true);
  for (auto& v : y) v += rng::normal(gen, 0.0, 0.01);
  GreedyOptions options;
  options.max_sparsity = 6;
  options.residual_tol = 0.0;  // Run to stagnation.
  const GreedyResult res = solve_cosamp(a, y, options);
  EXPECT_LT(res.residual_norm, 0.05 * linalg::norm2(y));
}

TEST(CoSaMp, SupportExactlyK) {
  const Matrix a = gaussian_matrix(64, 128, 40);
  const Vector y = linalg::multiply(a, sparse_vector(128, 8, 41));
  GreedyOptions options;
  options.max_sparsity = 8;
  const GreedyResult res = solve_cosamp(a, y, options);
  EXPECT_LE(res.support.size(), 8u);
}

}  // namespace
}  // namespace csecg::recovery
