// Matrix-free linear operators.
//
// The recovery solvers only ever need y = K·x and x = Kᵀ·y products, so
// they are written against LinearOperator; a dense Matrix, the RMPI sign
// matrix, a composition, or a fast wavelet transform all plug in
// uniformly.
#pragma once

#include <cstddef>
#include <functional>

#include "csecg/linalg/matrix.hpp"
#include "csecg/linalg/sign_matrix.hpp"
#include "csecg/linalg/vector.hpp"

namespace csecg::linalg {

/// A linear map R^cols → R^rows given by callables for K and Kᵀ.
class LinearOperator {
 public:
  using Apply = std::function<Vector(const Vector&)>;
  /// Destination-passing form: writes the product into a caller-owned
  /// vector (already sized correctly) without allocating.
  using ApplyInto = std::function<void(const Vector&, Vector&)>;

  LinearOperator() = default;

  /// Wraps forward/adjoint callables with explicit dimensions, plus
  /// their allocation-free destination variants.  The *_into callables
  /// must compute the same products as their allocating counterparts;
  /// solvers pick whichever is cheaper.
  LinearOperator(std::size_t rows, std::size_t cols, Apply forward,
                 Apply adjoint, ApplyInto forward_into,
                 ApplyInto adjoint_into);

  /// Wraps a matrix (copies it).  When every column j holds only ±w_j
  /// (w_j finite, > 0), as the RMPI chip matrix does, the products run on
  /// the sign-table kernels of SignMatrix; any other matrix keeps the
  /// dense gemv, bit for bit.
  static LinearOperator from_matrix(const Matrix& a);

  /// Wraps a sign-form matrix: the operator from_matrix builds for any
  /// dense matrix whose sign form `a` is.
  static LinearOperator from_signs(SignMatrix a);

  /// Identity operator of order n.
  static LinearOperator identity(std::size_t n);

  /// Composition this∘other, i.e. x ↦ this(other(x)).
  LinearOperator compose(const LinearOperator& other) const;

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }

  /// K·x.  Validates the input dimension.
  Vector apply(const Vector& x) const;

  /// Kᵀ·y.  Validates the input dimension.
  Vector apply_adjoint(const Vector& y) const;

  /// y ← K·x into a caller-owned vector (resized to rows()) through the
  /// destination callable (allocation-free for from_matrix operators).
  /// `x` and `y` must not alias.
  void apply_into(const Vector& x, Vector& y) const;

  /// x ← Kᵀ·y into a caller-owned vector (resized to cols()); same
  /// contract as apply_into.
  void apply_adjoint_into(const Vector& y, Vector& x) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  Apply forward_;
  Apply adjoint_;
  ApplyInto forward_into_;
  ApplyInto adjoint_into_;
};

/// Estimates the operator norm ‖K‖₂ (largest singular value) by power
/// iteration on KᵀK.  Deterministic given the fixed internal start vector.
/// `iterations` caps the work; 50 is plenty for the step-size safety use.
double operator_norm_estimate(const LinearOperator& op, int iterations = 50);

/// Checks ⟨K·x, y⟩ == ⟨x, Kᵀ·y⟩ on random probes; returns the largest
/// relative mismatch.  Used by tests to validate hand-written adjoints.
double adjoint_mismatch(const LinearOperator& op, int probes = 5,
                        unsigned long long seed = 42);

}  // namespace csecg::linalg
