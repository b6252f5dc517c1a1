#include "csecg/linalg/operator.hpp"

#include <cmath>
#include <cstdint>
#include <memory>
#include <utility>

#include "csecg/common/check.hpp"

namespace csecg::linalg {

LinearOperator::LinearOperator(std::size_t rows, std::size_t cols,
                               Apply forward, Apply adjoint,
                               ApplyInto forward_into, ApplyInto adjoint_into)
    : rows_(rows),
      cols_(cols),
      forward_(std::move(forward)),
      adjoint_(std::move(adjoint)),
      forward_into_(std::move(forward_into)),
      adjoint_into_(std::move(adjoint_into)) {
  CSECG_CHECK(rows_ > 0 && cols_ > 0, "LinearOperator needs positive dims");
  CSECG_CHECK(forward_ && adjoint_, "LinearOperator needs both callables");
  CSECG_CHECK(forward_into_ && adjoint_into_,
              "LinearOperator needs both destination callables");
}

namespace {

/// Wraps one shared copy of a matrix form (Matrix or SignMatrix) in all
/// four callables, through its multiply_into/multiply_transpose_into.
template <typename M>
LinearOperator share(M a) {
  const auto shared = std::make_shared<const M>(std::move(a));
  return LinearOperator(
      shared->rows(), shared->cols(),
      [shared](const Vector& x) {
        Vector y;
        multiply_into(*shared, x, y);
        return y;
      },
      [shared](const Vector& y) {
        Vector x;
        multiply_transpose_into(*shared, y, x);
        return x;
      },
      [shared](const Vector& x, Vector& y) { multiply_into(*shared, x, y); },
      [shared](const Vector& y, Vector& x) {
        multiply_transpose_into(*shared, y, x);
      });
}

}  // namespace

LinearOperator LinearOperator::from_matrix(const Matrix& a) {
  CSECG_CHECK(a.rows() > 0 && a.cols() > 0, "from_matrix: empty matrix");
  // ±w_j columns (the RMPI chip matrix, with or without leakage) take the
  // sign-table kernels; every other matrix keeps the dense gemv.
  if (auto signs = SignMatrix::from_dense(a)) {
    return from_signs(std::move(*signs));
  }
  return share(a);
}

LinearOperator LinearOperator::from_signs(SignMatrix a) {
  return share(std::move(a));
}

LinearOperator LinearOperator::identity(std::size_t n) {
  auto id = [](const Vector& x) { return x; };
  auto id_into = [](const Vector& x, Vector& y) { y = x; };
  return LinearOperator(n, n, id, id, id_into, id_into);
}

LinearOperator LinearOperator::compose(const LinearOperator& other) const {
  CSECG_CHECK(cols() == other.rows(),
              "compose dimension mismatch: " << cols() << " vs "
                                             << other.rows());
  const LinearOperator outer = *this;
  const LinearOperator inner = other;
  return LinearOperator(
      outer.rows(), inner.cols(),
      [outer, inner](const Vector& x) { return outer.apply(inner.apply(x)); },
      [outer, inner](const Vector& y) {
        return inner.apply_adjoint(outer.apply_adjoint(y));
      },
      [outer, inner](const Vector& x, Vector& y) {
        Vector mid;
        inner.apply_into(x, mid);
        outer.apply_into(mid, y);
      },
      [outer, inner](const Vector& y, Vector& x) {
        Vector mid;
        outer.apply_adjoint_into(y, mid);
        inner.apply_adjoint_into(mid, x);
      });
}

Vector LinearOperator::apply(const Vector& x) const {
  CSECG_CHECK(forward_, "LinearOperator::apply on empty operator");
  CSECG_CHECK(x.size() == cols_, "apply dimension mismatch: expected "
                                     << cols_ << ", got " << x.size());
  return forward_(x);
}

Vector LinearOperator::apply_adjoint(const Vector& y) const {
  CSECG_CHECK(adjoint_, "LinearOperator::apply_adjoint on empty operator");
  CSECG_CHECK(y.size() == rows_, "apply_adjoint dimension mismatch: expected "
                                     << rows_ << ", got " << y.size());
  return adjoint_(y);
}

void LinearOperator::apply_into(const Vector& x, Vector& y) const {
  CSECG_CHECK(forward_, "LinearOperator::apply_into on empty operator");
  CSECG_CHECK(x.size() == cols_, "apply_into dimension mismatch: expected "
                                     << cols_ << ", got " << x.size());
  y.resize(rows_);
  forward_into_(x, y);
}

void LinearOperator::apply_adjoint_into(const Vector& y, Vector& x) const {
  CSECG_CHECK(adjoint_, "LinearOperator::apply_adjoint_into on empty operator");
  CSECG_CHECK(y.size() == rows_,
              "apply_adjoint_into dimension mismatch: expected "
                  << rows_ << ", got " << y.size());
  x.resize(cols_);
  adjoint_into_(y, x);
}

double operator_norm_estimate(const LinearOperator& op, int iterations) {
  CSECG_CHECK(iterations > 0, "operator_norm_estimate needs iterations > 0");
  // Deterministic quasi-random start vector.
  Vector v(op.cols());
  std::uint64_t s = 0x853C49E6748FEA9BULL;
  for (std::size_t i = 0; i < v.size(); ++i) {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    v[i] = static_cast<double>(s >> 40) / 16777216.0 - 0.5;
  }
  double nv = norm2(v);
  if (nv == 0.0) {
    v[0] = 1.0;
    nv = 1.0;
  }
  v *= 1.0 / nv;
  double sigma = 0.0;
  for (int it = 0; it < iterations; ++it) {
    Vector w = op.apply_adjoint(op.apply(v));
    const double nw = norm2(w);
    if (nw == 0.0) return 0.0;
    sigma = std::sqrt(nw);
    w *= 1.0 / nw;
    v = w;
  }
  return sigma;
}

double adjoint_mismatch(const LinearOperator& op, int probes,
                        unsigned long long seed) {
  CSECG_CHECK(probes > 0, "adjoint_mismatch needs probes > 0");
  std::uint64_t s = seed ^ 0x2545F4914F6CDD1DULL;
  auto next_unit = [&s]() {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return static_cast<double>(s >> 11) * 0x1.0p-53 - 0.5;
  };
  double worst = 0.0;
  for (int p = 0; p < probes; ++p) {
    Vector x(op.cols());
    Vector y(op.rows());
    for (auto& v : x) v = next_unit();
    for (auto& v : y) v = next_unit();
    const double lhs = dot(op.apply(x), y);
    const double rhs = dot(x, op.apply_adjoint(y));
    const double scale =
        std::max({std::abs(lhs), std::abs(rhs), 1e-12});
    worst = std::max(worst, std::abs(lhs - rhs) / scale);
  }
  return worst;
}

}  // namespace csecg::linalg
