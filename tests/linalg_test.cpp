// Unit tests for csecg::linalg — vectors, matrices, factorizations,
// operators.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "csecg/linalg/matrix.hpp"
#include "csecg/linalg/operator.hpp"
#include "csecg/linalg/sign_matrix.hpp"
#include "csecg/linalg/solve.hpp"
#include "csecg/linalg/vector.hpp"
#include "csecg/parallel/thread_pool.hpp"
#include "csecg/rng/distributions.hpp"
#include "csecg/rng/xoshiro.hpp"

namespace csecg::linalg {
namespace {

Matrix random_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  rng::Xoshiro256 g(seed);
  Matrix a(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) a(i, j) = rng::normal(g);
  }
  return a;
}

Vector random_vector(std::size_t n, std::uint64_t seed) {
  rng::Xoshiro256 g(seed);
  Vector v(n);
  for (auto& x : v) x = rng::normal(g);
  return v;
}

TEST(Vector, ConstructionAndFill) {
  Vector v(5);
  EXPECT_EQ(v.size(), 5u);
  for (double x : v) EXPECT_EQ(x, 0.0);
  v.fill(2.5);
  for (double x : v) EXPECT_EQ(x, 2.5);
}

TEST(Vector, InitializerListAndEquality) {
  const Vector v{1.0, 2.0, 3.0};
  EXPECT_EQ(v.size(), 3u);
  EXPECT_EQ(v[1], 2.0);
  EXPECT_EQ(v, (Vector{1.0, 2.0, 3.0}));
  EXPECT_NE(v, (Vector{1.0, 2.0, 4.0}));
}

TEST(Vector, Arithmetic) {
  const Vector a{1.0, 2.0};
  const Vector b{10.0, 20.0};
  EXPECT_EQ(a + b, (Vector{11.0, 22.0}));
  EXPECT_EQ(b - a, (Vector{9.0, 18.0}));
  EXPECT_EQ(2.0 * a, (Vector{2.0, 4.0}));
  EXPECT_EQ(a * 2.0, (Vector{2.0, 4.0}));
}

TEST(Vector, DimensionMismatchThrows) {
  Vector a(3);
  const Vector b(4);
  EXPECT_THROW(a += b, std::invalid_argument);
  EXPECT_THROW(a -= b, std::invalid_argument);
  EXPECT_THROW(dot(a, b), std::invalid_argument);
  EXPECT_THROW(axpy(1.0, b, a), std::invalid_argument);
}

TEST(Vector, DotAndNorms) {
  const Vector a{3.0, 4.0};
  EXPECT_DOUBLE_EQ(dot(a, a), 25.0);
  EXPECT_DOUBLE_EQ(norm2(a), 5.0);
  EXPECT_DOUBLE_EQ(norm2_squared(a), 25.0);
  EXPECT_DOUBLE_EQ(norm1(a), 7.0);
  EXPECT_DOUBLE_EQ(norm_inf(a), 4.0);
}

TEST(Vector, NormsOfNegativeEntries) {
  const Vector a{-3.0, 4.0, -1.0};
  EXPECT_DOUBLE_EQ(norm1(a), 8.0);
  EXPECT_DOUBLE_EQ(norm_inf(a), 4.0);
}

TEST(Vector, AxpyAccumulates) {
  const Vector x{1.0, -1.0};
  Vector y{10.0, 10.0};
  axpy(3.0, x, y);
  EXPECT_EQ(y, (Vector{13.0, 7.0}));
}

TEST(Vector, CountAboveAndMean) {
  const Vector v{0.0, 0.5, -2.0, 1e-9};
  EXPECT_EQ(count_above(v, 1e-6), 2u);
  EXPECT_DOUBLE_EQ(mean(v), (0.5 - 2.0 + 1e-9) / 4.0);
  EXPECT_DOUBLE_EQ(mean(Vector{}), 0.0);
  EXPECT_DOUBLE_EQ(norm_inf(Vector{}), 0.0);
}

TEST(Matrix, IdentityAndAccess) {
  const Matrix eye = Matrix::identity(3);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_EQ(eye(i, j), i == j ? 1.0 : 0.0);
    }
  }
  EXPECT_THROW(eye.at(3, 0), std::out_of_range);
  EXPECT_THROW(eye.at(0, 3), std::out_of_range);
}

TEST(Matrix, MultiplyVector) {
  Matrix a(2, 3);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(0, 2) = 3;
  a(1, 0) = 4;
  a(1, 1) = 5;
  a(1, 2) = 6;
  const Vector x{1.0, 0.0, -1.0};
  const Vector y = multiply(a, x);
  EXPECT_EQ(y, (Vector{-2.0, -2.0}));
  EXPECT_THROW(multiply(a, Vector(2)), std::invalid_argument);
}

TEST(Matrix, MultiplyTransposeMatchesExplicitTranspose) {
  const Matrix a = random_matrix(6, 4, 1);
  const Vector y = random_vector(6, 2);
  const Vector via_fast = multiply_transpose(a, y);
  const Vector via_explicit = multiply(transpose(a), y);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(via_fast[i], via_explicit[i], 1e-12);
  }
}

namespace {

// Straightforward row-dot reference kernels the blocked/unrolled production
// gemv paths are checked against.
Vector naive_gemv(const Matrix& a, const Vector& x) {
  Vector y(a.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    double sum = 0.0;
    for (std::size_t j = 0; j < a.cols(); ++j) sum += a(i, j) * x[j];
    y[i] = sum;
  }
  return y;
}

Vector naive_gemv_transpose(const Matrix& a, const Vector& y) {
  Vector x(a.cols());
  for (std::size_t j = 0; j < a.cols(); ++j) {
    double sum = 0.0;
    for (std::size_t i = 0; i < a.rows(); ++i) sum += a(i, j) * y[i];
    x[j] = sum;
  }
  return x;
}

}  // namespace

TEST(Matrix, BlockedGemvMatchesNaiveOnOddAndNonSquareShapes) {
  // Shapes straddle the 4-row blocking: multiples of 4, remainders 1–3,
  // tall, wide, and single-row/column edge cases.
  const std::size_t shapes[][2] = {{1, 1},  {1, 7},  {3, 5},  {4, 4},
                                   {5, 3},  {7, 1},  {8, 12}, {9, 2},
                                   {13, 6}, {64, 256}, {255, 33}};
  int seed = 100;
  for (const auto& shape : shapes) {
    const Matrix a = random_matrix(shape[0], shape[1], seed++);
    const Vector x = random_vector(shape[1], seed++);
    const Vector blocked = multiply(a, x);
    const Vector naive = naive_gemv(a, x);
    ASSERT_EQ(blocked.size(), naive.size());
    for (std::size_t i = 0; i < blocked.size(); ++i) {
      EXPECT_NEAR(blocked[i], naive[i], 1e-11 * (1.0 + std::abs(naive[i])))
          << shape[0] << "x" << shape[1] << " row " << i;
    }

    Vector into(shape[0]);
    multiply_into(a, x, into);
    EXPECT_EQ(into, blocked);  // same kernel, bit-identical
  }
}

TEST(Matrix, BlockedGemvTransposeMatchesNaiveOnOddAndNonSquareShapes) {
  const std::size_t shapes[][2] = {{1, 1}, {1, 9}, {2, 7},  {4, 4},
                                   {5, 5}, {6, 3}, {11, 8}, {33, 255}};
  int seed = 300;
  for (const auto& shape : shapes) {
    const Matrix a = random_matrix(shape[0], shape[1], seed++);
    const Vector y = random_vector(shape[0], seed++);
    const Vector blocked = multiply_transpose(a, y);
    const Vector naive = naive_gemv_transpose(a, y);
    ASSERT_EQ(blocked.size(), naive.size());
    for (std::size_t j = 0; j < blocked.size(); ++j) {
      EXPECT_NEAR(blocked[j], naive[j], 1e-11 * (1.0 + std::abs(naive[j])))
          << shape[0] << "x" << shape[1] << " col " << j;
    }

    Vector into(shape[1]);
    multiply_transpose_into(a, y, into);
    EXPECT_EQ(into, blocked);
  }
}

TEST(Matrix, BlockedGemvTransposeHandlesZeroEntriesInY) {
  // The seed kernel skipped rows where y[i] == 0; the blocked kernel is
  // branch-free and must produce the same result.
  Matrix a(6, 3);
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      a(i, j) = static_cast<double>(i * 3 + j + 1);
    }
  }
  const Vector y{0.0, 2.0, 0.0, -1.0, 0.0, 0.5};
  const Vector fast = multiply_transpose(a, y);
  const Vector naive = naive_gemv_transpose(a, y);
  for (std::size_t j = 0; j < 3; ++j) EXPECT_DOUBLE_EQ(fast[j], naive[j]);
}

TEST(Matrix, MultiplyIntoValidatesShapes) {
  const Matrix a = random_matrix(4, 6, 42);
  Vector y(4);
  EXPECT_THROW(multiply_into(a, Vector(5), y), std::invalid_argument);
  Vector x(6);
  EXPECT_THROW(multiply_transpose_into(a, Vector(3), x),
               std::invalid_argument);
  // Destination is resized, not validated.
  Vector wrong_size(1);
  multiply_into(a, Vector(6), wrong_size);
  EXPECT_EQ(wrong_size.size(), 4u);
}

TEST(Matrix, MatrixMultiplyAssociatesWithIdentity) {
  const Matrix a = random_matrix(4, 5, 3);
  const Matrix ai = multiply(a, Matrix::identity(5));
  const Matrix ia = multiply(Matrix::identity(4), a);
  EXPECT_LT(max_abs_diff(a, ai), 1e-15);
  EXPECT_LT(max_abs_diff(a, ia), 1e-15);
}

TEST(Matrix, GramMatchesExplicitProduct) {
  const Matrix a = random_matrix(7, 3, 4);
  const Matrix g1 = gram(a);
  const Matrix g2 = multiply(transpose(a), a);
  EXPECT_LT(max_abs_diff(g1, g2), 1e-12);
}

TEST(Matrix, NormalizeColumnsUnitNorm) {
  Matrix a = random_matrix(10, 4, 5);
  normalize_columns(a);
  for (std::size_t j = 0; j < 4; ++j) {
    double acc = 0.0;
    for (std::size_t i = 0; i < 10; ++i) acc += a(i, j) * a(i, j);
    EXPECT_NEAR(acc, 1.0, 1e-12);
  }
}

TEST(Matrix, NormalizeColumnsLeavesZeroColumn) {
  Matrix a(3, 2);
  a(0, 1) = 2.0;
  normalize_columns(a);
  EXPECT_EQ(a(0, 0), 0.0);
  EXPECT_NEAR(a(0, 1), 1.0, 1e-15);
}

TEST(Cholesky, SolvesSpdSystem) {
  const Matrix b = random_matrix(5, 5, 6);
  Matrix spd = gram(b);
  for (std::size_t i = 0; i < 5; ++i) spd(i, i) += 5.0;
  const Vector x_true = random_vector(5, 7);
  const Vector rhs = multiply(spd, x_true);
  const Vector x = Cholesky(spd).solve(rhs);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-9);
}

TEST(Cholesky, RejectsNonSquare) {
  EXPECT_THROW(Cholesky(Matrix(3, 4)), std::invalid_argument);
}

TEST(Cholesky, RejectsIndefinite) {
  Matrix a = Matrix::identity(2);
  a(1, 1) = -1.0;
  EXPECT_THROW(Cholesky{a}, std::runtime_error);
}

TEST(Cholesky, FactorReproducesMatrix) {
  const Matrix b = random_matrix(4, 4, 8);
  Matrix spd = gram(b);
  for (std::size_t i = 0; i < 4; ++i) spd(i, i) += 3.0;
  const Cholesky chol(spd);
  const Matrix l = chol.factor();
  const Matrix llt = multiply(l, transpose(l));
  EXPECT_LT(max_abs_diff(spd, llt), 1e-10);
}

TEST(HouseholderQr, SolvesSquareSystem) {
  const Matrix a = random_matrix(6, 6, 9);
  const Vector x_true = random_vector(6, 10);
  const Vector b = multiply(a, x_true);
  const Vector x = HouseholderQr(a).solve(b);
  for (std::size_t i = 0; i < 6; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-9);
}

TEST(HouseholderQr, LeastSquaresResidualOrthogonal) {
  const Matrix a = random_matrix(12, 5, 11);
  const Vector b = random_vector(12, 12);
  const Vector x = least_squares(a, b);
  // Normal equations: Aᵀ(b − Ax) = 0.
  Vector r = b - multiply(a, x);
  const Vector atr = multiply_transpose(a, r);
  EXPECT_LT(norm_inf(atr), 1e-9);
}

TEST(HouseholderQr, RejectsUnderdetermined) {
  EXPECT_THROW(HouseholderQr(Matrix(3, 5)), std::invalid_argument);
}

TEST(HouseholderQr, DetectsRankDeficiency) {
  Matrix a(4, 2);
  for (std::size_t i = 0; i < 4; ++i) {
    a(i, 0) = static_cast<double>(i + 1);
    a(i, 1) = 2.0 * static_cast<double>(i + 1);  // Dependent column.
  }
  EXPECT_THROW(HouseholderQr(a).solve(Vector(4)), std::runtime_error);
}

TEST(HouseholderQr, RFactorIsUpperTriangularAndConsistent) {
  const Matrix a = random_matrix(8, 4, 13);
  const HouseholderQr qr(a);
  const Matrix r = qr.r();
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < i; ++j) EXPECT_EQ(r(i, j), 0.0);
  }
  // ‖R‖F == ‖A‖F for an orthogonal factorization.
  EXPECT_NEAR(frobenius_norm(r), frobenius_norm(a), 1e-9);
}

TEST(TriangularSolvers, RoundTrip) {
  Matrix l(3, 3);
  l(0, 0) = 2;
  l(1, 0) = 1;
  l(1, 1) = 3;
  l(2, 0) = -1;
  l(2, 1) = 0.5;
  l(2, 2) = 4;
  const Vector x_true{1.0, -2.0, 0.5};
  EXPECT_EQ(solve_lower(l, multiply(l, x_true)).size(), 3u);
  const Vector x = solve_lower(l, multiply(l, x_true));
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-12);
  const Matrix u = transpose(l);
  const Vector xu = solve_upper(u, multiply(u, x_true));
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(xu[i], x_true[i], 1e-12);
}

TEST(TriangularSolvers, ZeroDiagonalThrows) {
  Matrix l = Matrix::identity(2);
  l(1, 1) = 0.0;
  EXPECT_THROW(solve_lower(l, Vector(2)), std::invalid_argument);
  EXPECT_THROW(solve_upper(l, Vector(2)), std::invalid_argument);
}

TEST(LinearOperator, FromMatrixMatchesDense) {
  const Matrix a = random_matrix(4, 6, 14);
  const LinearOperator op = LinearOperator::from_matrix(a);
  EXPECT_EQ(op.rows(), 4u);
  EXPECT_EQ(op.cols(), 6u);
  const Vector x = random_vector(6, 15);
  const Vector y1 = op.apply(x);
  const Vector y2 = multiply(a, x);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_NEAR(y1[i], y2[i], 1e-14);
}

// ---------------------------------------------------------------------------
// Sign-table kernels: from_matrix on ±w_j matrices (the RMPI chip matrix).

/// ±1 chips; with leakage λ > 0 column j is scaled by (1−λ)^(n−1−j) as in
/// RmpiSimulator::effective_matrix.
Matrix chip_matrix(std::size_t rows, std::size_t cols, double leakage,
                   std::uint64_t seed) {
  rng::Xoshiro256 g(seed);
  Matrix a(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      a(i, j) = rng::normal(g) < 0.0 ? -1.0 : 1.0;
    }
  }
  for (std::size_t j = 0; j < cols; ++j) {
    const double w =
        std::pow(1.0 - leakage, static_cast<double>(cols - 1 - j));
    for (std::size_t i = 0; i < rows; ++i) a(i, j) *= w;
  }
  return a;
}

/// Σ_j |a_ij·x_j| per row: the scale of the rounding error in row i.
Vector abs_product(const Matrix& a, const Vector& x) {
  Vector out(a.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      out[i] += std::abs(a(i, j) * x[j]);
    }
  }
  return out;
}

bool same_bits(const Vector& a, const Vector& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a[i]) !=
        std::bit_cast<std::uint64_t>(b[i])) {
      return false;
    }
  }
  return true;
}

constexpr std::size_t kSignShapes[][2] = {
    {96, 512}, {256, 512}, {95, 510}, {3, 5}, {1, 1}};

TEST(SignMatrix, AgreesWithDenseGemvOnChipMatrices) {
  std::uint64_t seed = 500;
  for (const double leakage : {0.0, 0.05}) {
    for (const auto& shape : kSignShapes) {
      const Matrix a = chip_matrix(shape[0], shape[1], leakage, seed++);
      ASSERT_TRUE(SignMatrix::from_dense(a).has_value());
      const LinearOperator op = LinearOperator::from_matrix(a);
      const Vector x = random_vector(shape[1], seed++);
      const Vector q = random_vector(shape[0], seed++);

      Vector y_sign;
      Vector y_dense;
      op.apply_into(x, y_sign);
      multiply_into(a, x, y_dense);
      const Vector y_scale = abs_product(a, x);
      for (std::size_t i = 0; i < y_dense.size(); ++i) {
        EXPECT_LE(std::abs(y_sign[i] - y_dense[i]), 1e-12 * y_scale[i])
            << shape[0] << "x" << shape[1] << " leakage " << leakage
            << " row " << i;
      }

      Vector x_sign;
      Vector x_dense;
      op.apply_adjoint_into(q, x_sign);
      multiply_transpose_into(a, q, x_dense);
      const Vector x_scale = abs_product(transpose(a), q);
      for (std::size_t j = 0; j < x_dense.size(); ++j) {
        EXPECT_LE(std::abs(x_sign[j] - x_dense[j]), 1e-12 * x_scale[j])
            << shape[0] << "x" << shape[1] << " leakage " << leakage
            << " col " << j;
      }

      // The allocating forms run the same kernels.
      EXPECT_TRUE(same_bits(op.apply(x), y_sign));
      EXPECT_TRUE(same_bits(op.apply_adjoint(q), x_sign));
      EXPECT_LT(adjoint_mismatch(op), 1e-12)
          << shape[0] << "x" << shape[1] << " leakage " << leakage;
    }
  }
}

TEST(SignMatrix, OtherMatricesKeepTheDenseGemvBitForBit) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<std::pair<const char*, Matrix>> cases;
  {
    Matrix a = chip_matrix(12, 20, 0.0, 601);
    a(5, 7) *= 1.0 + 1e-9;
    cases.emplace_back("one perturbed entry", a);
  }
  {
    Matrix a = chip_matrix(12, 20, 0.05, 602);
    for (std::size_t i = 0; i < a.rows(); ++i) a(i, 3) = 0.0;
    cases.emplace_back("all-zero column", a);
  }
  {
    Matrix a = chip_matrix(12, 20, 0.0, 603);
    for (std::size_t i = 0; i < a.rows(); ++i) {
      a(i, 11) = i % 2 == 0 ? 0.0 : -0.0;
    }
    cases.emplace_back("+-0.0 column", a);
  }
  {
    Matrix a = chip_matrix(12, 20, 0.0, 604);
    a(4, 9) = nan;
    cases.emplace_back("NaN entry", a);
  }
  {
    // Sparse binary: two ones per column, zeros elsewhere.
    Matrix a(12, 20);
    for (std::size_t j = 0; j < a.cols(); ++j) {
      a(j % 12, j) = 1.0;
      a((j * 5 + 3) % 12, j) = 1.0;
    }
    cases.emplace_back("sparse binary 0/1", a);
  }
  for (const auto& [name, a] : cases) {
    EXPECT_FALSE(SignMatrix::from_dense(a).has_value()) << name;
    const LinearOperator op = LinearOperator::from_matrix(a);
    const Vector x = random_vector(a.cols(), 610);
    const Vector q = random_vector(a.rows(), 611);
    Vector y;
    Vector xt;
    op.apply_into(x, y);
    op.apply_adjoint_into(q, xt);
    EXPECT_TRUE(same_bits(y, multiply(a, x))) << name;
    EXPECT_TRUE(same_bits(xt, multiply_transpose(a, q))) << name;
    EXPECT_TRUE(same_bits(op.apply(x), y)) << name;
    EXPECT_TRUE(same_bits(op.apply_adjoint(q), xt)) << name;
  }
}

TEST(SignMatrix, SharedOperatorIsBitIdenticalAcrossThreads) {
  // One operator applied from a pool must match serial application: the
  // per-call tables are per thread, not state inside the operator.
  const Matrix a = chip_matrix(96, 512, 0.05, 700);
  const LinearOperator op = LinearOperator::from_matrix(a);
  constexpr std::size_t kTasks = 64;
  std::vector<Vector> inputs;
  std::vector<Vector> duals;
  for (std::size_t t = 0; t < kTasks; ++t) {
    inputs.push_back(random_vector(512, 800 + t));
    duals.push_back(random_vector(96, 900 + t));
  }
  std::vector<Vector> serial_y(kTasks);
  std::vector<Vector> serial_x(kTasks);
  for (std::size_t t = 0; t < kTasks; ++t) {
    op.apply_into(inputs[t], serial_y[t]);
    op.apply_adjoint_into(duals[t], serial_x[t]);
  }
  std::vector<Vector> pooled_y(kTasks);
  std::vector<Vector> pooled_x(kTasks);
  parallel::ThreadPool pool(4);
  pool.parallel_for(0, kTasks, [&](std::size_t t) {
    // Several rounds per task so threads overlap inside the kernels.
    for (int round = 0; round < 20; ++round) {
      op.apply_into(inputs[t], pooled_y[t]);
      op.apply_adjoint_into(duals[t], pooled_x[t]);
    }
  });
  for (std::size_t t = 0; t < kTasks; ++t) {
    EXPECT_TRUE(same_bits(pooled_y[t], serial_y[t])) << "task " << t;
    EXPECT_TRUE(same_bits(pooled_x[t], serial_x[t])) << "task " << t;
  }
}

TEST(SignMatrix, SelectedRowsMatchFromMatrixOfTheRowCopy) {
  // The lossy decoder drops lost measurements by selecting rows of the
  // cached sign form; the result must be the operator from_matrix builds
  // from a dense copy of the kept rows, bit for bit.  m = 98 keeps every
  // kept-row count here off a multiple of the kernel's group of four.
  constexpr std::size_t m = 98;
  constexpr std::size_t n = 512;
  std::uint64_t seed = 1000;
  for (const double leakage : {0.0, 0.05}) {
    const Matrix a = chip_matrix(m, n, leakage, seed++);
    const auto signs = SignMatrix::from_dense(a);
    ASSERT_TRUE(signs.has_value());
    for (const std::size_t dropped : {0u, 1u, 5u, 97u}) {
      std::vector<std::uint8_t> keep(m, 1);
      rng::Xoshiro256 g(seed++);
      for (std::size_t d = 0; d < dropped;) {
        const auto i = static_cast<std::size_t>(rng::uniform_below(g, m));
        if (keep[i] != 0) {
          keep[i] = 0;
          ++d;
        }
      }
      Matrix copy(m - dropped, n);
      std::size_t row = 0;
      for (std::size_t i = 0; i < m; ++i) {
        if (keep[i] == 0) continue;
        for (std::size_t j = 0; j < n; ++j) copy(row, j) = a(i, j);
        ++row;
      }
      const LinearOperator want = LinearOperator::from_matrix(copy);
      const LinearOperator got =
          LinearOperator::from_signs(signs->select_rows(keep));
      ASSERT_EQ(got.rows(), m - dropped);
      ASSERT_EQ(got.cols(), n);
      const Vector x = random_vector(n, seed++);
      const Vector q = random_vector(m - dropped, seed++);
      EXPECT_TRUE(same_bits(got.apply(x), want.apply(x)))
          << "dropped " << dropped << " leakage " << leakage;
      EXPECT_TRUE(same_bits(got.apply_adjoint(q), want.apply_adjoint(q)))
          << "dropped " << dropped << " leakage " << leakage;
    }
  }
  EXPECT_THROW(SignMatrix::from_dense(chip_matrix(4, 8, 0.0, 1))
                   ->select_rows(std::vector<std::uint8_t>(4, 0)),
               std::invalid_argument);
  EXPECT_THROW(SignMatrix::from_dense(chip_matrix(4, 8, 0.0, 1))
                   ->select_rows(std::vector<std::uint8_t>(3, 1)),
               std::invalid_argument);
}

TEST(LinearOperator, DimensionValidation) {
  const LinearOperator op =
      LinearOperator::from_matrix(random_matrix(4, 6, 16));
  EXPECT_THROW(op.apply(Vector(4)), std::invalid_argument);
  EXPECT_THROW(op.apply_adjoint(Vector(6)), std::invalid_argument);
}

TEST(LinearOperator, ComposeMatchesProduct) {
  const Matrix a = random_matrix(3, 4, 20);
  const Matrix b = random_matrix(4, 6, 21);
  const LinearOperator composed = LinearOperator::from_matrix(a).compose(
      LinearOperator::from_matrix(b));
  const Matrix ab = multiply(a, b);
  const Vector x = random_vector(6, 22);
  const Vector y1 = composed.apply(x);
  const Vector y2 = multiply(ab, x);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(y1[i], y2[i], 1e-12);
  EXPECT_LT(adjoint_mismatch(composed), 1e-12);
}

TEST(LinearOperator, IdentityIsIdentity) {
  const LinearOperator id = LinearOperator::identity(4);
  const Vector x = random_vector(4, 23);
  EXPECT_EQ(id.apply(x), x);
  EXPECT_EQ(id.apply_adjoint(x), x);
}

TEST(OperatorNorm, MatchesKnownSingularValue) {
  // Diagonal operator: norm is max |diag|.
  Matrix d(3, 3);
  d(0, 0) = 1.0;
  d(1, 1) = -7.0;
  d(2, 2) = 3.0;
  const double est =
      operator_norm_estimate(LinearOperator::from_matrix(d), 200);
  EXPECT_NEAR(est, 7.0, 1e-6);
}

TEST(OperatorNorm, IdentityHasUnitNorm) {
  EXPECT_NEAR(operator_norm_estimate(LinearOperator::identity(10), 30), 1.0,
              1e-9);
}

TEST(AdjointMismatch, DetectsWrongAdjoint) {
  // Deliberately wrong adjoint (scaled by 2).
  const LinearOperator bad(
      3, 3, [](const Vector& x) { return x; },
      [](const Vector& y) { return 2.0 * y; },
      [](const Vector& x, Vector& y) { y = x; },
      [](const Vector& y, Vector& x) { x = 2.0 * y; });
  EXPECT_GT(adjoint_mismatch(bad), 0.1);
}

}  // namespace
}  // namespace csecg::linalg
