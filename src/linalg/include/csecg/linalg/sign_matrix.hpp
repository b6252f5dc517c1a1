// Sign-table products for ±w_j matrices (the RMPI chip matrix).
//
// The RMPI mixes the input with ±1 chipping sequences, so its Φ holds only
// ±1 — or, with integrator leakage, ±w_j with one weight per column.  Such
// a matrix is S·diag(w) with S a ±1 matrix, and both products reduce to
// additions of table entries ("four Russians"):
//
//   Φx  = S(w∘x):  for each group of four inputs build the 16 signed
//                  partial sums once; each output then needs one table
//                  lookup per group instead of four multiply-adds.
//   Φᵀq = w∘(Sᵀq): the same on groups of four rows of q, then one scale.
//
// The signs are stored as 4-bit codes, one per byte, row-major for Φ and
// column-major for Φᵀ, so a 96×512 Φ takes 24 KiB instead of a 384 KiB
// dense copy.
//
// LinearOperator::from_matrix picks this form automatically whenever the
// matrix has the structure; nothing else needs to know about it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "csecg/linalg/matrix.hpp"
#include "csecg/linalg/vector.hpp"

namespace csecg::linalg {

/// A rows×cols matrix whose column j holds only +w_j and −w_j, with every
/// w_j finite and > 0, stored as packed signs plus the weight vector.
class SignMatrix {
 public:
  /// The sign form of `a`, or nullopt when some column holds a zero, a
  /// non-finite value or two different magnitudes.
  static std::optional<SignMatrix> from_dense(const Matrix& a);

  /// The rows i with keep[i] != 0, in order: bit for bit the sign form
  /// from_dense gives for that row submatrix of the dense matrix, built
  /// from the packed codes without touching a dense row.  keep must have
  /// rows() entries, at least one of them nonzero.
  SignMatrix select_rows(const std::vector<std::uint8_t>& keep) const;

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }

 private:
  friend void multiply_into(const SignMatrix& a, const Vector& x, Vector& y);
  friend void multiply_transpose_into(const SignMatrix& a, const Vector& x,
                                      Vector& y);

  SignMatrix() = default;

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  Vector weights_;
  // Row i's code for group g is row_codes_[i·row_groups_ + g]: bit b set
  // where entry (i, 4g+b) is negative.  col_codes_ holds column j over
  // rows 4h..4h+3 the same way.  Groups are padded to a multiple of four
  // with zero codes.
  std::size_t row_groups_ = 0;
  std::size_t col_groups_ = 0;
  std::vector<std::uint8_t> row_codes_;
  std::vector<std::uint8_t> col_codes_;
};

/// y = A·x into a caller-owned vector (resized to A.rows()).  Output i sums
/// its table lookups in a fixed order, so results do not depend on the
/// host or on the calling thread.  The only scratch is a per-thread table,
/// so one SignMatrix may be applied from many threads at once.
void multiply_into(const SignMatrix& a, const Vector& x, Vector& y);

/// y = Aᵀ·x into a caller-owned vector (resized to A.cols()); same
/// contract as the forward product.
void multiply_transpose_into(const SignMatrix& a, const Vector& x, Vector& y);

}  // namespace csecg::linalg
