#include "csecg/linalg/sign_matrix.hpp"

#include <algorithm>
#include <cmath>

#include "csecg/common/check.hpp"

namespace csecg::linalg {

namespace {

// Inputs are taken four at a time, and each line's groups are padded to a
// multiple of four so the lookup loop has no tail: padded inputs are zero
// and their codes are 0.
constexpr std::size_t kGroup = 4;
constexpr std::size_t kTable = 16;

std::size_t padded_groups(std::size_t len) {
  const std::size_t groups = (len + kGroup - 1) / kGroup;
  return (groups + kGroup - 1) / kGroup * kGroup;
}

/// Per-thread scratch: the operator is shared by a whole pool, so its
/// tables cannot live in the object.  Holds `groups` tables followed by
/// the 4·groups zero-padded inputs they are built from.  Grows to the
/// largest size a thread has needed and is then reused without
/// allocating.
double* scratch(std::size_t groups) {
  thread_local std::vector<double> buffer;
  const std::size_t size = (kTable + kGroup) * groups;
  if (buffer.size() < size) buffer.resize(size);
  return buffer.data();
}

/// Fills table g with the 16 signed sums of v[4g..4g+3]: entry c is
/// (±v0 ± v1) + (±v2 ± v3), with v_b negated where bit b of c is set.
void build_tables(const double* v, std::size_t groups, double* tab) {
  for (std::size_t g = 0; g < groups; ++g) {
    const double* p = v + kGroup * g;
    const double lo[4] = {p[0] + p[1], p[1] - p[0], p[0] - p[1],
                          -(p[0] + p[1])};
    const double hi[4] = {p[2] + p[3], p[3] - p[2], p[2] - p[3],
                          -(p[2] + p[3])};
    double* t = tab + kTable * g;
    for (std::size_t h = 0; h < 4; ++h) {
      for (std::size_t l = 0; l < 4; ++l) t[4 * h + l] = lo[l] + hi[h];
    }
  }
}

/// out[line] = Σ_g tab[g][codes[line·groups + g]] for every line.  Group g
/// adds into accumulator g%4 in increasing g, and the four are combined
/// as (a0 + a1) + (a2 + a3).  That order is the kernel's definition.
void lookup_sums(const std::uint8_t* codes, std::size_t lines,
                 std::size_t groups, const double* tab, double* out) {
  for (std::size_t line = 0; line < lines; ++line) {
    const std::uint8_t* c = codes + line * groups;
    double a0 = 0.0;
    double a1 = 0.0;
    double a2 = 0.0;
    double a3 = 0.0;
    for (std::size_t g = 0; g < groups; g += kGroup) {
      const double* t = tab + kTable * g;
      a0 += t[c[g]];
      a1 += t[kTable + c[g + 1]];
      a2 += t[2 * kTable + c[g + 2]];
      a3 += t[3 * kTable + c[g + 3]];
    }
    out[line] = (a0 + a1) + (a2 + a3);
  }
}

}  // namespace

std::optional<SignMatrix> SignMatrix::from_dense(const Matrix& a) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  if (m == 0 || n == 0) return std::nullopt;
  Vector w(n);
  for (std::size_t j = 0; j < n; ++j) {
    w[j] = std::abs(a(0, j));
    if (!(std::isfinite(w[j]) && w[j] > 0.0)) return std::nullopt;
  }
  for (std::size_t i = 0; i < m; ++i) {
    const double* row = a.row(i);
    for (std::size_t j = 0; j < n; ++j) {
      if (row[j] != w[j] && row[j] != -w[j]) return std::nullopt;
    }
  }

  SignMatrix s;
  s.rows_ = m;
  s.cols_ = n;
  s.weights_ = std::move(w);
  s.row_groups_ = padded_groups(n);
  s.col_groups_ = padded_groups(m);
  s.row_codes_.assign(m * s.row_groups_, 0);
  s.col_codes_.assign(n * s.col_groups_, 0);
  for (std::size_t i = 0; i < m; ++i) {
    const double* row = a.row(i);
    for (std::size_t j = 0; j < n; ++j) {
      if (row[j] > 0.0) continue;
      s.row_codes_[i * s.row_groups_ + j / kGroup] |=
          static_cast<std::uint8_t>(1u << (j % kGroup));
      s.col_codes_[j * s.col_groups_ + i / kGroup] |=
          static_cast<std::uint8_t>(1u << (i % kGroup));
    }
  }
  return s;
}

SignMatrix SignMatrix::select_rows(
    const std::vector<std::uint8_t>& keep) const {
  CSECG_CHECK(keep.size() == rows_, "SignMatrix::select_rows: mask has "
                                        << keep.size() << " entries for "
                                        << rows_ << " rows");
  std::size_t kept = 0;
  for (const std::uint8_t bit : keep) kept += (bit != 0);
  CSECG_CHECK(kept > 0, "SignMatrix::select_rows: no row kept");

  // Every column keeps its weight (each entry is ±w_j).  Row codes are
  // copied whole; the column codes are regrouped over the kept rows.
  SignMatrix s;
  s.rows_ = kept;
  s.cols_ = cols_;
  s.weights_ = weights_;
  s.row_groups_ = row_groups_;
  s.col_groups_ = padded_groups(kept);
  s.row_codes_.resize(kept * row_groups_);
  s.col_codes_.assign(cols_ * s.col_groups_, 0);
  std::size_t r = 0;
  for (std::size_t i = 0; i < rows_; ++i) {
    if (keep[i] == 0) continue;
    const std::uint8_t* row = row_codes_.data() + i * row_groups_;
    std::copy(row, row + row_groups_, s.row_codes_.data() + r * row_groups_);
    const std::size_t bit = i % kGroup;
    for (std::size_t j = 0; j < cols_; ++j) {
      const std::uint8_t code = col_codes_[j * col_groups_ + i / kGroup];
      s.col_codes_[j * s.col_groups_ + r / kGroup] |=
          static_cast<std::uint8_t>(((code >> bit) & 1u) << (r % kGroup));
    }
    ++r;
  }
  return s;
}

void multiply_into(const SignMatrix& a, const Vector& x, Vector& y) {
  CSECG_CHECK(x.size() == a.cols(), "sign gemv dimension mismatch: A is "
                                        << a.rows() << "x" << a.cols()
                                        << ", x has " << x.size());
  const std::size_t n = a.cols();
  const std::size_t groups = a.row_groups_;
  double* tab = scratch(groups);
  double* v = tab + kTable * groups;
  for (std::size_t j = 0; j < n; ++j) v[j] = a.weights_[j] * x[j];
  std::fill(v + n, v + kGroup * groups, 0.0);
  build_tables(v, groups, tab);
  y.resize(a.rows());
  lookup_sums(a.row_codes_.data(), a.rows(), groups, tab, y.data());
}

void multiply_transpose_into(const SignMatrix& a, const Vector& x,
                             Vector& y) {
  CSECG_CHECK(x.size() == a.rows(), "sign gemv^T dimension mismatch: A is "
                                        << a.rows() << "x" << a.cols()
                                        << ", x has " << x.size());
  const std::size_t m = a.rows();
  const std::size_t groups = a.col_groups_;
  double* tab = scratch(groups);
  double* v = tab + kTable * groups;
  std::copy(x.begin(), x.end(), v);
  std::fill(v + m, v + kGroup * groups, 0.0);
  build_tables(v, groups, tab);
  y.resize(a.cols());
  lookup_sums(a.col_codes_.data(), a.cols(), groups, tab, y.data());
  for (std::size_t j = 0; j < a.cols(); ++j) y[j] *= a.weights_[j];
}

}  // namespace csecg::linalg
