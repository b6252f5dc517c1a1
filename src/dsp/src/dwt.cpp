#include "csecg/dsp/dwt.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <numeric>
#include <type_traits>
#include <vector>

#include "csecg/common/check.hpp"

namespace csecg::dsp {

// Both directions are written in polyphase gather form: every output is
// one accumulator that starts at 0.0 and adds its terms in the order the
// textbook loops below would, so the transform is defined by them:
//
//   analysis   a_i = Σ_{k ascending} h[k]·x[(2i + k) mod len]   (d_i with g)
//   synthesis  for i ascending, k ascending:
//                x[(2i + k) mod len] += h[k]·a_i + g[k]·d_i
//
// Analysis reads periodically extended polyphase copies of its input.
// Synthesis reads its coefficients in place, and only the first few output
// pairs of a level, whose terms wrap around the period, read short
// periodic extensions.  So no inner loop takes a modulo, and computing
// kBlock independent outputs per pass removes the serial add chain,
// without changing one operation.

namespace {

/// Outputs computed per pass: enough independent accumulators to hide the
/// add latency, few enough to stay in registers.
constexpr std::size_t kBlock = 8;

/// Half the longest filter among the families (db10: 20 taps).
constexpr std::size_t kMaxHalfTaps = 10;

/// Per-thread scratch: one transform is shared by a whole pool (every copy
/// of synthesis_operator() points at the same instance), so its workspace
/// cannot live in the object.  Grows to the largest size a thread has
/// needed and is then reused without allocating.
double* scratch(std::size_t size) {
  thread_local std::vector<double> buffer;
  if (buffer.size() < size) buffer.resize(size);
  return buffer.data();
}

/// Calls body(std::integral_constant<std::size_t, T>) for T = half_taps, so
/// the kernels below see the filter length at compile time.
template <std::size_t T = 1, typename Body>
void with_half_taps(std::size_t half_taps, Body&& body) {
  if constexpr (T > kMaxHalfTaps) {
    CSECG_CHECK(false, "Dwt: filters longer than " << 2 * kMaxHalfTaps
                                                   << " taps unsupported");
  } else if (half_taps == T) {
    body(std::integral_constant<std::size_t, T>{});
  } else {
    with_half_taps<T + 1>(half_taps, body);
  }
}

/// Calls kernel(width, first) over outputs [begin, end): blocks of kBlock,
/// the last one shifted back to end at `end` (it recomputes a few outputs
/// with the same operations, so rewriting them is harmless), and single
/// outputs when the range is shorter than a block.
template <typename Kernel>
void for_each_block(std::size_t begin, std::size_t end, Kernel&& kernel) {
  using Block = std::integral_constant<std::size_t, kBlock>;
  using Single = std::integral_constant<std::size_t, 1>;
  if (end - begin < kBlock) {
    for (std::size_t i = begin; i < end; ++i) kernel(Single{}, i);
    return;
  }
  for (std::size_t i = begin; i + kBlock <= end; i += kBlock) {
    kernel(Block{}, i);
  }
  if ((end - begin) % kBlock != 0) kernel(Block{}, end - kBlock);
}

/// even[t] = x[2t mod len] and odd[t] = x[(2t + 1) mod len] for t < ext:
/// the polyphase components of one period of x, extended periodically.
void polyphase(const double* x, std::size_t len, std::size_t ext,
               double* even, double* odd) {
  const std::size_t half = len / 2;
  for (std::size_t t = 0; t < half; ++t) {
    even[t] = x[2 * t];
    odd[t] = x[2 * t + 1];
  }
  for (std::size_t t = half; t < ext; ++t) {
    even[t] = even[t - half];
    odd[t] = odd[t - half];
  }
}

/// Analysis outputs i..i+B−1: tap k = 2t reads even[i + t], k = 2t + 1
/// reads odd[i + t], in ascending k.
template <std::size_t T, std::size_t B>
void analyze_outputs(const double* even, const double* odd, const double* h,
                     const double* g, std::size_t i, double* approx,
                     double* detail) {
  double a[B] = {};
  double d[B] = {};
  // Unrolled over the taps, the B-wide updates become vector operations.
#pragma GCC unroll 10
  for (std::size_t t = 0; t < T; ++t) {
    const double* e = even + i + t;
    const double* o = odd + i + t;
    for (std::size_t r = 0; r < B; ++r) {
      a[r] += h[2 * t] * e[r];
      d[r] += g[2 * t] * e[r];
    }
    for (std::size_t r = 0; r < B; ++r) {
      a[r] += h[2 * t + 1] * o[r];
      d[r] += g[2 * t + 1] * o[r];
    }
  }
  for (std::size_t r = 0; r < B; ++r) {
    approx[i + r] = a[r];
    detail[i + r] = d[r];
  }
}

/// Synthesis output pairs p0..p0+B−1, written to out[0..2B).  Pair p
/// receives one term per virtual coefficient index v = p − T + 1 + σ,
/// σ < T, with taps k = 2(T − 1 − σ) and k + 1; `order` lists the σ in
/// the order the scatter loop adds them.  approx/detail point at the
/// coefficients of pair p0's σ = 0, so pair p0 + r reads element σ + r.
template <std::size_t T, std::size_t B>
void synthesize_outputs(const double* approx, const double* detail,
                        const double* h, const double* g,
                        const std::uint8_t* order, double* out) {
  double even[B] = {};
  double odd[B] = {};
#pragma GCC unroll 10
  for (std::size_t s = 0; s < T; ++s) {
    const std::size_t sigma = order[s];
    const std::size_t k = 2 * (T - 1 - sigma);
    const double* a = approx + sigma;
    const double* d = detail + sigma;
    for (std::size_t r = 0; r < B; ++r) {
      even[r] += h[k] * a[r] + g[k] * d[r];
      odd[r] += h[k + 1] * a[r] + g[k + 1] * d[r];
    }
  }
  for (std::size_t r = 0; r < B; ++r) {
    out[2 * r] = even[r];
    out[2 * r + 1] = odd[r];
  }
}

/// One analysis level: x (len samples) → approx, detail (len/2 each).  x
/// is read into the scratch `work` first, so approx may overlap x.
template <std::size_t T>
void analyze_level(const double* x, std::size_t len, const double* h,
                   const double* g, double* approx, double* detail,
                   double* work) {
  const std::size_t half = len / 2;
  const std::size_t ext = half + T - 1;
  double* even = work;
  double* odd = work + ext;
  polyphase(x, len, ext, even, odd);
  for_each_block(0, half, [&](auto width, std::size_t i) {
    analyze_outputs<T, decltype(width)::value>(even, odd, h, g, i, approx,
                                                detail);
  });
}

/// One synthesis level: approx, detail (half each) → out (2·half), which
/// must not overlap them.  The first min(T − 1, half) output pairs read
/// across the periodic wrap: they take their coefficients from short
/// periodic extensions built in `work` (4T doubles) and add their terms
/// in `head_orders`.  Every later pair reads approx and detail in place
/// and adds its terms in ascending σ.
template <std::size_t T>
void synthesize_level(const double* approx, const double* detail,
                      std::size_t half, const double* h, const double* g,
                      const std::uint8_t* head_orders, double* out,
                      double* work) {
  const std::size_t heads = std::min(T - 1, half);
  double* a_ext = work;
  double* d_ext = work + 2 * T;
  for (std::size_t q = 0; q < heads + T - 1; ++q) {
    const std::size_t i = (q + half * T - (T - 1)) % half;  // v = q − T + 1.
    a_ext[q] = approx[i];
    d_ext[q] = detail[i];
  }
  for (std::size_t p = 0; p < heads; ++p) {
    synthesize_outputs<T, 1>(a_ext + p, d_ext + p, h, g, head_orders + p * T,
                             out + 2 * p);
  }
  static constexpr auto kAscending = [] {
    std::array<std::uint8_t, T> order{};
    for (std::size_t s = 0; s < T; ++s) {
      order[s] = static_cast<std::uint8_t>(s);
    }
    return order;
  }();
  for_each_block(heads, half, [&](auto width, std::size_t p) {
    const std::size_t first = p - (T - 1);  // Pair p's σ = 0 coefficient.
    synthesize_outputs<T, decltype(width)::value>(
        approx + first, detail + first, h, g, kAscending.data(), out + 2 * p);
  });
}

}  // namespace

Dwt::Dwt(WaveletFamily family, std::size_t n, int levels)
    : wavelet_(make_wavelet(family)), n_(n), levels_(levels) {
  CSECG_CHECK(n > 0, "Dwt: signal length must be positive");
  CSECG_CHECK(levels >= 1, "Dwt: need at least one level, got " << levels);
  CSECG_CHECK(levels <= max_levels(n),
              "Dwt: " << levels << " levels not supported for n=" << n);

  // Head term orders.  Output pair p's terms have virtual coefficient
  // indices v = p − T + 1 + σ; the scatter loop adds them by ascending
  // actual index v mod half, and for equal actual index by ascending tap,
  // i.e. descending v.  Only pairs whose window leaves [0, half) — the
  // first T − 1, or all of a level shorter than the filter — differ from
  // ascending σ.
  const std::size_t taps = wavelet_.length() / 2;
  head_orders_.resize(static_cast<std::size_t>(levels_));
  for (int level = 0; level < levels_; ++level) {
    const std::size_t half = n_ >> (level + 1);
    const std::size_t heads = std::min(taps - 1, half);
    auto& orders = head_orders_[static_cast<std::size_t>(level)];
    orders.resize(heads * taps);
    for (std::size_t p = 0; p < heads; ++p) {
      std::uint8_t* order = orders.data() + p * taps;
      std::iota(order, order + taps, std::uint8_t{0});
      const auto virt = [&](std::size_t sigma) {
        return static_cast<long long>(p + sigma) -
               static_cast<long long>(taps - 1);
      };
      const auto actual = [&](std::size_t sigma) {
        const long long h = static_cast<long long>(half);
        return ((virt(sigma) % h) + h) % h;
      };
      std::sort(order, order + taps, [&](std::uint8_t x, std::uint8_t y) {
        if (actual(x) != actual(y)) return actual(x) < actual(y);
        return virt(x) > virt(y);
      });
    }
  }
}

int Dwt::max_levels(std::size_t n) {
  int levels = 0;
  while (n % 2 == 0 && n > 1) {
    n /= 2;
    ++levels;
  }
  return levels;
}

void Dwt::forward_into(const linalg::Vector& x,
                       linalg::Vector& coeffs) const {
  CSECG_CHECK(x.size() == n_, "Dwt::forward expected length "
                                  << n_ << ", got " << x.size());
  coeffs.resize(n_);
  const double* h = wavelet_.lowpass.data();
  const double* g = wavelet_.highpass.data();
  with_half_taps(wavelet_.length() / 2, [&](auto taps) {
    constexpr std::size_t T = decltype(taps)::value;
    double* work = scratch(n_ + 2 * (T - 1));
    // Each level reads the previous approximation out of coeffs' head and
    // writes its own approximation and details back over it.
    const double* input = x.data();
    std::size_t len = n_;
    for (int level = 0; level < levels_; ++level) {
      const std::size_t half = len / 2;
      analyze_level<T>(input, len, h, g, coeffs.data(), coeffs.data() + half,
                       work);
      input = coeffs.data();
      len = half;
    }
  });
}

linalg::Vector Dwt::forward(const linalg::Vector& x) const {
  linalg::Vector coeffs;
  forward_into(x, coeffs);
  return coeffs;
}

void Dwt::inverse_into(const linalg::Vector& coeffs,
                       linalg::Vector& x) const {
  CSECG_CHECK(coeffs.size() == n_, "Dwt::inverse expected length "
                                       << n_ << ", got " << coeffs.size());
  x.resize(n_);
  const double* h = wavelet_.lowpass.data();
  const double* g = wavelet_.highpass.data();
  with_half_taps(wavelet_.length() / 2, [&](auto taps) {
    constexpr std::size_t T = decltype(taps)::value;
    // Level l > 0 writes its n/2^l samples into scratch half l mod 2, and
    // the next finer level reads them from there as its approximation, so
    // no level is copied back; level 0 writes x.  The details come
    // straight from coeffs.
    double* work = scratch(n_ + 4 * T);
    double* const halves[2] = {work, work + n_ / 2};
    double* head_work = work + n_;
    const double* approx = coeffs.data();
    std::size_t half = n_ >> levels_;
    for (int level = levels_ - 1; level >= 0; --level) {
      double* out = level == 0 ? x.data() : halves[level % 2];
      synthesize_level<T>(
          approx, coeffs.data() + half, half, h, g,
          head_orders_[static_cast<std::size_t>(level)].data(), out,
          head_work);
      approx = out;
      half *= 2;
    }
  });
}

linalg::Vector Dwt::inverse(const linalg::Vector& coeffs) const {
  linalg::Vector x;
  inverse_into(coeffs, x);
  return x;
}

linalg::LinearOperator Dwt::synthesis_operator() const {
  // One shared transform instance behind all four callables.
  const auto self = std::make_shared<const Dwt>(*this);
  return linalg::LinearOperator(
      n_, n_,
      [self](const linalg::Vector& coeffs) { return self->inverse(coeffs); },
      [self](const linalg::Vector& x) { return self->forward(x); },
      [self](const linalg::Vector& coeffs, linalg::Vector& x) {
        self->inverse_into(coeffs, x);
      },
      [self](const linalg::Vector& x, linalg::Vector& coeffs) {
        self->forward_into(x, coeffs);
      });
}

}  // namespace csecg::dsp
