// High-frequency A2I conversion — the paper's concluding application.
//
// "One of the main potential applications for analog implementation of CS
//  is in HF applications where the sampling frequency is so large [that]
//  the equivalent number of bits (ENOB) on a real ADC is very poor ...
//  Our design has the potential to be used in such a configuration as a
//  super resolution path."
//
// This example simulates exactly that: a tone-sparse HF signal is acquired
// by (a) a flash ADC alone at its poor ENOB, (b) an RMPI CS channel alone,
// and (c) the hybrid — CS channel + the coarse flash samples as the box
// constraint — showing the CS path acting as the super-resolution path on
// top of a low-ENOB converter.  Time is normalized: one window of n
// Nyquist samples, whatever the absolute rate.
//
//   $ ./hf_a2i [tones] [m]
//
// Without an explicit m the demo sweeps m across the CS phase transition.
// Below it CS alone fails, yet the hybrid still lifts the output 20+ dB
// past the flash ENOB limit: the flash box pins down what the missing
// measurements cannot.  Above it both CS paths reach the super-resolution
// regime.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numbers>

#include "csecg/dsp/dct.hpp"
#include "csecg/metrics/quality.hpp"
#include "csecg/recovery/pdhg.hpp"
#include "csecg/rng/distributions.hpp"
#include "csecg/sensing/quantizer.hpp"
#include "csecg/sensing/rmpi.hpp"

namespace {

struct HfPoint {
  double flash_snr = 0.0;
  double cs_snr = 0.0;
  double hybrid_snr = 0.0;
};

HfPoint run_point(std::size_t tones, std::size_t m);

}  // namespace

int main(int argc, char** argv) {
  const std::size_t tones =
      argc > 1 ? static_cast<std::size_t>(std::strtol(argv[1], nullptr, 10))
               : 6;
  if (argc > 2) {
    const auto m = static_cast<std::size_t>(std::strtol(argv[2], nullptr, 10));
    const HfPoint p = run_point(tones, m);
    std::printf("m=%zu: flash %.2f dB | CS alone %.2f dB | hybrid %.2f dB\n",
                m, p.flash_snr, p.cs_snr, p.hybrid_snr);
    return 0;
  }
  std::printf("HF A2I sweep: %zu tones in n=512, 6-bit flash ADC\n", tones);
  std::printf("%6s  %12s  %12s  %12s\n", "m", "flash(dB)", "CS alone(dB)",
              "hybrid(dB)");
  for (std::size_t m : {16u, 24u, 32u, 48u, 64u, 96u}) {
    const HfPoint p = run_point(tones, m);
    std::printf("%6zu  %12.2f  %12.2f  %12.2f\n", m, p.flash_snr, p.cs_snr,
                p.hybrid_snr);
  }
  std::printf(
      "\nBelow the CS phase transition CS alone fails, but the hybrid still "
      "lifts the output\nfar past the flash ENOB limit; above it the CS "
      "channel is the super-resolution path\nof the paper's conclusion at "
      "a fraction of Nyquist channels.\n");
  return 0;
}

namespace {

HfPoint run_point(std::size_t tones, std::size_t m) {
  using namespace csecg;
  const std::size_t n = 512;
  const int flash_bits = 6;  // A fast flash ADC's effective resolution.

  // Tone-sparse test signal on DCT bins (frequencies land exactly on the
  // dictionary so sparsity is exact, as in the RMPI literature's demos).
  rng::Xoshiro256 gen(7);
  const dsp::Dct dct(n);
  linalg::Vector coeffs(n);
  for (std::size_t t = 0; t < tones; ++t) {
    std::size_t bin = 0;
    do {
      bin = 8 + static_cast<std::size_t>(rng::uniform_below(gen, n - 16));
    } while (coeffs[bin] != 0.0);
    coeffs[bin] = static_cast<double>(rng::rademacher(gen)) *
                  rng::uniform(gen, 0.5, 1.0);
  }
  const linalg::Vector x = dct.inverse(coeffs);
  const double peak = linalg::norm_inf(x);

  // (a) Flash ADC alone: 6-bit quantization of the Nyquist samples.
  const sensing::Quantizer flash(flash_bits, -1.2 * peak, 1.2 * peak,
                                 sensing::QuantizerMode::kFloor);
  const linalg::Vector x_flash = flash.quantize(x);
  // Report against the cell midpoint (the flash path's best estimate).
  linalg::Vector x_flash_mid = x_flash;
  for (auto& v : x_flash_mid) v += flash.step() / 2.0;

  // (b) CS channel alone: m-channel RMPI + BPDN over the DCT dictionary.
  sensing::RmpiConfig rmpi_config;
  rmpi_config.channels = m;
  rmpi_config.window = n;
  rmpi_config.adc_bits = 12;
  rmpi_config.input_full_scale = 1.2 * peak;
  const sensing::RmpiSimulator rmpi(rmpi_config);
  const linalg::Vector y = rmpi.measure(x);
  const double sigma = 1.5 * rmpi.expected_quantization_noise_norm();
  recovery::PdhgOptions options;
  options.max_iterations = 3000;
  const auto psi = dct.synthesis_operator();
  const auto phi = rmpi.effective_operator();
  const auto cs_only =
      recovery::solve_bpdn(phi, psi, y, sigma, std::nullopt, options);

  // (c) Hybrid: CS + the flash staircase as a per-sample box.
  recovery::BoxConstraint box;
  linalg::Vector upper;
  flash.boxes(x, box.lower, upper);
  box.upper = upper;
  const auto hybrid = recovery::solve_bpdn(phi, psi, y, sigma, box, options);

  HfPoint point;
  point.flash_snr =
      metrics::snr_from_prd(metrics::prd_zero_mean(x, x_flash_mid));
  point.cs_snr = metrics::snr_from_prd(metrics::prd_zero_mean(x, cs_only.x));
  point.hybrid_snr =
      metrics::snr_from_prd(metrics::prd_zero_mean(x, hybrid.x));
  return point;
}

}  // namespace
