// Parameterized property suites: invariants that must hold across whole
// parameter ranges, not just at single design points.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <tuple>

#include "csecg/coding/delta_huffman_codec.hpp"
#include "csecg/coding/zero_run_codec.hpp"
#include "csecg/core/frontend.hpp"
#include "csecg/dsp/dwt.hpp"
#include "csecg/linalg/operator.hpp"
#include "csecg/metrics/quality.hpp"
#include "csecg/power/models.hpp"
#include "csecg/recovery/pdhg.hpp"
#include "csecg/rng/distributions.hpp"
#include "csecg/sensing/lowres_channel.hpp"
#include "csecg/sensing/matrices.hpp"
#include "csecg/sensing/quantizer.hpp"

namespace csecg {
namespace {

using linalg::Matrix;
using linalg::Vector;

// ---------------------------------------------------------------------------
// Quantizer invariants over every bit depth.

class QuantizerBitsTest : public ::testing::TestWithParam<int> {};

TEST_P(QuantizerBitsTest, FloorBoxAlwaysContainsSample) {
  const int bits = GetParam();
  const sensing::Quantizer q(bits, 0.0, 2048.0,
                             sensing::QuantizerMode::kFloor);
  rng::Xoshiro256 gen(static_cast<std::uint64_t>(bits));
  for (int i = 0; i < 500; ++i) {
    const double v = rng::uniform(gen, 0.0, 2047.999);
    const double edge = q.lower_edge(q.code(v));
    ASSERT_LE(edge, v);
    ASSERT_GT(edge + q.step(), v);
  }
}

TEST_P(QuantizerBitsTest, RoundErrorHalfStep) {
  const int bits = GetParam();
  const sensing::Quantizer q(bits, -100.0, 100.0,
                             sensing::QuantizerMode::kRound);
  rng::Xoshiro256 gen(static_cast<std::uint64_t>(bits) + 100);
  for (int i = 0; i < 500; ++i) {
    const double v = rng::uniform(gen, -100.0, 99.999);
    ASSERT_LE(std::abs(q.reconstruct(q.code(v)) - v),
              q.step() / 2.0 + 1e-12);
  }
}

TEST_P(QuantizerBitsTest, StepTimesLevelsIsRange) {
  const int bits = GetParam();
  const sensing::Quantizer q(bits, 0.0, 2048.0);
  EXPECT_NEAR(q.step() * static_cast<double>(q.levels()), 2048.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(BitDepths, QuantizerBitsTest,
                         ::testing::Values(2, 3, 4, 5, 6, 7, 8, 10, 12));

// ---------------------------------------------------------------------------
// Low-res channel + entropy codecs across every paper bit depth.

class LowResBitsTest : public ::testing::TestWithParam<int> {};

TEST_P(LowResBitsTest, ScalarAndZeroRunCodecsRoundTrip) {
  const int bits = GetParam();
  sensing::LowResConfig config;
  config.bits = bits;
  const sensing::LowResChannel channel(config);

  rng::Xoshiro256 gen(static_cast<std::uint64_t>(bits) * 7 + 1);
  std::vector<std::vector<std::int64_t>> corpus;
  for (int w = 0; w < 6; ++w) {
    Vector window(256);
    double level = 1024.0;
    for (auto& v : window) {
      level += rng::normal(gen, 0.0, 8.0);
      level = std::clamp(level, 0.0, 2047.0);
      v = level;
    }
    corpus.push_back(channel.sample(window).codes);
  }
  const auto scalar = coding::DeltaHuffmanCodec::train(corpus, bits);
  const auto zero_run = coding::ZeroRunDeltaCodec::train(corpus, bits);
  for (const auto& codes : corpus) {
    std::size_t bits_out = 0;
    ASSERT_EQ(scalar.decode(scalar.encode(codes, bits_out), codes.size()),
              codes);
    ASSERT_EQ(
        zero_run.decode(zero_run.encode(codes, bits_out), codes.size()),
        codes);
  }
}

TEST_P(LowResBitsTest, BoxWidthIsExactStep) {
  const int bits = GetParam();
  sensing::LowResConfig config;
  config.bits = bits;
  const sensing::LowResChannel channel(config);
  EXPECT_DOUBLE_EQ(channel.step(),
                   std::pow(2.0, 11 - bits));
}

INSTANTIATE_TEST_SUITE_P(PaperBitRange, LowResBitsTest,
                         ::testing::Range(3, 11));

// ---------------------------------------------------------------------------
// DWT invariants across (family, levels).

using DwtParam = std::tuple<dsp::WaveletFamily, int>;
class DwtLevelsTest : public ::testing::TestWithParam<DwtParam> {};

TEST_P(DwtLevelsTest, PerfectReconstructionAndEnergy) {
  const auto [family, levels] = GetParam();
  const std::size_t n = 256;
  const dsp::Dwt dwt(family, n, levels);
  rng::Xoshiro256 gen(static_cast<std::uint64_t>(levels) * 31 + 5);
  Vector x(n);
  for (auto& v : x) v = rng::normal(gen);
  const Vector coeffs = dwt.forward(x);
  ASSERT_NEAR(linalg::norm2(coeffs), linalg::norm2(x), 1e-9);
  const Vector rec = dwt.inverse(coeffs);
  for (std::size_t i = 0; i < n; ++i) ASSERT_NEAR(rec[i], x[i], 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    FamiliesAndLevels, DwtLevelsTest,
    ::testing::Combine(::testing::Values(dsp::WaveletFamily::kHaar,
                                         dsp::WaveletFamily::kDb4,
                                         dsp::WaveletFamily::kSym6),
                       ::testing::Values(1, 2, 4, 6)));

// ---------------------------------------------------------------------------
// PDHG invariants across measurement counts.

class PdhgMeasurementsTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PdhgMeasurementsTest, SolutionFeasibleAndL1Minimal) {
  const std::size_t m = GetParam();
  const std::size_t n = 128;
  rng::Xoshiro256 gen(m);
  Matrix a(m, n);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) a(i, j) = rng::normal(gen);
  }
  linalg::normalize_columns(a);
  Vector x_true(n);
  for (int k = 0; k < 4; ++k) {
    std::size_t idx = 0;
    do {
      idx = static_cast<std::size_t>(rng::uniform_below(gen, n));
    } while (x_true[idx] != 0.0);
    x_true[idx] = static_cast<double>(rng::rademacher(gen)) *
                  rng::uniform(gen, 1.0, 2.0);
  }
  const Vector y = linalg::multiply(a, x_true);
  const double sigma = 1e-4;
  recovery::PdhgOptions options;
  options.max_iterations = 3000;
  const auto result =
      recovery::solve_bpdn(linalg::LinearOperator::from_matrix(a),
                           linalg::LinearOperator::identity(n), y, sigma,
                           std::nullopt, options);
  // Certified, and within the ball up to the solver's advertised slack
  // (feasibility_tol relative to max(σ, 10⁻³‖y‖)).
  EXPECT_TRUE(result.converged);
  const double resid = linalg::norm2(linalg::multiply(a, result.x) - y);
  EXPECT_LE(resid, sigma +
                       options.feasibility_tol *
                           std::max(sigma, 1e-3 * linalg::norm2(y)) +
                       1e-9);
  // ℓ1 minimality vs the (feasible) ground truth.
  EXPECT_LE(linalg::norm1(result.x),
            linalg::norm1(x_true) * (1.0 + 5e-2));
}

INSTANTIATE_TEST_SUITE_P(MeasurementCounts, PdhgMeasurementsTest,
                         ::testing::Values(24, 32, 48, 64, 96));

// ---------------------------------------------------------------------------
// Front-end invariants across channel counts.

class FrontEndSweepTest : public ::testing::TestWithParam<std::size_t> {
 protected:
  static void SetUpTestSuite() {
    ecg::RecordConfig record_config;
    record_config.duration_seconds = 12.0;
    database_ = new ecg::SyntheticDatabase(record_config, 2015);
    base_ = new core::FrontEndConfig();
    base_->window = 256;
    base_->wavelet_levels = 4;
    base_->solver.max_iterations = 600;
    codec_ = new coding::DeltaHuffmanCodec(
        core::train_lowres_codec(*base_, *database_, 2, 2));
  }
  static void TearDownTestSuite() {
    delete codec_;
    delete base_;
    delete database_;
  }
  static ecg::SyntheticDatabase* database_;
  static core::FrontEndConfig* base_;
  static coding::DeltaHuffmanCodec* codec_;
};

ecg::SyntheticDatabase* FrontEndSweepTest::database_ = nullptr;
core::FrontEndConfig* FrontEndSweepTest::base_ = nullptr;
coding::DeltaHuffmanCodec* FrontEndSweepTest::codec_ = nullptr;

TEST_P(FrontEndSweepTest, HybridNeverWorseThanNormalAndBoxBounded) {
  core::FrontEndConfig config = *base_;
  config.measurements = GetParam();
  const core::Codec codec(config, *codec_);
  const Vector window = database_->record(0).window(500, 256);
  const auto hybrid = codec.roundtrip(window, core::DecodeMode::kHybrid);
  const auto normal = codec.roundtrip(window, core::DecodeMode::kNormalCs);
  const double snr_h =
      metrics::snr_from_prd(metrics::prd_zero_mean(window, hybrid.x));
  const double snr_n =
      metrics::snr_from_prd(metrics::prd_zero_mean(window, normal.x));
  EXPECT_GE(snr_h, snr_n - 0.5);  // Never meaningfully worse.
  // Box keeps the hybrid within two staircase steps everywhere.
  for (std::size_t i = 0; i < window.size(); ++i) {
    ASSERT_NEAR(hybrid.x[i], window[i], 32.0);
  }
}

INSTANTIATE_TEST_SUITE_P(ChannelCounts, FrontEndSweepTest,
                         ::testing::Values(16, 32, 64, 96, 128));

// ---------------------------------------------------------------------------
// Power-model invariants across designs.

class PowerLinearityTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, double>> {};

TEST_P(PowerLinearityTest, TotalPowerLinearInChannels) {
  const auto [window, fs] = GetParam();
  power::TechnologyParams tech;
  power::RmpiDesign a;
  a.window = window;
  a.nyquist_hz = fs;
  a.channels = 32;
  power::RmpiDesign b = a;
  b.channels = 128;
  const double pa = power::rmpi_power(a, tech).total();
  const double pb = power::rmpi_power(b, tech).total();
  EXPECT_NEAR(pb / pa, 4.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Designs, PowerLinearityTest,
    ::testing::Combine(::testing::Values(std::size_t{256}, std::size_t{512},
                                         std::size_t{1024}),
                       ::testing::Values(360.0, 720.0, 1e6)));

// ---------------------------------------------------------------------------
// Sensing ensembles: adjoint consistency at several shapes.

using EnsembleParam = std::tuple<sensing::Ensemble, std::size_t>;
class EnsembleShapeTest : public ::testing::TestWithParam<EnsembleParam> {};

TEST_P(EnsembleShapeTest, OperatorAdjointConsistent) {
  const auto [ensemble, m] = GetParam();
  sensing::SensingConfig config;
  config.ensemble = ensemble;
  config.measurements = m;
  config.window = 128;
  const Matrix phi = sensing::make_sensing_matrix(config);
  EXPECT_LT(
      linalg::adjoint_mismatch(linalg::LinearOperator::from_matrix(phi)),
      1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    EnsemblesAndShapes, EnsembleShapeTest,
    ::testing::Combine(::testing::Values(sensing::Ensemble::kRademacher,
                                         sensing::Ensemble::kGaussian,
                                         sensing::Ensemble::kSparseBinary),
                       ::testing::Values(std::size_t{16}, std::size_t{64},
                                         std::size_t{128})));

}  // namespace
}  // namespace csecg
