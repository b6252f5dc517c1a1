#include "layers.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "csecg/coding/decode_error.hpp"
#include "csecg/link/arq.hpp"
#include "csecg/link/channel.hpp"

namespace perfbench {
namespace {

// The encoder and decoder derive their RMPI and low-res channel from the
// front-end config the same way; these mirror that derivation.
sensing::RmpiConfig rmpi_config_from(const core::FrontEndConfig& config) {
  sensing::RmpiConfig rmpi;
  rmpi.channels = config.measurements;
  rmpi.window = config.window;
  rmpi.chip_seed = config.chip_seed;
  rmpi.integrator_leakage = config.integrator_leakage;
  rmpi.adc_bits = config.measurement_adc_bits;
  rmpi.input_full_scale = config.dc_reference();
  return rmpi;
}

std::optional<sensing::LowResChannel> lowres_from(
    const core::FrontEndConfig& config) {
  if (config.lowres_bits == 0) return std::nullopt;
  sensing::LowResConfig lowres;
  lowres.bits = config.lowres_bits;
  lowres.full_scale_bits = config.record_bits;
  return sensing::LowResChannel(lowres);
}

linalg::Matrix gram_of(const linalg::Matrix& phi) {
  return linalg::multiply(phi, linalg::transpose(phi));
}

}  // namespace

power::NodeEnergy price_window(const core::FrontEndConfig& config,
                               const link::LinkSessionConfig& link,
                               std::size_t tx_bits, std::size_t rx_bits) {
  power::RmpiDesign cs_path;
  cs_path.channels = config.measurements;
  cs_path.window = config.window;
  cs_path.adc_bits = config.measurement_adc_bits;
  cs_path.nyquist_hz = link.nyquist_hz;
  const double window_seconds =
      static_cast<double>(config.window) / link.nyquist_hz;
  if (config.lowres_bits > 0) {
    power::HybridDesign design;
    design.cs_path = cs_path;
    design.lowres_bits = config.lowres_bits;
    return power::link_window_energy(design, link.tech, link.node, tx_bits,
                                     rx_bits, window_seconds);
  }
  return power::link_window_energy(cs_path, link.tech, link.node, tx_bits,
                                   rx_bits, window_seconds);
}

linalg::LinearOperator timed_operator(const linalg::LinearOperator& inner,
                                      OpTally& tally) {
  const double bytes_per_call =
      8.0 * static_cast<double>(inner.rows() * inner.cols() + inner.rows() +
                                inner.cols());
  auto timed = [&tally, bytes_per_call](auto&& product) {
    const std::int64_t t0 = now_ns();
    product();
    tally.ns += now_ns() - t0;
    ++tally.calls;
    tally.bytes += bytes_per_call;
  };
  return linalg::LinearOperator(
      inner.rows(), inner.cols(),
      [&inner, timed](const linalg::Vector& x) {
        linalg::Vector y;
        timed([&] { y = inner.apply(x); });
        return y;
      },
      [&inner, timed](const linalg::Vector& y) {
        linalg::Vector x;
        timed([&] { x = inner.apply_adjoint(y); });
        return x;
      },
      [&inner, timed](const linalg::Vector& x, linalg::Vector& y) {
        timed([&] { inner.apply_into(x, y); });
      },
      [&inner, timed](const linalg::Vector& y, linalg::Vector& x) {
        timed([&] { inner.apply_adjoint_into(y, x); });
      });
}

// ---------------------------------------------------------------------------
// Encoder.

EncoderLayers::EncoderLayers(
    const core::FrontEndConfig& config,
    const std::optional<coding::DeltaHuffmanCodec>& codec)
    : config_(config),
      rmpi_(rmpi_config_from(config)),
      lowres_(lowres_from(config)),
      codec_(codec) {}

core::Frame EncoderLayers::encode(const linalg::Vector& window,
                                  WindowTrace& trace) const {
  const Scope encode_span(trace, "encode");
  core::Frame frame;
  frame.window = config_.window;
  frame.measurement_bits = config_.measurement_adc_bits;
  {
    const Scope span(trace, "rmpi");
    const double dc = config_.dc_reference();
    linalg::Vector ac = window;
    for (auto& v : ac) v -= dc;
    frame.measurements = rmpi_.measure(ac);
  }
  if (lowres_) {
    Scope lowres_span(trace, "lowres");
    const sensing::LowResOutput out = lowres_->sample(window);
    lowres_span.stop();
    const Scope huffman_span(trace, "huffman");
    frame.lowres_payload = codec_->encode(out.codes, frame.lowres_bits);
  }
  return frame;
}

// ---------------------------------------------------------------------------
// Decoder.

DecoderLayers::DecoderLayers(
    const core::FrontEndConfig& config,
    const std::optional<coding::DeltaHuffmanCodec>& codec)
    : config_(config),
      rmpi_(rmpi_config_from(config)),
      lowres_(lowres_from(config)),
      codec_(codec),
      dwt_(config.wavelet, config.window, config.wavelet_levels),
      phi_dense_(rmpi_.effective_matrix()),
      phi_(linalg::LinearOperator::from_matrix(phi_dense_)),
      psi_(dwt_.synthesis_operator()),
      gram_(gram_of(phi_dense_)) {
  phi_norm_ = linalg::operator_norm_estimate(phi_, 60);
  sigma_ = config_.sigma_scale * rmpi_.expected_quantization_noise_norm();
}

recovery::BoxConstraint DecoderLayers::box_from_codes(
    const std::vector<std::int64_t>& codes) const {
  const double dc = config_.dc_reference();
  const linalg::Vector lower = lowres_->reconstruct(codes);
  recovery::BoxConstraint constraint;
  constraint.lower = lower;
  constraint.upper = lower;
  const double step = lowres_->step();
  for (std::size_t i = 0; i < config_.window; ++i) {
    constraint.lower[i] -= dc;
    constraint.upper[i] += step - dc;
  }
  return constraint;
}

recovery::PdhgResult DecoderLayers::solve(
    const linalg::LinearOperator& phi, const linalg::Vector& y, double sigma,
    const std::optional<recovery::BoxConstraint>& box, linalg::Vector x0,
    WindowTrace& trace) const {
  recovery::PdhgOptions options = config_.solver;
  options.phi_norm_hint = phi_norm_;
  options.x0 = std::move(x0);
  const linalg::LinearOperator phi_timed = timed_operator(phi, trace.phi);
  const linalg::LinearOperator psi_timed = timed_operator(psi_, trace.psi);
  const Scope span(trace, "solve");
  recovery::PdhgResult result =
      recovery::solve_bpdn(phi_timed, psi_timed, y, sigma, box, options);
  trace.iterations = result.iterations;
  return result;
}

core::DecodeResult DecoderLayers::decode(const core::Frame& frame,
                                         core::DecodeMode mode,
                                         WindowTrace& trace) const {
  const Scope decode_span(trace, "decode");
  const bool use_box = mode != core::DecodeMode::kNormalCs &&
                       !frame.lowres_payload.empty() && lowres_.has_value();
  std::optional<recovery::BoxConstraint> box;
  if (use_box) {
    Scope huffman_span(trace, "huffman_decode");
    try {
      const std::vector<std::int64_t> codes =
          codec_->decode(frame.lowres_payload, config_.window);
      huffman_span.stop();
      const std::int64_t levels = std::int64_t{1} << config_.lowres_bits;
      for (const std::int64_t code : codes) {
        CSECG_DECODE_CHECK(code >= 0 && code < levels,
                           "low-res code " << code << " out of range");
      }
      box = box_from_codes(codes);
    } catch (const coding::DecodeError&) {
      if (mode == core::DecodeMode::kHybrid) throw;
      box.reset();
    }
  }
  linalg::Vector x0;
  if (!box) {
    const Scope span(trace, "warmstart");
    x0 = phi_.apply_adjoint(gram_.solve(frame.measurements));
  }
  core::DecodeResult result;
  result.used_box = box.has_value();
  result.solver = solve(phi_, frame.measurements, sigma_, box, std::move(x0),
                        trace);
  result.x = result.solver.x;
  const double dc = config_.dc_reference();
  for (auto& v : result.x) v += dc;
  return result;
}

core::LossyDecodeResult DecoderLayers::decode_lossy(
    const core::LossyWindow& window, WindowTrace& trace) const {
  const Scope decode_span(trace, "decode");
  const std::size_t n = config_.window;
  const std::size_t m = config_.measurements;
  core::LossyDecodeResult result;
  for (const std::uint8_t bit : window.measurement_mask) {
    result.effective_m += (bit != 0);
  }

  const double dc = config_.dc_reference();
  std::vector<std::int64_t> codes;
  std::vector<std::uint8_t> code_mask;
  if (!window.lowres_mask.empty() && lowres_.has_value()) {
    const std::int64_t levels = std::int64_t{1} << config_.lowres_bits;
    codes.assign(n, 0);
    code_mask.assign(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
      const std::int64_t code = window.lowres_codes[i];
      if (window.lowres_mask[i] != 0 && code >= 0 && code < levels) {
        codes[i] = code;
        code_mask[i] = 1;
        ++result.boxed_samples;
      }
    }
  }

  if (result.effective_m == 0) {
    // Whole CS train lost: the low-res staircase, forward-filled.
    result.lowres_only = true;
    result.x = linalg::Vector(n);
    double fill = dc;
    if (result.boxed_samples > 0) {
      const double half_step = 0.5 * lowres_->step();
      for (std::size_t i = 0; i < n; ++i) {
        if (code_mask[i] != 0) {
          fill = lowres_->reconstruct({codes[i]})[0] + half_step;
          break;
        }
      }
      for (std::size_t i = 0; i < n; ++i) {
        if (code_mask[i] != 0) {
          fill = lowres_->reconstruct({codes[i]})[0] + half_step;
        }
        result.x[i] = fill;
      }
    } else {
      for (std::size_t i = 0; i < n; ++i) result.x[i] = dc;
    }
    return result;
  }

  std::optional<recovery::BoxConstraint> box;
  if (result.boxed_samples == n) {
    box = box_from_codes(codes);
  } else if (result.boxed_samples > 0) {
    recovery::BoxConstraint widened = box_from_codes(codes);
    const double lo_rail = -dc;
    const double hi_rail =
        static_cast<double>(std::int64_t{1} << config_.record_bits) - dc;
    for (std::size_t i = 0; i < n; ++i) {
      if (code_mask[i] == 0) {
        widened.lower[i] = lo_rail;
        widened.upper[i] = hi_rail;
      }
    }
    box = std::move(widened);
  }
  result.used_box = box.has_value();

  if (result.effective_m == m) {
    linalg::Vector x0;
    if (!box) {
      const Scope span(trace, "warmstart");
      x0 = phi_.apply_adjoint(gram_.solve(window.measurements));
    }
    result.solver = solve(phi_, window.measurements, sigma_, box,
                          std::move(x0), trace);
  } else {
    // Row-dropped solve on a per-window copy of the surviving Φ rows.
    const std::size_t eff_m = result.effective_m;
    linalg::Matrix sub(eff_m, n);
    linalg::Vector y_kept(eff_m);
    std::size_t row = 0;
    for (std::size_t i = 0; i < m; ++i) {
      if (window.measurement_mask[i] == 0) continue;
      const double* src = phi_dense_.row(i);
      std::copy(src, src + n, sub.row(row));
      y_kept[row] = window.measurements[i];
      ++row;
    }
    const linalg::LinearOperator phi_sub =
        linalg::LinearOperator::from_matrix(sub);
    const double sigma_eff =
        sigma_ * std::sqrt(static_cast<double>(eff_m) /
                           static_cast<double>(m));
    linalg::Vector x0;
    if (!box) {
      const Scope span(trace, "warmstart");
      try {
        const linalg::Cholesky chol(gram_of(sub));
        x0 = phi_sub.apply_adjoint(chol.solve(y_kept));
      } catch (const std::exception&) {
        // Surviving rows numerically dependent: cold start, as the decoder.
      }
    }
    result.solver =
        solve(phi_sub, y_kept, sigma_eff, box, std::move(x0), trace);
  }
  result.x = result.solver.x;
  for (auto& v : result.x) v += dc;
  return result;
}

// ---------------------------------------------------------------------------
// Link.

LinkLayers::LinkLayers(const link::LinkSession& session,
                       const std::optional<coding::DeltaHuffmanCodec>& codec)
    : session_(session),
      encoder_(session.config(), codec),
      decoder_(session.config(), codec),
      packetizer_(session.link_config().packetizer,
                  *session.encoder().measurement_adc(), codec),
      reassembler_(session.config().measurements, session.config().window,
                   *session.encoder().measurement_adc(), codec,
                   session.link_config().packetizer.stream_id) {}

link::WindowResult LinkLayers::transmit_window(const linalg::Vector& window,
                                               std::uint32_t sequence,
                                               WindowTrace& trace) const {
  const link::LinkSessionConfig& config = session_.link_config();
  const core::Frame frame = encoder_.encode(window, trace);
  const auto window_seq = static_cast<std::uint16_t>(sequence & 0xFFFFu);
  Scope packetize_span(trace, "packetize");
  const auto packets = packetizer_.packetize(frame, window_seq);
  packetize_span.stop();

  link::WindowResult out;
  Scope channel_span(trace, "channel");
  link::Channel channel(config.channel, session_.channel_seed(sequence));
  const auto delivered =
      link::transmit_packets(packets, channel, config.arq, out.stats);
  channel_span.stop();

  Scope reassemble_span(trace, "reassemble");
  const link::ReassemblyResult reassembled =
      reassembler_.reassemble(window_seq, delivered);
  reassemble_span.stop();

  out.decoded = decoder_.decode_lossy(reassembled.window, trace);
  out.stats.effective_m = out.decoded.effective_m;
  out.stats.boxed_samples = out.decoded.boxed_samples;
  out.energy = price_window(session_.config(), config, out.stats.data_bits,
                            out.stats.feedback_bits);
  return out;
}

}  // namespace perfbench
