// The traced run's layer chain.  Each class below redoes one public
// library call — Encoder::encode, Decoder::decode / decode_lossy,
// LinkSession::transmit_window — through the public calls of the layers
// beneath it, with a span around each layer and timers wrapped around the
// Φ and Ψ operators the solver sees.  The benchmark checks that every
// replica reproduces its public call bit for bit, so the per-layer times
// belong to the same computation the end-to-end numbers measure.
#pragma once

#include <cstdint>
#include <optional>

#include "csecg/coding/delta_huffman_codec.hpp"
#include "csecg/core/config.hpp"
#include "csecg/core/frame.hpp"
#include "csecg/core/frontend.hpp"
#include "csecg/dsp/dwt.hpp"
#include "csecg/linalg/matrix.hpp"
#include "csecg/linalg/operator.hpp"
#include "csecg/linalg/solve.hpp"
#include "csecg/link/session.hpp"
#include "csecg/power/node_energy.hpp"
#include "csecg/recovery/pdhg.hpp"
#include "csecg/sensing/lowres_channel.hpp"
#include "csecg/sensing/rmpi.hpp"
#include "spans.hpp"

namespace perfbench {

using namespace csecg;

/// Node energy of one window whose radio sent `tx_bits` and received
/// `rx_bits`, priced the way LinkSession prices a window.
power::NodeEnergy price_window(const core::FrontEndConfig& config,
                               const link::LinkSessionConfig& link,
                               std::size_t tx_bits, std::size_t rx_bits);

/// Wraps `inner` so every product adds its time, call count and computed
/// bytes to `tally`.  The products themselves are `inner`'s, unchanged.
/// `inner` and `tally` must outlive the returned operator.
linalg::LinearOperator timed_operator(const linalg::LinearOperator& inner,
                                      OpTally& tally);

/// Encoder::encode as spans "rmpi", "lowres", "huffman".
class EncoderLayers {
 public:
  EncoderLayers(const core::FrontEndConfig& config,
                const std::optional<coding::DeltaHuffmanCodec>& codec);
  core::Frame encode(const linalg::Vector& window, WindowTrace& trace) const;

 private:
  core::FrontEndConfig config_;
  sensing::RmpiSimulator rmpi_;
  std::optional<sensing::LowResChannel> lowres_;
  std::optional<coding::DeltaHuffmanCodec> codec_;
};

/// Decoder::decode and decode_lossy as spans "huffman_decode",
/// "warmstart" and "solve", with Φ/Ψ tallied inside the solve.
class DecoderLayers {
 public:
  DecoderLayers(const core::FrontEndConfig& config,
                const std::optional<coding::DeltaHuffmanCodec>& codec);
  core::DecodeResult decode(const core::Frame& frame, core::DecodeMode mode,
                            WindowTrace& trace) const;
  core::LossyDecodeResult decode_lossy(const core::LossyWindow& window,
                                       WindowTrace& trace) const;

 private:
  recovery::BoxConstraint box_from_codes(
      const std::vector<std::int64_t>& codes) const;
  /// solve_bpdn on timed Φ/Ψ from warm start `x0` (empty = the solver's
  /// default start); returns the AC-domain solver result.
  recovery::PdhgResult solve(const linalg::LinearOperator& phi,
                             const linalg::Vector& y, double sigma,
                             const std::optional<recovery::BoxConstraint>& box,
                             linalg::Vector x0, WindowTrace& trace) const;

  core::FrontEndConfig config_;
  sensing::RmpiSimulator rmpi_;
  std::optional<sensing::LowResChannel> lowres_;
  std::optional<coding::DeltaHuffmanCodec> codec_;
  dsp::Dwt dwt_;
  linalg::Matrix phi_dense_;
  linalg::LinearOperator phi_;
  linalg::LinearOperator psi_;
  linalg::Cholesky gram_;
  double phi_norm_ = 0.0;
  double sigma_ = 0.0;
};

/// LinkSession::transmit_window as spans "encode", "packetize",
/// "channel", "reassemble" and "decode" under the window root.
class LinkLayers {
 public:
  LinkLayers(const link::LinkSession& session,
             const std::optional<coding::DeltaHuffmanCodec>& codec);
  link::WindowResult transmit_window(const linalg::Vector& window,
                                     std::uint32_t sequence,
                                     WindowTrace& trace) const;

 private:
  const link::LinkSession& session_;
  EncoderLayers encoder_;
  DecoderLayers decoder_;
  link::Packetizer packetizer_;
  link::Reassembler reassembler_;
};

}  // namespace perfbench
