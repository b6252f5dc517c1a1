// The per-window transmission frame (paper Fig. 1: "collected data from
// both paths are transmitted at a fixed time window").  Its on-air form is
// the link layer's packet train (csecg::link::Packetizer), which carries
// the measurements as their ADC codes, as the radio of a real node would.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "csecg/linalg/vector.hpp"

namespace csecg::core {

/// One window's payload: the CS channel's quantized measurements plus the
/// delta-Huffman-coded low-resolution stream.
struct Frame {
  /// Quantized measurement values y (reconstruction levels of the
  /// measurement ADC, in input units).
  linalg::Vector measurements;
  /// Bits per transmitted measurement (the measurement ADC resolution).
  int measurement_bits = 0;

  /// Entropy-coded low-resolution payload; empty when the parallel channel
  /// is disabled.
  std::vector<std::uint8_t> lowres_payload;
  /// Exact low-resolution bit count before byte padding.
  std::size_t lowres_bits = 0;

  /// Window length n the frame describes.
  std::size_t window = 0;

  /// Air bits spent by the CS channel.
  std::size_t cs_bits() const noexcept {
    return measurements.size() * static_cast<std::size_t>(measurement_bits);
  }

  /// Total air bits of the frame.
  std::size_t total_bits() const noexcept { return cs_bits() + lowres_bits; }
};

}  // namespace csecg::core
