// Deterministic reference fixtures shared by the fuzz targets, the
// golden-fixture tests, and the committed regression corpus.
//
// Every decoder under test needs design-time context (an ADC geometry, a
// trained codebook) before it can be fed bytes.  These fixtures pin that
// context to constants derived from the repo's own deterministic RNG, so
// a corpus file committed today decodes against byte-identical context on
// every platform and every future revision — or the golden tests fail
// loudly, which is exactly the signal a wire-format change must produce.
#pragma once

#include <cstdint>
#include <vector>

#include "csecg/coding/delta_huffman_codec.hpp"
#include "csecg/coding/huffman.hpp"
#include "csecg/coding/zero_run_codec.hpp"
#include "csecg/sensing/quantizer.hpp"

namespace csecg::fuzz {

/// The reference measurement ADC for packet and reassembler fuzzing: 8-bit
/// over [−4, 4).
const sensing::Quantizer& reference_adc();

/// Reference 7-bit delta-Huffman codec (trained on the staircase corpus,
/// seed 17).
const coding::DeltaHuffmanCodec& reference_delta_codec();

/// Reference 5-bit zero-run codec (trained on the staircase corpus,
/// seed 9).
const coding::ZeroRunDeltaCodec& reference_zero_run_codec();

/// The reference delta codec's codebook (codebook deserialize fuzzing).
const coding::HuffmanCodebook& reference_codebook();

/// Deterministic random-walk training windows: 16 windows × 256 codes of
/// a clamped ±1 staircase over the B-bit range — the same shape the unit
/// tests train on.
std::vector<std::vector<std::int64_t>> staircase_corpus(int code_bits,
                                                        std::uint64_t seed);

}  // namespace csecg::fuzz
