// Golden serialized fixtures + round-trip property tests for every wire
// format the untrusted-input decoders parse.
//
// The golden hex strings pin the exact bytes the encoders emit today.
// If an encoder change breaks one, that change ALTERED A WIRE FORMAT:
// either it is a bug, or the format version is being bumped on purpose —
// in which case update the hex here, regenerate tests/corpus/ with
// `fuzz_driver --write-corpus tests/corpus`, and note the break in
// DESIGN.md §9.  A silent format drift would orphan every committed
// corpus file and any data captured by a deployed node.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "csecg/coding/bitstream.hpp"
#include "csecg/coding/decode_error.hpp"
#include "csecg/coding/delta.hpp"
#include "csecg/coding/huffman.hpp"
#include "csecg/coding/zero_run_codec.hpp"
#include "csecg/fuzz/fixtures.hpp"
#include "csecg/fuzz/targets.hpp"
#include "csecg/rng/distributions.hpp"
#include "csecg/rng/xoshiro.hpp"

namespace csecg {
namespace {

std::string hex(const std::vector<std::uint8_t>& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (const std::uint8_t byte : bytes) {
    out.push_back(kDigits[byte >> 4]);
    out.push_back(kDigits[byte & 0xF]);
  }
  return out;
}

// --- Golden fixtures (byte-exact, see header comment before editing).

TEST(Golden, DeltaCodebookSerialization) {
  EXPECT_EQ(hex(fuzz::reference_codebook().serialize()),
            "02030101020000ffff01008000");
}

TEST(Golden, ZeroRunCodebookSerialization) {
  EXPECT_EQ(hex(fuzz::reference_zero_run_codec().codebook().serialize()),
            "01030101022101ff20");
}

TEST(Golden, DeltaHuffmanPayload) {
  std::size_t bits = 0;
  const auto payload =
      fuzz::reference_delta_codec().encode({3, 3, 4, 5, 5, 4, 3}, bits);
  EXPECT_EQ(hex(payload), "06d940");
  EXPECT_EQ(bits, 19u);
}

TEST(Golden, ZeroRunPayload) {
  std::size_t bits = 0;
  const auto payload = fuzz::reference_zero_run_codec().encode(
      {12, 12, 12, 12, 12, 13, 13, 13}, bits);
  EXPECT_EQ(hex(payload), "609100");
  EXPECT_EQ(bits, 17u);
}

TEST(Golden, PacketSeedBytes) {
  EXPECT_EQ(hex(fuzz::seed_corpus(fuzz::Target::kPacket)[0]),
            "a70000010000000100000010008000254a6f94b9de03284d7297bce1062b"
            "30df");
}

// --- Round-trip property tests.

TEST(RoundTrip, BitstreamRandomPrograms) {
  rng::Xoshiro256 gen(1234);
  for (int trial = 0; trial < 50; ++trial) {
    coding::BitWriter writer;
    std::vector<std::pair<std::uint64_t, int>> writes;
    for (int i = 0; i < 100; ++i) {
      const int width = static_cast<int>(rng::uniform_below(gen, 65));
      const std::uint64_t value =
          width == 64 ? gen.next()
                      : gen.next() & ((std::uint64_t{1} << width) - 1);
      writer.write(value, width);
      writes.emplace_back(value, width);
    }
    coding::BitReader reader(writer.finish());
    for (const auto& [value, width] : writes) {
      EXPECT_EQ(reader.read(width), value);
    }
  }
}

TEST(RoundTrip, BitstreamZeroWidthAndWordEdges) {
  coding::BitWriter writer;
  writer.write(0, 0);  // Zero-width write is a no-op...
  writer.write(~std::uint64_t{0}, 64);
  writer.write(0, 0);
  writer.write(1, 1);
  writer.write(std::uint64_t{1} << 63 | 1, 64);
  EXPECT_EQ(writer.bit_count(), 129u);
  coding::BitReader reader(writer.finish());
  EXPECT_EQ(reader.read(0), 0u);  // ...and a zero-width read reads nothing,
  EXPECT_EQ(reader.read(64), ~std::uint64_t{0});
  EXPECT_EQ(reader.read(0), 0u);  // even at a word boundary.
  EXPECT_EQ(reader.read(1), 1u);
  EXPECT_EQ(reader.read(64), std::uint64_t{1} << 63 | 1);
  EXPECT_EQ(reader.read(7), 0u);  // finish() zero-pads to a byte boundary.
  EXPECT_THROW((void)reader.read_bit(), coding::DecodeError);
}

TEST(RoundTrip, DeltaCoding) {
  rng::Xoshiro256 gen(77);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<std::int64_t> codes;
    for (int i = 0; i < 200; ++i) {
      codes.push_back(static_cast<std::int64_t>(
                          rng::uniform_below(gen, 1 << 10)) -
                      512);
    }
    EXPECT_EQ(coding::delta_decode(coding::delta_encode(codes)), codes);
  }
}

TEST(RoundTrip, WindowCodecsOnRandomStaircases) {
  const auto& delta = fuzz::reference_delta_codec();
  const auto& zero_run = fuzz::reference_zero_run_codec();
  for (std::uint64_t seed = 50; seed < 55; ++seed) {
    for (const auto& window : fuzz::staircase_corpus(5, seed)) {
      std::size_t bits = 0;
      EXPECT_EQ(zero_run.decode(zero_run.encode(window, bits),
                                window.size()),
                window);
      EXPECT_EQ(delta.decode(delta.encode(window, bits), window.size()),
                window);
    }
  }
}

TEST(RoundTrip, CodebookSerializationOnRandomHistograms) {
  rng::Xoshiro256 gen(99);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<std::pair<std::int64_t, std::uint64_t>> histogram;
    const std::size_t symbols = 1 + rng::uniform_below(gen, 40);
    for (std::size_t s = 0; s < symbols; ++s) {
      histogram.emplace_back(
          static_cast<std::int64_t>(s) - 20,
          1 + rng::uniform_below(gen, 1000));
    }
    const auto book = coding::HuffmanCodebook::build(histogram);
    const auto restored =
        coding::HuffmanCodebook::deserialize(book.serialize());
    ASSERT_EQ(restored.entries().size(), book.entries().size());
    for (std::size_t i = 0; i < book.entries().size(); ++i) {
      EXPECT_EQ(restored.entries()[i].symbol, book.entries()[i].symbol);
      EXPECT_EQ(restored.entries()[i].length, book.entries()[i].length);
      EXPECT_EQ(restored.entries()[i].code, book.entries()[i].code);
    }
  }
}

TEST(RoundTrip, SingleSymbolCodebookSurvivesSerialization) {
  // The one legal Kraft-incomplete shape: a lone symbol with a 1-bit
  // code.  The deserializer's completeness check must admit exactly it.
  const auto book = coding::HuffmanCodebook::build({{-3, 7}});
  const auto restored =
      coding::HuffmanCodebook::deserialize(book.serialize());
  ASSERT_EQ(restored.entries().size(), 1u);
  EXPECT_EQ(restored.entries()[0].symbol, -3);
  EXPECT_EQ(restored.entries()[0].length, 1);
}

TEST(RoundTrip, EliasGammaEdgeValues) {
  for (const std::uint64_t value :
       {std::uint64_t{1}, std::uint64_t{2}, std::uint64_t{3},
        std::uint64_t{255}, std::uint64_t{1} << 32,
        (std::uint64_t{1} << 63) - 1, std::uint64_t{1} << 63,
        ~std::uint64_t{0}}) {
    coding::BitWriter writer;
    coding::elias_gamma_encode(value, writer);
    coding::BitReader reader(writer.finish());
    EXPECT_EQ(coding::elias_gamma_decode(reader), value) << value;
  }
}

}  // namespace
}  // namespace csecg
