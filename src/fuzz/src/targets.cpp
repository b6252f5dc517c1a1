#include "csecg/fuzz/targets.hpp"

#include <algorithm>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "csecg/coding/bitstream.hpp"
#include "csecg/coding/decode_error.hpp"
#include "csecg/common/check.hpp"
#include "csecg/fuzz/fixtures.hpp"
#include "csecg/link/packet.hpp"
#include "csecg/link/packetizer.hpp"
#include "csecg/rng/distributions.hpp"

namespace csecg::fuzz {
namespace {

// Geometry of the reference reassembler (small enough that a fuzz
// iteration is cheap, large enough to exercise range arithmetic).
constexpr std::size_t kReassemblerMeasurements = 16;
constexpr std::size_t kReassemblerWindow = 64;
constexpr std::uint16_t kReassemblerStream = 1;

// Inputs larger than this are clipped before running: every decoder's
// allocation is bounded by a small multiple of input size, so giant
// inputs only cost time, not coverage.
constexpr std::size_t kMaxInputBytes = std::size_t{1} << 16;

const link::Reassembler& reference_reassembler() {
  static const link::Reassembler reassembler(
      kReassemblerMeasurements, kReassemblerWindow, reference_adc(),
      reference_delta_codec(), kReassemblerStream);
  return reassembler;
}

std::string hex_dump(const Bytes& input) {
  static constexpr char kDigits[] = "0123456789abcdef";
  const std::size_t shown = std::min<std::size_t>(input.size(), 256);
  std::string out;
  out.reserve(shown * 2 + 16);
  for (std::size_t i = 0; i < shown; ++i) {
    out.push_back(kDigits[input[i] >> 4]);
    out.push_back(kDigits[input[i] & 0xF]);
  }
  if (shown < input.size()) out += "…";
  return out;
}

[[noreturn]] void violation(Target target, const Bytes& input,
                            const std::string& defect) {
  std::ostringstream oss;
  oss << "fuzz contract violation [" << target_name(target)
      << "]: " << defect << "; input (" << input.size()
      << " bytes): " << hex_dump(input);
  throw ContractViolation(oss.str());
}

// --- per-target drivers.  Each returns the outcome and lets only
// *disallowed* exceptions escape; run_one converts those to
// ContractViolation.

Outcome run_codebook(const Bytes& input) {
  coding::HuffmanCodebook book;
  try {
    book = coding::HuffmanCodebook::deserialize(input);
  } catch (const coding::DecodeError&) {
    return Outcome::kRejected;
  }
  // An accepted codebook must survive its own serialization cycle with
  // identical canonical entries (serialize may legally narrow the symbol
  // width, so compare entries, not bytes).
  const coding::HuffmanCodebook again =
      coding::HuffmanCodebook::deserialize(book.serialize());
  if (again.entries().size() != book.entries().size()) {
    violation(Target::kCodebook, input,
              "serialize/deserialize cycle changed the entry count");
  }
  for (std::size_t i = 0; i < book.entries().size(); ++i) {
    if (again.entries()[i].symbol != book.entries()[i].symbol ||
        again.entries()[i].length != book.entries()[i].length ||
        again.entries()[i].code != book.entries()[i].code) {
      violation(Target::kCodebook, input,
                "serialize/deserialize cycle changed an entry");
    }
  }
  return Outcome::kAccepted;
}

// The window codecs take (payload, count); the harness derives the count
// from the first input byte so the mutators can probe count/payload
// mismatches, and feeds the rest as payload.
template <typename Codec>
Outcome run_window_codec(Target target, const Codec& codec,
                         const Bytes& input) {
  const std::size_t count = input.empty() ? 1 : 1 + input[0];
  const Bytes payload(input.begin() + (input.empty() ? 0 : 1), input.end());
  std::vector<std::int64_t> codes;
  try {
    codes = codec.decode(payload, count);
  } catch (const coding::DecodeError&) {
    return Outcome::kRejected;
  }
  if (codes.size() != count) {
    violation(target, input, "decode returned the wrong sample count");
  }
  return Outcome::kAccepted;
}

Outcome run_bitreader(const Bytes& input) {
  coding::BitReader reader(input);
  // Read program: chunk widths in [0, 64] derived from the input itself,
  // so mutations explore width sequences as well as payloads.  The step
  // bound makes all-zero-width programs terminate.
  const std::size_t max_steps = input.size() * 8 + 16;
  try {
    for (std::size_t step = 0; step < max_steps; ++step) {
      const int width =
          input.empty() ? 1 : input[step % input.size()] % 65;
      const std::uint64_t value = reader.read(width);
      (void)value;
    }
  } catch (const coding::DecodeError&) {
    return Outcome::kRejected;
  }
  return Outcome::kAccepted;
}

Outcome run_packet(const Bytes& input) {
  const std::optional<link::Packet> parsed = link::parse_packet(input);
  if (!parsed.has_value()) return Outcome::kRejected;
  // A CRC-verified packet must round-trip byte-exactly.
  const Bytes again = link::serialize_packet(parsed->header, parsed->payload);
  if (again != input) {
    violation(Target::kPacket, input,
              "accepted packet does not re-serialize to the same bytes");
  }
  return Outcome::kAccepted;
}

// Reassembler input format: a train of [len u16 big-endian][chunk bytes]
// records; each chunk is one delivered "packet".  A length that overruns
// the remaining bytes takes what is left.
std::vector<Bytes> split_delivered(const Bytes& input) {
  std::vector<Bytes> delivered;
  std::size_t i = 0;
  while (i + 2 <= input.size() && delivered.size() < 64) {
    const std::size_t length =
        (static_cast<std::size_t>(input[i]) << 8) | input[i + 1];
    i += 2;
    const std::size_t take = std::min(length, input.size() - i);
    delivered.emplace_back(input.begin() + static_cast<std::ptrdiff_t>(i),
                           input.begin() +
                               static_cast<std::ptrdiff_t>(i + take));
    i += take;
  }
  return delivered;
}

Outcome run_reassembler(const Bytes& input) {
  const std::vector<Bytes> delivered = split_delivered(input);
  const link::ReassemblyResult result =
      reference_reassembler().reassemble(0, delivered);
  if (result.packets_accepted + result.packets_rejected != delivered.size()) {
    violation(Target::kReassembler, input,
              "accepted + rejected does not add up to delivered");
  }
  return result.packets_accepted > 0 ? Outcome::kAccepted
                                     : Outcome::kRejected;
}

// --- seed-corpus builders.

Bytes with_count_prefix(std::uint8_t count_minus_one, const Bytes& payload) {
  Bytes out;
  out.reserve(payload.size() + 1);
  out.push_back(count_minus_one);
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

template <typename Codec>
std::vector<Bytes> window_codec_seeds(const Codec& codec, int code_bits) {
  std::vector<Bytes> seeds;
  const auto corpus = staircase_corpus(code_bits, 101);
  for (std::size_t w = 0; w < 3; ++w) {
    std::vector<std::int64_t> window(corpus[w].begin(),
                                     corpus[w].begin() + 64);
    std::size_t bits = 0;
    seeds.push_back(with_count_prefix(63, codec.encode(window, bits)));
  }
  // A one-sample window: header-only payloads exercise the first-code
  // path alone.
  std::size_t bits = 0;
  seeds.push_back(
      with_count_prefix(0, codec.encode({std::int64_t{3}}, bits)));
  return seeds;
}

Bytes packed_cs_payload(std::size_t count, std::size_t& bits_out) {
  coding::BitWriter writer;
  for (std::size_t i = 0; i < count; ++i) {
    writer.write((i * 37) % static_cast<std::size_t>(
                                reference_adc().levels()),
                 reference_adc().bits());
  }
  bits_out = writer.bit_count();
  return writer.finish();
}

link::PacketHeader cs_header(std::uint16_t first, std::uint16_t count,
                             std::size_t payload_bits) {
  link::PacketHeader header;
  header.kind = link::PayloadKind::kCsMeasurements;
  header.stream_id = kReassemblerStream;
  header.window_seq = 0;
  header.packet_seq = 0;
  header.packet_count = 1;
  header.first = first;
  header.count = count;
  header.payload_bits = static_cast<std::uint16_t>(payload_bits);
  return header;
}

Bytes reference_cs_packet() {
  std::size_t bits = 0;
  const Bytes payload = packed_cs_payload(kReassemblerMeasurements, bits);
  return link::serialize_packet(
      cs_header(0, kReassemblerMeasurements, bits), payload);
}

Bytes reference_lowres_packet() {
  const auto corpus = staircase_corpus(7, 205);
  std::vector<std::int64_t> window(corpus[0].begin(),
                                   corpus[0].begin() + kReassemblerWindow);
  std::size_t bits = 0;
  const Bytes payload = reference_delta_codec().encode(window, bits);
  link::PacketHeader header;
  header.kind = link::PayloadKind::kLowRes;
  header.stream_id = kReassemblerStream;
  header.window_seq = 0;
  header.packet_seq = 1;
  header.packet_count = 2;
  header.first = 0;
  header.count = kReassemblerWindow;
  header.payload_bits = static_cast<std::uint16_t>(bits);
  return link::serialize_packet(header, payload);
}

Bytes chunked(const std::vector<Bytes>& packets) {
  Bytes out;
  for (const Bytes& packet : packets) {
    out.push_back(static_cast<std::uint8_t>(packet.size() >> 8));
    out.push_back(static_cast<std::uint8_t>(packet.size() & 0xFF));
    out.insert(out.end(), packet.begin(), packet.end());
  }
  return out;
}

std::uint64_t mix64(std::uint64_t x) {
  // splitmix64 finalizer — the repo's canonical bit mixer.
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

std::uint64_t fingerprint_step(std::uint64_t fingerprint, const Bytes& input,
                               Outcome outcome) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint8_t byte : input) {
    h = (h ^ byte) * 0x100000001b3ULL;
  }
  h ^= outcome == Outcome::kAccepted ? 0x5A5A5A5AULL : 0xA5A5A5A5ULL;
  return mix64(fingerprint ^ h);
}

}  // namespace

std::vector<Target> all_targets() {
  return {Target::kCodebook,  Target::kZeroRun, Target::kDeltaHuffman,
          Target::kBitReader, Target::kPacket,  Target::kReassembler};
}

std::string_view target_name(Target target) {
  switch (target) {
    case Target::kCodebook: return "codebook";
    case Target::kZeroRun: return "zero_run";
    case Target::kDeltaHuffman: return "delta_huffman";
    case Target::kBitReader: return "bitreader";
    case Target::kPacket: return "packet";
    case Target::kReassembler: return "reassembler";
  }
  return "unknown";
}

std::optional<Target> target_from_name(std::string_view name) {
  for (const Target target : all_targets()) {
    if (target_name(target) == name) return target;
  }
  return std::nullopt;
}

Outcome run_one(Target target, const Bytes& input) {
  try {
    switch (target) {
      case Target::kCodebook: return run_codebook(input);
      case Target::kZeroRun:
        return run_window_codec(Target::kZeroRun,
                                reference_zero_run_codec(), input);
      case Target::kDeltaHuffman:
        return run_window_codec(Target::kDeltaHuffman,
                                reference_delta_codec(), input);
      case Target::kBitReader: return run_bitreader(input);
      case Target::kPacket: return run_packet(input);
      case Target::kReassembler: return run_reassembler(input);
    }
    violation(target, input, "unknown target");
  } catch (const ContractViolation&) {
    throw;
  } catch (const std::exception& e) {
    violation(target, input,
              std::string("undeclared exception escaped: ") + e.what());
  } catch (...) {
    violation(target, input, "non-exception object thrown");
  }
}

std::vector<Bytes> seed_corpus(Target target) {
  switch (target) {
    case Target::kCodebook:
      return {reference_codebook().serialize(),
              reference_zero_run_codec().codebook().serialize(),
              coding::HuffmanCodebook::build({{5, 3}}).serialize()};
    case Target::kZeroRun:
      return window_codec_seeds(reference_zero_run_codec(), 5);
    case Target::kDeltaHuffman:
      return window_codec_seeds(reference_delta_codec(), 7);
    case Target::kBitReader: {
      Bytes ramp;
      for (int i = 0; i < 64; ++i) {
        ramp.push_back(static_cast<std::uint8_t>(i * 5));
      }
      return {ramp, Bytes(16, 0x00), Bytes(16, 0xFF)};
    }
    case Target::kPacket:
      return {reference_cs_packet(), reference_lowres_packet()};
    case Target::kReassembler:
      return {chunked({reference_cs_packet(), reference_lowres_packet()}),
              chunked({reference_lowres_packet()})};
  }
  return {};
}

FuzzReport run_target(Target target, std::uint64_t seed,
                      std::uint64_t iterations) {
  rng::Xoshiro256 gen(seed);
  std::vector<Bytes> pool = seed_corpus(target);
  CSECG_CHECK(!pool.empty(), "run_target: target has no seed corpus");
  constexpr std::size_t kMaxPool = 256;

  FuzzReport report;
  report.iterations = iterations;
  for (std::uint64_t i = 0; i < iterations; ++i) {
    const std::size_t base = static_cast<std::size_t>(
        rng::uniform_below(gen, static_cast<std::uint64_t>(pool.size())));
    Bytes input = mutate(pool[base], pool, gen);
    if (input.size() > kMaxInputBytes) input.resize(kMaxInputBytes);
    Outcome outcome = Outcome::kRejected;
    try {
      outcome = run_one(target, input);
    } catch (const ContractViolation& e) {
      std::ostringstream oss;
      oss << e.what() << " (seed " << seed << ", iteration " << i << ")";
      throw ContractViolation(oss.str());
    }
    if (outcome == Outcome::kAccepted) {
      ++report.accepted;
    } else {
      ++report.rejected;
    }
    report.fingerprint = fingerprint_step(report.fingerprint, input, outcome);
    // Accepted mutants re-enter the pool so later rounds mutate inputs
    // that already passed the parser's outer gates.
    if (outcome == Outcome::kAccepted && pool.size() < kMaxPool &&
        (gen.next() & 3) == 0) {
      pool.push_back(std::move(input));
    }
  }
  report.pool_size = pool.size();
  return report;
}

std::vector<RegressionInput> regression_corpus(Target target) {
  switch (target) {
    case Target::kCodebook:
      // Each entry is a by-construction defect deserialize must reject:
      // the Kraft-walk, duplicate-symbol, and empty-table validations
      // added with the fuzz hardening.
      return {{"empty", {}},
              {"truncated_header", {1}},
              {"kraft_oversubscribed", {1, 1, 3, 0, 1, 2}},
              {"kraft_incomplete", {1, 2, 1, 0, 5}},
              {"duplicate_symbol", {1, 1, 2, 7, 7}},
              {"empty_table", {1, 1, 0}},
              {"bad_symbol_width", {3, 1, 2, 0, 1}},
              {"valid_roundtrip", reference_codebook().serialize()}};
    case Target::kZeroRun: {
      // elias_prefix_64_zeros: first code, RUN marker, then a zero flood
      // — the pre-fix decoder shifted past 64 bits (UB); now a
      // DecodeError at the 63-bit prefix cap.
      coding::BitWriter prefix_flood;
      prefix_flood.write(3, 5);
      reference_zero_run_codec().codebook().encode(
          reference_zero_run_codec().run_symbol(), prefix_flood);
      for (int i = 0; i < 70; ++i) prefix_flood.write_bit(false);
      // elias_wrap_run_length: a legally coded run of 2^63 — the pre-fix
      // bound check wrapped around and accepted it.
      coding::BitWriter wrap;
      wrap.write(3, 5);
      reference_zero_run_codec().codebook().encode(
          reference_zero_run_codec().run_symbol(), wrap);
      coding::elias_gamma_encode(std::uint64_t{1} << 63, wrap);
      std::size_t bits = 0;
      const Bytes valid = reference_zero_run_codec().encode(
          std::vector<std::int64_t>(64, 12), bits);
      Bytes truncated = valid;
      truncated.resize(truncated.size() / 2);
      return {{"elias_prefix_64_zeros",
               with_count_prefix(63, prefix_flood.finish())},
              {"elias_wrap_run_length",
               with_count_prefix(63, wrap.finish())},
              {"truncated_mid_stream", with_count_prefix(63, truncated)},
              {"count_exceeds_stream", with_count_prefix(255, valid)},
              {"valid_roundtrip", with_count_prefix(63, valid)}};
    }
    case Target::kDeltaHuffman: {
      const auto corpus = staircase_corpus(7, 101);
      std::vector<std::int64_t> window(corpus[0].begin(),
                                       corpus[0].begin() + 64);
      std::size_t bits = 0;
      const Bytes valid = reference_delta_codec().encode(window, bits);
      // truncated_escape: first code + escape marker + 3 of the 8 raw
      // bits — the raw-delta read must fail typed, not overrun.
      coding::BitWriter escape;
      escape.write(3, 7);
      reference_delta_codec().codebook().encode(
          reference_delta_codec().escape_symbol(), escape);
      escape.write_bit(true);
      escape.write_bit(false);
      escape.write_bit(true);
      Bytes flipped = valid;
      flipped[flipped.size() / 2] ^= 0x10;
      return {{"truncated_escape", with_count_prefix(1, escape.finish())},
              {"desync_bitflip", with_count_prefix(63, flipped)},
              {"count_exceeds_stream", with_count_prefix(255, valid)},
              {"valid_roundtrip", with_count_prefix(63, valid)}};
    }
    case Target::kBitReader:
      return {{"empty", {}},
              {"read_past_end", {0xFF}},
              {"zero_width_reads", Bytes(8, 0x00)},
              {"word_boundary", Bytes(16, 0x40)}};
    case Target::kPacket: {
      const Bytes valid = reference_cs_packet();
      Bytes bad_magic = valid;
      bad_magic[0] ^= 0xFF;
      Bytes bad_crc = valid;
      bad_crc.back() ^= 0x01;
      Bytes length_lie = valid;
      length_lie[13] = static_cast<std::uint8_t>(length_lie[13] + 8);
      Bytes unknown_kind = valid;
      unknown_kind[1] = 9;
      return {{"empty", {}},
              {"short_header", Bytes(15, 0xA7)},
              {"bad_magic", bad_magic},
              {"bad_crc", bad_crc},
              {"length_mismatch", length_lie},
              {"unknown_kind", unknown_kind},
              {"valid_roundtrip", valid}};
    }
    case Target::kReassembler: {
      Bytes foreign = reference_cs_packet();
      foreign[3] ^= 0x01;  // stream_id low byte — foreign stream.
      // lowres_garbage_payload: mangle the payload, recompute the CRC so
      // the packet parses and the hostile bytes reach the codec — the
      // typed-DecodeError drop path added with the fuzz hardening.
      const std::optional<link::Packet> parsed =
          link::parse_packet(reference_lowres_packet());
      link::Packet garbage = *parsed;
      for (std::size_t i = 0; i < garbage.payload.size(); i += 2) {
        garbage.payload[i] ^= 0x5A;
      }
      Bytes first_overflow = reference_cs_packet();
      first_overflow[8] = 0xFF;  // first = 0xFF00 — far past the window.
      return {{"foreign_stream", chunked({foreign})},
              {"lowres_garbage_payload",
               chunked({link::serialize_packet(garbage.header,
                                               garbage.payload)})},
              {"first_overflow", chunked({first_overflow})},
              {"duplicate_ranges",
               chunked({reference_cs_packet(), reference_cs_packet()})},
              {"valid_train",
               chunked({reference_cs_packet(), reference_lowres_packet()})}};
    }
  }
  return {};
}

std::size_t write_regression_corpus(const std::string& dir) {
  std::size_t written = 0;
  for (const Target target : all_targets()) {
    const std::filesystem::path target_dir =
        std::filesystem::path(dir) / std::string(target_name(target));
    std::filesystem::create_directories(target_dir);
    for (const RegressionInput& input : regression_corpus(target)) {
      const std::filesystem::path file =
          target_dir / (std::string(input.name) + ".bin");
      std::ofstream out(file, std::ios::binary | std::ios::trunc);
      CSECG_CHECK(out.good(), "write_regression_corpus: cannot open "
                                  << file.string());
      out.write(reinterpret_cast<const char*>(input.bytes.data()),
                static_cast<std::streamsize>(input.bytes.size()));
      CSECG_CHECK(out.good(), "write_regression_corpus: short write to "
                                  << file.string());
      ++written;
    }
  }
  return written;
}

}  // namespace csecg::fuzz
