// Fuzz targets: one contract-enforcing entry point per untrusted-input
// decoder.
//
// The contract under test is uniform (DESIGN.md §9): fed arbitrary
// bytes, a decoder either returns a value or reports failure through its
// declared channel (coding::DecodeError or std::nullopt) — it never
// crashes, never trips a sanitizer, and never throws anything else.
// run_one() executes one input against that contract and throws
// ContractViolation (carrying a hex dump of the offending input) on any
// breach; run_target() drives the deterministic mutate-and-check loop
// around it.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "csecg/fuzz/mutators.hpp"

namespace csecg::fuzz {

/// The decoders under test.
enum class Target {
  kCodebook,      ///< coding::HuffmanCodebook::deserialize.
  kZeroRun,       ///< coding::ZeroRunDeltaCodec::decode.
  kDeltaHuffman,  ///< coding::DeltaHuffmanCodec::decode.
  kBitReader,     ///< coding::BitReader driven by a read program.
  kPacket,        ///< link::parse_packet.
  kReassembler,   ///< link::Reassembler::reassemble on hostile packets.
};

/// All targets, in declaration order.
std::vector<Target> all_targets();

/// Stable lower-snake name ("codebook", "zero_run", ... ) used by the CLI
/// and the tests/corpus/<name>/ directory layout.
std::string_view target_name(Target target);

/// Inverse of target_name; nullopt for unknown names.
std::optional<Target> target_from_name(std::string_view name);

/// A decoder broke the untrusted-input contract: it threw something
/// other than its declared failure type, or violated a round-trip
/// oracle.  what() carries the target, the defect, and the full input as
/// hex so the failure is reproducible from the message alone.
class ContractViolation : public std::runtime_error {
 public:
  explicit ContractViolation(const std::string& what)
      : std::runtime_error(what) {}
};

/// How one input fared against a decoder that honoured the contract.
enum class Outcome {
  kAccepted,  ///< Decoded to a value.
  kRejected,  ///< Failed through the declared channel.
};

/// Runs one input against one target.  Throws ContractViolation on any
/// contract breach; otherwise classifies the outcome.
Outcome run_one(Target target, const Bytes& input);

/// Valid seed inputs for a target, built from the reference fixtures —
/// the starting population of the mutation pool.
std::vector<Bytes> seed_corpus(Target target);

/// One deterministic fuzz campaign's result.
struct FuzzReport {
  std::uint64_t iterations = 0;
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  std::size_t pool_size = 0;   ///< Final mutation-pool population.
  std::uint64_t fingerprint = 0;  ///< Order-sensitive hash of all
                                  ///< (input, outcome) pairs; equal seeds
                                  ///< must yield equal fingerprints.
};

/// Runs `iterations` mutate-and-check rounds against one target with the
/// given seed.  Accepted inputs feed back into the mutation pool (capped)
/// so the campaign walks deeper than single-step corruption.  Throws
/// ContractViolation on the first breach.
FuzzReport run_target(Target target, std::uint64_t seed,
                      std::uint64_t iterations);

/// One curated regression input: a historical or by-construction defect
/// with a stable name.
struct RegressionInput {
  std::string_view name;  ///< File stem under tests/corpus/<target>/.
  Bytes bytes;
};

/// The curated defect inputs for a target — the minimized crashers and
/// boundary probes the corpus replay test pins forever.  Every entry must
/// satisfy run_one (that is the replay test).
std::vector<RegressionInput> regression_corpus(Target target);

/// Writes regression_corpus() for every target under `dir` as
/// <dir>/<target>/<name>.bin.  Returns the number of files written.
std::size_t write_regression_corpus(const std::string& dir);

}  // namespace csecg::fuzz
