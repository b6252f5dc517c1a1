// The three workloads, their set-up, and one window of each: through the
// public calls (untraced) or through the layer chain (traced).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "csecg/coding/delta_huffman_codec.hpp"
#include "csecg/core/config.hpp"
#include "csecg/core/frontend.hpp"
#include "csecg/ecg/record.hpp"
#include "csecg/link/session.hpp"
#include "layers.hpp"
#include "spans.hpp"

namespace perfbench {

/// Published seeds: the default, and one held out so a later claim can be
/// re-checked on a seed not used while the change was written.
constexpr std::uint64_t kDefaultSeed = 2015;
constexpr std::uint64_t kHeldOutSeed = 7919;

/// Every record of every window set lasts this long.
constexpr double kRecordSeconds = 20.0;

enum class Path { kClean, kLink };

/// One workload.  Its window set is `records` synthetic records ×
/// `windows_per_record` windows, decoded in order pass after pass; a fixed
/// set keeps every quality figure and exact count independent of how fast
/// the host is.
struct Workload {
  const char* name;
  Path path;
  std::size_t measurements;
  int lowres_bits;
  core::DecodeMode mode;
  bool pooled;  ///< P = min(4, nproc) workers instead of 1.
  std::size_t records;
  std::size_t windows_per_record;
};

// Link quality varies with the loss pattern each window draws, so the link
// workload needs more windows for its mean SNR to settle across seeds.
constexpr std::array<Workload, 3> kWorkloads{{
    {"hybrid_m96", Path::kClean, 96, 7, core::DecodeMode::kAuto, false, 16,
     3},
    {"normalcs_m256_pool", Path::kClean, 256, 0, core::DecodeMode::kNormalCs,
     true, 24, 4},
    {"link_ge10_pool", Path::kLink, 96, 7, core::DecodeMode::kAuto, true, 32,
     12},
}};

/// The workload named `name`, or nullptr.
const Workload* find_workload(const std::string& name);

/// Everything set-up builds; its cost is the setup_s metric.
struct Fixture {
  core::FrontEndConfig config;
  link::LinkSessionConfig link;
  std::unique_ptr<ecg::SyntheticDatabase> database;
  std::vector<linalg::Vector> windows;
  std::optional<coding::DeltaHuffmanCodec> codec;
  std::unique_ptr<core::Codec> codec_pair;      ///< Clean workloads.
  std::unique_ptr<link::LinkSession> session;  ///< Link workload.
  double synth_s = 0.0;
  double train_s = 0.0;
  double build_s = 0.0;
  double total_s() const { return synth_s + train_s + build_s; }
};

/// Synthesizes the records (seeded by `seed`, which also seeds the link
/// channel), trains the low-res codebook and builds the codec or session.
std::unique_ptr<Fixture> set_up(const Workload& workload, std::uint64_t seed);

/// What one window produced, reduced to what the checks compare.
struct WindowOutput {
  linalg::Vector x;
  bool solved = false;  ///< False on the link's low-res-only fallback.
  int iterations = 0;
  bool converged = false;
  std::size_t air_bits = 0;
  std::size_t lowres_bits = 0;
  double energy_j = 0.0;
  link::LinkStats stats;
  bool lowres_only = false;
  WindowTrace trace;  ///< Filled by the traced run only.
};

/// Bit-for-bit equality of everything a window reports (not the trace).
bool same_output(const WindowOutput& a, const WindowOutput& b);

/// Window `i` through the public calls only.
WindowOutput run_public(const Fixture& f, const Workload& workload,
                        std::size_t i);

/// The traced run's layer chain for a fixture.
class TracedChain {
 public:
  TracedChain(const Fixture& f, const Workload& workload);
  /// Window `i` layer by layer, with its spans in the output's trace.
  WindowOutput run(std::size_t i) const;

 private:
  const Fixture& f_;
  const Workload& workload_;
  std::optional<EncoderLayers> encoder_;
  std::optional<DecoderLayers> decoder_;
  std::optional<LinkLayers> link_;
};

}  // namespace perfbench
