// End-to-end telemetry session: the sensor's encoder, the link (packetizer
// → channel → ARQ → reassembly) and the receiver's loss-resilient decoder,
// wired into core's per-window experiment runner.
//
// Determinism under threading: a Channel is stateful (RNG + Markov state),
// so the session never shares one across windows.  Each window draws its
// own Channel from a substream seed mixed (SplitMix64) from the configured
// channel seed, the stream id and the window's global sequence number —
// the loss pattern of window k is the same whatever thread decodes it and
// whatever order windows complete in, so parallel link experiments are
// bit-identical to serial runs.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "csecg/coding/delta_huffman_codec.hpp"
#include "csecg/core/config.hpp"
#include "csecg/core/frontend.hpp"
#include "csecg/core/runner.hpp"
#include "csecg/ecg/record.hpp"
#include "csecg/link/arq.hpp"
#include "csecg/link/channel.hpp"
#include "csecg/link/packetizer.hpp"
#include "csecg/parallel/thread_pool.hpp"
#include "csecg/power/models.hpp"
#include "csecg/power/node_energy.hpp"

namespace csecg::link {

/// Everything about the link below the frame layer.
struct LinkSessionConfig {
  PacketizerConfig packetizer;
  ChannelConfig channel;
  ArqConfig arq;
  /// Energy pricing of the node (analog model + radio constants).
  power::TechnologyParams tech;
  power::NodeEnergyParams node;
  /// Input Nyquist rate, for window duration (MIT-BIH format: 360 Hz).
  double nyquist_hz = 360.0;
};

/// Outcome of one window crossing the link.
struct WindowResult {
  core::LossyDecodeResult decoded;
  LinkStats stats;
  power::NodeEnergy energy;  ///< Analog + TX/RX radio + digital, priced
                             ///< from the bits the ARQ actually spent.
};

/// Owns a matched encoder/decoder pair plus the link between them.
class LinkSession {
 public:
  /// The codec is required iff the low-resolution channel is enabled;
  /// throws std::invalid_argument when the front-end has no measurement
  /// ADC (nothing to packetize) or the MTU cannot carry the frame fields.
  LinkSession(core::FrontEndConfig config,
              std::optional<coding::DeltaHuffmanCodec> lowres_codec,
              LinkSessionConfig link);

  const core::FrontEndConfig& config() const noexcept {
    return encoder_.config();
  }
  const LinkSessionConfig& link_config() const noexcept { return link_; }
  const core::Encoder& encoder() const noexcept { return encoder_; }
  const core::Decoder& decoder() const noexcept { return decoder_; }

  /// Deterministic per-window channel substream seed.
  std::uint64_t channel_seed(std::uint32_t sequence) const noexcept;

  /// encode → packetize → impair → ARQ → reassemble → decode_lossy for one
  /// raw window (length n, record-unit ADC codes).  `sequence` is the
  /// window's global index; it selects the channel substream and stamps
  /// the packets' window_seq (mod 2^16).  Never throws on link loss.
  /// Thread-safe: all shared state is read-only.
  WindowResult transmit_window(const linalg::Vector& window,
                               std::uint32_t sequence) const;

 private:
  core::Encoder encoder_;
  core::Decoder decoder_;
  LinkSessionConfig link_;
  Packetizer packetizer_;
  Reassembler reassembler_;
};

/// Per-window link experiment metrics: the shared quality block (`solved`
/// is false on the low-res-only fallback, where no solver ran) plus link
/// accounting.
struct LinkWindowMetrics : core::WindowQuality {
  LinkStats stats;
  double energy_j = 0.0;  ///< Whole-node energy for the window.
};

/// Aggregate over one record crossing the link.  On a lossy link the
/// MAD-flagged outliers are typically the windows the channel hurt most.
struct LinkRecordReport : core::RecordQuality {
  std::vector<LinkWindowMetrics> windows;
  double delivery_rate = 1.0;   ///< Unique packets delivered / sent.
  double mean_energy_j = 0.0;
  std::size_t retransmissions = 0;
  std::size_t lowres_only_windows = 0;
};

/// Streams `window_count` windows of one record through the session on
/// core::run_windows, on the process-wide pool unless handed one.
/// `base_sequence` offsets the windows' global sequence numbers (channel
/// substreams and ledger rows of kind "link_window") so different records
/// draw disjoint substreams.  Throws std::invalid_argument if window_count
/// is 0 or the record is too short.
LinkRecordReport run_link_record(
    const LinkSession& session, const ecg::EcgRecord& record,
    std::size_t window_count, std::uint32_t base_sequence = 0,
    parallel::ThreadPool& pool = parallel::global_pool());

/// Runs the first `record_count` database records through the link on
/// core::run_records; record r's windows use sequences
/// [r·windows_per_record, (r+1)·windows_per_record).
std::vector<LinkRecordReport> run_link_database(
    const LinkSession& session, const ecg::SyntheticDatabase& database,
    std::size_t record_count, std::size_t windows_per_record,
    parallel::ThreadPool& pool = parallel::global_pool());

/// Mean of per-record mean per-window energies (joules).
double averaged_link_energy(const std::vector<LinkRecordReport>& reports);

}  // namespace csecg::link
