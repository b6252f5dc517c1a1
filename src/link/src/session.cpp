#include "csecg/link/session.hpp"

#include <cmath>
#include <utility>

#include "csecg/common/check.hpp"
#include "csecg/obs/json.hpp"
#include "csecg/obs/registry.hpp"
#include "csecg/obs/trace.hpp"
#include "csecg/rng/xoshiro.hpp"

namespace csecg::link {
namespace {

Packetizer make_packetizer(const core::Encoder& encoder,
                           const LinkSessionConfig& link,
                           const std::optional<coding::DeltaHuffmanCodec>&
                               lowres_codec) {
  CSECG_CHECK(encoder.measurement_adc().has_value(),
              "LinkSession: the front-end needs a measurement ADC "
              "(measurement_adc_bits > 0) to packetize frames");
  return Packetizer(link.packetizer, *encoder.measurement_adc(),
                    lowres_codec);
}

Reassembler make_reassembler(const core::Encoder& encoder,
                             const LinkSessionConfig& link,
                             const std::optional<coding::DeltaHuffmanCodec>&
                                 lowres_codec) {
  const core::FrontEndConfig& config = encoder.config();
  return Reassembler(config.measurements, config.window,
                     *encoder.measurement_adc(), lowres_codec,
                     link.packetizer.stream_id);
}

power::NodeEnergy price_window(const core::FrontEndConfig& config,
                               const LinkSessionConfig& link,
                               const LinkStats& stats) {
  power::RmpiDesign cs_path;
  cs_path.channels = config.measurements;
  cs_path.window = config.window;
  cs_path.adc_bits = config.measurement_adc_bits;
  cs_path.nyquist_hz = link.nyquist_hz;
  const double window_duration_s =
      static_cast<double>(config.window) / link.nyquist_hz;
  if (config.lowres_bits > 0) {
    power::HybridDesign design;
    design.cs_path = cs_path;
    design.lowres_bits = config.lowres_bits;
    return power::link_window_energy(design, link.tech, link.node,
                                     stats.data_bits, stats.feedback_bits,
                                     window_duration_s);
  }
  return power::link_window_energy(cs_path, link.tech, link.node,
                                   stats.data_bits, stats.feedback_bits,
                                   window_duration_s);
}

}  // namespace

LinkSession::LinkSession(core::FrontEndConfig config,
                         std::optional<coding::DeltaHuffmanCodec> lowres_codec,
                         LinkSessionConfig link)
    : encoder_(config, lowres_codec),
      decoder_(config, lowres_codec),
      link_(std::move(link)),
      packetizer_(make_packetizer(encoder_, link_, lowres_codec)),
      reassembler_(make_reassembler(encoder_, link_, lowres_codec)) {
  validate(link_.channel);
  validate(link_.arq);
  power::validate(link_.tech);
  power::validate(link_.node);
  CSECG_CHECK(link_.nyquist_hz > 0.0,
              "LinkSessionConfig: nyquist_hz must be positive");
}

std::uint64_t LinkSession::channel_seed(std::uint32_t sequence) const noexcept {
  // SplitMix64 substream derivation: mix the base seed first so nearby
  // configured seeds do not produce nearby substreams, then fold in the
  // stream identity and the window sequence.
  std::uint64_t state = link_.channel.seed;
  state = rng::splitmix64(state);
  state ^= (static_cast<std::uint64_t>(link_.packetizer.stream_id) << 32) ^
           static_cast<std::uint64_t>(sequence);
  return rng::splitmix64(state);
}

WindowResult LinkSession::transmit_window(const linalg::Vector& window,
                                          std::uint32_t sequence) const {
  static obs::Histogram& packetize_hist =
      obs::histogram("link.packetize_ns");
  static obs::Histogram& transmit_hist = obs::histogram("link.transmit_ns");
  static obs::Counter& link_windows = obs::counter("link.windows");
  static obs::Counter& link_packets = obs::counter("link.packets");
  static obs::Counter& link_dropped = obs::counter("link.dropped_packets");
  static obs::Counter& link_retransmissions =
      obs::counter("link.arq.retransmissions");
  static obs::Counter& link_crc_failures = obs::counter("link.crc_failures");

  const obs::Stage stage("link.window", "link", nullptr, "sequence",
                         static_cast<std::uint64_t>(sequence));
  const core::Frame frame = encoder_.encode(window);
  const auto window_seq = static_cast<std::uint16_t>(sequence & 0xFFFFu);
  obs::Stage packetize("link.packetize", "link", &packetize_hist);
  const auto packets = packetizer_.packetize(frame, window_seq);
  packetize.stop();

  WindowResult out;
  Channel channel(link_.channel, channel_seed(sequence));
  obs::Stage transmit("link.transmit", "link", &transmit_hist, "packets",
                      static_cast<std::uint64_t>(packets.size()));
  const auto delivered =
      transmit_packets(packets, channel, link_.arq, out.stats);
  transmit.stop();
  const ReassemblyResult reassembled =
      reassembler_.reassemble(window_seq, delivered);

  out.decoded = decoder_.decode_lossy(reassembled.window);
  out.stats.effective_m = out.decoded.effective_m;
  out.stats.boxed_samples = out.decoded.boxed_samples;
  out.energy = price_window(encoder_.config(), link_, out.stats);

  link_windows.add();
  link_packets.add(out.stats.packets);
  link_dropped.add(out.stats.dropped);
  link_retransmissions.add(out.stats.retransmissions);
  link_crc_failures.add(out.stats.crc_failures);
  return out;
}

LinkRecordReport run_link_record(const LinkSession& session,
                                 const ecg::EcgRecord& record,
                                 std::size_t window_count,
                                 std::uint32_t base_sequence,
                                 parallel::ThreadPool& pool) {
  const core::FrontEndConfig& config = session.config();
  const double sigma_full = session.decoder().sigma();
  LinkRecordReport report;
  // Per-window channel substreams keep the loss pattern, hence the
  // report, identical for any pool size.
  core::run_windows(
      report, record, config.window, window_count, pool, base_sequence,
      [&](const linalg::Vector& window, std::size_t w) {
        const WindowResult result = session.transmit_window(
            window, base_sequence + static_cast<std::uint32_t>(w));

        LinkWindowMetrics m;
        m.score(window, result.decoded.x, result.decoded.solver);
        m.solved = !result.decoded.lowres_only;
        m.stats = result.stats;
        m.energy_j = result.energy.total();
        return m;
      },
      // Only deterministic fields: the channel substream is seeded per
      // sequence, so the loss accounting is deterministic too.
      [&](std::string& row, const LinkWindowMetrics& m, std::size_t w,
          std::uint64_t seq) {
        const double sigma_eff =
            m.solved ? sigma_full *
                           std::sqrt(static_cast<double>(m.stats.effective_m) /
                                     static_cast<double>(config.measurements))
                     : 0.0;
        row += "{\"kind\":\"link_window\",\"record\":";
        obs::append_json_string(row, report.record_name);
        row += ",\"seq\":";
        obs::append_json_u64(row, seq);
        row += ",\"window\":";
        obs::append_json_u64(row, w);
        row += ",\"m\":";
        obs::append_json_u64(row, config.measurements);
        row += ",\"m_eff\":";
        obs::append_json_u64(row, m.stats.effective_m);
        row += ",\"sigma\":";
        obs::append_json_double(row, sigma_eff);
        row += ",\"solver\":\"pdhg\",\"decode_mode\":\"";
        row += m.solved ? "lossy\"" : "lowres_only\"";
        core::append_quality_fields(row, m);
        row += ",\"packets\":";
        obs::append_json_u64(row, m.stats.packets);
        row += ",\"delivered\":";
        obs::append_json_u64(row, m.stats.delivered);
        row += ",\"dropped\":";
        obs::append_json_u64(row, m.stats.dropped);
        row += ",\"retransmissions\":";
        obs::append_json_u64(row, m.stats.retransmissions);
        row += ",\"crc_failures\":";
        obs::append_json_u64(row, m.stats.crc_failures);
        row += ",\"data_bits\":";
        obs::append_json_u64(row, m.stats.data_bits);
        row += ",\"feedback_bits\":";
        obs::append_json_u64(row, m.stats.feedback_bits);
        row += ",\"boxed_samples\":";
        obs::append_json_u64(row, m.stats.boxed_samples);
        row += ",\"energy_j\":";
        obs::append_json_double(row, m.energy_j);
      });

  double energy_sum = 0.0;
  std::size_t sent = 0;
  std::size_t delivered = 0;
  for (const LinkWindowMetrics& m : report.windows) {
    energy_sum += m.energy_j;
    sent += m.stats.packets;
    delivered += m.stats.delivered;
    report.retransmissions += m.stats.retransmissions;
    // No solver ran: the decoder emitted the low-res staircase.
    if (!m.solved) ++report.lowres_only_windows;
  }
  report.mean_energy_j =
      energy_sum / static_cast<double>(report.windows.size());
  report.delivery_rate =
      sent == 0 ? 1.0
                : static_cast<double>(delivered) / static_cast<double>(sent);
  return report;
}

std::vector<LinkRecordReport> run_link_database(
    const LinkSession& session, const ecg::SyntheticDatabase& database,
    std::size_t record_count, std::size_t windows_per_record,
    parallel::ThreadPool& pool) {
  return core::run_records(
      database, record_count, pool,
      [&](const ecg::EcgRecord& record, std::size_t r) {
        return run_link_record(
            session, record, windows_per_record,
            static_cast<std::uint32_t>(r * windows_per_record), pool);
      });
}

double averaged_link_energy(const std::vector<LinkRecordReport>& reports) {
  CSECG_CHECK(!reports.empty(), "averaged_link_energy: no reports");
  double sum = 0.0;
  for (const auto& r : reports) sum += r.mean_energy_j;
  return sum / static_cast<double>(reports.size());
}

}  // namespace csecg::link
