#include "csecg/core/runner.hpp"

#include "csecg/metrics/quality.hpp"
#include "csecg/obs/json.hpp"

namespace csecg::core {

namespace {

const char* decode_mode_name(DecodeMode mode) {
  switch (mode) {
    case DecodeMode::kHybrid:
      return "hybrid";
    case DecodeMode::kNormalCs:
      return "normal_cs";
    case DecodeMode::kAuto:
    default:
      return "auto";
  }
}

}  // namespace

void WindowQuality::score(const linalg::Vector& window,
                          const linalg::Vector& x,
                          const recovery::PdhgResult& solver) {
  prd = metrics::prd_zero_mean(window, x);
  snr = metrics::snr_from_prd(prd);
  converged = solver.converged;
  iterations = solver.iterations;
  ball_violation = solver.ball_violation;
  box_violation = solver.box_violation;
  gap = solver.gap;
}

void append_quality_fields(std::string& row, const WindowQuality& q) {
  row += ",\"iterations\":";
  obs::append_json_u64(row, static_cast<std::uint64_t>(
                                q.iterations < 0 ? 0 : q.iterations));
  row += ",\"converged\":";
  obs::append_json_bool(row, q.converged);
  row += ",\"ball_violation\":";
  obs::append_json_double(row, q.ball_violation);
  row += ",\"box_violation\":";
  obs::append_json_double(row, q.box_violation);
  row += ",\"gap\":";
  obs::append_json_double(row, q.gap);
  row += ",\"prd\":";
  obs::append_json_double(row, q.prd);
  row += ",\"snr\":";
  obs::append_json_double(row, q.snr);
}

RecordReport run_record(const Codec& codec, const ecg::EcgRecord& record,
                        std::size_t window_count, DecodeMode mode,
                        parallel::ThreadPool& pool,
                        std::uint64_t ledger_base) {
  const FrontEndConfig& config = codec.config();
  const double sigma = codec.decoder().sigma();
  RecordReport report;
  run_windows(
      report, record, config.window, window_count, pool, ledger_base,
      [&](const linalg::Vector& window, std::size_t) {
        const Frame frame = codec.encoder().encode(window);
        const DecodeResult decoded = codec.decoder().decode(frame, mode);

        WindowMetrics m;
        m.score(window, decoded.x, decoded.solver);
        m.prd_raw = metrics::prd(window, decoded.x);
        m.snr_raw = metrics::snr_from_prd(m.prd_raw);
        m.cs_bits = frame.cs_bits();
        m.lowres_bits = frame.lowres_bits;
        return m;
      },
      [&](std::string& row, const WindowMetrics& m, std::size_t w,
          std::uint64_t seq) {
        row += "{\"kind\":\"window\",\"record\":";
        obs::append_json_string(row, report.record_name);
        row += ",\"seq\":";
        obs::append_json_u64(row, seq);
        row += ",\"window\":";
        obs::append_json_u64(row, w);
        row += ",\"m\":";
        obs::append_json_u64(row, config.measurements);
        row += ",\"sigma\":";
        obs::append_json_double(row, sigma);
        row += ",\"solver\":\"pdhg\",\"decode_mode\":\"";
        row += decode_mode_name(mode);
        row += '"';
        append_quality_fields(row, m);
        row += ",\"prd_raw\":";
        obs::append_json_double(row, m.prd_raw);
        row += ",\"snr_raw\":";
        obs::append_json_double(row, m.snr_raw);
        row += ",\"cs_bits\":";
        obs::append_json_u64(row, m.cs_bits);
        row += ",\"lowres_bits\":";
        obs::append_json_u64(row, m.lowres_bits);
      });

  double lowres_bits_sum = 0.0;
  for (const WindowMetrics& m : report.windows) {
    lowres_bits_sum += static_cast<double>(m.lowres_bits);
  }
  report.cs_cr_percent = config.cs_compression_ratio();
  const double original_bits_per_window =
      static_cast<double>(config.window) *
      static_cast<double>(config.original_bits);
  report.overhead_percent =
      lowres_bits_sum / static_cast<double>(report.windows.size()) /
      original_bits_per_window * 100.0;
  report.net_cr_percent = metrics::net_compression_ratio(
      report.cs_cr_percent, report.overhead_percent);
  return report;
}

std::vector<RecordReport> run_database(
    const Codec& codec, const ecg::SyntheticDatabase& database,
    std::size_t record_count, std::size_t windows_per_record,
    DecodeMode mode, parallel::ThreadPool& pool) {
  return run_records(
      database, record_count, pool,
      [&](const ecg::EcgRecord& record, std::size_t r) {
        return run_record(codec, record, windows_per_record, mode, pool,
                          static_cast<std::uint64_t>(r * windows_per_record));
      });
}

}  // namespace csecg::core
