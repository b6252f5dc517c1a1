// Experiment runner: streams records through a codec and aggregates the
// paper's metrics (PRD/SNR per window, CR and side-channel overhead per
// record).  The Fig. 7/8 benches and the examples are thin wrappers over
// these calls.
//
// run_windows() is the one per-window experiment loop: the clean path
// (run_record below) and the lossy-link path (link::run_link_record) only
// supply the step that carries a window to the decoder, their own extra
// aggregates and their own ledger columns.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "csecg/common/check.hpp"
#include "csecg/core/frontend.hpp"
#include "csecg/ecg/record.hpp"
#include "csecg/metrics/stats.hpp"
#include "csecg/obs/ledger.hpp"
#include "csecg/obs/registry.hpp"
#include "csecg/obs/trace.hpp"
#include "csecg/parallel/thread_pool.hpp"

namespace csecg::core {

/// Quality fields every path records for a decoded window.
///
/// The headline `prd`/`snr` is the zero-mean variant (reference energy
/// excludes the ~1024-code ADC baseline): it lands in the paper's 0–25 dB
/// value range and makes the high-CR collapse of normal CS visible,
/// exactly as in Fig. 7.
struct WindowQuality {
  double prd = 0.0;              ///< Zero-mean PRD (%) — headline metric.
  double snr = 0.0;              ///< −20·log10(PRD/100) in dB.
  bool solved = true;            ///< A solve ran (false: low-res only).
  bool converged = false;
  int iterations = 0;
  double ball_violation = 0.0;   ///< max(0, ‖Φx−y‖−σ) at solver exit.
  double box_violation = 0.0;    ///< Worst box-cell excess at solver exit.
  double gap = 0.0;              ///< Relative duality gap at solver exit.
  bool outlier = false;          ///< SNR below the record's MAD fence.

  /// Sets prd/snr of reconstruction `x` against the raw `window` and
  /// copies the solver certificate.
  void score(const linalg::Vector& window, const linalg::Vector& x,
             const recovery::PdhgResult& solver);
};

/// Quality aggregate every path records for a record.
///
/// The convergence block exists because mean_prd/mean_snr alone cannot be
/// trusted: a window whose solver hit the iteration cap still contributes
/// its (possibly garbage) PRD to the mean.  Consumers should treat any
/// report with non_converged_windows > 0 as suspect and inspect the
/// per-window `converged` flags (the counters also surface globally under
/// `runner.*` in obs::snapshot_json()).  Windows where no solve ran are
/// left out of the block, so converged + non_converged == solved_windows.
struct RecordQuality {
  std::string record_name;
  double mean_prd = 0.0;
  double mean_snr = 0.0;
  std::size_t solved_windows = 0;         ///< Windows where a solve ran.
  std::size_t converged_windows = 0;
  std::size_t non_converged_windows = 0;  ///< Hit the iteration cap.
  std::uint64_t total_solver_iterations = 0;
  int max_solver_iterations = 0;          ///< Worst window.
  double max_ball_violation = 0.0;        ///< Worst residual excess at exit.
  /// Indices of windows whose SNR fell below the robust (MAD-based) lower
  /// fence `median − 3.5·1.4826·MAD` over this record's windows — the
  /// windows flagged `outlier`.  Empty for clean records.
  std::vector<std::size_t> outlier_windows;
  /// The SNR fence (dB) the flags above were cut at.
  double outlier_snr_threshold_db = 0.0;
};

/// Quality/cost metrics of one cleanly decoded window.  Besides the
/// headline zero-mean PRD, the raw variant (baseline included, the literal
/// §IV formula) is recorded; it shifts both methods up by the same
/// baseline-energy factor.
struct WindowMetrics : WindowQuality {
  double prd_raw = 0.0;   ///< Raw-sample PRD (%).
  double snr_raw = 0.0;   ///< SNR from raw PRD.
  std::size_t cs_bits = 0;
  std::size_t lowres_bits = 0;
};

/// Aggregate over one cleanly decoded record.
struct RecordReport : RecordQuality {
  std::vector<WindowMetrics> windows;
  double cs_cr_percent = 0.0;       ///< CS-channel CR (config-determined).
  double overhead_percent = 0.0;    ///< Measured side-channel overhead Dᵢ.
  double net_cr_percent = 0.0;      ///< cs_cr − overhead.
};

/// Appends the ledger fields every path shares, "iterations" through
/// "snr", each preceded by a comma.
void append_quality_fields(std::string& row, const WindowQuality& q);

/// The per-window experiment loop.  Extracts `window_count` windows of
/// `window_length` samples from `record` and runs `step(window, w)` — which
/// returns the window's metrics, a type deriving from WindowQuality — for
/// every window on the pool, each into a pre-sized slot of
/// `report.windows`.  Then, in window order, it reduces the RecordQuality
/// block, cuts the MAD fence, sets the `outlier` flags and bumps the
/// runner.* counters, so the report is bit-identical for any thread count.
///
/// When obs::ledger_enabled(), window w's row is appended under sequence
/// `ledger_base + w`: `ledger_row(row, metrics, w, seq)` writes it up to
/// its closing "outlier" field, which the runner adds.  Rows carry only
/// deterministic fields, so the merged ledger is thread-count-invariant
/// too.  Throws std::invalid_argument when window_count is 0 or the record
/// is too short.
template <typename Report, typename Step, typename LedgerRow>
void run_windows(Report& report, const ecg::EcgRecord& record,
                 std::size_t window_length, std::size_t window_count,
                 parallel::ThreadPool& pool, std::uint64_t ledger_base,
                 const Step& step, const LedgerRow& ledger_row) {
  using Metrics = typename decltype(report.windows)::value_type;
  const auto windows =
      ecg::extract_windows(record, window_length, window_count);
  report.record_name = record.name;
  report.windows =
      pool.parallel_map<Metrics>(windows.size(), [&](std::size_t w) {
        const obs::Stage stage("runner.window", "runner", nullptr, "window",
                               static_cast<std::uint64_t>(w));
        return step(windows[w], w);
      });

  double prd_sum = 0.0;
  double snr_sum = 0.0;
  std::vector<double> snrs(windows.size());
  for (std::size_t w = 0; w < windows.size(); ++w) {
    const WindowQuality& q = report.windows[w];
    prd_sum += q.prd;
    snr_sum += q.snr;
    snrs[w] = q.snr;
    if (!q.solved) continue;
    ++report.solved_windows;
    ++(q.converged ? report.converged_windows : report.non_converged_windows);
    report.total_solver_iterations += static_cast<std::uint64_t>(q.iterations);
    report.max_solver_iterations =
        std::max(report.max_solver_iterations, q.iterations);
    report.max_ball_violation =
        std::max(report.max_ball_violation, q.ball_violation);
  }
  const auto count = static_cast<double>(windows.size());
  report.mean_prd = prd_sum / count;
  report.mean_snr = snr_sum / count;

  // Robust per-record quality fence: a window is an outlier when its SNR
  // drops below median − 3.5·1.4826·MAD over this record.  It depends only
  // on the deterministic per-window metrics.
  report.outlier_snr_threshold_db = metrics::mad_low_threshold(snrs);
  report.outlier_windows = metrics::mad_low_outliers(snrs);
  for (const std::size_t w : report.outlier_windows) {
    report.windows[w].outlier = true;
  }

  static obs::Counter& runner_windows = obs::counter("runner.windows");
  static obs::Counter& runner_non_converged =
      obs::counter("runner.non_converged_windows");
  static obs::Counter& runner_records = obs::counter("runner.records");
  runner_windows.add(windows.size());
  runner_non_converged.add(report.non_converged_windows);
  runner_records.add();

  if (!obs::ledger_enabled()) return;
  for (std::size_t w = 0; w < windows.size(); ++w) {
    const Metrics& m = report.windows[w];
    const std::uint64_t seq = ledger_base + w;
    std::string row;
    row.reserve(448);
    ledger_row(row, m, w, seq);
    row += m.outlier ? ",\"outlier\":true}" : ",\"outlier\":false}";
    obs::Ledger::global().append(seq, std::move(row));
  }
}

/// The database fan-out: runs `run_one(database.record(r), r)` for the
/// first `record_count` records, fanning records across the pool (the
/// window loop inside each record then runs inline).  Reports land in
/// pre-sized per-record slots, so the result is bit-identical to the
/// serial run.  Throws std::invalid_argument unless
/// 0 < record_count ≤ database.size().
template <typename RunOne>
auto run_records(const ecg::SyntheticDatabase& database,
                 std::size_t record_count, parallel::ThreadPool& pool,
                 const RunOne& run_one) {
  using Report =
      std::invoke_result_t<const RunOne&, const ecg::EcgRecord&, std::size_t>;
  CSECG_CHECK(record_count > 0 && record_count <= database.size(),
              "run_records: record_count " << record_count
                                           << " out of range [1, "
                                           << database.size() << "]");
  return pool.parallel_map<Report>(record_count, [&](std::size_t r) {
    return run_one(database.record(r), r);
  });
}

/// Encodes/decodes `window_count` windows of one record through
/// run_windows, on the process-wide pool unless handed one
/// (CSECG_THREADS sizes it).  Ledger rows (kind "window") use sequences
/// `ledger_base + w`.  Throws std::invalid_argument if window_count is 0
/// or the record is too short.
RecordReport run_record(const Codec& codec, const ecg::EcgRecord& record,
                        std::size_t window_count,
                        DecodeMode mode = DecodeMode::kAuto,
                        parallel::ThreadPool& pool = parallel::global_pool(),
                        std::uint64_t ledger_base = 0);

/// Runs the first `record_count` database records through run_records;
/// record r's ledger rows use sequences [r·wpr, (r+1)·wpr).
std::vector<RecordReport> run_database(
    const Codec& codec, const ecg::SyntheticDatabase& database,
    std::size_t record_count, std::size_t windows_per_record,
    DecodeMode mode = DecodeMode::kAuto,
    parallel::ThreadPool& pool = parallel::global_pool());

/// Mean of per-record mean SNRs (the paper's "averaged SNR over records"),
/// for either path's reports.
template <typename Report>
double averaged_snr(const std::vector<Report>& reports) {
  CSECG_CHECK(!reports.empty(), "averaged_snr: no reports");
  double sum = 0.0;
  for (const RecordQuality& r : reports) sum += r.mean_snr;
  return sum / static_cast<double>(reports.size());
}

/// Mean of per-record mean PRDs.
template <typename Report>
double averaged_prd(const std::vector<Report>& reports) {
  CSECG_CHECK(!reports.empty(), "averaged_prd: no reports");
  double sum = 0.0;
  for (const RecordQuality& r : reports) sum += r.mean_prd;
  return sum / static_cast<double>(reports.size());
}

/// Per-record mean SNRs, in record order (Fig. 8 box-plot samples).
template <typename Report>
std::vector<double> per_record_snr(const std::vector<Report>& reports) {
  std::vector<double> out;
  out.reserve(reports.size());
  for (const RecordQuality& r : reports) out.push_back(r.mean_snr);
  return out;
}

}  // namespace csecg::core
