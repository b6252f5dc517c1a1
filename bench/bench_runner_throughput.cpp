// Experiment-runner throughput tracker.
//
// Measures end-to-end run_database decode throughput (windows/sec) at 1
// and CSECG_THREADS threads and verifies the determinism guarantee
// (1-thread vs N-thread reports are bit-identical).  Results land in
// BENCH_runner.json.
#include <algorithm>
#include <chrono>
#include <cstdio>

#include "bench_common.hpp"
#include "csecg/core/runner.hpp"
#include "csecg/parallel/thread_pool.hpp"

namespace {

using namespace csecg;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

bool reports_bit_identical(const std::vector<core::RecordReport>& a,
                           const std::vector<core::RecordReport>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t r = 0; r < a.size(); ++r) {
    if (a[r].mean_prd != b[r].mean_prd || a[r].mean_snr != b[r].mean_snr ||
        a[r].overhead_percent != b[r].overhead_percent ||
        a[r].windows.size() != b[r].windows.size()) {
      return false;
    }
    for (std::size_t w = 0; w < a[r].windows.size(); ++w) {
      const auto& wa = a[r].windows[w];
      const auto& wb = b[r].windows[w];
      if (wa.prd != wb.prd || wa.snr != wb.snr ||
          wa.prd_raw != wb.prd_raw || wa.cs_bits != wb.cs_bits ||
          wa.lowres_bits != wb.lowres_bits ||
          wa.iterations != wb.iterations ||
          wa.converged != wb.converged) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

int main() {
  bench::print_header("bench_runner_throughput",
                      "parallel runner + solver hot path");

  const auto& database = bench::shared_database();
  core::FrontEndConfig config;
  const auto lowres_codec = core::train_lowres_codec(config, database, 3, 3);
  const core::Codec codec(config, lowres_codec);

  const std::size_t records = std::min<std::size_t>(bench::records_budget(), 8);
  const std::size_t windows = std::max<std::size_t>(bench::windows_budget(), 2);
  const std::size_t total_windows = records * windows;
  const std::size_t thread_count = parallel::default_thread_count() > 1
                                       ? parallel::default_thread_count()
                                       : 4;

  // Warm the record cache so generation cost is excluded from every arm.
  for (std::size_t r = 0; r < records; ++r) (void)database.record(r);

  std::printf("path,threads,seconds,windows_per_sec\n");

  parallel::ThreadPool serial_pool(1);
  auto start = Clock::now();
  const auto serial_reports = core::run_database(
      codec, database, records, windows, core::DecodeMode::kAuto,
      serial_pool);
  const double serial_seconds = seconds_since(start);
  const double serial_wps =
      static_cast<double>(total_windows) / serial_seconds;
  std::printf("optimized,1,%.3f,%.2f\n", serial_seconds, serial_wps);

  parallel::ThreadPool pool(thread_count);
  start = Clock::now();
  const auto threaded_reports = core::run_database(
      codec, database, records, windows, core::DecodeMode::kAuto, pool);
  const double threaded_seconds = seconds_since(start);
  const double threaded_wps =
      static_cast<double>(total_windows) / threaded_seconds;
  std::printf("optimized,%zu,%.3f,%.2f\n", thread_count, threaded_seconds,
              threaded_wps);

  const bool identical =
      reports_bit_identical(serial_reports, threaded_reports);
  std::printf("# determinism: %s\n",
              identical ? "bit-identical" : "MISMATCH");

  std::FILE* json = std::fopen("BENCH_runner.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_runner.json\n");
    return 1;
  }
  std::fprintf(json, "{\n");
  std::fprintf(json, "  \"bench\": \"runner_throughput\",\n");
  bench::write_provenance(json);
  std::fprintf(json,
               "  \"workload\": {\"records\": %zu, \"windows_per_record\": "
               "%zu, \"window\": %zu, \"measurements\": %zu},\n",
               records, windows, config.window, config.measurements);
  std::fprintf(json,
               "  \"optimized_serial\": {\"seconds\": %.4f, "
               "\"windows_per_sec\": %.3f},\n",
               serial_seconds, serial_wps);
  std::fprintf(json,
               "  \"optimized_threads\": {\"threads\": %zu, \"seconds\": "
               "%.4f, \"windows_per_sec\": %.3f},\n",
               thread_count, threaded_seconds, threaded_wps);
  std::fprintf(json, "  \"speedup_threads_vs_serial\": %.3f,\n",
               threaded_wps / serial_wps);
  std::fprintf(json, "  \"bit_identical_across_threads\": %s\n",
               identical ? "true" : "false");
  std::fprintf(json, "}\n");
  std::fclose(json);
  std::printf("# wrote BENCH_runner.json\n");
  return identical ? 0 : 2;
}
