// Experiment-runner throughput tracker.
//
// Measures end-to-end run_database decode throughput (windows/sec) at 1
// and CSECG_THREADS threads and verifies the determinism guarantee
// (1-thread vs N-thread reports are bit-identical).  One pass of an arm
// lasts only 20–60 ms, and on a shared host its time moves by 10–20% with
// neighbour load, so the arms run in kReps pairs, serial first on even
// reps and threaded first on odd ones.  The reported speedup is the median
// over the pairs of each pair's serial/threaded time ratio, and each arm's
// throughput comes from its median pass.  Every pass is checked against
// the first serial one.  Results land in BENCH_runner.json.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "csecg/core/runner.hpp"
#include "csecg/parallel/thread_pool.hpp"

namespace {

using namespace csecg;
using Clock = std::chrono::steady_clock;

constexpr int kReps = 31;

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

  // Warm the record cache so generation cost is excluded from every arm;
  // the warm-up pass is the reference every timed pass must match.
  for (std::size_t r = 0; r < records; ++r) (void)database.record(r);
  parallel::ThreadPool serial_pool(1);
  parallel::ThreadPool threaded_pool(thread_count);
  const std::array<parallel::ThreadPool*, 2> pools = {&serial_pool,
                                                      &threaded_pool};
  const auto run = [&](parallel::ThreadPool& pool) {
    return core::run_database(codec, database, records, windows,
                              core::DecodeMode::kAuto, pool);
  };
  const auto reference = run(serial_pool);

  // seconds[a][rep]: one pass of arm a (0 serial, 1 threaded).
  std::array<std::vector<double>, 2> seconds;
  bool identical = true;
  std::printf("path,rep,threads,seconds,windows_per_sec\n");
  for (int rep = 0; rep < kReps; ++rep) {
    for (std::size_t k = 0; k < pools.size(); ++k) {
      const std::size_t a = rep % 2 == 0 ? k : pools.size() - 1 - k;
      const auto start = Clock::now();
      const auto reports = run(*pools[a]);
      const double pass = seconds_since(start);
      identical = identical && reports_bit_identical(reference, reports);
      seconds[a].push_back(pass);
      std::printf("optimized,%d,%zu,%.4f,%.2f\n", rep,
                  pools[a]->threads(), pass,
                  static_cast<double>(total_windows) / pass);
    }
  }
  std::vector<double> ratios;
  for (int rep = 0; rep < kReps; ++rep) {
    ratios.push_back(seconds[0][rep] / seconds[1][rep]);
  }
  const double speedup = bench::median(ratios);
  const double serial_seconds = bench::median(seconds[0]);
  const double threaded_seconds = bench::median(seconds[1]);
  const double serial_wps =
      static_cast<double>(total_windows) / serial_seconds;
  const double threaded_wps =
      static_cast<double>(total_windows) / threaded_seconds;
  std::printf("# %d paired reps: serial %.2f windows/s, %zu threads %.2f "
              "windows/s, median paired speedup %.3f\n",
              kReps, serial_wps, thread_count, threaded_wps, speedup);
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
               "%zu, \"window\": %zu, \"measurements\": %zu, \"reps\": "
               "%d},\n",
               records, windows, config.window, config.measurements, kReps);
  std::fprintf(json,
               "  \"optimized_serial\": {\"median_seconds\": %.4f, "
               "\"windows_per_sec\": %.3f},\n",
               serial_seconds, serial_wps);
  std::fprintf(json,
               "  \"optimized_threads\": {\"threads\": %zu, "
               "\"median_seconds\": %.4f, \"windows_per_sec\": %.3f},\n",
               thread_count, threaded_seconds, threaded_wps);
  std::fprintf(json, "  \"speedup_threads_vs_serial\": %.3f,\n", speedup);
  std::fprintf(json, "  \"bit_identical_across_threads\": %s\n",
               identical ? "true" : "false");
  std::fprintf(json, "}\n");
  std::fclose(json);
  std::printf("# wrote BENCH_runner.json\n");
  return identical ? 0 : 2;
}
