// Instrumentation, tracing and ledger overhead tracker.
//
// Three arms over the run_database workload (one worker, so per-window
// cost is not hidden behind thread scheduling noise):
//
//   dark     obs off, trace off, ledger off — the floor.
//   default  obs on (the shipping default), trace + ledger off.  The gated
//            number is this arm's cost over `dark`: the cost of timing
//            instrumentation, plus the tracing hooks that sit on the
//            encode/decode/solver hot paths even when disarmed, so it
//            catches a disabled-path regression (a branch that became an
//            allocation, say).  Bar < 2%; the exit status is 2 above the
//            5% CI gate.
//   tracing  obs + trace + ledger on — the cost of actually recording a
//            timeline and a quality ledger.  Reported for the record, not
//            gated: rings fill and the arm pays for JSON-able strings.
//
// Each rep runs all three arms back to back, in the order dark, default,
// tracing on even reps and reversed on odd ones, so drift in host load
// favours neither side of a pair.  The reported overhead is the median
// over kReps reps of each rep's paired arm/dark time ratio.  On a shared
// host one arm's time moves by 10–20% with neighbour load within a second,
// so the pairs are many and close in time: an arm repeats the window set
// only until it lasts kMinArmSeconds (one pass at the default 8 × 2
// windows, two at 4 × 2).  Arms of 0.25 s spread the result wider, not
// narrower.
//
// Results land in BENCH_trace.json.
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "csecg/core/runner.hpp"
#include "csecg/obs/ledger.hpp"
#include "csecg/obs/registry.hpp"
#include "csecg/obs/trace.hpp"
#include "csecg/parallel/thread_pool.hpp"

namespace {

using namespace csecg;
using Clock = std::chrono::steady_clock;

constexpr int kReps = 61;
constexpr double kMinArmSeconds = 0.04;

struct Arm {
  const char* name;
  bool obs_on;
  bool trace_on;
  bool ledger_on;
};
constexpr std::array<Arm, 3> kArms = {{{"dark", false, false, false},
                                       {"default", true, false, false},
                                       {"tracing", true, true, true}}};

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

void arm(const Arm& a) {
  obs::set_enabled(a.obs_on);
  obs::set_trace_enabled(a.trace_on);
  obs::set_ledger_enabled(a.ledger_on);
  // Start each arm from empty buffers: a full ring silently stops costing
  // anything, which would flatter the tracing arm.
  obs::trace_reset();
  obs::ledger_reset();
}

}  // namespace

int main() {
  bench::print_header("bench_trace_overhead",
                      "instrumentation + tracing + ledger throughput cost");

  const auto& database = bench::shared_database();
  core::FrontEndConfig config;
  const auto lowres_codec = core::train_lowres_codec(config, database, 3, 3);
  const core::Codec codec(config, lowres_codec);

  const std::size_t records = std::min<std::size_t>(bench::records_budget(), 8);
  const std::size_t windows = std::max<std::size_t>(bench::windows_budget(), 2);
  const std::size_t total_windows = records * windows;
  parallel::ThreadPool pool(1);  // Serial: per-window cost is not hidden
                                 // behind thread scheduling noise.
  const auto run_once = [&] {
    (void)core::run_database(codec, database, records, windows,
                             core::DecodeMode::kAuto, pool);
  };

  // Warm up (records, caches), then size the arms from one timed pass.
  for (std::size_t r = 0; r < records; ++r) (void)database.record(r);
  arm(kArms[1]);
  run_once();
  const auto calibrate = Clock::now();
  run_once();
  const double pass_seconds = seconds_since(calibrate);
  const int passes =
      std::max(1, static_cast<int>(std::ceil(kMinArmSeconds / pass_seconds)));

  // seconds[a][rep]: one pass of arm a, averaged over the arm's passes.
  std::array<std::vector<double>, kArms.size()> seconds;
  std::printf("arm,rep,seconds_per_pass,windows_per_sec\n");
  for (int rep = 0; rep < kReps; ++rep) {
    for (std::size_t k = 0; k < kArms.size(); ++k) {
      const std::size_t a = rep % 2 == 0 ? k : kArms.size() - 1 - k;
      arm(kArms[a]);
      const auto start = Clock::now();
      for (int p = 0; p < passes; ++p) run_once();
      const double per_pass = seconds_since(start) / passes;
      seconds[a].push_back(per_pass);
      std::printf("%s,%d,%.5f,%.2f\n", kArms[a].name, rep, per_pass,
                  static_cast<double>(total_windows) / per_pass);
    }
  }
  arm(kArms[1]);  // Leave the process in the shipping default.

  // Median over reps of the paired ratio to the same rep's dark arm.
  std::array<double, kArms.size()> overhead{};
  std::array<double, kArms.size()> median_seconds{};
  for (std::size_t a = 0; a < kArms.size(); ++a) {
    std::vector<double> ratios;
    for (int rep = 0; rep < kReps; ++rep) {
      ratios.push_back(seconds[a][rep] / seconds[0][rep]);
    }
    overhead[a] = (bench::median(ratios) - 1.0) * 100.0;
    median_seconds[a] = bench::median(seconds[a]);
  }
  const auto wps = [&](std::size_t a) {
    return static_cast<double>(total_windows) / median_seconds[a];
  };
  std::printf("# %d reps x 3 arms x %d passes of %zu windows\n", kReps,
              passes, total_windows);
  std::printf("# dark:    %.2f windows/s\n", wps(0));
  std::printf("# default: %.2f windows/s (median paired overhead %.2f%%; "
              "target < 2%%, CI gate 5%%)\n",
              wps(1), overhead[1]);
  std::printf("# tracing: %.2f windows/s (median paired overhead %.2f%%; "
              "informational)\n",
              wps(2), overhead[2]);

  std::FILE* json = std::fopen("BENCH_trace.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_trace.json\n");
    return 1;
  }
  std::fprintf(json, "{\n");
  std::fprintf(json, "  \"bench\": \"trace_overhead\",\n");
  bench::write_provenance(json);
  std::fprintf(json,
               "  \"workload\": {\"records\": %zu, \"windows_per_record\": "
               "%zu, \"window\": %zu, \"measurements\": %zu, \"reps\": %d, "
               "\"passes_per_arm\": %d},\n",
               records, windows, config.window, config.measurements, kReps,
               passes);
  for (std::size_t a = 0; a < kArms.size(); ++a) {
    std::fprintf(json,
                 "  \"%s\": {\"median_seconds_per_pass\": %.5f, "
                 "\"windows_per_sec\": %.3f},\n",
                 kArms[a].name, median_seconds[a], wps(a));
  }
  std::fprintf(json, "  \"overhead_percent\": %.3f,\n", overhead[1]);
  std::fprintf(json, "  \"tracing_overhead_percent\": %.3f,\n", overhead[2]);
  std::fprintf(json, "  \"target_percent\": 2.0,\n");
  std::fprintf(json, "  \"gate_percent\": 5.0\n");
  std::fprintf(json, "}\n");
  std::fclose(json);
  std::printf("# wrote BENCH_trace.json\n");

  return overhead[1] < 5.0 ? 0 : 2;
}
