// csecg benchmark: one workload per invocation.
//
//   csecg_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   [--out-dir <dir>] [--source-id <text>]
//
// The untraced run drives the library only through its public calls
// (Encoder::encode + Decoder::decode, or LinkSession::transmit_window) in
// a closed loop and yields the end-to-end metrics.  With --trace 1 the
// untraced run takes the first half of --seconds and a separate traced run
// the second: the benchmark redoes each window layer by layer (layers.hpp)
// with spans around every layer, which yields the per-layer metrics and a
// Chrome/Perfetto trace file.  Every run checks its outputs (README.md);
// the last stdout line is one JSON object {"correct", "attempted",
// "failed", "metrics"}, and the exit status is nonzero when a check failed.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "csecg/metrics/quality.hpp"
#include "csecg/obs/ledger.hpp"
#include "csecg/obs/registry.hpp"
#include "csecg/obs/trace.hpp"
#include "csecg/parallel/thread_pool.hpp"
#include "report.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

/// Set-up is repeated and its median reported.
constexpr int kSetupRepeats = 9;
/// Pooled windows replayed serially for the determinism check.
constexpr std::size_t kReplayWindows = 4;
/// Upper bound on P for the pooled workloads.
constexpr std::size_t kMaxWorkers = 4;
/// Pass k starts the window set at frac(k · this) of the way through it.
constexpr double kPassShift = 0.6180339887498949;

// ---------------------------------------------------------------------------
// Options.

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;
  std::string source_id = "unknown";
};

[[noreturn]] void usage(const std::string& error) {
  std::fprintf(stderr,
               "error: %s\n"
               "usage: csecg_perfbench --workload <name> [--seed <n>] "
               "[--seconds <s>] [--trace 0|1] [--out-dir <dir>] "
               "[--source-id <text>]\n"
               "workloads:",
               error.c_str());
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\nseeds: default %llu, held out %llu\n",
               static_cast<unsigned long long>(kDefaultSeed),
               static_cast<unsigned long long>(kHeldOutSeed));
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string value = argv[++i];
    try {
      if (key == "--workload") {
        options.workload = value;
      } else if (key == "--seed") {
        options.seed = std::stoull(value);
      } else if (key == "--seconds") {
        options.seconds = std::stod(value);
      } else if (key == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        options.trace = value == "1";
      } else if (key == "--out-dir") {
        options.out_dir = value;
      } else if (key == "--source-id") {
        options.source_id = value;
      } else {
        usage("unknown option " + key);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + key + ": " + value);
    }
  }
  if (find_workload(options.workload) == nullptr) {
    usage("unknown workload '" + options.workload + "'");
  }
  if (!(options.seconds > 0.0)) usage("--seconds must be positive");
  return options;
}

// ---------------------------------------------------------------------------
// Checks.

/// Failed checks, counted once per window (or per run-level check).
struct Checks {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::map<std::string, std::size_t> failures;
  std::vector<std::string> messages;

  void fail(const std::string& check, const std::string& message) {
    ++failed;
    ++failures[check];
    if (messages.size() < 20) messages.push_back(check + ": " + message);
  }
};

bool all_finite(const linalg::Vector& x) {
  return std::all_of(x.begin(), x.end(),
                     [](double v) { return std::isfinite(v); });
}

// ---------------------------------------------------------------------------
// Closed loop.

struct Slot {
  std::optional<WindowOutput> out;
  std::string error;
  std::int64_t ns = 0;
  std::thread::id thread;
};

struct LoopStats {
  std::vector<std::vector<double>> service_ms;  ///< Per window, per pass.
  std::vector<double> pass_wall_s;
  double wall_s = 0.0;
  double busy_s = 0.0;
  double max_busy_s = 0.0;   ///< Σ over passes of the busiest worker.
  double mean_busy_s = 0.0;  ///< Σ over passes of the mean worker.
};

/// Runs passes over windows [0, count) on the pool for about `seconds`:
/// at least one pass, and another only while it should end in time.  Each
/// worker runs its static chunk window after window, so it starts the next
/// only when the previous completed.  Each pass shifts the window set by a
/// golden-ratio step, so over the passes a window runs on every worker and
/// at every point of a pass: a burst of interference on one core or at one
/// moment slows a window in few of its passes, not the same windows in
/// every pass.  Only `body` is inside a window's service time; `pass_done`
/// sees the finished slots serially, off the clock.
LoopStats closed_loop(
    parallel::ThreadPool& pool, std::size_t count, double seconds,
    const std::function<WindowOutput(std::size_t)>& body,
    const std::function<void(std::size_t, std::vector<Slot>&)>& pass_done) {
  LoopStats stats;
  stats.service_ms.resize(count);
  const std::int64_t start = now_ns();
  double elapsed = 0.0;
  do {
    std::vector<Slot> slots(count);
    const double pass = static_cast<double>(stats.pass_wall_s.size());
    const auto shift = static_cast<std::size_t>(
        std::fmod(pass * kPassShift, 1.0) * static_cast<double>(count));
    const std::int64_t t0 = now_ns();
    pool.parallel_for(0, count, [&](std::size_t j) {
      const std::size_t i = (j + shift) % count;
      Slot& slot = slots[i];
      const std::int64_t a = now_ns();
      try {
        slot.out = body(i);
      } catch (const std::exception& e) {
        slot.error = e.what();
      }
      slot.ns = now_ns() - a;
      slot.thread = std::this_thread::get_id();
    });
    const double wall = static_cast<double>(now_ns() - t0) * 1e-9;
    stats.pass_wall_s.push_back(wall);
    stats.wall_s += wall;
    std::map<std::thread::id, double> busy;
    for (std::size_t i = 0; i < count; ++i) {
      const double s = static_cast<double>(slots[i].ns) * 1e-9;
      busy[slots[i].thread] += s;
      stats.busy_s += s;
      stats.service_ms[i].push_back(s * 1e3);
    }
    double max_busy = 0.0;
    double sum_busy = 0.0;
    for (const auto& [thread, s] : busy) {
      max_busy = std::max(max_busy, s);
      sum_busy += s;
    }
    stats.max_busy_s += max_busy;
    stats.mean_busy_s += sum_busy / static_cast<double>(pool.threads());
    pass_done(stats.pass_wall_s.size() - 1, slots);
    elapsed = static_cast<double>(now_ns() - start) * 1e-9;
  } while (elapsed + stats.pass_wall_s.back() <= seconds);
  return stats;
}

/// Each window's median service time over the passes.  Percentiles are
/// taken over these, one sample per window: a burst of host interference
/// slows every window that runs during it, and the per-window median keeps
/// such bursts out while keeping what makes one window slower than another
/// (its iterations, its losses).
std::vector<double> window_medians(
    const std::vector<std::vector<double>>& service_ms) {
  std::vector<double> out;
  for (const std::vector<double>& passes : service_ms) {
    if (!passes.empty()) out.push_back(median(passes));
  }
  return out;
}

// ---------------------------------------------------------------------------
// The untraced run.

struct Untraced {
  LoopStats loop;
  std::vector<WindowOutput> reference;  ///< First-pass outputs.
};

Untraced run_untraced(const Fixture& f, const Workload& workload,
                      parallel::ThreadPool& pool, double seconds,
                      Checks& checks) {
  const std::size_t count = f.windows.size();
  Untraced run;
  run.reference.resize(count);
  run.loop = closed_loop(
      pool, count, seconds,
      [&](std::size_t i) { return run_public(f, workload, i); },
      [&](std::size_t pass, std::vector<Slot>& slots) {
        for (std::size_t i = 0; i < count; ++i) {
          ++checks.attempted;
          Slot& slot = slots[i];
          const std::string where = "window " + std::to_string(i);
          if (!slot.out) {
            checks.fail("no_throw", where + ": " + slot.error);
          } else if (!all_finite(slot.out->x)) {
            checks.fail("finite", where);
          } else if (pass == 0) {
            run.reference[i] = std::move(*slot.out);
          } else if (!same_output(*slot.out, run.reference[i])) {
            checks.fail("counts_repeat",
                        where + " differs from its first pass");
          }
        }
      });
  return run;
}

/// Thread-count determinism: a sample of windows redone serially on the
/// calling thread must match the pooled first pass bit for bit.
void replay_serially(const Fixture& f, const Workload& workload,
                     const std::vector<WindowOutput>& reference,
                     Checks& checks) {
  const std::size_t count = f.windows.size();
  for (std::size_t k = 0; k < kReplayWindows && k < count; ++k) {
    const std::size_t i = k * count / kReplayWindows;
    ++checks.attempted;
    try {
      if (!same_output(run_public(f, workload, i), reference[i])) {
        checks.fail("serial_replay", "window " + std::to_string(i));
      }
    } catch (const std::exception& e) {
      checks.fail("serial_replay", e.what());
    }
  }
}

/// First-pass totals.  Quality and exact counts come from the first pass
/// only, so they do not depend on how many passes the host managed.
struct FirstPass {
  std::vector<double> snr_db;  ///< One per window that decoded.
  double air_bits = 0.0;
  double energy_uj = 0.0;
  double lowres_bits = 0.0;
  double packets = 0.0;
  double delivered = 0.0;
  double effective_m = 0.0;
  double lowres_only = 0.0;
  double solved = 0.0;
  double iterations = 0.0;
  double iterations_max = 0.0;
  double converged = 0.0;

  /// Per decoded window.
  double mean_of(double total) const {
    return snr_db.empty() ? 0.0
                          : total / static_cast<double>(snr_db.size());
  }
};

FirstPass summarize(const Fixture& f,
                    const std::vector<WindowOutput>& reference) {
  FirstPass s;
  for (std::size_t i = 0; i < reference.size(); ++i) {
    const WindowOutput& r = reference[i];
    if (r.x.size() != f.config.window) continue;  // A failed window.
    s.snr_db.push_back(
        metrics::snr_from_prd(metrics::prd_zero_mean(f.windows[i], r.x)));
    s.air_bits += static_cast<double>(r.air_bits);
    s.energy_uj += r.energy_j * 1e6;
    s.lowres_bits += static_cast<double>(r.lowres_bits);
    s.packets += static_cast<double>(r.stats.packets);
    s.delivered += static_cast<double>(r.stats.delivered);
    s.effective_m += static_cast<double>(r.stats.effective_m);
    s.lowres_only += r.lowres_only ? 1.0 : 0.0;
    if (r.solved) {
      s.solved += 1.0;
      s.iterations += r.iterations;
      s.iterations_max = std::max(s.iterations_max, double(r.iterations));
      s.converged += r.converged ? 1.0 : 0.0;
    }
  }
  return s;
}

// ---------------------------------------------------------------------------
// The traced run.

struct Traced {
  std::vector<WindowTrace> traces;  ///< Every traced window, pass by pass.
  std::vector<std::map<std::string, std::int64_t>> self_ns;  ///< Per trace.
  std::size_t first_pass = 0;  ///< traces[0, first_pass) are pass one.
  std::int64_t origin_ns = 0;
};

Traced run_traced(const Fixture& f, const Workload& workload,
                  parallel::ThreadPool& pool, double seconds,
                  const std::vector<WindowOutput>& reference,
                  Checks& checks) {
  const std::size_t count = f.windows.size();
  const TracedChain chain(f, workload);
  Traced run;
  run.origin_ns = now_ns();
  std::map<std::thread::id, int> thread_index;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> first_calls(count);
  closed_loop(
      pool, count, seconds, [&](std::size_t i) { return chain.run(i); },
      [&](std::size_t pass, std::vector<Slot>& slots) {
        for (std::size_t i = 0; i < count; ++i) {
          ++checks.attempted;
          Slot& slot = slots[i];
          const std::string where = "traced window " + std::to_string(i);
          if (!slot.out) {
            checks.fail("no_throw", where + ": " + slot.error);
            continue;
          }
          WindowTrace& t = slot.out->trace;
          const auto next = static_cast<int>(thread_index.size());
          t.thread = thread_index.emplace(slot.thread, next).first->second;
          const std::pair<std::uint64_t, std::uint64_t> calls{t.phi.calls,
                                                              t.psi.calls};
          auto self = self_times(t);
          std::int64_t self_sum = 0;
          for (const auto& [name, ns] : self) self_sum += ns;
          if (!same_output(*slot.out, reference[i])) {
            checks.fail("replica", where + " differs from the public call");
          } else if (pass > 0 && calls != first_calls[i]) {
            checks.fail("counts_repeat", where + ": Φ/Ψ call counts moved");
          } else if (self_sum != span_ns(t, "window")) {
            checks.fail("self_time_sum", where);
          }
          if (pass == 0) {
            first_calls[i] = calls;
            ++run.first_pass;
          }
          run.traces.push_back(std::move(t));
          run.self_ns.push_back(std::move(self));
        }
      });
  return run;
}

// ---------------------------------------------------------------------------
// Metrics.

std::vector<Metric> end_to_end_metrics(const Untraced& untraced,
                                       const OrderStat& p50,
                                       const OrderStat& tail_ms,
                                       const FirstPass& first,
                                       const std::vector<double>& setup_s,
                                       double peak_rss) {
  std::vector<double> pass_rates;
  for (const double wall : untraced.loop.pass_wall_s) {
    pass_rates.push_back(
        static_cast<double>(untraced.reference.size()) / wall);
  }
  return {
      {"windows_per_s", median(pass_rates), "1/s"},
      {"window_ms_p50", p50.value, "ms"},
      {"window_ms_tail", tail_ms.value, "ms"},
      {"snr_db_mean", mean(first.snr_db), "dB"},
      {"air_bits_per_window", first.mean_of(first.air_bits), "bit"},
      {"node_energy_uj_per_window", first.mean_of(first.energy_uj), "uJ"},
      {"setup_s", median(setup_s), "s"},
      {"peak_rss_mib", peak_rss, "MiB"},
  };
}

/// Median over the traced windows that have the span (0 when none do) of
/// its inclusive time, or of its self time.
double median_span_us(const Traced& run, const char* name, bool self) {
  std::vector<double> us;
  for (std::size_t k = 0; k < run.traces.size(); ++k) {
    if (!has_span(run.traces[k], name)) continue;
    const std::int64_t ns =
        self ? run.self_ns[k].at(name) : span_ns(run.traces[k], name);
    us.push_back(static_cast<double>(ns) * 1e-3);
  }
  return us.empty() ? 0.0 : median(std::move(us));
}

struct SetupTimes {
  std::vector<double> total, synth, train, build;
};

std::vector<Metric> per_layer_metrics(const Fixture& f,
                                      const Workload& workload,
                                      const Untraced& untraced,
                                      double untraced_p50,
                                      const FirstPass& first,
                                      const Traced& traced,
                                      const SetupTimes& setup,
                                      std::size_t workers) {
  // Time sums over every traced window; call counts over the first pass.
  double solve_ns = 0.0, solve_self_ns = 0.0, phi_ns = 0.0, psi_ns = 0.0;
  double iterations = 0.0;
  std::vector<std::vector<double>> window_ms(f.windows.size());
  for (std::size_t k = 0; k < traced.traces.size(); ++k) {
    const WindowTrace& t = traced.traces[k];
    window_ms[t.sequence].push_back(static_cast<double>(span_ns(t, "window")) *
                                    1e-6);
    if (!has_span(t, "solve")) continue;
    solve_ns += static_cast<double>(span_ns(t, "solve"));
    solve_self_ns += static_cast<double>(traced.self_ns[k].at("solve"));
    phi_ns += static_cast<double>(t.phi.ns);
    psi_ns += static_cast<double>(t.psi.ns);
    iterations += t.iterations;
  }
  double phi_calls = 0.0, psi_calls = 0.0, phi_mb = 0.0;
  for (std::size_t k = 0; k < traced.first_pass; ++k) {
    phi_calls += static_cast<double>(traced.traces[k].phi.calls);
    psi_calls += static_cast<double>(traced.traces[k].psi.calls);
    phi_mb += traced.traces[k].phi.bytes * 1e-6;
  }
  const double per_window = 1.0 / std::max(1.0, double(traced.first_pass));
  const double per_iter = iterations > 0.0 ? 1e-3 / iterations : 0.0;
  const double per_solve = solve_ns > 0.0 ? 1.0 / solve_ns : 0.0;
  const double traced_p50 = percentile(window_medians(window_ms), 50).value;

  double lowres_bits = first.lowres_bits;
  if (workload.path == Path::kLink) {
    // transmit_window does not return the frame; re-encode to count.
    lowres_bits = 0.0;
    for (const linalg::Vector& w : f.windows) {
      lowres_bits +=
          static_cast<double>(f.session->encoder().encode(w).lowres_bits);
    }
  }
  const auto span_us = [&](const char* name) {
    return median_span_us(traced, name, false);
  };
  const double solved = std::max(1.0, first.solved);

  return {
      {"snr_db_p10", percentile(first.snr_db, 10.0).value, "dB"},
      {"recovery.iterations_mean", first.iterations / solved, "count"},
      {"recovery.iterations_max", first.iterations_max, "count"},
      {"recovery.converged_fraction", first.converged / solved, "fraction"},
      {"recovery.solve_ms", span_us("solve") * 1e-3, "ms"},
      {"recovery.iter_us", solve_ns * per_iter, "us"},
      {"recovery.self_us_per_iter", solve_self_ns * per_iter, "us"},
      {"linalg.phi_us_per_iter", phi_ns * per_iter, "us"},
      {"linalg.phi_share", phi_ns * per_solve, "fraction"},
      {"linalg.phi_calls_per_window", phi_calls * per_window, "count"},
      {"linalg.phi_mb_per_window_computed", phi_mb * per_window, "MB"},
      {"linalg.warmstart_us", span_us("warmstart"), "us"},
      {"dsp.psi_us_per_iter", psi_ns * per_iter, "us"},
      {"dsp.psi_share", psi_ns * per_solve, "fraction"},
      {"dsp.psi_calls_per_window", psi_calls * per_window, "count"},
      {"core.encode_us", span_us("encode"), "us"},
      {"sensing.rmpi_measure_us", span_us("rmpi"), "us"},
      {"sensing.lowres_sample_us", span_us("lowres"), "us"},
      {"coding.huffman_encode_us", span_us("huffman"), "us"},
      {"coding.huffman_decode_us", span_us("huffman_decode"), "us"},
      {"core.decode_ms", span_us("decode") * 1e-3, "ms"},
      {"core.decode_self_us", median_span_us(traced, "decode", true), "us"},
      {"coding.lowres_bits_per_window", first.mean_of(lowres_bits), "bit"},
      {"link.packetize_us", span_us("packetize"), "us"},
      {"link.channel_us", span_us("channel"), "us"},
      {"link.reassemble_us", span_us("reassemble"), "us"},
      {"link.packets_per_window", first.mean_of(first.packets), "count"},
      {"link.delivery_rate",
       first.packets > 0 ? first.delivered / first.packets : 0.0,
       "fraction"},
      {"link.effective_m_mean", first.mean_of(first.effective_m), "count"},
      {"link.lowres_only_fraction", first.mean_of(first.lowres_only),
       "fraction"},
      {"parallel.busy_fraction",
       untraced.loop.busy_s /
           (untraced.loop.wall_s * static_cast<double>(workers)),
       "fraction"},
      {"parallel.imbalance",
       untraced.loop.max_busy_s / untraced.loop.mean_busy_s, "ratio"},
      {"ecg.synth_s", median(setup.synth), "s"},
      {"coding.train_s", median(setup.train), "s"},
      {"core.codec_build_ms", median(setup.build) * 1e3, "ms"},
      {"trace.overhead_pct",
       100.0 * (traced_p50 - untraced_p50) / untraced_p50, "%"},
  };
}

// ---------------------------------------------------------------------------
// The run.

int run(const Options& options) {
  const Workload& workload = *find_workload(options.workload);

  // obs at its shipping default, whatever CSECG_TRACE / CSECG_LEDGER say.
  obs::set_enabled(true);
  obs::set_trace_enabled(false);
  obs::set_ledger_enabled(false);

  const std::size_t nproc =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const std::size_t workers =
      workload.pooled ? std::min(kMaxWorkers, nproc) : 1;

  // Set-up, repeated; the last fixture is the one measured.
  SetupTimes setup;
  std::unique_ptr<Fixture> fixture;
  for (int r = 0; r < kSetupRepeats; ++r) {
    fixture.reset();
    fixture = set_up(workload, options.seed);
    setup.total.push_back(fixture->total_s());
    setup.synth.push_back(fixture->synth_s);
    setup.train.push_back(fixture->train_s);
    setup.build.push_back(fixture->build_s);
  }
  const Fixture& f = *fixture;

  parallel::ThreadPool pool(workers);
  Checks checks;
  // Warm-up, off the clock: one window per worker.
  pool.parallel_for(0, workers, [&](std::size_t i) {
    (void)run_public(f, workload, i);
  });

  const double seconds =
      options.trace ? options.seconds / 2 : options.seconds;
  const Untraced untraced = run_untraced(f, workload, pool, seconds, checks);
  const double peak_rss = peak_rss_mib();
  replay_serially(f, workload, untraced.reference, checks);
  const FirstPass first = summarize(f, untraced.reference);
  const std::vector<double> medians = window_medians(untraced.loop.service_ms);
  const OrderStat p50 = percentile(medians, 50.0);
  const OrderStat tail_ms = tail(medians);
  const std::vector<Metric> e2e = end_to_end_metrics(
      untraced, p50, tail_ms, first, setup.total, peak_rss);

  std::vector<Metric> layer;
  std::string trace_path;
  JsonObject self_us;
  if (options.trace) {
    const Traced traced =
        run_traced(f, workload, pool, seconds, untraced.reference, checks);
    layer = per_layer_metrics(f, workload, untraced, p50.value, first, traced,
                              setup, pool.threads());
    std::map<std::string, double> self_sum_us;
    for (const auto& self : traced.self_ns) {
      for (const auto& [name, ns] : self) {
        self_sum_us[name] += static_cast<double>(ns) * 1e-3;
      }
    }
    for (const auto& [name, us] : self_sum_us) {
      self_us.add(name,
                  json_number(us / static_cast<double>(traced.traces.size())));
    }
    if (!options.out_dir.empty()) {
      trace_path = options.out_dir + "/trace-" + workload.name + "-seed" +
                   std::to_string(options.seed) + ".json";
      if (!write_chrome_trace(trace_path, traced.traces, traced.origin_ns)) {
        checks.fail("trace_file", "cannot write " + trace_path);
      }
    }
  }

  // ---- Human-readable summary. -------------------------------------------
  const OrderStat snr_p10 = percentile(first.snr_db, 10.0);
  const double failed_fraction =
      static_cast<double>(checks.failed) /
      static_cast<double>(std::max<std::size_t>(1, checks.attempted));
  for (const Metric& m : e2e) {
    std::printf("%-34s %14.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("  over %zu windows, each its median of %zu passes: "
              "window_ms_p50 is rank %zu; window_ms_tail is p%.2f "
              "(rank %zu, %zu beyond)\n",
              p50.count, untraced.loop.pass_wall_s.size(), p50.rank,
              tail_ms.percentile, tail_ms.rank, tail_ms.beyond);
  std::printf("  failed_window_fraction %.6f (%zu of %zu)\n", failed_fraction,
              checks.failed, checks.attempted);
  for (const Metric& m : layer) {
    std::printf("%-34s %14.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& message : checks.messages) {
    std::printf("CHECK FAILED %s\n", message.c_str());
  }
  std::printf("host: nproc=%zu cpu=\"%s\" compiler=\"%s\" flags=\"%s\" "
              "build=%s source=%s workers=%zu seed=%llu\n",
              nproc, cpu_model().c_str(), PERFBENCH_COMPILER,
              PERFBENCH_CXX_FLAGS, PERFBENCH_BUILD_TYPE,
              options.source_id.c_str(), pool.threads(),
              static_cast<unsigned long long>(options.seed));

  // ---- Full report file. -------------------------------------------------
  if (!options.out_dir.empty()) {
    std::vector<double> iterations;
    for (const WindowOutput& r : untraced.reference) {
      iterations.push_back(r.iterations);
    }
    JsonObject failures;
    for (const auto& [name, n] : checks.failures) {
      failures.add(name, std::to_string(n));
    }
    const auto rank = [](const OrderStat& s) {
      return JsonObject()
          .add("percentile", json_number(s.percentile))
          .add("rank", std::to_string(s.rank))
          .add("count", std::to_string(s.count))
          .add("beyond", std::to_string(s.beyond))
          .str();
    };
    const std::string report =
        JsonObject()
            .add("workload", json_string(workload.name))
            .add("seed", std::to_string(options.seed))
            .add("seconds", json_number(options.seconds))
            .add("trace", options.trace ? "true" : "false")
            .add("host", JsonObject()
                             .add("nproc", std::to_string(nproc))
                             .add("cpu", json_string(cpu_model()))
                             .str())
            .add("build",
                 JsonObject()
                     .add("compiler", json_string(PERFBENCH_COMPILER))
                     .add("flags", json_string(PERFBENCH_CXX_FLAGS))
                     .add("build_type", json_string(PERFBENCH_BUILD_TYPE))
                     .add("source", json_string(options.source_id))
                     .str())
            .add("workers", std::to_string(pool.threads()))
            .add("window_set",
                 JsonObject()
                     .add("records", std::to_string(workload.records))
                     .add("windows_per_record",
                          std::to_string(workload.windows_per_record))
                     .add("record_seconds", json_number(kRecordSeconds))
                     .str())
            .add("pass_wall_s", json_array(untraced.loop.pass_wall_s))
            .add("window_ms_p50", rank(p50))
            .add("window_ms_tail", rank(tail_ms))
            .add("snr_db_p10", rank(snr_p10))
            .add("end_to_end", metrics_json(e2e))
            .add("per_layer", metrics_json(layer))
            // Per-window quality and iterations, to diff runs window by
            // window.
            .add("window_snr_db", json_array(first.snr_db))
            .add("window_iterations", json_array(iterations))
            .add("self_us_per_window", self_us.str())
            .add("trace_file", json_string(trace_path))
            .add("correct", checks.failed == 0 ? "true" : "false")
            .add("attempted", std::to_string(checks.attempted))
            .add("failed", std::to_string(checks.failed))
            .add("failed_window_fraction", json_number(failed_fraction))
            .add("check_failures", failures.str())
            .str();
    const std::string path = options.out_dir + "/result-" + workload.name +
                             "-seed" + std::to_string(options.seed) +
                             "-trace" + (options.trace ? "1" : "0") +
                             ".json";
    bool written = false;
    if (std::FILE* out = std::fopen(path.c_str(), "w")) {
      written = std::fprintf(out, "%s\n", report.c_str()) > 0;
      written = std::fclose(out) == 0 && written;
    }
    if (written) {
      std::printf("report: %s\n", path.c_str());
    } else {
      checks.fail("report_file", "cannot write " + path);
    }
  }

  const bool correct = checks.failed == 0;
  std::printf("%s\n", JsonObject()
                          .add("correct", correct ? "true" : "false")
                          .add("attempted", std::to_string(checks.attempted))
                          .add("failed", std::to_string(checks.failed))
                          .add("metrics", metrics_json(options.trace ? layer
                                                                     : e2e))
                          .str()
                          .c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "csecg_perfbench: %s\n", e.what());
    return 3;
  }
}
