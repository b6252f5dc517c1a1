// run_report: one-command observability report for a front-end run.
//
// Runs a synthetic-database experiment with the quality ledger (and
// optionally tracing) armed, then prints a human-readable report: the
// per-record table, the worst-N windows by SNR, the MAD-flagged outliers
// and the headline pipeline counters.  On request it also drops the raw
// artifacts next to the report:
//
//   --records N      records to run (default 4)
//   --windows N      windows per record (default 6)
//   --worst N        worst windows to list (default 5)
//   --link           run the lossy-link pipeline instead of the clean codec
//   --ledger FILE    write the per-window quality ledger (JSONL)
//   --trace FILE     enable tracing and write Chrome trace-event JSON
//                    (open in ui.perfetto.dev or chrome://tracing)
//   --snapshot FILE  write the obs counters/histograms snapshot JSON
//
// The ledger rows contain only deterministic fields, so two runs with
// different CSECG_THREADS settings produce byte-identical --ledger output.
// Bad arguments exit 1, including a --records or --windows value the
// 48-record database cannot serve.
//
//   run_report --diff [--snr-tol DB] BASE.jsonl NEW.jsonl
//
// compares two ledgers window by window instead of running anything: rows
// are matched by (kind, record, window) and every field is compared on its
// exact text.  It prints the matched count, ΔSNR and Δiterations, the
// convergence flips and the 5 worst movers, and exits like cmp: 0 when
// every window is identical, 1 when some window differs, 2 when a row is
// malformed or unmatched (or a file cannot be read, or the arguments are
// bad).  With --snr-tol it is a quality gate instead: 0 also when every
// differing window's SNR moved by at most DB dB and no window lost its
// certificate (converged true → false); 1 and 2 as before.
#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "csecg/core/runner.hpp"
#include "csecg/link/session.hpp"
#include "csecg/obs/ledger.hpp"
#include "csecg/obs/registry.hpp"
#include "csecg/obs/trace.hpp"

namespace {

using namespace csecg;

struct Options {
  std::size_t records = 4;
  std::size_t windows = 6;
  std::size_t worst = 5;
  bool link = false;
  const char* ledger_path = nullptr;
  const char* trace_path = nullptr;
  const char* snapshot_path = nullptr;
};

[[noreturn]] void usage_error(const char* message) {
  std::fprintf(stderr,
               "run_report: %s\n"
               "usage: run_report [--records N] [--windows N] [--worst N] "
               "[--link] [--ledger FILE] [--trace FILE] [--snapshot FILE]\n"
               "       run_report --diff [--snr-tol DB] BASE.jsonl NEW.jsonl\n",
               message);
  std::exit(1);
}

std::size_t parse_count(const char* text, const char* flag) {
  char* end = nullptr;
  errno = 0;
  const long value = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE || value < 1) {
    std::fprintf(stderr, "run_report: %s expects a positive integer, got '%s'\n",
                 flag, text);
    std::exit(1);
  }
  return static_cast<std::size_t>(value);
}

Options parse_options(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (std::strcmp(arg, "--records") == 0 && has_value) {
      opts.records = parse_count(argv[++i], arg);
    } else if (std::strcmp(arg, "--windows") == 0 && has_value) {
      opts.windows = parse_count(argv[++i], arg);
    } else if (std::strcmp(arg, "--worst") == 0 && has_value) {
      opts.worst = parse_count(argv[++i], arg);
    } else if (std::strcmp(arg, "--link") == 0) {
      opts.link = true;
    } else if (std::strcmp(arg, "--ledger") == 0 && has_value) {
      opts.ledger_path = argv[++i];
    } else if (std::strcmp(arg, "--trace") == 0 && has_value) {
      opts.trace_path = argv[++i];
    } else if (std::strcmp(arg, "--snapshot") == 0 && has_value) {
      opts.snapshot_path = argv[++i];
    } else {
      usage_error(arg);
    }
  }
  return opts;
}

bool write_file(const char* path, const std::string& text) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "run_report: cannot write %s\n", path);
    return false;
  }
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  return true;
}

/// Prints the `worst` windows by SNR across either path's reports.
template <typename Report>
void print_worst(const std::vector<Report>& reports, std::size_t worst) {
  struct Ranked {
    const std::string* record;
    std::size_t window;
    const core::WindowQuality* q;
  };
  std::vector<Ranked> ranked;
  for (const Report& r : reports) {
    for (std::size_t w = 0; w < r.windows.size(); ++w) {
      ranked.push_back({&r.record_name, w, &r.windows[w]});
    }
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const Ranked& a, const Ranked& b) {
              if (a.q->snr != b.q->snr) return a.q->snr < b.q->snr;
              if (*a.record != *b.record) return *a.record < *b.record;
              return a.window < b.window;
            });
  const std::size_t n = std::min(worst, ranked.size());
  std::printf("\nworst %zu windows by SNR:\n", n);
  std::printf("  %-10s %6s %9s %9s %6s %5s %s\n", "record", "win", "snr(dB)",
              "prd(%)", "iters", "conv", "flag");
  for (std::size_t i = 0; i < n; ++i) {
    const Ranked& w = ranked[i];
    std::printf("  %-10s %6zu %9.2f %9.2f %6d %5s %s\n", w.record->c_str(),
                w.window, w.q->snr, w.q->prd, w.q->iterations,
                w.q->converged ? "yes" : "NO", w.q->outlier ? "OUTLIER" : "");
  }
}

std::optional<std::string> read_file(const char* path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// --diff: compares two ledgers and returns the cmp-style status, or the
/// tolerance verdict when `snr_tol` is set.
int run_diff(const char* base_path, const char* new_path,
             std::optional<double> snr_tol) {
  const auto base = read_file(base_path);
  const auto changed = read_file(new_path);
  if (!base || !changed) {
    std::fprintf(stderr, "run_report: cannot read %s\n",
                 base ? new_path : base_path);
    return 2;
  }
  const obs::LedgerDiff diff = obs::diff_ledgers(*base, *changed);
  std::printf("ledger diff: %s -> %s\n", base_path, new_path);
  std::printf("  %zu windows matched, %zu differ, %zu convergence flips, "
              "%zu problems\n",
              diff.matched, diff.movers.size(), diff.convergence_flips,
              diff.problems.size());
  if (!diff.movers.empty()) {
    double snr_sum = 0.0;
    double snr_max = 0.0;
    long long iter_sum = 0;
    long long iter_max = 0;
    for (const obs::LedgerMover& m : diff.movers) {
      snr_sum += m.delta_snr;
      snr_max = std::max(snr_max, std::abs(m.delta_snr));
      iter_sum += m.delta_iterations;
      iter_max = std::max(iter_max, std::abs(m.delta_iterations));
    }
    const double movers = static_cast<double>(diff.movers.size());
    std::printf("  per differing window: mean dSNR %+.6g dB (max |dSNR| "
                "%.6g), mean diters %+.6g (max |diters| %lld)\n",
                snr_sum / movers, snr_max,
                static_cast<double>(iter_sum) / movers, iter_max);

    // Worst first: largest |ΔSNR| (a null SNR counts as largest), then
    // largest |Δiterations|; ties keep ledger order.
    std::vector<obs::LedgerMover> worst = diff.movers;
    const auto snr_size = [](const obs::LedgerMover& m) {
      return std::isnan(m.delta_snr) ? HUGE_VAL : std::abs(m.delta_snr);
    };
    std::stable_sort(worst.begin(), worst.end(),
                     [&](const obs::LedgerMover& a, const obs::LedgerMover& b) {
                       if (snr_size(a) != snr_size(b)) {
                         return snr_size(a) > snr_size(b);
                       }
                       return std::abs(a.delta_iterations) >
                              std::abs(b.delta_iterations);
                     });
    worst.resize(std::min<std::size_t>(worst.size(), 5));
    std::printf("\nworst %zu movers:\n", worst.size());
    std::printf("  %-12s %-10s %6s %12s %7s %5s %s\n", "kind", "record",
                "win", "dSNR(dB)", "diters", "flip", "fields");
    for (const obs::LedgerMover& m : worst) {
      std::string fields;
      for (const std::string& f : m.fields) {
        fields += (fields.empty() ? "" : ",") + f;
      }
      std::printf("  %-12s %-10s %6llu %+12.6g %+7lld %5s %s\n",
                  m.kind.c_str(), m.record.c_str(),
                  static_cast<unsigned long long>(m.window), m.delta_snr,
                  m.delta_iterations, m.convergence_flip ? "YES" : "",
                  fields.c_str());
    }
  }
  if (!diff.problems.empty()) {
    std::printf("\nproblems:\n");
    for (const std::string& p : diff.problems) std::printf("  %s\n", p.c_str());
  }
  if (!snr_tol) return diff.status();
  const int status = diff.status(*snr_tol);
  const auto lost = std::count_if(
      diff.movers.begin(), diff.movers.end(),
      [](const obs::LedgerMover& m) { return m.lost_convergence; });
  std::printf("\nsnr-tol %g dB: %s (%td windows lost certification)\n",
              *snr_tol, status == 0 ? "PASS" : "FAIL", lost);
  return status;
}

/// Parses --diff's arguments: two ledger files and an optional
/// --snr-tol DB (a finite, non-negative dB value).  Exits 2 on anything
/// else, since 1 means "the ledgers differ".
int diff_main(int argc, char** argv) {
  std::vector<const char*> files;
  std::optional<double> snr_tol;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--snr-tol") == 0 && i + 1 < argc && !snr_tol) {
      const char* text = argv[++i];
      char* end = nullptr;
      const double value = std::strtod(text, &end);
      if (end == text || *end != '\0' || !std::isfinite(value) ||
          value < 0.0) {
        std::fprintf(stderr,
                     "run_report: --snr-tol expects a non-negative number "
                     "of dB, got '%s'\n",
                     text);
        return 2;
      }
      snr_tol = value;
    } else {
      files.push_back(argv[i]);
    }
  }
  if (files.size() != 2) {
    std::fprintf(stderr,
                 "run_report: --diff takes exactly two ledger files\n");
    return 2;
  }
  return run_diff(files[0], files[1], snr_tol);
}

void run_clean(const Options& opts, const ecg::SyntheticDatabase& database,
               const core::FrontEndConfig& config,
               const coding::DeltaHuffmanCodec& lowres_codec) {
  const core::Codec codec(config, lowres_codec);
  const auto reports =
      core::run_database(codec, database, opts.records, opts.windows);

  std::printf("clean-codec run: %zu records x %zu windows (n=%zu, m=%zu)\n\n",
              opts.records, opts.windows, config.window, config.measurements);
  std::printf("  %-10s %9s %9s %8s %6s %9s\n", "record", "snr(dB)", "prd(%)",
              "netCR%", "conv", "outliers");
  for (const auto& r : reports) {
    std::printf("  %-10s %9.2f %9.2f %8.1f %3zu/%zu %9zu\n",
                r.record_name.c_str(), r.mean_snr, r.mean_prd,
                r.net_cr_percent, r.converged_windows, r.windows.size(),
                r.outlier_windows.size());
  }
  print_worst(reports, opts.worst);
}

void run_link(const Options& opts, const ecg::SyntheticDatabase& database,
              const core::FrontEndConfig& config,
              const coding::DeltaHuffmanCodec& lowres_codec) {
  // The benchmark's channel: MTU 64, Gilbert–Elliott bursts at 10%
  // stationary packet loss, no ARQ.  Lost packets stay lost, so the ledger
  // carries row-dropped, widened-box and low-res-only decodes.
  link::LinkSessionConfig link;
  link.packetizer.mtu_bytes = 64;
  link.channel.kind = link::ChannelKind::kGilbertElliott;
  link.channel.ge_good_to_bad = 0.05;
  link.channel.ge_bad_to_good = 0.20;
  link.channel.ge_erasure_bad = 0.5;
  link.arq.mode = link::ArqMode::kNone;
  const link::LinkSession session(config, lowres_codec, link);

  const auto reports = link::run_link_database(session, database, opts.records,
                                               opts.windows);

  std::printf(
      "lossy-link run: %zu records x %zu windows (n=%zu, m=%zu, GE 10%% "
      "loss, no ARQ)\n\n",
      opts.records, opts.windows, config.window, config.measurements);
  std::printf("  %-10s %9s %9s %9s %6s %6s %9s\n", "record", "snr(dB)",
              "prd(%)", "delivery", "retx", "conv", "outliers");
  for (const auto& r : reports) {
    std::printf("  %-10s %9.2f %9.2f %8.1f%% %6zu %3zu/%zu %9zu\n",
                r.record_name.c_str(), r.mean_snr, r.mean_prd,
                r.delivery_rate * 100.0, r.retransmissions,
                r.converged_windows, r.solved_windows,
                r.outlier_windows.size());
  }
  print_worst(reports, opts.worst);
}

/// Runs the experiment both paths share the setup of.
void run(const Options& opts) {
  ecg::RecordConfig record_config;
  record_config.duration_seconds = 30.0;
  const ecg::SyntheticDatabase database(record_config, 2015);

  core::FrontEndConfig config;
  config.window = 256;
  config.measurements = 48;
  config.wavelet_levels = 4;
  config.solver.max_iterations = 400;
  const auto lowres_codec = core::train_lowres_codec(config, database, 3, 3);
  if (opts.link) {
    run_link(opts, database, config, lowres_codec);
  } else {
    run_clean(opts, database, config, lowres_codec);
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "--diff") == 0) {
    return diff_main(argc, argv);
  }
  const Options opts = parse_options(argc, argv);

  // The ledger is this tool's raison d'être; tracing only when asked (it
  // costs a per-thread ring buffer).
  obs::set_ledger_enabled(true);
  if (opts.trace_path != nullptr) obs::set_trace_enabled(true);

  try {
    run(opts);
  } catch (const std::invalid_argument& e) {
    // A --records or --windows value the database cannot serve.
    std::fprintf(stderr, "run_report: %s\n", e.what());
    return 1;
  }

  // Headline counters, straight from the registry the run fed.
  std::printf("\npipeline counters:\n");
  for (const char* name :
       {"runner.windows", "runner.non_converged_windows", "link.windows",
        "link.packets", "link.dropped_packets", "link.arq.retransmissions",
        "solver.pdhg.solves", "solver.pdhg.iterations",
        "trace.dropped_events"}) {
    const std::uint64_t value = obs::counter(name).value();
    if (value > 0) std::printf("  %-28s %12llu\n", name,
                               static_cast<unsigned long long>(value));
  }

  if (opts.ledger_path != nullptr &&
      write_file(opts.ledger_path, obs::ledger_jsonl())) {
    std::printf("\nwrote %s (%zu rows)\n", opts.ledger_path,
                obs::ledger_size());
  }
  if (opts.trace_path != nullptr &&
      write_file(opts.trace_path, obs::trace_json())) {
    std::printf("wrote %s (%zu events — open in ui.perfetto.dev)\n",
                opts.trace_path, obs::trace_event_count());
  }
  if (opts.snapshot_path != nullptr &&
      write_file(opts.snapshot_path, obs::snapshot_json())) {
    std::printf("wrote %s\n", opts.snapshot_path);
  }
  return 0;
}
