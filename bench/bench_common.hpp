// Shared helpers for the experiment benches.
//
// Every figure/table bench honours two environment variables so the full
// 48-record MIT-BIH-scale sweep can be reproduced when CPU time allows:
//   CSECG_RECORDS  — records to evaluate (default 8, max 48)
//   CSECG_WINDOWS  — analysis windows per record (default 1)
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "csecg/core/frontend.hpp"
#include "csecg/ecg/record.hpp"
#include "csecg/obs/json.hpp"

namespace csecg::bench {

inline std::size_t env_or(const char* name, std::size_t fallback,
                          std::size_t max_value) {
  const char* value = std::getenv(name);
  if (value == nullptr) return fallback;
  const long parsed = std::strtol(value, nullptr, 10);
  if (parsed < 1) return fallback;
  return std::min(static_cast<std::size_t>(parsed), max_value);
}

/// CSECG_RECORDS, or `fallback` when it is unset (or not a positive count).
inline std::size_t records_budget(std::size_t fallback = 8) {
  return env_or("CSECG_RECORDS", fallback, 48);
}
inline std::size_t windows_budget() { return env_or("CSECG_WINDOWS", 1, 64); }

/// The database every bench evaluates on: 60-second surrogate records,
/// fixed seed 2015 so all benches and EXPERIMENTS.md agree.
inline const ecg::SyntheticDatabase& shared_database() {
  static const ecg::SyntheticDatabase database = [] {
    ecg::RecordConfig config;
    config.duration_seconds = 60.0;
    return ecg::SyntheticDatabase(config, 2015);
  }();
  return database;
}

/// The median of `values` (the mean of the middle two for an even count).
inline double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// The paper's Fig. 7 CR grid (percent).
inline const std::vector<double>& fig7_cr_grid() {
  static const std::vector<double> grid = {50.0, 56.0, 62.0, 69.0, 75.0,
                                           81.0, 88.0, 94.0, 97.0};
  return grid;
}

/// The CPU model named in /proc/cpuinfo, or "unknown".
inline std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    const std::size_t colon = line.find(':');
    if (line.rfind("model name", 0) == 0 && colon != std::string::npos &&
        colon + 2 <= line.size()) {
      return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// The first line a shell command prints, without its newline ("" if none).
inline std::string first_output_line(const std::string& command) {
  std::string line;
  if (std::FILE* pipe = popen(command.c_str(), "r")) {
    char buffer[256];
    if (std::fgets(buffer, sizeof(buffer), pipe) != nullptr) line = buffer;
    pclose(pipe);
  }
  while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
    line.pop_back();
  }
  return line;
}

/// The source tree's git HEAD when the bench runs, suffixed "-dirty" when
/// tracked files differ from it; "unknown" outside a git checkout.
inline std::string source_commit() {
  const std::string git = "git -C '" CSECG_SOURCE_DIR "' ";
  std::string commit = first_output_line(git + "rev-parse HEAD 2>/dev/null");
  if (commit.empty()) return "unknown";
  if (!first_output_line(git +
                         "status --porcelain --untracked-files=no 2>/dev/null")
           .empty()) {
    commit += "-dirty";
  }
  return commit;
}

/// Writes the "host" and "commit" members, each line ending in a comma,
/// into the open top-level object of a BENCH_*.json: a number is only
/// comparable with others from the same host and source.
inline void write_provenance(std::FILE* json) {
  std::string out = "  \"host\": {\"nproc\": ";
  obs::append_json_u64(out, std::thread::hardware_concurrency());
  out += ", \"cpu\": ";
  obs::append_json_string(out, cpu_model());
  out += ", \"compiler\": ";
  obs::append_json_string(out, CSECG_COMPILER);
  out += ", \"build_type\": ";
  obs::append_json_string(out, CSECG_BUILD_TYPE);
  out += "},\n  \"commit\": ";
  obs::append_json_string(out, source_commit());
  out += ",\n";
  std::fputs(out.c_str(), json);
}

/// Prints the bench header; `records` is the record count the bench runs.
inline void print_header(const char* experiment, const char* paper_ref,
                         std::size_t records = records_budget()) {
  std::printf("# %s\n", experiment);
  std::printf("# reproduces: %s\n", paper_ref);
  std::printf("# workload: %zu records x %zu windows (CSECG_RECORDS / "
              "CSECG_WINDOWS to rescale)\n",
              records, windows_budget());
}

}  // namespace csecg::bench
