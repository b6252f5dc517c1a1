// fuzz_driver: the deterministic fuzz harness as an operator command.
//
// Runs the structure-aware mutation campaign from src/fuzz against one or
// all untrusted-input decoders and reports the outcome statistics.  The
// campaign is a pure function of (target, seed, iterations), so any
// contract violation it prints is reproducible with the same flags on
// any machine — CI runs the exact invocations documented in DESIGN.md §9.
//
//   --target NAME    one of codebook, zero_run, delta_huffman, bitreader,
//                    packet, reassembler, or "all" (default)
//   --seed N         campaign seed (default 1)
//   --iters N        iterations per target (default 100000)
//   --corpus DIR     replay every .bin under DIR/<target>/ before fuzzing
//   --write-corpus DIR  write the curated regression corpus and exit
//   --list           print the target names and exit
//
// Exit status: 0 when every campaign and replay honours the decoder
// contract, 1 on the first violation (its message carries the input as
// hex), 2 on usage errors.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "csecg/fuzz/targets.hpp"

namespace {

using namespace csecg;

struct Options {
  const char* target = "all";
  std::uint64_t seed = 1;
  std::uint64_t iters = 100000;
  const char* corpus_dir = nullptr;
  const char* write_corpus_dir = nullptr;
};

[[noreturn]] void usage_error(const char* message) {
  std::fprintf(stderr,
               "fuzz_driver: %s\n"
               "usage: fuzz_driver [--target NAME|all] [--seed N] "
               "[--iters N] [--corpus DIR] [--write-corpus DIR] [--list]\n",
               message);
  std::exit(2);
}

std::uint64_t parse_u64(const char* text, const char* flag) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') {
    std::fprintf(stderr, "fuzz_driver: %s expects an integer, got '%s'\n",
                 flag, text);
    std::exit(2);
  }
  return value;
}

std::vector<fuzz::Target> selected_targets(const Options& options) {
  if (std::strcmp(options.target, "all") == 0) return fuzz::all_targets();
  const auto target = fuzz::target_from_name(options.target);
  if (!target.has_value()) usage_error("unknown --target name");
  return {*target};
}

// Replays every committed corpus file for `target` through run_one.
// Returns the number of files replayed.
std::size_t replay_corpus(fuzz::Target target, const char* dir) {
  const std::filesystem::path target_dir =
      std::filesystem::path(dir) / std::string(fuzz::target_name(target));
  if (!std::filesystem::is_directory(target_dir)) return 0;
  std::size_t replayed = 0;
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(target_dir)) {
    if (entry.path().extension() == ".bin") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  for (const auto& file : files) {
    std::ifstream in(file, std::ios::binary);
    const std::vector<std::uint8_t> bytes(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
    (void)fuzz::run_one(target, bytes);
    ++replayed;
  }
  return replayed;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage_error("missing flag value");
      return argv[++i];
    };
    if (std::strcmp(arg, "--target") == 0) {
      options.target = value();
    } else if (std::strcmp(arg, "--seed") == 0) {
      options.seed = parse_u64(value(), "--seed");
    } else if (std::strcmp(arg, "--iters") == 0) {
      options.iters = parse_u64(value(), "--iters");
    } else if (std::strcmp(arg, "--corpus") == 0) {
      options.corpus_dir = value();
    } else if (std::strcmp(arg, "--write-corpus") == 0) {
      options.write_corpus_dir = value();
    } else if (std::strcmp(arg, "--list") == 0) {
      for (const fuzz::Target target : fuzz::all_targets()) {
        std::printf("%.*s\n",
                    static_cast<int>(fuzz::target_name(target).size()),
                    fuzz::target_name(target).data());
      }
      return 0;
    } else {
      usage_error("unknown flag");
    }
  }

  try {
    if (options.write_corpus_dir != nullptr) {
      const std::size_t written =
          fuzz::write_regression_corpus(options.write_corpus_dir);
      std::printf("wrote %zu corpus files under %s\n", written,
                  options.write_corpus_dir);
      return 0;
    }

    for (const fuzz::Target target : selected_targets(options)) {
      const std::string name(fuzz::target_name(target));
      if (options.corpus_dir != nullptr) {
        const std::size_t replayed =
            replay_corpus(target, options.corpus_dir);
        std::printf("%-14s corpus replay: %zu files ok\n", name.c_str(),
                    replayed);
      }
      const fuzz::FuzzReport report =
          fuzz::run_target(target, options.seed, options.iters);
      std::printf(
          "%-14s seed=%llu iters=%llu accepted=%llu rejected=%llu "
          "pool=%zu fingerprint=%016llx\n",
          name.c_str(),
          static_cast<unsigned long long>(options.seed),
          static_cast<unsigned long long>(report.iterations),
          static_cast<unsigned long long>(report.accepted),
          static_cast<unsigned long long>(report.rejected),
          report.pool_size,
          static_cast<unsigned long long>(report.fingerprint));
    }
  } catch (const fuzz::ContractViolation& e) {
    std::fprintf(stderr, "fuzz_driver: %s\n", e.what());
    return 1;
  }
  return 0;
}
