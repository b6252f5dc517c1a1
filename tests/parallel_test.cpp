// Tests for csecg::parallel — pool semantics (coverage, dynamic dispatch,
// exception propagation, nesting) and the experiment-layer determinism
// guarantee: a multi-threaded run_database or run_link_database produces
// reports bit-identical to the serial run.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "csecg/core/frontend.hpp"
#include "csecg/core/runner.hpp"
#include "csecg/ecg/record.hpp"
#include "csecg/link/session.hpp"
#include "csecg/parallel/thread_pool.hpp"

namespace csecg {
namespace {

TEST(ThreadPool, ReportsRequestedThreadCount) {
  parallel::ThreadPool pool(3);
  EXPECT_EQ(pool.threads(), 3u);
  parallel::ThreadPool serial(1);
  EXPECT_EQ(serial.threads(), 1u);
}

TEST(ThreadPool, DefaultThreadCountHonoursEnvOverride) {
  ::setenv("CSECG_THREADS", "5", 1);
  EXPECT_EQ(parallel::default_thread_count(), 5u);
  ::unsetenv("CSECG_THREADS");
  EXPECT_GE(parallel::default_thread_count(), 1u);
}

TEST(ThreadPool, MalformedThreadCountFailsLoudly) {
  // The seed silently fell back to hardware_concurrency on garbage, so a
  // benchmark run could report numbers for the wrong thread count
  // (ISSUE 3).  Malformed values must now throw.
  for (const char* bad :
       {"not-a-number", "0", "-3", "4x", "1.5", "", " ", "99999999999999999999"}) {
    ::setenv("CSECG_THREADS", bad, 1);
    EXPECT_THROW(parallel::default_thread_count(), std::invalid_argument)
        << "CSECG_THREADS='" << bad << "'";
  }
  ::unsetenv("CSECG_THREADS");
}

TEST(ThreadPool, ParseThreadCountAcceptsOnlyPositiveIntegers) {
  EXPECT_EQ(parallel::parse_thread_count("1"), 1u);
  EXPECT_EQ(parallel::parse_thread_count("16"), 16u);
  EXPECT_EQ(parallel::parse_thread_count("  8"), 8u);  // strtol skips space.
  EXPECT_THROW(parallel::parse_thread_count("8  "), std::invalid_argument);
  EXPECT_THROW(parallel::parse_thread_count("0"), std::invalid_argument);
  EXPECT_THROW(parallel::parse_thread_count("-1"), std::invalid_argument);
  EXPECT_THROW(parallel::parse_thread_count("abc"), std::invalid_argument);
  EXPECT_THROW(parallel::parse_thread_count("3threads"),
               std::invalid_argument);
  EXPECT_THROW(parallel::parse_thread_count(""), std::invalid_argument);
  EXPECT_THROW(parallel::parse_thread_count(nullptr), std::invalid_argument);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  parallel::ThreadPool pool(4);
  constexpr std::size_t kCount = 1000;
  std::vector<std::atomic<int>> hits(kCount);
  pool.parallel_for(0, kCount, [&hits](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ParallelForHandlesEmptyAndTinyRanges) {
  parallel::ThreadPool pool(4);
  int calls = 0;
  pool.parallel_for(5, 5, [&calls](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  // Fewer items than threads: each index still runs exactly once.
  std::vector<std::atomic<int>> hits(2);
  pool.parallel_for(0, 2, [&hits](std::size_t i) { ++hits[i]; });
  EXPECT_EQ(hits[0].load(), 1);
  EXPECT_EQ(hits[1].load(), 1);
}

TEST(ThreadPool, ParallelMapMatchesSerialMap) {
  parallel::ThreadPool pool(4);
  parallel::ThreadPool serial(1);
  auto square = [](std::size_t i) { return static_cast<double>(i * i); };
  const auto parallel_out = pool.parallel_map<double>(257, square);
  const auto serial_out = serial.parallel_map<double>(257, square);
  ASSERT_EQ(parallel_out.size(), serial_out.size());
  for (std::size_t i = 0; i < parallel_out.size(); ++i) {
    EXPECT_EQ(parallel_out[i], serial_out[i]);
  }
}

TEST(ThreadPool, PropagatesExceptionsFromLoopBodies) {
  parallel::ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(0, 100,
                        [](std::size_t i) {
                          if (i == 37) {
                            throw std::runtime_error("body failed");
                          }
                        }),
      std::runtime_error);
  // The pool survives a failed loop and keeps working.
  std::atomic<int> count{0};
  pool.parallel_for(0, 10, [&count](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, ClaimsEveryIndexOnceUnderSkewedCosts) {
  // A few indices cost far more than the rest, the shape of a link run
  // where lossy windows take many more solver iterations.  Dispatch must
  // still run each index exactly once, and the slot-indexed results must
  // equal the serial map's.
  parallel::ThreadPool pool(4);
  parallel::ThreadPool serial(1);
  constexpr std::size_t kCount = 300;
  std::vector<std::atomic<int>> hits(kCount);
  const auto body = [&hits](std::size_t i) {
    ++hits[i];
    if (i % 97 == 0) std::this_thread::sleep_for(std::chrono::milliseconds(5));
    double v = 0.0;
    for (std::size_t k = 0; k < (i % 7) * 500; ++k) {
      v += 1.0 / static_cast<double>(1 + k + i);
    }
    return v;
  };
  const auto pooled = pool.parallel_map<double>(kCount, body);
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(hits[i].exchange(0), 1) << "index " << i;
  }
  const auto reference = serial.parallel_map<double>(kCount, body);
  ASSERT_EQ(pooled.size(), reference.size());
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(pooled[i], reference[i]) << "index " << i;
  }
}

TEST(ThreadPool, RethrowsLowestFailingIndex) {
  // Two indices throw.  The higher one fails first (the lower one sleeps
  // before throwing), and it must still be the lower one's exception that
  // reaches the caller, on every repeat.
  parallel::ThreadPool pool(4);
  for (int repeat = 0; repeat < 20; ++repeat) {
    try {
      pool.parallel_for(0, 64, [](std::size_t i) {
        if (i == 5) {
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
          throw std::runtime_error("index 5");
        }
        if (i == 40) throw std::runtime_error("index 40");
      });
      ADD_FAILURE() << "no exception on repeat " << repeat;
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), "index 5") << "repeat " << repeat;
    }
  }
}

TEST(ThreadPool, NestedParallelForRunsInlineWithoutDeadlock) {
  parallel::ThreadPool pool(4);
  std::atomic<int> inner_total{0};
  pool.parallel_for(0, 8, [&pool, &inner_total](std::size_t) {
    pool.parallel_for(0, 4, [&inner_total](std::size_t) { ++inner_total; });
  });
  EXPECT_EQ(inner_total.load(), 32);
}

// ---------------------------------------------------------------------------
// Determinism of the parallel experiment runner, on both paths.

// Exact equality (no tolerance) of the quality blocks both paths share,
// record and window level; `same_window(a, b)` adds the path's own fields.
template <typename Report, typename SameWindow>
void expect_bit_identical(const std::vector<Report>& serial,
                          const std::vector<Report>& threaded,
                          const SameWindow& same_window) {
  ASSERT_EQ(serial.size(), threaded.size());
  for (std::size_t r = 0; r < serial.size(); ++r) {
    const core::RecordQuality& a = serial[r];
    const core::RecordQuality& b = threaded[r];
    EXPECT_EQ(a.record_name, b.record_name);
    EXPECT_EQ(a.mean_prd, b.mean_prd);
    EXPECT_EQ(a.mean_snr, b.mean_snr);
    EXPECT_EQ(a.solved_windows, b.solved_windows);
    EXPECT_EQ(a.converged_windows, b.converged_windows);
    EXPECT_EQ(a.non_converged_windows, b.non_converged_windows);
    EXPECT_EQ(a.total_solver_iterations, b.total_solver_iterations);
    EXPECT_EQ(a.max_solver_iterations, b.max_solver_iterations);
    EXPECT_EQ(a.max_ball_violation, b.max_ball_violation);
    EXPECT_EQ(a.outlier_windows, b.outlier_windows);
    EXPECT_EQ(a.outlier_snr_threshold_db, b.outlier_snr_threshold_db);
    ASSERT_EQ(serial[r].windows.size(), threaded[r].windows.size());
    for (std::size_t w = 0; w < serial[r].windows.size(); ++w) {
      const core::WindowQuality& qa = serial[r].windows[w];
      const core::WindowQuality& qb = threaded[r].windows[w];
      EXPECT_EQ(qa.prd, qb.prd);
      EXPECT_EQ(qa.snr, qb.snr);
      EXPECT_EQ(qa.solved, qb.solved);
      EXPECT_EQ(qa.converged, qb.converged);
      EXPECT_EQ(qa.iterations, qb.iterations);
      EXPECT_EQ(qa.ball_violation, qb.ball_violation);
      EXPECT_EQ(qa.box_violation, qb.box_violation);
      EXPECT_EQ(qa.gap, qb.gap);
      EXPECT_EQ(qa.outlier, qb.outlier);
      same_window(serial[r].windows[w], threaded[r].windows[w]);
    }
  }
}

TEST(SyntheticDatabase, RecordsReadFromAPoolMatchASerialRead) {
  // A fresh database read from four workers — several of them asking for
  // the same record at once, others for distinct records — hands out the
  // same samples as a serial read of another fresh database, and every
  // reader of one index gets the one cached record.
  ecg::RecordConfig record_config;
  record_config.duration_seconds = 4.0;
  const ecg::SyntheticDatabase pooled(record_config, 2015);
  const ecg::SyntheticDatabase serial(record_config, 2015);
  constexpr std::size_t kRecords = 12;
  parallel::ThreadPool pool(4);
  const auto records = pool.parallel_map<const ecg::EcgRecord*>(
      4 * kRecords,
      [&](std::size_t i) { return &pooled.record(i % kRecords); });
  for (std::size_t i = 0; i < records.size(); ++i) {
    const std::size_t index = i % kRecords;
    EXPECT_EQ(records[i], &pooled.record(index)) << "read " << i;
    EXPECT_EQ(records[i]->samples, serial.record(index).samples)
        << "record " << index;
  }
}

TEST(ParallelRunner, RunDatabaseIsBitIdenticalAcrossThreadCounts) {
  ecg::RecordConfig record_config;
  record_config.duration_seconds = 15.0;
  const ecg::SyntheticDatabase database(record_config, 2015);

  core::FrontEndConfig config;
  config.window = 256;
  config.measurements = 64;
  config.wavelet_levels = 4;
  config.solver.max_iterations = 300;
  const auto lowres_codec = core::train_lowres_codec(config, database, 3, 3);
  const core::Codec codec(config, lowres_codec);

  parallel::ThreadPool serial(1);
  parallel::ThreadPool threaded(4);
  const auto serial_reports =
      core::run_database(codec, database, 4, 2, core::DecodeMode::kAuto,
                         serial);
  const auto threaded_reports =
      core::run_database(codec, database, 4, 2, core::DecodeMode::kAuto,
                         threaded);
  expect_bit_identical(
      serial_reports, threaded_reports,
      [](const core::WindowMetrics& a, const core::WindowMetrics& b) {
        EXPECT_EQ(a.prd_raw, b.prd_raw);
        EXPECT_EQ(a.snr_raw, b.snr_raw);
        EXPECT_EQ(a.cs_bits, b.cs_bits);
        EXPECT_EQ(a.lowres_bits, b.lowres_bits);
      });
  for (std::size_t r = 0; r < serial_reports.size(); ++r) {
    const auto& a = serial_reports[r];
    const auto& b = threaded_reports[r];
    EXPECT_EQ(a.cs_cr_percent, b.cs_cr_percent);
    EXPECT_EQ(a.overhead_percent, b.overhead_percent);
    EXPECT_EQ(a.net_cr_percent, b.net_cr_percent);
  }

  // The same database over a lossy link: the per-window channel substreams
  // keep every loss, hence every report field, thread-count-invariant.
  link::LinkSessionConfig link_config;
  link_config.channel.kind = link::ChannelKind::kGilbertElliott;
  link_config.arq.mode = link::ArqMode::kSelectiveRepeat;
  const link::LinkSession session(config, lowres_codec, link_config);
  const auto serial_link =
      link::run_link_database(session, database, 4, 2, serial);
  const auto threaded_link =
      link::run_link_database(session, database, 4, 2, threaded);
  expect_bit_identical(
      serial_link, threaded_link,
      [](const link::LinkWindowMetrics& a, const link::LinkWindowMetrics& b) {
        EXPECT_EQ(a.stats.packets, b.stats.packets);
        EXPECT_EQ(a.stats.delivered, b.stats.delivered);
        EXPECT_EQ(a.stats.dropped, b.stats.dropped);
        EXPECT_EQ(a.stats.retransmissions, b.stats.retransmissions);
        EXPECT_EQ(a.stats.crc_failures, b.stats.crc_failures);
        EXPECT_EQ(a.stats.data_bits, b.stats.data_bits);
        EXPECT_EQ(a.stats.feedback_bits, b.stats.feedback_bits);
        EXPECT_EQ(a.stats.backoff_ms, b.stats.backoff_ms);
        EXPECT_EQ(a.stats.effective_m, b.stats.effective_m);
        EXPECT_EQ(a.stats.boxed_samples, b.stats.boxed_samples);
        EXPECT_EQ(a.energy_j, b.energy_j);
      });
  for (std::size_t r = 0; r < serial_link.size(); ++r) {
    const auto& a = serial_link[r];
    const auto& b = threaded_link[r];
    EXPECT_EQ(a.delivery_rate, b.delivery_rate);
    EXPECT_EQ(a.mean_energy_j, b.mean_energy_j);
    EXPECT_EQ(a.retransmissions, b.retransmissions);
    EXPECT_EQ(a.lowres_only_windows, b.lowres_only_windows);
  }
}

TEST(ParallelRunner, DefaultEntryPointsStillValidateArguments) {
  ecg::RecordConfig record_config;
  record_config.duration_seconds = 15.0;
  const ecg::SyntheticDatabase database(record_config, 2015);
  core::FrontEndConfig config;
  config.window = 256;
  config.measurements = 64;
  config.wavelet_levels = 4;
  config.lowres_bits = 0;  // No codec needed.
  const core::Codec codec(config, std::nullopt);
  EXPECT_THROW(core::run_database(codec, database, 0, 1),
               std::invalid_argument);
  EXPECT_THROW(core::run_database(codec, database, database.size() + 1, 1),
               std::invalid_argument);
  EXPECT_THROW(core::run_record(codec, database.record(0), 0),
               std::invalid_argument);

  // The link path shares the runner, and with it the validation.
  const link::LinkSession session(config, std::nullopt, {});
  EXPECT_THROW(link::run_link_record(session, database.record(0), 0),
               std::invalid_argument);
  EXPECT_THROW(link::run_link_database(session, database, 0, 1),
               std::invalid_argument);
  EXPECT_THROW(
      link::run_link_database(session, database, database.size() + 1, 1),
      std::invalid_argument);
}

}  // namespace
}  // namespace csecg
