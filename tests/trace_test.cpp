// Tests for the tracing ring buffers, the Chrome trace-event export, the
// per-window quality ledger, and the MAD outlier flags the runner attaches
// to both paths' reports.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "csecg/core/runner.hpp"
#include "csecg/link/session.hpp"
#include "csecg/obs/ledger.hpp"
#include "csecg/obs/registry.hpp"
#include "csecg/obs/trace.hpp"
#include "csecg/parallel/thread_pool.hpp"

namespace csecg {
namespace {

// The trace/ledger gates are process-wide, so every test pins them to the
// state it needs and drops back to disabled on exit.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_trace_enabled(false);
    obs::set_ledger_enabled(false);
    obs::trace_reset();
    obs::ledger_reset();
  }
  void TearDown() override {
    obs::set_trace_enabled(false);
    obs::set_ledger_enabled(false);
    obs::trace_reset();
    obs::ledger_reset();
  }
};

// Cheap structural JSON sanity: balanced braces/brackets outside strings.
void expect_balanced_json(const std::string& json) {
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') {
        ++i;  // Skip the escaped character.
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0) << "unbalanced at byte " << i;
  }
  EXPECT_FALSE(in_string);
  EXPECT_EQ(depth, 0);
}

TEST_F(TraceTest, ScopeEmitsCompleteEventWithArg) {
  obs::set_trace_enabled(true);
  {
    obs::Stage stage("trace_test.scope", "test", nullptr, "items");
    stage.set_arg(42);
  }
  EXPECT_GE(obs::trace_event_count(), 1u);
  const std::string json = obs::trace_json();
  expect_balanced_json(json);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"trace_test.scope\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"test\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"items\":42}"), std::string::npos);
}

TEST_F(TraceTest, DisabledScopeRecordsNothingAndReadsNoClock) {
  ASSERT_FALSE(obs::trace_enabled());
  {
    obs::Stage stage("trace_test.dark", "test");
    obs::trace_instant("trace_test.dark_instant", "test");
    EXPECT_EQ(stage.stop(), 0u);  // No sink and no trace: no clock read.
  }
  EXPECT_EQ(obs::trace_event_count(), 0u);
  const std::string json = obs::trace_json();
  EXPECT_EQ(json.find("trace_test.dark"), std::string::npos);
}

TEST_F(TraceTest, StageFeedsBothSinksFromOneClockPair) {
  for (const bool obs_on : {false, true}) {
    for (const bool trace_on : {false, true}) {
      SCOPED_TRACE(testing::Message() << "obs " << obs_on << ", trace "
                                      << trace_on);
      obs::Registry reg;
      obs::Histogram& h = reg.histogram("trace_test.stage_ns");
      obs::trace_reset();
      obs::set_enabled(obs_on);
      obs::set_trace_enabled(trace_on);
      obs::Stage stage("trace_test.stage", "test", &h, "items", 7);
      const std::uint64_t elapsed = stage.stop();
      obs::set_enabled(true);
      obs::set_trace_enabled(false);

      const obs::Histogram::Snapshot snap = h.snapshot();
      EXPECT_EQ(snap.count, obs_on ? 1u : 0u);
      EXPECT_EQ(obs::trace_event_count(), trace_on ? 1u : 0u);
      if (!obs_on && !trace_on) {
        EXPECT_EQ(elapsed, 0u);
      }
      if (obs_on) {
        EXPECT_EQ(snap.sum, elapsed);
      }
      if (!(obs_on && trace_on)) continue;

      // The event's duration (µs) is the histogram's one sample (ns).
      const std::string json = obs::trace_json();
      EXPECT_NE(json.find("\"args\":{\"items\":7}"), std::string::npos);
      const std::size_t at = json.find("\"dur\":");
      ASSERT_NE(at, std::string::npos);
      const double dur_us = std::strtod(json.c_str() + at + 6, nullptr);
      EXPECT_EQ(std::llround(dur_us * 1000.0),
                static_cast<long long>(snap.sum));
    }
  }
}

TEST_F(TraceTest, InstantEventsCarryScopeMarker) {
  obs::set_trace_enabled(true);
  obs::trace_instant("trace_test.instant", "test", "iteration", 7);
  const std::string json = obs::trace_json();
  expect_balanced_json(json);
  EXPECT_NE(json.find("\"name\":\"trace_test.instant\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"s\":\"t\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"iteration\":7}"), std::string::npos);
}

TEST_F(TraceTest, FullRingDropsAndCountsInsteadOfGrowing) {
  obs::set_trace_enabled(true);
  const std::size_t capacity = obs::trace_capacity();
  const std::uint64_t dropped_before =
      obs::counter("trace.dropped_events").value();
  const std::size_t count_before = obs::trace_event_count();

  constexpr std::size_t kOverflow = 100;
  for (std::size_t i = 0; i < capacity + kOverflow; ++i) {
    obs::trace_instant("trace_test.flood", "test");
  }
  // This thread's buffer holds exactly `capacity` events; the overflow was
  // dropped and counted, never written.
  EXPECT_EQ(obs::trace_event_count() - count_before, capacity);
  EXPECT_GE(obs::counter("trace.dropped_events").value() - dropped_before,
            kOverflow);
}

TEST_F(TraceTest, ResetEmptiesEveryBuffer) {
  obs::set_trace_enabled(true);
  obs::trace_instant("trace_test.pre_reset", "test");
  ASSERT_GE(obs::trace_event_count(), 1u);
  obs::trace_reset();
  EXPECT_EQ(obs::trace_event_count(), 0u);
  EXPECT_EQ(obs::trace_json().find("trace_test.pre_reset"),
            std::string::npos);
}

TEST_F(TraceTest, ConcurrentWritersAllLand) {
  obs::set_trace_enabled(true);
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = 500;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        obs::trace_instant("trace_test.mt", "test");
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(obs::trace_event_count(), kThreads * kPerThread);
  expect_balanced_json(obs::trace_json());
}

TEST_F(TraceTest, LedgerMergesOutOfOrderAppendsBySequence) {
  obs::Ledger ledger;
  ledger.append(2, "{\"w\":2}");
  ledger.append(0, "{\"w\":0}");
  ledger.append(1, "{\"w\":1}");
  EXPECT_EQ(ledger.size(), 3u);
  EXPECT_EQ(ledger.jsonl(), "{\"w\":0}\n{\"w\":1}\n{\"w\":2}\n");
  ledger.reset();
  EXPECT_EQ(ledger.size(), 0u);
  EXPECT_EQ(ledger.jsonl(), "");
}

TEST_F(TraceTest, LedgerMergesAppendsFromManyThreads) {
  obs::Ledger ledger;
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kRows = 64;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&ledger, t] {
      for (std::size_t i = t; i < kRows; i += kThreads) {
        ledger.append(i, "{\"row\":" + std::to_string(i) + "}");
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ledger.size(), kRows);
  std::string expected;
  for (std::size_t i = 0; i < kRows; ++i) {
    expected += "{\"row\":" + std::to_string(i) + "}\n";
  }
  EXPECT_EQ(ledger.jsonl(), expected);
}

// A small but real front end, shared by the end-to-end ledger tests.
core::FrontEndConfig small_config() {
  core::FrontEndConfig config;
  config.window = 256;
  config.measurements = 48;
  config.wavelet_levels = 4;
  config.solver.max_iterations = 300;
  return config;
}

TEST_F(TraceTest, RunRecordLedgerIsBitIdenticalAcrossThreadCounts) {
  ecg::RecordConfig record_config;
  record_config.duration_seconds = 20.0;
  const ecg::SyntheticDatabase database(record_config, 2015);
  const core::FrontEndConfig config = small_config();
  const auto codec_book = core::train_lowres_codec(config, database, 2, 2);
  const core::Codec codec(config, codec_book);

  obs::set_ledger_enabled(true);

  parallel::ThreadPool serial(1);
  (void)core::run_database(codec, database, 2, 4, core::DecodeMode::kAuto,
                           serial);
  const std::string serial_ledger = obs::ledger_jsonl();
  obs::ledger_reset();

  parallel::ThreadPool threaded(4);
  (void)core::run_database(codec, database, 2, 4, core::DecodeMode::kAuto,
                           threaded);
  const std::string threaded_ledger = obs::ledger_jsonl();

  ASSERT_FALSE(serial_ledger.empty());
  EXPECT_EQ(serial_ledger, threaded_ledger);
  // 2 records × 4 windows, one row each, newline-terminated.
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(serial_ledger.begin(), serial_ledger.end(), '\n')),
            8u);
  EXPECT_NE(serial_ledger.find("\"kind\":\"window\""), std::string::npos);
  EXPECT_NE(serial_ledger.find("\"solver\":\"pdhg\""), std::string::npos);
  EXPECT_NE(serial_ledger.find("\"decode_mode\":\"auto\""),
            std::string::npos);
  EXPECT_NE(serial_ledger.find("\"sigma\":"), std::string::npos);
  // The solver certificate rides along and is deterministic too.
  EXPECT_NE(serial_ledger.find("\"gap\":"), std::string::npos);
  EXPECT_NE(serial_ledger.find("\"box_violation\":"), std::string::npos);
  // Locale-proof doubles: no decimal commas anywhere in a ledger number.
  EXPECT_EQ(serial_ledger.find(",\","), std::string::npos);

  // The link path writes its rows through the same runner.
  link::LinkSessionConfig link_config;
  link_config.channel.kind = link::ChannelKind::kPacketErasure;
  link_config.channel.erasure_rate = 0.1;
  const link::LinkSession session(config, codec_book, link_config);
  obs::ledger_reset();
  (void)link::run_link_database(session, database, 2, 4, serial);
  const std::string serial_link = obs::ledger_jsonl();
  obs::ledger_reset();
  (void)link::run_link_database(session, database, 2, 4, threaded);
  const std::string threaded_link = obs::ledger_jsonl();
  ASSERT_FALSE(serial_link.empty());
  EXPECT_EQ(serial_link, threaded_link);
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(serial_link.begin(), serial_link.end(), '\n')),
            8u);
  EXPECT_NE(serial_link.find("\"kind\":\"link_window\""), std::string::npos);
}

TEST_F(TraceTest, LedgerDiffFindsNoMoversInACopyAndReportsAOneFieldEdit) {
  ecg::RecordConfig record_config;
  record_config.duration_seconds = 20.0;
  const ecg::SyntheticDatabase database(record_config, 2015);
  const core::FrontEndConfig config = small_config();
  const auto codec_book = core::train_lowres_codec(config, database, 2, 2);
  const core::Codec codec(config, codec_book);
  obs::set_ledger_enabled(true);
  parallel::ThreadPool serial(1);
  (void)core::run_database(codec, database, 2, 3, core::DecodeMode::kAuto,
                           serial);
  const std::string ledger = obs::ledger_jsonl();

  const obs::LedgerDiff same = obs::diff_ledgers(ledger, ledger);
  EXPECT_EQ(same.matched, 6u);
  EXPECT_TRUE(same.movers.empty());
  EXPECT_TRUE(same.problems.empty());
  EXPECT_EQ(same.status(), 0);

  // Bump the iteration count of the second row: exactly that window
  // moves, by exactly that field.
  std::string edited = ledger;
  const std::size_t row2 = edited.find('\n') + 1;
  const std::size_t at = edited.find("\"iterations\":", row2) + 13;
  const std::size_t end = edited.find(',', at);
  const long long iterations = std::stoll(edited.substr(at, end - at));
  edited.replace(at, end - at, std::to_string(iterations + 7));
  const obs::LedgerDiff moved = obs::diff_ledgers(ledger, edited);
  EXPECT_EQ(moved.matched, 6u);
  ASSERT_EQ(moved.movers.size(), 1u);
  EXPECT_EQ(moved.movers[0].window, 1u);
  EXPECT_EQ(moved.movers[0].fields, std::vector<std::string>{"iterations"});
  EXPECT_EQ(moved.movers[0].delta_iterations, 7);
  EXPECT_EQ(moved.movers[0].delta_snr, 0.0);
  EXPECT_FALSE(moved.movers[0].convergence_flip);
  EXPECT_EQ(moved.status(), 1);

  // A missing row or a line that is not a ledger row is a problem.
  const std::string truncated = ledger.substr(0, row2) + "not json\n";
  const obs::LedgerDiff broken = obs::diff_ledgers(ledger, truncated);
  EXPECT_EQ(broken.matched, 1u);
  EXPECT_EQ(broken.problems.size(), 6u);  // 1 malformed + 5 unmatched.
  EXPECT_EQ(broken.status(), 2);
}

TEST_F(TraceTest, LedgerDiffSnrToleranceGatesQualityNotBits) {
  // --snr-tol: windows may move, but by at most the tolerance in SNR and
  // without losing their certificate; a problem row still fails hard.
  const std::string base =
      "{\"kind\":\"window\",\"record\":\"r0\",\"window\":0,"
      "\"iterations\":300,\"converged\":true,\"snr\":20.5}\n"
      "{\"kind\":\"window\",\"record\":\"r0\",\"window\":1,"
      "\"iterations\":400,\"converged\":false,\"snr\":18.25}\n";
  const auto edit = [&](const std::string& from, const std::string& to) {
    std::string text = base;
    text.replace(text.find(from), from.size(), to);
    return text;
  };
  EXPECT_EQ(obs::diff_ledgers(base, base).status(0.0), 0);

  // Fewer iterations and 0.02 dB more: a mover, within 0.03 dB.
  const obs::LedgerDiff faster = obs::diff_ledgers(
      base, edit("\"iterations\":300,\"converged\":true,\"snr\":20.5}",
                 "\"iterations\":200,\"converged\":true,\"snr\":20.52}"));
  ASSERT_EQ(faster.movers.size(), 1u);
  EXPECT_EQ(faster.status(), 1);
  EXPECT_EQ(faster.status(0.03), 0);
  EXPECT_EQ(faster.status(0.01), 1);

  // Losing the certificate fails whatever the SNR does; gaining it is fine.
  const obs::LedgerDiff lost = obs::diff_ledgers(
      base, edit("\"converged\":true", "\"converged\":false"));
  ASSERT_EQ(lost.movers.size(), 1u);
  EXPECT_TRUE(lost.movers[0].lost_convergence);
  EXPECT_EQ(lost.status(0.03), 1);
  const obs::LedgerDiff gained = obs::diff_ledgers(
      base, edit("\"converged\":false", "\"converged\":true"));
  ASSERT_EQ(gained.movers.size(), 1u);
  EXPECT_TRUE(gained.movers[0].convergence_flip);
  EXPECT_FALSE(gained.movers[0].lost_convergence);
  EXPECT_EQ(gained.status(0.03), 0);

  // A null SNR is no number within any tolerance; a missing row is a
  // problem.
  EXPECT_EQ(
      obs::diff_ledgers(base, edit("\"snr\":18.25", "\"snr\":null"))
          .status(100.0),
      1);
  EXPECT_EQ(obs::diff_ledgers(base, base.substr(0, base.find('\n') + 1))
                .status(100.0),
            2);
}

TEST_F(TraceTest, SnapshotCountersRepeatAcrossPooledRuns) {
  // No counter may depend on which pool worker finishes last: two
  // identical pooled runs, and a serial one, leave the same "counters"
  // block.
  ecg::RecordConfig record_config;
  record_config.duration_seconds = 20.0;
  const ecg::SyntheticDatabase database(record_config, 2015);
  const core::FrontEndConfig config = small_config();
  const core::Codec codec(config,
                          core::train_lowres_codec(config, database, 2, 2));
  const auto counters_after = [&](std::size_t threads) {
    parallel::ThreadPool pool(threads);
    obs::Registry::global().reset();
    (void)core::run_database(codec, database, 2, 4, core::DecodeMode::kAuto,
                             pool);
    const std::string json = obs::snapshot_json();
    const std::size_t begin = json.find("\"counters\":");
    const std::size_t end = json.find(",\"histograms\":");
    EXPECT_NE(begin, std::string::npos);
    EXPECT_NE(end, std::string::npos);
    return json.substr(begin, end - begin);
  };
  const std::string first = counters_after(4);
  EXPECT_EQ(counters_after(4), first);
  EXPECT_EQ(counters_after(1), first);
}

TEST_F(TraceTest, LedgerDisabledRecordsNoRows) {
  ecg::RecordConfig record_config;
  record_config.duration_seconds = 20.0;
  const ecg::SyntheticDatabase database(record_config, 2015);
  const core::FrontEndConfig config = small_config();
  const auto codec_book = core::train_lowres_codec(config, database, 2, 2);
  const core::Codec codec(config, codec_book);

  ASSERT_FALSE(obs::ledger_enabled());
  parallel::ThreadPool pool(1);
  (void)core::run_record(codec, database.record(0), 2,
                         core::DecodeMode::kAuto, pool);
  EXPECT_EQ(obs::ledger_size(), 0u);
}

TEST_F(TraceTest, LinkLedgerRowsCarryLossAccounting) {
  ecg::RecordConfig record_config;
  record_config.duration_seconds = 20.0;
  const ecg::SyntheticDatabase database(record_config, 2015);
  const core::FrontEndConfig config = small_config();
  const auto codec_book = core::train_lowres_codec(config, database, 2, 2);

  link::LinkSessionConfig link_config;
  link_config.channel.kind = link::ChannelKind::kPacketErasure;
  link_config.channel.erasure_rate = 0.1;
  const link::LinkSession session(config, codec_book, link_config);

  obs::set_ledger_enabled(true);
  parallel::ThreadPool pool(2);
  const link::LinkRecordReport report =
      link::run_link_record(session, database.record(0), 4, 0, pool);

  const std::string ledger = obs::ledger_jsonl();
  ASSERT_FALSE(ledger.empty());
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(ledger.begin(), ledger.end(), '\n')),
            4u);
  EXPECT_NE(ledger.find("\"kind\":\"link_window\""), std::string::npos);
  EXPECT_NE(ledger.find("\"m_eff\":"), std::string::npos);
  EXPECT_NE(ledger.find("\"retransmissions\":"), std::string::npos);
  EXPECT_NE(ledger.find("\"energy_j\":"), std::string::npos);
  EXPECT_NE(ledger.find("\"boxed_samples\":"), std::string::npos);
  EXPECT_NE(ledger.find("\"gap\":"), std::string::npos);
  EXPECT_NE(ledger.find("\"box_violation\":"), std::string::npos);

  // The outlier fence is a real number and the flags point inside range.
  EXPECT_TRUE(std::isfinite(report.outlier_snr_threshold_db));
  for (const std::size_t w : report.outlier_windows) {
    EXPECT_LT(w, report.windows.size());
    EXPECT_LT(report.windows[w].snr, report.outlier_snr_threshold_db);
  }
}

// Every flagged index is in range and strictly below the fence, unflagged
// windows are at or above it, and each window's `outlier` flag is exactly
// its membership in outlier_windows.
template <typename Report>
void expect_flags_match_fence(const Report& report) {
  EXPECT_TRUE(std::isfinite(report.outlier_snr_threshold_db));
  std::vector<bool> flagged(report.windows.size(), false);
  for (const std::size_t w : report.outlier_windows) {
    ASSERT_LT(w, report.windows.size());
    flagged[w] = true;
  }
  for (std::size_t w = 0; w < report.windows.size(); ++w) {
    EXPECT_EQ(report.windows[w].outlier, flagged[w]) << "window " << w;
    if (flagged[w]) {
      EXPECT_LT(report.windows[w].snr, report.outlier_snr_threshold_db);
    } else {
      EXPECT_GE(report.windows[w].snr, report.outlier_snr_threshold_db);
    }
  }
}

TEST_F(TraceTest, RunRecordFlagsMadOutliers) {
  ecg::RecordConfig record_config;
  record_config.duration_seconds = 20.0;
  const ecg::SyntheticDatabase database(record_config, 2015);
  const core::FrontEndConfig config = small_config();
  const auto codec_book = core::train_lowres_codec(config, database, 2, 2);
  const core::Codec codec(config, codec_book);

  parallel::ThreadPool pool(1);
  expect_flags_match_fence(core::run_record(
      codec, database.record(0), 4, core::DecodeMode::kAuto, pool));

  // A lossy link spreads the SNRs out, so a fence is usually cut there.
  link::LinkSessionConfig link_config;
  link_config.channel.kind = link::ChannelKind::kPacketErasure;
  link_config.channel.erasure_rate = 0.2;
  const link::LinkSession session(config, codec_book, link_config);
  std::size_t flagged = 0;
  for (std::size_t r = 0; r < 3; ++r) {
    const link::LinkRecordReport report =
        link::run_link_record(session, database.record(r), 6, 0, pool);
    expect_flags_match_fence(report);
    flagged += report.outlier_windows.size();
  }
  EXPECT_GT(flagged, 0u);
}

TEST_F(TraceTest, PipelineStagesShowUpInTrace) {
  ecg::RecordConfig record_config;
  record_config.duration_seconds = 20.0;
  const ecg::SyntheticDatabase database(record_config, 2015);
  const core::FrontEndConfig config = small_config();
  const auto codec_book = core::train_lowres_codec(config, database, 2, 2);
  const core::Codec codec(config, codec_book);

  obs::set_trace_enabled(true);
  obs::trace_reset();  // Drop anything the codec setup itself traced.
  parallel::ThreadPool pool(2);
  (void)core::run_record(codec, database.record(0), 3,
                         core::DecodeMode::kAuto, pool);

  const std::string json = obs::trace_json();
  expect_balanced_json(json);
  for (const char* stage :
       {"\"name\":\"runner.window\"", "\"name\":\"encode\"",
        "\"name\":\"decode\"", "\"name\":\"solver.pdhg.solve\""}) {
    EXPECT_NE(json.find(stage), std::string::npos) << stage;
  }

  // A link run goes through the same runner: its windows show up as
  // runner.window spans and in the runner.* counters too.
  const link::LinkSession session(config, codec_book, {});
  obs::trace_reset();
  const std::uint64_t windows_before = obs::counter("runner.windows").value();
  const std::uint64_t records_before = obs::counter("runner.records").value();
  (void)link::run_link_record(session, database.record(0), 3, 0, pool);
  const std::string link_json = obs::trace_json();
  expect_balanced_json(link_json);
  for (const char* stage :
       {"\"name\":\"runner.window\"", "\"name\":\"link.window\"",
        "\"name\":\"link.transmit\"", "\"name\":\"solver.pdhg.solve\""}) {
    EXPECT_NE(link_json.find(stage), std::string::npos) << stage;
  }
  EXPECT_EQ(obs::counter("runner.windows").value(), windows_before + 3);
  EXPECT_EQ(obs::counter("runner.records").value(), records_before + 1);
}

}  // namespace
}  // namespace csecg
