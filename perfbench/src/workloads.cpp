#include "workloads.hpp"

#include <cstring>
#include <utility>

namespace perfbench {
namespace {

core::FrontEndConfig config_for(const Workload& workload) {
  core::FrontEndConfig config;  // n=512, 12-bit ADC, db4/5, default PDHG.
  config.measurements = workload.measurements;
  config.lowres_bits = workload.lowres_bits;
  return config;
}

/// MTU 64, Gilbert–Elliott at 10% stationary erasure, no ARQ.
link::LinkSessionConfig link_config_for(std::uint64_t seed) {
  link::LinkSessionConfig link;
  link.packetizer.mtu_bytes = 64;
  link.channel.kind = link::ChannelKind::kGilbertElliott;
  link.channel.ge_good_to_bad = 0.05;
  link.channel.ge_bad_to_good = 0.20;
  link.channel.ge_erasure_bad = 0.5;
  link.channel.seed = seed;
  link.arq.mode = link::ArqMode::kNone;
  return link;
}

double seconds_between(std::int64_t t0, std::int64_t t1) {
  return static_cast<double>(t1 - t0) * 1e-9;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

WindowOutput from_clean(const Fixture& f, const core::Frame& frame,
                        core::DecodeResult decoded) {
  WindowOutput out;
  out.x = std::move(decoded.x);
  out.solved = true;
  out.iterations = decoded.solver.iterations;
  out.converged = decoded.solver.converged;
  out.air_bits = frame.total_bits();
  out.lowres_bits = frame.lowres_bits;
  // The whole frame priced as one radio transmission, no link framing.
  out.energy_j = price_window(f.config, f.link, frame.total_bits(), 0).total();
  return out;
}

WindowOutput from_link(link::WindowResult result) {
  WindowOutput out;
  out.x = std::move(result.decoded.x);
  out.solved = !result.decoded.lowres_only;
  out.iterations = result.decoded.solver.iterations;
  out.converged = result.decoded.solver.converged;
  out.air_bits = result.stats.data_bits;
  out.energy_j = result.energy.total();
  out.stats = result.stats;
  out.lowres_only = result.decoded.lowres_only;
  return out;
}

}  // namespace

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::unique_ptr<Fixture> set_up(const Workload& workload,
                                std::uint64_t seed) {
  auto f = std::make_unique<Fixture>();
  f->config = config_for(workload);
  f->link = link_config_for(seed);
  const std::int64_t t0 = now_ns();
  ecg::RecordConfig record_config;
  record_config.duration_seconds = kRecordSeconds;
  f->database = std::make_unique<ecg::SyntheticDatabase>(record_config, seed);
  for (std::size_t r = 0; r < workload.records; ++r) {
    for (auto& window : ecg::extract_windows(f->database->record(r),
                                             f->config.window,
                                             workload.windows_per_record)) {
      f->windows.push_back(std::move(window));
    }
  }
  const std::int64_t t1 = now_ns();
  if (f->config.lowres_bits > 0) {
    // Offline codebook from 4 records × 4 windows of the same database.
    f->codec = core::train_lowres_codec(f->config, *f->database, 4, 4);
  }
  const std::int64_t t2 = now_ns();
  if (workload.path == Path::kLink) {
    f->session =
        std::make_unique<link::LinkSession>(f->config, f->codec, f->link);
  } else {
    f->codec_pair = std::make_unique<core::Codec>(f->config, f->codec);
  }
  const std::int64_t t3 = now_ns();
  f->synth_s = seconds_between(t0, t1);
  f->train_s = seconds_between(t1, t2);
  f->build_s = seconds_between(t2, t3);
  return f;
}

bool same_output(const WindowOutput& a, const WindowOutput& b) {
  if (a.x.size() != b.x.size()) return false;
  for (std::size_t i = 0; i < a.x.size(); ++i) {
    if (!same_bits(a.x[i], b.x[i])) return false;
  }
  return a.solved == b.solved && a.iterations == b.iterations &&
         a.converged == b.converged && a.air_bits == b.air_bits &&
         a.lowres_bits == b.lowres_bits && same_bits(a.energy_j, b.energy_j) &&
         a.stats.packets == b.stats.packets &&
         a.stats.delivered == b.stats.delivered &&
         a.stats.data_bits == b.stats.data_bits &&
         a.stats.effective_m == b.stats.effective_m &&
         a.stats.boxed_samples == b.stats.boxed_samples &&
         a.lowres_only == b.lowres_only;
}

WindowOutput run_public(const Fixture& f, const Workload& workload,
                        std::size_t i) {
  if (workload.path == Path::kLink) {
    return from_link(f.session->transmit_window(
        f.windows[i], static_cast<std::uint32_t>(i)));
  }
  const core::Frame frame = f.codec_pair->encoder().encode(f.windows[i]);
  return from_clean(f, frame,
                    f.codec_pair->decoder().decode(frame, workload.mode));
}

TracedChain::TracedChain(const Fixture& f, const Workload& workload)
    : f_(f), workload_(workload) {
  if (workload.path == Path::kLink) {
    link_.emplace(*f.session, f.codec);
  } else {
    encoder_.emplace(f.config, f.codec);
    decoder_.emplace(f.config, f.codec);
  }
}

WindowOutput TracedChain::run(std::size_t i) const {
  WindowTrace trace;
  trace.sequence = static_cast<std::uint32_t>(i);
  WindowOutput out;
  {
    const Scope root(trace, "window");
    if (workload_.path == Path::kLink) {
      out = from_link(link_->transmit_window(
          f_.windows[i], static_cast<std::uint32_t>(i), trace));
    } else {
      const core::Frame frame = encoder_->encode(f_.windows[i], trace);
      out = from_clean(f_, frame,
                       decoder_->decode(frame, workload_.mode, trace));
    }
  }
  out.trace = std::move(trace);
  return out;
}

}  // namespace perfbench
