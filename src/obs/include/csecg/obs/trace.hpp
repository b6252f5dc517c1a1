// Structured pipeline tracing: per-thread fixed-capacity event buffers
// behind a process-wide gate, exported as Chrome trace-event JSON that
// loads directly in Perfetto / chrome://tracing.  obs::Stage, the one
// timer every pipeline stage uses, lives here too: it feeds a stage's
// histogram and its trace event from one clock pair.
//
// Design constraints (see DESIGN.md "Observability"):
//  * The disabled hot path stays allocation-free: every emit site is one
//    out-of-line trace_enabled() load plus a branch, and no buffer exists
//    until a thread records its first event while tracing is on.
//  * Recording is lock-free: each thread owns one append-only buffer of
//    preallocated slots; the writer publishes with a release store of its
//    event count and the exporter reads it back with an acquire load, so
//    no event slot is ever touched by two threads without ordering.
//  * Buffers are bounded (CSECG_TRACE_CAPACITY events per thread, default
//    65536).  A full buffer drops new events and bumps the
//    `trace.dropped_events` counter rather than blocking or reallocating.
//
// Gating: tracing starts disabled unless the CSECG_TRACE environment
// variable is truthy ("1", "on", anything but ""/"0"/"false"/"off"), and
// can be toggled at runtime with set_trace_enabled().
//
// Event names and categories must be string literals (or otherwise outlive
// the trace): slots store the pointers, never copies.
#pragma once

#include <cstdint>
#include <string>

#include "csecg/obs/registry.hpp"

namespace csecg::obs {

/// One trace event in a thread's buffer.  POD so slots preallocate.
struct TraceEvent {
  const char* name = nullptr;
  const char* category = nullptr;
  const char* arg_name = nullptr;  ///< nullptr = no argument.
  std::uint64_t ts_ns = 0;         ///< Start (complete) / instant time.
  std::uint64_t dur_ns = 0;        ///< Duration; 0 for instants.
  std::uint64_t arg = 0;           ///< Meaningful iff arg_name != nullptr.
  char phase = 'X';                ///< 'X' complete, 'i' instant.
};

/// True while tracing is armed.  Seeded from CSECG_TRACE on first query.
bool trace_enabled() noexcept;

/// Arms/disarms tracing process-wide.
void set_trace_enabled(bool on) noexcept;

/// Per-thread buffer capacity in events (CSECG_TRACE_CAPACITY, fixed at
/// first use).
std::size_t trace_capacity() noexcept;

/// Records a begin/end pair as one complete ('X') event.  No-op while
/// tracing is disabled; drops (and counts) when the thread's buffer is
/// full.
void trace_complete(const char* name, const char* category,
                    std::uint64_t start_ns, std::uint64_t dur_ns,
                    const char* arg_name = nullptr,
                    std::uint64_t arg = 0) noexcept;

/// Records an instant ('i') event stamped now.
void trace_instant(const char* name, const char* category,
                   const char* arg_name = nullptr,
                   std::uint64_t arg = 0) noexcept;

/// Events currently held across every thread buffer.
std::size_t trace_event_count();

/// Serializes every buffered event as Chrome trace-event JSON:
///   {"displayTimeUnit":"ms","traceEvents":[{"name":...,"cat":...,
///    "ph":"X","pid":1,"tid":t,"ts":us,"dur":us,"args":{...}},...]}
/// Timestamps are microseconds (the format's unit).  Buffers are emitted
/// in thread-registration order, events in record order.
std::string trace_json();

/// Empties every buffer (capacity is kept).  Scrape-side, like
/// Histogram::reset: events being recorded concurrently may survive.
void trace_reset();

/// Times one pipeline stage into both obs sinks from one clock pair: a
/// histogram sample (nanoseconds) when `sink` is given and obs::enabled(),
/// and a complete trace event when trace_enabled().  With both gates off
/// it reads no clock and records nothing.
///
///   Frame Encoder::encode(...) const {
///     static obs::Histogram& h = obs::histogram("encode.window_ns");
///     const obs::Stage stage("encode", "core", &h);
///     ...
///   }  // sample and event recorded on scope exit
///
/// An optional u64 trace argument can be named at construction and filled
/// in later (e.g. an iteration count known only at the end of the scope).
class Stage {
 public:
  explicit Stage(const char* name, const char* category,
                 Histogram* sink = nullptr, const char* arg_name = nullptr,
                 std::uint64_t arg = 0) noexcept
      : name_(trace_enabled() ? name : nullptr),
        category_(category),
        arg_name_(arg_name),
        sink_(sink != nullptr && enabled() ? sink : nullptr),
        arg_(arg),
        start_ns_(armed() ? monotonic_ns() : 0) {}

  Stage(const Stage&) = delete;
  Stage& operator=(const Stage&) = delete;

  ~Stage() { stop(); }

  /// Updates the argument value emitted with the trace event.
  void set_arg(std::uint64_t value) noexcept { arg_ = value; }

  /// Records now, disarms the destructor, and returns the elapsed
  /// nanoseconds (0 when both gates were off or already stopped).
  std::uint64_t stop() noexcept {
    if (!armed()) return 0;
    const std::uint64_t elapsed = monotonic_ns() - start_ns_;
    if (sink_ != nullptr) sink_->record(elapsed);
    if (name_ != nullptr) {
      trace_complete(name_, category_, start_ns_, elapsed, arg_name_, arg_);
    }
    name_ = nullptr;
    sink_ = nullptr;
    return elapsed;
  }

 private:
  bool armed() const noexcept { return name_ != nullptr || sink_ != nullptr; }

  const char* name_;  ///< nullptr = not traced.
  const char* category_;
  const char* arg_name_;
  Histogram* sink_;   ///< nullptr = no histogram sample.
  std::uint64_t arg_;
  std::uint64_t start_ns_;
};

}  // namespace csecg::obs
