// In-memory spans for the traced run.  Spans are recorded by the
// benchmark around its own calls into each library layer (the library is
// never asked to trace itself), kept per window in memory, and written out
// as one Chrome/Perfetto JSON file when the run ends.
//
// Φ and Ψ are called ~4000 times per window, so they are not spans: their
// time and call count are summed per window (OpTally) and attributed to
// the window's "solve" span as pseudo-children named "phi" and "psi".
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Summed cost of one operator's calls within a window.
struct OpTally {
  std::int64_t ns = 0;
  std::uint64_t calls = 0;
  /// Bytes a dense product touches (matrix + input + output), summed over
  /// calls — computed from the operator's shape, not measured.
  double bytes = 0.0;
};

struct SpanRecord {
  const char* name = "";
  int parent = -1;  ///< Index into WindowTrace::spans; -1 for the root.
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// All spans of one window; spans[0] is the root named "window", whose id
/// is the window's sequence number.
struct WindowTrace {
  std::uint32_t sequence = 0;
  int thread = 0;  ///< Dense worker index, for the trace file's tid.
  int iterations = 0;
  std::vector<SpanRecord> spans;
  std::vector<int> open;  ///< Stack of open span indices.
  OpTally phi;
  OpTally psi;
};

/// RAII span: opens under the innermost open span of `trace`, closes on
/// destruction or stop().
class Scope {
 public:
  Scope(WindowTrace& trace, const char* name);
  ~Scope() { stop(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  void stop();

 private:
  WindowTrace& trace_;
  int index_;
  bool open_ = true;
};

/// Per-layer self time of one window in ns: each span's duration minus the
/// part of it its children cover ("solve" also minus Φ and Ψ, which appear
/// as layers "phi" and "psi").  Summed over layers this equals the root
/// span's duration when children nest inside their parents.
std::map<std::string, std::int64_t> self_times(const WindowTrace& trace);

/// Inclusive duration of the first span named `name` (0 when absent).
std::int64_t span_ns(const WindowTrace& trace, const char* name);
bool has_span(const WindowTrace& trace, const char* name);

/// Writes the spans as Chrome trace-event JSON (open in ui.perfetto.dev).
/// Timestamps are relative to `origin_ns`.  Returns false on I/O failure.
bool write_chrome_trace(const std::string& path,
                        const std::vector<WindowTrace>& traces,
                        std::int64_t origin_ns);

}  // namespace perfbench
