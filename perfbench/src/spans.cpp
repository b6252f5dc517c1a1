#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <utility>

namespace perfbench {

Scope::Scope(WindowTrace& trace, const char* name)
    : trace_(trace), index_(static_cast<int>(trace.spans.size())) {
  SpanRecord span;
  span.name = name;
  span.parent = trace.open.empty() ? -1 : trace.open.back();
  trace.open.push_back(index_);
  span.start_ns = now_ns();
  trace.spans.push_back(span);
}

void Scope::stop() {
  if (!open_) return;
  open_ = false;
  trace_.spans[static_cast<std::size_t>(index_)].end_ns = now_ns();
  trace_.open.pop_back();
}

std::map<std::string, std::int64_t> self_times(const WindowTrace& trace) {
  std::map<std::string, std::int64_t> self;
  for (std::size_t i = 0; i < trace.spans.size(); ++i) {
    const SpanRecord& span = trace.spans[i];
    // Union of the children's intervals, clipped to this span.
    std::vector<std::pair<std::int64_t, std::int64_t>> children;
    for (const SpanRecord& child : trace.spans) {
      if (child.parent != static_cast<int>(i)) continue;
      children.emplace_back(std::max(child.start_ns, span.start_ns),
                            std::min(child.end_ns, span.end_ns));
    }
    std::sort(children.begin(), children.end());
    std::int64_t covered = 0;
    std::int64_t reach = span.start_ns;
    for (const auto& [lo, hi] : children) {
      const std::int64_t from = std::max(lo, reach);
      if (hi > from) {
        covered += hi - from;
        reach = hi;
      }
    }
    std::int64_t own = span.end_ns - span.start_ns - covered;
    if (std::strcmp(span.name, "solve") == 0) {
      own -= trace.phi.ns + trace.psi.ns;
      self["phi"] += trace.phi.ns;
      self["psi"] += trace.psi.ns;
    }
    self[span.name] += own;
  }
  return self;
}

std::int64_t span_ns(const WindowTrace& trace, const char* name) {
  for (const SpanRecord& span : trace.spans) {
    if (std::strcmp(span.name, name) == 0) return span.end_ns - span.start_ns;
  }
  return 0;
}

bool has_span(const WindowTrace& trace, const char* name) {
  return std::any_of(trace.spans.begin(), trace.spans.end(),
                     [name](const SpanRecord& span) {
                       return std::strcmp(span.name, name) == 0;
                     });
}

bool write_chrome_trace(const std::string& path,
                        const std::vector<WindowTrace>& traces,
                        std::int64_t origin_ns) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", out);
  bool first = true;
  for (const WindowTrace& trace : traces) {
    for (const SpanRecord& span : trace.spans) {
      std::fprintf(out,
                   "%s{\"name\":\"%s\",\"cat\":\"csecg\",\"ph\":\"X\","
                   "\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                   "\"args\":{\"window\":%u",
                   first ? "" : ",\n", span.name, trace.thread,
                   static_cast<double>(span.start_ns - origin_ns) * 1e-3,
                   static_cast<double>(span.end_ns - span.start_ns) * 1e-3,
                   trace.sequence);
      first = false;
      if (std::strcmp(span.name, "solve") == 0) {
        std::fprintf(out,
                     ",\"iterations\":%d,\"phi_us\":%.3f,\"phi_calls\":%llu,"
                     "\"psi_us\":%.3f,\"psi_calls\":%llu",
                     trace.iterations, static_cast<double>(trace.phi.ns) * 1e-3,
                     static_cast<unsigned long long>(trace.phi.calls),
                     static_cast<double>(trace.psi.ns) * 1e-3,
                     static_cast<unsigned long long>(trace.psi.calls));
      }
      std::fputs("}}", out);
    }
  }
  std::fputs("\n]}\n", out);
  return std::fclose(out) == 0;
}

}  // namespace perfbench
