// Output helpers: metrics, minimal JSON writing, and the host facts every
// result records.
#pragma once

#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// "text" with quotes and backslashes escaped.
std::string json_string(const std::string& text);

/// All 17 significant digits; null for a non-finite value.
std::string json_number(double value);

/// [v0, v1, ...]
std::string json_array(const std::vector<double>& values);

/// {"name": {"value": v, "unit": "u"}, ...}
std::string metrics_json(const std::vector<Metric>& metrics);

/// Builds one JSON object from already-encoded values.
class JsonObject {
 public:
  JsonObject& add(const std::string& key, const std::string& encoded);
  std::string str() const { return text_ + "}"; }

 private:
  std::string text_ = "{";
};

/// The CPU's brand string (x86 cpuid), or "unknown".
std::string cpu_model();

/// Peak resident set size of this process in MiB.
double peak_rss_mib();

}  // namespace perfbench
