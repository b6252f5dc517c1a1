// The environment switch behind the obs gates (CSECG_TRACE, CSECG_LEDGER).
#pragma once

#include <cstdlib>
#include <string_view>

namespace csecg::obs {

/// True when `name` is set to anything but "", "0", "false" or "off".
inline bool env_truthy(const char* name) {
  const char* env = std::getenv(name);
  if (env == nullptr) return false;
  const std::string_view value(env);
  return !(value.empty() || value == "0" || value == "false" ||
           value == "off");
}

}  // namespace csecg::obs
