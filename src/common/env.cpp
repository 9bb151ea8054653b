#include "common/env.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>

namespace roadfusion {

std::string env_string(const std::string& name, const std::string& fallback) {
  const char* value = std::getenv(name.c_str());
  if (value == nullptr || value[0] == '\0') {
    return fallback;
  }
  return value;
}

int env_int(const std::string& name, int fallback) {
  const char* value = std::getenv(name.c_str());
  if (value == nullptr || value[0] == '\0') {
    return fallback;
  }
  char* end = nullptr;
  const long parsed = std::strtol(value, &end, 10);
  if (end == value || *end != '\0') {
    return fallback;
  }
  return static_cast<int>(parsed);
}

bool env_flag(const std::string& name, bool fallback) {
  const char* value = std::getenv(name.c_str());
  if (value == nullptr || value[0] == '\0') {
    return fallback;
  }
  std::string lowered(value);
  std::transform(lowered.begin(), lowered.end(), lowered.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return lowered == "1" || lowered == "true" || lowered == "on" ||
         lowered == "yes";
}

}  // namespace roadfusion
