// Small helpers for reading typed configuration from environment variables.
// Benches use these to switch between quick (default) and full-fidelity
// experiment settings without recompiling.
#pragma once

#include <string>

namespace roadfusion {

/// Returns the environment variable `name` or `fallback` if unset/empty.
std::string env_string(const std::string& name, const std::string& fallback);

/// Returns the integer value of env var `name`, or `fallback` when unset or
/// unparsable.
int env_int(const std::string& name, int fallback);

/// Returns true when env var `name` is set to a truthy value ("1", "true",
/// "on", "yes" — case-insensitive).
bool env_flag(const std::string& name, bool fallback = false);

}  // namespace roadfusion
