// Strict environment-variable parsing: the one place any ICC_* knob is read.
//
// Parsing is strict: a malformed value (ICC_THREADS=1O, ICC_SIM_TIME=3OO.0,
// ICC_TRACE_HEALTH=abc) aborts with a message naming the variable instead of
// silently truncating to a numeric prefix the way atoi/strtod would — a
// typo'd knob must never launch a multi-hour campaign, or a traced run, with
// the wrong parameters. Unset and empty variables take the fallback. On/off
// knobs (ICC_FLIGHT, ICC_PROFILE, ...) accept exactly 0 and 1.
//
// Lives in the sim vocabulary layer so the simulator's own knobs (tracing,
// health sampling, profiling) parse exactly like the benches' (exp/env.hpp
// re-exports these helpers). Knobs are read during single-threaded setup:
// world construction, tracer configuration, campaign set-up.
#pragma once

#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

namespace icc::sim {

[[noreturn]] inline void env_fail(const char* name, const char* value, const char* want) {
  std::fprintf(stderr, "env: %s='%s' is not a valid %s\n", name, value, want);
  std::abort();
}

/// The variable's value, or nullptr when unset or empty.
inline const char* env_raw(const char* name) {
  const char* v = std::getenv(name);  // NOLINT(concurrency-mt-unsafe): knobs are read during single-threaded setup
  return v != nullptr && *v != '\0' ? v : nullptr;
}

/// Parses all of `text` as a base-10 int into `out`; false on an empty
/// string, trailing garbage or overflow.
inline bool parse_whole_int(const char* text, int& out) {
  errno = 0;
  char* end = nullptr;
  const long parsed = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE || parsed < INT_MIN || parsed > INT_MAX) {
    return false;
  }
  out = static_cast<int>(parsed);
  return true;
}

inline int env_int(const char* name, int fallback) {
  const char* v = env_raw(name);
  if (v == nullptr) return fallback;
  int parsed = 0;
  if (!parse_whole_int(v, parsed)) env_fail(name, v, "integer");
  return parsed;
}

inline double env_double(const char* name, double fallback) {
  const char* v = env_raw(name);
  if (v == nullptr) return fallback;
  errno = 0;
  char* end = nullptr;
  const double parsed = std::strtod(v, &end);
  if (end == v || *end != '\0' || errno == ERANGE) env_fail(name, v, "number");
  return parsed;
}

/// Returns the variable's value, or `fallback` when unset or empty.
inline std::string env_string(const char* name, const char* fallback = "") {
  const char* v = env_raw(name);
  return std::string{v != nullptr ? v : fallback};
}

/// Like env_string, but keeps an empty value: `fallback` only when unset.
/// For knobs whose empty value means "none" (e.g. an empty list).
inline std::string env_string_if_set(const char* name, const char* fallback) {
  const char* v = std::getenv(name);  // NOLINT(concurrency-mt-unsafe): knobs are read during single-threaded setup
  return std::string{v != nullptr ? v : fallback};
}

/// On/off switch: unset, empty or "0" is off, "1" is on, anything else
/// aborts — "false" or "off" must not arm what it names.
inline bool env_flag(const char* name) {
  const char* v = env_raw(name);
  if (v == nullptr || std::strcmp(v, "0") == 0) return false;
  if (std::strcmp(v, "1") != 0) env_fail(name, v, "on/off flag (0 or 1)");
  return true;
}

}  // namespace icc::sim
