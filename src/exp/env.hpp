// Shared environment-variable knobs for benches and the campaign runner.
//
// Every bench used to carry its own copy of these helpers; they live here
// once so the knob set (ICC_RUNS, ICC_SIM_TIME, ICC_THREADS, ICC_JSON,
// ICC_CAMPAIGN_JOURNAL, ...) is parsed uniformly.
//
// Parsing is strict: a malformed value (ICC_THREADS=1O, ICC_SIM_TIME=3OO.0,
// ICC_SCALE_NODES=1x00) aborts with a message naming the variable instead of
// silently truncating to a numeric prefix the way atoi/atof would — a typo'd
// knob must never launch a multi-hour campaign with the wrong parameters.
#pragma once

#include <algorithm>
#include <string>
#include <vector>

#include "sim/env.hpp"

namespace icc::exp {

// One strict implementation (sim/env.hpp), shared with the simulator's own
// knobs.
using sim::env_double;
using sim::env_fail;
using sim::env_flag;
using sim::env_int;
using sim::env_string;
using sim::env_string_if_set;

/// Comma-separated integer list (e.g. ICC_SCALE_NODES=100,1000). Every item
/// must be a whole integer — "1x00" or "2x" aborts naming the variable
/// rather than running with a truncated prefix. Empty items are skipped;
/// `fallback` applies when the variable is unset or empty.
inline std::vector<int> env_int_list(const char* name, const char* fallback) {
  const std::string spec = env_string(name, fallback);
  std::vector<int> out;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t comma = std::min(spec.find(',', pos), spec.size());
    const std::string item = spec.substr(pos, comma - pos);
    if (!item.empty()) {
      int value = 0;
      if (!sim::parse_whole_int(item.c_str(), value)) {
        env_fail(name, spec.c_str(), "comma-separated integer list");
      }
      out.push_back(value);
    }
    pos = comma + 1;
  }
  return out;
}

}  // namespace icc::exp
