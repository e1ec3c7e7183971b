// Shared declarations of the benchmark program: what one simulated world
// reports back, how trace events are counted, and the workload interface
// main.cpp measures.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "sim/scheduler.hpp"
#include "sim/trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Exact simulated counts of one world. Two runs of the same world with the
/// same seed must agree on every entry, traced or not.
using Signature = std::map<std::string, std::uint64_t>;

inline constexpr std::size_t kNumTraceTypes =
    static_cast<std::size_t>(icc::sim::TraceType::kCount);

/// Trace events counted by type, plus the two detail-qualified counts the
/// per-layer metrics need (completed voting rounds, inner-circle drops).
struct TraceCounts {
  std::array<std::uint64_t, kNumTraceTypes> by_type{};
  std::uint64_t vote_completed{0};
  std::uint64_t suppressed{0};

  void add(icc::sim::TraceType type, const char* detail);
  [[nodiscard]] std::uint64_t operator[](icc::sim::TraceType type) const {
    return by_type[static_cast<std::size_t>(type)];
  }
  TraceCounts& operator+=(const TraceCounts& other);
};

/// What one simulated world produced.
struct WorldOutcome {
  std::string key;  ///< cell key, e.g. "ic_l1.m4" or "ic_l3.calibration.target"
  int nodes{0};
  double sim_time{0.0};
  Clock::time_point start{};  ///< when the entry-point call began
  /// Host seconds of the entry-point call (for a traced sensor world, timed
  /// inside the child process that runs it).
  double wall_s{0.0};
  Signature signature;
  /// Empty when the world passed every correctness gate, else the reason.
  std::string gate_failure;

  /// Scheduler events executed; observable only through the AODV entry
  /// point (run_sensor_experiment does not report it), 0 otherwise.
  std::uint64_t events{0};
  std::uint64_t cbr_sent{0};
  std::uint64_t cbr_received{0};
  bool with_target{false};
  std::uint64_t targets{0};
  std::uint64_t targets_detected{0};
  double false_alarm_prob{0.0};

  /// Filled by traced passes only (the profile by AODV worlds only).
  icc::sim::SchedulerProfile profile{};
  TraceCounts trace;
};

/// Shape of the workload's worlds, for the layer probes.
struct ProbeShape {
  int nodes{0};
  double area{0.0};
  double tx_range{0.0};
  bool mobile{false};
  double max_speed{0.0};
  int key_bits{0};
  int level{0};
};

/// How one pass runs.
struct PassOptions {
  double sim_time{0.0};              ///< simulated seconds per world; 0 measures set-up
  bool traced{false};                 ///< record every trace category
  /// Where traced worlds without a world_hook write their JSONL trace (one
  /// file per world, deleted after it has been counted).
  std::string jsonl_dir;
  std::function<void()> after_world;  ///< when set, called after every world
};

struct Workload {
  std::string name;
  std::uint64_t default_seed{0};
  double default_sim_time{0.0};
  ProbeShape shape;
  /// Runs every world of the workload once, on the layouts of pass `pass`
  /// of base seed `seed`.
  std::function<std::vector<WorldOutcome>(std::uint64_t seed, int pass,
                                          const PassOptions& options)>
      run_pass;
};

/// The workload named `name`; nullptr for an unknown name.
const Workload* find_workload(const std::string& name);

/// Timed direct calls into single layers, at the workload's shape. Each
/// entry is (metric name, value); values are nanoseconds per operation
/// except "probe.mean_degree".
using ProbeResults = std::vector<std::pair<std::string, double>>;
/// `span` is invoked around each probe with its name, start and end.
using SpanFn = std::function<void(const std::string& name, Clock::time_point start,
                                  Clock::time_point end)>;
ProbeResults run_probes(const ProbeShape& shape, std::uint64_t seed, const SpanFn& span);

}  // namespace perfbench
