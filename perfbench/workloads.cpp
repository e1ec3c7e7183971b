// The benchmark's three workloads. Each pass simulates every world of the
// workload once, through the simulator's public entry points only:
// aodv::run_blackhole_experiment (with its world_hook for traced passes) and
// sensor::run_sensor_experiment (traced through ICC_TRACE/ICC_TRACE_FILE,
// its only observation surface).
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string_view>
#include <unordered_map>

#include "aodv/blackhole_experiment.hpp"
#include "bench.hpp"
#include "exp/runner.hpp"
#include "exp/seed.hpp"
#include "fault/plan.hpp"
#include "sensor/experiment.hpp"
#include "sim/world.hpp"

namespace perfbench {

using icc::sim::TraceType;

void TraceCounts::add(TraceType type, const char* detail) {
  ++by_type[static_cast<std::size_t>(type)];
  if (detail == nullptr) return;
  if (type == TraceType::kVoteVerdict && std::strcmp(detail, "completed") == 0) {
    ++vote_completed;
  } else if (type == TraceType::kPacketDrop && std::strncmp(detail, "suppressed_", 11) == 0) {
    ++suppressed;
  }
}

TraceCounts& TraceCounts::operator+=(const TraceCounts& other) {
  for (std::size_t i = 0; i < kNumTraceTypes; ++i) by_type[i] += other.by_type[i];
  vote_completed += other.vote_completed;
  suppressed += other.suppressed;
  return *this;
}

namespace {

/// Counting sink for worlds reachable through a world_hook.
class CountingSink final : public icc::sim::TraceSink {
 public:
  void on_event(const icc::sim::TraceEvent& event) override { counts.add(event.type, event.detail); }
  TraceCounts counts;
};

/// The quoted string value of `"field":"..."` in a JSONL line, or empty.
std::string_view json_string_field(std::string_view line, std::string_view field) {
  const std::size_t at = line.find(field);
  if (at == std::string_view::npos) return {};
  const std::size_t begin = at + field.size();
  const std::size_t end = line.find('"', begin);
  return end == std::string_view::npos ? std::string_view{} : line.substr(begin, end - begin);
}

/// Counts a JSONL trace file written by the simulator's JsonlTraceSink.
/// Returns false when the file cannot be read or holds an unknown type.
bool count_jsonl(const std::string& path, TraceCounts& out) {
  static const std::unordered_map<std::string_view, TraceType> kByName = [] {
    std::unordered_map<std::string_view, TraceType> m;
    for (std::size_t i = 0; i < kNumTraceTypes; ++i) {
      const auto type = static_cast<TraceType>(i);
      m.emplace(icc::sim::trace_type_name(type), type);
    }
    return m;
  }();
  FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return false;
  char* buf = nullptr;
  std::size_t cap = 0;
  ssize_t len = 0;
  bool ok = true;
  std::string detail;
  while ((len = ::getline(&buf, &cap, f)) > 0) {
    const std::string_view line{buf, static_cast<std::size_t>(len)};
    const auto it = kByName.find(json_string_field(line, "\"type\":\""));
    if (it == kByName.end()) {
      ok = false;  // a line the simulator's JSONL format cannot produce
      break;
    }
    detail = json_string_field(line, "\"detail\":\"");
    out.add(it->second, detail.empty() ? nullptr : detail.c_str());
  }
  std::free(buf);
  std::fclose(f);
  return ok;
}

constexpr std::uint32_t kTraceAll = (1u << static_cast<unsigned>(icc::sim::TraceCategory::kCount)) - 1u;

/// World seed of grid cell `cell` in pass `pass`: run `pass` of that cell in
/// a campaign with base seed `seed`. Unlike the figure benches, which give
/// every cell the same layout (common random numbers) to compare
/// treatments, every cell gets a layout of its own, so that one pass
/// averages its cost over as many layouts as it has cells.
std::uint64_t world_seed(std::uint64_t seed, std::size_t cell, int pass) {
  return icc::exp::derive_seed(seed, cell, static_cast<std::uint64_t>(pass));
}

icc::exp::RunnerOptions serial_quiet() {
  return icc::exp::RunnerOptions{}.with_threads(1).with_journal("").quiet();
}

void add_ledger(Signature& sig,
                const std::array<icc::fault::CoverageRow, icc::fault::kNumFaultClasses>& rows) {
  for (std::size_t c = 0; c < icc::fault::kNumFaultClasses; ++c) {
    const std::string base =
        std::string{"ledger."} + icc::fault::fault_class_name(static_cast<icc::fault::FaultClass>(c));
    sig[base + ".injected"] = rows[c].injected;
    sig[base + ".detected"] = rows[c].detected;
    sig[base + ".neutralized"] = rows[c].neutralized;
    sig[base + ".escaped"] = rows[c].escaped;
  }
}

// ----------------------------------------------------------------- AODV

/// One black-hole-experiment world, timed; traced worlds count every trace
/// category through a sink and profile the scheduler, both installed by the
/// world_hook.
WorldOutcome run_aodv_world(std::string key, icc::aodv::BlackholeExperimentConfig config,
                            bool traced) {
  CountingSink sink;
  if (traced) {
    config.world_hook = [&sink](icc::sim::World& world) {
      world.sched().enable_profiling(true);
      world.tracer().add_sink(&sink);
      world.tracer().set_mask(kTraceAll);
    };
  }
  WorldOutcome out;
  out.key = std::move(key);
  out.nodes = config.num_nodes;
  out.sim_time = config.sim_time;
  out.start = Clock::now();
  const icc::aodv::BlackholeExperimentResult r = icc::aodv::run_blackhole_experiment(config);
  out.wall_s = seconds_since(out.start);

  out.events = r.events_executed;
  out.cbr_sent = r.packets_sent;
  out.cbr_received = r.packets_received;
  Signature& sig = out.signature;
  sig["events"] = r.events_executed;
  sig["frames"] = r.frames_sent;
  sig["cbr_sent"] = r.packets_sent;
  sig["cbr_delivered"] = r.packets_received;
  sig["mac_collisions"] = r.mac_collisions;
  sig["vote_rounds"] = r.voting_rounds;
  sig["control_packets"] = r.control_packets;
  sig["rreps_suppressed"] = r.raw_rreps_suppressed;
  add_ledger(sig, r.coverage);

  if (config.sim_time > 0.0) {
    if (r.events_executed == 0) {
      out.gate_failure = "executed zero events";
    } else if (r.packets_sent == 0) {
      out.gate_failure = "sent zero CBR packets";
    } else if (!r.coverage_consistent) {
      out.gate_failure = "coverage ledger inconsistent";
    }
  }
  if (traced) {
    out.profile = r.profile;
    out.trace = sink.counts;
  }
  return out;
}

// --------------------------------------------------------------- Fig 7

constexpr int kFig7Attackers[] = {0, 1, 2, 4, 6, 8, 10};

struct Fig7Series {
  const char* key;
  bool inner_circle;
  int level;
};
constexpr Fig7Series kFig7Series[] = {{"no_ic", false, 1}, {"ic_l1", true, 1}, {"ic_l2", true, 2}};

std::vector<WorldOutcome> fig7_pass(std::uint64_t seed, int pass, const PassOptions& options) {
  icc::exp::Campaign campaign;
  campaign.name = "perfbench_fig7_grid";
  campaign.base_seed = seed;
  campaign.runs = 1;
  std::vector<std::string> series;
  std::vector<std::string> attackers;
  for (const Fig7Series& s : kFig7Series) series.emplace_back(s.key);
  for (const int m : kFig7Attackers) attackers.push_back(std::string{"m"}.append(std::to_string(m)));
  campaign.grid.axis("series", series).axis("malicious", attackers);
  std::vector<WorldOutcome> worlds(campaign.grid.num_cells());
  campaign.job = [&](const icc::exp::JobContext& ctx) {
    const Fig7Series& s = kFig7Series[campaign.grid.level(ctx.cell, 0)];
    const int m = kFig7Attackers[campaign.grid.level(ctx.cell, 1)];
    icc::aodv::BlackholeExperimentConfig config;
    config.plan = icc::fault::black_hole_plan(m);
    config.num_malicious = m;
    config.inner_circle = s.inner_circle;
    config.level = s.level;
    config.sim_time = options.sim_time;
    config.seed = world_seed(seed, ctx.cell, pass);
    worlds[ctx.cell] = run_aodv_world(campaign.grid.key(ctx.cell), config, options.traced);
    if (options.after_world) options.after_world();
    return icc::exp::JobOutputs{{"wall_s", {worlds[ctx.cell].wall_s}}};
  };
  icc::exp::run_campaign(campaign, serial_quiet());
  return worlds;
}

// --------------------------------------------------------- sparse scale

constexpr int kSparseNodes = 1000;

std::vector<WorldOutcome> sparse_pass(std::uint64_t seed, int pass,
                                      const PassOptions& options) {
  // scale_sweep's world: density-preserving area (half the paper's
  // density), N/5 CBR flows, no attackers, no defense, default engine.
  icc::aodv::BlackholeExperimentConfig config;
  config.num_nodes = kSparseNodes;
  config.area = 1000.0 * std::sqrt(static_cast<double>(kSparseNodes) / 25.0);
  config.num_connections = kSparseNodes / 5;
  config.num_malicious = 0;
  config.sim_time = options.sim_time;
  config.seed = world_seed(seed, 0, pass);
  std::vector<WorldOutcome> worlds;
  worlds.push_back(run_aodv_world("n" + std::to_string(kSparseNodes), config, options.traced));
  if (options.after_world) options.after_world();
  return worlds;
}

// --------------------------------------------------------------- Fig 8

constexpr icc::sensor::FaultType kFig8Faults[] = {
    icc::sensor::FaultType::kNone, icc::sensor::FaultType::kInterference,
    icc::sensor::FaultType::kCalibration, icc::sensor::FaultType::kStuckAtZero,
    icc::sensor::FaultType::kPositionError};
constexpr int kFig8MinLevel = 2;
constexpr int kFig8MaxLevel = 7;

/// The fields of a sensor-experiment result the benchmark reads; trivially
/// copyable so a traced world's child process can send it back over a pipe.
struct SensorSummary {
  std::uint64_t notifications{0};
  std::uint64_t bs_detections{0};
  std::uint64_t bs_rejected{0};
  std::uint64_t targets{0};
  std::uint64_t targets_detected{0};
  double false_alarm_prob{0.0};
  std::array<icc::fault::CoverageRow, icc::fault::kNumFaultClasses> coverage{};
  bool coverage_consistent{false};
  double wall_s{0.0};  ///< host seconds of the run_sensor_experiment call
};

/// Runs one world in this process and times the call.
SensorSummary run_sensor(const icc::sensor::SensorExperimentConfig& config) {
  const auto start = Clock::now();
  const icc::sensor::SensorExperimentResult r = icc::sensor::run_sensor_experiment(config);
  SensorSummary s;
  s.wall_s = seconds_since(start);
  s.notifications = r.notifications;
  s.bs_detections = r.bs_detections;
  s.bs_rejected = r.bs_rejected;
  s.targets = r.targets;
  s.targets_detected = r.targets_detected;
  s.false_alarm_prob = r.false_alarm_prob;
  s.coverage = r.coverage;
  s.coverage_consistent = r.coverage_consistent;
  return s;
}

/// Runs one traced sensor world in a child process: the simulator writes
/// JSONL trace files through process-wide streams that are flushed only at
/// exit, so each world gets a process (and a file) of its own. The child
/// times its own run_sensor_experiment call, so the world's time leaves out
/// the fork, the pipe, the child's exit (which flushes the last buffer of
/// the trace file) and the counting of the file here.
SensorSummary run_sensor_traced(const icc::sensor::SensorExperimentConfig& config,
                                const std::string& dir, TraceCounts& counts) {
  static int serial = 0;
  const std::string path = dir + "/fig8-trace-" + std::to_string(::getpid()) + "-" +
                           std::to_string(serial++) + ".jsonl";
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
  std::fflush(nullptr);  // the child must not re-emit buffered output
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    ::close(fds[0]);
    ::setenv("ICC_TRACE", "all", 1);
    ::setenv("ICC_TRACE_FILE", path.c_str(), 1);
    const SensorSummary s = run_sensor(config);
    const bool sent = ::write(fds[1], &s, sizeof s) == static_cast<ssize_t>(sizeof s);
    ::close(fds[1]);
    std::exit(sent ? 0 : 1);  // exit() flushes the trace stream
  }
  ::close(fds[1]);
  SensorSummary s;
  const ssize_t got = ::read(fds[0], &s, sizeof s);
  ::close(fds[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  const bool child_ok = got == static_cast<ssize_t>(sizeof s) && WIFEXITED(status) &&
                        WEXITSTATUS(status) == 0;
  const bool counted = child_ok && count_jsonl(path, counts);
  std::remove(path.c_str());
  if (!counted) throw std::runtime_error("traced sensor world failed: " + path);
  return s;
}

/// An inner-circle world without target and without faults has no epoch
/// output observable through run_sensor_experiment: nothing is detected, so
/// nothing is shipped or booked. Its with-target twin (same seed, same
/// cell) is checked in its place.
bool unobservable_epochs(const icc::sensor::SensorExperimentConfig& config) {
  return config.inner_circle && !config.with_target &&
         config.fault == icc::sensor::FaultType::kNone;
}

WorldOutcome run_sensor_world(std::string key, const icc::sensor::SensorExperimentConfig& config,
                              const PassOptions& options) {
  WorldOutcome out;
  out.key = std::move(key);
  out.nodes = config.num_sensors + 1;  // the base station is a node too
  out.sim_time = config.sim_time;
  out.with_target = config.with_target;
  out.start = Clock::now();
  const SensorSummary r = options.traced
                              ? run_sensor_traced(config, options.jsonl_dir, out.trace)
                              : run_sensor(config);
  out.wall_s = r.wall_s;

  out.targets = r.targets;
  out.targets_detected = r.targets_detected;
  out.false_alarm_prob = r.false_alarm_prob;
  Signature& sig = out.signature;
  sig["notifications"] = r.notifications;
  sig["bs_detections"] = r.bs_detections;
  sig["bs_rejected"] = r.bs_rejected;
  sig["targets"] = r.targets;
  sig["targets_detected"] = r.targets_detected;
  add_ledger(sig, r.coverage);

  if (config.sim_time > 0.0) {
    // Evidence that sensing epochs ran: a centralized sensor ships every
    // sample, an inner-circle one ships agreed notifications, and every
    // faulty sample is booked as an injected sensor fault.
    const std::uint64_t evidence =
        r.notifications + r.bs_rejected +
        r.coverage[static_cast<std::size_t>(icc::fault::FaultClass::kSensor)].injected;
    if (!r.coverage_consistent) {
      out.gate_failure = "coverage ledger inconsistent";
    } else if (evidence == 0 && !unobservable_epochs(config)) {
      out.gate_failure = "completed zero sensing epochs";
    } else if (config.with_target && r.targets == 0) {
      out.gate_failure = "simulated time ended before the first target";
    }
  }
  return out;
}

std::vector<WorldOutcome> fig8_pass(std::uint64_t seed, int pass, const PassOptions& options) {
  std::vector<std::string> configs{"No IC"};
  for (int level = kFig8MinLevel; level <= kFig8MaxLevel; ++level) {
    configs.push_back("IC, L=" + std::to_string(level));
  }
  std::vector<std::string> faults;
  for (const auto fault : kFig8Faults) faults.emplace_back(icc::sensor::fault_name(fault));
  icc::exp::Campaign campaign;
  campaign.name = "perfbench_fig8_field";
  campaign.base_seed = seed;
  campaign.runs = 1;
  campaign.grid.axis("config", configs).axis("fault", faults);
  // Each cell simulates its world with and without target (Fig 8(d)), as
  // the fig8_sensors bench does.
  std::vector<WorldOutcome> worlds(2 * campaign.grid.num_cells());
  campaign.job = [&](const icc::exp::JobContext& ctx) {
    const std::size_t c = campaign.grid.level(ctx.cell, 0);
    icc::sensor::SensorExperimentConfig config;
    config.fault = kFig8Faults[campaign.grid.level(ctx.cell, 1)];
    config.inner_circle = c > 0;
    config.level = c > 0 ? kFig8MinLevel + static_cast<int>(c) - 1 : kFig8MinLevel;
    config.sim_time = options.sim_time;
    config.seed = world_seed(seed, ctx.cell, pass);
    const std::string key = campaign.grid.key(ctx.cell);
    WorldOutcome& with_target = worlds[2 * ctx.cell];
    WorldOutcome& no_target = worlds[2 * ctx.cell + 1];
    with_target = run_sensor_world(key + ".target", config, options);
    if (options.after_world) options.after_world();
    config.with_target = false;
    no_target = run_sensor_world(key + ".no_target", config, options);
    if (options.after_world) options.after_world();
    if (unobservable_epochs(config) && no_target.gate_failure.empty() &&
        !with_target.gate_failure.empty()) {
      no_target.gate_failure = "with-target twin: " + with_target.gate_failure;
    }
    return icc::exp::JobOutputs{{"wall_s", {with_target.wall_s + no_target.wall_s}}};
  };
  icc::exp::run_campaign(campaign, serial_quiet());
  return worlds;
}

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kAll = [] {
    std::vector<Workload> all;
    all.push_back({"fig7_grid", 1000, 60.0,
                   ProbeShape{50, 1000.0, 250.0, true, 10.0, 1024, 2}, fig7_pass});
    all.push_back({"sparse_scale", 9100, 7.0,
                   ProbeShape{kSparseNodes,
                              1000.0 * std::sqrt(static_cast<double>(kSparseNodes) / 25.0),
                              250.0, true, 10.0, 1024, 2},
                   sparse_pass});
    all.push_back({"fig8_field", 100, 200.0,
                   ProbeShape{101, 200.0, 40.0, false, 0.0, 512, 4}, fig8_pass});
    return all;
  }();
  return kAll;
}

}  // namespace

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

}  // namespace perfbench
