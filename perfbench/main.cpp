// perfbench: measures one workload of the benchmark in this process and
// prints the result as one JSON object on the last line of stdout, after one
// "signature" line per world of the first pass.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --mode untraced|traced
//             [--trace-dir <dir>] [--spans <file>] [--sim-time <t>]
//
// untraced  set-up time (the same entry-point calls with zero simulated
//           time, median of several repetitions), then passes over fresh
//           layouts until --seconds is spent: host time, memory and the
//           simulated outcome, with tracing off.
// traced    the same passes untraced and traced in alternation (the traced
//           signature must equal the untraced one), per-layer counts and
//           scheduler profile from the first traced pass, the layer probes,
//           and the benchmark's own spans written to --spans.
//
// --trace-dir is where worlds traced through JSONL files write them (traced
// mode); --sim-time overrides the simulated seconds of every world (smoke
// tests). perfbench/run.py is the documented entry point.
//
//   perfbench --reference-kernel
//
// serves the benchmark's reference kernel: one run per byte read from stdin,
// its duration written back to stdout. Untraced runs start it as a process
// of their own to sample the host's speed.
#include <malloc.h>
#include <sched.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <optional>
#include <queue>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench.hpp"

extern char** environ;

namespace {

using namespace perfbench;
using icc::sim::EventTag;
using icc::sim::TraceType;

struct Options {
  std::string workload;
  std::uint64_t seed{0};
  bool seed_set{false};
  double seconds{0.0};
  bool traced{false};
  std::string trace_dir{"."};
  std::string spans;
  double sim_time{-1.0};
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr, "perfbench: %s\n", why);
  std::exit(2);
}

double parse_number(const char* flag, const char* text) {
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || !(v >= 0.0)) {
    std::fprintf(stderr, "perfbench: %s expects a non-negative number, got '%s'\n", flag, text);
    std::exit(2);
  }
  return v;
}

Options parse(int argc, char** argv) {
  Options o;
  bool mode_set = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value after " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      char* end = nullptr;
      o.seed = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0') usage("--seed expects an unsigned integer");
      o.seed_set = true;
    } else if (flag == "--seconds") {
      o.seconds = parse_number("--seconds", value);
    } else if (flag == "--mode") {
      if (std::strcmp(value, "traced") != 0 && std::strcmp(value, "untraced") != 0) {
        usage("--mode must be traced or untraced");
      }
      o.traced = std::strcmp(value, "traced") == 0;
      mode_set = true;
    } else if (flag == "--trace-dir") {
      o.trace_dir = value;
    } else if (flag == "--spans") {
      o.spans = value;
    } else if (flag == "--sim-time") {
      o.sim_time = parse_number("--sim-time", value);
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (o.workload.empty() || !mode_set || !(o.seconds > 0.0)) {
    usage("--workload, --mode and a positive --seconds are required");
  }
  return o;
}

/// Removes every inherited ICC_* variable: they select engines, tracing,
/// profiling, codecs and thread counts, and the simulator parses some of them
/// loosely (ICC_SIM_THREADS=4x runs four threads). Returns the names removed.
std::vector<std::string> clear_icc_environment() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string entry = *e;
    if (entry.rfind("ICC_", 0) == 0) names.push_back(entry.substr(0, entry.find('=')));
  }
  for (const std::string& name : names) ::unsetenv(name.c_str());
  return names;
}

/// The reference kernel's duration setup_s is scaled to, so that it reads in
/// seconds: the order of one kernel run on the host this benchmark was tuned
/// on.
constexpr double kNominalReferenceSeconds = 0.03;

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Returns freed heap memory to the system and restarts the OS kernel's
/// resident-set high-water mark, so the next pass's peak is its own.
void reset_peak_rss() {
  ::malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

/// Resident-set high-water mark since the last reset_peak_rss(), in MiB.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  return 0.0;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

/// Metrics in insertion order, rendered as {"name": {"value": v, "unit": u}}.
class Metrics {
 public:
  void add(const std::string& name, double value, const char* unit) {
    entries_.push_back({name, value, unit});
  }
  [[nodiscard]] std::string json() const {
    std::string out = "{";
    for (const Entry& e : entries_) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.9g", e.value);
      if (out.size() > 1) out += ", ";
      out += "\"" + e.name + "\": {\"value\": " + buf + ", \"unit\": \"" + e.unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// Correctness bookkeeping over every measured world.
struct Verdict {
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::vector<std::string> failures;  ///< first few, for the log

  void record(const WorldOutcome& w, int pass, const char* mode) {
    ++attempted;
    if (!w.gate_failure.empty()) {
      fail(w.key + " (" + mode + " pass " + std::to_string(pass) + "): " + w.gate_failure);
    }
  }
  void fail(const std::string& why) {
    ++failed;
    if (failures.size() < 20) failures.push_back(why);
  }
};

void print_signatures(const std::string& workload, const std::vector<WorldOutcome>& worlds) {
  for (const WorldOutcome& w : worlds) {
    std::printf("signature %s pass=0 world=%s", workload.c_str(), w.key.c_str());
    for (const auto& [name, count] : w.signature) {
      if (count == 0) continue;  // the key set is fixed per workload; zeros are implied
      std::printf(" %s=%llu", name.c_str(), static_cast<unsigned long long>(count));
    }
    std::printf("\n");
  }
}

/// SHA-256-style compression rounds over a rolling block, with made-up round
/// constants: integer hashing like the STS beacon HMACs that take half or
/// more of the simulator's time in fig7_grid and fig8_field, written here so
/// that a change to the simulator's crypto cannot move it.
std::uint32_t hash_rounds(int blocks) {
  const auto rotr = [](std::uint32_t v, int n) { return (v >> n) | (v << (32 - n)); };
  std::array<std::uint32_t, 8> h{0x6a09e667u, 0xbb67ae85u, 0x3c6ef372u, 0xa54ff53au,
                                 0x510e527fu, 0x9b05688cu, 0x1f83d9abu, 0x5be0cd19u};
  std::array<std::uint32_t, 64> w{};
  for (int b = 0; b < blocks; ++b) {
    for (std::size_t i = 0; i < 16; ++i) w[i] = h[i % 8] ^ (static_cast<std::uint32_t>(b) + 0x9E3779B9u * i);
    for (std::size_t i = 16; i < 64; ++i) {
      const std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    std::array<std::uint32_t, 8> v = h;
    for (std::size_t i = 0; i < 64; ++i) {
      const std::uint32_t t1 = v[7] + (rotr(v[4], 6) ^ rotr(v[4], 11) ^ rotr(v[4], 25)) +
                               ((v[4] & v[5]) ^ (~v[4] & v[6])) + 0x428a2f98u * (i + 1) + w[i];
      const std::uint32_t t2 = (rotr(v[0], 2) ^ rotr(v[0], 13) ^ rotr(v[0], 22)) +
                               ((v[0] & v[1]) ^ (v[0] & v[2]) ^ (v[1] & v[2]));
      v = {t1 + t2, v[0], v[1], v[2], v[3] + t1, v[4], v[5], v[6]};
    }
    for (std::size_t i = 0; i < 8; ++i) h[i] += v[i];
  }
  return h[0];
}

/// Host seconds of a fixed reference kernel that belongs to the benchmark,
/// not to the simulator, shaped like the simulator's work: a small
/// discrete-event loop (a heap of std::function events with captures, a hash
/// map, scattered touches of an 8 MiB arena) and then about as long in
/// hash_rounds, 30-70 ms in all. The shared host this benchmark was tuned on
/// changes speed for such code by up to 1.5 times from one second to the
/// next and 2.5 times over tens of minutes, and memory-bound and ALU-bound
/// code do not move alike, so the kernel has some of both. Sampling it
/// between worlds measures that drift, and wall_ref and setup_s divide it
/// out. It runs in a process of its own (ReferenceKernel), so the
/// simulator's heap and allocator state cannot move it.
double reference_seconds() {
  struct Event {
    double t;
    std::uint64_t seq;
    std::function<void()> fn;
    bool operator>(const Event& o) const { return t > o.t || (t == o.t && seq > o.seq); }
  };
  std::vector<std::uint64_t> arena(std::size_t{1} << 20);  // faulted in untimed
  const auto start = Clock::now();
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue;
  std::unordered_map<std::uint64_t, std::uint64_t> table;
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  std::uint64_t seq = 0;
  std::uint64_t acc = 0;
  double now = 0.0;
  const auto spawn = [&](std::uint64_t id) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const std::uint64_t a = x;
    queue.push({now + static_cast<double>(x & 1023) / 1024.0, seq++, [&, a, id] {
                  acc += arena[a & (arena.size() - 1)]++;
                  table[(a >> 20) & 0xFFFF] += id;
                }});
  };
  for (std::uint64_t i = 0; i < 4096; ++i) spawn(i);
  for (std::uint64_t n = 0; n < 60000; ++n) {
    Event e = queue.top();
    queue.pop();
    now = e.t;
    e.fn();
    spawn(n);
  }
  acc += hash_rounds(80000);
  const double elapsed = seconds_since(start);
  if (acc == 1) std::fputc(' ', stderr);  // keeps the kernel's result observable
  return elapsed;
}

/// Reads exactly `size` bytes; false on end of file or error.
bool read_exact(int fd, void* data, std::size_t size) {
  auto* at = static_cast<char*>(data);
  while (size > 0) {
    const ssize_t got = ::read(fd, at, size);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return false;
    at += got;
    size -= static_cast<std::size_t>(got);
  }
  return true;
}

/// Answers each byte read from stdin with one run of the reference kernel,
/// its duration written to stdout as a raw double, after one untimed warm-up
/// run (code, allocator, arena pages).
int serve_reference_kernel() {
  reference_seconds();
  char request = 0;
  while (read_exact(STDIN_FILENO, &request, 1)) {
    const double s = reference_seconds();
    if (::write(STDOUT_FILENO, &s, sizeof s) != static_cast<ssize_t>(sizeof s)) return 1;
  }
  return 0;
}

/// The reference kernel, run on request in a process of its own (this
/// program re-executed with --reference-kernel), so the simulator's heap,
/// allocator state and memory never reach it. The child inherits this
/// process's single-CPU affinity, so it measures the core the simulator
/// runs on.
class ReferenceKernel {
 public:
  ReferenceKernel() {
    char path[4096];
    const ssize_t len = ::readlink("/proc/self/exe", path, sizeof path - 1);
    if (len <= 0) throw std::runtime_error("cannot resolve /proc/self/exe");
    path[len] = '\0';
    int to_child[2];
    int from_child[2];
    if (::pipe(to_child) != 0) throw std::runtime_error("pipe failed");
    if (::pipe(from_child) != 0) throw std::runtime_error("pipe failed");
    posix_spawn_file_actions_t actions;
    ::posix_spawn_file_actions_init(&actions);
    ::posix_spawn_file_actions_adddup2(&actions, to_child[0], STDIN_FILENO);
    ::posix_spawn_file_actions_adddup2(&actions, from_child[1], STDOUT_FILENO);
    for (const int fd : {to_child[0], to_child[1], from_child[0], from_child[1]}) {
      ::posix_spawn_file_actions_addclose(&actions, fd);
    }
    std::string name = "perfbench";
    std::string flag = "--reference-kernel";
    char* argv[] = {name.data(), flag.data(), nullptr};
    const int err = ::posix_spawn(&pid_, path, &actions, nullptr, argv, environ);
    ::posix_spawn_file_actions_destroy(&actions);
    ::close(to_child[0]);
    ::close(from_child[1]);
    request_ = to_child[1];
    reply_ = from_child[0];
    if (err != 0) {
      pid_ = -1;
      throw std::runtime_error("cannot start the reference kernel");
    }
  }
  ReferenceKernel(const ReferenceKernel&) = delete;
  ReferenceKernel& operator=(const ReferenceKernel&) = delete;
  ~ReferenceKernel() {
    ::close(request_);  // end of file: the child exits
    ::close(reply_);
    int status = 0;
    while (pid_ > 0 && ::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
  }

  /// Host seconds of one kernel run.
  double sample() {
    const char request = 1;
    double s = 0.0;
    if (::write(request_, &request, 1) != 1 || !read_exact(reply_, &s, sizeof s)) {
      throw std::runtime_error("the reference kernel failed");
    }
    return s;
  }

 private:
  pid_t pid_{-1};
  int request_{-1};
  int reply_{-1};
};

/// Restricts this process (and what it starts) to the CPU it is running on.
void pin_to_current_cpu() {
  const int cpu = ::sched_getcpu();
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  ::sched_setaffinity(0, sizeof set, &set);
}

/// Σ nodes × simulated seconds of one pass.
double node_sim_seconds(const std::vector<WorldOutcome>& worlds) {
  double sum = 0.0;
  for (const WorldOutcome& w : worlds) sum += static_cast<double>(w.nodes) * w.sim_time;
  return sum;
}

/// The simulated outcome of a pass: Fig 7(a) delivery for AODV worlds,
/// Fig 8(a)/(b) detection and false alarms for sensor worlds.
void add_outcome_metrics(const std::vector<WorldOutcome>& worlds, bool aodv, Metrics& m) {
  if (aodv) {
    std::uint64_t sent = 0;
    std::uint64_t received = 0;
    for (const WorldOutcome& w : worlds) {
      sent += w.cbr_sent;
      received += w.cbr_received;
    }
    m.add("delivery_ratio", sent > 0 ? static_cast<double>(received) / static_cast<double>(sent) : 0.0,
          "ratio");
    return;
  }
  std::uint64_t targets = 0;
  std::uint64_t detected = 0;
  double false_alarm_sum = 0.0;
  int with_target = 0;
  for (const WorldOutcome& w : worlds) {
    if (!w.with_target) continue;
    targets += w.targets;
    detected += w.targets_detected;
    false_alarm_sum += w.false_alarm_prob;
    ++with_target;
  }
  m.add("detection_ratio",
        targets > 0 ? static_cast<double>(detected) / static_cast<double>(targets) : 0.0, "ratio");
  m.add("false_alarm_prob", with_target > 0 ? false_alarm_sum / with_target : 0.0, "prob");
}

/// Chrome trace-event spans of the benchmark's own code.
struct SpanLog {
  Clock::time_point origin{Clock::now()};
  std::vector<std::string> events;

  void add(const std::string& name, Clock::time_point start, Clock::time_point end, int id,
           const std::string& key) {
    const auto us = [&](Clock::time_point t) {
      return std::chrono::duration<double, std::micro>(t - origin).count();
    };
    char buf[128];
    std::snprintf(buf, sizeof buf, "\"ts\": %.3f, \"dur\": %.3f", us(start), us(end) - us(start));
    events.push_back("{\"name\": \"" + name + "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, " + buf +
                     ", \"args\": {\"id\": " + std::to_string(id) + ", \"world\": \"" +
                     json_escape(key) + "\"}}");
  }
  void add_worlds(const char* name, const std::vector<WorldOutcome>& worlds, int first_id) {
    for (std::size_t i = 0; i < worlds.size(); ++i) {
      const WorldOutcome& w = worlds[i];
      const auto end = w.start + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(w.wall_s));
      add(name, w.start, end, first_id + static_cast<int>(i), w.key);
    }
  }
  bool write(const std::string& path) const {
    std::ofstream out(path);
    out << "[\n";
    for (std::size_t i = 0; i < events.size(); ++i) {
      out << events[i] << (i + 1 < events.size() ? ",\n" : "\n");
    }
    out << "]\n";
    return static_cast<bool>(out);
  }
};

int available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  return ::sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 0;
}

int run(const Options& opt) {
  const std::vector<std::string> cleared = clear_icc_environment();
  const Workload* workload = find_workload(opt.workload);
  if (workload == nullptr) usage(("unknown workload " + opt.workload).c_str());
  const std::uint64_t seed = opt.seed_set ? opt.seed : workload->default_seed;
  const double sim_time = opt.sim_time >= 0.0 ? opt.sim_time : workload->default_sim_time;
  const bool aodv = workload->name != "fig8_field";

  pin_to_current_cpu();
  std::signal(SIGPIPE, SIG_IGN);  // a dead kernel process shows as a failed write

  // An untraced run samples the reference kernel throughout: between blocks
  // of set-up repetitions, between worlds once kRefInterval has passed since
  // the last sample, and after every pass. Each timing is divided by the
  // mean of the last sample before it and the first after it, because the
  // host's speed changes from one second to the next.
  constexpr double kRefInterval = 0.5;
  struct RefSample {
    Clock::time_point at;  ///< midpoint of the kernel run
    double seconds;
  };
  std::optional<ReferenceKernel> kernel;
  if (!opt.traced) kernel.emplace();
  std::vector<RefSample> refs;
  const auto sample_reference = [&] {
    const auto start = Clock::now();
    const double s = kernel->sample();
    refs.push_back({start + (Clock::now() - start) / 2, s});
  };
  const auto bracketing_ref = [&](Clock::time_point start, Clock::time_point end) {
    const auto after = std::find_if(refs.begin(), refs.end(),
                                    [end](const RefSample& r) { return r.at >= end; });
    const auto before = std::find_if(refs.rbegin(), refs.rend(),
                                     [start](const RefSample& r) { return r.at <= start; });
    return 0.5 * (before->seconds + after->seconds);
  };

  // Set-up: the same calls with zero simulated time, on the first pass's
  // layout. An untraced run repeats them in blocks of at least kSetupBlock
  // seconds, with a reference sample after each block, for at least
  // kSetupBlocks blocks and kSetupSeconds; the first repetitions run on cold
  // caches and allocator, so a handful would not do. setup_raw_s is the
  // median per-pass sum; setup_s is the median over blocks of the block's
  // median sum divided by the mean of the samples on either side, times the
  // nominal kernel time.
  constexpr double kSetupBlock = 0.1;
  constexpr int kSetupBlocks = 11;
  constexpr double kSetupSeconds = 2.0;
  SpanLog spans;
  std::vector<double> setup_samples;
  std::vector<double> setup_ratios;
  const auto setup_pass = [&] {
    const std::vector<WorldOutcome> worlds = workload->run_pass(seed, 0, PassOptions{});
    double sum = 0.0;
    for (const WorldOutcome& w : worlds) sum += w.wall_s;
    setup_samples.push_back(sum);
    if (opt.traced) spans.add_worlds("setup", worlds, 0);
  };
  if (opt.traced) {
    setup_pass();
  } else {
    sample_reference();
    const auto setup_start = Clock::now();
    while (setup_ratios.size() < kSetupBlocks || seconds_since(setup_start) < kSetupSeconds) {
      const std::size_t first = setup_samples.size();
      const auto block_start = Clock::now();
      do {
        setup_pass();
      } while (seconds_since(block_start) < kSetupBlock);
      const double before = refs.back().seconds;
      sample_reference();
      const std::vector<double> block(setup_samples.begin() + static_cast<std::ptrdiff_t>(first),
                                      setup_samples.end());
      setup_ratios.push_back(median(block) / (0.5 * (before + refs.back().seconds)));
    }
  }
  const double setup_raw_s = median(setup_samples);

  Verdict verdict;
  Metrics metrics;
  std::vector<double> pass_walls;
  std::vector<double> pass_events;
  std::vector<WorldOutcome> first_pass;
  const auto run_start = Clock::now();
  // Start another pass only while it is expected to end within the budget.
  const auto budget_allows = [&](double per_pass) {
    return seconds_since(run_start) + per_pass <= opt.seconds;
  };

  if (!opt.traced) {
    // Set-up in reference-kernel runs.
    const double setup_units = median(setup_ratios);
    std::vector<std::vector<double>> world_walls;  // [world][pass], host seconds
    std::vector<std::vector<double>> world_units;  // [world][pass], kernel runs
    std::vector<double> peaks;
    std::vector<double> rates;
    PassOptions options;
    options.sim_time = sim_time;
    options.after_world = [&] {
      if (seconds_since(refs.back().at) >= kRefInterval) sample_reference();
    };
    for (int pass = 0; pass == 0 || budget_allows(median(pass_walls)); ++pass) {
      reset_peak_rss();
      const auto start = Clock::now();
      std::vector<WorldOutcome> worlds = workload->run_pass(seed, pass, options);
      peaks.push_back(peak_rss_mb());
      sample_reference();
      pass_walls.push_back(seconds_since(start));
      world_walls.resize(worlds.size());
      world_units.resize(worlds.size());
      double events = 0.0;
      double simulate = -setup_raw_s;
      for (std::size_t i = 0; i < worlds.size(); ++i) {
        verdict.record(worlds[i], pass, "untraced");
        events += static_cast<double>(worlds[i].events);
        simulate += worlds[i].wall_s;
        world_walls[i].push_back(worlds[i].wall_s);
        const auto end = worlds[i].start + std::chrono::duration_cast<Clock::duration>(
                                               std::chrono::duration<double>(worlds[i].wall_s));
        world_units[i].push_back(worlds[i].wall_s / bracketing_ref(worlds[i].start, end));
      }
      pass_events.push_back(events);
      rates.push_back(events / simulate);
      if (pass == 0) first_pass = std::move(worlds);
    }
    // Summing per-world medians keeps one layout's route storm from setting
    // the figure.
    double wall_s = -setup_raw_s;
    for (const std::vector<double>& walls : world_walls) wall_s += median(walls);
    double wall_ref = -setup_units;
    for (const std::vector<double>& units : world_units) wall_ref += median(units);
    std::vector<double> ref_seconds;
    for (const RefSample& r : refs) ref_seconds.push_back(r.seconds);
    metrics.add("setup_s", setup_units * kNominalReferenceSeconds, "s");
    metrics.add("setup_raw_s", setup_raw_s, "s");
    metrics.add("wall_ref", wall_ref, "ref");
    metrics.add("wall_s", wall_s, "s");
    metrics.add("node_sim_s_per_s", node_sim_seconds(first_pass) / wall_s, "node-s/s");
    metrics.add("peak_rss_mb", median(peaks), "MB");
    metrics.add("failed_frac",
                static_cast<double>(verdict.failed) / static_cast<double>(verdict.attempted), "frac");
    if (aodv) metrics.add("events_per_s", median(rates), "1/s");
    add_outcome_metrics(first_pass, aodv, metrics);
    metrics.add("passes", static_cast<double>(pass_walls.size()), "count");
    metrics.add("reference_s", median(ref_seconds), "s");
    metrics.add("reference_samples", static_cast<double>(refs.size()), "count");
    metrics.add("setup_reps", static_cast<double>(setup_samples.size()), "count");
  } else {
    // Untraced and traced passes alternate on the same layouts, so the
    // overhead compares equal work and drift on the host hits both sides.
    PassOptions plain_options;
    plain_options.sim_time = sim_time;
    PassOptions traced_options = plain_options;
    traced_options.traced = true;
    traced_options.jsonl_dir = opt.trace_dir;
    std::vector<double> traced_walls;
    std::vector<WorldOutcome> first_traced;
    // Σ world times over every pass, untraced and traced: the overhead.
    double sum_plain = 0.0;
    double sum_traced = 0.0;
    for (int pass = 0;
         pass == 0 || budget_allows(median(pass_walls) + median(traced_walls)); ++pass) {
      auto start = Clock::now();
      std::vector<WorldOutcome> plain = workload->run_pass(seed, pass, plain_options);
      pass_walls.push_back(seconds_since(start));
      start = Clock::now();
      std::vector<WorldOutcome> traced = workload->run_pass(seed, pass, traced_options);
      traced_walls.push_back(seconds_since(start));
      spans.add_worlds("simulate", traced, 1000 * pass);
      for (std::size_t i = 0; i < plain.size(); ++i) {
        sum_plain += plain[i].wall_s;
        sum_traced += traced[i].wall_s;
        verdict.record(plain[i], pass, "untraced");
        verdict.record(traced[i], pass, "traced");
        if (plain[i].signature != traced[i].signature) {
          verdict.fail(plain[i].key + " (pass " + std::to_string(pass) +
                       "): traced signature differs from untraced");
        }
      }
      if (pass == 0) {
        first_pass = std::move(plain);
        first_traced = std::move(traced);
      }
    }

    TraceCounts counts;
    icc::sim::SchedulerProfile profile{};
    double traced_wall = 0.0;
    std::uint64_t delivered = 0;
    for (const WorldOutcome& w : first_traced) {
      counts += w.trace;
      traced_wall += w.wall_s;
      delivered += w.cbr_received;
      for (std::size_t t = 0; t < icc::sim::kNumEventTags; ++t) {
        profile.executed[t] += w.profile.executed[t];
        profile.wall_seconds[t] += w.profile.wall_seconds[t];
      }
    }
    const auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
    const auto count = [&](const char* name, double v) { metrics.add(name, v, "count"); };
    const double tx = static_cast<double>(counts[TraceType::kPacketTx]);
    const double rx = static_cast<double>(counts[TraceType::kPacketRx]);
    const double collisions = static_cast<double>(counts[TraceType::kMacCollision]);
    const double rreq = static_cast<double>(counts[TraceType::kRouteRreqSent]);
    const double rrep = static_cast<double>(counts[TraceType::kRouteRrepSent]);
    const double rounds = static_cast<double>(counts[TraceType::kVoteRoundStart]);
    count("sim.frames_tx", tx);
    count("sim.frames_rx", rx);
    count("sim.mac.collisions", collisions);
    count("sim.mac.backoffs", static_cast<double>(counts[TraceType::kMacBackoff]));
    count("sim.mac.send_failed", static_cast<double>(counts[TraceType::kMacSendFailed]));
    count("aodv.rreq_sent", rreq);
    count("aodv.rrep_sent", rrep);
    count("aodv.discovery_failed", static_cast<double>(counts[TraceType::kRouteDiscoveryFailed]));
    count("core.vote_rounds", rounds);
    count("core.vote_completed", static_cast<double>(counts.vote_completed));
    count("core.suppressed", static_cast<double>(counts.suppressed));
    count("crypto.charged_ops", static_cast<double>(counts[TraceType::kEnergyCharge]));
    count("fusion.decisions", static_cast<double>(counts[TraceType::kFusionDecision]));
    count("fault.injected", static_cast<double>(counts[TraceType::kFaultInjected]));
    count("fault.neutralized", static_cast<double>(counts[TraceType::kFaultNeutralized]));
    metrics.add("sim.rx_per_tx", ratio(rx, tx), "ratio");
    metrics.add("sim.mac.collision_ratio", ratio(collisions, rx + collisions), "ratio");
    metrics.add("aodv.control_per_delivered", ratio(rreq + rrep, static_cast<double>(delivered)),
                "ratio");
    metrics.add("core.vote_completion_ratio",
                ratio(static_cast<double>(counts.vote_completed), rounds), "ratio");

    metrics.add("sim.trace.overhead_frac", sum_traced / sum_plain - 1.0, "frac");

    const ProbeResults probes = run_probes(
        workload->shape, seed,
        [&](const std::string& name, Clock::time_point start, Clock::time_point end) {
          spans.add(name, start, end, 0, "");
        });
    for (const auto& [name, value] : probes) {
      metrics.add(name, value, name == "probe.mean_degree" ? "count" : "ns");
    }

    // The scheduler profile is reachable only through the world_hook.
    if (aodv) {
      struct TagMetric {
        const char* prefix;
        EventTag tag;
      };
      constexpr TagMetric kTags[] = {{"sim.mac", EventTag::kMac},
                                     {"aodv.timer", EventTag::kRouting},
                                     {"core.timer", EventTag::kVoting},
                                     {"traffic", EventTag::kTraffic},
                                     {"sim.mobility", EventTag::kMobility}};
      for (const TagMetric& t : kTags) {
        const auto i = static_cast<std::size_t>(t.tag);
        metrics.add(std::string{t.prefix} + ".events", static_cast<double>(profile.executed[i]),
                    "count");
        metrics.add(std::string{t.prefix} + ".busy_s", profile.wall_seconds[i], "s");
      }
      // Queue push, pop and dispatch: what the traced simulation spent
      // outside every event body.
      metrics.add("sim.sched.self_s", traced_wall - setup_raw_s - profile.wall_total_seconds(), "s");
      metrics.add("sim.sched.events", static_cast<double>(profile.executed_total()), "count");
    }
    if (!opt.spans.empty() && !spans.write(opt.spans)) {
      std::fprintf(stderr, "perfbench: cannot write spans to %s\n", opt.spans.c_str());
      return 1;
    }
  }

  print_signatures(workload->name, first_pass);
  std::string passes_json = "[";
  for (std::size_t i = 0; i < pass_walls.size(); ++i) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "%s{\"wall_s\": %.6f, \"events\": %.0f}", i > 0 ? ", " : "",
                  pass_walls[i], i < pass_events.size() ? pass_events[i] : 0.0);
    passes_json += buf;
  }
  passes_json += "]";
  std::string cleared_json = "[";
  for (const std::string& name : cleared) {
    cleared_json += (cleared_json.size() > 1 ? ", \"" : "\"") + name + "\"";
  }
  cleared_json += "]";
  std::string failures_json = "[";
  for (const std::string& f : verdict.failures) {
    failures_json += (failures_json.size() > 1 ? ", \"" : "\"") + json_escape(f) + "\"";
  }
  failures_json += "]";
  std::printf(
      "{\"workload\": \"%s\", \"mode\": \"%s\", \"seed\": %llu, \"seconds\": %.9g, "
      "\"sim_time_s\": %.9g, \"worlds_per_pass\": %zu, \"correct\": %s, \"attempted\": %llu, "
      "\"failed\": %llu, \"failures\": %s, \"metrics\": %s, \"passes\": %s, \"meta\": {\"nproc\": %u, "
      "\"cpus_available\": %d, \"build_type\": \"%s\", \"compiler\": \"%s\", "
      "\"engine\": \"default (sim_threads unset)\", \"cleared_env\": %s}}\n",
      workload->name.c_str(), opt.traced ? "traced" : "untraced",
      static_cast<unsigned long long>(seed), opt.seconds, sim_time, first_pass.size(),
      verdict.failed == 0 ? "true" : "false", static_cast<unsigned long long>(verdict.attempted),
      static_cast<unsigned long long>(verdict.failed), failures_json.c_str(),
      metrics.json().c_str(), passes_json.c_str(), std::thread::hardware_concurrency(), available_cpus(),
      PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER, cleared_json.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--reference-kernel") == 0) {
    return serve_reference_kernel();
  }
  const Options opt = parse(argc, argv);
  try {
    return run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
