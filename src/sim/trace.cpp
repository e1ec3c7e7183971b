#include "sim/trace.hpp"

#include "sim/env.hpp"
#include "sim/flight.hpp"

#include <array>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

namespace icc::sim {

namespace {

struct TypeInfo {
  const char* name;
  TraceCategory category;
  char op;  ///< ns-2-style leading op char: s(end) r(ecv) d(rop) etc.
};

constexpr std::array<TypeInfo, static_cast<std::size_t>(TraceType::kCount)> kTypes{{
    {"packet_tx", TraceCategory::kPacket, 's'},
    {"packet_rx", TraceCategory::kPacket, 'r'},
    {"packet_drop", TraceCategory::kPacket, 'd'},
    {"mac_collision", TraceCategory::kMac, 'd'},
    {"mac_backoff", TraceCategory::kMac, 'b'},
    {"mac_send_failed", TraceCategory::kMac, 'd'},
    {"route_rreq_sent", TraceCategory::kRoute, 's'},
    {"route_rrep_sent", TraceCategory::kRoute, 's'},
    {"route_discovered", TraceCategory::kRoute, 'e'},
    {"route_discovery_failed", TraceCategory::kRoute, 'd'},
    {"vote_round_start", TraceCategory::kVoting, 'e'},
    {"vote_verdict", TraceCategory::kVoting, 'e'},
    {"watchdog_accuse", TraceCategory::kWatchdog, 'e'},
    {"watchdog_blacklist", TraceCategory::kWatchdog, 'e'},
    {"fusion_decision", TraceCategory::kFusion, 'e'},
    {"energy_charge", TraceCategory::kEnergy, 'e'},
    {"fault_injected", TraceCategory::kFault, 'f'},
    {"fault_detected", TraceCategory::kFault, 'e'},
    {"fault_neutralized", TraceCategory::kFault, 'e'},
    {"suspect", TraceCategory::kSuspicion, 'e'},
    {"convict", TraceCategory::kSuspicion, 'e'},
    {"health_sample", TraceCategory::kHealth, 'h'},
}};

constexpr std::array<const char*, static_cast<std::size_t>(TraceCategory::kCount)>
    kCategoryNames{{"packet", "mac", "route", "voting", "watchdog", "fusion", "energy",
                    "fault", "suspicion", "health"}};

/// Fixed-precision time rendering: deterministic for identical doubles and
/// sortable as text.
void format_time(char* buf, std::size_t n, Time t) { std::snprintf(buf, n, "%.9f", t); }

/// A trace file every World in the process appends to, and the lock its
/// sinks hold while writing one line.
struct SharedFile {
  std::ofstream out;
  std::mutex lock;
};

/// One process-wide stream per trace file path: the first open truncates
/// (and writes `header`, if any), every later World in the same process
/// appends to the same stream. Keeps a serial multi-world driver's trace
/// coherent and byte-reproducible across runs. Campaign workers construct
/// Worlds on concurrent threads, so the table is mutex-guarded and every
/// line is written under the file's lock.
SharedFile& shared_file(const std::string& path, const char* header = nullptr) {
  static std::mutex streams_mutex;
  static std::unordered_map<std::string, std::unique_ptr<SharedFile>> streams;
  const std::lock_guard<std::mutex> guard{streams_mutex};
  auto it = streams.find(path);
  if (it == streams.end()) {
    auto file = std::make_unique<SharedFile>();
    file->out.open(path, std::ios::trunc);
    if (!file->out) {
      // A requested-but-unwritable trace path is a fatal configuration
      // error: silently discarding the trace would let a whole campaign run
      // to completion and only then reveal there is nothing to analyze.
      std::fprintf(stderr, "icc: fatal: cannot open trace file '%s' for writing\n",
                   path.c_str());
      std::exit(EXIT_FAILURE);
    }
    if (header != nullptr) file->out << header;
    it = streams.emplace(path, std::move(file)).first;
  }
  return *it->second;
}

/// Write one rendered line, under `lock` when the stream is shared.
void write_line(std::ostream& out, std::mutex* lock, const char* line) {
  if (lock == nullptr) {
    out << line << '\n';
    return;
  }
  const std::lock_guard<std::mutex> guard{*lock};
  out << line << '\n';
}

}  // namespace

TraceCategory trace_category(TraceType type) noexcept {
  return kTypes[static_cast<std::size_t>(type)].category;
}

const char* trace_type_name(TraceType type) noexcept {
  return kTypes[static_cast<std::size_t>(type)].name;
}

const char* trace_category_name(TraceCategory cat) noexcept {
  return kCategoryNames[static_cast<std::size_t>(cat)];
}

void LineTraceSink::on_event(const TraceEvent& e) {
  const TypeInfo& info = kTypes[static_cast<std::size_t>(e.type)];
  char tbuf[32];
  format_time(tbuf, sizeof tbuf, e.t);
  char line[384];
  int n = std::snprintf(line, sizeof line, "%c %s _%u_ %s %s", info.op, tbuf, e.node,
                        kCategoryNames[static_cast<std::size_t>(info.category)], info.name);
  const auto append = [&](const char* fmt, auto... args) {
    if (n < static_cast<int>(sizeof line)) {
      n += std::snprintf(line + n, sizeof line - static_cast<std::size_t>(n), fmt, args...);
    }
  };
  if (e.peer != kNoNode) append(" peer=%u", e.peer);
  if (e.uid != 0) append(" uid=%llu", static_cast<unsigned long long>(e.uid));
  if (e.size != 0) append(" size=%u", e.size);
  if (e.value != 0.0) append(" val=%.9g", e.value);
  if (e.span != 0) append(" span=%llu", static_cast<unsigned long long>(e.span));
  if (e.parent != 0) append(" parent=%llu", static_cast<unsigned long long>(e.parent));
  if (e.detail != nullptr) append(" %s", e.detail);
  write_line(out_, lock_, line);
}

void JsonlTraceSink::on_event(const TraceEvent& e) {
  const TypeInfo& info = kTypes[static_cast<std::size_t>(e.type)];
  char tbuf[32];
  format_time(tbuf, sizeof tbuf, e.t);
  char line[448];
  int n = std::snprintf(line, sizeof line, "{\"t\":%s,\"type\":\"%s\",\"cat\":\"%s\",\"node\":%u",
                        tbuf, info.name,
                        kCategoryNames[static_cast<std::size_t>(info.category)], e.node);
  const auto append = [&](const char* fmt, auto... args) {
    if (n < static_cast<int>(sizeof line)) {
      n += std::snprintf(line + n, sizeof line - static_cast<std::size_t>(n), fmt, args...);
    }
  };
  if (e.peer != kNoNode) append(",\"peer\":%u", e.peer);
  if (e.uid != 0) append(",\"uid\":%llu", static_cast<unsigned long long>(e.uid));
  if (e.size != 0) append(",\"size\":%u", e.size);
  if (e.value != 0.0) append(",\"value\":%.9g", e.value);
  if (e.span != 0) append(",\"span\":%llu", static_cast<unsigned long long>(e.span));
  if (e.parent != 0) append(",\"parent\":%llu", static_cast<unsigned long long>(e.parent));
  if (e.detail != nullptr) append(",\"detail\":\"%s\"", e.detail);
  append("}");
  write_line(out_, lock_, line);
}

void PerfettoTraceSink::on_event(const TraceEvent& e) {
  const TypeInfo& info = kTypes[static_cast<std::size_t>(e.type)];
  const char* cat = kCategoryNames[static_cast<std::size_t>(info.category)];
  // Microsecond timestamps with fixed sub-microsecond precision keep the
  // export deterministic and Chrome/Perfetto happy.
  char ts[40];
  std::snprintf(ts, sizeof ts, "%.3f", e.t * 1e6);
  // kNoNode events (health samples, world-level bookkeeping) land on tid 0;
  // real nodes on tid id+1 so the two never collide.
  const unsigned long long tid = e.node == kNoNode ? 0ull : 1ull + e.node;

  char line[512];
  int n;
  const auto append = [&](const char* fmt, auto... args) {
    if (n < static_cast<int>(sizeof line)) {
      n += std::snprintf(line + n, sizeof line - static_cast<std::size_t>(n), fmt, args...);
    }
  };
  if (e.type == TraceType::kHealthSample) {
    // Counter track: one series per (detail, node).
    n = std::snprintf(line, sizeof line,
                      "{\"name\":\"%s\",\"ph\":\"C\",\"ts\":%s,\"pid\":1,\"id\":%llu,"
                      "\"args\":{\"value\":%.9g}},",
                      e.detail != nullptr ? e.detail : "health", ts, tid, e.value);
    write_line(out_, lock_, line);
    return;
  }
  n = std::snprintf(line, sizeof line,
                    "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"i\",\"s\":\"t\",\"ts\":%s,"
                    "\"pid\":1,\"tid\":%llu,\"args\":{",
                    info.name, cat, ts, tid);
  bool first = true;
  const auto arg = [&](const char* fmt, auto... args) {
    if (!first) append(",");
    first = false;
    append(fmt, args...);
  };
  if (e.peer != kNoNode) arg("\"peer\":%u", e.peer);
  if (e.uid != 0) arg("\"uid\":%llu", static_cast<unsigned long long>(e.uid));
  if (e.size != 0) arg("\"size\":%u", e.size);
  if (e.value != 0.0) arg("\"value\":%.9g", e.value);
  if (e.span != 0) arg("\"span\":%llu", static_cast<unsigned long long>(e.span));
  if (e.parent != 0) arg("\"parent\":%llu", static_cast<unsigned long long>(e.parent));
  if (e.detail != nullptr) arg("\"detail\":\"%s\"", e.detail);
  append("}},");
  write_line(out_, lock_, line);
  // Lineage flow arrows: an event that owns a span starts (or continues) the
  // flow with that id; an event with a parent binds the parent's flow onto
  // itself. Matching ids draw the parent -> child arrows in the UI.
  if (e.span != 0) {
    n = std::snprintf(line, sizeof line,
                      "{\"name\":\"span\",\"cat\":\"%s\",\"ph\":\"s\",\"ts\":%s,\"pid\":1,"
                      "\"tid\":%llu,\"id\":%llu},",
                      cat, ts, tid, static_cast<unsigned long long>(e.span));
    write_line(out_, lock_, line);
  }
  if (e.parent != 0) {
    n = std::snprintf(line, sizeof line,
                      "{\"name\":\"span\",\"cat\":\"%s\",\"ph\":\"f\",\"bp\":\"e\",\"ts\":%s,"
                      "\"pid\":1,\"tid\":%llu,\"id\":%llu},",
                      cat, ts, tid, static_cast<unsigned long long>(e.parent));
    write_line(out_, lock_, line);
  }
}

std::uint32_t Tracer::parse_mask(const char* spec) {
  if (spec == nullptr) return 0;
  std::uint32_t mask = 0;
  std::string_view rest{spec};
  while (!rest.empty()) {
    const auto comma = rest.find(',');
    std::string_view token = rest.substr(0, comma);
    rest = comma == std::string_view::npos ? std::string_view{} : rest.substr(comma + 1);
    if (token.empty()) continue;
    if (token == "all") {
      mask |= (1u << static_cast<unsigned>(TraceCategory::kCount)) - 1u;
      continue;
    }
    std::size_t c = 0;
    while (c < kCategoryNames.size() && token != kCategoryNames[c]) ++c;
    if (c == kCategoryNames.size()) {
      std::string want = "trace category list: unknown category '";
      want.append(token).append("' (valid: all");
      for (const char* name : kCategoryNames) want.append(", ").append(name);
      want += ")";
      env_fail("ICC_TRACE", spec, want.c_str());
    }
    mask |= 1u << c;
  }
  return mask;
}

void Tracer::configure_from_env() {
  const std::uint32_t mask = parse_mask(env_raw("ICC_TRACE"));
  if (mask != 0) {
    mask_ |= mask;
    if (const char* path = env_raw("ICC_TRACE_FILE"); path != nullptr) {
      SharedFile& file = shared_file(path);
      const std::string_view p{path};
      if (p.size() >= 6 && p.substr(p.size() - 6) == ".jsonl") {
        add_owned_sink(std::make_unique<JsonlTraceSink>(file.out, &file.lock));
      } else {
        add_owned_sink(std::make_unique<LineTraceSink>(file.out, &file.lock));
      }
    } else {
      add_owned_sink(std::make_unique<LineTraceSink>(std::cerr));
    }
  }
  if (const char* perfetto = env_raw("ICC_TRACE_PERFETTO"); perfetto != nullptr) {
    // The export wants the whole picture: enable every category.
    mask_ = (1u << static_cast<unsigned>(TraceCategory::kCount)) - 1u;
    // The closing ']' is optional in the format.
    SharedFile& file = shared_file(perfetto, "[\n");
    add_owned_sink(std::make_unique<PerfettoTraceSink>(file.out, &file.lock));
  }
  if (env_flag("ICC_FLIGHT")) {
    const int records =
        env_int("ICC_FLIGHT_RECORDS", static_cast<int>(kDefaultFlightRecords));
    if (records < 1) {
      env_fail("ICC_FLIGHT_RECORDS", env_raw("ICC_FLIGHT_RECORDS"), "positive integer");
    }
    enable_flight(static_cast<std::size_t>(records),
                  env_string("ICC_FLIGHT_DUMP", "icc_flight"));
  }
}

Tracer::Tracer() = default;
Tracer::~Tracer() = default;

void Tracer::enable_flight(std::size_t capacity, std::string dump_base) {
  if (flight_ != nullptr) return;  // one ring per world is enough
  owned_flight_ = std::make_unique<FlightRecorder>(capacity, std::move(dump_base));
  flight_ = owned_flight_.get();
}

void Tracer::flight_record(const TraceEvent& event) { flight_->record(event); }

void Tracer::add_sink(TraceSink* sink) { sinks_.push_back(sink); }

void Tracer::add_owned_sink(std::unique_ptr<TraceSink> sink) {
  sinks_.push_back(sink.get());
  owned_.push_back(std::move(sink));
}

void Tracer::dispatch(const TraceEvent& event) {
  for (TraceSink* sink : sinks_) sink->on_event(event);
}

}  // namespace icc::sim
