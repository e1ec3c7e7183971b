// Simulator-throughput scale sweep: how fast does the core run as the world
// grows? For each node count N the same seeded scenario (density-preserving
// area, N/5 CBR connections, no attackers, no defense) is simulated once per
// neighbor-query path:
//
//   grid    neighbor queries from the uniform-grid spatial index
//           (sim/grid.hpp) — the baseline
//   brute   brute-force all-nodes neighbor scan
//
// and the bench reports wall-clock seconds, scheduler events/s, frames/s,
// and the speedup of each path over the grid baseline.
//
// Both paths promise the same simulation, so the bench doubles as a
// correctness gate: any mismatch in events executed, frames sent, packets
// delivered, or MAC collisions between paths of the same (N, run) exits
// nonzero, and so does a grid baseline that executed no events or
// delivered no packets at some N (nothing was compared: raise
// ICC_SCALE_TIME past the traffic start). CI's perf-smoke job runs exactly
// that gate at N=100 (it is correctness-gated, not time-gated: shared
// runners make wall-clock thresholds flaky).
//
// Environment knobs: ICC_SCALE_NODES (comma list, default 100,1000,10000),
// ICC_SCALE_TIME (default 20 s), ICC_SCALE_RUNS (default 1),
// ICC_SCALE_BRUTE_MAX (default 1000 — the brute cell is skipped for larger
// N, where the O(N^2) scan would dominate the sweep's wall time),
// ICC_THREADS (keep the default 1 when the wall-clock numbers matter),
// ICC_JSON.
// The committed bench/BENCH_scale.json is this bench's ICC_JSON report at
// the defaults — the perf trajectory baseline for future PRs.
#include <cmath>
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include <chrono>
#include <thread>

#include "aodv/blackhole_experiment.hpp"
#include "exp/env.hpp"
#include "exp/runner.hpp"
#include "sim/report.hpp"

namespace {

/// The engine axis: which neighbor-query path serves the radio.
struct Engine {
  const char* label;  ///< axis label: "grid" or "brute"
  bool spatial_grid;  ///< neighbor queries from the spatial index?
};
constexpr Engine kEngines[] = {{"grid", true}, {"brute", false}};

}  // namespace

int main() {
  const std::string nodes_spec = icc::exp::env_string("ICC_SCALE_NODES", "100,1000,10000");
  const std::vector<int> node_counts =
      icc::exp::env_int_list("ICC_SCALE_NODES", "100,1000,10000");
  const double sim_time = icc::exp::env_double("ICC_SCALE_TIME", 20.0);
  const int runs = icc::exp::env_int("ICC_SCALE_RUNS", 1);
  const int brute_max = icc::exp::env_int("ICC_SCALE_BRUTE_MAX", 1000);
  if (node_counts.empty()) {
    std::fprintf(stderr, "ICC_SCALE_NODES parsed to an empty list\n");
    return 1;
  }

  // Wall-clock numbers only mean something with their hardware context:
  // printed (and written to the JSON meta) so an artifact is never read
  // without the host's core count.
  const unsigned host_cpus = std::thread::hardware_concurrency();
  std::printf("Simulator scale sweep — N in {%s}, %.0f s simulated, %d run(s) per cell\n"
              "(density-preserving area, N/5 CBR connections, no attackers;\n"
              " brute path skipped above N=%d; host has %u CPU(s))\n\n",
              nodes_spec.c_str(), sim_time, runs, brute_max, host_cpus);

  icc::exp::Campaign campaign;
  campaign.name = "scale_sweep";
  campaign.base_seed = 9100;
  campaign.runs = runs;
  campaign.common_random_numbers = true;  // every engine must see the same world
  {
    std::vector<std::string> node_labels;
    for (const int n : node_counts) node_labels.push_back(std::to_string(n));
    std::vector<std::string> engine_labels;
    for (const Engine& e : kEngines) engine_labels.emplace_back(e.label);
    campaign.grid.axis("nodes", node_labels);
    campaign.grid.axis("engine", engine_labels);
  }
  campaign.job = [&](const icc::exp::JobContext& ctx) {
    const int n = node_counts[campaign.grid.level(ctx.cell, 0)];
    const Engine& engine = kEngines[campaign.grid.level(ctx.cell, 1)];
    if (!engine.spatial_grid && n > brute_max) return icc::exp::JobOutputs{};  // skipped
    icc::aodv::BlackholeExperimentConfig config;
    config.num_nodes = n;
    // Density-preserving scaling: the area grows with N so the mean radio
    // degree is constant and N scales the world, not the load per node. The
    // density is half the paper's 50-node/1000x1000 m^2 figure (mean degree
    // ~5 instead of ~10) — a sparser, longer-hop topology keeps the
    // per-frame delivery fan-out from drowning the neighbor-query machinery
    // this sweep exists to compare, while staying above the continuum
    // percolation threshold so multihop routes exist.
    config.area = 1000.0 * std::sqrt(static_cast<double>(n) / 25.0);
    config.num_connections = n / 5;
    config.num_malicious = 0;
    config.sim_time = sim_time;
    config.seed = ctx.seed;
    config.spatial_grid = engine.spatial_grid;
    // detlint:allow(wall-clock): perf bench measures host wall time only; results never feed simulated state
    const auto start = std::chrono::steady_clock::now();
    const auto r = icc::aodv::run_blackhole_experiment(config);
    // detlint:allow(wall-clock): perf bench measures host wall time only; results never feed simulated state
    const auto stop = std::chrono::steady_clock::now();
    const double wall_s = std::chrono::duration<double>(stop - start).count();
    icc::exp::JobOutputs out;
    out["wall_s"] = {wall_s};
    out["events_per_s"] = {wall_s > 0.0 ? static_cast<double>(r.events_executed) / wall_s
                                        : 0.0};
    out["frames_per_s"] = {wall_s > 0.0 ? static_cast<double>(r.frames_sent) / wall_s : 0.0};
    // Correctness signature of the run: must match exactly across paths.
    out["events_executed"] = {static_cast<double>(r.events_executed)};
    out["frames_sent"] = {static_cast<double>(r.frames_sent)};
    out["packets_received"] = {static_cast<double>(r.packets_received)};
    out["mac_collisions"] = {static_cast<double>(r.mac_collisions)};
    out["throughput"] = {r.throughput};
    return out;
  };
  const icc::exp::CampaignResult result = icc::exp::run_campaign(campaign);

  // Correctness gate: both paths of the same N simulated the same seeds, so
  // their simulation outputs (not their wall-clock) must agree to the last
  // bit.
  bool consistent = true;
  const char* signature[] = {"events_executed", "frames_sent", "packets_received",
                             "mac_collisions"};
  for (std::size_t ni = 0; ni < node_counts.size(); ++ni) {
    const std::size_t base_cell = campaign.grid.cell_index({ni, 0});  // grid engine
    // Agreement on an empty simulation proves nothing: every run of the
    // baseline must have executed events and delivered packets.
    for (const char* metric : {"events_executed", "packets_received"}) {
      const auto& base = result.series(base_cell, metric);
      if (base.count == 0 || !(base.min > 0.0)) {
        std::fprintf(stderr,
                     "VACUOUS at N=%d: the grid baseline has %s=0 — nothing "
                     "simulated to compare (raise ICC_SCALE_TIME)\n",
                     node_counts[ni], metric);
        consistent = false;
      }
    }
    for (std::size_t ei = 1; ei < std::size(kEngines); ++ei) {
      const std::size_t cell = campaign.grid.cell_index({ni, ei});
      if (result.series(cell, "events_executed").count == 0) continue;  // skipped
      for (const char* metric : signature) {
        const auto& a = result.series(base_cell, metric);
        const auto& b = result.series(cell, metric);
        if (a.count != b.count || a.sum != b.sum) {
          std::fprintf(stderr,
                       "MISMATCH at N=%d: %s grid=%.0f %s=%.0f — path diverged "
                       "from the grid baseline\n",
                       node_counts[ni], metric, a.sum, kEngines[ei].label, b.sum);
          consistent = false;
        }
      }
    }
  }

  std::printf("%8s %8s %10s | %10s %12s %12s | %8s\n", "nodes", "engine", "events",
              "wall s", "events/s", "frames/s", "speedup");
  for (std::size_t ni = 0; ni < node_counts.size(); ++ni) {
    const double base = result.mean(campaign.grid.cell_index({ni, 0}), "events_per_s");
    for (std::size_t ei = 0; ei < std::size(kEngines); ++ei) {
      const std::size_t cell = campaign.grid.cell_index({ni, ei});
      if (result.series(cell, "events_executed").count == 0) {
        std::printf("%8d %8s %10s | %10s %12s %12s | %8s\n", node_counts[ni],
                    kEngines[ei].label, "-", "-", "-", "-", "skipped");
        continue;
      }
      const double eps = result.mean(cell, "events_per_s");
      std::printf("%8d %8s %10.0f | %10.2f %12.0f %12.0f | %7.2fx\n", node_counts[ni],
                  kEngines[ei].label, result.mean(cell, "events_executed"),
                  result.mean(cell, "wall_s"), eps, result.mean(cell, "frames_per_s"),
                  base > 0.0 ? eps / base : 0.0);
    }
  }
  std::printf("\n%s\n", consistent
                            ? "engine correctness gate: OK (identical simulations)"
                            : "engine correctness gate: FAILED");

  if (const std::string json_path = icc::exp::env_string("ICC_JSON"); !json_path.empty()) {
    icc::sim::RunReport report;
    report.set_meta("experiment", "scale_sweep");
    report.set_meta("runs", static_cast<std::uint64_t>(runs));
    report.set_meta("sim_time_s", sim_time);
    report.set_meta("seed", campaign.base_seed);
    report.set_meta("host_cpus", static_cast<std::uint64_t>(host_cpus));
    result.add_to_report(report);
    if (!report.write_file(json_path)) {
      std::fprintf(stderr, "failed to write report to %s\n", json_path.c_str());
    }
  }
  return consistent ? 0 : 1;
}
