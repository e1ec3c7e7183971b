// Reproduces Fig 7 of the paper: network throughput (a) and per-node energy
// consumption (b) versus the number of black hole attackers, for plain AODV
// ("No IC") and the inner-circle framework at dependability levels L=1, 2.
//
// Environment knobs: ICC_RUNS (default 5, paper: 50), ICC_SIM_TIME (default
// 300 s, the paper's value), ICC_THREADS (parallel runs; default 1),
// ICC_CAMPAIGN_JOURNAL (checkpoint/resume path), ICC_JSON (path for a
// structured run report; ".csv" suffix selects CSV, anything else JSON).
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "aodv/blackhole_experiment.hpp"
#include "exp/env.hpp"
#include "exp/runner.hpp"
#include "fault/ledger.hpp"
#include "net/codec.hpp"
#include "sim/report.hpp"

int main() {
  using icc::aodv::BlackholeExperimentConfig;
  using icc::aodv::BlackholeExperimentResult;

  const int runs = icc::exp::env_int("ICC_RUNS", 5);
  const double sim_time = icc::exp::env_double("ICC_SIM_TIME", 300.0);
  const std::vector<int> attacker_counts = {0, 1, 2, 4, 6, 8, 10};

  struct Series {
    const char* name;
    const char* key;  ///< report-friendly identifier
    bool inner_circle;
    int level;
  };
  const Series series[] = {{"No IC", "no_ic", false, 1},
                           {"IC, L=1", "ic_l1", true, 1},
                           {"IC, L=2", "ic_l2", true, 2}};

  std::printf("Figure 7 — black hole attacks on AODV\n");
  std::printf("50 nodes, 1000x1000 m^2, random waypoint 10 m/s, 10 CBR connections\n");
  std::printf("(%d runs per point, %.0f s simulated; paper uses 50 runs)\n\n", runs, sim_time);

  // Both sub-figures in one campaign: each (series, attackers) cell runs
  // `runs` independent worlds; the runner parallelizes over (cell, run).
  icc::exp::Campaign campaign;
  campaign.name = "fig7_blackhole";
  campaign.base_seed = 1000;
  campaign.runs = runs;
  campaign.common_random_numbers = true;  // same worlds across the three series
  {
    std::vector<std::string> labels;
    std::vector<std::string> keys;
    for (const Series& s : series) {
      labels.emplace_back(s.name);
      keys.emplace_back(s.key);
    }
    campaign.grid.axis("series", labels, keys);
    labels.clear();
    keys.clear();
    for (const int m : attacker_counts) {
      labels.push_back(std::to_string(m));
      keys.push_back("m" + std::to_string(m));
    }
    campaign.grid.axis("malicious", labels, keys);
  }
  campaign.job = [&](const icc::exp::JobContext& ctx) {
    const Series& s = series[campaign.grid.level(ctx.cell, 0)];
    const int m = attacker_counts[campaign.grid.level(ctx.cell, 1)];
    BlackholeExperimentConfig config;
    // The attacker axis is a FaultPlan: each grid level is a different set
    // of protocol-misbehavior specs. num_malicious stays set so the CBR
    // endpoint draw keeps avoiding the attacker ids (same worlds as ever).
    config.plan = icc::fault::black_hole_plan(m);
    config.num_malicious = m;
    config.inner_circle = s.inner_circle;
    config.level = s.level;
    config.sim_time = sim_time;
    config.seed = ctx.seed;
    config.world_hook = icc::net::codec_hook_from_env();
    const BlackholeExperimentResult r = icc::aodv::run_blackhole_experiment(config);
    icc::exp::JobOutputs out;
    out["throughput"] = {r.throughput};
    out["energy_j"] = {r.mean_energy_j};
    out["latency_s"] = {r.mean_latency_s};
    out["node_energy_j"] = r.node_energy_j;
    // The neutralization-coverage ledger rides along with every run, so the
    // report carries injected/detected/neutralized/escaped per fault class
    // next to the throughput numbers they explain.
    for (std::size_t c = 0; c < icc::fault::kNumFaultClasses; ++c) {
      const icc::fault::CoverageRow& row = r.coverage[c];
      std::string base = "fault.";
      base += icc::fault::fault_class_name(static_cast<icc::fault::FaultClass>(c));
      out[base + ".injected"] = {static_cast<double>(row.injected)};
      out[base + ".detected"] = {static_cast<double>(row.detected)};
      out[base + ".neutralized"] = {static_cast<double>(row.neutralized)};
      out[base + ".escaped"] = {static_cast<double>(row.escaped)};
    }
    return out;
  };

  const icc::exp::CampaignResult result = icc::exp::run_campaign(campaign);
  const auto cell = [&](std::size_t s, std::size_t a) {
    return campaign.grid.cell_index({s, a});
  };

  std::printf("Fig 7(a): network throughput [%% received/sent, mean±stddev over runs]\n");
  std::printf("%-10s", "#malicious");
  for (const auto& s : series) std::printf(" %16s", s.name);
  std::printf("\n");
  for (std::size_t a = 0; a < attacker_counts.size(); ++a) {
    std::printf("%-10d", attacker_counts[a]);
    for (std::size_t s = 0; s < std::size(series); ++s) {
      const icc::sim::SampleSeries& tp = result.series(cell(s, a), "throughput");
      std::printf("  %8.1f%%±%4.1f", 100.0 * tp.mean(), 100.0 * tp.stddev());
    }
    std::printf("\n");
  }

  std::printf("\nFig 7(b): per-node energy consumption [J, mean±stddev over runs]\n");
  std::printf("%-10s", "#malicious");
  for (const auto& s : series) std::printf(" %16s", s.name);
  std::printf("\n");
  for (std::size_t a = 0; a < attacker_counts.size(); ++a) {
    std::printf("%-10d", attacker_counts[a]);
    for (std::size_t s = 0; s < std::size(series); ++s) {
      const icc::sim::SampleSeries& e = result.series(cell(s, a), "energy_j");
      std::printf("  %9.2f±%5.2f", e.mean(), e.stddev());
    }
    std::printf("\n");
  }

  // Structured export: every (series, attackers) cell contributes
  // throughput, per-run mean energy, per-node energy, and latency series,
  // each carrying count/mean/stddev/min/max.
  icc::sim::RunReport report;
  report.set_meta("experiment", "fig7_blackhole");
  report.set_meta("runs", static_cast<std::uint64_t>(runs));
  report.set_meta("sim_time_s", sim_time);
  report.set_meta("seed", campaign.base_seed);
  result.add_to_report(report);
  const bool report_written = icc::exp::write_json_report(report);

  // Headline numbers the paper calls out in §5.1.
  const double clean = result.mean(cell(0, 0), "throughput");
  const double one_attacker = result.mean(cell(0, 1), "throughput");
  const double ten_attackers = result.mean(cell(0, attacker_counts.size() - 1), "throughput");
  const double ic_clean = result.mean(cell(1, 0), "throughput");
  double ic_worst = 1.0;
  for (std::size_t a = 0; a < attacker_counts.size(); ++a) {
    ic_worst = std::min(ic_worst, result.mean(cell(1, a), "throughput"));
  }
  std::printf("\nheadline: clean %.1f%% | 1 attacker %.1f%% (%.0fx degradation) | "
              "10 attackers %.1f%% | IC overhead %.1f%% | IC worst case %.1f%%\n",
              100 * clean, 100 * one_attacker, clean / std::max(one_attacker, 1e-9),
              100 * ten_attackers, 100 * (clean - ic_clean),
              100 * ic_worst);
  return report_written ? 0 : 1;
}
