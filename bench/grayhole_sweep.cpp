// Gray hole attack sweep (§5.1 / §6): a malicious node that behaves
// correctly most of the time and attacks only in bursts defeats
// detection-based countermeasures [4, 5, 23, 28]; the inner-circle approach
// masks every individual malicious RREP regardless of duty cycle. The sweep
// varies the attack duty cycle and compares no defense, the watchdog /
// pathrater detection baseline (Marti et al. [28]), and the inner circle.
//
// Environment knobs: ICC_RUNS (default 5), ICC_SIM_TIME (default 300 s),
// ICC_THREADS, ICC_CAMPAIGN_JOURNAL, ICC_JSON.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "aodv/blackhole_experiment.hpp"
#include "exp/env.hpp"
#include "exp/runner.hpp"
#include "fault/ledger.hpp"
#include "sim/report.hpp"

int main() {
  using icc::aodv::BlackholeExperimentConfig;

  const int runs = icc::exp::env_int("ICC_RUNS", 5);
  const double sim_time = icc::exp::env_double("ICC_SIM_TIME", 300.0);
  const int attackers = 5;

  struct DutyCycle {
    const char* name;
    double on;
    double off;
  };
  const DutyCycle cycles[] = {
      {"always on (black hole)", 0.0, 0.0},
      {"50% (30s/30s)", 30.0, 30.0},
      {"25% (15s/45s)", 15.0, 45.0},
      {"10% (6s/54s)", 6.0, 54.0},
  };
  struct Defense {
    const char* name;
    const char* key;
    bool watchdog;
    bool inner_circle;
  };
  const Defense defenses[] = {{"no defense", "no_defense", false, false},
                              {"watchdog [28]", "watchdog", true, false},
                              {"IC, L=1", "ic_l1", false, true}};

  std::printf("Gray hole duty-cycle sweep — %d attackers of 50 nodes "
              "(%d runs per point, %.0f s)\n\n", attackers, runs, sim_time);

  icc::exp::Campaign campaign;
  campaign.name = "grayhole_sweep";
  campaign.base_seed = 7000;
  campaign.runs = runs;
  campaign.common_random_numbers = true;  // same worlds across the defenses
  {
    std::vector<std::string> labels;
    for (const DutyCycle& c : cycles) labels.emplace_back(c.name);
    campaign.grid.axis("duty_cycle", labels);
    labels.clear();
    std::vector<std::string> keys;
    for (const Defense& d : defenses) {
      labels.emplace_back(d.name);
      keys.emplace_back(d.key);
    }
    campaign.grid.axis("defense", labels, keys);
  }
  campaign.job = [&](const icc::exp::JobContext& ctx) {
    const DutyCycle& cycle = cycles[campaign.grid.level(ctx.cell, 0)];
    const Defense& defense = defenses[campaign.grid.level(ctx.cell, 1)];
    BlackholeExperimentConfig config;
    // The duty-cycle axis is a FaultPlan: gray_hole_plan puts the periodic
    // Schedule in the specs (on == 0 degenerates to the always-on black
    // hole). num_malicious keeps the CBR endpoint draw off the attacker ids.
    config.plan = icc::fault::gray_hole_plan(attackers, cycle.on, cycle.off);
    config.num_malicious = attackers;
    config.watchdog = defense.watchdog;
    config.inner_circle = defense.inner_circle;
    config.level = 1;
    config.sim_time = sim_time;
    config.seed = ctx.seed;
    const auto r = icc::aodv::run_blackhole_experiment(config);
    icc::exp::JobOutputs out;
    out["throughput"] = {r.throughput};
    out["energy_j"] = {r.mean_energy_j};
    // Coverage ledger per run: for this bench the protocol row is the story
    // (how many gray-hole injections each defense detected vs. masked).
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

  std::printf("%-26s %12s %14s %12s\n", "attack duty cycle", "no defense",
              "watchdog [28]", "IC, L=1");
  for (std::size_t c = 0; c < std::size(cycles); ++c) {
    std::printf("%-26s %11.1f%% %13.1f%% %11.1f%%\n", cycles[c].name,
                100.0 * result.mean(campaign.grid.cell_index({c, 0}), "throughput"),
                100.0 * result.mean(campaign.grid.cell_index({c, 1}), "throughput"),
                100.0 * result.mean(campaign.grid.cell_index({c, 2}), "throughput"));
  }
  std::printf("\n(Detection-based defense pays its detection latency on every fresh\n"
              " neighborhood an attacker roams into, and gray hole bursts reset the race;\n"
              " masking filters every malicious RREP with no latency at any duty cycle.)\n");

  icc::sim::RunReport report;
  report.set_meta("experiment", "grayhole_sweep");
  report.set_meta("runs", static_cast<std::uint64_t>(runs));
  report.set_meta("sim_time_s", sim_time);
  report.set_meta("seed", campaign.base_seed);
  result.add_to_report(report);
  const bool report_written = icc::exp::write_json_report(report);
  return report_written ? 0 : 1;
}
