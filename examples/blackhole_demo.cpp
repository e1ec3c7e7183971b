// Black hole attack demo (paper §5.1, Fig 7).
//
// Runs the same AODV network three times — clean, under attack, and under
// attack with the inner-circle framework — and prints what the attack does
// to throughput and what the inner circle wins back.
//
// Usage: blackhole_demo [num_malicious] [sim_seconds]
#include <cstdio>
#include <cstdlib>

#include "aodv/blackhole_experiment.hpp"
#include "exp/env.hpp"
#include "net/codec.hpp"

int main(int argc, char** argv) {
  using icc::aodv::BlackholeExperimentConfig;
  using icc::aodv::BlackholeExperimentResult;
  using icc::aodv::run_blackhole_experiment;

  const int malicious = argc > 1 ? std::atoi(argv[1]) : 3;
  const double sim_time = argc > 2 ? std::atof(argv[2]) : 120.0;

  BlackholeExperimentConfig base;
  base.sim_time = sim_time;
  base.seed = 42;
  // ICC_NET_CODEC=1 routes every delivered frame through the wire codec
  // round trip; outputs must stay byte-identical to the direct path.
  base.world_hook = icc::net::codec_hook_from_env();

  std::printf("AODV black hole attack demo (%d nodes, %.0f s, %d attacker(s))\n",
              base.num_nodes, base.sim_time, malicious);
  std::printf("%-28s %12s %12s %14s %12s\n", "configuration", "sent", "received",
              "throughput", "energy [J]");

  const auto report = [](const char* name, const BlackholeExperimentResult& r) {
    std::printf("%-28s %12llu %12llu %13.1f%% %12.2f\n", name,
                static_cast<unsigned long long>(r.packets_sent),
                static_cast<unsigned long long>(r.packets_received), 100.0 * r.throughput,
                r.mean_energy_j);
  };

  BlackholeExperimentConfig clean = base;
  report("no attack", run_blackhole_experiment(clean));

  BlackholeExperimentConfig attacked = base;
  attacked.num_malicious = malicious;
  const auto attacked_result = run_blackhole_experiment(attacked);
  report("black hole, no defense", attacked_result);

  BlackholeExperimentConfig guarded = base;
  guarded.num_malicious = malicious;
  guarded.inner_circle = true;
  guarded.level = 1;
  const auto guarded_result = run_blackhole_experiment(guarded);
  report("black hole + inner circle", guarded_result);

  std::printf(
      "\nattack dropped %llu data packets; inner circle suppressed %llu raw RREPs\n",
      static_cast<unsigned long long>(attacked_result.blackhole_dropped),
      static_cast<unsigned long long>(guarded_result.raw_rreps_suppressed));

  // With ICC_PROFILE set the scheduler collects wall-clock timings; report
  // the guarded run's breakdown by event category.
  if (icc::exp::env_flag("ICC_PROFILE")) {
    const icc::sim::SchedulerProfile& prof = guarded_result.profile;
    std::printf("\nscheduler profile (inner-circle run): %llu events, %.3f s wall, "
                "%.0f events/s\n",
                static_cast<unsigned long long>(prof.executed_total()),
                prof.wall_total_seconds(), prof.events_per_second());
    for (std::size_t t = 0; t < icc::sim::kNumEventTags; ++t) {
      if (prof.executed[t] == 0) continue;
      std::printf("  %-10s %10llu events %10.3f ms\n",
                  icc::sim::event_tag_name(static_cast<icc::sim::EventTag>(t)),
                  static_cast<unsigned long long>(prof.executed[t]),
                  1000.0 * prof.wall_seconds[t]);
    }
  }
  return 0;
}
