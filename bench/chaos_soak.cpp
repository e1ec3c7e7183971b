// Chaos soak: many randomized-but-seeded FaultPlans thrown at the AODV
// scenario, each run checked for (a) clean completion — in a checked build
// (-DICC_CHECKED=ON) every scheduler/MAC/voting invariant is armed — and
// (b) a consistent neutralization-coverage ledger (injected == detected +
// escaped for every fault class, per-node sums matching class totals).
//
// Every plan seed is printed to stderr *before* the run, so a crash or
// assertion failure always leaves the offending seed in the log, and the
// failure report prints a one-line repro command.
//
// Environment knobs:
//   ICC_CHAOS_PLANS   number of randomized plans (default 100)
//   ICC_CHAOS_TIME    simulated seconds per plan (default 15)
//   ICC_CHAOS_NODES   nodes per world (default 16)
//   ICC_CHAOS_SEED    base seed for the plan sequence (default 424242)
//   ICC_CHAOS_REPRO   run exactly one plan, by its printed seed
#include <array>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "aodv/blackhole_experiment.hpp"
#include "exp/env.hpp"
#include "exp/seed.hpp"
#include "fault/ledger.hpp"
#include "fault/plan.hpp"
#include "sensor/experiment.hpp"
#include "sim/report.hpp"

namespace {

struct PlanOutcome {
  bool consistent{true};
  std::array<icc::fault::CoverageRow, icc::fault::kNumFaultClasses> coverage{};
  std::array<std::uint64_t, icc::fault::kNumAttackKinds> kind_injected{};
};

PlanOutcome run_one(std::uint64_t plan_seed, int nodes, double sim_time) {
  icc::fault::RandomPlanParams params;
  params.num_nodes = nodes;
  params.sim_time = sim_time;
  const icc::fault::FaultPlan plan = icc::fault::FaultPlan::randomized(plan_seed, params);

  icc::aodv::BlackholeExperimentConfig config;
  config.num_nodes = nodes;
  config.area = 400.0;
  config.tx_range = 150.0;
  config.num_connections = 3;
  config.sim_time = sim_time;
  config.traffic_start = 1.0;
  config.plan = plan;
  // Rotate through the defense configurations deterministically so the soak
  // exercises the undefended, watchdog, inner-circle, and hardened
  // inner-circle (AODVSEC + geo leash) ledger paths. The choice goes through
  // SplitMix64 on a dedicated salt — not plan_seed % N — so widening the
  // rotation re-deals only which defense a plan gets; the plan itself (and
  // every other seed-derived parameter) stays fixed.
  switch (icc::exp::splitmix64(plan_seed ^ 0xDEFE25Eull) % 4) {
    case 1:
      config.watchdog = true;
      break;
    case 2:
      config.inner_circle = true;
      config.level = 1;
      break;
    case 3:
      config.inner_circle = true;
      config.level = 2;
      config.aodvsec = true;
      config.geo_leash = true;
      break;
    default:
      break;
  }
  config.seed = icc::exp::splitmix64(plan_seed ^ 0xC0FFEEull);

  const icc::aodv::BlackholeExperimentResult r = icc::aodv::run_blackhole_experiment(config);
  PlanOutcome outcome{r.coverage_consistent, r.coverage, r.attack_kind_injected};

  // Sensor specs have no consumer in the AODV scenario, so plans that carry
  // them also drive a small fusion world — that exercises the sensor
  // injected/detected/neutralized ledger path under the same plan.
  if (!plan.sensor.empty()) {
    icc::sensor::SensorExperimentConfig sensor_config;
    sensor_config.num_sensors = nodes;
    sensor_config.area = 100.0;
    sensor_config.tx_range = 40.0;
    sensor_config.sim_time = sim_time;
    sensor_config.target_period = sim_time * 0.6;
    sensor_config.target_duration = sim_time * 0.3;
    sensor_config.sample_period = 2.0;
    sensor_config.inner_circle = plan_seed % 2 == 0;
    sensor_config.level = 2;
    sensor_config.delta_sts = sim_time;  // one STS refresh per run
    sensor_config.plan = plan;
    sensor_config.seed = icc::exp::splitmix64(plan_seed ^ 0x5E5E5Eull);
    const icc::sensor::SensorExperimentResult s = icc::sensor::run_sensor_experiment(sensor_config);
    outcome.consistent = outcome.consistent && s.coverage_consistent;
    for (std::size_t c = 0; c < icc::fault::kNumFaultClasses; ++c) {
      outcome.coverage[c].injected += s.coverage[c].injected;
      outcome.coverage[c].detected += s.coverage[c].detected;
      outcome.coverage[c].neutralized += s.coverage[c].neutralized;
      outcome.coverage[c].escaped += s.coverage[c].escaped;
    }
  }
  return outcome;
}

}  // namespace

int main() {
  const int plans = icc::exp::env_int("ICC_CHAOS_PLANS", 100);
  const double sim_time = icc::exp::env_double("ICC_CHAOS_TIME", 15.0);
  const int nodes = icc::exp::env_int("ICC_CHAOS_NODES", 16);
  const std::uint64_t base_seed = std::strtoull(
      icc::exp::env_string("ICC_CHAOS_SEED", "424242").c_str(), nullptr, 10);
  const std::string repro = icc::exp::env_string("ICC_CHAOS_REPRO");

  std::vector<std::uint64_t> seeds;
  if (!repro.empty()) {
    seeds.push_back(std::strtoull(repro.c_str(), nullptr, 10));
  } else {
    seeds.reserve(static_cast<std::size_t>(plans));
    for (int i = 0; i < plans; ++i) {
      seeds.push_back(icc::exp::derive_seed(base_seed, 0, static_cast<std::uint64_t>(i)));
    }
  }

  std::printf("chaos soak: %zu randomized fault plan(s), %d nodes, %.0f s each\n\n",
              seeds.size(), nodes, sim_time);

  icc::fault::CoverageRow totals[icc::fault::kNumFaultClasses];
  std::array<std::uint64_t, icc::fault::kNumAttackKinds> kind_totals{};
  std::vector<std::uint64_t> failing;
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    const std::uint64_t seed = seeds[i];
    {
      icc::fault::RandomPlanParams params;
      params.num_nodes = nodes;
      params.sim_time = sim_time;
      const icc::fault::FaultPlan preview =
          icc::fault::FaultPlan::randomized(seed, params);
      // To stderr, unbuffered by line: an abort mid-run must not eat the seed.
      std::fprintf(stderr, "chaos plan %zu/%zu seed=%llu (%s)\n", i + 1, seeds.size(),
                   static_cast<unsigned long long>(seed), preview.summary().c_str());
    }
    const PlanOutcome outcome = run_one(seed, nodes, sim_time);
    for (std::size_t c = 0; c < icc::fault::kNumFaultClasses; ++c) {
      totals[c].injected += outcome.coverage[c].injected;
      totals[c].detected += outcome.coverage[c].detected;
      totals[c].neutralized += outcome.coverage[c].neutralized;
      totals[c].escaped += outcome.coverage[c].escaped;
    }
    for (std::size_t k = 0; k < icc::fault::kNumAttackKinds; ++k) {
      kind_totals[k] += outcome.kind_injected[k];
    }
    if (!outcome.consistent) {
      failing.push_back(seed);
      std::fprintf(stderr, "chaos plan seed=%llu: coverage ledger INCONSISTENT\n",
                   static_cast<unsigned long long>(seed));
    }
  }

  std::printf("aggregate neutralization coverage:\n");
  std::printf("%-10s %12s %12s %12s %12s\n", "class", "injected", "detected",
              "neutralized", "escaped");
  for (std::size_t c = 0; c < icc::fault::kNumFaultClasses; ++c) {
    std::printf("%-10s %12llu %12llu %12llu %12llu\n",
                icc::fault::fault_class_name(static_cast<icc::fault::FaultClass>(c)),
                static_cast<unsigned long long>(totals[c].injected),
                static_cast<unsigned long long>(totals[c].detected),
                static_cast<unsigned long long>(totals[c].neutralized),
                static_cast<unsigned long long>(totals[c].escaped));
  }

  std::printf("\ninjected actions by attack kind (zoo kinds book per-kind counters):\n");
  for (std::size_t k = 0; k < icc::fault::kNumAttackKinds; ++k) {
    const auto kind = static_cast<icc::fault::AttackKind>(k);
    if (!icc::fault::attack_kind_booked(kind)) continue;
    std::printf("%-20s %12llu\n", icc::fault::attack_kind_name(kind),
                static_cast<unsigned long long>(kind_totals[k]));
  }

  // Aggregate ledger as a RunReport, same gauge names CoverageLedger uses
  // for single runs — one schema whether you look at a run or the soak.
  icc::sim::RunReport report;
  report.set_meta("experiment", "chaos_soak");
  report.set_meta("plans", static_cast<std::uint64_t>(seeds.size()));
  report.set_meta("nodes", nodes);
  report.set_meta("sim_time_s", sim_time);
  report.set_meta("seed", base_seed);
  report.set_meta("ledger_consistent", static_cast<std::uint64_t>(failing.empty() ? 1 : 0));
  for (std::size_t c = 0; c < icc::fault::kNumFaultClasses; ++c) {
    std::string base = "fault.";
    base += icc::fault::fault_class_name(static_cast<icc::fault::FaultClass>(c));
    base += ".coverage.";
    report.add_gauge(base + "injected", static_cast<double>(totals[c].injected));
    report.add_gauge(base + "detected", static_cast<double>(totals[c].detected));
    report.add_gauge(base + "neutralized", static_cast<double>(totals[c].neutralized));
    report.add_gauge(base + "escaped", static_cast<double>(totals[c].escaped));
  }
  for (std::size_t k = 0; k < icc::fault::kNumAttackKinds; ++k) {
    const auto kind = static_cast<icc::fault::AttackKind>(k);
    if (!icc::fault::attack_kind_booked(kind)) continue;
    report.add_gauge(std::string("fault.kind.") + icc::fault::attack_kind_name(kind) +
                         ".injected",
                     static_cast<double>(kind_totals[k]));
  }
  const bool report_written = icc::exp::write_json_report(report);

  if (!failing.empty()) {
    std::printf("\n%zu plan(s) FAILED the ledger invariant; reproduce with:\n",
                failing.size());
    for (const std::uint64_t seed : failing) {
      std::printf("  ICC_CHAOS_REPRO=%llu ICC_CHAOS_NODES=%d ICC_CHAOS_TIME=%.0f "
                  "./bench/chaos_soak\n",
                  static_cast<unsigned long long>(seed), nodes, sim_time);
    }
    return 1;
  }
  std::printf("\nall %zu plan(s) completed with a consistent coverage ledger\n",
              seeds.size());
  return report_written ? 0 : 1;
}
