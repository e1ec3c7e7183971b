// Reproduces Fig 8 of the paper: the faulty-sensor target detection /
// localization study at the nominal signal strength (K*T = 20000), across
// the five fault models, centralized versus inner-circle L = 2..7.
//
// Environment knobs: ICC_RUNS (default 5, paper: 50), ICC_SIM_TIME (default
// 200 s, the paper's value), ICC_MAX_LEVEL (default 7).
#include "fig8_common.hpp"

int main() {
  const int runs = icc::exp::env_int("ICC_RUNS", 5);
  const double sim_time = icc::exp::env_double("ICC_SIM_TIME", 200.0);
  std::printf("Figure 8 — faulty sensors, nominal target signal\n");
  return icc::bench::run_fig8("fig8_sensors", /*kt=*/20000.0, runs, sim_time) ? 0 : 1;
}
