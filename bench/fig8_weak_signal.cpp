// Reproduces the §5.2 weak-signal follow-up experiment: the Fig 8 grid
// re-run with K*T = 10000. The paper reports that all metrics keep their
// Fig 8 shape except the miss-alarm probability, which rises to 2-5% for
// inner-circle sizes greater than five (worst under signal interference and
// stuck-at-zero, which deplete the pool of corroborating detectors).
//
// Environment knobs: ICC_RUNS (default 5), ICC_SIM_TIME (default 200 s),
// ICC_MAX_LEVEL (default 7).
#include "fig8_common.hpp"

int main() {
  const int runs = icc::exp::env_int("ICC_RUNS", 5);
  const double sim_time = icc::exp::env_double("ICC_SIM_TIME", 200.0);
  std::printf("Section 5.2 follow-up — weak target signal (K*T = 10000)\n");
  return icc::bench::run_fig8("fig8_weak_signal", /*kt=*/10000.0, runs, sim_time) ? 0 : 1;
}
