// Golden signature of one AODV-heavy world. Same-seed determinism only
// proves a run agrees with itself; this pins what the run *is*. The world is
// bench/scale_sweep's shape at N=300 (density-preserving area, N/5 CBR
// flows, no attackers, no defense) for 7 simulated seconds, and every count
// below was produced before the AODV tables went flat. A container or
// hot-path change that moves any output, even by one event, fails here.
#include <gtest/gtest.h>

#include <cmath>

#include "aodv/blackhole_experiment.hpp"

namespace icc::aodv {
namespace {

TEST(GoldenSignatureTest, SparseScaleWorldAtN300) {
  constexpr int kNodes = 300;
  BlackholeExperimentConfig config;
  config.num_nodes = kNodes;
  config.area = 1000.0 * std::sqrt(static_cast<double>(kNodes) / 25.0);
  config.num_connections = kNodes / 5;
  config.num_malicious = 0;
  config.sim_time = 7.0;
  config.seed = 2024;
  const BlackholeExperimentResult r = run_blackhole_experiment(config);

  EXPECT_EQ(r.events_executed, 210817u);
  EXPECT_EQ(r.frames_sent, 23065u);
  EXPECT_EQ(r.rreq_sent, 16374u);
  EXPECT_EQ(r.rrep_sent, 618u);
  EXPECT_EQ(r.packets_sent, 380u);
  EXPECT_EQ(r.packets_received, 167u);
  EXPECT_EQ(r.mac_collisions, 501u);
}

}  // namespace
}  // namespace icc::aodv
