// Integration tests for the AODV inner-circle guard (Fig 6): RREPs travel
// only as agreed messages, the fw-map check stops black hole RREPs at the
// source, and the §5.1 guarantee holds — a malicious node not on a path to
// D cannot diffuse a RREP for D.
#include <gtest/gtest.h>

#include <memory>

#include "aodv/misbehavior.hpp"
#include "aodv/blackhole_experiment.hpp"
#include "aodv/guard.hpp"
#include "core/framework.hpp"
#include "crypto/model_scheme.hpp"
#include "crypto/pki.hpp"
#include "sim/world.hpp"

namespace icc::aodv {
namespace {

class GuardTest : public ::testing::Test {
 protected:
  // Guarded chain of n nodes with `extra` unguarded attacker nodes appended
  // at the given positions.
  void build(int n, std::vector<sim::Vec2> attacker_positions = {}, int level = 1,
             double spacing = 150.0) {
    sim::WorldConfig config;
    config.width = 5000;
    config.height = 1000;
    config.tx_range = 250;
    config.seed = 41;
    world_ = std::make_unique<sim::World>(config);
    scheme_ = std::make_unique<crypto::ModelThresholdScheme>(5, std::max(level, 1), 1024);
    pki_ = std::make_unique<crypto::ModelPki>(6, 1024);

    // Default 150 m spacing keeps only adjacent nodes in range; callers
    // needing bigger circles (higher L) pass a tighter spacing.
    for (int i = 0; i < n; ++i) {
      sim::Node& node = world_->add_node(
          std::make_unique<sim::StaticMobility>(sim::Vec2{i * spacing, 0.0}));
      agents_.push_back(std::make_unique<Aodv>(node, Aodv::Params{}));
      agents_.back()->set_deliver_handler(
          [this, id = node.id()](const DataMsg& data, sim::NodeId src) {
            deliveries_.push_back({id, src, data.app_uid});
          });
      core::InnerCircleConfig icc_config;
      icc_config.level = level;
      circles_.push_back(
          std::make_unique<core::InnerCircleNode>(node, icc_config, *scheme_, *pki_, cipher_));
      guards_.push_back(std::make_unique<AodvGuard>(*agents_.back(), *circles_.back()));
      circles_.back()->start();
    }
    for (const sim::Vec2 pos : attacker_positions) {
      sim::Node& node = world_->add_node(std::make_unique<sim::StaticMobility>(pos));
      attackers_.push_back(
          std::make_unique<MisbehaviorAodv>(node, Aodv::Params{}, fault::black_hole(node.id())));
    }
    world_->run_until(5.0);  // STS bootstrap
  }

  struct Delivery {
    sim::NodeId at;
    sim::NodeId src;
    std::uint64_t uid;
  };

  std::unique_ptr<sim::World> world_;
  std::unique_ptr<crypto::ModelThresholdScheme> scheme_;
  std::unique_ptr<crypto::ModelPki> pki_;
  crypto::ModelCipher cipher_;
  std::vector<std::unique_ptr<Aodv>> agents_;
  std::vector<std::unique_ptr<core::InnerCircleNode>> circles_;
  std::vector<std::unique_ptr<AodvGuard>> guards_;
  std::vector<std::unique_ptr<MisbehaviorAodv>> attackers_;
  std::vector<Delivery> deliveries_;
};

TEST_F(GuardTest, GuardedRouteDiscoveryStillWorks) {
  build(5);
  agents_[0]->send_data(4, DataMsg{});
  world_->run_until(10.0);
  ASSERT_EQ(deliveries_.size(), 1u);
  EXPECT_EQ(deliveries_[0].at, 4u);
  // Every hop of the RREP went through a voting round.
  EXPECT_GE(world_->metrics().counter_value("ivs.rounds_completed"), 2.0);
}

TEST_F(GuardTest, RawRrepsAreSuppressedAtGuardedNodes) {
  build(4);
  agents_[0]->send_data(3, DataMsg{});
  world_->run_until(10.0);
  // The destination and forwarders sent RREPs; each was intercepted, so no
  // raw RREP reached any guarded AODV daemon off the air. Inject one
  // directly to verify the suppression path fires.
  RrepMsg rrep;
  rrep.dest = 3;
  rrep.dest_seq = 999;
  rrep.orig = 0;
  rrep.hop_count = 1;
  sim::Packet packet;
  packet.src = 2;
  packet.dst = 1;
  packet.port = sim::Port::kAodv;
  packet.size_bytes = RrepMsg::kWireSize;
  packet.body = std::make_shared<RrepMsg>(rrep);
  const double suppressed_before = world_->metrics().counter_value("icc.suppressed_raw");
  world_->node(2).send_unfiltered(std::move(packet), 1);
  world_->run_until(11.0);
  EXPECT_GT(world_->metrics().counter_value("icc.suppressed_raw"), suppressed_before);
}

TEST_F(GuardTest, BlackholeRrepCannotEstablishRoute) {
  // Attacker sits near node 1; its forged RREP for destination 4 must never
  // enter any guarded routing table, so traffic flows the honest path.
  build(5, {{150.0, 100.0}});
  for (int i = 0; i < 8; ++i) {
    world_->sched().schedule_in(0.5 * i, [this] {
      DataMsg data;
      data.app_uid = 3;
      agents_[0]->send_data(4, data);
    });
  }
  world_->run_until(20.0);
  EXPECT_EQ(deliveries_.size(), 8u);
  // The forged RREP was sent but dropped by interceptors; nobody routes to
  // 4 via the attacker (node id 5).
  EXPECT_GT(world_->metrics().counter_value("blackhole.rrep_sent"), 0.0);
  for (const auto& agent : agents_) {
    EXPECT_NE(agent->next_hop_to(4), 5u);
  }
  EXPECT_EQ(attackers_[0]->packets_dropped(), 0u);
}

TEST_F(GuardTest, FwMapTracksAgreedForwarders) {
  build(4);
  agents_[0]->send_data(3, DataMsg{});
  world_->run_until(10.0);
  // Node 1 relayed the RREP from 2 towards 0: its neighbors recorded both 2
  // (as an agreed center) and 1 (as designated next hop) in fw.
  bool any = false;
  for (std::size_t i = 0; i < guards_.size(); ++i) {
    for (std::uint32_t seq = 1; seq < 10; ++seq) {
      if (guards_[i]->is_valid_forwarder(1, 3, seq)) any = true;
    }
  }
  EXPECT_TRUE(any);
}

TEST_F(GuardTest, Level2AlsoNeutralizes) {
  // 100 m spacing: everyone (endpoints included) has a circle of >= 2.
  build(6, {{300.0, 100.0}}, /*level=*/2, /*spacing=*/100.0);
  for (int i = 0; i < 6; ++i) {
    world_->sched().schedule_in(0.5 * i, [this] {
      DataMsg data;
      data.app_uid = 4;
      agents_[0]->send_data(5, data);
    });
  }
  world_->run_until(25.0);
  EXPECT_GE(deliveries_.size(), 5u);
  EXPECT_EQ(attackers_[0]->packets_dropped(), 0u);
}

// --------------------------------------------------- experiment-level

TEST(BlackholeExperiment, AttackCollapsesThroughputAndGuardRestoresIt) {
  BlackholeExperimentConfig config;
  config.sim_time = 60.0;
  config.seed = 9;

  config.num_malicious = 0;
  const auto clean = run_blackhole_experiment(config);
  EXPECT_GT(clean.throughput, 0.9);

  config.num_malicious = 5;
  const auto attacked = run_blackhole_experiment(config);
  EXPECT_LT(attacked.throughput, 0.4);
  EXPECT_GT(attacked.blackhole_dropped, 100u);

  config.inner_circle = true;
  config.level = 1;
  const auto guarded = run_blackhole_experiment(config);
  EXPECT_GT(guarded.throughput, 0.8);
  EXPECT_GT(guarded.raw_rreps_suppressed, 0u);
}

TEST(BlackholeExperiment, EnergyDropsUnderAttackWithoutDefense) {
  // Fig 7(b)'s counterintuitive effect: black holes *reduce* energy because
  // fewer packets are forwarded.
  BlackholeExperimentConfig config;
  config.sim_time = 60.0;
  config.seed = 10;
  config.num_malicious = 0;
  const auto clean = run_blackhole_experiment(config);
  config.num_malicious = 10;
  const auto attacked = run_blackhole_experiment(config);
  EXPECT_LT(attacked.mean_energy_j, clean.mean_energy_j);
}

TEST(BlackholeExperiment, GrayHoleAlsoNeutralized) {
  BlackholeExperimentConfig config;
  config.sim_time = 60.0;
  config.seed = 11;
  config.num_malicious = 5;
  config.gray_on_period = 10.0;
  config.gray_off_period = 10.0;
  const auto attacked = run_blackhole_experiment(config);

  config.inner_circle = true;
  const auto guarded = run_blackhole_experiment(config);
  EXPECT_GT(guarded.throughput, attacked.throughput);
  EXPECT_GT(guarded.throughput, 0.75);
}

TEST(BlackholeExperiment, AveragedRunsAreDeterministicPerSeed) {
  BlackholeExperimentConfig config;
  config.sim_time = 30.0;
  config.seed = 12;
  config.num_malicious = 2;
  const auto a = run_blackhole_experiment(config);
  const auto b = run_blackhole_experiment(config);
  EXPECT_EQ(a.packets_sent, b.packets_sent);
  EXPECT_EQ(a.packets_received, b.packets_received);
  EXPECT_DOUBLE_EQ(a.mean_energy_j, b.mean_energy_j);
}

}  // namespace
}  // namespace icc::aodv
