// Cross-cutting reproducibility and configuration tests: identical seeds
// give bit-identical runs, carrier-sense range follows its configuration,
// and serialization widths are stable.
#include <gtest/gtest.h>

#include <memory>

#include "aodv/blackhole_experiment.hpp"
#include "core/framework.hpp"
#include "crypto/bignum.hpp"
#include "crypto/model_scheme.hpp"
#include "crypto/pki.hpp"
#include "sensor/experiment.hpp"
#include "sim/world.hpp"

namespace icc {
namespace {

struct DummyPayload final : sim::PayloadBase<DummyPayload> {
  static constexpr const char* kTag = "d";
};

TEST(Determinism, IdenticalSeedsGiveIdenticalWorlds) {
  const auto run = [](std::uint64_t seed) {
    sim::WorldConfig config;
    config.seed = seed;
    sim::World world{config};
    sim::Rng layout = world.fork_rng(1);
    for (int i = 0; i < 10; ++i) {
      sim::RandomWaypoint::Params mob;
      world.add_node(std::make_unique<sim::RandomWaypoint>(
          mob, layout.point_in(1000, 1000), world.fork_rng(100 + static_cast<std::uint64_t>(i))));
    }
    world.run_until(30.0);
    // Fingerprint: sum of all positions at t=30.
    double fp = 0.0;
    for (sim::NodeId i = 0; i < world.num_nodes(); ++i) {
      fp += world.node(i).position().x + 3.0 * world.node(i).position().y;
    }
    return fp;
  };
  EXPECT_DOUBLE_EQ(run(77), run(77));
  EXPECT_NE(run(77), run(78));
}

TEST(Determinism, ExperimentDriversAreReproducible) {
  aodv::BlackholeExperimentConfig config;
  config.sim_time = 20.0;
  config.seed = 5;
  config.num_malicious = 1;
  config.inner_circle = true;
  const auto a = aodv::run_blackhole_experiment(config);
  const auto b = aodv::run_blackhole_experiment(config);
  EXPECT_EQ(a.packets_received, b.packets_received);
  EXPECT_EQ(a.voting_rounds, b.voting_rounds);
  EXPECT_DOUBLE_EQ(a.mean_energy_j, b.mean_energy_j);
}

TEST(Determinism, SensorFusionIsBitStable) {
  // The statistical-voting fusion must serialize identically across
  // repeated computation (participants byte-compare it).
  sensor::SignalModel model;
  std::vector<std::pair<sim::NodeId, sensor::Reading>> readings;
  for (int i = 0; i < 5; ++i) {
    readings.emplace_back(i, sensor::Reading{50.0, 30.0 + 7.0 * i,
                                             {40.0 + 11.0 * i, 60.0 - 9.0 * i}});
  }
  const auto a = sensor::fuse_readings(model, readings).serialize();
  const auto b = sensor::fuse_readings(model, readings).serialize();
  EXPECT_EQ(a, b);
}

TEST(CarrierSense, RangeFollowsConfiguration) {
  // Two nodes 400 m apart: with cs factor 2.2 (550 m) the second defers to
  // the first's transmission; with factor 1.0 (250 m) it does not.
  for (const double factor : {2.2, 1.0}) {
    sim::WorldConfig config;
    config.tx_range = 250;
    config.cs_range_factor = factor;
    config.seed = 3;
    sim::World world{config};
    world.add_node(std::make_unique<sim::StaticMobility>(sim::Vec2{0, 0}));
    world.add_node(std::make_unique<sim::StaticMobility>(sim::Vec2{400, 0}));

    sim::Packet p;
    p.src = 0;
    p.dst = sim::kBroadcast;
    p.port = sim::Port::kCbr;
    p.size_bytes = 1000;
    p.body = std::make_shared<DummyPayload>();
    world.node(0).send(sim::Packet{p}, sim::kBroadcast);
    world.run_until(0.001);  // node 0 now mid-transmission
    EXPECT_EQ(world.medium().busy_at(1), factor > 2.0) << "factor " << factor;
  }
}

TEST(Bignum, FixedWidthSerialization) {
  using crypto::Bignum;
  const Bignum v = Bignum::from_hex("deadbeef");
  const auto wide = v.to_bytes(16);
  EXPECT_EQ(wide.size(), 16u);
  EXPECT_EQ(Bignum::from_bytes(wide), v);  // leading zeros are transparent
  EXPECT_THROW((void)v.to_bytes(2), std::length_error);
  // Zero still serializes to at least one byte.
  EXPECT_EQ(Bignum{}.to_bytes().size(), 1u);
}

TEST(SuspicionExpiry, TemporarilySuspectedCenterRegainsVotingRights) {
  sim::WorldConfig config;
  config.tx_range = 250;
  config.seed = 151;
  sim::World world{config};
  crypto::ModelThresholdScheme scheme{152, 2, 512};
  crypto::ModelPki pki{153, 512};
  crypto::ModelCipher cipher;
  std::vector<std::unique_ptr<core::InnerCircleNode>> circles;
  for (int i = 0; i < 4; ++i) {
    sim::Node& node = world.add_node(std::make_unique<sim::StaticMobility>(
        sim::Vec2{450.0 + 40.0 * (i % 2), 450.0 + 40.0 * (i / 2)}));
    core::InnerCircleConfig icc_config;
    icc_config.level = 1;
    icc_config.suspicion_duration = 3.0;  // short, for the test
    circles.push_back(
        std::make_unique<core::InnerCircleNode>(node, icc_config, scheme, pki, cipher));
    circles.back()->callbacks().check = [](sim::NodeId, const core::Value&) { return true; };
    circles.back()->start();
  }
  world.run_until(5.0);
  // Everyone temporarily suspects node 0.
  for (std::size_t i = 1; i < 4; ++i) {
    circles[i]->suspicions().suspect_temporarily(0, world.now(), "test");
  }
  bool agreed_while_suspected = false;
  circles[0]->callbacks().on_agreed = [&](const core::AgreedMsg&, bool is_center) {
    if (is_center) agreed_while_suspected = true;
  };
  circles[0]->initiate(core::Value{1});
  world.run_until(7.0);
  EXPECT_FALSE(agreed_while_suspected);

  // After the suspicion window passes, node 0 participates normally again.
  world.run_until(9.0);
  bool agreed_after = false;
  circles[0]->callbacks().on_agreed = [&](const core::AgreedMsg&, bool is_center) {
    if (is_center) agreed_after = true;
  };
  circles[0]->initiate(core::Value{2});
  world.run_until(11.0);
  EXPECT_TRUE(agreed_after);
}

TEST(WeakSignal, ShrinksDetectionRadiusButKeepsAccuracy) {
  // The §5.2 follow-up mechanism in one assertion: halving K*T shrinks the
  // detection radius by sqrt(2) while the localization machinery still
  // works at the weaker signal.
  sensor::SignalModel strong;
  sensor::SignalModel weak;
  weak.kt = 10000.0;
  const double r_strong = strong.distance_from_signal(strong.lambda - 1.0);
  const double r_weak = weak.distance_from_signal(weak.lambda - 1.0);
  EXPECT_NEAR(r_strong / r_weak, std::sqrt(2.0), 0.01);

  sensor::SensorExperimentConfig config;
  config.signal = weak;
  config.sim_time = 150.0;
  config.seed = 154;
  config.num_faulty = 0;
  config.inner_circle = true;
  config.level = 3;
  // Single weak-signal targets in sparse patches can genuinely be missed
  // (§5.2's weak-signal effect), so assert over an ensemble: most targets
  // are still found, and found ones are localized accurately.
  const auto r = sensor::run_sensor_experiment_averaged(config, 5);
  EXPECT_LE(r.miss_prob, 0.3);
  EXPECT_LT(r.localization_error_m, 15.0);
}

}  // namespace
}  // namespace icc
