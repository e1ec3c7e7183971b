// Churn / failure-injection integration tests: the inner-circle framework
// under node mobility, mid-round crashes, and split circles — the
// conditions §3 argues local protocols handle gracefully.
#include <gtest/gtest.h>

#include <memory>

#include "aodv/blackhole_experiment.hpp"
#include "core/framework.hpp"
#include "crypto/model_scheme.hpp"
#include "crypto/pki.hpp"
#include "fault/injector.hpp"
#include "fault/ledger.hpp"
#include "fault/plan.hpp"
#include "sim/world.hpp"

namespace icc::core {
namespace {

class ChurnTest : public ::testing::Test {
 protected:
  void build(int n, int level) {
    sim::WorldConfig config;
    config.tx_range = 250;
    config.seed = 111;
    world_ = std::make_unique<sim::World>(config);
    scheme_ = std::make_unique<crypto::ModelThresholdScheme>(112, 8, 512);
    pki_ = std::make_unique<crypto::ModelPki>(113, 512);
    for (int i = 0; i < n; ++i) {
      sim::Node& node = world_->add_node(std::make_unique<sim::StaticMobility>(
          sim::Vec2{400.0 + 50.0 * (i % 3), 400.0 + 50.0 * (i / 3)}));
      InnerCircleConfig icc_config;
      icc_config.level = level;
      circles_.push_back(
          std::make_unique<InnerCircleNode>(node, icc_config, *scheme_, *pki_, cipher_));
      circles_.back()->callbacks().check = [](sim::NodeId, const Value&) { return true; };
      circles_.back()->start();
    }
    world_->run_until(5.0);
  }

  std::unique_ptr<sim::World> world_;
  std::unique_ptr<crypto::ModelThresholdScheme> scheme_;
  std::unique_ptr<crypto::ModelPki> pki_;
  crypto::ModelCipher cipher_;
  std::vector<std::unique_ptr<InnerCircleNode>> circles_;
};

TEST_F(ChurnTest, MidRoundCrashOfOneParticipantTolerated) {
  // L = 2 in a 6-node circle: one participant dying mid-round leaves plenty
  // of other approvers.
  build(6, 2);
  bool agreed = false;
  circles_[0]->callbacks().on_agreed = [&](const AgreedMsg&, bool is_center) {
    if (is_center) agreed = true;
  };
  // Crash node 3 a moment after the round starts (before acks settle).
  world_->sched().schedule_at(5.001, [this] { world_->node(3).set_down(true); });
  circles_[0]->initiate(Value{1});
  world_->run_until(7.0);
  EXPECT_TRUE(agreed);
}

TEST_F(ChurnTest, CenterCrashMidRoundLeavesNoPhantomAgreement) {
  build(6, 2);
  int deliveries = 0;
  for (auto& circle : circles_) {
    circle->callbacks().on_agreed = [&](const AgreedMsg&, bool) { ++deliveries; };
  }
  circles_[0]->initiate(Value{2});
  // Kill the center immediately: participants may ack into the void, but no
  // agreed message can ever appear (combination happens at the center).
  world_->node(0).set_down(true);
  world_->run_until(8.0);
  EXPECT_EQ(deliveries, 0);
}

TEST_F(ChurnTest, RecurringRoundsSurviveRollingCrashes) {
  build(7, 2);
  int completed = 0;
  circles_[0]->callbacks().on_agreed = [&](const AgreedMsg&, bool is_center) {
    if (is_center) ++completed;
  };
  // One node crashes every 2 s (nodes 4, 5, 6) while node 0 keeps voting.
  for (int k = 0; k < 3; ++k) {
    world_->sched().schedule_at(6.0 + 2.0 * k, [this, k] {
      world_->node(static_cast<sim::NodeId>(4 + k)).set_down(true);
    });
  }
  for (int r = 0; r < 6; ++r) {
    world_->sched().schedule_at(5.5 + 1.5 * r, [this, r] {
      circles_[0]->initiate(Value{static_cast<std::uint8_t>(r)});
    });
  }
  world_->run_until(16.0);
  // Circle shrinks 6 -> 3 members; L = 2 remains satisfiable throughout.
  EXPECT_EQ(completed, 6);
}

TEST_F(ChurnTest, InjectedInitiatorCrashMidRoundAbortsOrCompletesNeverHangs) {
  // Same scenario as the hand-rolled crashes above, but driven through the
  // fault subsystem: a declarative NodeFault crashes the *initiator* right
  // after it opens the round and revives it later. The round must either
  // complete before the crash or abort — the run_until below returning at
  // all is the no-hang guarantee (a wedged round would spin timers forever
  // under this test's timeout).
  build(6, 2);
  fault::FaultPlan plan;
  fault::NodeFault crash;
  crash.node = 0;
  crash.down = fault::Schedule::window(5.001, 8.0);
  plan.node.push_back(crash);
  fault::InjectionEngine engine{*world_, plan};

  int agreements = 0;
  for (auto& circle : circles_) {
    circle->callbacks().on_agreed = [&](const AgreedMsg&, bool) { ++agreements; };
  }
  circles_[0]->initiate(Value{7});
  world_->run_until(12.0);
  // The center died 1 ms into the round: combination happens at the center,
  // so nobody can have delivered an agreement for it.
  EXPECT_EQ(agreements, 0);
  EXPECT_FALSE(world_->node(0).down());  // the schedule also revived it

  // After re-authentication the revived node initiates successfully.
  world_->run_until(14.0);
  bool agreed = false;
  circles_[0]->callbacks().on_agreed = [&](const AgreedMsg&, bool is_center) {
    if (is_center) agreed = true;
  };
  circles_[0]->initiate(Value{8});
  world_->run_until(17.0);
  EXPECT_TRUE(agreed);

  // The crash went through the ledger: one node-fault injection, books
  // balanced.
  const fault::CoverageLedger ledger{*world_};
  EXPECT_EQ(ledger.row(fault::FaultClass::kNode).injected, 1u);
  EXPECT_TRUE(ledger.consistent());
}

TEST_F(ChurnTest, MobilityExperimentCompletesWithHighChurn) {
  // Full experiment driver at 4x the paper's speed: routes break constantly;
  // the framework must neither crash nor deadlock, and the guarded network
  // still beats the attacked baseline.
  aodv::BlackholeExperimentConfig config;
  config.sim_time = 60.0;
  config.max_speed = 40.0;
  config.seed = 114;
  config.num_malicious = 3;
  const auto attacked = aodv::run_blackhole_experiment(config);
  config.inner_circle = true;
  const auto guarded = aodv::run_blackhole_experiment(config);
  EXPECT_GT(guarded.throughput, attacked.throughput);
}

TEST_F(ChurnTest, RejoiningNodeReauthenticates) {
  build(4, 1);
  ASSERT_TRUE(circles_[0]->sts().is_neighbor(1));
  // Node 1 goes dark long enough for its links (and sessions' freshness) to
  // expire, then returns: STS must re-admit it without manual intervention.
  world_->node(1).set_down(true);
  world_->run_until(9.0);
  EXPECT_FALSE(circles_[0]->sts().is_neighbor(1));
  world_->node(1).set_down(false);
  world_->run_until(13.0);
  EXPECT_TRUE(circles_[0]->sts().is_neighbor(1));
  // And it participates in rounds again.
  bool agreed = false;
  circles_[1]->callbacks().on_agreed = [&](const AgreedMsg&, bool is_center) {
    if (is_center) agreed = true;
  };
  circles_[1]->initiate(Value{3});
  world_->run_until(15.0);
  EXPECT_TRUE(agreed);
}

}  // namespace
}  // namespace icc::core
