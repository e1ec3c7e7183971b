// Tests for the fault-injection subsystem: Schedule time-window math,
// randomized plan determinism, the neutralization-coverage ledger's capping
// and accounting invariants, and the InjectionEngine's channel and node
// injectors over a real world.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "fault/injector.hpp"
#include "fault/ledger.hpp"
#include "fault/plan.hpp"
#include "fault/schedule.hpp"
#include "sim/world.hpp"

namespace icc::fault {
namespace {

// ----------------------------------------------------------------- Schedule

TEST(ScheduleTest, AlwaysAndNever) {
  const Schedule a = Schedule::always();
  const Schedule n = Schedule::never();
  for (const double t : {0.0, 1.5, 1e6}) {
    EXPECT_TRUE(a.active_at(t));
    EXPECT_FALSE(n.active_at(t));
  }
  EXPECT_TRUE(std::isinf(a.next_transition(3.0)));
  EXPECT_TRUE(std::isinf(n.next_transition(3.0)));
}

TEST(ScheduleTest, PeriodicMatchesLegacyDutyCycleMath) {
  // The old BlackholeAodv computed fmod(now, on + off) < on; the Schedule
  // must reproduce it exactly at phase 0.
  const double on = 6.0;
  const double off = 54.0;
  const Schedule s = Schedule::periodic(on, off);
  for (double t = 0.0; t < 200.0; t += 0.37) {
    EXPECT_EQ(s.active_at(t), std::fmod(t, on + off) < on) << "t=" << t;
  }
}

TEST(ScheduleTest, NonPositiveOnPeriodMeansAlways) {
  // Legacy convention: on_period 0 == plain black hole.
  const Schedule s = Schedule::periodic(0.0, 30.0);
  EXPECT_EQ(s.kind(), Schedule::Kind::kAlways);
  EXPECT_TRUE(s.active_at(12345.0));
}

TEST(ScheduleTest, PeriodicPhaseShiftsActivation) {
  const Schedule s = Schedule::periodic(1.0, 1.0, /*phase=*/5.0);
  EXPECT_FALSE(s.active_at(4.9));  // before first activation
  EXPECT_TRUE(s.active_at(5.5));
  EXPECT_FALSE(s.active_at(6.5));
  EXPECT_TRUE(s.active_at(7.5));
}

TEST(ScheduleTest, WindowAndAfter) {
  const Schedule w = Schedule::window(2.0, 4.0);
  EXPECT_FALSE(w.active_at(1.99));
  EXPECT_TRUE(w.active_at(2.0));
  EXPECT_TRUE(w.active_at(3.99));
  EXPECT_FALSE(w.active_at(4.0));

  const Schedule a = Schedule::after(7.0);
  EXPECT_FALSE(a.active_at(6.99));
  EXPECT_TRUE(a.active_at(7.0));
  EXPECT_TRUE(a.active_at(1e9));
}

TEST(ScheduleTest, NextTransitionIsStrictlyAfterAndTogglesState) {
  const Schedule cases[] = {
      Schedule::periodic(1.5, 2.5),
      Schedule::periodic(3.0, 1.0, 0.7),
      Schedule::window(2.0, 4.0),
      Schedule::after(5.0),
  };
  for (const Schedule& s : cases) {
    // Walk the transition chain; each step must move strictly forward
    // (regression: fmod rounding used to collapse a boundary query onto
    // itself) and the state sampled mid-segment must alternate.
    std::vector<double> edges{0.0};
    while (edges.size() < 20) {
      const double next = s.next_transition(edges.back());
      if (std::isinf(next)) break;
      ASSERT_GT(next, edges.back());
      edges.push_back(next);
    }
    for (std::size_t i = 0; i + 2 < edges.size(); ++i) {
      EXPECT_NE(s.active_at((edges[i] + edges[i + 1]) / 2),
                s.active_at((edges[i + 1] + edges[i + 2]) / 2))
          << "segment after t=" << edges[i];
    }
  }
}

TEST(ScheduleTest, NextTransitionBeforePhaseIsPhase) {
  EXPECT_DOUBLE_EQ(Schedule::periodic(1.0, 1.0, 10.0).next_transition(3.0), 10.0);
  EXPECT_DOUBLE_EQ(Schedule::window(10.0, 12.0).next_transition(3.0), 10.0);
}

TEST(ScheduleTest, WindowEndsAreExhaustedTransitions) {
  const Schedule w = Schedule::window(2.0, 4.0);
  EXPECT_DOUBLE_EQ(w.next_transition(2.5), 4.0);
  EXPECT_TRUE(std::isinf(w.next_transition(4.0)));
  EXPECT_TRUE(std::isinf(Schedule::after(5.0).next_transition(6.0)));
}

// ---------------------------------------------------------------- FaultPlan

TEST(FaultPlanTest, HelpersEncodeThePaperAttackers) {
  const ProtocolFault bh = black_hole(3);
  EXPECT_EQ(bh.node, 3u);
  EXPECT_GT(bh.seq_inflation, 0u);
  EXPECT_DOUBLE_EQ(bh.drop_prob, 1.0);
  EXPECT_EQ(bh.when.kind(), Schedule::Kind::kAlways);

  const FaultPlan gray = gray_hole_plan(2, 6.0, 54.0);
  ASSERT_EQ(gray.protocol.size(), 2u);
  EXPECT_EQ(gray.protocol[0].node, 0u);
  EXPECT_EQ(gray.protocol[1].node, 1u);
  EXPECT_EQ(gray.protocol[0].when.kind(), Schedule::Kind::kPeriodic);
  EXPECT_TRUE(gray.protocol[0].when.active_at(3.0));
  EXPECT_FALSE(gray.protocol[0].when.active_at(30.0));
}

TEST(FaultPlanTest, RandomizedIsDeterministicInTheSeed) {
  RandomPlanParams params;
  const FaultPlan a = FaultPlan::randomized(99, params);
  const FaultPlan b = FaultPlan::randomized(99, params);
  EXPECT_EQ(a.summary(), b.summary());
  ASSERT_EQ(a.channel.size(), b.channel.size());
  for (std::size_t i = 0; i < a.channel.size(); ++i) {
    EXPECT_EQ(a.channel[i].tx, b.channel[i].tx);
    EXPECT_EQ(a.channel[i].rx, b.channel[i].rx);
    EXPECT_DOUBLE_EQ(a.channel[i].loss_prob, b.channel[i].loss_prob);
    EXPECT_DOUBLE_EQ(a.channel[i].bitflip_prob, b.channel[i].bitflip_prob);
  }
  ASSERT_EQ(a.node.size(), b.node.size());
  ASSERT_EQ(a.protocol.size(), b.protocol.size());
  ASSERT_EQ(a.sensor.size(), b.sensor.size());
}

TEST(FaultPlanTest, RandomizedSeedsDiffer) {
  // Over a handful of seeds at least two distinct plans must appear (the
  // spaces are large; identical plans across all seeds would mean the seed
  // is ignored).
  RandomPlanParams params;
  const std::string first = FaultPlan::randomized(1, params).summary();
  bool any_different = false;
  for (std::uint64_t seed = 2; seed <= 8; ++seed) {
    if (FaultPlan::randomized(seed, params).summary() != first) any_different = true;
  }
  EXPECT_TRUE(any_different);
}

// ------------------------------------------------------------------- ledger

class LedgerTest : public ::testing::Test {
 protected:
  sim::World& build() {
    sim::WorldConfig config;
    config.seed = 7;
    world_ = std::make_unique<sim::World>(config);
    world_->add_node(std::make_unique<sim::StaticMobility>(sim::Vec2{0, 0}));
    world_->add_node(std::make_unique<sim::StaticMobility>(sim::Vec2{10, 0}));
    return *world_;
  }
  std::unique_ptr<sim::World> world_;
};

TEST_F(LedgerTest, RowsCapDetectedAndNeutralized) {
  sim::World& world = build();
  // 2 injected, 5 detected (symptom-based detectors over-fire), 1 neutralized.
  report_injected(world, FaultClass::kNode, 0);
  report_injected(world, FaultClass::kNode, 1);
  for (int i = 0; i < 5; ++i) report_detected(world, FaultClass::kNode, 0);
  report_neutralized(world, FaultClass::kNode, 1);

  const CoverageLedger ledger{world};
  const CoverageRow row = ledger.row(FaultClass::kNode);
  EXPECT_EQ(row.injected, 2u);
  EXPECT_EQ(row.detected, 2u);     // capped at injected
  EXPECT_EQ(row.neutralized, 1u);  // within detected
  EXPECT_EQ(row.escaped, 0u);
  EXPECT_EQ(row.injected, row.detected + row.escaped);
  EXPECT_TRUE(ledger.consistent());
}

TEST_F(LedgerTest, EscapedCountsUndetectedInjections) {
  sim::World& world = build();
  for (int i = 0; i < 4; ++i) report_injected(world, FaultClass::kChannel, 1);
  report_detected(world, FaultClass::kChannel, 0);
  const CoverageRow row = CoverageLedger{world}.row(FaultClass::kChannel);
  EXPECT_EQ(row.injected, 4u);
  EXPECT_EQ(row.detected, 1u);
  EXPECT_EQ(row.escaped, 3u);
  EXPECT_TRUE(CoverageLedger{world}.consistent());
}

TEST_F(LedgerTest, EmptyWorldIsConsistent) {
  sim::World& world = build();
  const CoverageLedger ledger{world};
  for (std::size_t c = 0; c < kNumFaultClasses; ++c) {
    const CoverageRow row = ledger.row(static_cast<FaultClass>(c));
    EXPECT_EQ(row.injected, 0u);
    EXPECT_EQ(row.escaped, 0u);
  }
  EXPECT_TRUE(ledger.consistent());
}

TEST_F(LedgerTest, ReportsEmitFaultTraceEvents) {
  sim::World& world = build();
  world.tracer().set_mask(1u << static_cast<unsigned>(sim::TraceCategory::kFault));
  auto sink = std::make_unique<sim::CollectingTraceSink>();
  const sim::CollectingTraceSink* events = sink.get();
  world.tracer().add_owned_sink(std::move(sink));
  report_injected(world, FaultClass::kProtocol, 0);
  report_detected(world, FaultClass::kProtocol, 1);
  report_neutralized(world, FaultClass::kProtocol, 1);
  ASSERT_EQ(events->events().size(), 3u);
  EXPECT_EQ(events->events()[0].type, sim::TraceType::kFaultInjected);
  EXPECT_EQ(events->events()[0].node, 0u);
  EXPECT_EQ(events->events()[1].type, sim::TraceType::kFaultDetected);
  EXPECT_EQ(events->events()[2].type, sim::TraceType::kFaultNeutralized);
}

// --------------------------------------------------------- injection engine

struct CountingPayload final : sim::PayloadBase<CountingPayload> {
  static constexpr const char* kTag = "count";
};

sim::Packet data_packet(sim::NodeId src, sim::NodeId dst) {
  sim::Packet p;
  p.src = src;
  p.dst = dst;
  p.port = sim::Port::kCbr;
  p.size_bytes = 64;
  p.body = std::make_shared<CountingPayload>();
  return p;
}

class InjectionEngineTest : public ::testing::Test {
 protected:
  sim::World& build(std::uint64_t seed = 11) {
    sim::WorldConfig config;
    config.width = 1000;
    config.height = 1000;
    config.tx_range = 250.0;
    config.seed = seed;
    world_ = std::make_unique<sim::World>(config);
    for (int i = 0; i < 2; ++i) {
      sim::Node& node = world_->add_node(
          std::make_unique<sim::StaticMobility>(sim::Vec2{100.0 * i, 0}));
      node.register_handler(sim::Port::kCbr,
                            [this](const sim::Packet&, sim::NodeId) { ++received_; });
    }
    return *world_;
  }

  std::unique_ptr<sim::World> world_;
  int received_{0};
};

TEST_F(InjectionEngineTest, CertainLossBlocksDeliveryAndFillsLedger) {
  sim::World& world = build();
  FaultPlan plan;
  ChannelFault loss;
  loss.tx = 0;
  loss.rx = 1;
  loss.loss_prob = 1.0;
  plan.channel.push_back(loss);
  InjectionEngine engine{world, plan};

  world.node(0).send(data_packet(0, 1), 1);
  world.run_until(1.0);

  EXPECT_EQ(received_, 0);
  const CoverageRow row = CoverageLedger{world}.row(FaultClass::kChannel);
  EXPECT_GT(row.injected, 0u);     // initial tx + MAC retries, all lost
  EXPECT_EQ(row.escaped, 0u);      // unicast loss starves the ack machinery
  EXPECT_TRUE(CoverageLedger{world}.consistent());
}

TEST_F(InjectionEngineTest, LossIsDirectional) {
  sim::World& world = build();
  FaultPlan plan;
  ChannelFault loss;
  loss.tx = 1;  // only frames *from* node 1 are lost
  loss.rx = sim::kNoNode;
  loss.loss_prob = 1.0;
  plan.channel.push_back(loss);
  InjectionEngine engine{world, plan};

  world.node(0).send(data_packet(0, 1), 1);
  world.run_until(1.0);
  // The data frame (0 -> 1) is delivered; only node 1's acks die, so the
  // handler fires despite the asymmetric link (possibly more than once, as
  // the unacked sender retries).
  EXPECT_GE(received_, 1);
}

TEST_F(InjectionEngineTest, CorruptionIsDetectedByTheCrcNotDelivered) {
  sim::World& world = build();
  FaultPlan plan;
  ChannelFault flip;
  flip.tx = 0;
  flip.rx = 1;
  flip.bitflip_prob = 1.0;
  plan.channel.push_back(flip);
  InjectionEngine engine{world, plan};

  world.node(0).send(data_packet(0, 1), 1);
  world.run_until(1.0);

  EXPECT_EQ(received_, 0);
  const CoverageRow row = CoverageLedger{world}.row(FaultClass::kChannel);
  EXPECT_GT(row.injected, 0u);
  EXPECT_EQ(row.detected, row.injected);  // every corruption caught at rx
  EXPECT_EQ(row.escaped, 0u);
  EXPECT_TRUE(CoverageLedger{world}.consistent());
}

TEST_F(InjectionEngineTest, SameSeedSameChannelOutcome) {
  // A 50% loss link must drop the same frames for the same world seed.
  const auto run = [](std::uint64_t seed) {
    sim::WorldConfig config;
    config.tx_range = 250.0;
    config.seed = seed;
    sim::World world{config};
    int received = 0;
    for (int i = 0; i < 2; ++i) {
      sim::Node& node =
          world.add_node(std::make_unique<sim::StaticMobility>(sim::Vec2{100.0 * i, 0}));
      node.register_handler(sim::Port::kCbr,
                            [&received](const sim::Packet&, sim::NodeId) { ++received; });
    }
    FaultPlan plan;
    ChannelFault loss;
    loss.loss_prob = 0.5;
    plan.channel.push_back(loss);
    InjectionEngine engine{world, plan};
    for (int i = 0; i < 20; ++i) {
      world.sched().schedule_at(0.05 * i, [&world] {
        world.node(0).send(data_packet(0, 1), 1);
      });
    }
    world.run_until(5.0);
    const CoverageRow row = CoverageLedger{world}.row(FaultClass::kChannel);
    return std::pair<int, std::uint64_t>{received, row.injected};
  };
  const auto a = run(42);
  const auto b = run(42);
  EXPECT_EQ(a, b);
  EXPECT_GT(a.second, 0u);  // some frames lost
  EXPECT_GT(a.first, 0);    // some frames through
}

TEST_F(InjectionEngineTest, CrashWindowTogglesNodeDown) {
  sim::World& world = build();
  FaultPlan plan;
  NodeFault crash;
  crash.node = 1;
  crash.down = Schedule::window(0.5, 1.0);
  plan.node.push_back(crash);
  InjectionEngine engine{world, plan};

  EXPECT_FALSE(world.node(1).down());
  world.run_until(0.75);
  EXPECT_TRUE(world.node(1).down());
  world.run_until(1.5);
  EXPECT_FALSE(world.node(1).down());

  const CoverageRow row = CoverageLedger{world}.row(FaultClass::kNode);
  EXPECT_EQ(row.injected, 1u);
  EXPECT_TRUE(CoverageLedger{world}.consistent());
}

TEST_F(InjectionEngineTest, PeriodicCrashEdgeChainTerminates) {
  // Regression: edge events landing a few ulps before a periodic boundary
  // used to re-schedule themselves onto the same boundary forever.
  sim::World& world = build();
  FaultPlan plan;
  NodeFault churn;
  churn.node = 1;
  churn.down = Schedule::periodic(0.3, 0.7, 0.1);
  plan.node.push_back(churn);
  InjectionEngine engine{world, plan};
  world.run_until(50.0);  // hundreds of toggles; must return promptly
  const CoverageRow row = CoverageLedger{world}.row(FaultClass::kNode);
  EXPECT_GE(row.injected, 49u);  // one down edge per cycle
  EXPECT_TRUE(CoverageLedger{world}.consistent());
}

TEST_F(InjectionEngineTest, TimerSlowFactorDelaysWarpedTags) {
  sim::World& world = build();
  FaultPlan plan;
  NodeFault slow;
  slow.node = 1;
  slow.timer_slow_factor = 4.0;
  slow.slow = Schedule::always();
  plan.node.push_back(slow);
  InjectionEngine engine{world, plan};

  std::vector<double> fired;
  world.sched().schedule_in(1.0, [&fired, &world] { fired.push_back(world.now()); },
                            sim::EventTag::kRouting);
  world.sched().schedule_in(1.0, [&fired, &world] { fired.push_back(world.now()); },
                            sim::EventTag::kMac);
  world.run_until(10.0);
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_DOUBLE_EQ(fired[0], 1.0);  // kMac untouched
  EXPECT_DOUBLE_EQ(fired[1], 4.0);  // kRouting stretched 4x
}

TEST(InjectionEngineLockstepTest, EmptyPlanLeavesRngGenealogyUntouched) {
  // An engine over an empty plan must not fork RNG or perturb the world:
  // two worlds with the same seed, one with and one without the engine,
  // stay in RNG lockstep. This is what lets experiments carry an optional
  // FaultPlan without changing their legacy numbers.
  sim::WorldConfig config;
  config.seed = 11;
  sim::World bare{config};
  sim::World wrapped{config};
  InjectionEngine engine{wrapped, FaultPlan{}};
  sim::Rng bare_fork = bare.fork_rng(0x1234);
  sim::Rng wrapped_fork = wrapped.fork_rng(0x1234);
  for (int i = 0; i < 8; ++i) {
    EXPECT_DOUBLE_EQ(bare_fork.uniform(0.0, 1.0), wrapped_fork.uniform(0.0, 1.0));
  }
}

}  // namespace
}  // namespace icc::fault
