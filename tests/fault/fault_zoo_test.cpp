// Adversary-zoo tests: the attack-kind registry (classification, name
// round-trip, which kinds book per-kind ledger counters), FaultPlan
// validation (including the abort-on-invalid-plan contract of the
// InjectionEngine), the budgeted adversarial-noise injector, and the
// wormhole tunnel with its geographic-leash countermeasure.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>

#include "fault/injector.hpp"
#include "fault/ledger.hpp"
#include "fault/plan.hpp"
#include "sim/world.hpp"

namespace icc::fault {
namespace {

// ------------------------------------------------------- attack-kind registry

TEST(AttackKindTest, HelpersClassifyIntoTheRegistry) {
  EXPECT_EQ(black_hole(0).kind(), AttackKind::kBlackHole);
  EXPECT_EQ(gray_hole(0, 6.0, 54.0).kind(), AttackKind::kGrayHole);
  const auto [attract, drop] = coop_blackhole_pair(0, 1);
  EXPECT_EQ(attract.kind(), AttackKind::kCoopBlackhole);
  EXPECT_EQ(rrep_forge_seq(0).kind(), AttackKind::kRrepForgeSeq);
  EXPECT_EQ(rrep_forge_next_hop(0).kind(), AttackKind::kRrepForgeNextHop);
  EXPECT_EQ(rushed_rrep(0).kind(), AttackKind::kRushedRrep);

  ProtocolFault selective;
  selective.node = 0;
  selective.drop_prob = 0.5;
  EXPECT_EQ(selective.kind(), AttackKind::kSelectiveForward);
}

TEST(AttackKindTest, NamesRoundTripThroughStrictParse) {
  for (std::size_t k = 0; k < kNumAttackKinds; ++k) {
    const auto kind = static_cast<AttackKind>(k);
    const auto parsed = parse_attack_kind(attack_kind_name(kind));
    ASSERT_TRUE(parsed.has_value()) << attack_kind_name(kind);
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(parse_attack_kind("no_such_attack").has_value());
  EXPECT_FALSE(parse_attack_kind("").has_value());
}

TEST(AttackKindTest, OnlyZooKindsBookPerKindCounters) {
  // The paper-era attackers predate the per-kind counters; booking them
  // would change the metric registry of frozen default-seed runs.
  EXPECT_FALSE(attack_kind_booked(AttackKind::kBlackHole));
  EXPECT_FALSE(attack_kind_booked(AttackKind::kGrayHole));
  EXPECT_FALSE(attack_kind_booked(AttackKind::kSelectiveForward));
  EXPECT_FALSE(attack_kind_booked(AttackKind::kDataDelay));
  EXPECT_FALSE(attack_kind_booked(AttackKind::kRrepReplay));
  EXPECT_FALSE(attack_kind_booked(AttackKind::kRreqFlood));
  EXPECT_TRUE(attack_kind_booked(AttackKind::kCoopBlackhole));
  EXPECT_TRUE(attack_kind_booked(AttackKind::kRrepForgeSeq));
  EXPECT_TRUE(attack_kind_booked(AttackKind::kRrepForgeNextHop));
  EXPECT_TRUE(attack_kind_booked(AttackKind::kRushedRrep));
  EXPECT_TRUE(attack_kind_booked(AttackKind::kWormhole));
  EXPECT_TRUE(attack_kind_booked(AttackKind::kNoise));
}

// ----------------------------------------------------------- plan validation

TEST(FaultPlanValidateTest, SoundPlansPassAndBrokenSpecsName) {
  FaultPlan plan;
  plan.protocol.push_back(black_hole(0));
  plan.wormhole.push_back(wormhole(1, 2));
  plan.channel.push_back(adversarial_noise(0.2, 0.25));
  EXPECT_EQ(plan.validate(), "");

  FaultPlan bad_prob;
  ChannelFault loss;
  loss.loss_prob = 1.5;
  bad_prob.channel.push_back(loss);
  EXPECT_NE(bad_prob.validate().find("loss_prob"), std::string::npos);

  FaultPlan self_pair;
  auto [attract, drop] = coop_blackhole_pair(3, 3);
  self_pair.protocol.push_back(attract);
  EXPECT_NE(self_pair.validate().find("distinct"), std::string::npos);

  FaultPlan two_personalities;
  two_personalities.protocol.push_back(black_hole(0));
  two_personalities.protocol.push_back(rushed_rrep(0));
  EXPECT_NE(two_personalities.validate().find("one spec per node"), std::string::npos);

  FaultPlan bad_wormhole;
  bad_wormhole.wormhole.push_back(wormhole(2, 2));
  EXPECT_NE(bad_wormhole.validate().find("distinct"), std::string::npos);
}

sim::WorldConfig small_world_config() {
  sim::WorldConfig config;
  config.width = 2000;
  config.height = 1000;
  config.tx_range = 250.0;
  config.seed = 17;
  return config;
}

TEST(FaultPlanDeathTest, EngineAbortsOnInvalidPlan) {
  EXPECT_DEATH(
      {
        sim::World world{small_world_config()};
        world.add_node(std::make_unique<sim::StaticMobility>(sim::Vec2{0, 0}));
        FaultPlan plan;
        ChannelFault loss;
        loss.loss_prob = 2.0;
        plan.channel.push_back(loss);
        InjectionEngine engine(world, plan);
      },
      "invalid plan.*loss_prob");
}

TEST(FaultPlanDeathTest, EngineAbortsOnWormholeEndpointOutsideWorld) {
  EXPECT_DEATH(
      {
        sim::World world{small_world_config()};
        world.add_node(std::make_unique<sim::StaticMobility>(sim::Vec2{0, 0}));
        world.add_node(std::make_unique<sim::StaticMobility>(sim::Vec2{100, 0}));
        FaultPlan plan;
        plan.wormhole.push_back(wormhole(0, 7));
        InjectionEngine engine(world, plan);
      },
      "wormhole endpoint outside the world");
}

TEST(FaultPlanDeathTest, EngineAbortsOnBackwardsTimers) {
  EXPECT_DEATH(
      {
        sim::World world{small_world_config()};
        world.add_node(std::make_unique<sim::StaticMobility>(sim::Vec2{0, 0}));
        FaultPlan plan;
        NodeFault slow;
        slow.node = 0;
        slow.timer_slow_factor = 0.5;
        plan.node.push_back(slow);
        InjectionEngine engine(world, plan);
      },
      "timers cannot run backwards");
}

// -------------------------------------------------------- adversarial noise

struct ZooPayload final : sim::PayloadBase<ZooPayload> {
  static constexpr const char* kTag = "zoo";
};

sim::Packet data_packet(sim::NodeId src, sim::NodeId dst) {
  sim::Packet p;
  p.src = src;
  p.dst = dst;
  p.port = sim::Port::kCbr;
  p.size_bytes = 64;
  p.body = std::make_shared<ZooPayload>();
  return p;
}

class NoiseTest : public ::testing::Test {
 protected:
  sim::World& build() {
    world_ = std::make_unique<sim::World>(small_world_config());
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

TEST_F(NoiseTest, CorruptionStaysWithinTheBudget) {
  sim::World& world = build();
  FaultPlan plan;
  plan.channel.push_back(adversarial_noise(/*rate=*/1.0, /*budget=*/0.25));
  InjectionEngine engine(world, plan);

  for (int i = 0; i < 30; ++i) {
    world.sched().schedule_at(0.05 * i,
                              [&world] { world.node(0).send(data_packet(0, 1), 1); });
  }
  world.run_until(5.0);

  const double seen = world.metrics().counter_value("fault.noise.frames_seen");
  const double corrupted = world.metrics().counter_value("fault.noise.corrupted");
  ASSERT_GT(seen, 0.0);
  // The jammer wants to corrupt everything (rate 1.0) but the budget caps
  // it at a quarter of the frames it observed — the Hoza–Schulman fraction.
  EXPECT_GT(corrupted, 0.0);
  EXPECT_LE(corrupted, 0.25 * seen);
  EXPECT_EQ(corrupted, world.metrics().counter_value("fault.kind.noise"));
  // Most traffic survives a quarter-budget jammer.
  EXPECT_GT(received_, 0);

  // Every corruption is a CRC-witnessed detection in the ledger.
  const CoverageLedger ledger{world};
  const CoverageRow row = ledger.row(FaultClass::kChannel);
  EXPECT_EQ(row.detected, row.injected);
  EXPECT_EQ(row.escaped, 0u);
  EXPECT_TRUE(ledger.consistent());
}

TEST_F(NoiseTest, NonPositiveBudgetMeansUnbounded) {
  sim::World& world = build();
  FaultPlan plan;
  plan.channel.push_back(adversarial_noise(/*rate=*/1.0, /*budget=*/0.0));
  InjectionEngine engine(world, plan);

  for (int i = 0; i < 10; ++i) {
    world.sched().schedule_at(0.05 * i,
                              [&world] { world.node(0).send(data_packet(0, 1), 1); });
  }
  world.run_until(3.0);

  // An unbudgeted rate-1.0 jammer corrupts every frame it sees: nothing is
  // delivered and the corrupted count tracks the seen count exactly.
  EXPECT_EQ(received_, 0);
  EXPECT_EQ(world.metrics().counter_value("fault.noise.corrupted"),
            world.metrics().counter_value("fault.noise.frames_seen"));
  EXPECT_TRUE(CoverageLedger{world}.consistent());
}

// ------------------------------------------------------------------ wormhole

/// Sender S -- mouth A ....... mouth B -- victim V, with the gap between
/// the mouths far beyond radio range: V can only hear S through the tunnel.
class WormholeTest : public ::testing::Test {
 protected:
  static constexpr sim::NodeId kSender = 0;
  static constexpr sim::NodeId kMouthA = 1;
  static constexpr sim::NodeId kMouthB = 2;
  static constexpr sim::NodeId kVictim = 3;

  sim::World& build() {
    world_ = std::make_unique<sim::World>(small_world_config());
    const sim::Vec2 positions[] = {{0, 0}, {150, 0}, {1000, 0}, {1150, 0}};
    for (const sim::Vec2 pos : positions) {
      sim::Node& node = world_->add_node(std::make_unique<sim::StaticMobility>(pos));
      node.register_handler(sim::Port::kCbr,
                            [this](const sim::Packet&, sim::NodeId) { ++received_; });
    }
    return *world_;
  }

  std::unique_ptr<sim::World> world_;
  int received_{0};
};

TEST_F(WormholeTest, TunnelCarriesFramesAcrossTheGap) {
  sim::World& world = build();
  FaultPlan plan;
  plan.wormhole.push_back(wormhole(kMouthA, kMouthB));
  InjectionEngine engine(world, plan);

  world.node(kSender).send(data_packet(kSender, kVictim), kVictim);
  world.run_until(2.0);

  // The victim is 1150 m from the sender (range 250) yet the frame arrives:
  // mouth A overheard it and mouth B replayed it into the victim's radio.
  EXPECT_GE(received_, 1);
  EXPECT_GT(world.metrics().counter_value("fault.wormhole.tunneled"), 0.0);
  EXPECT_EQ(world.metrics().counter_value("fault.wormhole.tunneled"),
            world.metrics().counter_value("fault.kind.wormhole"));

  // Undefended, every tunneled frame escapes — and the ledger says so
  // consistently rather than pretending coverage.
  const CoverageLedger ledger{world};
  const CoverageRow row = ledger.row(FaultClass::kProtocol);
  EXPECT_GT(row.injected, 0u);
  EXPECT_EQ(row.escaped, row.injected);
  EXPECT_TRUE(ledger.consistent());
}

TEST_F(WormholeTest, GeoLeashRejectsAndDetectsEveryTunneledFrame) {
  sim::World& world = build();
  FaultPlan plan;
  plan.wormhole.push_back(wormhole(kMouthA, kMouthB));
  InjectionEngine engine{world, plan, InjectionOptions{/*geo_leash=*/true}};

  world.node(kSender).send(data_packet(kSender, kVictim), kVictim);
  world.run_until(2.0);

  // The replayed frame claims a transmitter 1150 m away; the leash knows
  // nothing that far can be audible and rejects the reception outright.
  EXPECT_EQ(received_, 0);
  EXPECT_GT(world.metrics().counter_value("fault.wormhole.leash_rejected"), 0.0);
  const CoverageLedger ledger{world};
  const CoverageRow row = ledger.row(FaultClass::kProtocol);
  EXPECT_GT(row.injected, 0u);
  EXPECT_EQ(row.detected, row.injected);
  EXPECT_EQ(row.escaped, 0u);
  EXPECT_TRUE(ledger.consistent());
}

TEST_F(WormholeTest, ControlOnlyTunnelIgnoresDataTraffic) {
  sim::World& world = build();
  FaultPlan plan;
  WormholeFault rushing = wormhole(kMouthA, kMouthB);
  rushing.control_only = true;  // the rushing attack tunnels discovery only
  plan.wormhole.push_back(rushing);
  InjectionEngine engine(world, plan);

  world.node(kSender).send(data_packet(kSender, kVictim), kVictim);
  world.run_until(2.0);

  EXPECT_EQ(received_, 0);
  EXPECT_EQ(world.metrics().counter_value("fault.wormhole.tunneled"), 0.0);
  EXPECT_TRUE(CoverageLedger{world}.consistent());
}

TEST_F(WormholeTest, TunnelIsDeterministicAcrossRuns) {
  // Wormholes draw no randomness; two identical runs must agree on every
  // counter, not just approximately.
  const auto run = [] {
    sim::World world{small_world_config()};
    const sim::Vec2 positions[] = {{0, 0}, {150, 0}, {1000, 0}, {1150, 0}};
    int received = 0;
    for (const sim::Vec2 pos : positions) {
      sim::Node& node = world.add_node(std::make_unique<sim::StaticMobility>(pos));
      node.register_handler(sim::Port::kCbr,
                            [&received](const sim::Packet&, sim::NodeId) { ++received; });
    }
    FaultPlan plan;
    plan.wormhole.push_back(wormhole(kMouthA, kMouthB));
    InjectionEngine engine(world, plan);
    for (int i = 0; i < 5; ++i) {
      world.sched().schedule_at(0.2 * i, [&world] {
        world.node(kSender).send(data_packet(kSender, kVictim), kVictim);
      });
    }
    world.run_until(3.0);
    const CoverageRow row = CoverageLedger{world}.row(FaultClass::kProtocol);
    return std::tuple<int, double, std::uint64_t>{
        received, world.metrics().counter_value("fault.wormhole.tunneled"), row.injected};
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a, b);
  EXPECT_GT(std::get<0>(a), 0);
}

}  // namespace
}  // namespace icc::fault
