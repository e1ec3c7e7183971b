// Tests for the radio medium and the simplified 802.11 MAC: delivery within
// range, collisions, carrier sensing, acks/retransmissions, half-duplex
// behaviour, and energy accounting.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/world.hpp"

namespace icc::sim {
namespace {

struct TestPayload final : PayloadBase<TestPayload> {
  static constexpr const char* kTag = "test";
  int value{0};
};

Packet make_packet(NodeId src, NodeId dst, int value, std::uint32_t bytes = 100) {
  Packet p;
  p.src = src;
  p.dst = dst;
  p.port = Port::kCbr;
  p.size_bytes = bytes;
  auto body = std::make_shared<TestPayload>();
  body->value = value;
  p.body = std::move(body);
  return p;
}

class MacMediumTest : public ::testing::Test {
 protected:
  World& build(std::vector<Vec2> positions, double range = 250.0) {
    WorldConfig config;
    config.width = 1000;
    config.height = 1000;
    config.tx_range = range;
    config.seed = 5;
    world_ = std::make_unique<World>(config);
    for (const Vec2 pos : positions) {
      Node& node = world_->add_node(std::make_unique<StaticMobility>(pos));
      node.register_handler(Port::kCbr, [this, id = node.id()](const Packet& p, NodeId from) {
        received_.push_back({id, from, p.body_as<TestPayload>()->value});
      });
    }
    return *world_;
  }

  struct Rx {
    NodeId at;
    NodeId from;
    int value;
  };

  std::unique_ptr<World> world_;
  std::vector<Rx> received_;
};

TEST_F(MacMediumTest, BroadcastReachesAllInRange) {
  World& world = build({{0, 0}, {100, 0}, {200, 0}, {600, 0}});
  world.node(0).send(make_packet(0, kBroadcast, 7), kBroadcast);
  world.run_until(1.0);
  ASSERT_EQ(received_.size(), 2u);  // nodes 1 and 2; node 3 out of range
  for (const Rx& rx : received_) {
    EXPECT_EQ(rx.from, 0u);
    EXPECT_EQ(rx.value, 7);
  }
}

TEST_F(MacMediumTest, UnicastOnlyDeliversToTarget) {
  World& world = build({{0, 0}, {100, 0}, {200, 0}});
  world.node(0).send(make_packet(0, 1, 9), 1);
  world.run_until(1.0);
  ASSERT_EQ(received_.size(), 1u);
  EXPECT_EQ(received_[0].at, 1u);
}

TEST_F(MacMediumTest, OutOfRangeNotDelivered) {
  World& world = build({{0, 0}, {900, 0}});
  world.node(0).send(make_packet(0, 1, 1), 1);
  world.run_until(2.0);
  EXPECT_TRUE(received_.empty());
  EXPECT_GE(world.node(0).mac().unicast_failures(), 1u);
}

TEST_F(MacMediumTest, UnicastRetransmitsUntilAcked) {
  World& world = build({{0, 0}, {100, 0}});
  world.node(0).send(make_packet(0, 1, 5), 1);
  world.run_until(1.0);
  ASSERT_EQ(received_.size(), 1u);
  EXPECT_EQ(world.node(0).mac().unicast_failures(), 0u);
  // Exactly one data frame + one ack should be on the air in the clean case.
  EXPECT_EQ(world.medium().frames_sent(), 2u);
}

TEST_F(MacMediumTest, ManyConcurrentSendersAllDeliverEventually) {
  // 10 nodes around a receiver all transmit at once: CSMA + backoff +
  // retransmission must deliver all of them despite collisions.
  std::vector<Vec2> positions{{500, 500}};
  for (int i = 0; i < 10; ++i) {
    positions.push_back(Vec2{500.0 + 20.0 * (i + 1), 500.0});
  }
  World& world = build(positions);
  for (NodeId i = 1; i <= 10; ++i) {
    world.node(i).send(make_packet(i, 0, static_cast<int>(i)), 0);
  }
  world.run_until(5.0);
  EXPECT_EQ(received_.size(), 10u);
}

TEST_F(MacMediumTest, HiddenTerminalsCollide) {
  // Nodes 0 and 2 cannot hear each other (range 250, distance 400) but both
  // reach node 1: simultaneous broadcasts must collide at node 1.
  World& world = build({{0, 0}, {200, 0}, {400, 0}}, 250.0);
  // Make carrier sensing useless for this geometry by using broadcast (no
  // retry) and identical start times.
  world.node(0).send(make_packet(0, kBroadcast, 1, 1000), kBroadcast);
  world.node(2).send(make_packet(2, kBroadcast, 2, 1000), kBroadcast);
  world.run_until(1.0);
  // With the default cs_range factor 2.2 the nodes *can* carrier-sense each
  // other (550 m) — rebuild with factor 1.0 to force the hidden terminal.
  WorldConfig config;
  config.tx_range = 250.0;
  config.cs_range_factor = 1.0;
  config.seed = 6;
  World isolated{config};
  std::vector<int> got;
  for (const Vec2 pos : {Vec2{0, 0}, Vec2{200, 0}, Vec2{400, 0}}) {
    Node& node = isolated.add_node(std::make_unique<StaticMobility>(pos));
    node.register_handler(Port::kCbr, [&got](const Packet& p, NodeId) {
      got.push_back(p.body_as<TestPayload>()->value);
    });
  }
  isolated.node(0).send(make_packet(0, kBroadcast, 1, 1000), kBroadcast);
  isolated.node(2).send(make_packet(2, kBroadcast, 2, 1000), kBroadcast);
  isolated.run_until(1.0);
  // Node 1 sits between two colliding hidden terminals: it decodes neither.
  EXPECT_TRUE(got.empty());
  EXPECT_GT(isolated.medium().collisions(), 0u);
}

TEST_F(MacMediumTest, DownNodeNeitherSendsNorReceives) {
  World& world = build({{0, 0}, {100, 0}});
  world.node(1).set_down(true);
  world.node(0).send(make_packet(0, kBroadcast, 3), kBroadcast);
  world.run_until(1.0);
  EXPECT_TRUE(received_.empty());
  world.node(1).set_down(false);
  world.node(1).set_down(true);
  world.node(1).send(make_packet(1, 0, 4), 0);
  world.run_until(2.0);
  EXPECT_TRUE(received_.empty());
}

TEST_F(MacMediumTest, DownNodeSendBurnsNoUidAndCountsNothing) {
  World& world = build({{0, 0}, {100, 0}});
  Node& node = world.node(0);
  // A dropping outbound filter would count node.outbound_dropped if it ran.
  node.transport().add_outbound_filter([](const Packet&, NodeId) {
    return net::FilterVerdict::kDrop;
  });
  node.set_down(true);
  std::vector<std::pair<std::string, double>> before;
  world.metrics().for_each_counter(
      [&before](const std::string& name, double v) { before.emplace_back(name, v); });
  const std::uint64_t uid_before = world.next_packet_uid();
  node.transport().send(make_packet(0, 1, 1), 1);
  node.transport().send_unfiltered(make_packet(0, 1, 2), 1);
  node.transport().send(make_packet(0, kBroadcast, 3), kBroadcast);
  // A down node returns before stamping: the uid stream did not advance.
  EXPECT_EQ(world.next_packet_uid(), uid_before + 1);
  std::vector<std::pair<std::string, double>> after;
  world.metrics().for_each_counter(
      [&after](const std::string& name, double v) { after.emplace_back(name, v); });
  EXPECT_EQ(after, before);
  world.run_until(1.0);
  EXPECT_TRUE(received_.empty());
  EXPECT_EQ(world.medium().frames_sent(), 0u);
}

TEST_F(MacMediumTest, ExhaustedRetriesReachSendFailedHandlerOnce) {
  World& world = build({{0, 0}, {900, 0}});  // node 1 out of range: no ack
  struct Failure {
    int value;
    NodeId next_hop;
  };
  std::vector<Failure> failures;
  world.node(0).transport().set_send_failed_handler(
      [&failures](const Packet& p, NodeId next_hop) {
        failures.push_back({p.body_as<TestPayload>()->value, next_hop});
      });
  world.node(0).transport().send(make_packet(0, 1, 42), 1);
  world.run_until(2.0);
  EXPECT_EQ(world.node(0).mac().unicast_failures(), 1u);
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_EQ(failures[0].value, 42);
  EXPECT_EQ(failures[0].next_hop, 1u);
}

TEST_F(MacMediumTest, TransmissionChargesEnergy) {
  World& world = build({{0, 0}, {100, 0}});
  world.node(0).send(make_packet(0, kBroadcast, 1), kBroadcast);
  world.run_until(1.0);
  EXPECT_GT(world.node(0).energy().tx_time(), 0.0);
  EXPECT_GT(world.node(1).energy().rx_time(), 0.0);
  EXPECT_DOUBLE_EQ(world.node(1).energy().tx_time(), 0.0);
}

TEST_F(MacMediumTest, AirtimeMatchesSizeAndBitrate) {
  World& world = build({{0, 0}, {100, 0}});
  const Mac& mac = world.node(0).mac();
  const MacParams params;  // defaults
  const double airtime = mac.frame_airtime(512);
  EXPECT_NEAR(airtime, params.preamble + (512.0 + params.header_bytes) * 8.0 / params.bitrate,
              1e-12);
}

TEST_F(MacMediumTest, QueueDrainsInOrder) {
  World& world = build({{0, 0}, {100, 0}});
  for (int i = 0; i < 5; ++i) {
    world.node(0).send(make_packet(0, 1, i), 1);
  }
  world.run_until(2.0);
  ASSERT_EQ(received_.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(received_[static_cast<std::size_t>(i)].value, i);
}

TEST_F(MacMediumTest, InboundFilterDropSuppressesDelivery) {
  World& world = build({{0, 0}, {100, 0}});
  world.node(1).add_inbound_filter([](const Packet&, NodeId) {
    return net::FilterVerdict::kDrop;
  });
  world.node(0).send(make_packet(0, 1, 1), 1);
  world.run_until(1.0);
  EXPECT_TRUE(received_.empty());
}

TEST_F(MacMediumTest, OutboundFilterConsumeStopsTransmission) {
  World& world = build({{0, 0}, {100, 0}});
  int consumed = 0;
  world.node(0).add_outbound_filter([&consumed](const Packet&, NodeId) {
    ++consumed;
    return net::FilterVerdict::kConsumed;
  });
  world.node(0).send(make_packet(0, 1, 1), 1);
  world.run_until(1.0);
  EXPECT_EQ(consumed, 1);
  EXPECT_TRUE(received_.empty());
  EXPECT_EQ(world.medium().frames_sent(), 0u);
}

TEST_F(MacMediumTest, UnfilteredSendBypassesOutboundFilters) {
  World& world = build({{0, 0}, {100, 0}});
  world.node(0).add_outbound_filter([](const Packet&, NodeId) {
    return net::FilterVerdict::kDrop;
  });
  world.node(0).send_unfiltered(make_packet(0, 1, 1), 1);
  world.run_until(1.0);
  EXPECT_EQ(received_.size(), 1u);
}

TEST_F(MacMediumTest, TrueNeighborsMatchesGeometry) {
  World& world = build({{0, 0}, {100, 0}, {240, 0}, {600, 0}});
  const auto neighbors = world.true_neighbors(0);
  EXPECT_EQ(neighbors, (std::vector<NodeId>{1, 2}));
}

}  // namespace
}  // namespace icc::sim
