// Flat AODV tables (aodv/tables.hpp): the RREQ duplicate cache's set
// semantics across regrowth, clear and the edge keys, the route table's
// ascending-NodeId iteration against a std::map reference, and the RERR
// payload order that iteration feeds on a link failure.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <vector>

#include "aodv/aodv.hpp"
#include "aodv/tables.hpp"
#include "sim/world.hpp"

namespace icc::aodv {
namespace {

// ----------------------------------------------------------- RreqSeenSet

TEST(RreqSeenSetTest, RejectsDuplicates) {
  RreqSeenSet seen;
  EXPECT_TRUE(seen.insert(1, 1));
  EXPECT_FALSE(seen.insert(1, 1));
  EXPECT_TRUE(seen.insert(1, 2));
  EXPECT_TRUE(seen.insert(2, 1));
  EXPECT_FALSE(seen.insert(2, 1));
  EXPECT_EQ(seen.size(), 3u);
}

TEST(RreqSeenSetTest, ClearReadmitsAndKeepsCapacity) {
  RreqSeenSet seen;
  for (std::uint32_t id = 0; id < 100; ++id) ASSERT_TRUE(seen.insert(7, id));
  const std::size_t capacity = seen.capacity();
  seen.clear();
  EXPECT_EQ(seen.size(), 0u);
  EXPECT_EQ(seen.capacity(), capacity);
  for (std::uint32_t id = 0; id < 100; ++id) EXPECT_TRUE(seen.insert(7, id));
  for (std::uint32_t id = 0; id < 100; ++id) EXPECT_FALSE(seen.insert(7, id));
  EXPECT_EQ(seen.capacity(), capacity);
}

TEST(RreqSeenSetTest, TenThousandKeysSurviveRegrowth) {
  RreqSeenSet seen;
  // Originators and ids both vary, and many keys share an originator, the
  // way a flood's keys do.
  const auto key = [](std::uint32_t i) {
    return std::pair<sim::NodeId, std::uint32_t>{i % 97, i / 97 * 3 + 1};
  };
  int regrowths = 0;
  std::size_t capacity = seen.capacity();
  for (std::uint32_t i = 0; i < 10'000; ++i) {
    ASSERT_TRUE(seen.insert(key(i).first, key(i).second)) << i;
    if (seen.capacity() != capacity) {
      ++regrowths;
      capacity = seen.capacity();
    }
  }
  EXPECT_GE(regrowths, 5);
  EXPECT_EQ(seen.size(), 10'000u);
  for (std::uint32_t i = 0; i < 10'000; ++i) {
    EXPECT_FALSE(seen.insert(key(i).first, key(i).second)) << i;
  }
  EXPECT_TRUE(seen.insert(97, 1));  // a fresh originator is still admitted
  EXPECT_EQ(seen.size(), 10'001u);
}

TEST(RreqSeenSetTest, EdgeKeysIncludingTheEmptySlotMarker) {
  RreqSeenSet seen;
  const std::pair<sim::NodeId, std::uint32_t> edges[] = {
      {0, 0}, {0xFFFFFFFFu, 0xFFFFFFFFu}, {0xFFFFFFFFu, 0}, {0, 0xFFFFFFFFu}};
  for (const auto& [orig, id] : edges) EXPECT_TRUE(seen.insert(orig, id));
  for (const auto& [orig, id] : edges) EXPECT_FALSE(seen.insert(orig, id));
  EXPECT_EQ(seen.size(), 4u);
  seen.clear();
  EXPECT_EQ(seen.size(), 0u);
  for (const auto& [orig, id] : edges) EXPECT_TRUE(seen.insert(orig, id));
}

// ------------------------------------------------------------ RouteTable

TEST(RouteTableTest, IteratesAscendingAfterDescendingInserts) {
  RouteTable table;
  for (sim::NodeId d = 50; d >= 1; --d) table[d].hop_count = d * 10;
  ASSERT_EQ(table.size(), 50u);
  sim::NodeId expect = 1;
  for (const auto& [dest, entry] : table) {
    EXPECT_EQ(dest, expect);
    EXPECT_EQ(entry.hop_count, expect * 10);
    ++expect;
  }
}

TEST(RouteTableTest, MatchesStdMapUnderRandomInserts) {
  RouteTable table;
  std::map<sim::NodeId, RouteEntry> reference;
  std::mt19937 rng{12345};
  std::uniform_int_distribution<sim::NodeId> pick{0, 400};
  for (int step = 0; step < 2000; ++step) {
    const sim::NodeId dest = pick(rng);
    table[dest].dest_seq += 1;
    reference[dest].dest_seq += 1;
  }
  ASSERT_EQ(table.size(), reference.size());
  auto ref = reference.begin();
  for (const auto& [dest, entry] : table) {
    EXPECT_EQ(dest, ref->first);
    EXPECT_EQ(entry.dest_seq, ref->second.dest_seq);
    ++ref;
  }
}

TEST(RouteTableTest, FindOnAbsentKeyReturnsEnd) {
  RouteTable table;
  EXPECT_EQ(table.find(3), table.end());
  table[5].next_hop = 9;
  table[1].next_hop = 8;
  EXPECT_EQ(table.find(0), table.end());
  EXPECT_EQ(table.find(3), table.end());
  EXPECT_EQ(table.find(6), table.end());
  ASSERT_NE(table.find(5), table.end());
  EXPECT_EQ(table.find(5)->second.next_hop, 9u);
  const RouteTable& view = table;
  EXPECT_EQ(view.find(3), view.end());
  ASSERT_NE(view.find(1), view.end());
  EXPECT_EQ(view.find(1)->second.next_hop, 8u);
}

// ------------------------------------------------- RERR order on the wire

/// Exposes update_route and the link-failure hook; records every RERR heard.
class ProbeAodv : public Aodv {
 public:
  using Aodv::Aodv;
  using Aodv::on_link_failure;
  using Aodv::update_route;

  std::vector<RerrMsg> rerrs_heard;

 protected:
  void handle_rerr(const RerrMsg& rerr, sim::NodeId from) override {
    rerrs_heard.push_back(rerr);
    Aodv::handle_rerr(rerr, from);
  }
};

TEST(RouteTableTest, LinkFailureRerrListsDestinationsAscending) {
  sim::WorldConfig config;
  config.width = 1000;
  config.height = 1000;
  config.tx_range = 250;
  config.seed = 41;
  sim::World world{config};
  std::vector<std::unique_ptr<ProbeAodv>> agents;
  for (const sim::Vec2 pos : {sim::Vec2{0, 0}, sim::Vec2{200, 0}, sim::Vec2{0, 200}}) {
    sim::Node& node = world.add_node(std::make_unique<sim::StaticMobility>(pos));
    agents.push_back(std::make_unique<ProbeAodv>(node, Aodv::Params{}));
  }
  // Routes via node 1 land in the table out of order; one route via node 2
  // sits between them and must stay out of the RERR.
  for (const sim::NodeId dest : {40u, 7u, 93u, 12u, 65u, 8u}) {
    agents[0]->update_route(dest, 1, 3, dest * 2, true);
  }
  agents[0]->update_route(50, 2, 2, 5, true);

  sim::Packet failed;
  failed.src = 0;
  failed.dst = 40;
  failed.port = sim::Port::kCbr;
  failed.body = std::make_shared<DataMsg>();
  agents[0]->on_link_failure(failed, 1);
  world.run_until(1.0);

  ASSERT_FALSE(agents[2]->rerrs_heard.empty());
  const RerrMsg& rerr = agents[2]->rerrs_heard.front();
  const std::vector<std::pair<sim::NodeId, std::uint32_t>> expected = {
      {7, 15}, {8, 17}, {12, 25}, {40, 81}, {65, 131}, {93, 187}};
  EXPECT_EQ(rerr.unreachable, expected);
  EXPECT_FALSE(agents[0]->has_route(40));
  EXPECT_TRUE(agents[0]->has_route(50));
}

}  // namespace
}  // namespace icc::aodv
