// In-process tests for the deployment-mode plumbing: SteadyClock timer
// behavior and UdpHost loopback delivery — unicast dispatch, broadcast,
// promiscuous overhearing, inbound and outbound filters, and malformed-datagram
// rejection. The multi-process path is exercised by tools/testnet.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "aodv/messages.hpp"
#include "net/steady_clock.hpp"
#include "net/udp.hpp"

namespace icc::net {
namespace {

std::uint16_t test_base_port(int offset) {
  // Derive from the pid so parallel ctest invocations do not collide.
  return static_cast<std::uint16_t>(40000 + (::getpid() * 13 + offset * 101) % 20000);
}

// ------------------------------------------------------------- SteadyClock

TEST(SteadyClockTest, TimersFireInDeadlineOrder) {
  SteadyClock clock;
  std::vector<int> fired;
  clock.schedule_at(clock.now() - 0.001, [&] { fired.push_back(2); });
  clock.schedule_at(clock.now() - 0.002, [&] { fired.push_back(1); });
  clock.schedule_at(clock.now() + 60.0, [&] { fired.push_back(3); });
  EXPECT_EQ(clock.fire_due(), 2u);
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
  EXPECT_LE(clock.next_deadline() - clock.now(), 60.0);
}

TEST(SteadyClockTest, CancelAndPending) {
  SteadyClock clock;
  bool fired = false;
  const TimerId id = clock.schedule_in(0.0, [&] { fired = true; });
  EXPECT_TRUE(clock.pending(id));
  clock.cancel(id);
  EXPECT_FALSE(clock.pending(id));
  clock.fire_due();
  EXPECT_FALSE(fired);
}

TEST(SteadyClockTest, DueTimerArmedByCallbackFiresSamePass) {
  SteadyClock clock;
  int count = 0;
  clock.schedule_at(clock.now(), [&] {
    ++count;
    clock.schedule_at(clock.now(), [&] { ++count; });
  });
  EXPECT_EQ(clock.fire_due(), 2u);
  EXPECT_EQ(count, 2);
}

TEST(SteadyClockTest, SharedEpochAlignsProcesses) {
  const std::int64_t epoch =
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count() -
      2'000'000;  // run started "two seconds ago"
  SteadyClock clock{epoch};
  EXPECT_GE(clock.now(), 1.9);
  EXPECT_LT(clock.now(), 10.0);
}

// ----------------------------------------------------------------- UdpHost

sim::Packet data_packet(sim::NodeId src, sim::NodeId dst) {
  auto body = std::make_shared<aodv::DataMsg>();
  body->app_uid = 7;
  sim::Packet p;
  p.src = src;
  p.dst = dst;
  p.port = sim::Port::kAodv;
  p.size_bytes = 64;
  p.body = std::move(body);
  return p;
}

void pump(UdpHost& host, double seconds = 0.02) {
  host.run_until(host.now() + seconds);
}

TEST(UdpHostTest, UnicastDeliversAndThirdPartyOverhears) {
  const std::uint16_t base = test_base_port(0);
  UdpHost a{{0, 3, base, 1}};
  UdpHost b{{1, 3, base, 1}};
  UdpHost c{{2, 3, base, 1}};

  int b_received = 0;
  b.transport().register_handler(sim::Port::kAodv,
                                 [&](const sim::Packet& p, sim::NodeId from) {
                                   EXPECT_EQ(from, 0u);
                                   EXPECT_NE(p.body_as<aodv::DataMsg>(), nullptr);
                                   ++b_received;
                                 });
  int c_received = 0;
  c.transport().register_handler(sim::Port::kAodv,
                                 [&](const sim::Packet&, sim::NodeId) { ++c_received; });
  int c_overheard = 0;
  c.transport().add_promiscuous_listener([&](const sim::Frame& f) {
    EXPECT_EQ(f.tx, 0u);
    EXPECT_EQ(f.rx, 1u);
    ++c_overheard;
  });

  a.transport().send(data_packet(0, 1), 1);
  for (int i = 0; i < 50 && (b_received == 0 || c_overheard == 0); ++i) {
    pump(b);
    pump(c);
  }
  EXPECT_EQ(b_received, 1);
  EXPECT_EQ(c_overheard, 1);
  EXPECT_EQ(c_received, 0) << "frame addressed to 1 must not be delivered at 2";
}

TEST(UdpHostTest, BroadcastReachesEveryPeer) {
  const std::uint16_t base = test_base_port(1);
  UdpHost a{{0, 3, base, 1}};
  UdpHost b{{1, 3, base, 1}};
  UdpHost c{{2, 3, base, 1}};
  int delivered = 0;
  for (UdpHost* h : {&b, &c}) {
    h->transport().register_handler(sim::Port::kAodv,
                                    [&](const sim::Packet&, sim::NodeId) { ++delivered; });
  }
  a.transport().send(data_packet(0, sim::kBroadcast), sim::kBroadcast);
  for (int i = 0; i < 50 && delivered < 2; ++i) {
    pump(b);
    pump(c);
  }
  EXPECT_EQ(delivered, 2);
}

TEST(UdpHostTest, InboundFilterDropsBeforeHandler) {
  const std::uint16_t base = test_base_port(2);
  UdpHost a{{0, 2, base, 1}};
  UdpHost b{{1, 2, base, 1}};
  int delivered = 0;
  b.transport().register_handler(sim::Port::kAodv,
                                 [&](const sim::Packet&, sim::NodeId) { ++delivered; });
  b.transport().add_inbound_filter(
      [](const sim::Packet&, sim::NodeId) { return FilterVerdict::kDrop; });
  a.transport().send(data_packet(0, 1), 1);
  for (int i = 0; i < 20; ++i) pump(b, 0.01);
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(b.metrics().counter_value("node.inbound_dropped"), 1.0);
}

TEST(UdpHostTest, OutboundFilterDropCountsAndSendsNothing) {
  const std::uint16_t base = test_base_port(7);
  UdpHost a{{0, 2, base, 1}};
  UdpHost b{{1, 2, base, 1}};
  int delivered = 0;
  b.transport().register_handler(sim::Port::kAodv,
                                 [&](const sim::Packet&, sim::NodeId) { ++delivered; });
  a.transport().add_outbound_filter(
      [](const sim::Packet&, sim::NodeId) { return FilterVerdict::kDrop; });
  a.transport().send(data_packet(0, 1), 1);
  for (int i = 0; i < 20; ++i) pump(b, 0.01);
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(a.metrics().counter_value("node.outbound_dropped"), 1.0);
  EXPECT_EQ(a.metrics().counter_value("net.udp.tx_frames"), 0.0);
  EXPECT_EQ(b.metrics().counter_value("net.udp.rx_frames"), 0.0);
}

TEST(UdpHostTest, OutboundFilterConsumeSendsAndCountsNothing) {
  const std::uint16_t base = test_base_port(8);
  UdpHost a{{0, 2, base, 1}};
  UdpHost b{{1, 2, base, 1}};
  int delivered = 0;
  b.transport().register_handler(sim::Port::kAodv,
                                 [&](const sim::Packet&, sim::NodeId) { ++delivered; });
  int consumed = 0;
  a.transport().add_outbound_filter([&](const sim::Packet&, sim::NodeId) {
    ++consumed;
    return FilterVerdict::kConsumed;
  });
  a.transport().send(data_packet(0, 1), 1);
  for (int i = 0; i < 20; ++i) pump(b, 0.01);
  EXPECT_EQ(consumed, 1);
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(a.metrics().counter_value("node.outbound_dropped"), 0.0);
  EXPECT_EQ(a.metrics().counter_value("net.udp.tx_frames"), 0.0);
  EXPECT_EQ(b.metrics().counter_value("net.udp.rx_frames"), 0.0);
}

TEST(UdpHostTest, GarbageDatagramRejectedNotCrashed) {
  const std::uint16_t base = test_base_port(3);
  UdpHost a{{0, 2, base, 1}};
  UdpHost b{{1, 2, base, 1}};
  (void)a;

  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(base + 1));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  const std::uint8_t garbage[] = {0xDE, 0xAD, 0xBE, 0xEF, 1, 2, 3, 4, 5};
  ASSERT_GT(::sendto(fd, garbage, sizeof(garbage), 0,
                     reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
            0);
  ::close(fd);

  for (int i = 0; i < 50 && b.metrics().counter_value("net.udp.rx_rejected") == 0.0; ++i) {
    pump(b, 0.01);
  }
  EXPECT_EQ(b.metrics().counter_value("net.udp.rx_rejected"), 1.0);
}

TEST(UdpHostTest, FaultLossDropsEveryDatagram) {
  const std::uint16_t base = test_base_port(5);
  UdpConfig lossy{0, 2, base, 1};
  lossy.fault_loss = 1.0;  // certain loss: the wire never sees a byte
  UdpHost a{lossy};
  UdpHost b{{1, 2, base, 1}};
  int delivered = 0;
  b.transport().register_handler(sim::Port::kAodv,
                                 [&](const sim::Packet&, sim::NodeId) { ++delivered; });
  for (int i = 0; i < 5; ++i) a.transport().send(data_packet(0, 1), 1);
  for (int i = 0; i < 20; ++i) pump(b, 0.01);
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(a.metrics().counter_value("net.udp.fault_dropped"), 5.0);
}

TEST(UdpHostTest, FaultReorderSwapsAdjacentDatagrams) {
  const std::uint16_t base = test_base_port(6);
  UdpConfig jumbled{0, 2, base, 1};
  jumbled.fault_reorder = 1.0;  // hold every datagram one slot
  UdpHost a{jumbled};
  UdpHost b{{1, 2, base, 1}};
  std::vector<std::uint64_t> arrived;
  b.transport().register_handler(sim::Port::kAodv,
                                 [&](const sim::Packet& p, sim::NodeId) {
                                   arrived.push_back(p.body_as<aodv::DataMsg>()->app_uid);
                                 });
  // With certain reordering, datagram 1 is held until datagram 2 goes to
  // the wire, so the receiver sees them swapped — a minimal, bounded
  // reordering rather than an unbounded shuffle.
  for (std::uint64_t uid : {1u, 2u}) {
    sim::Packet p = data_packet(0, 1);
    auto body = std::make_shared<aodv::DataMsg>();
    body->app_uid = uid;
    p.body = std::move(body);
    a.transport().send(std::move(p), 1);
  }
  for (int i = 0; i < 50 && arrived.size() < 2; ++i) pump(b, 0.01);
  ASSERT_EQ(arrived.size(), 2u);
  EXPECT_EQ(arrived[0], 2u);
  EXPECT_EQ(arrived[1], 1u);
  EXPECT_EQ(a.metrics().counter_value("net.udp.fault_reordered"), 1.0);
}

TEST(UdpHostTest, UidNamespacesNeverCollide) {
  const std::uint16_t base = test_base_port(4);
  UdpHost a{{0, 2, base, 1}};
  UdpHost b{{1, 2, base, 1}};
  const std::uint64_t ua = a.next_packet_uid();
  const std::uint64_t ub = b.next_packet_uid();
  EXPECT_NE(ua >> 40, ub >> 40);
  EXPECT_EQ(ua >> 40, 1u);
  EXPECT_EQ(ub >> 40, 2u);
}

}  // namespace
}  // namespace icc::net
