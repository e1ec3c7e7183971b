// A simulated wireless node: position (mobility), radio energy meter, MAC,
// and the interceptor stack (net/transport.hpp) between the protocol
// handlers and the MAC: outbound filters run between the network layer and
// the MAC, inbound filters run between the MAC and the protocol handlers.
#pragma once

#include <memory>

#include "net/clock.hpp"
#include "net/host.hpp"
#include "sim/energy.hpp"
#include "sim/mac.hpp"
#include "sim/metrics.hpp"
#include "sim/mobility.hpp"
#include "sim/packet.hpp"
#include "sim/types.hpp"

namespace icc::sim {

class World;

// icc:affinity(node)
class Node final : public net::Host, public net::Transport {
 public:
  Node(World& world, NodeId id, std::unique_ptr<Mobility> mobility, MacParams mac_params);

  [[nodiscard]] NodeId id() const noexcept override { return id_; }
  [[nodiscard]] Vec2 position() const override;
  [[nodiscard]] World& world() noexcept { return world_; }

  // net::Host implementation — the node is the protocol stack's window onto
  // its world (out of line: World is incomplete here).
  MetricsRegistry& metrics() noexcept override;
  Tracer& tracer() noexcept override;
  [[nodiscard]] Time now() const noexcept override;
  [[nodiscard]] Rng fork_rng(std::uint64_t salt) override;
  std::uint64_t next_packet_uid() noexcept override;
  std::uint64_t next_span() noexcept override;
  [[nodiscard]] std::uint64_t lineage_parent() const noexcept override;
  void set_lineage_parent(std::uint64_t span) noexcept override;
  [[nodiscard]] std::size_t num_nodes() const noexcept override;
  net::Clock& clock() noexcept override;
  net::Transport& transport() noexcept override { return *this; }

  Mac& mac() noexcept { return *mac_; }
  EnergyMeter& energy() noexcept override { return energy_; }
  [[nodiscard]] const EnergyMeter& energy() const noexcept { return energy_; }
  Mobility& mobility() noexcept { return *mobility_; }
  [[nodiscard]] const Mobility& mobility() const noexcept { return *mobility_; }

  /// Crash-failure switch: a down node neither sends nor receives.
  void set_down(bool down) noexcept { down_ = down; }
  [[nodiscard]] bool down() const noexcept override { return down_; }

  /// MAC -> node: a decoded frame addressed to us (or broadcast).
  void frame_received(const Frame& frame) {
    if (!down_) deliver(frame);
  }
  /// MAC -> node: a decoded frame addressed to someone else (promiscuous).
  void frame_overheard(const Frame& frame) const {
    if (!down_) overhear(frame);
  }
  /// MAC -> node: a unicast frame exhausted its retries.
  using net::Transport::send_failed;

 private:
  /// World's packet transform (the codec-parity hook), then the MAC queue.
  void transmit(Packet packet, NodeId next_hop) override;

  // icc:sync: reached only for net::Host services (clock, trace, rng, uids, lineage) and the codec-parity packet transform; the world runs one event at a time on one thread, so a node's handlers never overlap another's
  World& world_;
  NodeId id_;
  std::unique_ptr<Mobility> mobility_;
  EnergyMeter energy_;
  std::unique_ptr<Mac> mac_;
  bool down_{false};
};

}  // namespace icc::sim
