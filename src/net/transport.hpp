// Pluggable link transport: how the protocol stack sends and receives.
//
// The interface mirrors a one-hop broadcast radio: send to a link neighbor
// (or kBroadcast), receive demultiplexed by Port, optionally overhear
// frames addressed to other nodes (watchdog-style promiscuous mode). It
// also hosts the filter chains the Inner-circle Interceptor (paper §4,
// Fig 1) hooks into: outbound filters run before the frame leaves, inbound
// filters run before a received packet reaches its handler.
//
// Transport is that interceptor stack, written once. Its two hosts — the
// simulated radio node (sim/node.hpp) and the UDP shared-medium emulation
// (net/udp.hpp) — derive from it and supply only what differs between
// them: how a stamped packet leaves (transmit), the liveness gate on
// reception, and how a received frame is classified before it reaches
// deliver() or overhear().
#pragma once

#include <array>
#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

#include "sim/frame.hpp"
#include "sim/metrics.hpp"
#include "sim/packet.hpp"
#include "sim/types.hpp"

namespace icc::net {

// Vocabulary types shared with the simulator. sim/{types,packet,frame}.hpp
// are plain value types with no scheduler or medium dependencies; they are
// the wire-level nouns of the whole system, not simulator internals.
using sim::Frame;
using sim::kBroadcast;
using sim::kNoNode;
using sim::NodeId;
using sim::Packet;
using sim::Port;

class Host;
class Services;

/// Result of running a packet through an interceptor filter.
enum class FilterVerdict {
  kPass,      ///< continue down/up the stack
  kDrop,      ///< silently discard (e.g., suspected sender, bad signature)
  kConsumed,  ///< the filter took over delivery (e.g., redirected to voting)
};

/// Handler for packets delivered to a port: (packet, link-level sender).
using Handler = std::function<void(const Packet&, NodeId from)>;
/// Promiscuous listener: sees every frame this radio decodes, including
/// traffic addressed to other nodes (watchdog-style overhearing).
using PromiscuousListener = std::function<void(const Frame& frame)>;
/// Interceptor filter over a packet and its link peer: the sender for an
/// inbound filter, the chosen next hop for an outbound one.
using PacketFilter = std::function<FilterVerdict(const Packet&, NodeId peer)>;
/// Invoked when the link layer gives up delivering to a next hop.
using SendFailedHandler = std::function<void(const Packet&, NodeId next_hop)>;

class Transport {
 public:
  virtual ~Transport() = default;
  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  /// Send `packet` to link neighbor `next_hop` (kBroadcast for a one-hop
  /// broadcast). Runs the outbound filter chain first.
  void send(Packet packet, NodeId next_hop);

  /// Bypass the outbound filters — used by the inner-circle services
  /// themselves (their own traffic must not be re-intercepted).
  void send_unfiltered(Packet packet, NodeId next_hop);

  void register_handler(Port port, Handler handler) {
    handlers_.at(static_cast<std::size_t>(port)) = std::move(handler);
  }
  void add_promiscuous_listener(PromiscuousListener l) { promiscuous_.push_back(std::move(l)); }
  void add_inbound_filter(PacketFilter f) { inbound_filters_.push_back(std::move(f)); }
  void add_outbound_filter(PacketFilter f) { outbound_filters_.push_back(std::move(f)); }
  void set_send_failed_handler(SendFailedHandler h) { send_failed_ = std::move(h); }

 protected:
  /// `host` gives identity and liveness; `run` gives the run-scoped services
  /// (uid counter, lineage context, metrics, tracing) — the World for a
  /// simulated node, the host itself in deployment mode.
  Transport(Host& host, Services& run) noexcept : host_{host}, run_{run} {}

  /// A received frame addressed to this node (or broadcast): under the
  /// packet's lineage scope, run the inbound filters, then the port handler.
  void deliver(const Frame& frame);

  /// A received frame addressed to another node: feed the promiscuous
  /// listeners.
  void overhear(const Frame& frame) const {
    for (const PromiscuousListener& listener : promiscuous_) listener(frame);
  }

  /// The link layer gave up delivering `packet` to `next_hop`.
  void send_failed(const Packet& packet, NodeId next_hop) const {
    if (send_failed_) send_failed_(packet, next_hop);
  }

 private:
  /// How a stamped (and, unless unfiltered, filter-passed) packet leaves
  /// this host.
  virtual void transmit(Packet packet, NodeId next_hop) = 0;

  /// Assign a uid if missing and inherit the current lineage context as the
  /// packet's parent (idempotent; see Packet::parent).
  void stamp_lineage(Packet& packet);

  /// Run `filters` in registration order. A kDrop is counted in `dropped`
  /// and traced with `detail`; false when the packet was dropped or consumed.
  bool filter(const std::vector<PacketFilter>& filters, const Packet& packet, NodeId peer,
              sim::CounterHandle& dropped, const char* detail);

  Host& host_;
  Services& run_;
  std::array<Handler, sim::kNumPorts> handlers_{};
  std::vector<PromiscuousListener> promiscuous_;
  std::vector<PacketFilter> inbound_filters_;
  std::vector<PacketFilter> outbound_filters_;
  SendFailedHandler send_failed_;
  sim::CounterHandle m_outbound_dropped_{"node.outbound_dropped"};
  sim::CounterHandle m_inbound_dropped_{"node.inbound_dropped"};
};

}  // namespace icc::net
