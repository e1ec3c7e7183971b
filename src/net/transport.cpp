#include "net/transport.hpp"

#include <cstdint>
#include <utility>

#include "net/host.hpp"

namespace icc::net {

void Transport::send(Packet packet, NodeId next_hop) {
  if (host_.down()) return;
  // Stamp identity before the filters run: observers (watchdog, voting
  // interception) see the same uid/parent the packet will carry on the air.
  stamp_lineage(packet);
  if (!filter(outbound_filters_, packet, next_hop, m_outbound_dropped_, "outbound_filter")) {
    return;
  }
  transmit(std::move(packet), next_hop);
}

void Transport::send_unfiltered(Packet packet, NodeId next_hop) {
  if (host_.down()) return;
  stamp_lineage(packet);
  transmit(std::move(packet), next_hop);
}

void Transport::stamp_lineage(Packet& packet) {
  if (packet.uid == 0) packet.uid = run_.next_packet_uid();
  // A forwarded packet keeps its original parent; inside its own reception
  // scope the context equals its uid, which must not become a self-loop.
  const std::uint64_t context = run_.lineage_parent();
  if (packet.parent == 0 && context != packet.uid) packet.parent = context;
}

void Transport::deliver(const Frame& frame) {
  const Packet& packet = frame.packet;
  // Everything done while processing this packet — filters, handlers, any
  // packets they originate — is causally downstream of it.
  LineageScope lineage{run_, packet.uid};
  if (!filter(inbound_filters_, packet, frame.tx, m_inbound_dropped_, "inbound_filter")) {
    return;
  }
  const Handler& handler = handlers_.at(static_cast<std::size_t>(packet.port));
  if (handler) handler(packet, frame.tx);
}

bool Transport::filter(const std::vector<PacketFilter>& filters, const Packet& packet,
                       NodeId peer, sim::CounterHandle& dropped, const char* detail) {
  for (const PacketFilter& f : filters) {
    switch (f(packet, peer)) {
      case FilterVerdict::kPass:
        break;
      case FilterVerdict::kDrop:
        run_.metrics().add(dropped);
        run_.tracer().emit({run_.now(), sim::TraceType::kPacketDrop, host_.id(), peer,
                            packet.uid, packet.size_bytes, 0.0, detail, packet.uid,
                            packet.parent});
        return false;
      case FilterVerdict::kConsumed:
        return false;
    }
  }
  return true;
}

}  // namespace icc::net
