#include "aodv/watchdog.hpp"

#include <algorithm>

#include "fault/ledger.hpp"
#include "sim/trace.hpp"

namespace icc::aodv {

Watchdog::Watchdog(Aodv& aodv, Params params)
    : aodv_{aodv},
      params_{params} {
  net::Host& node = aodv_.node();

  // Observe our own data transmissions that require onward forwarding.
  node.transport().add_outbound_filter([this](const sim::Packet& packet, sim::NodeId next_hop) {
    if (packet.port == sim::Port::kCbr && next_hop != sim::kBroadcast &&
        next_hop != packet.dst && packet.body_as<DataMsg>() != nullptr) {
      on_outbound_data(packet, next_hop);
    }
    return net::FilterVerdict::kPass;  // observer only
  });

  // Overhear the neighborhood for the next hop's retransmissions.
  node.transport().add_promiscuous_listener([this](const sim::Frame& frame) { on_overheard(frame); });

  // Pathrater: ignore route replies from blacklisted nodes.
  node.transport().add_inbound_filter([this](const sim::Packet& packet, sim::NodeId from) {
    if (blacklist_.count(from) != 0 && packet.body_as<RrepMsg>() != nullptr) {
      net::Host& host = aodv_.node();
      host.metrics().add(m_rrep_suppressed_);
      // Ignoring a convicted node's route advertisement is the pathrater's
      // neutralization: the attack was detected earlier, and this stops it
      // from re-poisoning the route table.
      fault::report_neutralized(host, fault::FaultClass::kProtocol, from, 0, packet.uid);
      return net::FilterVerdict::kDrop;
    }
    return net::FilterVerdict::kPass;
  });
}

void Watchdog::on_outbound_data(const sim::Packet& packet, sim::NodeId next_hop) {
  const auto* data = packet.body_as<DataMsg>();
  if (data->app_uid == 0 || blacklist_.count(next_hop) != 0) return;
  net::Host& host = aodv_.node();
  const std::uint64_t uid = data->app_uid;
  pending_[uid] = Pending{next_hop, host.now() + params_.overhear_timeout};
  host.clock().schedule_in(params_.overhear_timeout, [this, uid] { check_pending(uid); },
                           net::EventTag::kRouting);
}

void Watchdog::on_overheard(const sim::Frame& frame) {
  const auto* data = frame.packet.body_as<DataMsg>();
  if (data == nullptr) return;
  const auto it = pending_.find(data->app_uid);
  if (it != pending_.end() && it->second.next_hop == frame.tx) {
    pending_.erase(it);  // the hop forwarded: behaving correctly
  }
}

void Watchdog::check_pending(std::uint64_t uid) {
  const auto it = pending_.find(uid);
  if (it == pending_.end()) return;
  const sim::NodeId suspect = it->second.next_hop;
  pending_.erase(it);
  charge_failure(suspect, uid);
}

void Watchdog::charge_failure(sim::NodeId suspect, std::uint64_t watched_span) {
  net::Host& host = aodv_.node();
  ++failures_charged_;
  host.metrics().add(m_failures_);
  // The accusation gets its own span so the ledger booking and an eventual
  // blacklist verdict can hang off it; its parent is the unforwarded packet.
  const std::uint64_t accuse_span = host.next_span();
  // A charged forwarding failure is a *detection* of the suspect's
  // misbehavior (it may also fire on innocent collisions — the ledger's
  // capped rows absorb that over-reporting).
  fault::report_detected(host, fault::FaultClass::kProtocol, suspect, 0, accuse_span);
  std::vector<sim::Time>& history = failures_[suspect];
  history.push_back(host.now());
  host.tracer().emit({host.now(), sim::TraceType::kWatchdogAccuse, aodv_.node().id(),
                      suspect, 0, 0, static_cast<double>(history.size()), nullptr,
                      accuse_span, watched_span});
  const sim::Time horizon = host.now() - params_.failure_window;
  std::erase_if(history, [horizon](sim::Time t) { return t < horizon; });
  if (static_cast<int>(history.size()) >= params_.tolerance &&
      blacklist_.insert(suspect).second) {
    host.metrics().add(m_blacklisted_);
    host.tracer().emit({host.now(), sim::TraceType::kWatchdogBlacklist, aodv_.node().id(),
                        suspect, 0, 0, static_cast<double>(history.size()), nullptr, 0,
                        accuse_span});
    aodv_.invalidate_routes_via(suspect);
  }
}

}  // namespace icc::aodv
