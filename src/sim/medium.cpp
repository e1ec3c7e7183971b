#include "sim/medium.hpp"

#include <algorithm>

#include "sim/check.hpp"
#include "sim/world.hpp"

namespace icc::sim {

void Medium::begin_transmission(const Frame& frame, double duration) {
  const Time now = world_.sched().now();
  ICC_ASSERT(duration > 0.0, "a transmission must occupy the medium for positive time");
  ICC_ASSERT(frame.tx < world_.num_nodes(), "transmissions must come from a known node");
  // Retire transmissions that ended at or before now: they are ordered by
  // end time, so this pops a prefix instead of erase_if-scanning the table.
  on_air_.erase(on_air_.begin(), on_air_.upper_bound(now));
  // Conservation: radios are half-duplex, so after retiring expired entries
  // there can never be more concurrent transmissions than nodes.
  ICC_CHECK(on_air_.size() < world_.num_nodes(),
            "more in-flight transmissions than transmitters: a frame leaked on the air");
  ++frames_sent_;
  world_.tracer().emit({now, TraceType::kPacketTx, frame.tx, frame.rx, frame.packet.uid,
                        frame.packet.size_bytes, duration,
                        frame.is_ack ? "ack" : nullptr, frame.packet.uid,
                        frame.packet.parent});
  const Vec2 tx_pos = world_.node(frame.tx).position();
  on_air_.emplace(now + duration, tx_pos);
  world_.nodes_within(tx_pos, tx_range_, rx_scratch_);
  for (const NodeId i : rx_scratch_) {
    if (i == frame.tx) continue;
    Node& receiver = world_.node(i);
    if (receiver.down()) continue;
    if (delivery_filter_) {
      switch (delivery_filter_(frame, i, now)) {
        case DeliveryVerdict::kDrop:
          world_.tracer().emit({now, TraceType::kPacketDrop, i, frame.tx, frame.packet.uid,
                                frame.packet.size_bytes, 0.0, "channel_fault",
                                frame.packet.uid, frame.packet.parent});
          continue;
        case DeliveryVerdict::kCorrupt: {
          Frame damaged = frame;
          damaged.corrupted = true;
          receiver.mac().begin_reception(damaged, duration);
          continue;
        }
        case DeliveryVerdict::kDeliver:
          break;
      }
    }
    receiver.mac().begin_reception(frame, duration);
  }
}

bool Medium::busy_at(NodeId listener) const {
  const Time now = world_.sched().now();
  const Vec2 lp = world_.node(listener).position();
  // Entries with end <= now are dead air; upper_bound skips the whole
  // expired prefix in O(log n) and leaves the table untouched.
  if (world_.config().spatial_grid) {
    // Squared-distance form of the same predicate (see SpatialGrid::query
    // for the equivalence argument); the legacy branch below keeps hypot so
    // spatial_grid=false stays the faithful pre-refactor baseline.
    const double cs2 = cs_range_ * cs_range_;
    return std::any_of(on_air_.upper_bound(now), on_air_.end(),
                       [&](const auto& t) { return (t.second - lp).norm2() <= cs2; });
  }
  return std::any_of(on_air_.upper_bound(now), on_air_.end(), [&](const auto& t) {
    return distance(t.second, lp) <= cs_range_;
  });
}

std::size_t Medium::on_air_count(Time now) const {
  return static_cast<std::size_t>(std::distance(on_air_.upper_bound(now), on_air_.end()));
}

}  // namespace icc::sim
