// The shared broadcast radio channel.
//
// Propagation follows the two-state disk model the paper's ns-2 setup uses:
// every node within `tx_range` of the transmitter receives the frame;
// receptions that overlap in time at a receiver destroy each other
// (collision); carrier sensing extends to `cs_range` so the CSMA MAC defers
// to transmissions it can hear but not decode.
#pragma once

#include <cstdint>
#include <functional>
#include <iterator>
#include <map>
#include <utility>
#include <vector>

#include "sim/frame.hpp"
#include "sim/types.hpp"
#include "sim/vec2.hpp"

namespace icc::sim {

class World;

/// Per-receiver fate of a frame, decided by the delivery filter (fault
/// injection). kDrop models the frame never reaching this receiver's radio;
/// kCorrupt delivers it with the corrupted flag set (CRC failure at the end
/// of the reception).
enum class DeliveryVerdict : std::uint8_t { kDeliver, kDrop, kCorrupt };

// icc:affinity(world)
class Medium {
 public:
  Medium(World& world, double tx_range, double cs_range)
      : world_{world}, tx_range_{tx_range}, cs_range_{cs_range} {}

  /// Put `frame` on the air for `duration` seconds starting now. Delivers
  /// (or collides) the frame at every node currently inside `tx_range`.
  void begin_transmission(const Frame& frame, double duration);

  /// Carrier sense at `listener`: is any transmission within cs_range of it
  /// still in progress?
  [[nodiscard]] bool busy_at(NodeId listener) const;

  [[nodiscard]] double tx_range() const noexcept { return tx_range_; }
  [[nodiscard]] double cs_range() const noexcept { return cs_range_; }

  /// Total frames put on the air (all nodes).
  [[nodiscard]] std::uint64_t frames_sent() const noexcept { return frames_sent_; }
  /// Transmissions still in progress at `now` (air-table occupancy; expired
  /// entries are skipped without being erased, so this is honestly const).
  [[nodiscard]] std::size_t on_air_count(Time now) const;
  /// Frames destroyed by collisions (counted per victim reception).
  [[nodiscard]] std::uint64_t collisions() const noexcept { return collisions_; }
  void count_collision() noexcept { ++collisions_; }

  /// Fault-injection hook: consulted once per (frame, in-range receiver)
  /// pair; absent (the default), every in-range receiver gets the frame.
  /// Replaces any previous filter; pass nullptr to clear.
  using DeliveryFilter = std::function<DeliveryVerdict(const Frame&, NodeId rx, Time now)>;
  void set_delivery_filter(DeliveryFilter filter) { delivery_filter_ = std::move(filter); }

 private:
  World& world_;
  double tx_range_;
  double cs_range_;
  /// The air table: transmissions keyed by their end time (ties keep
  /// insertion order), each carrying the transmitter position snapshotted at
  /// transmission start. Expired entries are erased in O(log n) amortized by
  /// the next begin_transmission; carrier sense skips them without mutating
  /// anything via upper_bound(now), so busy_at is honestly const.
  std::multimap<Time, Vec2> on_air_;
  /// Receiver candidates of the transmission being started; reused so the
  /// per-frame hot path never allocates in steady state.
  std::vector<NodeId> rx_scratch_;
  std::uint64_t frames_sent_{0};
  std::uint64_t collisions_{0};
  DeliveryFilter delivery_filter_;
};

}  // namespace icc::sim
