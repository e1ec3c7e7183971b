// UDP deployment mode: one process per node, loopback sockets as the radio.
//
// The testnet emulates the simulator's single broadcast domain: every
// encoded frame is sent to every peer (as a shared-medium radio would), and
// each receiver then decides — exactly like the simulated MAC — whether the
// frame is addressed to it (deliver), addressed elsewhere (promiscuous
// overhear, which is what the watchdog lives on), or its own echo (drop).
//
// UdpHost implements the same net::Host surface as the simulator's Node and
// reuses the same net::Transport interceptor stack, so the AODV agent, the
// inner-circle framework, the watchdog, and the sensor stack run on it
// without modification. Time comes from SteadyClock, identity/lineage uids
// from a per-origin counter namespace ((id+1) << 40 | n) that never
// collides across processes.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "net/host.hpp"
#include "net/steady_clock.hpp"
#include "sim/metrics.hpp"
#include "sim/rng.hpp"
#include "sim/trace.hpp"

namespace icc::net {

struct UdpConfig {
  sim::NodeId id{0};
  std::size_t num_nodes{1};
  std::uint16_t base_port{47000};  ///< node i binds 127.0.0.1:base_port+i
  std::uint64_t seed{1};           ///< run seed; RNG forks derive from it
  std::int64_t epoch_unix_us{0};   ///< shared run epoch for SteadyClock
  Vec2 position{};                 ///< static position from the scenario spec
  /// Link impairment, normally populated from ICC_NET_LOSS / ICC_NET_REORDER
  /// (strict-parsed, [0, 1]) by the constructor: per-peer Bernoulli datagram
  /// loss and one-datagram-delay reordering. Loopback UDP is too perfect a
  /// radio — these knobs let the testnet rehearse the packet weather the
  /// protocols were built for.
  double fault_loss{0.0};
  double fault_reorder{0.0};
};

// icc:affinity(node)
class UdpHost final : public Host, public Transport {
 public:
  explicit UdpHost(UdpConfig config);
  ~UdpHost() override;
  UdpHost(const UdpHost&) = delete;
  UdpHost& operator=(const UdpHost&) = delete;

  // --- Services ---
  MetricsRegistry& metrics() noexcept override { return metrics_; }
  Tracer& tracer() noexcept override { return tracer_; }
  [[nodiscard]] Time now() const noexcept override { return clock_.now(); }
  [[nodiscard]] Rng fork_rng(std::uint64_t salt) override { return rng_.fork(salt); }
  std::uint64_t next_packet_uid() noexcept override { return next_uid_++; }
  std::uint64_t next_span() noexcept override { return next_uid_++; }
  [[nodiscard]] std::uint64_t lineage_parent() const noexcept override {
    return lineage_parent_;
  }
  void set_lineage_parent(std::uint64_t span) noexcept override { lineage_parent_ = span; }
  [[nodiscard]] std::size_t num_nodes() const noexcept override { return config_.num_nodes; }

  // --- Host ---
  [[nodiscard]] sim::NodeId id() const noexcept override { return config_.id; }
  [[nodiscard]] Vec2 position() const override { return config_.position; }
  [[nodiscard]] bool down() const noexcept override { return false; }
  EnergyMeter& energy() noexcept override { return energy_; }
  Clock& clock() noexcept override { return clock_; }
  Transport& transport() noexcept override { return *this; }

  // --- run loop ---
  /// Poll sockets and fire timers until the clock passes `until` or
  /// request_stop() is called. Returns the clock value at exit.
  Time run_until(Time until);
  /// Stop the run loop at the next iteration. Safe to call from a signal
  /// handler (single relaxed atomic store).
  void request_stop() noexcept { stop_.store(true, std::memory_order_relaxed); }
  [[nodiscard]] bool stop_requested() const noexcept {
    return stop_.load(std::memory_order_relaxed);
  }

 private:
  /// Encode the frame and broadcast it to every peer.
  void transmit(sim::Packet packet, sim::NodeId next_hop) override;
  void broadcast_bytes(const std::vector<std::uint8_t>& bytes);
  /// sendto with bounded exponential backoff on transient errors (EAGAIN /
  /// ENOBUFS / EINTR): a full socket buffer under load must not silently
  /// erase a frame the way the old fire-and-forget sendto did.
  void send_datagram(std::size_t peer, const std::vector<std::uint8_t>& bytes);
  void drain_socket();
  /// Classify a decoded frame: drop our own echo and acks, overhear frames
  /// addressed elsewhere, deliver the rest.
  void dispatch(const sim::Frame& frame);

  UdpConfig config_;
  SteadyClock clock_;
  // icc:sync: owned by value; the daemon runs one host per process with no sim World behind it, so nothing is shared
  MetricsRegistry metrics_;
  // icc:sync: owned by value, as metrics_ is
  sim::Tracer tracer_;
  sim::Rng rng_;
  EnergyMeter energy_;
  std::uint64_t next_uid_;
  std::uint64_t lineage_parent_{0};

  int fd_{-1};
  std::vector<std::uint8_t> tx_scratch_;
  std::vector<std::uint8_t> rx_scratch_;

  // Impairment state. The fault RNG is forked from the host stream only when
  // a knob is nonzero, so impairment-free runs keep the exact RNG genealogy
  // (and therefore byte-identical traces) they had before the knobs existed.
  sim::Rng fault_rng_{0};
  std::vector<std::uint8_t> held_datagram_;  ///< one-slot reorder buffer
  std::size_t held_peer_{0};
  bool holding_{false};

  std::atomic<bool> stop_{false};

  sim::CounterHandle m_tx_frames_{"net.udp.tx_frames"};
  sim::CounterHandle m_tx_retries_{"net.udp.tx_retries"};
  sim::CounterHandle m_tx_failed_{"net.udp.tx_failed"};
  sim::CounterHandle m_uncodable_{"net.udp.uncodable"};
  sim::CounterHandle m_fault_dropped_{"net.udp.fault_dropped"};
  sim::CounterHandle m_fault_reordered_{"net.udp.fault_reordered"};
  sim::CounterHandle m_rx_frames_{"net.udp.rx_frames"};
  sim::CounterHandle m_rx_rejected_{"net.udp.rx_rejected"};
};

}  // namespace icc::net
