#include "net/udp.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "net/codec.hpp"
#include "sim/env.hpp"

namespace icc::net {

namespace {

sockaddr_in loopback_addr(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

constexpr std::size_t kMaxDatagram = 65507;

// Deployment-mode setup errors are real runtime failures (port in use, fd
// limits), not debug invariants — fail unconditionally, not via ICC_CHECK,
// which compiles out in Release.
[[noreturn]] void fatal(const char* msg) {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): abort path; nothing races a process that is about to die
  std::fprintf(stderr, "net: fatal: %s (errno: %s)\n", msg, std::strerror(errno));
  std::abort();
}

}  // namespace

UdpHost::UdpHost(UdpConfig config)
    : Transport{*this, *this},
      config_{config},
      clock_{config.epoch_unix_us},
      rng_{config.seed},
      next_uid_{((static_cast<std::uint64_t>(config.id) + 1) << 40) | 1} {
  if (config_.num_nodes <= config_.id) fatal("node id outside the testnet size");
  // Env knobs override the config defaults; strict-parsed so a typo'd value
  // kills the node at startup rather than running an unimpaired testnet that
  // claims to be impaired.
  config_.fault_loss = sim::env_double("ICC_NET_LOSS", config_.fault_loss);
  config_.fault_reorder = sim::env_double("ICC_NET_REORDER", config_.fault_reorder);
  if (config_.fault_loss < 0.0 || config_.fault_loss > 1.0) {
    fatal("ICC_NET_LOSS outside [0, 1]");
  }
  if (config_.fault_reorder < 0.0 || config_.fault_reorder > 1.0) {
    fatal("ICC_NET_REORDER outside [0, 1]");
  }
  if (config_.fault_loss > 0.0 || config_.fault_reorder > 0.0) {
    // Fork only when armed: fork() advances the parent stream, and an
    // unimpaired host must draw exactly what it always drew.
    fault_rng_ = rng_.fork(0xFA171ull);
  }
  fd_ = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK, 0);
  if (fd_ < 0) fatal("udp socket creation failed");
  const sockaddr_in addr =
      loopback_addr(static_cast<std::uint16_t>(config_.base_port + config_.id));
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    fatal("udp bind failed (port already in use?)");
  }
  rx_scratch_.resize(kMaxDatagram);
}

UdpHost::~UdpHost() {
  if (fd_ >= 0) ::close(fd_);
}

void UdpHost::transmit(sim::Packet packet, sim::NodeId next_hop) {
  sim::Frame frame;
  frame.tx = id();
  frame.rx = next_hop;
  frame.packet = std::move(packet);
  if (!encode_frame(frame, tx_scratch_)) {
    metrics_.add(m_uncodable_);
    return;
  }
  tracer_.emit({now(), sim::TraceType::kPacketTx, id(), frame.rx, frame.packet.uid,
                frame.packet.size_bytes, 0.0, nullptr, frame.packet.uid,
                frame.packet.parent});
  metrics_.add(m_tx_frames_);
  broadcast_bytes(tx_scratch_);
}

void UdpHost::broadcast_bytes(const std::vector<std::uint8_t>& bytes) {
  // Shared-medium emulation: every frame reaches every peer; the receiver
  // decides between delivery and promiscuous overhearing.
  for (std::size_t peer = 0; peer < config_.num_nodes; ++peer) {
    if (peer == config_.id) continue;
    if (config_.fault_loss > 0.0 && fault_rng_.chance(config_.fault_loss)) {
      metrics_.add(m_fault_dropped_);
      continue;
    }
    if (config_.fault_reorder > 0.0 && !holding_ && fault_rng_.chance(config_.fault_reorder)) {
      // Hold this copy; it goes out right after the *next* datagram to the
      // wire, i.e. one slot late — a minimal, bounded reordering.
      held_datagram_ = bytes;
      held_peer_ = peer;
      holding_ = true;
      metrics_.add(m_fault_reordered_);
      continue;
    }
    send_datagram(peer, bytes);
    if (holding_) {
      holding_ = false;
      send_datagram(held_peer_, held_datagram_);
    }
  }
}

void UdpHost::send_datagram(std::size_t peer, const std::vector<std::uint8_t>& bytes) {
  const sockaddr_in addr =
      loopback_addr(static_cast<std::uint16_t>(config_.base_port + peer));
  int backoff_us = 100;
  for (int attempt = 0;; ++attempt) {
    const ssize_t n = ::sendto(fd_, bytes.data(), bytes.size(), 0,
                               reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
    if (n >= 0) {
      if (attempt > 0) metrics_.add(m_tx_retries_, static_cast<double>(attempt));
      return;
    }
    const bool transient =
        errno == EAGAIN || errno == EWOULDBLOCK || errno == ENOBUFS || errno == EINTR;
    if (!transient || attempt >= 6) {
      // Radios lose frames; so can we. Count it and keep serving — a burst
      // of ENOBUFS must not kill a daemon that will be fine in a millisecond.
      metrics_.add(m_tx_failed_);
      return;
    }
    ::usleep(static_cast<useconds_t>(backoff_us));
    backoff_us = std::min(backoff_us * 2, 5000);
  }
}

void UdpHost::drain_socket() {
  for (;;) {
    const ssize_t n = ::recv(fd_, rx_scratch_.data(), rx_scratch_.size(), 0);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
      return;  // transient socket error: drop and keep serving
    }
    metrics_.add(m_rx_frames_);
    const DecodeResult decoded =
        decode_frame(std::span{rx_scratch_.data(), static_cast<std::size_t>(n)});
    if (!decoded) {
      metrics_.add(m_rx_rejected_);
      tracer_.emit({now(), sim::TraceType::kPacketDrop, id(), sim::kNoNode, 0, 0, 0.0,
                    decode_error_name(decoded.error)});
      continue;
    }
    dispatch(decoded.frame);
  }
}

void UdpHost::dispatch(const sim::Frame& frame) {
  if (frame.tx == id() || frame.is_ack) return;
  if (frame.rx != id() && frame.rx != sim::kBroadcast) {
    // Addressed elsewhere: the radio would still demodulate it — that
    // overhearing is exactly what the watchdog feeds on.
    overhear(frame);
    return;
  }
  const sim::Packet& packet = frame.packet;
  tracer_.emit({now(), sim::TraceType::kPacketRx, id(), frame.tx, packet.uid,
                packet.size_bytes, 0.0, nullptr, packet.uid, packet.parent});
  deliver(frame);
}

Time UdpHost::run_until(Time until) {
  while (!stop_requested()) {
    clock_.fire_due();
    drain_socket();
    const Time t = now();
    if (t >= until) break;
    const Time next = std::min(clock_.next_deadline(), until);
    const double wait_s = next - t;
    if (wait_s <= 0.0) continue;
    // Cap the sleep so stop requests and freshly arrived datagrams are
    // noticed promptly even with a far-out next timer.
    const int timeout_ms = static_cast<int>(std::min(wait_s * 1000.0, 50.0)) + 1;
    pollfd pfd{};
    pfd.fd = fd_;
    pfd.events = POLLIN;
    (void)::poll(&pfd, 1, timeout_ms);
  }
  return now();
}

}  // namespace icc::net
