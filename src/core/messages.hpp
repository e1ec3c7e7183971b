// Payload types exchanged by the inner-circle services (STS + IVS), plus the
// canonical byte strings they sign. Each payload's `wire_fields` is its one
// frame-body layout (core/wire.hpp, net/codec.hpp).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/wire.hpp"
#include "crypto/ns_lowe.hpp"
#include "crypto/scheme.hpp"
#include "crypto/sha256.hpp"
#include "sim/packet.hpp"
#include "sim/types.hpp"
#include "sim/vec2.hpp"

namespace icc::core {

/// Application value carried through voting: opaque bytes, serialized and
/// interpreted by the Inner-circle Callbacks.
using Value = std::vector<std::uint8_t>;

/// Which IVS algorithm a round runs (Fig 3).
enum class VotingMode : std::uint8_t { kDeterministic = 0, kStatistical = 1 };

// --------------------------------------------------------------------- STS

/// Periodic Secure Topology Service beacon. `neighbors[i]` is a neighbor the
/// origin has authenticated (via NS-Lowe); `tags[i]` is
/// HMAC(session(origin, neighbors[i]), auth_bytes(...)) so that each listed
/// neighbor can verify the beacon really comes from origin and that the
/// adjacency claim is mutual.
struct StsBeacon final : sim::PayloadBase<StsBeacon> {
  static constexpr const char* kTag = "sts.beacon";
  sim::NodeId origin{sim::kNoNode};
  std::uint64_t seq{0};
  sim::Vec2 pos;
  std::vector<sim::NodeId> neighbors;
  std::vector<crypto::Digest> tags;

  /// The beacon content covered by each per-neighbor tag.
  [[nodiscard]] static std::vector<std::uint8_t> auth_bytes(
      sim::NodeId origin, std::uint64_t seq, sim::Vec2 pos,
      const std::vector<sim::NodeId>& neighbors) {
    WireWriter w;
    w.u32(origin);
    w.u64(seq);
    w.f64(pos.x);
    w.f64(pos.y);
    w.u32(static_cast<std::uint32_t>(neighbors.size()));
    for (const sim::NodeId n : neighbors) w.u32(n);
    return std::move(w).take();
  }

  template <class Io, class Self>
  static void wire_fields(Io& io, Self& m) {
    io.u32(m.origin);
    io.u64(m.seq);
    io.f64(m.pos.x);
    io.f64(m.pos.y);
    io.list(m.neighbors, [](Io& io, auto& n) { io.u32(n); });
    io.list(m.tags, [](Io& io, auto& tag) { io.raw(tag); });
  }
};

/// NS-Lowe handshake transport (phases 1-3), unicast between neighbors.
struct NslMsg final : sim::PayloadBase<NslMsg> {
  // Tag is per-type now; the handshake phase rides in the `phase` field
  // (the old dynamic "sts.nsl<phase>" string had no readers).
  static constexpr const char* kTag = "sts.nsl";
  int phase{0};
  crypto::Ciphertext ct;

  template <class Io, class Self>
  static void wire_fields(Io& io, Self& m) {
    io.u32(m.phase);
    io.u32(m.ct.to);
    io.bytes(m.ct.data);
  }
};

// --------------------------------------------------------------------- IVS

/// Statistical voting, step 1: the center solicits values (Fig 3b). `topic`
/// carries the center's own observation / round context for getVal.
struct SolicitMsg final : sim::PayloadBase<SolicitMsg> {
  static constexpr const char* kTag = "ivs.solicit";
  sim::NodeId center{sim::kNoNode};
  std::uint64_t round{0};
  int level{1};
  int ttl{1};  ///< remaining relay hops (2 for two-hop inner circles, §3)
  Value topic;

  template <class Io, class Self>
  static void wire_fields(Io& io, Self& m) {
    io.u32(m.center);
    io.u64(m.round);
    io.u32(m.level);
    io.u32(m.ttl);
    io.bytes(m.topic);
  }
};

/// Statistical voting, step 2: a participant's observation, individually
/// signed so it can be forwarded as evidence inside the propose message.
struct ValueMsg final : sim::PayloadBase<ValueMsg> {
  static constexpr const char* kTag = "ivs.value";
  sim::NodeId sender{sim::kNoNode};
  sim::NodeId center{sim::kNoNode};  ///< routing target (relayed in 2-hop circles)
  std::uint64_t round{0};
  Value value;
  std::vector<std::uint8_t> sig;  ///< PKI signature over value_bytes(...)
  [[nodiscard]] static std::vector<std::uint8_t> value_bytes(sim::NodeId center,
                                                             std::uint64_t round,
                                                             sim::NodeId sender,
                                                             const Value& value) {
    WireWriter w;
    w.u32(center);
    w.u64(round);
    w.u32(sender);
    w.bytes(value);
    return std::move(w).take();
  }

  template <class Io, class Self>
  static void wire_fields(Io& io, Self& m) {
    io.u32(m.sender);
    io.u32(m.center);
    io.u64(m.round);
    io.bytes(m.value);
    io.bytes(m.sig);
  }
};

/// Voting propose: deterministic rounds open with it; statistical rounds use
/// it to distribute the fused value plus the evidence it was fused from.
struct ProposeMsg final : sim::PayloadBase<ProposeMsg> {
  static constexpr const char* kTag = "ivs.propose";
  sim::NodeId center{sim::kNoNode};
  std::uint64_t round{0};
  int level{1};
  int ttl{1};  ///< remaining relay hops (2 for two-hop inner circles, §3)
  VotingMode mode{VotingMode::kDeterministic};
  Value value;
  std::vector<ValueMsg> evidence;      ///< statistical only; includes center's own
  std::vector<std::uint8_t> center_sig;  ///< PKI signature (conviction evidence)
  [[nodiscard]] static std::vector<std::uint8_t> propose_bytes(sim::NodeId center,
                                                               std::uint64_t round, int level,
                                                               VotingMode mode,
                                                               const Value& value) {
    WireWriter w;
    w.u32(center);
    w.u64(round);
    w.u32(static_cast<std::uint32_t>(level));
    w.u8(static_cast<std::uint8_t>(mode));
    w.bytes(value);
    return std::move(w).take();
  }

  template <class Io, class Self>
  static void wire_fields(Io& io, Self& m) {
    io.u32(m.center);
    io.u64(m.round);
    io.u32(m.level);
    io.u32(m.ttl);
    io.enum_u8(m.mode, VotingMode::kStatistical);
    io.bytes(m.value);
    io.list(m.evidence, [](Io& io, auto& ev) { ValueMsg::wire_fields(io, ev); });
    io.bytes(m.center_sig);
  }
};

/// A participant's approval: its partial threshold signature over the agreed
/// content.
struct AckMsg final : sim::PayloadBase<AckMsg> {
  static constexpr const char* kTag = "ivs.ack";
  sim::NodeId sender{sim::kNoNode};
  sim::NodeId center{sim::kNoNode};  ///< routing target (relayed in 2-hop circles)
  std::uint64_t round{0};
  crypto::PartialSig psig;

  template <class Io, class Self>
  static void wire_fields(Io& io, Self& m) {
    io.u32(m.sender);
    io.u32(m.center);
    io.u64(m.round);
    io.u32(m.psig.signer);
    io.u32(m.psig.level);
    io.bytes(m.psig.data);
  }
};

/// The self-checking output of a completed round (§3): value + combined
/// threshold signature. Broadcast to the circle and embeddable (serialized)
/// in any application message for multi-hop propagation.
struct AgreedMsg final : sim::PayloadBase<AgreedMsg> {
  static constexpr const char* kTag = "ivs.agreed";
  sim::NodeId source{sim::kNoNode};
  std::uint64_t round{0};
  int level{1};
  int ttl{1};  ///< transient relay budget; NOT part of the signed content
  Value value;
  crypto::ThresholdSignature sig;
  /// The bytes covered by the threshold signature.
  [[nodiscard]] static std::vector<std::uint8_t> signed_bytes(sim::NodeId source,
                                                              std::uint64_t round, int level,
                                                              const Value& value) {
    WireWriter w;
    w.u32(source);
    w.u64(round);
    w.u32(static_cast<std::uint32_t>(level));
    w.bytes(value);
    return std::move(w).take();
  }

  [[nodiscard]] std::vector<std::uint8_t> serialize() const {
    WireWriter w;
    w.u32(source);
    w.u64(round);
    w.u32(static_cast<std::uint32_t>(level));
    w.bytes(value);
    w.u32(static_cast<std::uint32_t>(sig.level));
    w.bytes(sig.data);
    return std::move(w).take();
  }

  [[nodiscard]] static std::optional<AgreedMsg> deserialize(
      std::span<const std::uint8_t> bytes) {
    WireReader r{bytes};
    AgreedMsg m;
    r.u32(m.source);
    r.u64(m.round);
    r.u32(m.level);
    r.bytes(m.value);
    r.u32(m.sig.level);
    r.bytes(m.sig.data);
    // Every byte must belong to the message: appended bytes are not an
    // agreed message, even when the signed prefix verifies.
    if (!r.done()) return std::nullopt;
    return m;
  }

  /// The frame body differs from serialize(): a wire frame is a snapshot in
  /// flight, so it carries the ttl the sender put on this hop, while the
  /// embedded form is signed content and omits it.
  template <class Io, class Self>
  static void wire_fields(Io& io, Self& m) {
    io.u32(m.source);
    io.u64(m.round);
    io.u32(m.level);
    io.u32(m.ttl);
    io.bytes(m.value);
    io.u32(m.sig.level);
    io.bytes(m.sig.data);
  }

  /// Modeled on-air size.
  [[nodiscard]] std::uint32_t wire_size() const {
    return static_cast<std::uint32_t>(20 + value.size() + sig.data.size());
  }
};

}  // namespace icc::core
