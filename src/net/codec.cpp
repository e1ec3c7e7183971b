#include "net/codec.hpp"

#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <memory>
#include <utility>

#include "aodv/messages.hpp"
#include "core/messages.hpp"
#include "core/wire.hpp"
#include "sensor/diffusion.hpp"
#include "sim/env.hpp"
#include "sim/world.hpp"

namespace icc::net {

namespace {

/// FNV-1a, 32-bit: tiny, allocation-free, and plenty to catch truncation
/// and bit damage on a loopback testnet (this is an integrity check against
/// accidents, not an authenticator — the protocols carry their own crypto).
std::uint32_t fnv1a(std::span<const std::uint8_t> bytes) noexcept {
  std::uint32_t h = 0x811C9DC5u;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x01000193u;
  }
  return h;
}

using BodyPtr = std::shared_ptr<const sim::Payload>;

/// What the codec knows about one wire kind: its name and how to move its
/// payload type's field list (`T::wire_fields`) in and out of bytes.
struct KindOps {
  const char* name;
  sim::PayloadKind (*payload_kind)();
  void (*encode)(core::WireWriter&, const sim::Payload&);
  BodyPtr (*decode)(core::WireReader&);
};

template <class T>
constexpr KindOps ops_of() {
  return {T::kTag, &sim::payload_kind<T>,
          [](core::WireWriter& w, const sim::Payload& body) {
            T::wire_fields(w, static_cast<const T&>(body));
          },
          [](core::WireReader& r) -> BodyPtr {
            auto m = std::make_shared<T>();
            T::wire_fields(r, *m);
            return m;
          }};
}

/// The kind table, indexed by WireKind and append-only like it. Each type's
/// kTag is its wire_kind_name.
constexpr KindOps kKinds[] = {
    {"none", nullptr, nullptr, nullptr},  // kNone: the body-less MAC ack
    ops_of<aodv::RreqMsg>(),
    ops_of<aodv::RrepMsg>(),
    ops_of<aodv::RerrMsg>(),
    ops_of<aodv::DataMsg>(),
    ops_of<core::StsBeacon>(),
    ops_of<core::NslMsg>(),
    ops_of<core::SolicitMsg>(),
    ops_of<core::ValueMsg>(),
    ops_of<core::ProposeMsg>(),
    ops_of<core::AckMsg>(),
    ops_of<core::AgreedMsg>(),
    ops_of<sensor::InterestMsg>(),
    ops_of<sensor::NotificationMsg>(),
};
static_assert(std::size(kKinds) == static_cast<std::size_t>(WireKind::kCount));

/// The wire kind of a body's payload type; kNone when it has no wire form
/// (experiment-local probes).
std::size_t kind_of(const sim::Payload& body) {
  for (std::size_t k = 1; k < std::size(kKinds); ++k) {
    if (kKinds[k].payload_kind() == body.kind()) return k;
  }
  return 0;
}

constexpr std::size_t kOffTotalLen = 4;
constexpr std::size_t kMinFrame = 57 + 4;  // full header, empty body, checksum

constexpr std::uint16_t kFlagAck = 1u << 0;
constexpr std::uint16_t kFlagCorrupted = 1u << 1;

/// Link and packet header after the version and kind bytes (codec.hpp).
template <class Io, class F>
void header_fields(Io& io, F& frame, std::uint16_t& flags) {
  io.u16(flags);
  io.u64(frame.frame_id);
  io.u32(frame.tx);
  io.u32(frame.rx);
  auto& p = frame.packet;
  io.u32(p.src);
  io.u32(p.dst);
  io.enum_u8(p.port, static_cast<sim::Port>(sim::kNumPorts - 1));
  io.u32(p.size_bytes);
  io.u64(p.uid);
  io.u64(p.parent);
}

DecodeResult rejected(DecodeError error) {
  DecodeResult result;
  result.error = error;
  return result;
}

}  // namespace

const char* wire_kind_name(WireKind kind) noexcept {
  const auto k = static_cast<std::size_t>(kind);
  return k < std::size(kKinds) ? kKinds[k].name : "?";
}

const char* decode_error_name(DecodeError e) noexcept {
  switch (e) {
    case DecodeError::kOk: return "ok";
    case DecodeError::kTruncated: return "truncated";
    case DecodeError::kBadMagic: return "bad_magic";
    case DecodeError::kBadVersion: return "bad_version";
    case DecodeError::kBadKind: return "bad_kind";
    case DecodeError::kBadChecksum: return "bad_checksum";
    case DecodeError::kBadBody: return "bad_body";
  }
  return "?";
}

bool encode_frame(const sim::Frame& frame, std::vector<std::uint8_t>& out) {
  out.clear();
  const sim::Payload* body = frame.packet.body.get();
  const std::size_t kind = body == nullptr ? 0 : kind_of(*body);
  if (body != nullptr && kind == 0) return false;

  core::WireWriter w{std::move(out)};
  w.u32(kWireMagic);
  w.u32(0);  // total_len, patched below
  w.u8(kWireVersion);
  w.u8(static_cast<std::uint8_t>(kind));
  std::uint16_t flags = (frame.is_ack ? kFlagAck : 0) | (frame.corrupted ? kFlagCorrupted : 0);
  header_fields(w, frame, flags);
  if (body != nullptr) kKinds[kind].encode(w, *body);
  w.patch_u32(kOffTotalLen, static_cast<std::uint32_t>(w.data().size() + 4));
  w.u32(fnv1a(w.data()));
  out = std::move(w).take();
  return true;
}

DecodeResult decode_frame(std::span<const std::uint8_t> bytes) {
  core::WireReader r{bytes};
  std::uint32_t magic = 0;
  std::uint32_t total_len = 0;
  r.u32(magic);
  r.u32(total_len);
  if (!r.ok()) return rejected(DecodeError::kTruncated);
  if (magic != kWireMagic) return rejected(DecodeError::kBadMagic);
  if (total_len < kMinFrame || bytes.size() < total_len) {
    return rejected(DecodeError::kTruncated);
  }
  // From here on read only this frame's bytes, the trailing checksum apart.
  const std::span<const std::uint8_t> content = bytes.first(total_len - 4);
  r = core::WireReader{content.subspan(kOffTotalLen + 4)};
  std::uint8_t version = 0;
  std::uint8_t kind = 0;
  r.u8(version);
  r.u8(kind);
  if (version != kWireVersion) return rejected(DecodeError::kBadVersion);
  if (kind >= std::size(kKinds)) return rejected(DecodeError::kBadKind);
  std::uint32_t checksum = 0;
  core::WireReader{bytes.subspan(total_len - 4, 4)}.u32(checksum);
  if (checksum != fnv1a(content)) return rejected(DecodeError::kBadChecksum);

  DecodeResult result;
  sim::Frame& frame = result.frame;
  std::uint16_t flags = 0;
  header_fields(r, frame, flags);
  if ((flags & ~(kFlagAck | kFlagCorrupted)) != 0) r.fail();
  frame.is_ack = (flags & kFlagAck) != 0;
  frame.corrupted = (flags & kFlagCorrupted) != 0;
  BodyPtr body = kKinds[kind].decode != nullptr ? kKinds[kind].decode(r) : nullptr;
  // done(): every field parsed, canonically, and nothing is left over — so a
  // decoded frame re-encodes to exactly the bytes it came from.
  if (!r.done()) return rejected(DecodeError::kBadBody);
  frame.packet.body = std::move(body);
  result.error = DecodeError::kOk;
  result.consumed = total_len;
  return result;
}

void attach_sim_codec(sim::World& world) {
  // One scratch buffer per world: the transform is called from the
  // single-threaded event loop, so reuse is safe and steady-state encoding
  // never allocates.
  auto scratch = std::make_shared<std::vector<std::uint8_t>>();
  world.set_packet_transform(
      [scratch](sim::Packet&& packet, sim::NodeId tx, sim::NodeId rx) -> sim::Packet {
        sim::Frame frame;
        frame.tx = tx;
        frame.rx = rx;
        frame.packet = std::move(packet);
        if (!encode_frame(frame, *scratch)) {
          // No wire form (experiment-local payload): pass through untouched.
          return std::move(frame.packet);
        }
        DecodeResult decoded = decode_frame(*scratch);
        if (!decoded) {
          // A round-trip failure means the codec and a serializer disagree;
          // silently delivering the original packet would hide it. Fail
          // unconditionally — ICC_CHECK compiles out in Release.
          std::fprintf(stderr, "net: wire codec round trip failed in simulation: %s\n",
                       decode_error_name(decoded.error));
          std::abort();
        }
        return std::move(decoded.frame.packet);
      });
}

std::function<void(sim::World&)> codec_hook_from_env() {
  if (!sim::env_flag("ICC_NET_CODEC")) return {};
  return [](sim::World& world) { attach_sim_codec(world); };
}

}  // namespace icc::net
