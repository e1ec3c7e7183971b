#include "net/codec.hpp"

#include <cstring>
#include <memory>
#include <optional>
#include <utility>

#include "aodv/messages.hpp"
#include "core/messages.hpp"
#include "core/wire.hpp"
#include "exp/env.hpp"
#include "sensor/diffusion.hpp"
#include "sim/check.hpp"
#include "sim/world.hpp"

namespace icc::net {

namespace {

// ------------------------------------------------------------ primitives

void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v) { out.push_back(v); }

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  for (int i = 0; i < 2; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_f64(std::vector<std::uint8_t>& out, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, 8);
  put_u64(out, bits);
}

void put_bytes(std::vector<std::uint8_t>& out, std::span<const std::uint8_t> b) {
  put_u32(out, static_cast<std::uint32_t>(b.size()));
  out.insert(out.end(), b.begin(), b.end());
}

void patch_u32(std::vector<std::uint8_t>& out, std::size_t at, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out[at + static_cast<std::size_t>(i)] =
      static_cast<std::uint8_t>(v >> (8 * i));
}

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

// --------------------------------------------------------- body encoders

void encode_body(std::vector<std::uint8_t>& out, const aodv::RreqMsg& m) {
  put_u32(out, m.orig);
  put_u32(out, m.rreq_id);
  put_u32(out, m.orig_seq);
  put_u32(out, m.dest);
  put_u32(out, m.dest_seq);
  put_u8(out, m.dest_seq_known ? 1 : 0);
  put_u32(out, m.hop_count);
}

void encode_body(std::vector<std::uint8_t>& out, const aodv::RrepMsg& m) {
  put_u32(out, m.dest);
  put_u32(out, m.dest_seq);
  put_u32(out, m.orig);
  put_u32(out, m.hop_count);
}

void encode_body(std::vector<std::uint8_t>& out, const aodv::RerrMsg& m) {
  put_u32(out, static_cast<std::uint32_t>(m.unreachable.size()));
  for (const auto& [dest, seq] : m.unreachable) {
    put_u32(out, dest);
    put_u32(out, seq);
  }
}

void encode_body(std::vector<std::uint8_t>& out, const aodv::DataMsg& m) {
  put_u64(out, m.app_uid);
  put_u32(out, m.app_bytes);
  put_f64(out, m.sent_at);
}

void encode_body(std::vector<std::uint8_t>& out, const core::StsBeacon& m) {
  put_u32(out, m.origin);
  put_u64(out, m.seq);
  put_f64(out, m.pos.x);
  put_f64(out, m.pos.y);
  put_u32(out, static_cast<std::uint32_t>(m.neighbors.size()));
  for (const sim::NodeId n : m.neighbors) put_u32(out, n);
  put_u32(out, static_cast<std::uint32_t>(m.tags.size()));
  for (const crypto::Digest& tag : m.tags) out.insert(out.end(), tag.begin(), tag.end());
}

void encode_body(std::vector<std::uint8_t>& out, const core::NslMsg& m) {
  put_u32(out, static_cast<std::uint32_t>(m.phase));
  put_u32(out, m.ct.to);
  put_bytes(out, m.ct.data);
}

void encode_body(std::vector<std::uint8_t>& out, const core::SolicitMsg& m) {
  put_u32(out, m.center);
  put_u64(out, m.round);
  put_u32(out, static_cast<std::uint32_t>(m.level));
  put_u32(out, static_cast<std::uint32_t>(m.ttl));
  put_bytes(out, m.topic);
}

void encode_body(std::vector<std::uint8_t>& out, const core::ValueMsg& m) {
  put_u32(out, m.sender);
  put_u32(out, m.center);
  put_u64(out, m.round);
  put_bytes(out, m.value);
  put_bytes(out, m.sig);
}

void encode_body(std::vector<std::uint8_t>& out, const core::ProposeMsg& m) {
  put_u32(out, m.center);
  put_u64(out, m.round);
  put_u32(out, static_cast<std::uint32_t>(m.level));
  put_u32(out, static_cast<std::uint32_t>(m.ttl));
  put_u8(out, static_cast<std::uint8_t>(m.mode));
  put_bytes(out, m.value);
  put_u32(out, static_cast<std::uint32_t>(m.evidence.size()));
  for (const core::ValueMsg& ev : m.evidence) encode_body(out, ev);
  put_bytes(out, m.center_sig);
}

void encode_body(std::vector<std::uint8_t>& out, const core::AckMsg& m) {
  put_u32(out, m.sender);
  put_u32(out, m.center);
  put_u64(out, m.round);
  put_u32(out, m.psig.signer);
  put_u32(out, static_cast<std::uint32_t>(m.psig.level));
  put_bytes(out, m.psig.data);
}

void encode_body(std::vector<std::uint8_t>& out, const core::AgreedMsg& m) {
  put_u32(out, m.source);
  put_u64(out, m.round);
  put_u32(out, static_cast<std::uint32_t>(m.level));
  // ttl is transient relay state, but a wire frame is a snapshot in flight:
  // the receiver must see the ttl the sender put on this hop (AgreedMsg's
  // own serialize() omits it because the embedded form is signed content).
  put_u32(out, static_cast<std::uint32_t>(m.ttl));
  put_bytes(out, m.value);
  put_u32(out, static_cast<std::uint32_t>(m.sig.level));
  put_bytes(out, m.sig.data);
}

void encode_body(std::vector<std::uint8_t>& out, const sensor::InterestMsg& m) {
  put_u32(out, m.sink);
  put_u32(out, m.seq);
  put_u32(out, m.hops);
}

void encode_body(std::vector<std::uint8_t>& out, const sensor::NotificationMsg& m) {
  put_u32(out, m.origin);
  put_u64(out, m.uid);
  put_bytes(out, m.data);
}

/// Dispatch on the runtime payload kind. Returns kNone for a null body and
/// nullopt for payload types with no wire form (experiment-local probes).
std::optional<WireKind> encode_dispatch(std::vector<std::uint8_t>& out,
                                        const sim::Packet& packet) {
  const sim::Payload* body = packet.body.get();
  if (body == nullptr) return WireKind::kNone;
  if (const auto* m = packet.body_as<aodv::RreqMsg>()) {
    encode_body(out, *m);
    return WireKind::kAodvRreq;
  }
  if (const auto* m = packet.body_as<aodv::RrepMsg>()) {
    encode_body(out, *m);
    return WireKind::kAodvRrep;
  }
  if (const auto* m = packet.body_as<aodv::RerrMsg>()) {
    encode_body(out, *m);
    return WireKind::kAodvRerr;
  }
  if (const auto* m = packet.body_as<aodv::DataMsg>()) {
    encode_body(out, *m);
    return WireKind::kAodvData;
  }
  if (const auto* m = packet.body_as<core::StsBeacon>()) {
    encode_body(out, *m);
    return WireKind::kStsBeacon;
  }
  if (const auto* m = packet.body_as<core::NslMsg>()) {
    encode_body(out, *m);
    return WireKind::kStsNsl;
  }
  if (const auto* m = packet.body_as<core::SolicitMsg>()) {
    encode_body(out, *m);
    return WireKind::kIvsSolicit;
  }
  if (const auto* m = packet.body_as<core::ValueMsg>()) {
    encode_body(out, *m);
    return WireKind::kIvsValue;
  }
  if (const auto* m = packet.body_as<core::ProposeMsg>()) {
    encode_body(out, *m);
    return WireKind::kIvsPropose;
  }
  if (const auto* m = packet.body_as<core::AckMsg>()) {
    encode_body(out, *m);
    return WireKind::kIvsAck;
  }
  if (const auto* m = packet.body_as<core::AgreedMsg>()) {
    encode_body(out, *m);
    return WireKind::kIvsAgreed;
  }
  if (const auto* m = packet.body_as<sensor::InterestMsg>()) {
    encode_body(out, *m);
    return WireKind::kDiffInterest;
  }
  if (const auto* m = packet.body_as<sensor::NotificationMsg>()) {
    encode_body(out, *m);
    return WireKind::kDiffNotification;
  }
  return std::nullopt;
}

// --------------------------------------------------------- body decoders

using Reader = core::WireReader;
using BodyPtr = std::shared_ptr<const sim::Payload>;

BodyPtr decode_rreq(Reader& r) {
  auto m = std::make_shared<aodv::RreqMsg>();
  const auto orig = r.u32();
  const auto rreq_id = r.u32();
  const auto orig_seq = r.u32();
  const auto dest = r.u32();
  const auto dest_seq = r.u32();
  const auto known = r.u8();
  const auto hops = r.u32();
  if (!orig || !rreq_id || !orig_seq || !dest || !dest_seq || !known || !hops) return nullptr;
  m->orig = *orig;
  m->rreq_id = *rreq_id;
  m->orig_seq = *orig_seq;
  m->dest = *dest;
  m->dest_seq = *dest_seq;
  m->dest_seq_known = *known != 0;
  m->hop_count = *hops;
  return m;
}

BodyPtr decode_rrep(Reader& r) {
  auto m = std::make_shared<aodv::RrepMsg>();
  const auto dest = r.u32();
  const auto dest_seq = r.u32();
  const auto orig = r.u32();
  const auto hops = r.u32();
  if (!dest || !dest_seq || !orig || !hops) return nullptr;
  m->dest = *dest;
  m->dest_seq = *dest_seq;
  m->orig = *orig;
  m->hop_count = *hops;
  return m;
}

BodyPtr decode_rerr(Reader& r) {
  auto m = std::make_shared<aodv::RerrMsg>();
  const auto count = r.u32();
  if (!count) return nullptr;
  m->unreachable.reserve(*count);
  for (std::uint32_t i = 0; i < *count; ++i) {
    const auto dest = r.u32();
    const auto seq = r.u32();
    if (!dest || !seq) return nullptr;
    m->unreachable.emplace_back(*dest, *seq);
  }
  return m;
}

BodyPtr decode_data(Reader& r) {
  auto m = std::make_shared<aodv::DataMsg>();
  const auto uid = r.u64();
  const auto bytes = r.u32();
  const auto sent_at = r.f64();
  if (!uid || !bytes || !sent_at) return nullptr;
  m->app_uid = *uid;
  m->app_bytes = *bytes;
  m->sent_at = *sent_at;
  return m;
}

BodyPtr decode_beacon(Reader& r, std::span<const std::uint8_t> raw, std::size_t body_off,
                      std::size_t body_len) {
  auto m = std::make_shared<core::StsBeacon>();
  const auto origin = r.u32();
  const auto seq = r.u64();
  const auto px = r.f64();
  const auto py = r.f64();
  const auto n_neighbors = r.u32();
  if (!origin || !seq || !px || !py || !n_neighbors) return nullptr;
  m->origin = *origin;
  m->seq = *seq;
  m->pos = sim::Vec2{*px, *py};
  m->neighbors.reserve(*n_neighbors);
  for (std::uint32_t i = 0; i < *n_neighbors; ++i) {
    const auto id = r.u32();
    if (!id) return nullptr;
    m->neighbors.push_back(*id);
  }
  const auto n_tags = r.u32();
  if (!n_tags) return nullptr;
  // Digests are fixed-size raw arrays; read them off the underlying span.
  // The fixed prefix is 36 bytes: origin(4) seq(8) pos(16) counts(4+4).
  const std::size_t fixed = 36 + 4 * m->neighbors.size();
  if (body_len != fixed + sizeof(crypto::Digest) * *n_tags) return nullptr;
  m->tags.reserve(*n_tags);
  for (std::uint32_t i = 0; i < *n_tags; ++i) {
    crypto::Digest d;
    std::memcpy(d.data(), raw.data() + body_off + fixed + i * d.size(), d.size());
    m->tags.push_back(d);
  }
  return m;
}

BodyPtr decode_nsl(Reader& r) {
  auto m = std::make_shared<core::NslMsg>();
  const auto phase = r.u32();
  const auto to = r.u32();
  auto data = r.bytes();
  if (!phase || !to || !data) return nullptr;
  m->phase = static_cast<int>(*phase);
  m->ct.to = *to;
  m->ct.data = std::move(*data);
  return m;
}

BodyPtr decode_solicit(Reader& r) {
  auto m = std::make_shared<core::SolicitMsg>();
  const auto center = r.u32();
  const auto round = r.u64();
  const auto level = r.u32();
  const auto ttl = r.u32();
  auto topic = r.bytes();
  if (!center || !round || !level || !ttl || !topic) return nullptr;
  m->center = *center;
  m->round = *round;
  m->level = static_cast<int>(*level);
  m->ttl = static_cast<int>(*ttl);
  m->topic = std::move(*topic);
  return m;
}

bool decode_value_fields(Reader& r, core::ValueMsg& m) {
  const auto sender = r.u32();
  const auto center = r.u32();
  const auto round = r.u64();
  auto value = r.bytes();
  auto sig = r.bytes();
  if (!sender || !center || !round || !value || !sig) return false;
  m.sender = *sender;
  m.center = *center;
  m.round = *round;
  m.value = std::move(*value);
  m.sig = std::move(*sig);
  return true;
}

BodyPtr decode_value(Reader& r) {
  auto m = std::make_shared<core::ValueMsg>();
  if (!decode_value_fields(r, *m)) return nullptr;
  return m;
}

BodyPtr decode_propose(Reader& r) {
  auto m = std::make_shared<core::ProposeMsg>();
  const auto center = r.u32();
  const auto round = r.u64();
  const auto level = r.u32();
  const auto ttl = r.u32();
  const auto mode = r.u8();
  auto value = r.bytes();
  if (!center || !round || !level || !ttl || !mode || !value) return nullptr;
  if (*mode > static_cast<std::uint8_t>(core::VotingMode::kStatistical)) return nullptr;
  m->center = *center;
  m->round = *round;
  m->level = static_cast<int>(*level);
  m->ttl = static_cast<int>(*ttl);
  m->mode = static_cast<core::VotingMode>(*mode);
  m->value = std::move(*value);
  const auto n_evidence = r.u32();
  if (!n_evidence) return nullptr;
  m->evidence.reserve(*n_evidence);
  for (std::uint32_t i = 0; i < *n_evidence; ++i) {
    core::ValueMsg ev;
    if (!decode_value_fields(r, ev)) return nullptr;
    m->evidence.push_back(std::move(ev));
  }
  auto center_sig = r.bytes();
  if (!center_sig) return nullptr;
  m->center_sig = std::move(*center_sig);
  return m;
}

BodyPtr decode_ack(Reader& r) {
  auto m = std::make_shared<core::AckMsg>();
  const auto sender = r.u32();
  const auto center = r.u32();
  const auto round = r.u64();
  const auto signer = r.u32();
  const auto level = r.u32();
  auto data = r.bytes();
  if (!sender || !center || !round || !signer || !level || !data) return nullptr;
  m->sender = *sender;
  m->center = *center;
  m->round = *round;
  m->psig.signer = *signer;
  m->psig.level = static_cast<int>(*level);
  m->psig.data = std::move(*data);
  return m;
}

BodyPtr decode_agreed(Reader& r) {
  auto m = std::make_shared<core::AgreedMsg>();
  const auto source = r.u32();
  const auto round = r.u64();
  const auto level = r.u32();
  const auto ttl = r.u32();
  auto value = r.bytes();
  const auto sig_level = r.u32();
  auto sig_data = r.bytes();
  if (!source || !round || !level || !ttl || !value || !sig_level || !sig_data) return nullptr;
  m->source = *source;
  m->round = *round;
  m->level = static_cast<int>(*level);
  m->ttl = static_cast<int>(*ttl);
  m->value = std::move(*value);
  m->sig.level = static_cast<int>(*sig_level);
  m->sig.data = std::move(*sig_data);
  return m;
}

BodyPtr decode_interest(Reader& r) {
  auto m = std::make_shared<sensor::InterestMsg>();
  const auto sink = r.u32();
  const auto seq = r.u32();
  const auto hops = r.u32();
  if (!sink || !seq || !hops) return nullptr;
  m->sink = *sink;
  m->seq = *seq;
  m->hops = *hops;
  return m;
}

BodyPtr decode_notification(Reader& r) {
  auto m = std::make_shared<sensor::NotificationMsg>();
  const auto origin = r.u32();
  const auto uid = r.u64();
  auto data = r.bytes();
  if (!origin || !uid || !data) return nullptr;
  m->origin = *origin;
  m->uid = *uid;
  m->data = std::move(*data);
  return m;
}

// Fixed offsets within a frame (see layout comment in codec.hpp).
constexpr std::size_t kOffTotalLen = 4;
constexpr std::size_t kOffVersion = 8;
constexpr std::size_t kOffKind = 9;
constexpr std::size_t kOffFlags = 10;
constexpr std::size_t kOffFrameId = 12;
constexpr std::size_t kOffTx = 20;
constexpr std::size_t kOffRx = 24;
constexpr std::size_t kOffSrc = 28;
constexpr std::size_t kOffDst = 32;
constexpr std::size_t kOffPort = 36;
constexpr std::size_t kOffSizeBytes = 37;
constexpr std::size_t kOffUid = 41;
constexpr std::size_t kOffParent = 49;
constexpr std::size_t kOffBody = 57;
constexpr std::size_t kMinFrame = kOffBody + 4;  // empty body + checksum

constexpr std::uint16_t kFlagAck = 1u << 0;
constexpr std::uint16_t kFlagCorrupted = 1u << 1;

std::uint32_t read_u32(std::span<const std::uint8_t> b, std::size_t at) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= std::uint32_t{b[at + static_cast<std::size_t>(i)]} << (8 * i);
  return v;
}

std::uint64_t read_u64(std::span<const std::uint8_t> b, std::size_t at) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= std::uint64_t{b[at + static_cast<std::size_t>(i)]} << (8 * i);
  return v;
}

std::uint16_t read_u16(std::span<const std::uint8_t> b, std::size_t at) {
  return static_cast<std::uint16_t>(b[at] | (std::uint16_t{b[at + 1]} << 8));
}

}  // namespace

const char* wire_kind_name(WireKind kind) noexcept {
  switch (kind) {
    case WireKind::kNone: return "none";
    case WireKind::kAodvRreq: return "aodv.rreq";
    case WireKind::kAodvRrep: return "aodv.rrep";
    case WireKind::kAodvRerr: return "aodv.rerr";
    case WireKind::kAodvData: return "aodv.data";
    case WireKind::kStsBeacon: return "sts.beacon";
    case WireKind::kStsNsl: return "sts.nsl";
    case WireKind::kIvsSolicit: return "ivs.solicit";
    case WireKind::kIvsValue: return "ivs.value";
    case WireKind::kIvsPropose: return "ivs.propose";
    case WireKind::kIvsAck: return "ivs.ack";
    case WireKind::kIvsAgreed: return "ivs.agreed";
    case WireKind::kDiffInterest: return "diff.interest";
    case WireKind::kDiffNotification: return "diff.notification";
    case WireKind::kCount: break;
  }
  return "?";
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
  put_u32(out, kWireMagic);
  put_u32(out, 0);  // total_len, patched below
  put_u8(out, kWireVersion);
  put_u8(out, 0);  // wire kind, patched below
  std::uint16_t flags = 0;
  if (frame.is_ack) flags |= kFlagAck;
  if (frame.corrupted) flags |= kFlagCorrupted;
  put_u16(out, flags);
  put_u64(out, frame.frame_id);
  put_u32(out, frame.tx);
  put_u32(out, frame.rx);

  const sim::Packet& p = frame.packet;
  put_u32(out, p.src);
  put_u32(out, p.dst);
  put_u8(out, static_cast<std::uint8_t>(p.port));
  put_u32(out, p.size_bytes);
  put_u64(out, p.uid);
  put_u64(out, p.parent);

  const std::optional<WireKind> kind = encode_dispatch(out, p);
  if (!kind) {
    out.clear();
    return false;
  }
  out[kOffKind] = static_cast<std::uint8_t>(*kind);
  patch_u32(out, kOffTotalLen, static_cast<std::uint32_t>(out.size() + 4));
  put_u32(out, fnv1a(out));
  return true;
}

DecodeResult decode_frame(std::span<const std::uint8_t> bytes) {
  DecodeResult result;
  if (bytes.size() < 8) {
    result.error = DecodeError::kTruncated;
    return result;
  }
  if (read_u32(bytes, 0) != kWireMagic) {
    result.error = DecodeError::kBadMagic;
    return result;
  }
  const std::uint32_t total_len = read_u32(bytes, kOffTotalLen);
  if (total_len < kMinFrame || bytes.size() < total_len) {
    result.error = DecodeError::kTruncated;
    return result;
  }
  const std::span<const std::uint8_t> raw = bytes.first(total_len);
  if (raw[kOffVersion] != kWireVersion) {
    result.error = DecodeError::kBadVersion;
    return result;
  }
  const std::uint8_t kind_byte = raw[kOffKind];
  if (kind_byte >= static_cast<std::uint8_t>(WireKind::kCount)) {
    result.error = DecodeError::kBadKind;
    return result;
  }
  if (read_u32(raw, total_len - 4) != fnv1a(raw.first(total_len - 4))) {
    result.error = DecodeError::kBadChecksum;
    return result;
  }

  const std::uint16_t flags = read_u16(raw, kOffFlags);
  sim::Frame& frame = result.frame;
  frame.is_ack = (flags & kFlagAck) != 0;
  frame.corrupted = (flags & kFlagCorrupted) != 0;
  frame.frame_id = read_u64(raw, kOffFrameId);
  frame.tx = read_u32(raw, kOffTx);
  frame.rx = read_u32(raw, kOffRx);

  sim::Packet& p = frame.packet;
  p.src = read_u32(raw, kOffSrc);
  p.dst = read_u32(raw, kOffDst);
  const std::uint8_t port = raw[kOffPort];
  if (port >= static_cast<std::uint8_t>(sim::Port::kCount)) {
    result.error = DecodeError::kBadBody;
    return result;
  }
  p.port = static_cast<sim::Port>(port);
  p.size_bytes = read_u32(raw, kOffSizeBytes);
  p.uid = read_u64(raw, kOffUid);
  p.parent = read_u64(raw, kOffParent);

  const std::size_t body_len = total_len - kOffBody - 4;
  Reader r{raw.subspan(kOffBody, body_len)};
  const auto kind = static_cast<WireKind>(kind_byte);
  BodyPtr body;
  bool want_done = true;
  switch (kind) {
    case WireKind::kNone:
      body = nullptr;
      break;
    case WireKind::kAodvRreq: body = decode_rreq(r); break;
    case WireKind::kAodvRrep: body = decode_rrep(r); break;
    case WireKind::kAodvRerr: body = decode_rerr(r); break;
    case WireKind::kAodvData: body = decode_data(r); break;
    case WireKind::kStsBeacon:
      body = decode_beacon(r, raw, kOffBody, body_len);
      want_done = false;  // digests are consumed off the raw span, not via r
      break;
    case WireKind::kStsNsl: body = decode_nsl(r); break;
    case WireKind::kIvsSolicit: body = decode_solicit(r); break;
    case WireKind::kIvsValue: body = decode_value(r); break;
    case WireKind::kIvsPropose: body = decode_propose(r); break;
    case WireKind::kIvsAck: body = decode_ack(r); break;
    case WireKind::kIvsAgreed: body = decode_agreed(r); break;
    case WireKind::kDiffInterest: body = decode_interest(r); break;
    case WireKind::kDiffNotification: body = decode_notification(r); break;
    case WireKind::kCount: break;
  }
  if (kind != WireKind::kNone && (body == nullptr || (want_done && !r.done()))) {
    result.error = DecodeError::kBadBody;
    return result;
  }
  p.body = std::move(body);
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
  if (!exp::env_flag("ICC_NET_CODEC")) return {};
  return [](sim::World& world) { attach_sim_codec(world); };
}

}  // namespace icc::net
