// Wire-codec tests: round-trip identity for every wire kind, stream framing,
// pinned bytes per kind, and rejection of truncated / corrupted /
// wrong-version / non-canonical frames and forged element counts, plus a
// bit-flip sweep that drives mutated frames into every body parser. Run under
// ASan/UBSan in the sanitizer CI jobs — the decoder must stay well-defined
// on arbitrary attacker-controlled bytes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "aodv/messages.hpp"
#include "core/messages.hpp"
#include "net/codec.hpp"
#include "sensor/diffusion.hpp"
#include "sim/frame.hpp"

namespace icc::net {
namespace {

sim::Frame make_frame(std::shared_ptr<const sim::Payload> body, sim::Port port,
                      std::uint32_t size_bytes = 64) {
  sim::Frame f;
  f.tx = 3;
  f.rx = 7;
  f.frame_id = 42;
  f.packet.src = 3;
  f.packet.dst = 9;
  f.packet.port = port;
  f.packet.size_bytes = size_bytes;
  f.packet.uid = (4ull << 40) | 17;
  f.packet.parent = (4ull << 40) | 5;
  f.packet.body = std::move(body);
  return f;
}

std::vector<std::uint8_t> encode_ok(const sim::Frame& f) {
  std::vector<std::uint8_t> bytes;
  EXPECT_TRUE(encode_frame(f, bytes));
  EXPECT_FALSE(bytes.empty());
  return bytes;
}

/// Round-trip and check the frame/packet header fields; returns the decoded
/// frame for body-specific checks.
sim::Frame roundtrip(const sim::Frame& f) {
  const auto bytes = encode_ok(f);
  const DecodeResult r = decode_frame(bytes);
  EXPECT_TRUE(r) << decode_error_name(r.error);
  EXPECT_EQ(r.consumed, bytes.size());
  EXPECT_EQ(r.frame.tx, f.tx);
  EXPECT_EQ(r.frame.rx, f.rx);
  EXPECT_EQ(r.frame.is_ack, f.is_ack);
  EXPECT_EQ(r.frame.frame_id, f.frame_id);
  EXPECT_EQ(r.frame.packet.src, f.packet.src);
  EXPECT_EQ(r.frame.packet.dst, f.packet.dst);
  EXPECT_EQ(r.frame.packet.port, f.packet.port);
  EXPECT_EQ(r.frame.packet.size_bytes, f.packet.size_bytes);
  EXPECT_EQ(r.frame.packet.uid, f.packet.uid);
  EXPECT_EQ(r.frame.packet.parent, f.packet.parent);
  return r.frame;
}

// ------------------------------------------------------------- round trips

TEST(CodecRoundTrip, AodvRreq) {
  auto m = std::make_shared<aodv::RreqMsg>();
  m->orig = 1;
  m->rreq_id = 11;
  m->orig_seq = 5;
  m->dest = 9;
  m->dest_seq = 3;
  m->dest_seq_known = true;
  m->hop_count = 2;
  const auto out = roundtrip(make_frame(m, sim::Port::kAodv));
  const auto* d = out.packet.body_as<aodv::RreqMsg>();
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->orig, 1u);
  EXPECT_EQ(d->rreq_id, 11u);
  EXPECT_EQ(d->orig_seq, 5u);
  EXPECT_EQ(d->dest, 9u);
  EXPECT_EQ(d->dest_seq, 3u);
  EXPECT_TRUE(d->dest_seq_known);
  EXPECT_EQ(d->hop_count, 2u);
}

TEST(CodecRoundTrip, AodvRrep) {
  auto m = std::make_shared<aodv::RrepMsg>();
  m->dest = 4;
  m->dest_seq = 77;
  m->orig = 2;
  m->hop_count = 3;
  const auto out = roundtrip(make_frame(m, sim::Port::kAodv));
  const auto* d = out.packet.body_as<aodv::RrepMsg>();
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->dest, 4u);
  EXPECT_EQ(d->dest_seq, 77u);
  EXPECT_EQ(d->orig, 2u);
  EXPECT_EQ(d->hop_count, 3u);
}

TEST(CodecRoundTrip, AodvRerr) {
  auto m = std::make_shared<aodv::RerrMsg>();
  m->unreachable = {{5, 10}, {6, 20}};
  const auto out = roundtrip(make_frame(m, sim::Port::kAodv));
  const auto* d = out.packet.body_as<aodv::RerrMsg>();
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->unreachable, m->unreachable);
}

TEST(CodecRoundTrip, AodvData) {
  auto m = std::make_shared<aodv::DataMsg>();
  m->app_uid = 123456789;
  m->app_bytes = 512;
  m->sent_at = 1.625;
  const auto out = roundtrip(make_frame(m, sim::Port::kAodv));
  const auto* d = out.packet.body_as<aodv::DataMsg>();
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->app_uid, 123456789u);
  EXPECT_EQ(d->app_bytes, 512u);
  EXPECT_DOUBLE_EQ(d->sent_at, 1.625);
}

TEST(CodecRoundTrip, StsBeacon) {
  auto m = std::make_shared<core::StsBeacon>();
  m->origin = 2;
  m->seq = 99;
  m->pos = sim::Vec2{12.5, -3.25};
  m->neighbors = {1, 3, 4};
  crypto::Digest d1{};
  d1.fill(0xAB);
  crypto::Digest d2{};
  d2.fill(0xCD);
  m->tags = {d1, d2, d1};
  const auto out = roundtrip(make_frame(m, sim::Port::kSts));
  const auto* d = out.packet.body_as<core::StsBeacon>();
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->origin, 2u);
  EXPECT_EQ(d->seq, 99u);
  EXPECT_DOUBLE_EQ(d->pos.x, 12.5);
  EXPECT_DOUBLE_EQ(d->pos.y, -3.25);
  EXPECT_EQ(d->neighbors, m->neighbors);
  EXPECT_EQ(d->tags, m->tags);
}

TEST(CodecRoundTrip, StsNsl) {
  auto m = std::make_shared<core::NslMsg>();
  m->phase = 2;
  m->ct.to = 8;
  m->ct.data = {1, 2, 3, 4, 5};
  const auto out = roundtrip(make_frame(m, sim::Port::kSts));
  const auto* d = out.packet.body_as<core::NslMsg>();
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->phase, 2);
  EXPECT_EQ(d->ct.to, 8u);
  EXPECT_EQ(d->ct.data, m->ct.data);
}

TEST(CodecRoundTrip, IvsSolicit) {
  auto m = std::make_shared<core::SolicitMsg>();
  m->center = 5;
  m->round = 7;
  m->level = 3;
  m->ttl = 2;
  m->topic = {9, 9, 9};
  const auto out = roundtrip(make_frame(m, sim::Port::kIvs));
  const auto* d = out.packet.body_as<core::SolicitMsg>();
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->center, 5u);
  EXPECT_EQ(d->round, 7u);
  EXPECT_EQ(d->level, 3);
  EXPECT_EQ(d->ttl, 2);
  EXPECT_EQ(d->topic, m->topic);
}

TEST(CodecRoundTrip, IvsValue) {
  auto m = std::make_shared<core::ValueMsg>();
  m->sender = 4;
  m->center = 5;
  m->round = 6;
  m->value = {1, 2};
  m->sig = {3, 4, 5};
  const auto out = roundtrip(make_frame(m, sim::Port::kIvs));
  const auto* d = out.packet.body_as<core::ValueMsg>();
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->sender, 4u);
  EXPECT_EQ(d->center, 5u);
  EXPECT_EQ(d->round, 6u);
  EXPECT_EQ(d->value, m->value);
  EXPECT_EQ(d->sig, m->sig);
}

TEST(CodecRoundTrip, IvsProposeWithEvidence) {
  auto m = std::make_shared<core::ProposeMsg>();
  m->center = 1;
  m->round = 2;
  m->level = 3;
  m->ttl = 1;
  m->mode = core::VotingMode::kStatistical;
  m->value = {7, 7};
  core::ValueMsg ev;
  ev.sender = 9;
  ev.center = 1;
  ev.round = 2;
  ev.value = {8};
  ev.sig = {6, 6};
  m->evidence = {ev, ev};
  m->center_sig = {0xDE, 0xAD};
  const auto out = roundtrip(make_frame(m, sim::Port::kIvs));
  const auto* d = out.packet.body_as<core::ProposeMsg>();
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->mode, core::VotingMode::kStatistical);
  EXPECT_EQ(d->value, m->value);
  ASSERT_EQ(d->evidence.size(), 2u);
  EXPECT_EQ(d->evidence[0].sender, 9u);
  EXPECT_EQ(d->evidence[1].sig, ev.sig);
  EXPECT_EQ(d->center_sig, m->center_sig);
}

TEST(CodecRoundTrip, IvsAck) {
  auto m = std::make_shared<core::AckMsg>();
  m->sender = 2;
  m->center = 3;
  m->round = 4;
  m->psig.signer = 2;
  m->psig.level = 5;
  m->psig.data = {1, 1, 2, 3};
  const auto out = roundtrip(make_frame(m, sim::Port::kIvs));
  const auto* d = out.packet.body_as<core::AckMsg>();
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->psig, m->psig);
}

TEST(CodecRoundTrip, IvsAgreedKeepsTtl) {
  auto m = std::make_shared<core::AgreedMsg>();
  m->source = 1;
  m->round = 2;
  m->level = 3;
  m->ttl = 2;  // AgreedMsg::serialize omits ttl; the wire frame must not
  m->value = {5, 5, 5};
  m->sig.level = 3;
  m->sig.data = {9, 8, 7};
  const auto out = roundtrip(make_frame(m, sim::Port::kIvs));
  const auto* d = out.packet.body_as<core::AgreedMsg>();
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->ttl, 2);
  EXPECT_EQ(d->value, m->value);
  EXPECT_EQ(d->sig, m->sig);
}

TEST(CodecRoundTrip, DiffInterest) {
  auto m = std::make_shared<sensor::InterestMsg>();
  m->sink = 0;
  m->seq = 3;
  m->hops = 2;
  const auto out = roundtrip(make_frame(m, sim::Port::kDiffusion));
  const auto* d = out.packet.body_as<sensor::InterestMsg>();
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->sink, 0u);
  EXPECT_EQ(d->seq, 3u);
  EXPECT_EQ(d->hops, 2u);
}

TEST(CodecRoundTrip, DiffNotification) {
  auto m = std::make_shared<sensor::NotificationMsg>();
  m->origin = 6;
  m->uid = 1234;
  m->data = {0, 255, 128};
  const auto out = roundtrip(make_frame(m, sim::Port::kDiffusion));
  const auto* d = out.packet.body_as<sensor::NotificationMsg>();
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->origin, 6u);
  EXPECT_EQ(d->uid, 1234u);
  EXPECT_EQ(d->data, m->data);
}

TEST(CodecRoundTrip, AckFrameWithoutBody) {
  sim::Frame f;
  f.tx = 1;
  f.rx = 2;
  f.is_ack = true;
  f.frame_id = 55;
  const auto out = roundtrip(f);
  EXPECT_TRUE(out.is_ack);
  EXPECT_EQ(out.packet.body, nullptr);
}

TEST(CodecRoundTrip, StreamFramingBackToBack) {
  auto a = std::make_shared<sensor::InterestMsg>();
  a->sink = 1;
  auto b = std::make_shared<aodv::DataMsg>();
  b->app_uid = 2;
  auto bytes = encode_ok(make_frame(a, sim::Port::kDiffusion));
  const auto second = encode_ok(make_frame(b, sim::Port::kAodv));
  bytes.insert(bytes.end(), second.begin(), second.end());

  const DecodeResult first = decode_frame(bytes);
  ASSERT_TRUE(first);
  EXPECT_NE(first.frame.packet.body_as<sensor::InterestMsg>(), nullptr);
  const DecodeResult rest =
      decode_frame(std::span{bytes}.subspan(first.consumed));
  ASSERT_TRUE(rest);
  EXPECT_NE(rest.frame.packet.body_as<aodv::DataMsg>(), nullptr);
  EXPECT_EQ(first.consumed + rest.consumed, bytes.size());
}

// --------------------------------------------------------------- rejection

/// Recomputes the trailing FNV-1a checksum so only the decoder's later
/// checks (header fields, body) can object to a hand-edited frame.
void reseal(std::vector<std::uint8_t>& bytes) {
  std::uint32_t h = 0x811C9DC5u;
  for (std::size_t i = 0; i + 4 < bytes.size(); ++i) {
    h ^= bytes[i];
    h *= 0x01000193u;
  }
  for (int i = 0; i < 4; ++i)
    bytes[bytes.size() - 4 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(h >> (8 * i));
}

std::vector<std::uint8_t> sample_bytes() {
  auto m = std::make_shared<aodv::RreqMsg>();
  m->orig = 1;
  m->dest = 2;
  std::vector<std::uint8_t> bytes;
  EXPECT_TRUE(encode_frame(make_frame(m, sim::Port::kAodv), bytes));
  return bytes;
}

TEST(CodecReject, Truncated) {
  const auto bytes = sample_bytes();
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    const DecodeResult r = decode_frame(std::span{bytes.data(), len});
    EXPECT_FALSE(r) << "accepted a " << len << "-byte prefix";
    EXPECT_EQ(r.error, DecodeError::kTruncated);
  }
}

TEST(CodecReject, BadMagic) {
  auto bytes = sample_bytes();
  bytes[0] ^= 0xFF;
  const DecodeResult r = decode_frame(bytes);
  EXPECT_EQ(r.error, DecodeError::kBadMagic);
}

TEST(CodecReject, BadVersion) {
  auto bytes = sample_bytes();
  bytes[8] = kWireVersion + 1;
  const DecodeResult r = decode_frame(bytes);
  EXPECT_EQ(r.error, DecodeError::kBadVersion);
}

TEST(CodecReject, BadKind) {
  auto bytes = sample_bytes();
  bytes[9] = 0xEE;
  const DecodeResult r = decode_frame(bytes);
  EXPECT_EQ(r.error, DecodeError::kBadKind);
}

TEST(CodecReject, ChecksumMismatch) {
  auto bytes = sample_bytes();
  bytes[bytes.size() / 2] ^= 0x01;  // flip one payload bit
  const DecodeResult r = decode_frame(bytes);
  EXPECT_EQ(r.error, DecodeError::kBadChecksum);
}

TEST(CodecReject, BodyKindMismatch) {
  // Claim the RREQ body is an RERR: the body parse must fail cleanly.
  auto bytes = sample_bytes();
  bytes[9] = static_cast<std::uint8_t>(WireKind::kAodvRerr);
  reseal(bytes);
  const DecodeResult r = decode_frame(bytes);
  EXPECT_EQ(r.error, DecodeError::kBadBody);
}

TEST(CodecReject, RandomGarbageNeverCrashes) {
  // Deterministic xorshift garbage: the decoder must reject (or, absurdly
  // unlikely, accept) without UB — this is the ASan/UBSan fodder.
  std::uint64_t s = 0x9E3779B97F4A7C15ull;
  auto next = [&s] {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  };
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<std::uint8_t> bytes(next() % 256);
    for (auto& b : bytes) b = static_cast<std::uint8_t>(next());
    (void)decode_frame(bytes);
  }
  // Garbage that *starts* like a real frame but lies about its length.
  auto bytes = sample_bytes();
  for (int trial = 0; trial < 200; ++trial) {
    auto mutated = bytes;
    mutated[4 + next() % 4] = static_cast<std::uint8_t>(next());
    (void)decode_frame(mutated);
  }
}

// ------------------------------------------------- pinned bytes and fuzzing

std::string hex(const std::vector<std::uint8_t>& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t b : bytes) {
    out += kDigits[b >> 4];
    out += kDigits[b & 0xF];
  }
  return out;
}

struct Sample {
  const char* name;
  sim::Frame frame;
  const char* hex;  ///< full encode_frame output
};

/// One frame per wire kind, in WireKind order (kNone is the MAC ack), with
/// its full encoding pinned as hex. A changed string here is a wire-format
/// change: bump kWireVersion first, then re-record.
std::vector<Sample> samples() {
  std::vector<Sample> out;
  {
    sim::Frame f;
    f.tx = 1;
    f.rx = 2;
    f.is_ack = true;
    f.frame_id = 55;
    out.push_back({"mac.ack", f, "494343313d0000000100010037000000000000000100000002000000feffffff"
         "feffffff010000000000000000000000000000000000000000438a5bb8"});
  }
  {
    auto m = std::make_shared<aodv::RreqMsg>();
    m->orig = 1;
    m->rreq_id = 11;
    m->orig_seq = 5;
    m->dest = 9;
    m->dest_seq = 3;
    m->dest_seq_known = true;
    m->hop_count = 2;
    out.push_back({"aodv.rreq", make_frame(m, sim::Port::kAodv), "4943433156000000010100002a00000000000000030000000700000003000000"
         "09000000004000000011000000000400000500000000040000010000000b0000"
         "000500000009000000030000000102000000bfdb0c99"});
  }
  {
    auto m = std::make_shared<aodv::RrepMsg>();
    m->dest = 4;
    m->dest_seq = 77;
    m->orig = 2;
    m->hop_count = 3;
    out.push_back({"aodv.rrep", make_frame(m, sim::Port::kAodv), "494343314d000000010200002a00000000000000030000000700000003000000"
         "09000000004000000011000000000400000500000000040000040000004d0000"
         "0002000000030000006d1d0d34"});
  }
  {
    auto m = std::make_shared<aodv::RerrMsg>();
    m->unreachable = {{5, 10}, {6, 20}};
    out.push_back({"aodv.rerr", make_frame(m, sim::Port::kAodv), "4943433151000000010300002a00000000000000030000000700000003000000"
         "0900000000400000001100000000040000050000000004000002000000050000"
         "000a00000006000000140000002fc86757"});
  }
  {
    auto m = std::make_shared<aodv::DataMsg>();
    m->app_uid = 123456789;
    m->app_bytes = 512;
    m->sent_at = 1.625;
    sim::Frame f = make_frame(m, sim::Port::kCbr, 600);
    f.corrupted = true;  // pins the second flag bit
    out.push_back({"aodv.data", f, "4943433151000000010402002a00000000000000030000000700000003000000"
         "0900000001580200001100000000040000050000000004000015cd5b07000000"
         "0000020000000000000000fa3f1d73786b"});
  }
  {
    auto m = std::make_shared<core::StsBeacon>();
    m->origin = 2;
    m->seq = 99;
    m->pos = sim::Vec2{12.5, -3.25};
    m->neighbors = {1, 3, 4};
    crypto::Digest d1{};
    d1.fill(0xAB);
    crypto::Digest d2{};
    d2.fill(0xCD);
    m->tags = {d1, d2};
    out.push_back({"sts.beacon", make_frame(m, sim::Port::kSts), "49434331ad000000010500002a00000000000000030000000700000003000000"
         "0900000002400000001100000000040000050000000004000002000000630000"
         "000000000000000000000029400000000000000ac00300000001000000030000"
         "000400000002000000ababababababababababababababababababababababab"
         "abababababababababcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcd"
         "cdcdcdcdcdcdcdcdcde14eb8c6"});
  }
  {
    auto m = std::make_shared<core::NslMsg>();
    m->phase = 2;
    m->ct.to = 8;
    m->ct.data = {1, 2, 3, 4, 5};
    out.push_back({"sts.nsl", make_frame(m, sim::Port::kSts), "494343314e000000010600002a00000000000000030000000700000003000000"
         "0900000002400000001100000000040000050000000004000002000000080000"
         "0005000000010203040570492385"});
  }
  {
    auto m = std::make_shared<core::SolicitMsg>();
    m->center = 5;
    m->round = 7;
    m->level = 3;
    m->ttl = 2;
    m->topic = {9, 9, 9};
    out.push_back({"ivs.solicit", make_frame(m, sim::Port::kIvs), "4943433158000000010700002a00000000000000030000000700000003000000"
         "0900000003400000001100000000040000050000000004000005000000070000"
         "0000000000030000000200000003000000090909c317b9b7"});
  }
  {
    auto m = std::make_shared<core::ValueMsg>();
    m->sender = 4;
    m->center = 5;
    m->round = 6;
    m->value = {1, 2};
    m->sig = {3, 4, 5};
    out.push_back({"ivs.value", make_frame(m, sim::Port::kIvs), "494343315a000000010800002a00000000000000030000000700000003000000"
         "0900000003400000001100000000040000050000000004000004000000050000"
         "00060000000000000002000000010203000000030405c404d45e"});
  }
  {
    auto m = std::make_shared<core::ProposeMsg>();
    m->center = 1;
    m->round = 2;
    m->level = 3;
    m->ttl = 1;
    m->mode = core::VotingMode::kStatistical;
    m->value = {7, 7};
    core::ValueMsg ev;
    ev.sender = 9;
    ev.center = 1;
    ev.round = 2;
    ev.value = {8};
    ev.sig = {6, 6};
    m->evidence = {ev, ev};
    m->center_sig = {0xDE, 0xAD};
    out.push_back({"ivs.propose", make_frame(m, sim::Port::kIvs), "4943433198000000010900002a00000000000000030000000700000003000000"
         "0900000003400000001100000000040000050000000004000001000000020000"
         "0000000000030000000100000001020000000707020000000900000001000000"
         "0200000000000000010000000802000000060609000000010000000200000000"
         "000000010000000802000000060602000000deadc3fd5d22"});
  }
  {
    auto m = std::make_shared<core::AckMsg>();
    m->sender = 2;
    m->center = 3;
    m->round = 4;
    m->psig.signer = 2;
    m->psig.level = 5;
    m->psig.data = {1, 1, 2, 3};
    out.push_back({"ivs.ack", make_frame(m, sim::Port::kIvs), "494343315d000000010a00002a00000000000000030000000700000003000000"
         "0900000003400000001100000000040000050000000004000002000000030000"
         "0004000000000000000200000005000000040000000101020387d78eab"});
  }
  {
    auto m = std::make_shared<core::AgreedMsg>();
    m->source = 1;
    m->round = 2;
    m->level = 3;
    m->ttl = 2;
    m->value = {5, 5, 5};
    m->sig.level = 3;
    m->sig.data = {9, 8, 7};
    out.push_back({"ivs.agreed", make_frame(m, sim::Port::kIvs), "4943433163000000010b00002a00000000000000030000000700000003000000"
         "0900000003400000001100000000040000050000000004000001000000020000"
         "00000000000300000002000000030000000505050300000003000000090807ef"
         "379fe0"});
  }
  {
    auto m = std::make_shared<sensor::InterestMsg>();
    m->sink = 0;
    m->seq = 3;
    m->hops = 2;
    out.push_back({"diff.interest", make_frame(m, sim::Port::kDiffusion), "4943433149000000010c00002a00000000000000030000000700000003000000"
         "0900000004400000001100000000040000050000000004000000000000030000"
         "0002000000b2f89f16"});
  }
  {
    auto m = std::make_shared<sensor::NotificationMsg>();
    m->origin = 6;
    m->uid = 1234;
    m->data = {0, 255, 128};
    out.push_back({"diff.notification", make_frame(m, sim::Port::kDiffusion), "4943433150000000010d00002a00000000000000030000000700000003000000"
         "0900000004400000001100000000040000050000000004000006000000d20400"
         "00000000000300000000ff801912dbe5"});
  }
  return out;
}

TEST(CodecPinned, EveryKindEncodesToRecordedBytes) {
  const auto all = samples();
  ASSERT_EQ(all.size(), static_cast<std::size_t>(WireKind::kCount));
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Sample& s = all[i];
    const auto bytes = encode_ok(s.frame);
    EXPECT_EQ(bytes[9], i) << s.name;  // the kind byte, in WireKind order
    EXPECT_EQ(hex(bytes), s.hex) << s.name;
    EXPECT_STREQ(wire_kind_name(static_cast<WireKind>(i)), i == 0 ? "none" : s.name);
  }
}

TEST(CodecPinned, ReusedBufferKeepsItsStorage) {
  // encode_frame moves `out` through the writer and back: a buffer that
  // already holds the largest frame is reused, never reallocated.
  const auto all = samples();
  std::size_t largest = 0;
  for (const Sample& s : all) largest = std::max(largest, encode_ok(s.frame).size());
  std::vector<std::uint8_t> out;
  out.reserve(largest);
  const std::uint8_t* storage = out.data();
  for (const Sample& s : all) {
    ASSERT_TRUE(encode_frame(s.frame, out));
    EXPECT_EQ(out.data(), storage) << s.name;
    EXPECT_EQ(hex(out), s.hex) << s.name;
  }
}

/// Overwrites the little-endian u32 at `at` and reseals the frame.
std::vector<std::uint8_t> with_u32(std::vector<std::uint8_t> bytes, std::size_t at,
                                   std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    bytes[at + static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(v >> (8 * i));
  reseal(bytes);
  return bytes;
}

std::vector<std::uint8_t> sample_of(const char* name) {
  for (const Sample& s : samples()) {
    if (std::string{s.name} == name) return encode_ok(s.frame);
  }
  ADD_FAILURE() << "no sample " << name;
  return {};
}

constexpr std::size_t kBody = 57;  // first body byte (codec.hpp layout)

TEST(CodecReject, HostileElementCountsFailWithoutAllocating) {
  struct Case {
    const char* kind;
    std::size_t count_at;  ///< offset of the u32 element count
  };
  const Case cases[] = {
      {"aodv.rerr", kBody},                         // unreachable
      {"sts.beacon", kBody + 28},                   // neighbors
      {"sts.beacon", kBody + 28 + 4 + 4 * 3},       // tags
      {"ivs.propose", kBody + 21 + 4 + 2},          // evidence
  };
  for (const Case& c : cases) {
    const auto bytes = with_u32(sample_of(c.kind), c.count_at, 0xFFFFFFFFu);
    DecodeResult r;
    EXPECT_NO_THROW(r = decode_frame(bytes)) << c.kind << " @" << c.count_at;
    EXPECT_EQ(r.error, DecodeError::kBadBody) << c.kind << " @" << c.count_at;
  }
}

TEST(CodecReject, NonCanonicalFramesRejected) {
  // A frame decodes only if re-encoding it reproduces its bytes.
  auto rreq = sample_of("aodv.rreq");
  rreq[kBody + 20] = 2;  // dest_seq_known is a strict 0/1 flag
  reseal(rreq);
  EXPECT_EQ(decode_frame(rreq).error, DecodeError::kBadBody);

  auto flags = sample_of("aodv.rreq");
  flags[10] |= 1u << 2;  // only the ack and corrupted bits are defined
  reseal(flags);
  EXPECT_EQ(decode_frame(flags).error, DecodeError::kBadBody);

  auto ack = sample_of("mac.ack");
  ack.insert(ack.end() - 4, {1, 2, 3, 4});  // a body on a body-less kind
  ack = with_u32(ack, 4, static_cast<std::uint32_t>(ack.size()));
  EXPECT_EQ(decode_frame(ack).error, DecodeError::kBadBody);
}

TEST(CodecReject, BitFlipSweepIsCanonicalAndNeverThrows) {
  // Every single-bit flip of every sample, resealed so it reaches the header
  // and body parsers (flips in total_len are left unsealed: a lying length).
  // Whatever decodes must re-encode to exactly the bytes it came from.
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (const Sample& s : samples()) {
    const auto bytes = encode_ok(s.frame);
    for (std::size_t at = 0; at + 4 < bytes.size(); ++at) {
      for (int bit = 0; bit < 8; ++bit) {
        auto mutated = bytes;
        mutated[at] ^= static_cast<std::uint8_t>(1u << bit);
        if (at < 4 || at >= 8) reseal(mutated);
        DecodeResult r;
        ASSERT_NO_THROW(r = decode_frame(mutated)) << s.name << " byte " << at << " bit " << bit;
        if (!r) {
          ++rejected;
          continue;
        }
        ++accepted;
        std::vector<std::uint8_t> again;
        ASSERT_TRUE(encode_frame(r.frame, again)) << s.name << " byte " << at;
        EXPECT_EQ(hex(again), hex({mutated.begin(), mutated.begin() +
                                                        static_cast<std::ptrdiff_t>(r.consumed)}))
            << s.name << " byte " << at << " bit " << bit;
      }
    }
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(CodecNames, Stable) {
  EXPECT_STREQ(wire_kind_name(WireKind::kAodvRreq), "aodv.rreq");
  EXPECT_STREQ(wire_kind_name(WireKind::kDiffNotification), "diff.notification");
  EXPECT_STREQ(decode_error_name(DecodeError::kBadChecksum), "bad_checksum");
}

}  // namespace
}  // namespace icc::net
