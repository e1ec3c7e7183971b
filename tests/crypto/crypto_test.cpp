// Tests for SHA-256 / HMAC, prime generation, RSA, Shamir sharing, Shoup
// threshold RSA, the two ThresholdScheme implementations, and NS-Lowe.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <random>

#include "crypto/hmac.hpp"
#include "crypto/model_scheme.hpp"
#include "crypto/ns_lowe.hpp"
#include "crypto/pki.hpp"
#include "crypto/prime.hpp"
#include "crypto/rsa.hpp"
#include "crypto/shamir.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sha256_kernels.hpp"
#include "crypto/shoup_scheme.hpp"
#include "crypto/threshold_rsa.hpp"

namespace icc::crypto {
namespace {

WordSource words_from(std::mt19937_64& eng) {
  return [&eng] { return eng(); };
}

std::vector<std::uint8_t> bytes(std::string_view s) {
  return {s.begin(), s.end()};
}

std::span<const std::uint8_t> as_bytes(std::string_view s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

// ---------------------------------------------------------------- SHA-256

TEST(Sha256, Fips180KnownVectors) {
  EXPECT_EQ(to_hex(Sha256::hash("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(to_hex(Sha256::hash("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(to_hex(Sha256::hash("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, Fips180MillionA) {
  EXPECT_EQ(to_hex(Sha256::hash(std::string(1000000, 'a'))),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const std::string msg(1000, 'x');
  Sha256 ctx;
  for (std::size_t i = 0; i < msg.size(); i += 37) {
    ctx.update(std::string_view{msg}.substr(i, 37));
  }
  EXPECT_EQ(ctx.finish(), Sha256::hash(msg));
}

TEST(Sha256, LongMessagePaddingBoundaries) {
  // Lengths straddling the 55/56/64-byte padding boundaries must all work.
  for (std::size_t len : {55u, 56u, 57u, 63u, 64u, 65u, 119u, 120u}) {
    const std::string m(len, 'a');
    Sha256 a;
    a.update(m);
    const Digest d1 = a.finish();
    const Digest d2 = Sha256::hash(m);
    EXPECT_EQ(d1, d2) << len;
  }
}

// ------------------------------------------------- SHA-256 compression kernels

namespace kernels = sha256_kernels;

// Pads `msg` (FIPS 180-4 §5.1.1) and hashes it with `kernel` alone, so a
// kernel is checked against the published vectors without Sha256's own
// buffering in between.
std::string hash_with(kernels::Kernel kernel, std::string_view msg) {
  std::vector<std::uint8_t> padded{msg.begin(), msg.end()};
  padded.push_back(0x80);
  while (padded.size() % 64 != 56) padded.push_back(0);
  const std::uint64_t bits = std::uint64_t{msg.size()} * 8;
  for (int i = 7; i >= 0; --i) padded.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
  Sha256::State state = Sha256{}.state();  // the FIPS 180-4 initial hash value
  kernel(state, padded.data(), padded.size() / 64);
  Digest out{};
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t b = 0; b < 4; ++b) {
      out[4 * i + b] = static_cast<std::uint8_t>(state[i] >> (24 - 8 * b));
    }
  }
  return to_hex(out);
}

void expect_fips_vectors(kernels::Kernel kernel) {
  EXPECT_EQ(hash_with(kernel, ""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(hash_with(kernel, "abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(hash_with(kernel, "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  EXPECT_EQ(hash_with(kernel, std::string(1000000, 'a')),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

Sha256::State random_state(std::mt19937_64& eng) {
  Sha256::State s{};
  for (std::uint32_t& w : s) w = static_cast<std::uint32_t>(eng());
  return s;
}

std::vector<std::uint8_t> random_blocks(std::mt19937_64& eng, std::size_t n) {
  std::vector<std::uint8_t> out(64 * n);
  for (std::uint8_t& b : out) b = static_cast<std::uint8_t>(eng());
  return out;
}

// Where hardware_kernel() is null the hardware tests skip, visibly: every
// hash then runs the portable kernel, which PortableFips180Vectors and the
// Sha256/Hmac vector tests cover.
constexpr const char* kNoHardwareKernel =
    "no SHA-256 hardware kernel on this CPU/build; the portable kernel is in use";

TEST(Sha256Kernel, PortableFips180Vectors) { expect_fips_vectors(kernels::compress_portable); }

TEST(Sha256Kernel, HardwareFips180Vectors) {
  const kernels::Kernel hw = kernels::hardware_kernel();
  if (hw == nullptr) GTEST_SKIP() << kNoHardwareKernel;
  expect_fips_vectors(hw);
}

TEST(Sha256Kernel, HardwareMatchesPortableOnRandomBlocks) {
  const kernels::Kernel hw = kernels::hardware_kernel();
  if (hw == nullptr) GTEST_SKIP() << kNoHardwareKernel;
  std::mt19937_64 eng{20050628};
  for (int trial = 0; trial < 10000; ++trial) {
    const Sha256::State start = random_state(eng);
    const std::vector<std::uint8_t> block = random_blocks(eng, 1);
    Sha256::State want = start;
    kernels::compress_portable(want, block.data(), 1);
    Sha256::State got = start;
    hw(got, block.data(), 1);
    ASSERT_EQ(got, want) << "trial " << trial;
  }
}

TEST(Sha256Kernel, HardwareMatchesPortableOnMultiBlockRuns) {
  const kernels::Kernel hw = kernels::hardware_kernel();
  if (hw == nullptr) GTEST_SKIP() << kNoHardwareKernel;
  std::mt19937_64 eng{1208};
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 1 + static_cast<std::size_t>(eng() % 17);
    const Sha256::State start = random_state(eng);
    const std::vector<std::uint8_t> data = random_blocks(eng, n);
    Sha256::State want = start;
    kernels::compress_portable(want, data.data(), n);
    Sha256::State got = start;
    hw(got, data.data(), n);
    ASSERT_EQ(got, want) << "trial " << trial << ", " << n << " blocks";
  }
}

// ------------------------------------------------------------------- HMAC

TEST(Hmac, Rfc4231Vector1) {
  // Key = 20 bytes of 0x0b, data = "Hi There".
  std::vector<std::uint8_t> key(20, 0x0b);
  const auto mac = hmac_sha256(std::span<const std::uint8_t>{key},
                               std::span{reinterpret_cast<const std::uint8_t*>("Hi There"), 8});
  EXPECT_EQ(to_hex(mac), "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Vector2) {
  const auto mac = hmac_sha256(
      std::span{reinterpret_cast<const std::uint8_t*>("Jefe"), 4},
      std::span{reinterpret_cast<const std::uint8_t*>("what do ya want for nothing?"), 28});
  EXPECT_EQ(to_hex(mac), "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231Vector3) {
  const std::vector<std::uint8_t> key(20, 0xaa);
  const std::vector<std::uint8_t> data(50, 0xdd);
  EXPECT_EQ(to_hex(hmac_sha256(key, data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(Hmac, Rfc4231Vector4) {
  std::vector<std::uint8_t> key;
  for (std::uint8_t b = 0x01; b <= 0x19; ++b) key.push_back(b);
  const std::vector<std::uint8_t> data(50, 0xcd);
  EXPECT_EQ(to_hex(hmac_sha256(key, data)),
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b");
}

TEST(Hmac, Rfc4231Vector5Truncated) {
  const std::vector<std::uint8_t> key(20, 0x0c);
  const std::string mac = to_hex(hmac_sha256(key, as_bytes("Test With Truncation")));
  EXPECT_EQ(mac.substr(0, 32), "a3b6167473100ee06e0c796c2955552b");  // first 128 bits
}

TEST(Hmac, Rfc4231Vector6LongKey) {
  const std::vector<std::uint8_t> key(131, 0xaa);  // > block size: hashed first
  EXPECT_EQ(to_hex(hmac_sha256(key, as_bytes("Test Using Larger Than Block-Size Key - "
                                              "Hash Key First"))),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(Hmac, Rfc4231Vector7LongKeyLongData) {
  const std::vector<std::uint8_t> key(131, 0xaa);
  EXPECT_EQ(to_hex(hmac_sha256(
                key, as_bytes("This is a test using a larger than block-size key and a "
                              "larger than block-size data. The key needs to be hashed "
                              "before being used by the HMAC algorithm."))),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2");
}

TEST(Hmac, KeyScheduleMatchesTextbookTwoPass) {
  // H((K ^ opad) || H((K ^ ipad) || m)) spelled out with one-shot hashes,
  // against the cached-midstate HmacKey, for every message length up to 200
  // bytes (covers the 55/56/63/64/119/120-byte padding edges of both the
  // inner and the resumed hash) and for short, block-sized and hashed keys.
  for (const std::size_t key_len : {std::size_t{32}, std::size_t{64}, std::size_t{100}}) {
    std::vector<std::uint8_t> key(key_len);
    for (std::size_t i = 0; i < key_len; ++i) key[i] = static_cast<std::uint8_t>(7 * i + 1);
    std::array<std::uint8_t, 64> block{};
    if (key_len > 64) {
      const Digest kd = Sha256::hash(key);
      std::copy(kd.begin(), kd.end(), block.begin());
    } else {
      std::copy(key.begin(), key.end(), block.begin());
    }
    const HmacKey schedule{key};
    std::vector<std::uint8_t> msg;
    for (std::size_t len = 0; len <= 200; ++len) {
      std::vector<std::uint8_t> inner;
      for (const std::uint8_t b : block) inner.push_back(static_cast<std::uint8_t>(b ^ 0x36));
      inner.insert(inner.end(), msg.begin(), msg.end());
      const Digest inner_digest = Sha256::hash(inner);
      std::vector<std::uint8_t> outer;
      for (const std::uint8_t b : block) outer.push_back(static_cast<std::uint8_t>(b ^ 0x5c));
      outer.insert(outer.end(), inner_digest.begin(), inner_digest.end());
      EXPECT_EQ(schedule.mac(msg), Sha256::hash(outer)) << "key " << key_len << " len " << len;
      msg.push_back(static_cast<std::uint8_t>(len * 31 + 5));
    }
  }
}

TEST(Hmac, DifferentKeysDiffer) {
  Digest k1{};
  Digest k2{};
  k2[0] = 1;
  EXPECT_FALSE(digest_equal(hmac_sha256(k1, "m"), hmac_sha256(k2, "m")));
}

// ------------------------------------------------------------------ Prime

TEST(Prime, SmallKnownPrimes) {
  std::mt19937_64 eng{1};
  for (std::uint64_t p : {2ull, 3ull, 5ull, 65537ull, (1ull << 61) - 1}) {
    EXPECT_TRUE(is_probable_prime(Bignum{p}, 20, words_from(eng))) << p;
  }
  for (std::uint64_t c : {1ull, 4ull, 9ull, 65536ull, 561ull /*Carmichael*/}) {
    EXPECT_FALSE(is_probable_prime(Bignum{c}, 20, words_from(eng))) << c;
  }
}

TEST(Prime, GeneratedPrimesHaveRequestedWidth) {
  std::mt19937_64 eng{2};
  for (int bits : {64, 128, 256}) {
    const Bignum p = random_prime(bits, words_from(eng));
    EXPECT_EQ(p.bit_length(), bits);
    EXPECT_TRUE(is_probable_prime(p, 20, words_from(eng)));
  }
}

// -------------------------------------------------------------------- RSA

TEST(Rsa, SignVerifyRoundTrip) {
  std::mt19937_64 eng{3};
  const RsaKeyPair key = rsa_generate(512, words_from(eng));
  const auto msg = bytes("route reply for destination 42");
  const Bignum sigma = rsa_sign(key, msg);
  EXPECT_TRUE(rsa_verify(key.pub, msg, sigma));
  EXPECT_FALSE(rsa_verify(key.pub, bytes("tampered"), sigma));
}

TEST(Rsa, EncryptDecryptRoundTrip) {
  std::mt19937_64 eng{4};
  const RsaKeyPair key = rsa_generate(512, words_from(eng));
  const Bignum m = Bignum::from_hex("123456789abcdef");
  EXPECT_EQ(rsa_decrypt(key, rsa_encrypt(key.pub, m)), m);
}

TEST(Rsa, HashToGroupInRange) {
  std::mt19937_64 eng{5};
  const RsaKeyPair key = rsa_generate(256, words_from(eng));
  for (int i = 0; i < 20; ++i) {
    const auto msg = bytes("m" + std::to_string(i));
    const Bignum h = hash_to_group(msg, key.pub.n);
    EXPECT_LT(Bignum::cmp(h, key.pub.n), 0);
    EXPECT_FALSE(h.is_zero());
  }
}

// ----------------------------------------------------------------- Shamir

TEST(Shamir, ReconstructFromExactThreshold) {
  std::mt19937_64 eng{6};
  const Bignum prime = random_prime(128, words_from(eng));
  const Bignum secret = Bignum::mod(Bignum::random_bits(100, words_from(eng)), prime);
  const auto shares = shamir_share(secret, prime, 7, 4, words_from(eng));
  // Any 4 shares reconstruct.
  std::vector<ShamirShare> subset{shares[1], shares[3], shares[5], shares[6]};
  EXPECT_EQ(shamir_reconstruct(subset, prime), secret);
}

TEST(Shamir, AllShareSubsetsOfThresholdSizeAgree) {
  std::mt19937_64 eng{7};
  const Bignum prime = random_prime(64, words_from(eng));
  const Bignum secret{123456789};
  const auto shares = shamir_share(secret, prime, 5, 3, words_from(eng));
  for (std::size_t a = 0; a < 5; ++a) {
    for (std::size_t b = a + 1; b < 5; ++b) {
      for (std::size_t c = b + 1; c < 5; ++c) {
        std::vector<ShamirShare> subset{shares[a], shares[b], shares[c]};
        EXPECT_EQ(shamir_reconstruct(subset, prime), secret);
      }
    }
  }
}

TEST(Shamir, BelowThresholdReconstructsWrongValue) {
  std::mt19937_64 eng{8};
  const Bignum prime = random_prime(64, words_from(eng));
  const Bignum secret{42};
  const auto shares = shamir_share(secret, prime, 5, 3, words_from(eng));
  std::vector<ShamirShare> subset{shares[0], shares[1]};
  // Two shares interpolate a line, not the cubic-free polynomial: with
  // overwhelming probability the result differs from the secret.
  EXPECT_NE(shamir_reconstruct(subset, prime), secret);
}

TEST(Shamir, DuplicateIndexThrows) {
  std::mt19937_64 eng{9};
  const Bignum prime = random_prime(64, words_from(eng));
  const auto shares = shamir_share(Bignum{1}, prime, 3, 2, words_from(eng));
  std::vector<ShamirShare> dup{shares[0], shares[0]};
  EXPECT_THROW(shamir_reconstruct(dup, prime), std::invalid_argument);
}

// ---------------------------------------------------------- Threshold RSA

TEST(ThresholdRsa, CombineExactThreshold) {
  std::mt19937_64 eng{10};
  const ThresholdRsa trsa = ThresholdRsa::deal(512, 5, 3, words_from(eng));
  const auto msg = bytes("agreed value v at level L");
  std::vector<ThresholdRsa::PartialSignature> partials;
  for (std::uint32_t i : {0u, 2u, 4u}) {
    partials.push_back(trsa.partial_sign(trsa.share(i), msg));
  }
  const auto sigma = trsa.combine(partials, msg);
  ASSERT_TRUE(sigma.has_value());
  EXPECT_TRUE(trsa.verify(msg, *sigma));
  EXPECT_FALSE(trsa.verify(bytes("other message"), *sigma));
}

TEST(ThresholdRsa, AnySubsetCombines) {
  std::mt19937_64 eng{11};
  const ThresholdRsa trsa = ThresholdRsa::deal(512, 4, 2, words_from(eng));
  const auto msg = bytes("m");
  for (std::uint32_t a = 0; a < 4; ++a) {
    for (std::uint32_t b = a + 1; b < 4; ++b) {
      std::vector<ThresholdRsa::PartialSignature> partials{
          trsa.partial_sign(trsa.share(a), msg), trsa.partial_sign(trsa.share(b), msg)};
      const auto sigma = trsa.combine(partials, msg);
      ASSERT_TRUE(sigma.has_value()) << a << "," << b;
      EXPECT_TRUE(trsa.verify(msg, *sigma));
    }
  }
}

TEST(ThresholdRsa, TooFewPartialsFails) {
  std::mt19937_64 eng{12};
  const ThresholdRsa trsa = ThresholdRsa::deal(512, 5, 3, words_from(eng));
  const auto msg = bytes("m");
  std::vector<ThresholdRsa::PartialSignature> partials{
      trsa.partial_sign(trsa.share(0), msg), trsa.partial_sign(trsa.share(1), msg)};
  EXPECT_FALSE(trsa.combine(partials, msg).has_value());
}

TEST(ThresholdRsa, DuplicatePartialsDoNotCount) {
  std::mt19937_64 eng{13};
  const ThresholdRsa trsa = ThresholdRsa::deal(512, 5, 3, words_from(eng));
  const auto msg = bytes("m");
  const auto p0 = trsa.partial_sign(trsa.share(0), msg);
  std::vector<ThresholdRsa::PartialSignature> partials{p0, p0, p0};
  EXPECT_FALSE(trsa.combine(partials, msg).has_value());
}

TEST(ThresholdRsa, CorruptPartialDetected) {
  std::mt19937_64 eng{14};
  const ThresholdRsa trsa = ThresholdRsa::deal(512, 4, 2, words_from(eng));
  const auto msg = bytes("m");
  auto p0 = trsa.partial_sign(trsa.share(0), msg);
  auto p1 = trsa.partial_sign(trsa.share(1), msg);
  p1.value = Bignum::add_u64(p1.value, 1);  // Byzantine voter
  std::vector<ThresholdRsa::PartialSignature> partials{p0, p1};
  EXPECT_FALSE(trsa.combine(partials, msg).has_value());
}

// ------------------------------------------------------- ThresholdScheme

class SchemeTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    eng_.seed(99);
    if (GetParam()) {
      scheme_ = std::make_unique<ShoupThresholdScheme>(384, 6, 2, words_from(eng_));
    } else {
      scheme_ = std::make_unique<ModelThresholdScheme>(99, 2, 1024);
    }
    for (std::uint32_t i = 0; i < 6; ++i) signers_.push_back(scheme_->issue_signer(i));
  }

  std::mt19937_64 eng_;
  std::unique_ptr<ThresholdScheme> scheme_;
  std::vector<std::unique_ptr<ThresholdSigner>> signers_;
};

TEST_P(SchemeTest, LevelOneNeedsTwoSigners) {
  const auto msg = bytes("RREP for D");
  std::vector<PartialSig> partials{signers_[0]->partial_sign(1, msg)};
  EXPECT_FALSE(scheme_->combine(1, msg, partials).has_value());
  partials.push_back(signers_[1]->partial_sign(1, msg));
  const auto sig = scheme_->combine(1, msg, partials);
  ASSERT_TRUE(sig.has_value());
  EXPECT_TRUE(scheme_->verify(msg, *sig));
}

TEST_P(SchemeTest, LevelTwoNeedsThreeSigners) {
  const auto msg = bytes("sensor notification");
  std::vector<PartialSig> partials{signers_[0]->partial_sign(2, msg),
                                   signers_[1]->partial_sign(2, msg)};
  EXPECT_FALSE(scheme_->combine(2, msg, partials).has_value());
  partials.push_back(signers_[2]->partial_sign(2, msg));
  const auto sig = scheme_->combine(2, msg, partials);
  ASSERT_TRUE(sig.has_value());
  EXPECT_TRUE(scheme_->verify(msg, *sig));
}

TEST_P(SchemeTest, CrossLevelPartialsRejected) {
  const auto msg = bytes("m");
  // Two level-1 partials plus a level-2 partial must not make a level-2 sig.
  std::vector<PartialSig> partials{signers_[0]->partial_sign(1, msg),
                                   signers_[1]->partial_sign(1, msg),
                                   signers_[2]->partial_sign(2, msg)};
  EXPECT_FALSE(scheme_->combine(2, msg, partials).has_value());
}

TEST_P(SchemeTest, SignatureBoundToMessage) {
  const auto msg = bytes("v=42");
  std::vector<PartialSig> partials{signers_[0]->partial_sign(1, msg),
                                   signers_[1]->partial_sign(1, msg)};
  const auto sig = scheme_->combine(1, msg, partials);
  ASSERT_TRUE(sig.has_value());
  EXPECT_FALSE(scheme_->verify(bytes("v=43"), *sig));
}

TEST_P(SchemeTest, PartialVerification) {
  const auto msg = bytes("m");
  PartialSig good = signers_[3]->partial_sign(1, msg);
  EXPECT_TRUE(scheme_->verify_partial(msg, good));
  PartialSig forged = good;
  forged.signer = 4;  // claims to be someone else
  EXPECT_FALSE(scheme_->verify_partial(msg, forged));
  PartialSig tampered = good;
  tampered.data[0] ^= 0xff;
  EXPECT_FALSE(scheme_->verify_partial(msg, tampered));
}

TEST_P(SchemeTest, OnAirSizesArePositive) {
  EXPECT_GT(scheme_->partial_sig_bytes(), 0u);
  EXPECT_GT(scheme_->signature_bytes(), 0u);
}

// A dealer that never issued signer `i` derives its keys on the fly and must
// reach the same verdicts as the dealer that issued it.
TEST(ModelScheme, UnissuedSignerVerifiedByDerivation) {
  ModelThresholdScheme issuer{99, 2, 1024};
  std::vector<std::unique_ptr<ThresholdSigner>> signers;
  for (std::uint32_t i = 0; i < 3; ++i) signers.push_back(issuer.issue_signer(i));
  ModelThresholdScheme fresh{99, 2, 1024};
  (void)fresh.issue_signer(0);  // a table that holds other ids, not signer 2

  const auto msg = bytes("RREP for D");
  const PartialSig good = signers[2]->partial_sign(2, msg);
  EXPECT_TRUE(fresh.verify_partial(msg, good));
  PartialSig tampered = good;
  tampered.data[5] ^= 0x01;
  EXPECT_FALSE(fresh.verify_partial(msg, tampered));
  PartialSig out_of_range = good;
  out_of_range.level = 3;
  EXPECT_FALSE(fresh.verify_partial(msg, out_of_range));

  std::vector<PartialSig> partials;
  for (const auto& s : signers) partials.push_back(s->partial_sign(2, msg));
  const auto sig = issuer.combine(2, msg, partials);
  ASSERT_TRUE(sig.has_value());
  const auto fresh_sig = fresh.combine(2, msg, partials);
  ASSERT_TRUE(fresh_sig.has_value());
  EXPECT_EQ(fresh_sig->data, sig->data);
  EXPECT_TRUE(fresh.verify(msg, *sig));
  ThresholdSignature tampered_sig = *sig;
  tampered_sig.data[0] ^= 0x80;
  EXPECT_FALSE(fresh.verify(msg, tampered_sig));
  ThresholdSignature wrong_level = *sig;
  wrong_level.level = 3;
  EXPECT_FALSE(fresh.verify(msg, wrong_level));
  wrong_level.level = 0;
  EXPECT_FALSE(fresh.verify(msg, wrong_level));
}

TEST(ModelPki, UnissuedNodeVerifiedByDerivation) {
  ModelPki issuer{42, 1024};
  const auto signer = issuer.issue_signer(7);
  ModelPki fresh{42, 1024};
  (void)fresh.issue_signer(1);

  const auto msg = bytes("value message");
  const auto sig = signer->sign(msg);
  EXPECT_TRUE(issuer.verify(7, msg, sig));
  EXPECT_TRUE(fresh.verify(7, msg, sig));
  auto tampered = sig;
  tampered[3] ^= 0x10;
  EXPECT_FALSE(fresh.verify(7, msg, tampered));
  EXPECT_FALSE(fresh.verify(1, msg, sig));  // issued id, wrong key
  EXPECT_FALSE(fresh.verify(8, msg, sig));  // unissued id, wrong key
}

INSTANTIATE_TEST_SUITE_P(ModelAndShoup, SchemeTest, ::testing::Values(false, true),
                         [](const auto& info) { return info.param ? "Shoup" : "Model"; });

// ---------------------------------------------------------------- NS-Lowe

class NslTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    eng_.seed(123);
    if (GetParam()) {
      cipher_ = std::make_unique<RsaCipher>(384, 4, words_from(eng_));
    } else {
      cipher_ = std::make_unique<ModelCipher>();
    }
  }
  Nonce nonce(std::uint8_t fill) {
    Nonce n{};
    n.fill(fill);
    n[0] = static_cast<std::uint8_t>(eng_());
    return n;
  }
  std::mt19937_64 eng_;
  std::unique_ptr<AsymmetricCipher> cipher_;
};

TEST_P(NslTest, HandshakeEstablishesSharedKey) {
  NslSession alice = NslSession::initiate(0, 1, nonce(0xaa));
  const Ciphertext m1 = alice.message1(*cipher_);
  auto bob = NslSession::respond(1, m1, nonce(0xbb), *cipher_);
  ASSERT_TRUE(bob.has_value());
  EXPECT_EQ(bob->peer(), 0u);
  const Ciphertext m2 = bob->message2(*cipher_);
  const auto m3 = alice.on_message2(m2, *cipher_);
  ASSERT_TRUE(m3.has_value());
  EXPECT_TRUE(bob->on_message3(*m3, *cipher_));
  EXPECT_TRUE(alice.complete());
  EXPECT_TRUE(bob->complete());
  EXPECT_TRUE(digest_equal(alice.session_key(), bob->session_key()));
}

TEST_P(NslTest, LoweFixRejectsIdentityMismatch) {
  // Classic Lowe attack shape: Alice initiates to Mallory (2); Mallory
  // replays message 1 to Bob (1); Bob's message 2 names Bob, so Alice —
  // who believes she talks to Mallory — must reject it.
  NslSession alice = NslSession::initiate(0, 2, nonce(0x01));
  const Ciphertext m1_to_mallory = alice.message1(*cipher_);
  // Mallory decrypts (it is addressed to her) and re-encrypts to Bob.
  const auto inner = cipher_->decrypt(2, m1_to_mallory);
  ASSERT_TRUE(inner.has_value());
  const Ciphertext m1_to_bob{1, *inner};
  const Ciphertext replayed = cipher_->encrypt(1, *inner);
  auto bob = NslSession::respond(1, replayed, nonce(0x02), *cipher_);
  ASSERT_TRUE(bob.has_value());
  const Ciphertext m2 = bob->message2(*cipher_);
  // Alice must reject: message 2 names node 1, she expected node 2.
  EXPECT_FALSE(alice.on_message2(m2, *cipher_).has_value());
  (void)m1_to_bob;
}

TEST_P(NslTest, WrongNonceRejected) {
  NslSession alice = NslSession::initiate(0, 1, nonce(0x05));
  const Ciphertext m1 = alice.message1(*cipher_);
  auto bob = NslSession::respond(1, m1, nonce(0x06), *cipher_);
  ASSERT_TRUE(bob.has_value());
  const Ciphertext m2 = bob->message2(*cipher_);
  const auto m3 = alice.on_message2(m2, *cipher_);
  ASSERT_TRUE(m3.has_value());
  // Garbled message 3: re-encrypt a wrong nonce.
  std::vector<std::uint8_t> wrong(16, 0x77);
  EXPECT_FALSE(bob->on_message3(cipher_->encrypt(1, wrong), *cipher_));
}

TEST_P(NslTest, DecryptOnlyByOwner) {
  const Ciphertext ct = cipher_->encrypt(1, bytes("secret"));
  EXPECT_FALSE(cipher_->decrypt(0, ct).has_value());
  EXPECT_TRUE(cipher_->decrypt(1, ct).has_value());
}

INSTANTIATE_TEST_SUITE_P(ModelAndRsa, NslTest, ::testing::Values(false, true),
                         [](const auto& info) { return info.param ? "Rsa" : "Model"; });

}  // namespace
}  // namespace icc::crypto
