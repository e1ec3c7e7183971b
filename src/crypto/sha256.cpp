#include "crypto/sha256.hpp"

#include <bit>
#include <cstring>
#include <string>

#include "crypto/sha256_kernels.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define ICC_SHA256_HAVE_SHA_NI 1
#include <cpuid.h>
#include <immintrin.h>
#else
#define ICC_SHA256_HAVE_SHA_NI 0
#endif

namespace icc::crypto {

namespace {

constexpr std::array<std::uint32_t, 64> kK = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr std::uint32_t rotr(std::uint32_t x, int n) { return std::rotr(x, n); }

}  // namespace

namespace sha256_kernels {

void compress_portable(State& state, const std::uint8_t* blocks, std::size_t n) {
  for (const std::uint8_t* block = blocks; n > 0; --n, block += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (std::uint32_t{block[4 * i]} << 24) | (std::uint32_t{block[4 * i + 1]} << 16) |
             (std::uint32_t{block[4 * i + 2]} << 8) | std::uint32_t{block[4 * i + 3]};
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t t1 = h + s1 + ch + kK[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t t2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#if ICC_SHA256_HAVE_SHA_NI
namespace {

// Intel's SHA-256 instruction flow: the state lives as ABEF/CDGH lane
// pairs; each 4-round group adds K to four schedule words and runs two
// sha256rnds2 steps, while sha256msg1/msg2 extend the schedule four words at
// a time (group g+4 = msg2(msg1(g, g+1) + words 4g+9..4g+12, g+3)).
__attribute__((target("sha,sse4.1,ssse3"))) void compress_sha_ni(State& state,
                                                                  const std::uint8_t* blocks,
                                                                  std::size_t n) {
  // Byte order within each 32-bit word: big-endian message, little-endian lanes.
  const __m128i bswap = _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));    // ABCD
  __m128i cdgh = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));   // EFGH
  tmp = _mm_shuffle_epi32(tmp, 0xB1);                                            // CDAB
  cdgh = _mm_shuffle_epi32(cdgh, 0x1B);                                          // HGFE
  __m128i abef = _mm_alignr_epi8(tmp, cdgh, 8);                                  // ABEF
  cdgh = _mm_blend_epi16(cdgh, tmp, 0xF0);                                       // CDGH

  for (; n > 0; --n, blocks += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i w[4]{};
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      if (g < 4) {
        w[g] = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 16 * g)), bswap);
      }
      __m128i m = _mm_add_epi32(
          w[g & 3], _mm_loadu_si128(reinterpret_cast<const __m128i*>(&kK[4 * g])));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, m);
      if (g >= 3 && g <= 14) {  // finish group g+1 from msg1(g-3, g-2)
        __m128i& next = w[(g + 1) & 3];
        next = _mm_add_epi32(next, _mm_alignr_epi8(w[g & 3], w[(g - 1) & 3], 4));
        next = _mm_sha256msg2_epu32(next, w[g & 3]);
      }
      m = _mm_shuffle_epi32(m, 0x0E);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, m);
      if (g >= 1 && g <= 12) w[(g - 1) & 3] = _mm_sha256msg1_epu32(w[(g - 1) & 3], w[g & 3]);
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  tmp = _mm_shuffle_epi32(abef, 0x1B);      // FEBA
  cdgh = _mm_shuffle_epi32(cdgh, 0xB1);     // DCHG
  abef = _mm_blend_epi16(tmp, cdgh, 0xF0);  // DCBA
  cdgh = _mm_alignr_epi8(cdgh, tmp, 8);     // HGFE
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]), abef);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]), cdgh);
}

}  // namespace
#endif

Kernel hardware_kernel() {
#if ICC_SHA256_HAVE_SHA_NI
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (__get_cpuid(1, &a, &b, &c, &d) == 0) return nullptr;
  const bool sse41 = (c & bit_SSE4_1) != 0;
  const bool ssse3 = (c & bit_SSSE3) != 0;
  if (__get_cpuid_count(7, 0, &a, &b, &c, &d) == 0) return nullptr;
  const bool sha = (b & bit_SHA) != 0;
  return sse41 && ssse3 && sha ? compress_sha_ni : nullptr;
#else
  return nullptr;
#endif
}

void compress(State& state, const std::uint8_t* blocks, std::size_t n) {
  static const Kernel kernel = [] {
    const Kernel hw = hardware_kernel();
    return hw != nullptr ? hw : compress_portable;
  }();
  kernel(state, blocks, n);
}

}  // namespace sha256_kernels

void Sha256::reset() {
  state_ = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  total_len_ = 0;
  buffer_len_ = 0;
}

void Sha256::update(std::span<const std::uint8_t> data) {
  total_len_ += data.size();
  std::size_t off = 0;
  if (buffer_len_ > 0) {
    const std::size_t take = std::min(data.size(), 64 - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, data.data(), take);
    buffer_len_ += take;
    off = take;
    if (buffer_len_ == 64) {
      sha256_kernels::compress(state_, buffer_.data(), 1);
      buffer_len_ = 0;
    }
  }
  if (const std::size_t blocks = (data.size() - off) / 64; blocks > 0) {
    sha256_kernels::compress(state_, data.data() + off, blocks);
    off += blocks * 64;
  }
  if (off < data.size()) {
    std::memcpy(buffer_.data(), data.data() + off, data.size() - off);
    buffer_len_ = data.size() - off;
  }
}

Digest Sha256::finish() {
  // update() flushes full blocks, so at least one byte of the buffer is free
  // for the 0x80 marker. The 8-byte length needs its own block when the
  // marker lands past byte 55.
  const std::uint64_t bit_len = total_len_ * 8;
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    std::memset(buffer_.data() + buffer_len_, 0, 64 - buffer_len_);
    sha256_kernels::compress(state_, buffer_.data(), 1);
    buffer_len_ = 0;
  }
  std::memset(buffer_.data() + buffer_len_, 0, 56 - buffer_len_);
  for (int i = 0; i < 8; ++i) {
    buffer_[56 + static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  }
  sha256_kernels::compress(state_, buffer_.data(), 1);
  Digest out{};
  for (int i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<std::uint8_t>(state_[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  reset();
  return out;
}

Digest Sha256::hash(std::span<const std::uint8_t> data) {
  Sha256 ctx;
  ctx.update(data);
  return ctx.finish();
}

Digest Sha256::hash(std::string_view s) {
  Sha256 ctx;
  ctx.update(s);
  return ctx.finish();
}

std::string to_hex(const Digest& d) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(64);
  for (std::uint8_t b : d) {
    out.push_back(kHex[b >> 4]);
    out.push_back(kHex[b & 0xf]);
  }
  return out;
}

}  // namespace icc::crypto
