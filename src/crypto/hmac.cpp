#include "crypto/hmac.hpp"

#include <array>
#include <cstring>

namespace icc::crypto {

HmacKey::HmacKey(std::span<const std::uint8_t> key) {
  std::array<std::uint8_t, 64> block{};
  if (key.size() > 64) {
    const Digest kd = Sha256::hash(key);
    std::memcpy(block.data(), kd.data(), kd.size());
  } else {
    std::memcpy(block.data(), key.data(), key.size());
  }

  for (std::uint8_t& b : block) b ^= 0x36;
  Sha256 inner;
  inner.update(std::span<const std::uint8_t>{block});
  inner_ = inner.state();

  for (std::uint8_t& b : block) b ^= 0x36 ^ 0x5c;  // K⊕ipad -> K⊕opad
  Sha256 outer;
  outer.update(std::span<const std::uint8_t>{block});
  outer_ = outer.state();
}

Digest HmacKey::mac(std::span<const std::uint8_t> msg) const {
  Sha256 inner{inner_, 1};
  inner.update(msg);
  const Digest inner_digest = inner.finish();

  Sha256 outer{outer_, 1};
  outer.update(std::span<const std::uint8_t>{inner_digest});
  return outer.finish();
}

Digest hmac_sha256(std::span<const std::uint8_t> key, std::span<const std::uint8_t> msg) {
  return HmacKey{key}.mac(msg);
}

Digest hmac_sha256(const Digest& key, std::string_view msg) {
  return HmacKey{key}.mac(msg);
}

Digest hmac_sha256(const Digest& key, std::span<const std::uint8_t> msg) {
  return HmacKey{key}.mac(msg);
}

bool digest_equal(const Digest& a, const Digest& b) noexcept {
  unsigned diff = 0;
  for (std::size_t i = 0; i < a.size(); ++i) diff |= static_cast<unsigned>(a[i] ^ b[i]);
  return diff == 0;
}

}  // namespace icc::crypto
