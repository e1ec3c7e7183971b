// HMAC-SHA256 (RFC 2104). Used for authenticated STS beacons, session-key
// MACs after the NS-Lowe handshake, and the simulation-grade signature
// scheme's share tags.
#pragma once

#include <span>
#include <string_view>

#include "crypto/sha256.hpp"

namespace icc::crypto {

/// A key's HMAC-SHA256 schedule: the SHA-256 chaining states after the
/// K⊕ipad and K⊕opad blocks. Both depend on the key alone, so a key used for
/// many messages compresses its pads once here, and each mac() costs only
/// the message's own blocks plus the outer block — 3 compressions instead
/// of 5 for a beacon-sized message.
class HmacKey {
 public:
  explicit HmacKey(std::span<const std::uint8_t> key);
  explicit HmacKey(const Digest& key) : HmacKey{std::span<const std::uint8_t>{key}} {}

  [[nodiscard]] Digest mac(std::span<const std::uint8_t> msg) const;
  [[nodiscard]] Digest mac(std::string_view msg) const {
    return mac(std::span{reinterpret_cast<const std::uint8_t*>(msg.data()), msg.size()});
  }

 private:
  Sha256::State inner_{};
  Sha256::State outer_{};
};

/// HMAC-SHA256 of `msg` under `key`.
Digest hmac_sha256(std::span<const std::uint8_t> key, std::span<const std::uint8_t> msg);

/// Convenience for digest-sized keys and string messages.
Digest hmac_sha256(const Digest& key, std::string_view msg);
Digest hmac_sha256(const Digest& key, std::span<const std::uint8_t> msg);

/// Constant-time-style digest comparison (simulation does not need the
/// timing guarantee, but the idiom is kept for fidelity).
bool digest_equal(const Digest& a, const Digest& b) noexcept;

}  // namespace icc::crypto
