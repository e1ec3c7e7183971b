// Simulation-grade threshold signature scheme.
//
// The dealer derives master key K_L = HMAC(seed, L) per level and node
// shares S_{L,i} = HMAC(K_L, i). A partial signature is HMAC(S_{L,i}, msg);
// the combine/verify operations recompute tags with the dealer's keys. In a
// simulation the ModelThresholdScheme instance *is* the mathematics: a node
// can only produce the partial tag for ids whose ThresholdSigner it holds,
// so the protocol-visible guarantees match real threshold RSA — forging a
// level-L signature requires L+1 distinct compromised signers.
//
// The dealer's keys are derived at set-up — the masters in the constructor,
// each signer's shares in issue_signer — and kept as HMAC key schedules, so
// a verify is one lookup plus one tag. Only those two write the key tables,
// so the const operations only read them and are safe to call from
// parallel workers; a share for an id that was never issued is derived on
// the fly, with the same result.
//
// Reported on-air sizes follow the configured RSA key length so that
// bandwidth and energy accounting match a real deployment (paper uses
// 1024-bit keys for AODV, 512-bit for the sensor study).
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "crypto/hmac.hpp"
#include "crypto/scheme.hpp"

namespace icc::crypto {

class ModelThresholdScheme final : public ThresholdScheme {
 public:
  /// `key_bits` only affects the reported on-air signature sizes.
  ModelThresholdScheme(std::uint64_t seed, int max_level, int key_bits);

  [[nodiscard]] int max_level() const override { return max_level_; }
  [[nodiscard]] std::unique_ptr<ThresholdSigner> issue_signer(std::uint32_t id) override;
  [[nodiscard]] bool verify_partial(std::span<const std::uint8_t> msg,
                                    const PartialSig& ps) const override;
  [[nodiscard]] std::optional<ThresholdSignature> combine(
      int level, std::span<const std::uint8_t> msg,
      std::span<const PartialSig> partials) const override;
  [[nodiscard]] bool verify(std::span<const std::uint8_t> msg,
                            const ThresholdSignature& sig) const override;
  [[nodiscard]] std::size_t partial_sig_bytes() const override { return sig_bytes_; }
  [[nodiscard]] std::size_t signature_bytes() const override { return sig_bytes_; }

 private:
  [[nodiscard]] const HmacKey& master_key(int level) const;
  /// Schedule of S_{L,id}: from the issued table, else derived.
  [[nodiscard]] HmacKey share_key(int level, std::uint32_t id) const;
  [[nodiscard]] HmacKey derive_share_key(int level, std::uint32_t id) const;

  int max_level_;
  std::size_t sig_bytes_;
  std::vector<HmacKey> master_keys_;  ///< K_L, index level-1
  /// Issued signers' shares S_{L,id}, index level-1; set-up only.
  std::unordered_map<std::uint32_t, std::vector<HmacKey>> share_keys_;
};

}  // namespace icc::crypto
