// Individual (non-threshold) node signatures.
//
// Statistical voting forwards each participant's value message inside the
// propose message, and verifiers must check those value messages really came
// from the claimed senders (Fig 3b, "p verifies that the included signatures
// are valid"). That needs ordinary per-node signatures; this header provides
// the abstraction plus a simulation-grade implementation (per-node HMAC keys
// held by a dealer oracle — same modeling rationale as ModelThresholdScheme)
// and a real-RSA implementation for tests.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "crypto/hmac.hpp"
#include "crypto/rsa.hpp"

namespace icc::crypto {

/// A node's private signing capability.
class NodeSigner {
 public:
  virtual ~NodeSigner() = default;
  [[nodiscard]] virtual std::uint32_t id() const = 0;
  [[nodiscard]] virtual std::vector<std::uint8_t> sign(
      std::span<const std::uint8_t> msg) const = 0;
};

/// Public verification side + dealer.
class Pki {
 public:
  virtual ~Pki() = default;
  [[nodiscard]] virtual std::unique_ptr<NodeSigner> issue_signer(std::uint32_t id) = 0;
  [[nodiscard]] virtual bool verify(std::uint32_t id, std::span<const std::uint8_t> msg,
                                    std::span<const std::uint8_t> sig) const = 0;
  [[nodiscard]] virtual std::size_t signature_bytes() const = 0;
};

/// Simulation-grade PKI: per-node HMAC keys derived from a dealer seed.
/// issue_signer keeps each issued node's key schedule, so verify is one
/// lookup plus one tag; the table is written only at set-up (const verify
/// never fills it), and an id that was never issued is derived on the fly.
class ModelPki final : public Pki {
 public:
  /// `key_bits` only scales the modeled on-air signature size.
  ModelPki(std::uint64_t seed, int key_bits);

  [[nodiscard]] std::unique_ptr<NodeSigner> issue_signer(std::uint32_t id) override;
  [[nodiscard]] bool verify(std::uint32_t id, std::span<const std::uint8_t> msg,
                            std::span<const std::uint8_t> sig) const override;
  [[nodiscard]] std::size_t signature_bytes() const override { return sig_bytes_; }

 private:
  [[nodiscard]] HmacKey derive_node_key(std::uint32_t id) const;
  HmacKey seed_key_;
  std::size_t sig_bytes_;
  std::unordered_map<std::uint32_t, HmacKey> node_keys_;  ///< issued ids; set-up only
};

/// Real RSA PKI over per-node keypairs.
class RsaPki final : public Pki {
 public:
  RsaPki(int key_bits, std::uint32_t num_nodes, WordSource words);

  [[nodiscard]] std::unique_ptr<NodeSigner> issue_signer(std::uint32_t id) override;
  [[nodiscard]] bool verify(std::uint32_t id, std::span<const std::uint8_t> msg,
                            std::span<const std::uint8_t> sig) const override;
  [[nodiscard]] std::size_t signature_bytes() const override;

 private:
  std::vector<RsaKeyPair> keys_;
};

}  // namespace icc::crypto
