#include "crypto/pki.hpp"

#include <cstring>
#include <string>

namespace icc::crypto {

namespace {

class ModelNodeSigner final : public NodeSigner {
 public:
  ModelNodeSigner(std::uint32_t id, const HmacKey& key, std::size_t sig_bytes)
      : id_{id}, key_{key}, sig_bytes_{sig_bytes} {}
  [[nodiscard]] std::uint32_t id() const override { return id_; }
  [[nodiscard]] std::vector<std::uint8_t> sign(
      std::span<const std::uint8_t> msg) const override {
    const Digest tag = key_.mac(msg);
    std::vector<std::uint8_t> out(tag.begin(), tag.end());
    out.resize(sig_bytes_, 0);
    return out;
  }

 private:
  std::uint32_t id_;
  HmacKey key_;
  std::size_t sig_bytes_;
};

class RsaNodeSigner final : public NodeSigner {
 public:
  RsaNodeSigner(std::uint32_t id, const RsaKeyPair& key) : id_{id}, key_{key} {}
  [[nodiscard]] std::uint32_t id() const override { return id_; }
  [[nodiscard]] std::vector<std::uint8_t> sign(
      std::span<const std::uint8_t> msg) const override {
    return rsa_sign(key_, msg).to_bytes(key_.pub.modulus_bytes());
  }

 private:
  std::uint32_t id_;
  const RsaKeyPair& key_;
};

Digest seed_digest(std::uint64_t seed) {
  std::array<std::uint8_t, 8> bytes{};
  for (int i = 0; i < 8; ++i) bytes[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(seed >> (8 * i));
  return Sha256::hash(std::span<const std::uint8_t>{bytes});
}

}  // namespace

ModelPki::ModelPki(std::uint64_t seed, int key_bits)
    : seed_key_{seed_digest(seed)}, sig_bytes_{static_cast<std::size_t>(key_bits) / 8} {}

HmacKey ModelPki::derive_node_key(std::uint32_t id) const {
  return HmacKey{seed_key_.mac("pki:" + std::to_string(id))};
}

std::unique_ptr<NodeSigner> ModelPki::issue_signer(std::uint32_t id) {
  const HmacKey key = derive_node_key(id);
  node_keys_.insert_or_assign(id, key);
  return std::make_unique<ModelNodeSigner>(id, key, sig_bytes_);
}

bool ModelPki::verify(std::uint32_t id, std::span<const std::uint8_t> msg,
                      std::span<const std::uint8_t> sig) const {
  if (sig.size() < 32) return false;
  const auto it = node_keys_.find(id);
  const Digest expected =
      it != node_keys_.end() ? it->second.mac(msg) : derive_node_key(id).mac(msg);
  Digest got{};
  std::memcpy(got.data(), sig.data(), got.size());
  return digest_equal(expected, got);
}

RsaPki::RsaPki(int key_bits, std::uint32_t num_nodes, WordSource words) {
  keys_.reserve(num_nodes);
  for (std::uint32_t i = 0; i < num_nodes; ++i) keys_.push_back(rsa_generate(key_bits, words));
}

std::unique_ptr<NodeSigner> RsaPki::issue_signer(std::uint32_t id) {
  return std::make_unique<RsaNodeSigner>(id, keys_.at(id));
}

bool RsaPki::verify(std::uint32_t id, std::span<const std::uint8_t> msg,
                    std::span<const std::uint8_t> sig) const {
  if (id >= keys_.size()) return false;
  const RsaPublicKey& pub = keys_[id].pub;
  if (sig.size() != pub.modulus_bytes()) return false;
  return rsa_verify(pub, msg, Bignum::from_bytes(sig));
}

std::size_t RsaPki::signature_bytes() const {
  return keys_.empty() ? 0 : keys_.front().pub.modulus_bytes();
}

}  // namespace icc::crypto
