// SHA-256 (FIPS 180-4). Self-contained; used for message digests, HMAC, and
// hashing into the RSA group for threshold signatures. Blocks are compressed
// by the kernel CPUID selects (sha256_kernels.hpp): SHA-NI where the CPU has
// it, the portable loop otherwise, with identical results.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

namespace icc::crypto {

using Digest = std::array<std::uint8_t, 32>;

/// Incremental SHA-256 context.
class Sha256 {
 public:
  /// The eight 32-bit chaining words between compressions.
  using State = std::array<std::uint32_t, 8>;

  Sha256() { reset(); }
  /// Resumes hashing from `midstate`, the state() of a context that had
  /// absorbed exactly `blocks` whole 64-byte blocks (HMAC key pads).
  Sha256(const State& midstate, std::uint64_t blocks)
      : state_{midstate}, total_len_{blocks * 64} {}

  void reset();
  void update(std::span<const std::uint8_t> data);
  void update(std::string_view s) {
    update(std::span{reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
  }
  [[nodiscard]] Digest finish();
  /// Chaining state; a midstate for the resume constructor only when the
  /// bytes absorbed so far are a whole number of blocks.
  [[nodiscard]] const State& state() const noexcept { return state_; }

  /// One-shot convenience.
  static Digest hash(std::span<const std::uint8_t> data);
  static Digest hash(std::string_view s);

 private:
  State state_{};
  std::array<std::uint8_t, 64> buffer_{};
  std::uint64_t total_len_{0};
  std::size_t buffer_len_{0};
};

/// Render a digest as lowercase hex (tracing / tests).
std::string to_hex(const Digest& d);

}  // namespace icc::crypto
