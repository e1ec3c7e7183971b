// SHA-256 compression kernels behind Sha256 (internal: src/crypto, its tests
// and crypto_micro include it). Every Sha256 context compresses through
// compress(), which runs one of two kernels chosen once per process from
// CPUID:
//
//   compress_portable  the FIPS 180-4 round loop in plain C++; the reference
//                      the tests hold every other kernel to, and the only
//                      path on CPUs without SHA extensions.
//   SHA-NI kernel      hardware_kernel(): the x86-64 SHA extensions, 6-7x fewer cycles
//                      per block where the CPU has them.
//
// Both produce identical chaining states, so the choice never shows in a
// digest, a trace or a RunReport. There is no knob: the CPU decides.
#pragma once

#include <cstddef>
#include <cstdint>

#include "crypto/sha256.hpp"

namespace icc::crypto::sha256_kernels {

using State = Sha256::State;
/// Compresses `n` consecutive 64-byte blocks into `state`.
using Kernel = void (*)(State& state, const std::uint8_t* blocks, std::size_t n);

void compress_portable(State& state, const std::uint8_t* blocks, std::size_t n);

/// The SHA-NI kernel when this build has one and the CPU reports SHA,
/// SSE4.1 and SSSE3 in CPUID; nullptr otherwise.
Kernel hardware_kernel();

/// The kernel every Sha256 uses: hardware_kernel() when there is one,
/// compress_portable otherwise. Probed once, on first use.
void compress(State& state, const std::uint8_t* blocks, std::size_t n);

}  // namespace icc::crypto::sha256_kernels
