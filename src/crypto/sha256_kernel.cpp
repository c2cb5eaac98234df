#include "crypto/sha256_kernel.hpp"

#include <cstdlib>
#include <cstring>

#include "crypto/sha256_constants.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace fortress::crypto::kernel {

namespace {

inline std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

// The compile-time default tier request (CMake -DFORTRESS_SHA_DISPATCH);
// the FORTRESS_SHA_DISPATCH environment variable overrides it at startup.
#ifndef FORTRESS_SHA_DISPATCH_DEFAULT
#define FORTRESS_SHA_DISPATCH_DEFAULT "native"
#endif

#if defined(__x86_64__) || defined(__i386__)
bool cpu_has_shani() {
  static const bool has = [] {
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    if (__get_cpuid_max(0, nullptr) < 7) return false;
    __cpuid_count(7, 0, eax, ebx, ecx, edx);
    return (ebx & (1u << 29)) != 0;
  }();
  return has;
}
#endif

ShaTier parse_tier_request(const char* request) {
  // "native" and "shani" both ask for the best tier, which falls back to
  // the reference one on a CPU without the SHA extensions.
  if (request == nullptr || std::strcmp(request, "native") == 0 ||
      std::strcmp(request, "shani") == 0) {
    return tier_available(ShaTier::ShaNi) ? ShaTier::ShaNi : ShaTier::Scalar;
  }
  // "scalar", or an unrecognized request: the safe interpretation is the
  // reference tier.
  return ShaTier::Scalar;
}

ShaTier select_startup_tier() {
  const char* env = std::getenv("FORTRESS_SHA_DISPATCH");
  return parse_tier_request(env != nullptr ? env
                                           : FORTRESS_SHA_DISPATCH_DEFAULT);
}

ShaTier& active_tier_slot() {
  static ShaTier tier = select_startup_tier();
  return tier;
}

}  // namespace

const char* tier_name(ShaTier tier) {
  switch (tier) {
    case ShaTier::Scalar: return "scalar";
    case ShaTier::ShaNi: return "shani";
  }
  return "?";
}

bool tier_available(ShaTier tier) {
  switch (tier) {
    case ShaTier::Scalar:
      return true;
#if defined(__x86_64__) || defined(__i386__)
    case ShaTier::ShaNi:
      // The SHA-NI kernel uses SSE2/SSSE3-era loads, universal on any CPU
      // that has the SHA extensions.
      return cpu_has_shani();
#else
    case ShaTier::ShaNi:
      return false;
#endif
  }
  return false;
}

ShaTier active_tier() { return active_tier_slot(); }

bool force_tier(ShaTier tier) {
  if (!tier_available(tier)) return false;
  active_tier_slot() = tier;
  return true;
}

void compress_blocks_scalar(std::uint32_t state[8], const std::uint8_t* data,
                            std::size_t nblocks) {
  std::uint32_t a0 = state[0], b0 = state[1], c0 = state[2], d0 = state[3];
  std::uint32_t e0 = state[4], f0 = state[5], g0 = state[6], h0 = state[7];
  for (std::size_t blk = 0; blk < nblocks; ++blk, data += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<std::uint32_t>(data[i * 4]) << 24) |
             (static_cast<std::uint32_t>(data[i * 4 + 1]) << 16) |
             (static_cast<std::uint32_t>(data[i * 4 + 2]) << 8) |
             static_cast<std::uint32_t>(data[i * 4 + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = a0, b = b0, c = c0, d = d0;
    std::uint32_t e = e0, f = f0, g = g0, h = h0;
    for (int i = 0; i < 64; ++i) {
      std::uint32_t S1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      std::uint32_t ch = (e & f) ^ (~e & g);
      std::uint32_t temp1 = h + S1 + ch + kSha256K[i] + w[i];
      std::uint32_t S0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      std::uint32_t temp2 = S0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }
    a0 += a;
    b0 += b;
    c0 += c;
    d0 += d;
    e0 += e;
    f0 += f;
    g0 += g;
    h0 += h;
  }
  state[0] = a0;
  state[1] = b0;
  state[2] = c0;
  state[3] = d0;
  state[4] = e0;
  state[5] = f0;
  state[6] = g0;
  state[7] = h0;
}

void compress_blocks(std::uint32_t state[8], const std::uint8_t* data,
                     std::size_t nblocks) {
  if (nblocks == 0) return;
  switch (active_tier_slot()) {
#if defined(__x86_64__) || defined(__i386__)
    case ShaTier::ShaNi:
      compress_blocks_shani(state, data, nblocks);
      return;
#endif
    default:
      compress_blocks_scalar(state, data, nblocks);
      return;
  }
}

}  // namespace fortress::crypto::kernel
