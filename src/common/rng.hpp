// rng.hpp — deterministic pseudo-random number generation.
//
// All stochastic components (Monte-Carlo engine, attacker key guessing,
// obfuscation key selection, network jitter) draw from Rng so that every
// experiment is reproducible from a single 64-bit seed. The generator is
// xoshiro256** (Blackman & Vigna), seeded via SplitMix64; both are
// implemented here so the library has no hidden dependence on the standard
// library's unspecified engine streams.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace fortress {

/// SplitMix64: tiny 64-bit generator used for seeding and for hashing seeds
/// into independent streams.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next();

 private:
  std::uint64_t state_;
};

/// xoshiro256** 1.0 — fast, high-quality 64-bit PRNG with 2^256-1 period.
/// Satisfies std::uniform_random_bit_generator.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four state words from SplitMix64(seed).
  explicit Xoshiro256(std::uint64_t seed);

  /// Re-seed in place (same derivation as the constructor). Lets hot loops
  /// reuse one generator object per worker instead of constructing one per
  /// trial.
  void reseed(std::uint64_t seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()();

 private:
  std::array<std::uint64_t, 4> s_;
};

/// Rng — the distribution layer used across the library.
///
/// Wraps Xoshiro256 with the handful of distributions the system needs.
/// Copyable (value semantics): copying forks the stream at its current state.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) : gen_(seed) {}

  /// A derived, statistically independent stream: hash (seed, index) pairs.
  static Rng substream(std::uint64_t seed, std::uint64_t index);

  /// Re-point this Rng at substream (seed, index) in place. Bit-identical to
  /// `*this = Rng::substream(seed, index)`; exists so per-trial substream
  /// setup costs no construction in the Monte-Carlo inner loop.
  void reset_substream(std::uint64_t seed, std::uint64_t index);

  /// Raw 64 random bits.
  std::uint64_t bits();

  /// Uniform integer in [0, bound). Precondition: bound > 0.
  /// Uses Lemire's unbiased multiply-shift rejection method.
  std::uint64_t below(std::uint64_t bound);

  /// Uniform double in [0, 1) with 53 bits of precision.
  double uniform01();

  /// Bernoulli trial: true with probability p (clamped to [0,1]).
  bool bernoulli(double p);

  /// Geometric: number of failures before the first success for a Bernoulli(p)
  /// sequence. Precondition: 0 < p <= 1. Sampled via inversion, so it is
  /// usable even for p ~ 1e-9 without looping.
  std::uint64_t geometric(double p);

  /// Precompute the inversion constant 1/log(1-p) for repeated geometric(p)
  /// draws with a fixed p (0 for p == 1). Precondition: 0 < p <= 1.
  static double geometric_inv_log(double p);

  /// geometric(p) with the constant from geometric_inv_log(p) hoisted out:
  /// bit-identical to geometric(p), one log instead of two per draw.
  std::uint64_t geometric_scaled(double inv_log);

  /// Exponential with rate lambda > 0.
  double exponential(double lambda);

  /// Sample k distinct values from [0, n) without replacement (Floyd's
  /// algorithm); order of the result is unspecified. Precondition: k <= n.
  std::vector<std::uint64_t> sample_without_replacement(std::uint64_t n,
                                                        std::uint64_t k);

  /// Allocation-free variant: writes the k sampled values into `out` (caller
  /// guarantees capacity >= k). Consumes exactly the same draws as
  /// sample_without_replacement, so the two are stream-compatible. Membership
  /// is a linear scan — intended for the small k (<= 64) of the trial
  /// kernels, not for bulk sampling.
  void sample_without_replacement_into(std::uint64_t n, std::uint64_t k,
                                       std::uint64_t* out);

 private:
  Xoshiro256 gen_;
};

}  // namespace fortress
