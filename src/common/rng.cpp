#include "common/rng.hpp"

#include <cmath>
#include <unordered_set>

#include "common/check.hpp"

namespace fortress {

std::uint64_t SplitMix64::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {
inline std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Xoshiro256::Xoshiro256(std::uint64_t seed) { reseed(seed); }

void Xoshiro256::reseed(std::uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& w : s_) w = sm.next();
  // All-zero state is invalid for xoshiro; SplitMix64 cannot produce four
  // consecutive zeros, but guard anyway.
  if (s_[0] == 0 && s_[1] == 0 && s_[2] == 0 && s_[3] == 0) s_[0] = 1;
}

Xoshiro256::result_type Xoshiro256::operator()() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

namespace {
inline std::uint64_t substream_seed(std::uint64_t seed, std::uint64_t index) {
  // Hash (seed, index) through SplitMix64 twice to decorrelate adjacent
  // indices; each substream then has its own xoshiro state.
  SplitMix64 sm(seed ^ (0x5851f42d4c957f2dULL * (index + 1)));
  std::uint64_t derived = sm.next();
  derived ^= SplitMix64(index).next();
  return derived;
}
}  // namespace

Rng Rng::substream(std::uint64_t seed, std::uint64_t index) {
  return Rng(substream_seed(seed, index));
}

void Rng::reset_substream(std::uint64_t seed, std::uint64_t index) {
  gen_.reseed(substream_seed(seed, index));
}

std::uint64_t Rng::bits() { return gen_(); }

std::uint64_t Rng::below(std::uint64_t bound) {
  FORTRESS_EXPECTS(bound > 0);
  // Lemire's method with rejection for exact uniformity.
  while (true) {
    std::uint64_t x = gen_();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    std::uint64_t low = static_cast<std::uint64_t>(m);
    if (low >= bound) return static_cast<std::uint64_t>(m >> 64);
    // low < bound: possible bias region; recheck threshold.
    std::uint64_t threshold = (0 - bound) % bound;
    if (low >= threshold) return static_cast<std::uint64_t>(m >> 64);
  }
}

double Rng::uniform01() {
  return static_cast<double>(gen_() >> 11) * 0x1.0p-53;
}

bool Rng::bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform01() < p;
}

double Rng::geometric_inv_log(double p) {
  FORTRESS_EXPECTS(p > 0.0 && p <= 1.0);
  if (p == 1.0) return 0.0;
  return 1.0 / std::log1p(-p);
}

std::uint64_t Rng::geometric_scaled(double inv_log) {
  if (inv_log == 0.0) return 0;  // p == 1: success on the first trial
  // Inversion: floor(log(U) * (1 / log(1-p))) with U in (0,1].
  double u = 1.0 - uniform01();  // (0, 1]
  double g = std::floor(std::log(u) * inv_log);
  if (g < 0) g = 0;
  // Cap to avoid overflow when p is denormal-small.
  if (g > 9.2e18) g = 9.2e18;
  return static_cast<std::uint64_t>(g);
}

std::uint64_t Rng::geometric(double p) {
  return geometric_scaled(geometric_inv_log(p));
}

double Rng::exponential(double lambda) {
  FORTRESS_EXPECTS(lambda > 0.0);
  double u = 1.0 - uniform01();  // (0, 1]
  return -std::log(u) / lambda;
}

std::vector<std::uint64_t> Rng::sample_without_replacement(std::uint64_t n,
                                                           std::uint64_t k) {
  FORTRESS_EXPECTS(k <= n);
  // Floyd's algorithm: O(k) expected time, no O(n) storage.
  std::unordered_set<std::uint64_t> chosen;
  std::vector<std::uint64_t> result;
  result.reserve(k);
  for (std::uint64_t j = n - k; j < n; ++j) {
    std::uint64_t t = below(j + 1);
    if (chosen.contains(t)) t = j;
    chosen.insert(t);
    result.push_back(t);
  }
  return result;
}

void Rng::sample_without_replacement_into(std::uint64_t n, std::uint64_t k,
                                          std::uint64_t* out) {
  FORTRESS_EXPECTS(k <= n);
  // Same Floyd's walk as sample_without_replacement (identical draw
  // sequence); membership by linear scan over the values emitted so far.
  std::uint64_t count = 0;
  for (std::uint64_t j = n - k; j < n; ++j) {
    std::uint64_t t = below(j + 1);
    bool seen = false;
    for (std::uint64_t i = 0; i < count; ++i) {
      if (out[i] == t) {
        seen = true;
        break;
      }
    }
    if (seen) t = j;
    out[count++] = t;
  }
}

}  // namespace fortress
