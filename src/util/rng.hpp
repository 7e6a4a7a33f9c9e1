// Deterministic, seedable random number generation.
//
// Every randomized component of the library takes an explicit seed so that
// all experiments are reproducible bit-for-bit (DESIGN.md §6).  We ship our
// own xoshiro256** instead of std::mt19937_64 because its state is tiny,
// it is trivially splittable via SplitMix64, and its output sequence is
// specified (libstdc++'s distributions are not portable across versions —
// we implement the distributions we need ourselves).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "util/check.hpp"

namespace pslocal {

/// SplitMix64: used to seed xoshiro and to derive independent substreams.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256**: fast, high-quality 64-bit PRNG (Blackman & Vigna).
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9b7fdc2f0a3c1d5eULL) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    SplitMix64 sm(seed);
    for (auto& w : s_) w = sm.next();
  }

  /// Derive an independent substream; stream ids give distinct generators.
  [[nodiscard]] Rng split(std::uint64_t stream) const {
    SplitMix64 sm(s_[0] ^ (s_[3] + 0x632be59bd9b4e019ULL * (stream + 1)));
    Rng r(sm.next());
    return r;
  }

  /// Derive the `stream`-th child generator without advancing this one.
  /// Unlike split(), which funnels the child through a single 64-bit
  /// reseed, fork() fills the child's entire 256-bit state from a
  /// per-stream SplitMix64 sequence, the splittable-PRNG construction of
  /// Steele, Lea & Flood (OOPSLA 2014).  The service workload generator
  /// forks its instance and request streams with it (service/workload);
  /// the non-correlation smoke test lives in test_rng.cpp.
  [[nodiscard]] Rng fork(std::uint64_t stream) const {
    SplitMix64 sm(s_[0] ^ rotl(s_[1], 13) ^ rotl(s_[2], 29) ^
                  (0x9e3779b97f4a7c15ULL * (stream + 1)));
    Rng r;
    for (auto& w : r.s_) w = sm.next();
    // xoshiro256** requires a nonzero state (probability 2^-256 here).
    if ((r.s_[0] | r.s_[1] | r.s_[2] | r.s_[3]) == 0) r.s_[0] = 1;
    return r;
  }

  std::uint64_t next_u64() {
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

  // UniformRandomBitGenerator interface (usable with <algorithm>).
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }
  result_type operator()() { return next_u64(); }

  /// Uniform integer in [0, bound). bound must be positive.
  std::uint64_t next_below(std::uint64_t bound) {
    PSL_EXPECTS(bound > 0);
    // Lemire's nearly-divisionless method with rejection for exactness.
    std::uint64_t x = next_u64();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
      const std::uint64_t threshold = (-bound) % bound;
      while (lo < threshold) {
        x = next_u64();
        m = static_cast<__uint128_t>(x) * bound;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in the inclusive range [lo, hi].
  std::int64_t next_int(std::int64_t lo, std::int64_t hi) {
    PSL_EXPECTS(lo <= hi);
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(next_below(span));
  }

  /// Uniform double in [0, 1).
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with success probability p.
  bool next_bool(double p) {
    PSL_EXPECTS(p >= 0.0 && p <= 1.0);
    return next_double() < p;
  }

  /// Exponential variate with rate `rate` (mean 1/rate).
  double next_exponential(double rate);

  /// Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(next_below(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// A uniformly random permutation of {0, ..., n-1}.
  std::vector<std::size_t> permutation(std::size_t n);

  /// k distinct values sampled uniformly from {0, ..., n-1} (k <= n).
  std::vector<std::size_t> sample_without_replacement(std::size_t n,
                                                      std::size_t k);

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> s_{};
};

}  // namespace pslocal
