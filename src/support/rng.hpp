// Deterministic pseudo-random number generation for reproducible
// experiments. Everything in this repository that needs randomness —
// dataset generation, seed embeddings, weight initialisation, GA
// mutation, k-fold shuffling — goes through Rng so a single uint64_t
// seed reproduces a full experiment bit-for-bit across platforms.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "support/check.hpp"

namespace mpidetect {

/// splitmix64: used to expand a single seed into xoshiro state and to
/// hash entity names into stable per-entity seeds (see ir2vec vocabulary).
std::uint64_t splitmix64(std::uint64_t& state);

/// Stateless mixing of a value through one splitmix64 round; handy for
/// building hash-derived seeds: mix64(seed ^ hash(name)).
std::uint64_t mix64(std::uint64_t x);

/// xoshiro256** PRNG. Satisfies UniformRandomBitGenerator so it can be
/// used with <algorithm> shuffles, but we provide our own helpers to keep
/// distribution results platform-independent (libstdc++ vs libc++ differ
/// in std::uniform_int_distribution).
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }
  result_type operator()() { return next(); }

  std::uint64_t next();

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Standard normal via Box-Muller (deterministic, no cached spare).
  double normal();

  /// Normal with the given mean / stddev.
  double normal(double mean, double stddev);

  /// Bernoulli draw with probability p of returning true.
  bool chance(double p);

  /// Uniformly chosen index in [0, n). Requires n > 0.
  std::size_t index(std::size_t n);

  /// Fisher-Yates shuffle (deterministic given the seed).
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j = index(i);
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// Uniformly chosen element of a non-empty vector.
  template <typename T>
  const T& choice(const std::vector<T>& v) {
    MPIDETECT_EXPECTS(!v.empty());
    return v[index(v.size())];
  }

  /// Fork a child RNG whose stream is independent of subsequent draws
  /// from this one. Used to give each generated program its own stream.
  Rng fork();

 private:
  std::uint64_t s_[4];
};

/// FNV-1a 64-bit offset basis: the hash of no bytes.
inline constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ULL;

/// Continues the FNV-1a 64-bit hash `h` over `len` raw bytes (start from
/// kFnvOffsetBasis). Stable across platforms: the .mpcs fingerprints and
/// checksums and the EncodingCache keys are built from it. Inline: the
/// cache's structural program hash calls it once per field.
inline std::uint64_t fnv1a64(std::uint64_t h, const void* data,
                             std::size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// FNV-1a 64-bit hash of a string; stable across platforms. Used to key
/// per-entity seed embeddings and fault points.
std::uint64_t fnv1a64(std::string_view s);

}  // namespace mpidetect
