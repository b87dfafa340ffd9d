#include "support/rng.hpp"

#include <cmath>
#include <numbers>
#include <string_view>

namespace mpidetect {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t mix64(std::uint64_t x) {
  std::uint64_t state = x;
  return splitmix64(state);
}

Rng::Rng(std::uint64_t seed) {
  std::uint64_t state = seed;
  for (auto& lane : s_) lane = splitmix64(state);
}

namespace {
constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

std::uint64_t Rng::next() {
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

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  MPIDETECT_EXPECTS(lo <= hi);
  const std::uint64_t range = static_cast<std::uint64_t>(hi - lo) + 1;
  if (range == 0) return static_cast<std::int64_t>(next());  // full range
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = max() - max() % range;
  std::uint64_t draw = next();
  while (draw >= limit) draw = next();
  return lo + static_cast<std::int64_t>(draw % range);
}

double Rng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

double Rng::normal() {
  // Box-Muller; draw u1 away from 0 to keep log() finite.
  double u1 = uniform();
  while (u1 <= 1e-300) u1 = uniform();
  const double u2 = uniform();
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * std::numbers::pi * u2);
}

double Rng::normal(double mean, double stddev) {
  return mean + stddev * normal();
}

bool Rng::chance(double p) { return uniform() < p; }

std::size_t Rng::index(std::size_t n) {
  MPIDETECT_EXPECTS(n > 0);
  return static_cast<std::size_t>(
      uniform_int(0, static_cast<std::int64_t>(n) - 1));
}

Rng Rng::fork() { return Rng(next() ^ 0xd1b54a32d192ed03ULL); }

std::uint64_t fnv1a64(std::string_view s) {
  return fnv1a64(kFnvOffsetBasis, s.data(), s.size());
}

}  // namespace mpidetect
