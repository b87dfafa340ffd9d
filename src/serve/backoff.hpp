// Bounded exponential backoff with deterministic jitter, for clients
// retrying BUSY rejections and failed connects (tools/mpiguard-client,
// tests/chaos_serve_test).
//
// Policy: attempt k waits roughly base·2^k ms, capped at `cap_ms`, with
// the top `jitter` fraction of each delay randomized so a fleet of
// clients bounced by the same BUSY does not resubmit in lockstep and
// re-create the very burst that filled the queue. The jitter stream is
// a pure function of (seed, attempt) — support/rng's splitmix64, as
// used by support/faultpoint.hpp — so tests can predict a retry
// schedule exactly and chaos campaigns replay.
#pragma once

#include <algorithm>
#include <cstdint>

#include "support/rng.hpp"

namespace mpidetect::serve {

class Backoff {
 public:
  /// `base_ms` is the nominal first delay, `cap_ms` the per-delay
  /// ceiling, `jitter` in [0, 1] the randomized fraction of each delay
  /// (0 = fully deterministic schedule).
  Backoff(std::uint32_t base_ms, std::uint32_t cap_ms, std::uint64_t seed,
          double jitter = 0.5)
      : base_ms_(base_ms < 1 ? 1 : base_ms),
        cap_ms_(cap_ms < base_ms_ ? base_ms_ : cap_ms),
        jitter_(jitter < 0.0 ? 0.0 : (jitter > 1.0 ? 1.0 : jitter)),
        seed_(seed) {}

  /// Delay before the NEXT attempt, in ms (always >= 1); advances the
  /// attempt counter.
  std::uint32_t next_delay_ms() {
    const std::uint64_t shift = std::min<std::uint64_t>(attempt_, 20);
    const std::uint64_t exp = std::min<std::uint64_t>(
        static_cast<std::uint64_t>(base_ms_) << shift, cap_ms_);
    const double lo = static_cast<double>(exp) * (1.0 - jitter_);
    const double span = static_cast<double>(exp) - lo;
    const double d = lo + draw(attempt_) * span;
    ++attempt_;
    const auto ms = static_cast<std::uint64_t>(d);
    return static_cast<std::uint32_t>(ms < 1 ? 1 : ms);
  }

  /// Attempts consumed so far (== how many times next_delay_ms ran).
  std::uint64_t attempts() const { return attempt_; }

  /// Back to attempt 0 — after a success, the next failure starts cheap.
  void reset() { attempt_ = 0; }

 private:
  /// Uniform [0, 1), a pure function of (seed, attempt): the
  /// attempt-th output of a splitmix64 stream seeded with `seed`.
  double draw(std::uint64_t attempt) const {
    const std::uint64_t x = mix64(seed_ + attempt * 0x9e3779b97f4a7c15ull);
    return static_cast<double>(x >> 11) * 0x1.0p-53;
  }

  std::uint32_t base_ms_;
  std::uint32_t cap_ms_;
  double jitter_;
  std::uint64_t seed_;
  std::uint64_t attempt_ = 0;
};

}  // namespace mpidetect::serve
