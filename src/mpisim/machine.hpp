// Deterministic multi-rank interpreter of the mini-IR with an MPI
// runtime: point-to-point matching (wildcards, non-overtaking order),
// synchronizing collectives with cross-rank argument checks, nonblocking
// and persistent requests with buffer-ownership tracking, RMA windows
// with fence/lock epochs, and resource accounting at MPI_Finalize.
//
// This is the substitute for "run the benchmark under a real MPI" that
// the paper's dynamic comparison tools (ITAC, MUST) rely on: every
// injected bug class manifests as an observable finding or as a
// deadlock/timeout outcome.
//
// The scheduler is pluggable (ScheduleConfig): the default round-robin
// policy executes one fixed interleaving, bit-for-bit the historical
// behaviour; the seeded Random policy explores different interleavings
// (rank choice, slice jitter, wildcard-match choice) so that
// timing-dependent error classes — wildcard races, recv/recv cycles,
// conflicting RMA puts — can be flushed out by sweeping seeds
// (mpisim/sweep.hpp) instead of hoping the one fixed schedule hits them.
#pragma once

#include "ir/module.hpp"
#include "mpisim/report.hpp"

namespace mpidetect::mpisim {

/// How runnable ranks are interleaved.
enum class SchedPolicy : std::uint8_t {
  /// Ranks 0..n-1 each run `MachineConfig::slice` instructions per
  /// round, in rank order. Fully deterministic; reports carry
  /// `schedule_seed == 0`.
  RoundRobin,
  /// Every scheduling decision picks a uniformly random runnable rank
  /// and a jittered slice length from a seeded Rng, and wildcard
  /// receives consume a random racing sender. Deterministic for a
  /// fixed seed; different seeds explore different interleavings.
  Random,
};

std::string_view sched_policy_name(SchedPolicy p);

struct ScheduleConfig {
  SchedPolicy policy = SchedPolicy::RoundRobin;
  /// Seed of the Random policy. Ignored under RoundRobin (reports then
  /// carry schedule_seed 0); forced nonzero internally so seed 0 can
  /// unambiguously mean "the deterministic schedule".
  std::uint64_t seed = 1;
  /// Random policy: each decision runs the chosen rank for a slice
  /// drawn uniformly from [min_slice, MachineConfig::slice].
  int min_slice = 1;
  /// Random policy: probability that a decision instead runs the chosen
  /// rank until it blocks or finishes (a depth-first "burst").
  /// Per-slice jitter alone almost never produces the interleaving
  /// where one rank gets far ahead — e.g. both racing senders fully
  /// posted before the wildcard receiver first runs — which is exactly
  /// the schedule that flushes out WildcardRace-style bugs.
  double burst_chance = 0.4;
  /// Random policy: a wildcard receive with several racing senders
  /// consumes a uniformly chosen sender instead of the earliest-posted
  /// one (still non-overtaking per source). This is what makes the
  /// delivered payload — not just the MessageRace finding — schedule
  /// dependent.
  bool randomize_wildcard_match = true;
};

struct MachineConfig {
  int nprocs = 2;
  /// Total instruction budget summed across *all* ranks — not per rank.
  /// An n-rank run of a compute-heavy program therefore times out after
  /// the same number of machine steps regardless of n (each rank just
  /// gets a smaller share); see tests/schedule_test.cpp. Exceeding the
  /// budget while at least one rank is still executing -> Timeout; a
  /// rank set that is already provably stuck is reported as Deadlock
  /// even when the budget runs out in the same interval (the two are
  /// never conflated).
  std::uint64_t max_steps = 2'000'000;
  /// MPI_Send buffers messages of at most this many bytes (eager
  /// protocol); larger sends rendezvous (block until matched).
  std::size_t eager_threshold = 4096;
  /// Per-rank heap arena limit in bytes; backing memory grows on demand
  /// (untouched memory inside the limit reads as zero).
  std::size_t arena_bytes = 1 << 20;
  /// Instructions a rank executes per scheduling slice (the Random
  /// policy's upper slice bound).
  int slice = 64;
  /// Interleaving policy; defaults to the deterministic round-robin.
  ScheduleConfig schedule;
};

/// Runs `main` of the module on every rank and reports what happened.
/// The module is not modified. Deterministic for a fixed config
/// (including the schedule seed).
RunReport run(const ir::Module& m, const MachineConfig& config = {});

}  // namespace mpidetect::mpisim
