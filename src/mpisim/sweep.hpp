// Bounded schedule exploration: run one module under N seeded
// schedules and merge the RunReports. This is the executable form of
// "run the benchmark enough times that the race actually fires" — the
// schedule-aware dynamic tools (verify/) and the differential fuzz
// harness (core/fuzzer.hpp) both consume the merged report instead of
// trusting the single deterministic interleaving.
#pragma once

#include <array>
#include <map>
#include <optional>
#include <string>

#include "mpisim/machine.hpp"

namespace mpidetect::mpisim {

struct ScheduleSweepOptions {
  /// Total schedules to run: schedule 0 is the deterministic
  /// round-robin one, so a one-schedule sweep is a plain run; the rest
  /// are Random schedules with seeds derived from `seed`.
  int schedules = 8;
  /// Base seed; schedule k >= 1 runs with schedule_seed_for(seed, k).
  std::uint64_t seed = 1;
};

/// The (nonzero) machine schedule seed of sweep slot `k` under base
/// seed `base_seed`. Slot 0 is the round-robin schedule (seed 0).
std::uint64_t schedule_seed_for(std::uint64_t base_seed, int k);

struct ScheduleSweepReport {
  int schedules = 0;
  /// Runs per final Outcome, indexed by static_cast<size_t>(Outcome).
  std::array<int, kNumOutcomes> outcome_counts{};

  struct KindWitness {
    int schedules = 0;            // how many schedules produced the kind
    std::uint64_t first_seed = 0; // schedule seed of the first that did
  };
  std::map<FindingKind, KindWitness> findings;

  /// Schedule seed of the first run that produced any finding or a
  /// non-Completed outcome (0 = the round-robin schedule); nullopt when
  /// every schedule ran clean.
  std::optional<std::uint64_t> first_witness_seed;
  /// Report of that first witness schedule (the first run when clean).
  RunReport witness;

  /// Distinct point-to-point matchings (match_digest values) observed
  /// across the sweep — >1 proves the program is schedule sensitive.
  std::size_t distinct_matchings = 0;

  /// One report per schedule, in sweep order.
  std::vector<RunReport> reports;

  bool clean() const { return !first_witness_seed.has_value(); }
  int count(Outcome o) const {
    return outcome_counts[static_cast<std::size_t>(o)];
  }
  bool has(FindingKind k) const { return findings.count(k) != 0; }
  std::string summary() const;
};

/// Runs `m` under `opts.schedules` schedules derived from `base`
/// (whose own schedule field is ignored) and merges the reports.
/// Deterministic for fixed (module, base, opts).
ScheduleSweepReport sweep_schedules(const ir::Module& m,
                                    const MachineConfig& base,
                                    const ScheduleSweepOptions& opts = {});

}  // namespace mpidetect::mpisim
