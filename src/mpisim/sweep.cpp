#include "mpisim/sweep.hpp"

#include <set>
#include <sstream>

#include "mpisim/decoded.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace mpidetect::mpisim {

std::uint64_t schedule_seed_for(std::uint64_t base_seed, int k) {
  if (k <= 0) return 0;  // slot 0 is the round-robin schedule
  const std::uint64_t s =
      mix64(base_seed ^ (static_cast<std::uint64_t>(k) *
                         0x9e3779b97f4a7c15ULL));
  return s != 0 ? s : 0x5eedULL;  // keep 0 reserved for round-robin
}

ScheduleSweepReport sweep_schedules(const ir::Module& m,
                                    const MachineConfig& base,
                                    const ScheduleSweepOptions& opts) {
  MPIDETECT_EXPECTS(opts.schedules >= 1);
  ScheduleSweepReport sweep;
  sweep.schedules = opts.schedules;
  std::set<std::uint64_t> digests;
  // Every schedule runs the same module: decode it once.
  const auto decoded = detail::decode(m);

  for (int k = 0; k < opts.schedules; ++k) {
    MachineConfig cfg = base;
    if (k == 0 && opts.include_round_robin) {
      cfg.schedule.policy = SchedPolicy::RoundRobin;
    } else {
      cfg.schedule.policy = SchedPolicy::Random;
      cfg.schedule.seed =
          schedule_seed_for(opts.seed, opts.include_round_robin ? k : k + 1);
    }
    RunReport rep = detail::run(*decoded, cfg);

    ++sweep.outcome_counts[static_cast<std::size_t>(rep.outcome)];
    digests.insert(rep.match_digest());
    // Per-kind schedule counts: each kind counted once per schedule,
    // with the first schedule seed that produced it as the witness.
    std::set<FindingKind> kinds;
    for (const Finding& f : rep.findings) kinds.insert(f.kind);
    for (const FindingKind k2 : kinds) {
      auto [it, inserted] = sweep.findings.try_emplace(
          k2, ScheduleSweepReport::KindWitness{0, rep.schedule_seed});
      (void)inserted;
      ++it->second.schedules;
    }

    const bool bad = rep.outcome != Outcome::Completed || !rep.findings.empty();
    if (bad && !sweep.first_witness_seed.has_value()) {
      sweep.first_witness_seed = rep.schedule_seed;
      sweep.witness = rep;
    }
    sweep.reports.push_back(std::move(rep));
  }

  if (!sweep.first_witness_seed.has_value() && !sweep.reports.empty()) {
    sweep.witness = sweep.reports.front();
  }
  sweep.distinct_matchings = digests.size();
  return sweep;
}

std::string ScheduleSweepReport::summary() const {
  std::ostringstream os;
  os << schedules << " schedule(s):";
  for (std::size_t i = 0; i < kNumOutcomes; ++i) {
    if (outcome_counts[i] == 0) continue;
    os << " " << outcome_name(static_cast<Outcome>(i)) << "="
       << outcome_counts[i];
  }
  if (!findings.empty()) {
    os << "; findings:";
    for (const auto& [kind, w] : findings) {
      os << " " << finding_kind_name(kind) << "x" << w.schedules
         << "@seed=" << w.first_seed;
    }
  }
  os << "; " << distinct_matchings << " distinct matching(s)";
  if (first_witness_seed.has_value()) {
    os << "; first witness seed " << *first_witness_seed;
  }
  return os.str();
}

}  // namespace mpidetect::mpisim
