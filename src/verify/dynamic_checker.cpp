// The dynamic tools, ITAC and MUST, as one checker with two profiles.
// Both run the program under the simulator and read its report: a
// blown step budget is inconclusive (TO), a crashed rank a runtime
// error (RE), and a deadlock a reported error, found the way ITAC finds
// it, by timeout. The profiles differ only in the step budget and in
// which findings count as an error.
//
// Every case runs through mpisim::sweep_schedules: slot 0 is the
// deterministic round-robin schedule (the paper's protocol, so one
// schedule is a plain run) and further slots are seeded Random ones.
// An error observed under any schedule is reported.
#include <span>

#include "mpisim/machine.hpp"
#include "mpisim/sweep.hpp"
#include "progmodel/lower.hpp"
#include "support/check.hpp"
#include "verify/tool.hpp"

namespace mpidetect::verify {

namespace {

using K = mpisim::FindingKind;

struct Profile {
  std::string_view name;
  std::uint64_t max_steps;
  /// The finding kinds reported as an error; empty means every kind.
  std::span<const K> counted;
};

// Intel ITAC traces the run, which slows execution heavily: compute-
// dense codes blow the tight budget and come back inconclusive (the TO
// column of Table III). It validates message/collective arguments and
// checks handle leaks at finalize; races and RMA access conflicts are
// outside its scope, the false negatives of ITAC's FN column.
constexpr K kItacKinds[] = {K::InvalidParam,       K::TypeMismatch,
                            K::ParamMismatch,      K::CollectiveMismatch,
                            K::RequestError,       K::ResourceLeak,
                            K::DoubleInit,         K::MissingFinalize};
constexpr Profile kItac{"ITAC", 3'000, kItacKinds};

// MUST checks online, piggybacking on the application run, so its
// budget is generous and any finding counts: everything ITAC sees plus
// wildcard receive races, buffer-ownership violations and RMA epoch /
// access-conflict errors.
constexpr Profile kMust{"MUST", 100'000, {}};

class DynamicChecker final : public VerificationTool {
 public:
  DynamicChecker(const Profile& profile, int schedules, std::uint64_t seed)
      : profile_(profile), sweep_{schedules, seed} {
    MPIDETECT_EXPECTS(schedules >= 1);
  }

  std::string_view name() const override { return profile_.name; }

  Diagnostic check(const datasets::Case& c) override {
    std::unique_ptr<ir::Module> m;
    try {
      m = progmodel::lower(c.program);
    } catch (const ContractViolation&) {
      return Diagnostic::CompileErr;
    }
    mpisim::MachineConfig cfg;
    cfg.nprocs = c.program.nprocs;
    cfg.max_steps = profile_.max_steps;
    // Precedence over schedules: Incorrect, RuntimeErr, Timeout, Correct.
    Diagnostic verdict = Diagnostic::Correct;
    for (const mpisim::RunReport& rep :
         mpisim::sweep_schedules(*m, cfg, sweep_).reports) {
      const Diagnostic d = classify(rep);
      if (d == Diagnostic::Incorrect) return d;
      if (d == Diagnostic::RuntimeErr || verdict == Diagnostic::Correct) {
        verdict = d;
      }
    }
    return verdict;
  }

 private:
  Diagnostic classify(const mpisim::RunReport& rep) const {
    switch (rep.outcome) {
      case mpisim::Outcome::Timeout: return Diagnostic::Timeout;
      case mpisim::Outcome::Crashed: return Diagnostic::RuntimeErr;
      case mpisim::Outcome::Deadlock: return Diagnostic::Incorrect;
      case mpisim::Outcome::Completed: break;
    }
    if (profile_.counted.empty()) {
      return rep.findings.empty() ? Diagnostic::Correct
                                  : Diagnostic::Incorrect;
    }
    for (const K k : profile_.counted) {
      if (rep.has(k)) return Diagnostic::Incorrect;
    }
    return Diagnostic::Correct;
  }

  const Profile& profile_;
  mpisim::ScheduleSweepOptions sweep_;
};

}  // namespace

std::unique_ptr<VerificationTool> make_itac_lite(int schedules,
                                                 std::uint64_t seed) {
  return std::make_unique<DynamicChecker>(kItac, schedules, seed);
}

std::unique_ptr<VerificationTool> make_must_lite(int schedules,
                                                 std::uint64_t seed) {
  return std::make_unique<DynamicChecker>(kMust, schedules, seed);
}

}  // namespace mpidetect::verify
