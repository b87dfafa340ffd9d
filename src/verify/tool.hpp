// Simplified re-implementations of the expert verification tools the
// paper compares against (Table III, Figure 7). Each tool reproduces
// the *detection profile* of its namesake from first principles:
//
//   ITAC, MUST    — one dynamic checker (dynamic_checker.cpp) with two
//                   profiles. Both execute the code under the simulator
//                   and differ in step budget and counted findings:
//                   ITAC (Intel ITAC tracing) has a tight budget and
//                   high precision, finds deadlocks via timeouts and is
//                   inconclusive on long-running codes; MUST (online
//                   checking) has the broadest dynamic coverage,
//                   including races and RMA epochs.
//   ParcoachLite  — static collective-divergence analysis (PARCOACH):
//                   flags rank-dependent communication divergence, which
//                   catches ordering errors but floods correct codes
//                   with false positives (specificity ~0.09 in MBI).
//   MpiCheckerLite— AST-based static call checks (MPI-Checker): literal
//                   argument errors and request-usage hygiene only.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>

#include "datasets/dataset.hpp"

namespace mpidetect::verify {

/// The one outcome vocabulary of every detector: core::Verdict::Outcome
/// is this type. The values are wire bytes and tally indices; keep them.
enum class Diagnostic : std::uint8_t {
  Correct,     // code reported clean
  Incorrect,   // error reported
  Timeout,     // no conclusion within budget (TO)
  RuntimeErr,  // detector crashed while analysing (RE)
  CompileErr,  // detector could not ingest the code (CE)
};

class VerificationTool {
 public:
  virtual ~VerificationTool() = default;
  virtual std::string_view name() const = 0;
  virtual Diagnostic check(const datasets::Case& c) = 0;
};

/// The dynamic tools. Each case runs under `schedules` schedules of
/// mpisim::sweep_schedules: the deterministic round-robin one (the
/// paper's protocol; all of it when `schedules == 1`) and seeded Random
/// ones derived from `seed`. An error seen under any schedule is
/// reported, which is what lets the tools catch timing-dependent
/// classes (WildcardRace, RecvRecvCycle) the fixed schedule masks.
/// \throws ContractViolation when `schedules < 1`.
std::unique_ptr<VerificationTool> make_itac_lite(int schedules = 1,
                                                 std::uint64_t seed = 1);
std::unique_ptr<VerificationTool> make_must_lite(int schedules = 1,
                                                 std::uint64_t seed = 1);
std::unique_ptr<VerificationTool> make_parcoach_lite();
std::unique_ptr<VerificationTool> make_mpichecker_lite();

}  // namespace mpidetect::verify
