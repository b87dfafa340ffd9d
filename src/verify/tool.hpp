// Simplified re-implementations of the expert verification tools the
// paper compares against (Table III, Figure 7). Each tool reproduces
// the *detection profile* of its namesake from first principles:
//
//   ItacLite      — dynamic tracing with a step budget (Intel ITAC):
//                   high precision, deadlock detection via timeouts,
//                   inconclusive on long-running codes.
//   MustLite      — dynamic online checking (MUST): broadest dynamic
//                   coverage including races and RMA epochs.
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
#include <vector>

#include "datasets/dataset.hpp"

namespace mpidetect::verify {

enum class Diagnostic : std::uint8_t {
  Correct,     // tool reports the code clean
  Incorrect,   // tool reports an error
  Timeout,     // tool could not conclude in its budget (TO)
  RuntimeErr,  // tool crashed while analysing (RE)
  CompileErr,  // tool could not ingest the code (CE)
};

std::string_view diagnostic_name(Diagnostic d);

class VerificationTool {
 public:
  virtual ~VerificationTool() = default;
  virtual std::string_view name() const = 0;
  virtual Diagnostic check(const datasets::Case& c) = 0;
};

/// Schedule-exploration knobs for the dynamic tools (ITAC/MUST).
/// With `schedules == 1` the tool executes the single deterministic
/// round-robin interleaving — the paper's protocol, bit-identical to
/// the historical behaviour. With `schedules > 1` every case is run
/// under that many seeded schedules (mpisim/sweep.hpp) and the
/// per-schedule diagnostics are merged: an error observed under *any*
/// interleaving is reported, which is what lets the dynamic tools catch
/// timing-dependent classes (WildcardRace, RecvRecvCycle) the fixed
/// schedule happens to mask.
struct DynamicToolOptions {
  int schedules = 1;
  std::uint64_t seed = 1;  // base seed for the schedule sweep
};

/// Merge rule for per-schedule diagnostics: Incorrect dominates (a bug
/// seen under any schedule is a bug), then RuntimeErr, then Timeout;
/// Correct only when every schedule concluded Correct.
Diagnostic merge_schedule_diagnostics(const std::vector<Diagnostic>& per_run);

std::unique_ptr<VerificationTool> make_itac_lite();
std::unique_ptr<VerificationTool> make_itac_lite(
    const DynamicToolOptions& opts);
std::unique_ptr<VerificationTool> make_must_lite();
std::unique_ptr<VerificationTool> make_must_lite(
    const DynamicToolOptions& opts);
std::unique_ptr<VerificationTool> make_parcoach_lite();
std::unique_ptr<VerificationTool> make_mpichecker_lite();

}  // namespace mpidetect::verify
