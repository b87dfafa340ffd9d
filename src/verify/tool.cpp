#include "verify/tool.hpp"

#include "support/check.hpp"

namespace mpidetect::verify {

std::string_view diagnostic_name(Diagnostic d) {
  switch (d) {
    case Diagnostic::Correct: return "correct";
    case Diagnostic::Incorrect: return "incorrect";
    case Diagnostic::Timeout: return "timeout";
    case Diagnostic::RuntimeErr: return "runtime-error";
    case Diagnostic::CompileErr: return "compile-error";
  }
  MPIDETECT_UNREACHABLE("bad Diagnostic");
}

Diagnostic merge_schedule_diagnostics(const std::vector<Diagnostic>& per_run) {
  bool timeout = false, runtime_err = false, compile_err = false;
  for (const Diagnostic d : per_run) {
    switch (d) {
      case Diagnostic::Incorrect: return Diagnostic::Incorrect;
      case Diagnostic::Timeout: timeout = true; break;
      case Diagnostic::RuntimeErr: runtime_err = true; break;
      case Diagnostic::CompileErr: compile_err = true; break;
      case Diagnostic::Correct: break;
    }
  }
  if (compile_err) return Diagnostic::CompileErr;
  if (runtime_err) return Diagnostic::RuntimeErr;
  if (timeout) return Diagnostic::Timeout;
  return Diagnostic::Correct;
}

}  // namespace mpidetect::verify
