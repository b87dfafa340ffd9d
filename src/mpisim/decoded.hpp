// The form of a module that the simulator executes. Decoding resolves,
// once per module, what the interpreter would otherwise look up on every
// executed instruction: each function's values get dense register slots
// (a frame's registers are a vector, not a hash map), constants are
// folded into their operands, branch targets point at decoded blocks,
// each block knows its leading phis, and every call site is classified
// as an MPI call, a thread fork, an opaque extern or a defined callee.
//
// Internal to mpisim: run() decodes once per run and sweep_schedules()
// once per sweep, so all schedules of a sweep share one decoded module.
#pragma once

#include <deque>
#include <memory>
#include <vector>

#include "ir/module.hpp"
#include "mpi/api.hpp"
#include "mpisim/machine.hpp"

namespace mpidetect::mpisim::detail {

/// Runtime value: integers/pointers in `i`, doubles in `f`. The static
/// IR type of the producing value decides which lane is meaningful.
struct RtVal {
  std::int64_t i = 0;
  double f = 0.0;
};

/// A decoded operand: a register slot of the enclosing function, or a
/// constant folded at decode time (functions evaluate to zero).
struct Operand {
  static constexpr std::uint32_t kConstant = ~std::uint32_t{0};
  std::uint32_t slot = kConstant;
  RtVal value;
};

struct DecodedBlock;
struct DecodedFunction;

/// How a call instruction executes, resolved once per call site.
enum class CallKind : std::uint8_t {
  Mpi,      // an MPI_* extern: `mpi_func`
  Fork,     // __mpidetect_thread_fork(t0, t1, shared): `callee`, `callee2`
  Extern,   // any other declaration: returns zero
  Defined,  // a function with a body: `callee`
};

struct DecodedInst {
  ir::Opcode op = ir::Opcode::Ret;
  ir::Type type = ir::Type::Void;      // result type
  ir::Type op0_type = ir::Type::Void;  // type of operand 0, if any
  ir::Type access_type = ir::Type::I32;
  ir::CmpPred pred = ir::CmpPred::EQ;
  CallKind call = CallKind::Extern;
  mpi::Func mpi_func = mpi::Func::Init;
  std::uint32_t slot = 0;  // result register
  std::uint32_t num_operands = 0;
  const Operand* operands = nullptr;
  /// Phi: the incoming block of each operand (same index).
  const ir::BasicBlock* const* incoming = nullptr;
  const DecodedBlock* succ[2] = {nullptr, nullptr};  // Br / CondBr
  const DecodedFunction* callee = nullptr;
  const DecodedFunction* callee2 = nullptr;
};

struct DecodedBlock {
  const ir::BasicBlock* ir = nullptr;
  const DecodedInst* insts = nullptr;
  std::size_t size = 0;
  std::size_t num_phis = 0;  // leading phi instructions
};

/// One function, decoded in its own register context. A branch to a
/// block of another function (malformed but executable IR) decodes that
/// block again in this context, so it reads and writes this frame's
/// registers exactly like the function's own blocks.
struct DecodedFunction {
  const ir::Function* ir = nullptr;
  /// Registers a frame of this function needs; arguments are slots
  /// 0..num_args-1.
  std::uint32_t num_slots = 0;
  /// Null for a declaration.
  const DecodedBlock* entry = nullptr;

  std::vector<DecodedBlock> blocks;
  std::vector<DecodedInst> insts;
  std::vector<Operand> operands;
  std::vector<const ir::BasicBlock*> incoming;
};

struct DecodedModule {
  /// `main` when the module defines it, else null.
  const DecodedFunction* main = nullptr;
  std::deque<DecodedFunction> functions;
};

/// Decodes every function reachable from the module. The module must
/// outlive the result and stay unmodified while it is in use.
std::unique_ptr<const DecodedModule> decode(const ir::Module& m);

/// Runs a decoded module: the body of mpisim::run.
RunReport run(const DecodedModule& d, const MachineConfig& config);

}  // namespace mpidetect::mpisim::detail
