#include "mpisim/machine.hpp"

#include <algorithm>
#include <cstring>
#include <deque>
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "mpi/api.hpp"
#include "mpisim/decoded.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace mpidetect::mpisim {

namespace {

using ir::Opcode;
using ir::Type;
using mpi::ArgRole;
using mpi::Func;
using detail::CallKind;
using detail::DecodedBlock;
using detail::DecodedFunction;
using detail::DecodedModule;
using detail::Operand;
using detail::RtVal;
using DInst = detail::DecodedInst;

/// Addresses encode the owning rank so cross-rank pointer leaks are
/// detectable: addr = (rank+1) << 32 | offset. Offset 0 is never handed
/// out, keeping nullptr == 0 invalid.
constexpr std::uint64_t make_addr(int rank, std::uint64_t offset) {
  return (static_cast<std::uint64_t>(rank + 1) << 32) | offset;
}
constexpr int addr_rank(std::uint64_t addr) {
  return static_cast<int>(addr >> 32) - 1;
}
constexpr std::uint64_t addr_offset(std::uint64_t addr) {
  return addr & 0xffffffffULL;
}

/// One interpreter stack frame.
struct Frame {
  const DecodedBlock* block = nullptr;
  const DecodedBlock* prev_block = nullptr;  // for phi resolution
  std::size_t inst = 0;
  /// One register per value slot of the function; a slot nobody wrote
  /// reads as RtVal{}.
  std::vector<RtVal> regs;
  const DInst* call_site = nullptr;  // caller inst awaiting result
};

/// A fresh frame at the entry of `f`.
Frame enter_function(const DecodedFunction& f) {
  // A declaration has no entry block; ir::Function::entry() rejects it.
  if (f.entry == nullptr) (void)f.ir->entry();
  Frame fr;
  fr.block = f.entry;
  fr.regs.resize(f.num_slots);
  return fr;
}

enum class RankStatus : std::uint8_t {
  Runnable,
  BlockedSend,
  BlockedRecv,
  BlockedColl,
  BlockedWait,
  BlockedProbe,
  BlockedJoin,  // parent context waiting on forked thread contexts
  Finished,
  Crashed,
};

/// Which wait-family call a BlockedWait context is executing.
enum class WaitMode : std::uint8_t { All, Any, Some };

/// One message half of a point-to-point call as the program passed it:
/// MPI_Send/MPI_Recv and their nonblocking and persistent forms have
/// one, MPI_Sendrecv has two. `peer` is the destination of a send and
/// the source of a receive.
struct P2pArgs {
  std::uint64_t buf = 0;
  std::int64_t count = 0;
  std::int32_t dtype = 0, peer = 0, tag = 0, comm = 0;
};

/// How a posted send completes.
enum class SendMode : std::uint8_t {
  Standard,     // eager up to kEagerThreshold bytes, rendezvous above
  Synchronous,  // MPI_Ssend: always rendezvous
  Buffered,     // MPI_Sendrecv's send half: always eager
};

/// A posted (possibly in-flight) point-to-point send.
struct PendingSend {
  int src = 0, dest = 0, tag = 0;
  std::int32_t comm = 0, dtype = 0;
  bool builtin_dtype = true;   // derived types compare by size, not handle
  std::size_t elem_bytes = 0;  // captured at post time (free-safe)
  std::vector<std::uint8_t> payload;
  bool synchronous = false;   // Ssend or above eager threshold
  bool matched = false;
  std::int64_t request = 0;   // nonzero when started by Isend/Start
  std::uint64_t seq = 0;      // posting order (non-overtaking matching)
  int ctx = 0;                // posting execution context within src
};

/// A posted receive waiting for a matching send.
struct PendingRecv {
  int rank = 0, src = 0, tag = 0;
  std::int32_t comm = 0, dtype = 0;
  bool builtin_dtype = true;
  std::size_t elem_bytes = 0;
  std::int64_t count = 0;
  std::uint64_t buffer = 0;
  std::int64_t request = 0;   // nonzero when posted by Irecv/Start
  std::uint64_t seq = 0;
  int ctx = 0;                // posting execution context within rank
};

/// Nonblocking / persistent operation state.
struct Request {
  int rank = 0;
  bool persistent = false;
  bool active = false;     // started and not yet completed
  bool completed = false;
  bool freed = false;
  bool waited = false;     // user consumed it via Wait/Waitall/Test
  // Persistent requests: the operation MPI_Start re-posts.
  bool sends = false;      // MPI_Send_init (else MPI_Recv_init)
  P2pArgs p2p;
};

/// What a rank recorded when it arrived at a synchronizing operation.
struct CollArrival {
  Func func = Func::Barrier;
  std::int32_t root = -1, op = -1, dtype = -1, dtype2 = -1;
  std::int64_t count = 0, count2 = 0;
  std::uint64_t sendbuf = 0, recvbuf = 0;
  std::int32_t color = 0, key = 0;     // Comm_split
  std::uint64_t out_ptr = 0;           // comm/win handle destination
  std::uint64_t win_base = 0;          // Win_create
  std::int64_t win_size = 0;
  std::int32_t win = -1;               // Win_fence / Win_free
  int ctx = 0;                         // arriving execution context
};

/// One in-flight nonblocking-collective "round" on a communicator:
/// the n-th Ibarrier/Ibcast/... a rank posts on that comm joins the
/// n-th round (MPI orders nonblocking collectives per communicator).
struct NbcRound {
  std::map<int, CollArrival> arr;    // world rank -> arrival
  std::map<int, std::int64_t> reqs;  // world rank -> request handle
  bool done = false;
};

struct Communicator {
  std::vector<int> ranks;  // world ranks, sorted by key order
  std::vector<int> freed_by;  // ranks that called MPI_Comm_free
  bool freed = false;  // every member freed its handle
  bool builtin = false;
};

/// One RMA access recorded inside an epoch (conflict detection).
struct RmaAccess {
  int origin = 0, target = 0;
  std::uint64_t lo = 0, hi = 0;  // byte range within target window
  bool write = false;
};

struct Window {
  std::int32_t comm = 0;
  std::unordered_map<int, std::uint64_t> base;  // rank -> base address
  std::unordered_map<int, std::int64_t> size;
  bool fence_open = false;   // inside a fence epoch
  std::vector<RmaAccess> epoch_accesses;
  std::unordered_map<int, int> lock_holder;  // target rank -> origin rank
  bool freed = false;
};

struct DerivedType {
  std::size_t bytes = 0;
  bool committed = false;
};

/// Buffer range owned by an active request (local-concurrency checks).
struct OwnedRange {
  std::uint64_t lo = 0, hi = 0;
  bool write = false;  // receive buffers are written by the library
  std::int64_t request = 0;
};

/// One schedulable execution context of a rank. Context 0 is the main
/// thread; __mpidetect_thread_fork pushes two more per ThreadBlock
/// (MPI_THREAD_MULTIPLE model: threads share the rank's arena, request
/// table, and MPI state, but execute and block independently).
struct ExecCtx {
  RankStatus status = RankStatus::Runnable;
  std::vector<Frame> frames;
  // Blocked-on descriptors. The wait slots hold the requests of the
  // latest wait or test call, with their indices in its request array.
  std::uint64_t wait_requests[64] = {};
  int wait_slots[64] = {};
  int wait_count = 0;
  WaitMode wait_mode = WaitMode::All;
  std::uint64_t wait_array = 0;         // request array base address
  std::uint64_t wait_index_out = 0;     // Waitany: int* index
  std::uint64_t wait_outcount_out = 0;  // Waitsome: int* outcount
  std::uint64_t wait_indices_out = 0;   // Waitsome: int[] indices
  std::uint64_t blocked_send_seq = 0;
  std::int32_t probe_src = 0, probe_tag = 0, probe_comm = 0;
  int parent = -1;  // forking context index; -1 for the main thread
  std::vector<int> join_children;

  /// Address of the i-th wait slot's handle in the request array.
  std::uint64_t wait_slot_addr(int i) const {
    return wait_array + static_cast<std::uint64_t>(wait_slots[i]) * 8;
  }
};

struct RankState {
  std::vector<ExecCtx> ctxs;  // ctx 0 = main thread
  int active = 0;             // context currently executing
  /// Heap memory. Capacity is reserved up to MachineConfig::arena_bytes
  /// without touching it; the size grows, zero-filled, to the highest
  /// byte accessed so far. Growth stays within the reservation, so a
  /// pointer into the arena stays valid while another is resolved.
  std::vector<std::uint8_t> arena;
  std::size_t bump = 8;  // offset 0..7 reserved
  bool inited = false, finalized = false;
  std::vector<OwnedRange> owned;  // process memory: shared across ctxs

  ExecCtx& cur() { return ctxs[static_cast<std::size_t>(active)]; }
  const ExecCtx& cur() const {
    return ctxs[static_cast<std::size_t>(active)];
  }
};

/// A rank is dead only when every context has stopped for good.
inline bool rank_dead(const RankState& r) {
  for (const ExecCtx& c : r.ctxs) {
    if (c.status != RankStatus::Finished &&
        c.status != RankStatus::Crashed) {
      return false;
    }
  }
  return true;
}

class Machine {
 public:
  Machine(const DecodedModule& prog, const MachineConfig& cfg)
      : prog_(prog),
        cfg_(cfg),
        random_(cfg.schedule.policy == SchedPolicy::Random),
        // Seed 0 is reserved for the round-robin schedule; a Random
        // schedule with seed 0 is remapped so reports stay unambiguous.
        sched_seed_(random_ ? (cfg.schedule.seed != 0 ? cfg.schedule.seed
                                                      : 0x5eedULL)
                            : 0),
        rng_(sched_seed_) {
    rep_.schedule_seed = sched_seed_;
    ranks_.resize(static_cast<std::size_t>(cfg.nprocs));
    for (auto& r : ranks_) {
      r.arena.reserve(cfg.arena_bytes);
      r.ctxs.resize(1);  // main thread
    }
    Communicator world;
    world.builtin = true;
    for (int i = 0; i < cfg.nprocs; ++i) world.ranks.push_back(i);
    comms_[mpi::kCommWorld] = std::move(world);
  }

  RunReport run();

 private:
  // --- findings ------------------------------------------------------------
  void report(FindingKind kind, int rank, std::string msg) {
    // Deduplicate identical findings (loops would otherwise flood).
    for (const Finding& f : rep_.findings) {
      if (f.kind == kind && f.rank == rank && f.message == msg) return;
    }
    rep_.findings.push_back(Finding{kind, rank, std::move(msg)});
  }

  // --- memory --------------------------------------------------------------
  std::uint64_t alloc(int rank, std::size_t bytes) {
    RankState& r = ranks_[static_cast<std::size_t>(rank)];
    // Rounded up to 8 bytes and compared against the room left, so
    // neither the rounding nor the new bump can wrap.
    constexpr std::size_t kMaxBytes = std::numeric_limits<std::size_t>::max();
    const std::size_t aligned =
        (std::min(bytes, kMaxBytes - 7) + 7) & ~std::size_t{7};
    if (r.bump > cfg_.arena_bytes || aligned > cfg_.arena_bytes - r.bump) {
      report(FindingKind::MemoryFault, rank, "arena exhausted");
      crash(rank);
      return 0;
    }
    const std::uint64_t addr = make_addr(rank, r.bump);
    r.bump += aligned;
    return addr;
  }

  /// Resolves an address to a byte pointer in some rank's arena, or null
  /// (reporting a fault for `for_rank`) when invalid. Memory inside the
  /// limit that nothing has touched yet reads as zero.
  std::uint8_t* resolve(std::uint64_t addr, std::size_t len, int for_rank) {
    const int owner = addr_rank(addr);
    const std::uint64_t off = addr_offset(addr);
    if (owner < 0 || owner >= cfg_.nprocs) {
      report(FindingKind::MemoryFault, for_rank, "bad address");
      return nullptr;
    }
    RankState& r = ranks_[static_cast<std::size_t>(owner)];
    const std::size_t limit = cfg_.arena_bytes;
    if (off == 0 || off > limit || len > limit - off) {
      report(FindingKind::MemoryFault, for_rank, "out-of-bounds access");
      return nullptr;
    }
    if (off + len > r.arena.size()) r.arena.resize(off + len);
    return r.arena.data() + off;
  }

  bool mem_read(int rank, std::uint64_t addr, void* out, std::size_t len) {
    const std::uint8_t* p = resolve(addr, len, rank);
    if (p == nullptr) return false;
    std::memcpy(out, p, len);
    return true;
  }

  bool mem_write(int rank, std::uint64_t addr, const void* in,
                 std::size_t len) {
    std::uint8_t* p = resolve(addr, len, rank);
    if (p == nullptr) return false;
    std::memcpy(p, in, len);
    return true;
  }

  void crash(int rank) {
    // A crash kills the whole process: every thread context stops.
    for (ExecCtx& c : ranks_[static_cast<std::size_t>(rank)].ctxs) {
      c.status = RankStatus::Crashed;
    }
  }

  // --- value evaluation ----------------------------------------------------
  Frame& frame(int rank) {
    return ranks_[static_cast<std::size_t>(rank)].cur().frames.back();
  }

  static RtVal eval(const Frame& fr, const Operand& op) {
    return op.slot == Operand::kConstant ? op.value : fr.regs[op.slot];
  }

  /// Operand `idx` of `inst`; like ir::Instruction::operand, a missing
  /// operand throws std::out_of_range.
  static const Operand& operand(const DInst& inst, std::size_t idx) {
    if (idx >= inst.num_operands) {
      throw std::out_of_range("instruction operand index out of range");
    }
    return inst.operands[idx];
  }

  void set_reg(int rank, const DInst& inst, RtVal val) {
    frame(rank).regs[inst.slot] = val;
  }

  // --- execution -----------------------------------------------------------
  void step(int rank, int ctx);
  void exec(int rank, const DInst& inst);
  void enter_block(int rank, const DecodedBlock* to);
  void do_return(int rank, std::optional<RtVal> value);
  void exec_call(int rank, const DInst& inst);
  void exec_mpi(int rank, Func f, const DInst& inst);

  // --- MPI helpers ---------------------------------------------------------
  std::size_t datatype_bytes(std::int32_t handle, int rank, bool* ok);
  bool validate_comm(std::int32_t comm, int rank);
  bool validate_rank_arg(std::int32_t peer, std::int32_t comm, int rank,
                         bool wildcard_ok);
  const Communicator* comm_of(std::int32_t handle) const {
    const auto it = comms_.find(handle);
    return it == comms_.end() ? nullptr : &it->second;
  }
  void check_owned(int rank, std::uint64_t lo, std::uint64_t hi, bool write);
  void add_owned(int rank, std::uint64_t lo, std::uint64_t hi, bool write,
                 std::int64_t req);
  void drop_owned(int rank, std::int64_t req);

  /// The five operands from `first` on: buffer, count, datatype,
  /// peer and tag.
  P2pArgs p2p_args(int rank, const DInst& inst, std::size_t first) {
    P2pArgs a;
    a.buf = static_cast<std::uint64_t>(arg(rank, inst, first).i);
    a.count = arg(rank, inst, first + 1).i;
    a.dtype = static_cast<std::int32_t>(arg(rank, inst, first + 2).i);
    a.peer = static_cast<std::int32_t>(arg(rank, inst, first + 3).i);
    a.tag = static_cast<std::int32_t>(arg(rank, inst, first + 4).i);
    return a;
  }
  bool check_p2p(int rank, const P2pArgs* send, const P2pArgs* recv,
                 std::size_t& send_elem, std::size_t& recv_elem);
  void post_p2p(int rank, Func f, const DInst& inst, std::int64_t request);
  bool enqueue_send(int rank, const P2pArgs& a, std::size_t elem,
                    SendMode mode, std::int64_t request);
  void enqueue_recv(int rank, const P2pArgs& a, std::size_t elem,
                    std::int64_t request);
  std::int64_t new_request(int rank, Func f, const DInst& inst);
  bool gather_requests(int rank, Func f, const DInst& inst);
  /// The request in wait slot `i` of `c`; requests are never erased.
  Request& slot_request(const ExecCtx& c, int i) {
    return requests_.at(static_cast<std::int64_t>(c.wait_requests[i]));
  }
  void consume(int rank, Request& rq, std::uint64_t slot);
  void wait_for(int rank, WaitMode mode);
  /// Extracts and validates the operands of a synchronizing op into `a`;
  /// false when the call is malformed (reported) and becomes a no-op.
  bool parse_collective_args(int rank, Func f, const DInst& inst,
                             CollArrival& a, std::int32_t& comm);
  void arrive_collective(int rank, Func f, const DInst& inst);
  void try_complete_collectives();
  void complete_collective(std::int32_t comm,
                           std::vector<std::pair<int, CollArrival>>& arr,
                           bool release);
  void nbc_post(int rank, Func f, const DInst& inst,
                std::int64_t handle);
  void try_complete_nbc();
  bool probe_match(int rank, std::int32_t src, std::int32_t tag,
                   std::int32_t comm, int* sources);
  void check_probes();
  void match_messages();
  void complete_request(std::int64_t handle);
  void finish_wait_if_ready(int rank);
  void try_finish_wait(int rank, int ctx);
  void finalize_rank(int rank);
  void leak_check();
  std::size_t quiet_dtype_bytes(std::int32_t handle) {
    if (const auto sz = mpi::builtin_datatype_size(handle)) return *sz;
    const auto it = derived_types_.find(handle);
    return it != derived_types_.end() ? it->second.bytes : 0;
  }

  RtVal arg(int rank, const DInst& inst, std::size_t idx) {
    return eval(frame(rank), operand(inst, idx));
  }

  bool run_slice(int rank, int ctx, std::int64_t slice);
  bool schedule_slices();
  bool check_end(bool executed);

  const DecodedModule& prog_;
  MachineConfig cfg_;
  bool random_ = false;
  std::uint64_t sched_seed_ = 0;
  Rng rng_;
  RunReport rep_;
  std::vector<RankState> ranks_;

  std::deque<PendingSend> sends_;
  std::deque<PendingRecv> recvs_;
  std::uint64_t seq_ = 0;
  std::unordered_map<std::int64_t, Request> requests_;
  std::int64_t next_request_ = 1000;
  std::map<std::int32_t, Communicator> comms_;
  std::int32_t next_comm_ = 200;
  std::map<std::int32_t, Window> windows_;
  std::int32_t next_win_ = 500;
  std::map<std::int32_t, DerivedType> derived_types_;
  std::int32_t next_dtype_ = mpi::kFirstDerivedDatatype;
  // comm handle -> per-rank arrival slot for synchronizing operations
  std::map<std::int32_t, std::map<int, CollArrival>> arrivals_;
  // comm handle -> ordered nonblocking-collective rounds
  std::map<std::int32_t, std::vector<NbcRound>> nbc_rounds_;
  // comm handle -> rank -> number of NBC operations posted so far
  std::map<std::int32_t, std::map<int, int>> nbc_posted_;
  int finalize_arrivals_ = 0;
  bool matching_dirty_ = false;
  // Scratch reused across steps so the hot paths do not allocate.
  std::vector<RtVal> phi_vals_;
  std::vector<std::pair<int, int>> runnable_;
};

// ===========================================================================
// Interpreter core
// ===========================================================================

void Machine::enter_block(int rank, const DecodedBlock* to) {
  Frame& fr = frame(rank);
  fr.prev_block = fr.block;
  fr.block = to;
  // Phi nodes evaluate atomically against the edge just taken, and are
  // consumed here, not in exec().
  phi_vals_.clear();
  for (std::size_t p = 0; p < to->num_phis; ++p) {
    const DInst& phi = to->insts[p];
    RtVal v{};
    for (std::size_t k = 0; k < phi.num_operands; ++k) {
      if (phi.incoming[k] == fr.prev_block->ir) {
        v = eval(fr, phi.operands[k]);
        break;
      }
    }
    phi_vals_.push_back(v);
  }
  for (std::size_t p = 0; p < to->num_phis; ++p) {
    fr.regs[to->insts[p].slot] = phi_vals_[p];
  }
  fr.inst = to->num_phis;
}

void Machine::do_return(int rank, std::optional<RtVal> value) {
  RankState& r = ranks_[static_cast<std::size_t>(rank)];
  ExecCtx& c = r.cur();
  const DInst* site = c.frames.back().call_site;
  c.frames.pop_back();
  if (c.frames.empty()) {
    // Only the main thread carries the MissingFinalize obligation.
    if (r.active == 0 && r.inited && !r.finalized) {
      report(FindingKind::MissingFinalize, rank,
             "main returned without MPI_Finalize");
    }
    c.status = RankStatus::Finished;
    // Wake a parent blocked joining this thread once all siblings end.
    if (c.parent >= 0) {
      ExecCtx& p = r.ctxs[static_cast<std::size_t>(c.parent)];
      if (p.status == RankStatus::BlockedJoin) {
        bool all = true;
        for (const int ci : p.join_children) {
          const RankStatus st =
              r.ctxs[static_cast<std::size_t>(ci)].status;
          if (st != RankStatus::Finished && st != RankStatus::Crashed) {
            all = false;
            break;
          }
        }
        if (all) p.status = RankStatus::Runnable;
      }
    }
    return;
  }
  if (site != nullptr && value.has_value() && site->type != Type::Void) {
    c.frames.back().regs[site->slot] = *value;
  }
}

void Machine::step(int rank, int ctx) {
  RankState& r = ranks_[static_cast<std::size_t>(rank)];
  r.active = ctx;
  ExecCtx& c = r.ctxs[static_cast<std::size_t>(ctx)];
  if (c.status != RankStatus::Runnable) return;
  Frame& fr = c.frames.back();
  if (fr.inst >= fr.block->size) {
    // Malformed block (no terminator) — treat as fault.
    report(FindingKind::MemoryFault, rank, "fell off block end");
    crash(rank);
    return;
  }
  ++rep_.steps;
  exec(rank, fr.block->insts[fr.inst]);
}

/// Successor `k` of a branch; a missing one throws std::out_of_range,
/// like ir::Instruction::block_operand.
const DecodedBlock* successor(const DInst& inst, std::size_t k) {
  if (inst.succ[k] == nullptr) {
    throw std::out_of_range("branch successor index out of range");
  }
  return inst.succ[k];
}

void Machine::exec(int rank, const DInst& inst) {
  RankState& r = ranks_[static_cast<std::size_t>(rank)];
  Frame& fr = r.cur().frames.back();
  const auto val = [&](std::size_t k) { return eval(fr, operand(inst, k)); };
  const auto set = [&](RtVal v) { fr.regs[inst.slot] = v; };
  const auto advance = [&] { ++fr.inst; };

  switch (inst.op) {
    case Opcode::Alloca: {
      const auto count =
          static_cast<std::size_t>(std::max<std::int64_t>(val(0).i, 0));
      const std::size_t elem = ir::type_size(inst.access_type);
      // A byte size that overflows size_t fits no arena: saturate it.
      const std::size_t bytes =
          count > std::numeric_limits<std::size_t>::max() / elem
              ? std::numeric_limits<std::size_t>::max()
              : count * elem;
      const std::uint64_t addr = alloc(rank, std::max<std::size_t>(bytes, 1));
      if (r.cur().status == RankStatus::Crashed) return;
      set(RtVal{static_cast<std::int64_t>(addr), 0.0});
      advance();
      return;
    }
    case Opcode::Load: {
      const std::uint64_t addr = static_cast<std::uint64_t>(val(0).i);
      const std::size_t len = ir::type_size(inst.type);
      check_owned(rank, addr, addr + len, /*write=*/false);
      RtVal out{};
      if (inst.type == Type::F64) {
        double d = 0;
        if (!mem_read(rank, addr, &d, len)) { crash(rank); return; }
        out.f = d;
      } else {
        std::int64_t raw = 0;
        if (!mem_read(rank, addr, &raw, len)) { crash(rank); return; }
        // Sign-extend by width.
        if (inst.type == Type::I32) raw = static_cast<std::int32_t>(raw);
        if (inst.type == Type::I1) raw &= 1;
        out.i = raw;
      }
      set(out);
      advance();
      return;
    }
    case Opcode::Store: {
      const RtVal v = val(0);
      const std::uint64_t addr = static_cast<std::uint64_t>(val(1).i);
      const Type t = inst.op0_type;
      const std::size_t len = ir::type_size(t);
      check_owned(rank, addr, addr + len, /*write=*/true);
      bool ok;
      if (t == Type::F64) {
        ok = mem_write(rank, addr, &v.f, len);
      } else {
        ok = mem_write(rank, addr, &v.i, len);
      }
      if (!ok) { crash(rank); return; }
      advance();
      return;
    }
    case Opcode::Gep: {
      const std::uint64_t base = static_cast<std::uint64_t>(val(0).i);
      const std::int64_t idx = val(1).i;
      const std::int64_t off =
          idx * static_cast<std::int64_t>(ir::type_size(inst.access_type));
      set(RtVal{static_cast<std::int64_t>(base) + off, 0.0});
      advance();
      return;
    }
    case Opcode::Add: case Opcode::Sub: case Opcode::Mul:
    case Opcode::SDiv: case Opcode::SRem: case Opcode::And:
    case Opcode::Or: case Opcode::Xor: case Opcode::Shl:
    case Opcode::AShr: {
      const std::int64_t a = val(0).i;
      const std::int64_t b = val(1).i;
      std::int64_t out = 0;
      switch (inst.op) {
        case Opcode::Add: out = a + b; break;
        case Opcode::Sub: out = a - b; break;
        case Opcode::Mul: out = a * b; break;
        case Opcode::SDiv:
          if (b == 0) {
            report(FindingKind::MemoryFault, rank, "division by zero");
            crash(rank);
            return;
          }
          out = a / b;
          break;
        case Opcode::SRem:
          if (b == 0) {
            report(FindingKind::MemoryFault, rank, "remainder by zero");
            crash(rank);
            return;
          }
          out = a % b;
          break;
        case Opcode::And: out = a & b; break;
        case Opcode::Or: out = a | b; break;
        case Opcode::Xor: out = a ^ b; break;
        case Opcode::Shl: out = (b >= 0 && b < 64) ? a << b : 0; break;
        case Opcode::AShr: out = (b >= 0 && b < 64) ? a >> b : 0; break;
        default: break;
      }
      if (inst.type == Type::I32) out = static_cast<std::int32_t>(out);
      set(RtVal{out, 0.0});
      advance();
      return;
    }
    case Opcode::FAdd: case Opcode::FSub: case Opcode::FMul:
    case Opcode::FDiv: {
      const double a = val(0).f;
      const double b = val(1).f;
      double out = 0;
      switch (inst.op) {
        case Opcode::FAdd: out = a + b; break;
        case Opcode::FSub: out = a - b; break;
        case Opcode::FMul: out = a * b; break;
        case Opcode::FDiv: out = a / b; break;
        default: break;
      }
      set(RtVal{0, out});
      advance();
      return;
    }
    case Opcode::ICmp: {
      const std::int64_t a = val(0).i;
      const std::int64_t b = val(1).i;
      bool out = false;
      switch (inst.pred) {
        case ir::CmpPred::EQ: out = a == b; break;
        case ir::CmpPred::NE: out = a != b; break;
        case ir::CmpPred::SLT: out = a < b; break;
        case ir::CmpPred::SLE: out = a <= b; break;
        case ir::CmpPred::SGT: out = a > b; break;
        case ir::CmpPred::SGE: out = a >= b; break;
      }
      set(RtVal{out ? 1 : 0, 0.0});
      advance();
      return;
    }
    case Opcode::FCmp: {
      const double a = val(0).f;
      const double b = val(1).f;
      bool out = false;
      switch (inst.pred) {
        case ir::CmpPred::EQ: out = a == b; break;
        case ir::CmpPred::NE: out = a != b; break;
        case ir::CmpPred::SLT: out = a < b; break;
        case ir::CmpPred::SLE: out = a <= b; break;
        case ir::CmpPred::SGT: out = a > b; break;
        case ir::CmpPred::SGE: out = a >= b; break;
      }
      set(RtVal{out ? 1 : 0, 0.0});
      advance();
      return;
    }
    case Opcode::Select: {
      const bool c = val(0).i != 0;
      set(val(c ? 1 : 2));
      advance();
      return;
    }
    case Opcode::ZExt: case Opcode::SExt: case Opcode::Trunc: {
      std::int64_t v = val(0).i;
      if (inst.op == Opcode::ZExt && inst.op0_type == Type::I1) v &= 1;
      if (inst.type == Type::I32) v = static_cast<std::int32_t>(v);
      if (inst.type == Type::I1) v &= 1;
      set(RtVal{v, 0.0});
      advance();
      return;
    }
    case Opcode::SIToFP: {
      set(RtVal{0, static_cast<double>(val(0).i)});
      advance();
      return;
    }
    case Opcode::FPToSI: {
      std::int64_t v = static_cast<std::int64_t>(val(0).f);
      if (inst.type == Type::I32) v = static_cast<std::int32_t>(v);
      set(RtVal{v, 0.0});
      advance();
      return;
    }
    case Opcode::Phi:
      // Handled by enter_block; reaching one mid-block means entry=block
      // start (first block of a function) with no predecessor: zero.
      set(RtVal{});
      advance();
      return;
    case Opcode::Br:
      enter_block(rank, successor(inst, 0));
      return;
    case Opcode::CondBr: {
      const bool c = val(0).i != 0;
      enter_block(rank, successor(inst, c ? 0 : 1));
      return;
    }
    case Opcode::Ret: {
      if (inst.num_operands == 1) {
        do_return(rank, val(0));
      } else {
        do_return(rank, std::nullopt);
      }
      return;
    }
    case Opcode::Call:
      exec_call(rank, inst);
      return;
  }
  MPIDETECT_UNREACHABLE("unhandled opcode in interpreter");
}

void Machine::exec_call(int rank, const DInst& inst) {
  RankState& r = ranks_[static_cast<std::size_t>(rank)];
  Frame& fr = r.cur().frames.back();

  switch (inst.call) {
    case CallKind::Mpi:
      exec_mpi(rank, inst.mpi_func, inst);
      return;

    case CallKind::Fork: {
      // ThreadBlock lowering: fork two thread contexts, join the caller.
      const RtVal shared = eval(fr, operand(inst, 2));
      ++fr.inst;  // the parent resumes after the implicit join
      const int parent_idx = r.active;
      const int base = static_cast<int>(r.ctxs.size());
      for (const DecodedFunction* tf : {inst.callee, inst.callee2}) {
        ExecCtx child;
        child.parent = parent_idx;
        Frame cf = enter_function(*tf);
        if (tf->ir->num_args() >= 1) cf.regs[0] = shared;
        child.frames.push_back(std::move(cf));
        r.ctxs.push_back(std::move(child));  // invalidates fr
      }
      ExecCtx& p = r.ctxs[static_cast<std::size_t>(parent_idx)];
      p.join_children = {base, base + 1};
      p.status = RankStatus::BlockedJoin;
      return;
    }

    case CallKind::Extern:
      // Unknown extern (printf, compute kernels, ...): returns 0 / no-op.
      if (inst.type != Type::Void) fr.regs[inst.slot] = RtVal{};
      ++fr.inst;
      return;

    case CallKind::Defined: {
      // Arguments occupy the callee's first register slots.
      Frame next = enter_function(*inst.callee);
      next.call_site = &inst;
      for (std::size_t i = 0; i < inst.callee->ir->num_args(); ++i) {
        next.regs[i] = eval(fr, operand(inst, i));
      }
      ++fr.inst;  // resume after the call on return
      r.cur().frames.push_back(std::move(next));
      // Entry block may start with phis only in malformed IR; enter
      // normally.
      return;
    }
  }
  MPIDETECT_UNREACHABLE("unhandled call kind in interpreter");
}

// ===========================================================================
// MPI runtime
// ===========================================================================

std::size_t Machine::datatype_bytes(std::int32_t handle, int rank, bool* ok) {
  *ok = true;
  if (const auto sz = mpi::builtin_datatype_size(handle)) return *sz;
  const auto it = derived_types_.find(handle);
  if (it != derived_types_.end()) {
    if (!it->second.committed) {
      report(FindingKind::InvalidParam, rank, "uncommitted datatype used");
      *ok = false;
      return 0;
    }
    return it->second.bytes;
  }
  report(FindingKind::InvalidParam, rank, "invalid datatype handle");
  *ok = false;
  return 0;
}

bool Machine::validate_comm(std::int32_t comm, int rank) {
  const Communicator* c = comm_of(comm);
  if (c == nullptr || c->freed) {
    report(FindingKind::InvalidParam, rank, "invalid communicator");
    return false;
  }
  return true;
}

bool Machine::validate_rank_arg(std::int32_t peer, std::int32_t comm,
                                int rank, bool wildcard_ok) {
  if (peer == mpi::kProcNull) return true;
  if (wildcard_ok && peer == mpi::kAnySource) return true;
  const Communicator* c = comm_of(comm);
  const int size = c ? static_cast<int>(c->ranks.size()) : 0;
  if (peer < 0 || peer >= size) {
    report(FindingKind::InvalidParam, rank,
           "rank argument out of range: " + std::to_string(peer));
    return false;
  }
  return true;
}

void Machine::check_owned(int rank, std::uint64_t lo, std::uint64_t hi,
                          bool write) {
  for (const OwnedRange& o :
       ranks_[static_cast<std::size_t>(rank)].owned) {
    const bool overlap = lo < o.hi && o.lo < hi;
    if (!overlap) continue;
    // Reading a send buffer is fine; every other combination conflicts.
    if (write || o.write) {
      report(FindingKind::LocalConcurrency, rank,
             "buffer accessed while owned by an active request");
    }
  }
}

void Machine::add_owned(int rank, std::uint64_t lo, std::uint64_t hi,
                        bool write, std::int64_t req) {
  ranks_[static_cast<std::size_t>(rank)].owned.push_back(
      OwnedRange{lo, hi, write, req});
}

void Machine::drop_owned(int rank, std::int64_t req) {
  auto& owned = ranks_[static_cast<std::size_t>(rank)].owned;
  owned.erase(std::remove_if(owned.begin(), owned.end(),
                             [&](const OwnedRange& o) {
                               return o.request == req;
                             }),
              owned.end());
}

/// Checks a point-to-point call with a send half, a receive half or
/// both (MPI_Sendrecv), reporting every problem in one fixed order:
/// communicator, count, tags, ranks, datatypes, buffers. Sets each
/// half's element size. False when the call is malformed and becomes a
/// no-op.
bool Machine::check_p2p(int rank, const P2pArgs* send, const P2pArgs* recv,
                        std::size_t& send_elem, std::size_t& recv_elem) {
  const std::int32_t comm = (send != nullptr ? send : recv)->comm;
  bool ok = validate_comm(comm, rank);
  if ((send != nullptr && send->count < 0) ||
      (recv != nullptr && recv->count < 0)) {
    report(FindingKind::InvalidParam, rank,
           send == nullptr   ? "negative recv count"
           : recv == nullptr ? "negative send count"
                             : "negative sendrecv count");
    ok = false;
  }
  if (send != nullptr && (send->tag < 0 || send->tag > mpi::kTagUb)) {
    report(FindingKind::InvalidParam, rank,
           "invalid tag on send: " + std::to_string(send->tag));
    ok = false;
  }
  if (recv != nullptr && recv->tag != mpi::kAnyTag &&
      (recv->tag < 0 || recv->tag > mpi::kTagUb)) {
    report(FindingKind::InvalidParam, rank,
           "invalid tag on recv: " + std::to_string(recv->tag));
    ok = false;
  }
  if (send != nullptr &&
      !validate_rank_arg(send->peer, comm, rank, /*wildcard_ok=*/false)) {
    ok = false;
  }
  if (recv != nullptr &&
      !validate_rank_arg(recv->peer, comm, rank, /*wildcard_ok=*/true)) {
    ok = false;
  }
  bool dt_ok = true;
  if (send != nullptr) {
    send_elem = datatype_bytes(send->dtype, rank, &dt_ok);
    ok = ok && dt_ok;
  }
  if (recv != nullptr) {
    recv_elem = datatype_bytes(recv->dtype, rank, &dt_ok);
    ok = ok && dt_ok;
  }
  if (send != nullptr && send->buf == 0 && send->count > 0) {
    report(FindingKind::InvalidParam, rank, "null send buffer");
    ok = false;
  }
  if (recv != nullptr && recv->buf == 0 && recv->count > 0) {
    report(FindingKind::InvalidParam, rank, "null recv buffer");
    ok = false;
  }
  return ok;
}

/// MPI_Send, MPI_Ssend, MPI_Recv, MPI_Sendrecv, MPI_Isend and
/// MPI_Irecv (`request` nonzero for the last two).
void Machine::post_p2p(int rank, Func f, const DInst& inst,
                       std::int64_t request) {
  const bool sendrecv = f == Func::Sendrecv;
  const bool recv_only = f == Func::Recv || f == Func::Irecv;
  P2pArgs first = p2p_args(rank, inst, 0);
  P2pArgs second = sendrecv ? p2p_args(rank, inst, 5) : P2pArgs{};
  first.comm = second.comm =
      static_cast<std::int32_t>(arg(rank, inst, sendrecv ? 10 : 5).i);
  const P2pArgs* send = recv_only ? nullptr : &first;
  const P2pArgs* recv = recv_only ? &first : sendrecv ? &second : nullptr;
  std::size_t send_elem = 0, recv_elem = 0;
  // A malformed call, or a half addressed to MPI_PROC_NULL, posts nothing.
  if (!check_p2p(rank, send, recv, send_elem, recv_elem)) return;
  if (send != nullptr && send->peer != mpi::kProcNull) {
    // MPI_Sendrecv is deadlock-free: the send half buffers as if eager,
    // regardless of size — the caller only blocks on the receive half.
    const SendMode mode = f == Func::Ssend ? SendMode::Synchronous
                          : sendrecv       ? SendMode::Buffered
                                           : SendMode::Standard;
    if (!enqueue_send(rank, *send, send_elem, mode, request)) return;
  }
  if (recv != nullptr && recv->peer != mpi::kProcNull) {
    enqueue_recv(rank, *recv, recv_elem, request);
  }
}

/// Posts a send of `a.count` elements of `elem` bytes. A nonblocking
/// send (`request` nonzero) owns its buffer until it completes, at once
/// when eager; a blocking rendezvous send blocks the context until it is
/// matched. False when the buffer is unreadable: the rank crashed.
bool Machine::enqueue_send(int rank, const P2pArgs& a, std::size_t elem,
                           SendMode mode, std::int64_t request) {
  const std::size_t bytes =
      static_cast<std::size_t>(std::max<std::int64_t>(a.count, 0)) * elem;
  PendingSend s;
  s.src = rank;
  s.dest = a.peer;
  s.tag = a.tag;
  s.comm = a.comm;
  s.dtype = a.dtype;
  s.builtin_dtype = mpi::builtin_datatype_size(a.dtype).has_value();
  s.elem_bytes = elem;
  // Resolve before sizing the payload: a count far past the arena is a
  // fault, not a multi-gigabyte allocation.
  if (bytes > 0) {
    const std::uint8_t* p = resolve(a.buf, bytes, rank);
    if (p == nullptr) {
      crash(rank);
      return false;
    }
    s.payload.assign(p, p + bytes);
  }
  const bool synchronous =
      mode == SendMode::Synchronous ||
      (mode == SendMode::Standard && bytes > kEagerThreshold);
  s.synchronous = synchronous;
  s.request = request;
  const std::uint64_t seq = ++seq_;
  s.seq = seq;
  RankState& r = ranks_[static_cast<std::size_t>(rank)];
  s.ctx = r.active;
  sends_.push_back(std::move(s));
  matching_dirty_ = true;

  if (request != 0) {
    if (bytes > 0) {
      add_owned(rank, a.buf, a.buf + bytes, /*write=*/false, request);
    }
    // Eager sends complete immediately even when nonblocking.
    if (!synchronous) complete_request(request);
  } else if (synchronous) {
    r.cur().status = RankStatus::BlockedSend;
    r.cur().blocked_send_seq = seq;
  }
  return true;
}

/// Posts a receive into `a.buf`. A nonblocking receive owns its buffer
/// until it completes; a blocking one blocks the context until matched.
void Machine::enqueue_recv(int rank, const P2pArgs& a, std::size_t elem,
                           std::int64_t request) {
  RankState& r = ranks_[static_cast<std::size_t>(rank)];
  PendingRecv rv;
  rv.rank = rank;
  rv.src = a.peer;
  rv.tag = a.tag;
  rv.comm = a.comm;
  rv.dtype = a.dtype;
  rv.builtin_dtype = mpi::builtin_datatype_size(a.dtype).has_value();
  rv.elem_bytes = elem;
  rv.count = a.count;
  rv.buffer = a.buf;
  rv.request = request;
  rv.seq = ++seq_;
  rv.ctx = r.active;
  recvs_.push_back(rv);
  matching_dirty_ = true;

  const std::size_t bytes =
      static_cast<std::size_t>(std::max<std::int64_t>(a.count, 0)) * elem;
  if (request == 0) {
    r.cur().status = RankStatus::BlockedRecv;
  } else if (bytes > 0) {
    add_owned(rank, a.buf, a.buf + bytes, /*write=*/true, request);
  }
}

/// Allocates the request of a nonblocking or persistent call and writes
/// its handle through the call's last operand, the MPI_Request* of
/// every such signature.
std::int64_t Machine::new_request(int rank, Func f, const DInst& inst) {
  const std::uint64_t reqp = static_cast<std::uint64_t>(
      arg(rank, inst, mpi::signature(f).params.size() - 1).i);
  const std::int64_t handle = next_request_++;
  Request& rq = requests_[handle];
  rq.rank = rank;
  rq.persistent = f == Func::SendInit || f == Func::RecvInit;
  rq.active = !rq.persistent;
  rq.sends = f == Func::SendInit;
  if (reqp != 0) {
    mem_write(rank, reqp, &handle, 8);
  } else {
    report(FindingKind::InvalidParam, rank, "null request pointer");
  }
  return handle;
}

void Machine::match_messages() {
  bool progress = true;
  while (progress) {
    progress = false;
    for (auto rit = recvs_.begin(); rit != recvs_.end(); ++rit) {
      // Find the earliest matching unconsumed send (non-overtaking).
      PendingSend* best = nullptr;
      int candidate_sources = 0;
      std::vector<int> seen_sources;
      for (auto& s : sends_) {
        if (s.matched || s.comm != rit->comm || s.dest != rit->rank) continue;
        if (rit->src != mpi::kAnySource && s.src != rit->src) continue;
        if (rit->tag != mpi::kAnyTag && s.tag != rit->tag) continue;
        if (std::find(seen_sources.begin(), seen_sources.end(), s.src) ==
            seen_sources.end()) {
          seen_sources.push_back(s.src);
          ++candidate_sources;
        }
        if (best == nullptr || s.seq < best->seq) best = &s;
      }
      if (best == nullptr) continue;

      if (rit->src == mpi::kAnySource && candidate_sources > 1) {
        report(FindingKind::MessageRace, rit->rank,
               "wildcard receive has multiple racing senders");
        // Under a Random schedule the race is also *resolved* randomly:
        // pick a source uniformly, then that source's earliest
        // unconsumed send (non-overtaking within the source).
        if (random_) {
          const int pick = seen_sources[rng_.index(seen_sources.size())];
          best = nullptr;
          for (auto& s : sends_) {
            if (s.matched || s.comm != rit->comm || s.dest != rit->rank ||
                s.src != pick) {
              continue;
            }
            if (rit->tag != mpi::kAnyTag && s.tag != rit->tag) continue;
            if (best == nullptr || s.seq < best->seq) best = &s;
          }
        }
      }

      // Datatype / size checks at match time. Sizes were captured when
      // the operation was posted: derived types may be legally freed
      // while the message is in flight, and handles are rank-local.
      {
        const bool both_builtin = best->builtin_dtype && rit->builtin_dtype;
        if ((both_builtin && best->dtype != rit->dtype) ||
            (!both_builtin && best->elem_bytes != rit->elem_bytes)) {
          report(FindingKind::TypeMismatch, rit->rank,
                 "send/recv datatype mismatch");
        }
        const std::size_t sbytes = best->payload.size();
        const std::size_t rbytes =
            static_cast<std::size_t>(rit->count) * rit->elem_bytes;
        if (sbytes > rbytes) {
          report(FindingKind::TypeMismatch, rit->rank,
                 "message truncated: send larger than recv buffer");
        }
        const std::size_t copy = std::min(sbytes, rbytes);
        if (copy > 0) {
          std::uint8_t* p = resolve(rit->buffer, copy, rit->rank);
          if (p != nullptr) std::memcpy(p, best->payload.data(), copy);
        }
      }

      best->matched = true;
      rep_.matches.push_back(MatchEvent{rit->rank, best->src, best->tag,
                                        rit->comm, best->seq, rit->seq});
      // Complete the send side.
      if (best->request != 0) {
        complete_request(best->request);
      } else if (best->synchronous) {
        RankState& sr = ranks_[static_cast<std::size_t>(best->src)];
        ExecCtx& sc = sr.ctxs[static_cast<std::size_t>(best->ctx)];
        if (sc.status == RankStatus::BlockedSend &&
            sc.blocked_send_seq == best->seq) {
          sc.status = RankStatus::Runnable;
        }
      }
      // Complete the receive side.
      if (rit->request != 0) {
        complete_request(rit->request);
      } else {
        RankState& rr = ranks_[static_cast<std::size_t>(rit->rank)];
        ExecCtx& rc = rr.ctxs[static_cast<std::size_t>(rit->ctx)];
        if (rc.status == RankStatus::BlockedRecv) {
          rc.status = RankStatus::Runnable;
        }
      }
      recvs_.erase(rit);
      progress = true;
      break;  // iterators invalidated; rescan
    }
  }
  // Garbage-collect consumed sends.
  while (!sends_.empty() && sends_.front().matched) sends_.pop_front();
}

void Machine::complete_request(std::int64_t handle) {
  const auto it = requests_.find(handle);
  if (it == requests_.end()) return;
  Request& rq = it->second;
  rq.completed = true;
  rq.active = false;
  drop_owned(rq.rank, handle);
  finish_wait_if_ready(rq.rank);
}

/// Reads the request array of MPI_Waitall, MPI_Waitany, MPI_Waitsome or
/// MPI_Testall (count and array are its first two operands) into the
/// current context's wait slots: every handle that is neither
/// MPI_REQUEST_NULL nor an inactive persistent request. Unknown and
/// freed handles are reported in the call's own words and skipped.
/// False when the call ends here: a bad count is reported, an unreadable
/// array crashes the rank.
bool Machine::gather_requests(int rank, Func f, const DInst& inst) {
  const char* what = f == Func::Waitall    ? "waitall"
                     : f == Func::Waitany  ? "waitany"
                     : f == Func::Waitsome ? "waitsome"
                                           : "testall";
  ExecCtx& c = ranks_[static_cast<std::size_t>(rank)].cur();
  const std::int64_t n = arg(rank, inst, 0).i;
  c.wait_array = static_cast<std::uint64_t>(arg(rank, inst, 1).i);
  c.wait_count = 0;
  if (n < 0 || n > 64) {
    report(FindingKind::InvalidParam, rank,
           std::string("bad ") + what + " count");
    return false;
  }
  for (std::int64_t k = 0; k < n; ++k) {
    std::int64_t handle = 0;
    if (!mem_read(rank, c.wait_array + static_cast<std::uint64_t>(k) * 8,
                  &handle, 8)) {
      crash(rank);
      return false;
    }
    if (handle == mpi::kRequestNull) continue;
    const auto it = requests_.find(handle);
    if (it == requests_.end() || it->second.freed) {
      report(FindingKind::RequestError, rank,
             std::string(what) + " on invalid request handle");
      continue;
    }
    // A never-started persistent request is ignored, like a null one.
    if (!it->second.active && !it->second.completed) continue;
    c.wait_slots[c.wait_count] = static_cast<int>(k);
    c.wait_requests[c.wait_count++] = static_cast<std::uint64_t>(handle);
  }
  return true;
}

/// A wait or test consumed `rq`: a nonblocking request's handle at
/// `slot` becomes MPI_REQUEST_NULL; a persistent one stays usable.
void Machine::consume(int rank, Request& rq, std::uint64_t slot) {
  rq.waited = true;
  if (!rq.persistent) {
    const std::int64_t null_req = mpi::kRequestNull;
    mem_write(rank, slot, &null_req, 8);
  }
}

/// Blocks the current context on the requests in its wait slots. Wait
/// and Waitall consume every request up front; Waitany and Waitsome
/// consume only the ones complete when they return (try_finish_wait).
void Machine::wait_for(int rank, WaitMode mode) {
  RankState& r = ranks_[static_cast<std::size_t>(rank)];
  ExecCtx& c = r.cur();
  c.wait_mode = mode;
  if (mode == WaitMode::All) {
    for (int i = 0; i < c.wait_count; ++i) {
      consume(rank, slot_request(c, i), c.wait_slot_addr(i));
    }
  }
  if (c.wait_count == 0) return;
  c.status = RankStatus::BlockedWait;
  try_finish_wait(rank, r.active);  // may already be satisfied
}

void Machine::finish_wait_if_ready(int rank) {
  RankState& r = ranks_[static_cast<std::size_t>(rank)];
  for (std::size_t ci = 0; ci < r.ctxs.size(); ++ci) {
    try_finish_wait(rank, static_cast<int>(ci));
  }
}

void Machine::try_finish_wait(int rank, int ctx) {
  ExecCtx& c =
      ranks_[static_cast<std::size_t>(rank)].ctxs[static_cast<std::size_t>(
          ctx)];
  if (c.status != RankStatus::BlockedWait) return;

  if (c.wait_mode == WaitMode::All) {
    // Gathered requests are active or complete, so one that is not
    // complete is still pending.
    for (int i = 0; i < c.wait_count; ++i) {
      if (!slot_request(c, i).completed) return;
    }
    c.status = RankStatus::Runnable;
    return;
  }

  // Waitany / Waitsome: at least one registered request completed.
  // These consume only the completed handles *at completion time* —
  // unlike Wait/Waitall, which consume everything up front. The
  // completed slots move to the front, in order; the rest are dropped
  // once the call returns.
  int ready = 0;
  for (int i = 0; i < c.wait_count; ++i) {
    if (!slot_request(c, i).completed) continue;
    c.wait_requests[ready] = c.wait_requests[i];
    c.wait_slots[ready++] = c.wait_slots[i];
  }
  if (ready == 0) return;
  // Waitany: the lowest original index wins, deterministically.
  if (c.wait_mode == WaitMode::Any) ready = 1;
  for (int i = 0; i < ready; ++i) {
    consume(rank, slot_request(c, i), c.wait_slot_addr(i));
  }
  if (c.wait_mode == WaitMode::Any) {
    const std::int32_t idx = c.wait_slots[0];
    if (c.wait_index_out != 0) mem_write(rank, c.wait_index_out, &idx, 4);
  } else {
    const std::int32_t outcount = ready;
    if (c.wait_outcount_out != 0) {
      mem_write(rank, c.wait_outcount_out, &outcount, 4);
    }
    if (c.wait_indices_out != 0) {
      for (int j = 0; j < ready; ++j) {
        const std::int32_t idx = c.wait_slots[j];
        mem_write(rank,
                  c.wait_indices_out + static_cast<std::uint64_t>(j) * 4,
                  &idx, 4);
      }
    }
  }
  c.status = RankStatus::Runnable;
}

// ===========================================================================
// Synchronizing operations (collectives, comm management, RMA sync)
// ===========================================================================

bool Machine::parse_collective_args(int rank, Func f,
                                    const DInst& inst, CollArrival& a,
                                    std::int32_t& comm) {
  a.func = f;
  comm = mpi::kCommWorld;

  switch (f) {
    case Func::Barrier:
      comm = static_cast<std::int32_t>(arg(rank, inst, 0).i);
      break;
    case Func::Bcast:
      a.sendbuf = static_cast<std::uint64_t>(arg(rank, inst, 0).i);
      a.count = arg(rank, inst, 1).i;
      a.dtype = static_cast<std::int32_t>(arg(rank, inst, 2).i);
      a.root = static_cast<std::int32_t>(arg(rank, inst, 3).i);
      comm = static_cast<std::int32_t>(arg(rank, inst, 4).i);
      break;
    case Func::Reduce:
      a.sendbuf = static_cast<std::uint64_t>(arg(rank, inst, 0).i);
      a.recvbuf = static_cast<std::uint64_t>(arg(rank, inst, 1).i);
      a.count = arg(rank, inst, 2).i;
      a.dtype = static_cast<std::int32_t>(arg(rank, inst, 3).i);
      a.op = static_cast<std::int32_t>(arg(rank, inst, 4).i);
      a.root = static_cast<std::int32_t>(arg(rank, inst, 5).i);
      comm = static_cast<std::int32_t>(arg(rank, inst, 6).i);
      break;
    case Func::Allreduce:
      a.sendbuf = static_cast<std::uint64_t>(arg(rank, inst, 0).i);
      a.recvbuf = static_cast<std::uint64_t>(arg(rank, inst, 1).i);
      a.count = arg(rank, inst, 2).i;
      a.dtype = static_cast<std::int32_t>(arg(rank, inst, 3).i);
      a.op = static_cast<std::int32_t>(arg(rank, inst, 4).i);
      comm = static_cast<std::int32_t>(arg(rank, inst, 5).i);
      break;
    case Func::Gather:
    case Func::Scatter:
    case Func::Allgather:
    case Func::Alltoall: {
      a.sendbuf = static_cast<std::uint64_t>(arg(rank, inst, 0).i);
      a.count = arg(rank, inst, 1).i;
      a.dtype = static_cast<std::int32_t>(arg(rank, inst, 2).i);
      a.recvbuf = static_cast<std::uint64_t>(arg(rank, inst, 3).i);
      a.count2 = arg(rank, inst, 4).i;
      a.dtype2 = static_cast<std::int32_t>(arg(rank, inst, 5).i);
      if (f == Func::Gather || f == Func::Scatter) {
        a.root = static_cast<std::int32_t>(arg(rank, inst, 6).i);
        comm = static_cast<std::int32_t>(arg(rank, inst, 7).i);
      } else {
        comm = static_cast<std::int32_t>(arg(rank, inst, 6).i);
      }
      break;
    }
    case Func::CommDup:
      comm = static_cast<std::int32_t>(arg(rank, inst, 0).i);
      a.out_ptr = static_cast<std::uint64_t>(arg(rank, inst, 1).i);
      break;
    case Func::CommSplit:
      comm = static_cast<std::int32_t>(arg(rank, inst, 0).i);
      a.color = static_cast<std::int32_t>(arg(rank, inst, 1).i);
      a.key = static_cast<std::int32_t>(arg(rank, inst, 2).i);
      a.out_ptr = static_cast<std::uint64_t>(arg(rank, inst, 3).i);
      break;
    case Func::WinCreate:
      a.win_base = static_cast<std::uint64_t>(arg(rank, inst, 0).i);
      a.win_size = arg(rank, inst, 1).i;
      comm = static_cast<std::int32_t>(arg(rank, inst, 3).i);
      a.out_ptr = static_cast<std::uint64_t>(arg(rank, inst, 4).i);
      break;
    case Func::WinFence: {
      a.win = 0;  // resolved below
      const std::int32_t win =
          static_cast<std::int32_t>(arg(rank, inst, 1).i);
      a.win = win;
      const auto it = windows_.find(win);
      if (it == windows_.end() || it->second.freed) {
        report(FindingKind::InvalidParam, rank, "fence on invalid window");
        return false;
      }
      comm = it->second.comm;
      break;
    }
    case Func::WinFree: {
      const std::uint64_t winp =
          static_cast<std::uint64_t>(arg(rank, inst, 0).i);
      std::int32_t win = 0;
      if (!mem_read(rank, winp, &win, 4)) { crash(rank); return false; }
      a.win = win;
      a.out_ptr = winp;
      const auto it = windows_.find(win);
      if (it == windows_.end() || it->second.freed) {
        report(FindingKind::InvalidParam, rank, "free of invalid window");
        return false;
      }
      comm = it->second.comm;
      break;
    }
    case Func::Finalize:
      comm = mpi::kCommWorld;
      break;
    default:
      MPIDETECT_UNREACHABLE("not a synchronizing op");
  }

  if (f != Func::Finalize && !validate_comm(comm, rank)) return false;
  if (a.count < 0 || a.count2 < 0) {
    report(FindingKind::InvalidParam, rank, "negative collective count");
    return false;
  }
  if ((f == Func::Reduce || f == Func::Allreduce ||
       f == Func::Accumulate) &&
      !mpi::is_valid_reduce_op(a.op)) {
    report(FindingKind::InvalidParam, rank, "invalid reduction op");
    return false;
  }
  if (f == Func::Bcast || f == Func::Reduce || f == Func::Gather ||
      f == Func::Scatter) {
    if (!validate_rank_arg(a.root, comm, rank, /*wildcard_ok=*/false)) {
      return false;
    }
  }
  return true;
}

void Machine::arrive_collective(int rank, Func f, const DInst& inst) {
  CollArrival a;
  std::int32_t comm = mpi::kCommWorld;
  if (!parse_collective_args(rank, f, inst, a, comm)) return;

  auto& slot = arrivals_[comm];
  if (slot.count(rank) != 0) {
    // Should not happen: a blocked rank cannot arrive twice.
    report(FindingKind::CollectiveMismatch, rank, "double arrival");
    return;
  }
  RankState& r = ranks_[static_cast<std::size_t>(rank)];
  a.ctx = r.active;
  slot[rank] = a;
  r.cur().status = RankStatus::BlockedColl;
}

void Machine::try_complete_collectives() {
  std::vector<std::int32_t> ready;
  for (auto& [comm, slot] : arrivals_) {
    const Communicator* c = comm_of(comm);
    if (c == nullptr) continue;
    // Every *live* member must have arrived (finished/crashed ranks will
    // never arrive: that is a deadlock, caught by the scheduler).
    bool all = true;
    for (const int rk : c->ranks) {
      if (rank_dead(ranks_[static_cast<std::size_t>(rk)])) {
        all = false;
        break;
      }
      if (slot.count(rk) == 0) {
        all = false;
        break;
      }
    }
    if (all) ready.push_back(comm);
  }
  for (const std::int32_t comm : ready) {
    std::vector<std::pair<int, CollArrival>> arr(
        arrivals_[comm].begin(), arrivals_[comm].end());
    arrivals_.erase(comm);
    complete_collective(comm, arr, /*release=*/true);
  }
}

void Machine::complete_collective(
    std::int32_t comm, std::vector<std::pair<int, CollArrival>>& arr,
    bool release) {
  // 1) All ranks must be in the same operation.
  const Func f0 = arr.front().second.func;
  for (const auto& [rk, a] : arr) {
    if (a.func != f0) {
      report(FindingKind::CollectiveMismatch, -1,
             std::string("ranks disagree on collective: ") +
                 std::string(mpi::func_name(f0)) + " vs " +
                 std::string(mpi::func_name(a.func)));
      // Mismatched collectives hang in practice: leave every arrived rank
      // blocked forever; the scheduler will declare deadlock.
      return;
    }
  }

  // 2) Cross-rank parameter checks.
  const CollArrival& ref = arr.front().second;
  for (const auto& [rk, a] : arr) {
    if (a.root != ref.root) {
      report(FindingKind::ParamMismatch, rk,
             "collective root differs across ranks");
    }
    if (a.op != ref.op) {
      report(FindingKind::ParamMismatch, rk,
             "reduction op differs across ranks");
    }
    if (ref.dtype >= 0 && a.dtype >= 0) {
      bool ok1 = true, ok2 = true;
      const std::size_t b1 = static_cast<std::size_t>(ref.count) *
                             datatype_bytes(ref.dtype, rk, &ok1);
      const std::size_t b2 = static_cast<std::size_t>(a.count) *
                             datatype_bytes(a.dtype, rk, &ok2);
      if (ok1 && ok2 && b1 != b2) {
        report(FindingKind::ParamMismatch, rk,
               "collective payload size differs across ranks");
      }
    }
  }

  // 3) Operation effects.
  switch (f0) {
    case Func::Barrier:
    case Func::WinFence:
      break;  // pure synchronization (fence epoch toggled below)
    case Func::Bcast: {
      // Copy root's buffer into everyone else's.
      const auto root_it =
          std::find_if(arr.begin(), arr.end(), [&](const auto& p) {
            return p.first == comm_of(comm)->ranks[static_cast<std::size_t>(
                       std::max(ref.root, 0))];
          });
      if (root_it != arr.end()) {
        bool ok = true;
        const std::size_t bytes =
            static_cast<std::size_t>(root_it->second.count) *
            datatype_bytes(root_it->second.dtype, root_it->first, &ok);
        if (ok && bytes > 0) {
          const std::uint8_t* src =
              resolve(root_it->second.sendbuf, bytes, root_it->first);
          if (src != nullptr) {
            for (const auto& [rk, a] : arr) {
              if (rk == root_it->first) continue;
              std::uint8_t* dst = resolve(a.sendbuf, bytes, rk);
              if (dst != nullptr) std::memcpy(dst, src, bytes);
            }
          }
        }
      }
      break;
    }
    case Func::Reduce:
    case Func::Allreduce: {
      // Element-wise reduce into recvbuf (int or double lanes).
      bool ok = true;
      const std::size_t elem = datatype_bytes(ref.dtype, arr.front().first,
                                              &ok);
      if (!ok || ref.count <= 0) break;
      const bool is_double = elem == 8 && ref.dtype ==
          static_cast<std::int32_t>(mpi::Datatype::Double);
      const std::size_t n = static_cast<std::size_t>(ref.count);
      std::vector<double> facc(is_double ? n : 0, 0.0);
      std::vector<std::int64_t> iacc(is_double ? 0 : n, 0);
      const auto op = static_cast<mpi::ReduceOp>(ref.op);
      bool first = true;
      for (const auto& [rk, a] : arr) {
        const std::uint8_t* p = resolve(a.sendbuf, n * elem, rk);
        if (p == nullptr) continue;
        for (std::size_t k = 0; k < n; ++k) {
          if (is_double) {
            double v = 0;
            std::memcpy(&v, p + k * 8, 8);
            if (first) {
              facc[k] = v;
            } else {
              switch (op) {
                case mpi::ReduceOp::Sum: facc[k] += v; break;
                case mpi::ReduceOp::Max: facc[k] = std::max(facc[k], v); break;
                case mpi::ReduceOp::Min: facc[k] = std::min(facc[k], v); break;
                case mpi::ReduceOp::Prod: facc[k] *= v; break;
              }
            }
          } else {
            std::int64_t v = 0;
            std::memcpy(&v, p + k * elem, std::min<std::size_t>(elem, 8));
            if (elem == 4) v = static_cast<std::int32_t>(v);
            if (first) {
              iacc[k] = v;
            } else {
              switch (op) {
                case mpi::ReduceOp::Sum: iacc[k] += v; break;
                case mpi::ReduceOp::Max: iacc[k] = std::max(iacc[k], v); break;
                case mpi::ReduceOp::Min: iacc[k] = std::min(iacc[k], v); break;
                case mpi::ReduceOp::Prod: iacc[k] *= v; break;
              }
            }
          }
        }
        first = false;
      }
      for (const auto& [rk, a] : arr) {
        const bool is_target =
            f0 == Func::Allreduce ||
            (ref.root >= 0 &&
             comm_of(comm)->ranks[static_cast<std::size_t>(ref.root)] == rk);
        if (!is_target || a.recvbuf == 0) continue;
        std::uint8_t* dst = resolve(a.recvbuf, n * elem, rk);
        if (dst == nullptr) continue;
        for (std::size_t k = 0; k < n; ++k) {
          if (is_double) {
            std::memcpy(dst + k * 8, &facc[k], 8);
          } else {
            std::memcpy(dst + k * elem, &iacc[k],
                        std::min<std::size_t>(elem, 8));
          }
        }
      }
      break;
    }
    case Func::Gather:
    case Func::Allgather: {
      bool ok = true;
      const std::size_t elem = datatype_bytes(ref.dtype, arr.front().first,
                                              &ok);
      if (!ok || ref.count <= 0) break;
      const std::size_t chunk = static_cast<std::size_t>(ref.count) * elem;
      for (const auto& [rk, a] : arr) {
        const bool is_target =
            f0 == Func::Allgather ||
            (ref.root >= 0 &&
             comm_of(comm)->ranks[static_cast<std::size_t>(ref.root)] == rk);
        if (!is_target || a.recvbuf == 0) continue;
        for (std::size_t j = 0; j < arr.size(); ++j) {
          const std::uint8_t* src =
              resolve(arr[j].second.sendbuf, chunk, arr[j].first);
          std::uint8_t* dst = resolve(a.recvbuf + j * chunk, chunk, rk);
          if (src != nullptr && dst != nullptr) std::memcpy(dst, src, chunk);
        }
      }
      break;
    }
    case Func::Scatter:
    case Func::Alltoall: {
      bool ok = true;
      const std::size_t elem = datatype_bytes(ref.dtype, arr.front().first,
                                              &ok);
      if (!ok || ref.count <= 0) break;
      const std::size_t chunk = static_cast<std::size_t>(ref.count) * elem;
      for (std::size_t j = 0; j < arr.size(); ++j) {
        std::uint8_t* dst =
            resolve(arr[j].second.recvbuf, chunk, arr[j].first);
        if (dst == nullptr) continue;
        if (f0 == Func::Scatter) {
          const auto root_it =
              std::find_if(arr.begin(), arr.end(), [&](const auto& p) {
                return ref.root >= 0 &&
                       comm_of(comm)->ranks[static_cast<std::size_t>(
                           ref.root)] == p.first;
              });
          if (root_it == arr.end()) continue;
          const std::uint8_t* src =
              resolve(root_it->second.sendbuf + j * chunk, chunk,
                      root_it->first);
          if (src != nullptr) std::memcpy(dst, src, chunk);
        } else {
          // Alltoall: dst block j of rank i <- block i of rank j... copy
          // block-by-block from each sender.
          for (std::size_t i = 0; i < arr.size(); ++i) {
            const std::uint8_t* src =
                resolve(arr[i].second.sendbuf + j * chunk, chunk,
                        arr[i].first);
            std::uint8_t* blk =
                resolve(arr[j].second.recvbuf + i * chunk, chunk,
                        arr[j].first);
            if (src != nullptr && blk != nullptr) {
              std::memcpy(blk, src, chunk);
            }
          }
        }
      }
      break;
    }
    case Func::CommDup: {
      const std::int32_t handle = next_comm_++;
      Communicator dup = *comm_of(comm);
      dup.builtin = false;
      dup.freed = false;
      comms_[handle] = std::move(dup);
      for (const auto& [rk, a] : arr) {
        if (a.out_ptr != 0) mem_write(rk, a.out_ptr, &handle, 4);
      }
      break;
    }
    case Func::CommSplit: {
      // Group by color; order within a group by (key, world rank).
      std::map<std::int32_t, std::vector<std::pair<std::int32_t, int>>> by;
      for (const auto& [rk, a] : arr) by[a.color].emplace_back(a.key, rk);
      std::map<std::int32_t, std::int32_t> handles;
      for (auto& [color, members] : by) {
        std::sort(members.begin(), members.end());
        Communicator c;
        for (const auto& [key, rk] : members) {
          (void)key;
          c.ranks.push_back(rk);
        }
        handles[color] = next_comm_;
        comms_[next_comm_++] = std::move(c);
      }
      for (const auto& [rk, a] : arr) {
        const std::int32_t h = handles[a.color];
        if (a.out_ptr != 0) mem_write(rk, a.out_ptr, &h, 4);
      }
      break;
    }
    case Func::WinCreate: {
      const std::int32_t handle = next_win_++;
      Window w;
      w.comm = comm;
      for (const auto& [rk, a] : arr) {
        w.base[rk] = a.win_base;
        w.size[rk] = a.win_size;
        if (a.out_ptr != 0) mem_write(rk, a.out_ptr, &handle, 4);
      }
      windows_[handle] = std::move(w);
      break;
    }
    case Func::WinFree: {
      const auto it = windows_.find(ref.win);
      if (it != windows_.end()) {
        if (it->second.fence_open) {
          report(FindingKind::EpochError, -1,
                 "window freed inside an open epoch");
        }
        it->second.freed = true;
      }
      std::int32_t null_win = 0;
      for (const auto& [rk, a] : arr) {
        if (a.out_ptr != 0) mem_write(rk, a.out_ptr, &null_win, 4);
      }
      break;
    }
    case Func::Finalize:
      // Handled by finalize_rank path; not reached here.
      break;
    default:
      break;
  }

  // Fence epoch toggle + conflict analysis on close.
  if (f0 == Func::WinFence) {
    const auto it = windows_.find(ref.win);
    if (it != windows_.end() && !it->second.freed) {
      Window& w = it->second;
      if (w.fence_open) {
        // Closing: check conflicting accesses recorded in this epoch.
        for (std::size_t i = 0; i < w.epoch_accesses.size(); ++i) {
          for (std::size_t j = i + 1; j < w.epoch_accesses.size(); ++j) {
            const RmaAccess& x = w.epoch_accesses[i];
            const RmaAccess& y = w.epoch_accesses[j];
            if (x.target != y.target) continue;
            if (x.origin == y.origin) continue;
            const bool overlap = x.lo < y.hi && y.lo < x.hi;
            if (overlap && (x.write || y.write)) {
              report(FindingKind::GlobalConcurrency, x.target,
                     "conflicting RMA accesses in one epoch");
            }
          }
        }
        w.epoch_accesses.clear();
        w.fence_open = false;
      } else {
        w.fence_open = true;
      }
    }
  }

  // Release everyone (blocking collectives only: a nonblocking round
  // completes requests instead, and must not wake a context that is
  // blocked in a *different* blocking collective).
  if (release) {
    for (const auto& [rk, a] : arr) {
      RankState& r = ranks_[static_cast<std::size_t>(rk)];
      if (a.ctx < 0 || a.ctx >= static_cast<int>(r.ctxs.size())) continue;
      ExecCtx& c = r.ctxs[static_cast<std::size_t>(a.ctx)];
      if (c.status == RankStatus::BlockedColl) {
        c.status = RankStatus::Runnable;
      }
    }
  }
}

// ===========================================================================
// Nonblocking collectives
// ===========================================================================

void Machine::nbc_post(int rank, Func f, const DInst& inst,
                       std::int64_t handle) {
  CollArrival a;
  std::int32_t comm = mpi::kCommWorld;
  const Func bf = *mpi::blocking_equivalent(f);
  // Operand layouts match the blocking collective; the trailing
  // MPI_Request* is simply ignored by the blocking parser. A malformed
  // call never joins a round, so its request never completes: waiters
  // deadlock, exactly like the blocking operation would hang.
  if (!parse_collective_args(rank, bf, inst, a, comm)) return;
  RankState& r = ranks_[static_cast<std::size_t>(rank)];
  a.func = f;  // agreement is checked on the *specific* NBC identity
  a.ctx = r.active;

  const int round_idx = nbc_posted_[comm][rank]++;
  auto& rounds = nbc_rounds_[comm];
  if (static_cast<int>(rounds.size()) <= round_idx) {
    rounds.resize(static_cast<std::size_t>(round_idx) + 1);
  }
  rounds[static_cast<std::size_t>(round_idx)].arr[rank] = a;
  rounds[static_cast<std::size_t>(round_idx)].reqs[rank] = handle;

  // The library owns the buffers until the request completes.
  const std::size_t bytes =
      static_cast<std::size_t>(std::max<std::int64_t>(a.count, 0)) *
      (a.dtype >= 0 ? quiet_dtype_bytes(a.dtype) : 0);
  const std::size_t bytes2 =
      static_cast<std::size_t>(std::max<std::int64_t>(a.count2, 0)) *
      (a.dtype2 >= 0 ? quiet_dtype_bytes(a.dtype2) : 0);
  switch (bf) {
    case Func::Barrier:
      break;
    case Func::Bcast: {
      // The root reads its buffer; every other rank gets it written.
      const Communicator* c = comm_of(comm);
      const bool is_root =
          c != nullptr && a.root >= 0 &&
          a.root < static_cast<std::int32_t>(c->ranks.size()) &&
          c->ranks[static_cast<std::size_t>(a.root)] == rank;
      if (bytes > 0 && a.sendbuf != 0) {
        add_owned(rank, a.sendbuf, a.sendbuf + bytes, !is_root, handle);
      }
      break;
    }
    case Func::Reduce:
    case Func::Allreduce:
      if (bytes > 0 && a.sendbuf != 0) {
        add_owned(rank, a.sendbuf, a.sendbuf + bytes, false, handle);
      }
      if (bytes > 0 && a.recvbuf != 0) {
        add_owned(rank, a.recvbuf, a.recvbuf + bytes, true, handle);
      }
      break;
    default:  // Gather / Scatter / Alltoall: per-chunk approximation
      if (bytes > 0 && a.sendbuf != 0) {
        add_owned(rank, a.sendbuf, a.sendbuf + bytes, false, handle);
      }
      if (bytes2 > 0 && a.recvbuf != 0) {
        add_owned(rank, a.recvbuf, a.recvbuf + bytes2, true, handle);
      }
      break;
  }
}

void Machine::try_complete_nbc() {
  for (auto& [comm, rounds] : nbc_rounds_) {
    const Communicator* c = comm_of(comm);
    if (c == nullptr) continue;
    for (auto& round : rounds) {
      if (round.done) continue;
      bool all = true;
      for (const int rk : c->ranks) {
        if (round.arr.count(rk) == 0) {
          all = false;
          break;
        }
      }
      // Rounds complete in posting order per communicator; a later
      // round cannot overtake an incomplete earlier one.
      if (!all) break;
      round.done = true;

      const Func f0 = round.arr.begin()->second.func;
      bool mismatch = false;
      for (const auto& [rk, a] : round.arr) {
        (void)rk;
        if (a.func != f0) {
          report(FindingKind::CollectiveMismatch, -1,
                 std::string("ranks disagree on nonblocking collective: ") +
                     std::string(mpi::func_name(f0)) + " vs " +
                     std::string(mpi::func_name(a.func)));
          mismatch = true;
          break;
        }
      }
      // Mismatched rounds hang: the requests never complete, so every
      // waiter stays blocked and the scheduler declares deadlock.
      if (mismatch) continue;

      std::vector<std::pair<int, CollArrival>> arr;
      arr.reserve(round.arr.size());
      for (const auto& [rk, a] : round.arr) {
        CollArrival b = a;
        b.func = *mpi::blocking_equivalent(a.func);
        arr.emplace_back(rk, b);
      }
      complete_collective(comm, arr, /*release=*/false);
      for (const auto& [rk, h] : round.reqs) {
        (void)rk;
        complete_request(h);
      }
    }
  }
}

// ===========================================================================
// Combined and probing point-to-point
// ===========================================================================

bool Machine::probe_match(int rank, std::int32_t src, std::int32_t tag,
                          std::int32_t comm, int* sources) {
  std::vector<int> seen;
  bool found = false;
  for (const auto& s : sends_) {
    if (s.matched || s.comm != comm || s.dest != rank) continue;
    if (src != mpi::kAnySource && s.src != src) continue;
    if (tag != mpi::kAnyTag && s.tag != tag) continue;
    found = true;
    if (std::find(seen.begin(), seen.end(), s.src) == seen.end()) {
      seen.push_back(s.src);
    }
  }
  *sources = static_cast<int>(seen.size());
  return found;
}

void Machine::check_probes() {
  for (int rk = 0; rk < cfg_.nprocs; ++rk) {
    RankState& r = ranks_[static_cast<std::size_t>(rk)];
    for (ExecCtx& c : r.ctxs) {
      if (c.status != RankStatus::BlockedProbe) continue;
      int sources = 0;
      if (!probe_match(rk, c.probe_src, c.probe_tag, c.probe_comm,
                       &sources)) {
        continue;
      }
      if (c.probe_src == mpi::kAnySource && sources > 1) {
        report(FindingKind::MessageRace, rk,
               "wildcard probe has multiple racing senders");
      }
      c.status = RankStatus::Runnable;
    }
  }
}

void Machine::finalize_rank(int rank) {
  RankState& r = ranks_[static_cast<std::size_t>(rank)];
  r.finalized = true;
  ++finalize_arrivals_;
  if (finalize_arrivals_ == cfg_.nprocs) leak_check();
}

void Machine::leak_check() {
  for (const auto& [h, rq] : requests_) {
    (void)h;
    if (rq.freed) continue;
    if (rq.persistent) {
      report(FindingKind::ResourceLeak, rq.rank,
             "persistent request never freed");
    } else if (!rq.waited) {
      report(FindingKind::ResourceLeak, rq.rank,
             "request never completed by wait/test");
    }
  }
  for (const auto& [h, c] : comms_) {
    if (!c.builtin && c.freed_by.size() != c.ranks.size()) {
      report(FindingKind::ResourceLeak, -1,
             "communicator " + std::to_string(h) + " never freed");
    }
  }
  for (const auto& [h, w] : windows_) {
    if (!w.freed) {
      report(FindingKind::ResourceLeak, -1,
             "window " + std::to_string(h) + " never freed");
    }
  }
  for (const auto& [h, t] : derived_types_) {
    (void)t;
    if (h != 0) {
      // derived types are erased on MPI_Type_free; survivors leak.
      report(FindingKind::ResourceLeak, -1,
             "datatype " + std::to_string(h) + " never freed");
    }
  }
}

// ===========================================================================
// MPI call dispatch
// ===========================================================================

void Machine::exec_mpi(int rank, Func f, const DInst& inst) {
  RankState& r = ranks_[static_cast<std::size_t>(rank)];
  ExecCtx& ctx = r.cur();
  Frame& fr = ctx.frames.back();
  const auto done = [&](std::int32_t rc = mpi::kSuccess) {
    if (inst.type != Type::Void) {
      set_reg(rank, inst, RtVal{rc, 0.0});
    }
    ++fr.inst;
  };

  // Calls before MPI_Init / after MPI_Finalize are themselves errors.
  if (f != Func::Init && !r.inited) {
    report(FindingKind::DoubleInit, rank,
           std::string(mpi::func_name(f)) + " before MPI_Init");
  }
  if (r.finalized && f != Func::Finalize) {
    report(FindingKind::DoubleInit, rank,
           std::string(mpi::func_name(f)) + " after MPI_Finalize");
  }

  switch (f) {
    case Func::Init:
      if (r.inited) {
        report(FindingKind::DoubleInit, rank, "MPI_Init called twice");
      }
      r.inited = true;
      done();
      return;
    case Func::Finalize: {
      done();  // advance past the call first; then account the arrival
      finalize_rank(rank);
      return;
    }
    case Func::CommRank: {
      const std::int32_t comm =
          static_cast<std::int32_t>(arg(rank, inst, 0).i);
      const std::uint64_t out =
          static_cast<std::uint64_t>(arg(rank, inst, 1).i);
      std::int32_t my = 0;
      if (validate_comm(comm, rank)) {
        const auto& ranks = comm_of(comm)->ranks;
        const auto it = std::find(ranks.begin(), ranks.end(), rank);
        my = it == ranks.end()
                 ? -1
                 : static_cast<std::int32_t>(it - ranks.begin());
      }
      if (out != 0) mem_write(rank, out, &my, 4);
      done();
      return;
    }
    case Func::CommSize: {
      const std::int32_t comm =
          static_cast<std::int32_t>(arg(rank, inst, 0).i);
      const std::uint64_t out =
          static_cast<std::uint64_t>(arg(rank, inst, 1).i);
      std::int32_t size = 0;
      if (validate_comm(comm, rank)) {
        size = static_cast<std::int32_t>(comm_of(comm)->ranks.size());
      }
      if (out != 0) mem_write(rank, out, &size, 4);
      done();
      return;
    }

    case Func::Send:
    case Func::Ssend:
    case Func::Recv:
    case Func::Sendrecv:
      done();  // result visible immediately; rank may still block below
      post_p2p(rank, f, inst, /*request=*/0);
      return;
    case Func::Isend:
    case Func::Irecv: {
      const std::int64_t handle = new_request(rank, f, inst);
      done();
      post_p2p(rank, f, inst, handle);
      return;
    }
    case Func::SendInit:
    case Func::RecvInit: {
      // The arguments are captured unchecked; MPI_Start re-posts them.
      const std::int64_t handle = new_request(rank, f, inst);
      P2pArgs& p2p = requests_[handle].p2p;
      p2p = p2p_args(rank, inst, 0);
      p2p.comm = static_cast<std::int32_t>(arg(rank, inst, 5).i);
      done();
      return;
    }
    case Func::Start: {
      const std::uint64_t reqp =
          static_cast<std::uint64_t>(arg(rank, inst, 0).i);
      std::int64_t handle = 0;
      if (reqp == 0 || !mem_read(rank, reqp, &handle, 8)) {
        report(FindingKind::RequestError, rank, "start on bad request ptr");
        done();
        return;
      }
      const auto it = requests_.find(handle);
      if (it == requests_.end() || !it->second.persistent ||
          it->second.freed) {
        report(FindingKind::RequestError, rank,
               "MPI_Start on invalid request");
        done();
        return;
      }
      Request& rq = it->second;
      if (rq.active) {
        report(FindingKind::RequestError, rank,
               "MPI_Start on already-active request");
        done();
        return;
      }
      rq.active = true;
      rq.completed = false;
      done();
      // Re-post the persistent operation from the captured parameters.
      // Only the datatype is resolved again: it may have been committed
      // or freed since.
      bool known_dtype = true;
      const std::size_t elem = datatype_bytes(rq.p2p.dtype, rank, &known_dtype);
      if (rq.sends) {
        enqueue_send(rank, rq.p2p, elem, SendMode::Standard, handle);
      } else {
        enqueue_recv(rank, rq.p2p, elem, handle);
      }
      return;
    }
    case Func::Wait: {
      done();
      const std::uint64_t reqp =
          static_cast<std::uint64_t>(arg(rank, inst, 0).i);
      std::int64_t handle = 0;
      if (reqp == 0 || !mem_read(rank, reqp, &handle, 8)) {
        report(FindingKind::RequestError, rank, "wait on bad request ptr");
        return;
      }
      // Waiting on MPI_REQUEST_NULL returns immediately.
      if (handle == mpi::kRequestNull) return;
      const auto it = requests_.find(handle);
      if (it == requests_.end() || it->second.freed) {
        report(FindingKind::RequestError, rank,
               "wait on invalid request handle");
        return;
      }
      if (!it->second.active && !it->second.completed) {
        report(FindingKind::RequestError, rank, "wait on inactive request");
        return;
      }
      ctx.wait_array = reqp;
      ctx.wait_slots[0] = 0;
      ctx.wait_requests[0] = static_cast<std::uint64_t>(handle);
      ctx.wait_count = 1;
      wait_for(rank, WaitMode::All);
      return;
    }
    case Func::Waitall:
    case Func::Waitany:
    case Func::Waitsome:
    case Func::Testall: {
      done();
      if (!gather_requests(rank, f, inst)) return;
      if (f == Func::Waitall) {
        wait_for(rank, WaitMode::All);
        return;
      }
      const std::uint64_t outp =
          static_cast<std::uint64_t>(arg(rank, inst, 2).i);
      if (f == Func::Testall) {
        // All-or-nothing: only a flag=1 Testall consumes the requests.
        std::int32_t flag = 1;
        for (int i = 0; i < ctx.wait_count; ++i) {
          if (!slot_request(ctx, i).completed) flag = 0;
        }
        if (flag == 1) {
          for (int i = 0; i < ctx.wait_count; ++i) {
            consume(rank, slot_request(ctx, i), ctx.wait_slot_addr(i));
          }
        }
        if (outp != 0) mem_write(rank, outp, &flag, 4);
        return;
      }
      if (ctx.wait_count == 0) {
        // Nothing waitable: return MPI_UNDEFINED immediately.
        const std::int32_t undef = mpi::kUndefined;
        if (outp != 0) mem_write(rank, outp, &undef, 4);
        return;
      }
      if (f == Func::Waitany) {
        ctx.wait_index_out = outp;
      } else {
        ctx.wait_outcount_out = outp;
        ctx.wait_indices_out =
            static_cast<std::uint64_t>(arg(rank, inst, 3).i);
      }
      wait_for(rank, f == Func::Waitany ? WaitMode::Any : WaitMode::Some);
      return;
    }
    case Func::Test: {
      const std::uint64_t reqp =
          static_cast<std::uint64_t>(arg(rank, inst, 0).i);
      const std::uint64_t flagp =
          static_cast<std::uint64_t>(arg(rank, inst, 1).i);
      std::int64_t handle = 0;
      std::int32_t flag = 0;
      if (reqp != 0 && mem_read(rank, reqp, &handle, 8)) {
        const auto it = requests_.find(handle);
        if (it != requests_.end() && it->second.completed) {
          flag = 1;
          consume(rank, it->second, reqp);
        }
      }
      if (flagp != 0) mem_write(rank, flagp, &flag, 4);
      done();
      return;
    }
    case Func::RequestFree: {
      const std::uint64_t reqp =
          static_cast<std::uint64_t>(arg(rank, inst, 0).i);
      std::int64_t handle = 0;
      if (reqp == 0 || !mem_read(rank, reqp, &handle, 8)) {
        report(FindingKind::RequestError, rank, "free of bad request ptr");
        done();
        return;
      }
      const auto it = requests_.find(handle);
      if (it == requests_.end() || it->second.freed) {
        report(FindingKind::RequestError, rank,
               "free of invalid request handle");
      } else {
        it->second.freed = true;
        drop_owned(rank, handle);
        const std::int64_t null_req = mpi::kRequestNull;
        mem_write(rank, reqp, &null_req, 8);
      }
      done();
      return;
    }

    case Func::Barrier:
    case Func::Bcast:
    case Func::Reduce:
    case Func::Allreduce:
    case Func::Gather:
    case Func::Scatter:
    case Func::Allgather:
    case Func::Alltoall:
    case Func::CommDup:
    case Func::CommSplit:
    case Func::WinCreate:
    case Func::WinFence:
    case Func::WinFree: {
      done();
      arrive_collective(rank, f, inst);
      return;
    }

    case Func::Ibarrier:
    case Func::Ibcast:
    case Func::Ireduce:
    case Func::Iallreduce:
    case Func::Igather:
    case Func::Iscatter:
    case Func::Ialltoall: {
      const std::int64_t handle = new_request(rank, f, inst);
      done();
      nbc_post(rank, f, inst, handle);
      return;
    }

    case Func::Probe:
    case Func::Iprobe: {
      const std::int32_t src =
          static_cast<std::int32_t>(arg(rank, inst, 0).i);
      const std::int32_t tag =
          static_cast<std::int32_t>(arg(rank, inst, 1).i);
      const std::int32_t comm =
          static_cast<std::int32_t>(arg(rank, inst, 2).i);
      bool ok = validate_comm(comm, rank);
      if (tag != mpi::kAnyTag && (tag < 0 || tag > mpi::kTagUb)) {
        report(FindingKind::InvalidParam, rank,
               "invalid tag on probe: " + std::to_string(tag));
        ok = false;
      }
      if (!validate_rank_arg(src, comm, rank, /*wildcard_ok=*/true)) {
        ok = false;
      }
      if (f == Func::Iprobe) {
        const std::uint64_t flagp =
            static_cast<std::uint64_t>(arg(rank, inst, 3).i);
        std::int32_t flag = 0;
        if (ok && src != mpi::kProcNull) {
          int sources = 0;
          if (probe_match(rank, src, tag, comm, &sources)) {
            flag = 1;
            if (src == mpi::kAnySource && sources > 1) {
              report(FindingKind::MessageRace, rank,
                     "wildcard probe has multiple racing senders");
            }
          }
        }
        if (flagp != 0) mem_write(rank, flagp, &flag, 4);
        done();
        return;
      }
      done();
      if (!ok || src == mpi::kProcNull) return;
      ctx.probe_src = src;
      ctx.probe_tag = tag;
      ctx.probe_comm = comm;
      ctx.status = RankStatus::BlockedProbe;
      return;
    }

    case Func::CommFree: {
      const std::uint64_t commp =
          static_cast<std::uint64_t>(arg(rank, inst, 0).i);
      std::int32_t handle = 0;
      if (commp == 0 || !mem_read(rank, commp, &handle, 4)) {
        report(FindingKind::InvalidParam, rank, "bad comm pointer");
        done();
        return;
      }
      const auto it = comms_.find(handle);
      if (it == comms_.end() || it->second.freed) {
        report(FindingKind::InvalidParam, rank, "free of invalid comm");
      } else if (it->second.builtin) {
        report(FindingKind::InvalidParam, rank, "free of MPI_COMM_WORLD");
      } else {
        Communicator& c = it->second;
        if (std::find(c.freed_by.begin(), c.freed_by.end(), rank) !=
            c.freed_by.end()) {
          report(FindingKind::InvalidParam, rank, "double free of comm");
        } else {
          c.freed_by.push_back(rank);
          if (c.freed_by.size() == c.ranks.size()) c.freed = true;
          const std::int32_t null_comm = mpi::kCommNull;
          mem_write(rank, commp, &null_comm, 4);
        }
      }
      done();
      return;
    }

    case Func::TypeContiguous: {
      const std::int64_t count = arg(rank, inst, 0).i;
      const std::int32_t base =
          static_cast<std::int32_t>(arg(rank, inst, 1).i);
      const std::uint64_t outp =
          static_cast<std::uint64_t>(arg(rank, inst, 2).i);
      bool ok = count > 0;
      if (!ok) report(FindingKind::InvalidParam, rank, "bad type count");
      bool base_ok = true;
      std::size_t base_sz = 0;
      if (const auto b = mpi::builtin_datatype_size(base)) {
        base_sz = *b;
      } else {
        const auto it = derived_types_.find(base);
        if (it != derived_types_.end()) {
          base_sz = it->second.bytes;
        } else {
          base_ok = false;
          report(FindingKind::InvalidParam, rank, "bad base datatype");
        }
      }
      if (ok && base_ok) {
        const std::int32_t handle = next_dtype_++;
        derived_types_[handle] =
            DerivedType{static_cast<std::size_t>(count) * base_sz, false};
        if (outp != 0) mem_write(rank, outp, &handle, 4);
      }
      done();
      return;
    }
    case Func::TypeCommit: {
      const std::uint64_t tp =
          static_cast<std::uint64_t>(arg(rank, inst, 0).i);
      std::int32_t handle = 0;
      if (tp != 0 && mem_read(rank, tp, &handle, 4)) {
        const auto it = derived_types_.find(handle);
        if (it == derived_types_.end()) {
          report(FindingKind::InvalidParam, rank, "commit of bad datatype");
        } else {
          it->second.committed = true;
        }
      }
      done();
      return;
    }
    case Func::TypeFree: {
      const std::uint64_t tp =
          static_cast<std::uint64_t>(arg(rank, inst, 0).i);
      std::int32_t handle = 0;
      if (tp != 0 && mem_read(rank, tp, &handle, 4)) {
        if (derived_types_.erase(handle) == 0) {
          report(FindingKind::InvalidParam, rank, "free of bad datatype");
        } else {
          const std::int32_t null_t = 0;
          mem_write(rank, tp, &null_t, 4);
        }
      }
      done();
      return;
    }

    case Func::WinLock: {
      const std::int32_t target =
          static_cast<std::int32_t>(arg(rank, inst, 1).i);
      const std::int32_t win =
          static_cast<std::int32_t>(arg(rank, inst, 3).i);
      const auto it = windows_.find(win);
      if (it == windows_.end() || it->second.freed) {
        report(FindingKind::InvalidParam, rank, "lock on invalid window");
      } else if (it->second.lock_holder.count(target) != 0) {
        report(FindingKind::EpochError, rank,
               "lock acquired while already locked");
      } else {
        it->second.lock_holder[target] = rank;
      }
      done();
      return;
    }
    case Func::WinUnlock: {
      const std::int32_t target =
          static_cast<std::int32_t>(arg(rank, inst, 0).i);
      const std::int32_t win =
          static_cast<std::int32_t>(arg(rank, inst, 1).i);
      const auto it = windows_.find(win);
      if (it == windows_.end() || it->second.freed) {
        report(FindingKind::InvalidParam, rank, "unlock on invalid window");
      } else {
        const auto lh = it->second.lock_holder.find(target);
        if (lh == it->second.lock_holder.end() || lh->second != rank) {
          report(FindingKind::EpochError, rank,
                 "unlock without matching lock");
        } else {
          it->second.lock_holder.erase(lh);
        }
      }
      done();
      return;
    }
    case Func::Put:
    case Func::Get:
    case Func::Accumulate: {
      const std::uint64_t origin =
          static_cast<std::uint64_t>(arg(rank, inst, 0).i);
      const std::int64_t count = arg(rank, inst, 1).i;
      const std::int32_t dtype =
          static_cast<std::int32_t>(arg(rank, inst, 2).i);
      const std::int32_t target =
          static_cast<std::int32_t>(arg(rank, inst, 3).i);
      const std::int64_t disp = arg(rank, inst, 4).i;
      const std::int32_t win = static_cast<std::int32_t>(
          arg(rank, inst, f == Func::Accumulate ? 8 : 7).i);
      const auto it = windows_.find(win);
      if (it == windows_.end() || it->second.freed) {
        report(FindingKind::InvalidParam, rank, "RMA on invalid window");
        done();
        return;
      }
      Window& w = it->second;
      bool ok = true;
      const std::size_t elem = datatype_bytes(dtype, rank, &ok);
      if (!ok || count < 0) {
        report(FindingKind::InvalidParam, rank, "bad RMA count/datatype");
        done();
        return;
      }
      const Communicator* c = comm_of(w.comm);
      if (c == nullptr || target < 0 ||
          target >= static_cast<std::int32_t>(c->ranks.size())) {
        report(FindingKind::InvalidParam, rank, "bad RMA target rank");
        done();
        return;
      }
      const int target_world = c->ranks[static_cast<std::size_t>(target)];
      const bool in_epoch =
          w.fence_open ||
          (w.lock_holder.count(target) != 0 &&
           w.lock_holder.at(target) == rank);
      if (!in_epoch) {
        report(FindingKind::EpochError, rank,
               "RMA access outside an access epoch");
      }
      const std::size_t bytes = static_cast<std::size_t>(count) * elem;
      const std::uint64_t tlo = static_cast<std::uint64_t>(disp) * elem;
      const std::int64_t wsize =
          w.size.count(target_world) != 0 ? w.size.at(target_world) : 0;
      if (static_cast<std::int64_t>(tlo + bytes) > wsize) {
        report(FindingKind::InvalidParam, rank,
               "RMA access exceeds target window");
        done();
        return;
      }
      w.epoch_accesses.push_back(RmaAccess{
          rank, target_world, tlo, tlo + bytes, f != Func::Get});
      // Perform the transfer immediately (deterministic effect).
      const std::uint64_t tbase =
          w.base.count(target_world) ? w.base.at(target_world) : 0;
      if (tbase != 0 && bytes > 0) {
        if (f == Func::Put) {
          const std::uint8_t* src = resolve(origin, bytes, rank);
          std::uint8_t* dst = resolve(tbase + tlo, bytes, rank);
          if (src != nullptr && dst != nullptr) std::memcpy(dst, src, bytes);
        } else if (f == Func::Get) {
          const std::uint8_t* src = resolve(tbase + tlo, bytes, rank);
          std::uint8_t* dst = resolve(origin, bytes, rank);
          if (src != nullptr && dst != nullptr) std::memcpy(dst, src, bytes);
        } else {  // Accumulate with MPI_SUM over int/double lanes
          const std::uint8_t* src = resolve(origin, bytes, rank);
          std::uint8_t* dst = resolve(tbase + tlo, bytes, rank);
          if (src != nullptr && dst != nullptr && elem >= 4) {
            for (std::size_t k = 0; k + elem <= bytes; k += elem) {
              if (elem == 8 &&
                  dtype == static_cast<std::int32_t>(mpi::Datatype::Double)) {
                double a = 0, b = 0;
                std::memcpy(&a, dst + k, 8);
                std::memcpy(&b, src + k, 8);
                a += b;
                std::memcpy(dst + k, &a, 8);
              } else {
                std::int32_t a = 0, b = 0;
                std::memcpy(&a, dst + k, 4);
                std::memcpy(&b, src + k, 4);
                a += b;
                std::memcpy(dst + k, &a, 4);
              }
            }
          }
        }
      }
      done();
      return;
    }
  }
  MPIDETECT_UNREACHABLE("unhandled MPI function");
}

// ===========================================================================
// Scheduler
// ===========================================================================

/// Shared end-of-iteration classification (progress engines have already
/// run). Returns true when the run is over and `rep_.outcome` is set.
/// Order matters: a rank set that made no progress over a full
/// iteration is stuck forever regardless of the remaining budget, so
/// Deadlock is decided *before* the budget check — Timeout is reserved
/// for budget exhaustion while something was still executing.
bool Machine::check_end(bool executed) {
  bool any_runnable = false, any_alive = false, any_crashed = false;
  for (const RankState& r : ranks_) {
    for (const ExecCtx& c : r.ctxs) {
      if (c.status == RankStatus::Runnable) any_runnable = true;
      if (c.status != RankStatus::Finished &&
          c.status != RankStatus::Crashed) {
        any_alive = true;
      }
      if (c.status == RankStatus::Crashed) any_crashed = true;
    }
  }
  if (!any_alive) {
    rep_.outcome = any_crashed ? Outcome::Crashed : Outcome::Completed;
    return true;
  }
  if (!any_runnable && !executed) {
    // Blocked ranks with no way to make progress: deadlock.
    rep_.outcome = Outcome::Deadlock;
    return true;
  }
  if (rep_.steps >= cfg_.max_steps) {
    rep_.outcome = Outcome::Timeout;
    return true;
  }
  return false;
}

/// Steps context `ctx` of `rank` until it blocks or finishes, `slice`
/// instructions have run or the step budget is spent. True when it
/// executed anything.
bool Machine::run_slice(int rank, int ctx, std::int64_t slice) {
  // Indexed on every step: a fork may reallocate the context list.
  RankState& r = ranks_[static_cast<std::size_t>(rank)];
  bool executed = false;
  for (std::int64_t k = 0;
       k < slice &&
       r.ctxs[static_cast<std::size_t>(ctx)].status == RankStatus::Runnable;
       ++k) {
    step(rank, ctx);
    executed = true;
    if (rep_.steps >= cfg_.max_steps) break;
  }
  return executed;
}

/// One scheduling decision; true when anything executed. The
/// schedulable unit is (rank, context): thread contexts compete for
/// slices exactly like ranks do.
bool Machine::schedule_slices() {
  bool executed = false;
  if (random_) {
    // A random runnable context runs a jittered slice, or a depth-first
    // burst until it blocks or finishes.
    runnable_.clear();
    for (int rk = 0; rk < cfg_.nprocs; ++rk) {
      const RankState& r = ranks_[static_cast<std::size_t>(rk)];
      for (std::size_t ci = 0; ci < r.ctxs.size(); ++ci) {
        if (r.ctxs[ci].status == RankStatus::Runnable) {
          runnable_.emplace_back(rk, static_cast<int>(ci));
        }
      }
    }
    if (runnable_.empty()) return false;
    const auto [rk, ci] = runnable_[rng_.index(runnable_.size())];
    const bool burst = rng_.chance(kBurstChance);
    return run_slice(rk, ci,
                     burst ? std::numeric_limits<std::int64_t>::max()
                           : rng_.uniform_int(kMinSlice, kSlice));
  }
  // Round-robin: every context of every rank runs a kSlice slice, in
  // order. ctxs.size() is re-read every iteration: contexts forked
  // during this round get their slice in the same pass.
  bool spent = false;
  for (int rk = 0; rk < cfg_.nprocs && !spent; ++rk) {
    const RankState& r = ranks_[static_cast<std::size_t>(rk)];
    for (std::size_t ci = 0; ci < r.ctxs.size() && !spent; ++ci) {
      executed = run_slice(rk, static_cast<int>(ci), kSlice) || executed;
      spent = rep_.steps >= cfg_.max_steps;
    }
  }
  return executed;
}

RunReport Machine::run() {
  if (prog_.main == nullptr) {
    rep_.outcome = Outcome::Crashed;
    rep_.findings.push_back(
        Finding{FindingKind::MemoryFault, -1, "no main function"});
    return rep_;
  }
  for (int rk = 0; rk < cfg_.nprocs; ++rk) {
    ranks_[static_cast<std::size_t>(rk)].ctxs[0].frames.push_back(
        enter_function(*prog_.main));
  }
  while (true) {
    const bool executed = schedule_slices();
    // Progress engines run after every decision, so under the Random
    // policy the points at which matching happens — not just the rank
    // order — vary by seed.
    if (matching_dirty_) {
      matching_dirty_ = false;
      match_messages();
    }
    try_complete_collectives();
    try_complete_nbc();
    check_probes();
    if (check_end(executed)) return rep_;
  }
}

}  // namespace

std::string_view sched_policy_name(SchedPolicy p) {
  switch (p) {
    case SchedPolicy::RoundRobin: return "round-robin";
    case SchedPolicy::Random: return "random";
  }
  MPIDETECT_UNREACHABLE("bad SchedPolicy");
}

namespace detail {

RunReport run(const DecodedModule& d, const MachineConfig& config) {
  MPIDETECT_EXPECTS(config.nprocs >= 1);
  Machine machine(d, config);
  return machine.run();
}

}  // namespace detail

RunReport run(const ir::Module& m, const MachineConfig& config) {
  MPIDETECT_EXPECTS(config.nprocs >= 1);
  return detail::run(*detail::decode(m), config);
}

}  // namespace mpidetect::mpisim
