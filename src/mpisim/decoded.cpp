#include "mpisim/decoded.hpp"

#include <string_view>
#include <unordered_map>

namespace mpidetect::mpisim::detail {

namespace {

using ir::BasicBlock;
using ir::Function;
using ir::Instruction;
using ir::Opcode;
using ir::Value;
using ir::ValueKind;

constexpr std::string_view kThreadFork = "__mpidetect_thread_fork";

class Decoder {
 public:
  explicit Decoder(DecodedModule& out) : out_(out) {}

  /// The record of `f`, created and queued for decoding on first use.
  DecodedFunction* function(const Function* f) {
    auto [it, inserted] = index_.try_emplace(f, nullptr);
    if (inserted) {
      it->second = &out_.functions.emplace_back();
      it->second->ir = f;
      pending_.push_back(it->second);
    }
    return it->second;
  }

  void drain() {
    while (!pending_.empty()) {
      DecodedFunction* f = pending_.back();
      pending_.pop_back();
      if (!f->ir->is_declaration()) decode_function(*f);
    }
  }

 private:
  std::uint32_t slot_of(const Value* v) {
    return slots_.try_emplace(v, static_cast<std::uint32_t>(slots_.size()))
        .first->second;
  }

  Operand operand(const Value* v) {
    Operand o;
    if (v == nullptr) return o;
    switch (v->kind()) {
      case ValueKind::ConstantInt:
        o.value.i = static_cast<const ir::ConstantInt*>(v)->value();
        return o;
      case ValueKind::ConstantFP:
        o.value.f = static_cast<const ir::ConstantFP*>(v)->value();
        return o;
      case ValueKind::Function:
        return o;
      default:
        o.slot = slot_of(v);
        return o;
    }
  }

  void add_block(const BasicBlock* bb) {
    if (bb != nullptr && block_index_.try_emplace(bb, order_.size()).second) {
      order_.push_back(bb);
    }
  }

  void decode_function(DecodedFunction& df);
  DecodedInst decode_inst(DecodedFunction& df, const Instruction& inst);

  DecodedModule& out_;
  std::unordered_map<const Function*, DecodedFunction*> index_;
  std::vector<DecodedFunction*> pending_;
  // Per-function decoding state.
  std::unordered_map<const Value*, std::uint32_t> slots_;
  std::unordered_map<const BasicBlock*, std::size_t> block_index_;
  std::vector<const BasicBlock*> order_;
};

void Decoder::decode_function(DecodedFunction& df) {
  const Function& f = *df.ir;
  slots_.clear();
  block_index_.clear();
  order_.clear();
  for (std::size_t i = 0; i < f.num_args(); ++i) slot_of(f.arg(i));

  // The function's blocks, then every branch target outside it. The
  // counts size the flat arrays up front, so the pointers handed out
  // below stay valid.
  for (const auto& bb : f.blocks()) add_block(bb.get());
  std::size_t n_insts = 0, n_operands = 0, n_incoming = 0;
  for (std::size_t b = 0; b < order_.size(); ++b) {
    for (const auto& inst : order_[b]->instructions()) {
      ++n_insts;
      n_operands += inst->num_operands();
      if (inst->opcode() == Opcode::Phi) n_incoming += inst->num_operands();
      if (inst->opcode() == Opcode::Br || inst->opcode() == Opcode::CondBr) {
        for (const BasicBlock* to : inst->block_operands()) add_block(to);
      }
    }
  }
  df.blocks.resize(order_.size());
  df.insts.reserve(n_insts);
  df.operands.reserve(n_operands);
  df.incoming.reserve(n_incoming);

  for (std::size_t b = 0; b < order_.size(); ++b) {
    DecodedBlock& db = df.blocks[b];
    db.ir = order_[b];
    db.insts = df.insts.data() + df.insts.size();
    db.size = order_[b]->size();
    bool leading = true;
    for (const auto& inst : order_[b]->instructions()) {
      leading = leading && inst->opcode() == Opcode::Phi;
      if (leading) ++db.num_phis;
      df.insts.push_back(decode_inst(df, *inst));
    }
  }
  df.entry = &df.blocks.front();
  df.num_slots = static_cast<std::uint32_t>(slots_.size());
}

DecodedInst Decoder::decode_inst(DecodedFunction& df,
                                 const Instruction& inst) {
  DecodedInst d;
  d.op = inst.opcode();
  d.type = inst.type();
  d.access_type = inst.access_type();
  d.pred = inst.cmp_pred();
  d.slot = slot_of(&inst);
  d.num_operands = static_cast<std::uint32_t>(inst.num_operands());
  d.operands = df.operands.data() + df.operands.size();
  for (const Value* v : inst.operands()) df.operands.push_back(operand(v));
  if (d.num_operands > 0 && inst.operand(0) != nullptr) {
    d.op0_type = inst.operand(0)->type();
  }

  switch (d.op) {
    case Opcode::Phi: {
      d.incoming = df.incoming.data() + df.incoming.size();
      const auto& from = inst.block_operands();
      for (std::size_t k = 0; k < d.num_operands; ++k) {
        df.incoming.push_back(k < from.size() ? from[k] : nullptr);
      }
      break;
    }
    case Opcode::Br:
    case Opcode::CondBr: {
      const auto& to = inst.block_operands();
      for (std::size_t k = 0; k < 2 && k < to.size(); ++k) {
        if (to[k] != nullptr) d.succ[k] = &df.blocks[block_index_.at(to[k])];
      }
      break;
    }
    case Opcode::Call: {
      const Function* callee = inst.callee();
      const auto is_fn = [&](std::size_t k) {
        return inst.operand(k) != nullptr &&
               inst.operand(k)->kind() == ValueKind::Function;
      };
      if (const auto f = mpi::classify_call(inst)) {
        d.call = CallKind::Mpi;
        d.mpi_func = *f;
      } else if (callee == nullptr) {
        d.call = CallKind::Extern;
      } else if (callee->name() == kThreadFork && d.num_operands == 3 &&
                 is_fn(0) && is_fn(1)) {
        d.call = CallKind::Fork;
        d.callee = function(static_cast<const Function*>(inst.operand(0)));
        d.callee2 = function(static_cast<const Function*>(inst.operand(1)));
      } else if (callee->is_declaration()) {
        d.call = CallKind::Extern;
      } else {
        d.call = CallKind::Defined;
        d.callee = function(callee);
      }
      break;
    }
    default:
      break;
  }
  return d;
}

}  // namespace

std::unique_ptr<const DecodedModule> decode(const ir::Module& m) {
  auto out = std::make_unique<DecodedModule>();
  const Function* main_fn = m.find_function("main");
  if (main_fn != nullptr && !main_fn->is_declaration()) {
    Decoder dec(*out);
    out->main = dec.function(main_fn);
    dec.drain();
  }
  return out;
}

}  // namespace mpidetect::mpisim::detail
