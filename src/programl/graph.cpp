#include "programl/graph.hpp"

#include <sstream>
#include <unordered_map>

#include "support/check.hpp"
#include "support/rng.hpp"

namespace mpidetect::programl {

namespace {

using ir::BasicBlock;
using ir::Function;
using ir::Instruction;
using ir::Opcode;
using ir::Value;
using ir::ValueKind;

std::string control_text(const Instruction& inst) {
  if (inst.opcode() == Opcode::Call && inst.callee() != nullptr) {
    return "call:" + inst.callee()->name();
  }
  std::string text(ir::opcode_name(inst.opcode()));
  if (inst.opcode() == Opcode::ICmp || inst.opcode() == Opcode::FCmp) {
    text += ":" + std::string(ir::cmp_pred_name(inst.cmp_pred()));
  }
  return text;
}

std::string variable_text(const Value& v) {
  return "var:" + std::string(ir::type_name(v.type()));
}

std::string constant_text(const Value& v) {
  if (v.kind() == ValueKind::ConstantInt) {
    const auto val = static_cast<const ir::ConstantInt&>(v).value();
    std::string bucket = val < 0      ? "neg"
                         : val == 0   ? "zero"
                         : val == 1   ? "one"
                         : val <= 16  ? "small"
                         : val <= 4096 ? "medium"
                                       : "large";
    return "const:" + std::string(ir::type_name(v.type())) + ":" + bucket;
  }
  return "const:fp";
}

}  // namespace

std::string_view node_type_name(NodeType t) {
  switch (t) {
    case NodeType::Control: return "control";
    case NodeType::Variable: return "variable";
    case NodeType::Constant: return "constant";
  }
  MPIDETECT_UNREACHABLE("bad NodeType");
}

std::string_view edge_type_name(EdgeType t) {
  switch (t) {
    case EdgeType::Control: return "control";
    case EdgeType::Data: return "data";
    case EdgeType::Call: return "call";
  }
  MPIDETECT_UNREACHABLE("bad EdgeType");
}

std::uint32_t token_of(const std::string& text) {
  return static_cast<std::uint32_t>(fnv1a64(text) % kVocabSize);
}

ProgramGraph build_graph(const ir::Module& m) {
  ProgramGraph g;
  const auto add_node = [&](NodeType type, std::string text) {
    g.nodes.push_back(Node{type, token_of(text), std::move(text)});
    return static_cast<std::uint32_t>(g.nodes.size() - 1);
  };
  const auto add_edge = [&](EdgeType t, std::uint32_t s, std::uint32_t d) {
    g.edges[static_cast<std::size_t>(t)].push_back(Edge{s, d});
  };

  std::unordered_map<const Instruction*, std::uint32_t> control_of;
  std::unordered_map<const Value*, std::uint32_t> data_of;
  std::unordered_map<const Function*, std::uint32_t> entry_of;

  const auto data_node = [&](const Value& v) -> std::uint32_t {
    const auto it = data_of.find(&v);
    if (it != data_of.end()) return it->second;
    std::uint32_t id = 0;
    if (v.is_constant()) {
      id = add_node(NodeType::Constant, constant_text(v));
    } else {
      id = add_node(NodeType::Variable, variable_text(v));
    }
    data_of.emplace(&v, id);
    return id;
  };

  // Pass 1: control nodes + intra-block control edges.
  for (const auto& f : m.functions()) {
    if (f->is_declaration()) continue;
    for (const auto& bb : f->blocks()) {
      std::uint32_t prev = UINT32_MAX;
      for (const auto& inst : bb->instructions()) {
        const std::uint32_t id =
            add_node(NodeType::Control, control_text(*inst));
        control_of.emplace(inst.get(), id);
        if (bb.get() == f->entry() && prev == UINT32_MAX) {
          entry_of.emplace(f.get(), id);
        }
        if (prev != UINT32_MAX) add_edge(EdgeType::Control, prev, id);
        prev = id;
      }
    }
  }

  // Pass 2: block-to-block control, data, and call edges.
  for (const auto& f : m.functions()) {
    if (f->is_declaration()) continue;
    for (const auto& bb : f->blocks()) {
      const Instruction* term = bb->terminator();
      if (term != nullptr) {
        for (BasicBlock* succ : bb->successors()) {
          if (!succ->empty()) {
            add_edge(EdgeType::Control, control_of.at(term),
                     control_of.at(succ->instructions().front().get()));
          }
        }
      }
      for (const auto& inst : bb->instructions()) {
        const std::uint32_t cid = control_of.at(inst.get());
        // Uses: operand data node -> this control node.
        for (const Value* op : inst->operands()) {
          add_edge(EdgeType::Data, data_node(*op), cid);
        }
        // Def: this control node -> its result variable node.
        if (inst->type() != ir::Type::Void) {
          add_edge(EdgeType::Data, cid, data_node(*inst));
        }
        // Calls: edge into the callee's entry instruction (defined
        // callees only; externs like MPI_* live in the token).
        if (inst->opcode() == Opcode::Call && inst->callee() != nullptr) {
          const auto eit = entry_of.find(inst->callee());
          if (eit != entry_of.end()) {
            add_edge(EdgeType::Call, cid, eit->second);
          }
        }
      }
    }
  }
  return g;
}

GraphBatch make_batch(std::span<const ProgramGraph> graphs) {
  GraphBatch batch;
  batch.size = graphs.size();
  std::size_t total_nodes = 0;
  std::array<std::size_t, kNumEdgeTypes> total_edges{};
  for (const ProgramGraph& g : graphs) {
    MPIDETECT_EXPECTS(g.num_nodes() > 0);
    total_nodes += g.num_nodes();
    for (std::size_t t = 0; t < kNumEdgeTypes; ++t) {
      total_edges[t] += g.edges[t].size();
    }
  }
  batch.tokens.reserve(total_nodes);
  batch.segments.reserve(total_nodes);
  for (std::size_t t = 0; t < kNumEdgeTypes; ++t) {
    batch.edges[t].reserve(total_edges[t]);
  }
  std::uint32_t offset = 0;
  for (std::size_t m = 0; m < graphs.size(); ++m) {
    const ProgramGraph& g = graphs[m];
    for (const Node& n : g.nodes) batch.tokens.push_back(n.token);
    batch.segments.insert(batch.segments.end(), g.num_nodes(),
                          static_cast<std::uint32_t>(m));
    for (std::size_t t = 0; t < kNumEdgeTypes; ++t) {
      for (const Edge& e : g.edges[t]) {
        batch.edges[t].push_back({e.src + offset, e.dst + offset});
      }
    }
    offset += static_cast<std::uint32_t>(g.num_nodes());
  }
  return batch;
}

std::string to_dot(const ProgramGraph& g) {
  std::ostringstream os;
  os << "digraph programl {\n";
  for (std::size_t i = 0; i < g.nodes.size(); ++i) {
    const Node& n = g.nodes[i];
    const char* shape = n.type == NodeType::Control    ? "box"
                        : n.type == NodeType::Variable ? "ellipse"
                                                       : "diamond";
    os << "  n" << i << " [label=\"" << n.text << "\", shape=" << shape
       << "];\n";
  }
  static const char* style[] = {"solid", "dashed", "bold"};
  for (std::size_t t = 0; t < kNumEdgeTypes; ++t) {
    for (const Edge& e : g.edges[t]) {
      os << "  n" << e.src << " -> n" << e.dst << " [style=" << style[t]
         << "];\n";
    }
  }
  os << "}\n";
  return os.str();
}

}  // namespace mpidetect::programl
