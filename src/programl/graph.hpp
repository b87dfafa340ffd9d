// ProGraML-style heterogeneous program graph (Cummins et al., ICML'21)
// built from the mini-IR, exactly the representation the paper's GNN
// consumes (§IV-B): three node types — control (instructions), variable
// (SSA values / arguments), constant — and three edge relations —
// control flow, data flow, and call.
//
// Node features are token ids over a fixed hashed vocabulary; call
// instructions carry the callee identity in their token (the MPI
// function name is the dominant signal at a call site).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "ir/module.hpp"

namespace mpidetect::programl {

/// Hashed token vocabulary size for node features.
inline constexpr std::size_t kVocabSize = 256;

enum class NodeType : std::uint8_t { Control, Variable, Constant };
inline constexpr std::size_t kNumNodeTypes = 3;

enum class EdgeType : std::uint8_t { Control, Data, Call };
inline constexpr std::size_t kNumEdgeTypes = 3;

std::string_view node_type_name(NodeType t);
std::string_view edge_type_name(EdgeType t);

struct Node {
  NodeType type = NodeType::Control;
  std::uint32_t token = 0;  // index into the hashed vocabulary
  std::string text;         // human-readable ("call:MPI_Send", "var:i32")
};

struct Edge {
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
};

struct ProgramGraph {
  std::vector<Node> nodes;
  std::array<std::vector<Edge>, kNumEdgeTypes> edges;

  std::size_t num_nodes() const { return nodes.size(); }
  std::size_t num_edges() const {
    return edges[0].size() + edges[1].size() + edges[2].size();
  }
  const std::vector<Edge>& edges_of(EdgeType t) const {
    return edges[static_cast<std::size_t>(t)];
  }
};

/// \brief A disjoint union of program graphs — the mini-batch unit of
/// GNN inference.
///
/// Holds exactly what the model consumes — node feature tokens and the
/// per-relation edge lists, concatenated in member order with node ids
/// offset so each member's nodes form a contiguous range. (No Node
/// texts: batches are rebuilt for every inference chunk, so packing must
/// be cheap.) Because members stay disconnected, one message-passing pass
/// over the union computes exactly the per-graph passes; `segments`
/// (node -> member index) is what the segment ops
/// (segment_max_pool_rows, ...) use to keep per-graph results apart.
struct GraphBatch {
  std::vector<std::uint32_t> tokens;    // merged node feature tokens
  std::array<std::vector<Edge>, kNumEdgeTypes> edges;  // offset node ids
  std::vector<std::uint32_t> segments;  // merged node id -> member index
  std::size_t size = 0;                 // number of member graphs

  std::size_t num_nodes() const { return tokens.size(); }
};

/// Packs graphs into a disjoint-union batch. Every member must be
/// non-empty (a graph with no nodes has nothing to pool).
GraphBatch make_batch(std::span<const ProgramGraph> graphs);

/// Token id of a node text (stable hashed vocabulary).
std::uint32_t token_of(const std::string& text);

/// Builds the unified control/data/call graph of a module.
ProgramGraph build_graph(const ir::Module& m);

/// GraphViz dump for debugging / documentation.
std::string to_dot(const ProgramGraph& g);

}  // namespace mpidetect::programl
