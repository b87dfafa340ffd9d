#include "io/encoding_io.hpp"

#include <cinttypes>
#include <cstdio>

#include "support/check.hpp"

namespace mpidetect::io {

namespace {

constexpr std::uint32_t kEncodingVersion = 1;

std::string key_stem(const char* prefix, const EncodingKey& key) {
  char buf[128];
  std::snprintf(buf, sizeof buf,
                "%s-%016" PRIx64 "-%" PRIu64 "-%d-%d-%016" PRIx64 ".mpienc",
                prefix, key.fingerprint, key.size, key.opt, key.norm,
                key.vocab_seed);
  return buf;
}

void write_key(Writer& w, const EncodingKey& key) {
  w.u64(key.fingerprint);
  w.u64(key.size);
  w.i64(key.opt);
  w.i64(key.norm);
  w.u64(key.vocab_seed);
}

void check_key(Reader& r, const EncodingKey& expected) {
  EncodingKey got;
  got.fingerprint = r.u64();
  got.size = r.u64();
  got.opt = static_cast<std::int32_t>(r.i64());
  got.norm = static_cast<std::int32_t>(r.i64());
  got.vocab_seed = r.u64();
  if (!(got == expected)) {
    r.fail("encoding answers a different key (dataset content or "
           "extraction configuration changed); recompute");
  }
}

void write_bool_vec(Writer& w, const std::vector<bool>& v) {
  w.u64(v.size());
  for (const bool b : v) w.u8(b ? 1 : 0);
}

std::vector<bool> read_bool_vec(Reader& r, std::size_t n) {
  std::vector<bool> v(n);
  const std::size_t stored = r.count(Reader::kMaxElements);
  if (stored != n) r.fail("boolean vector length mismatch");
  for (std::size_t i = 0; i < n; ++i) v[i] = r.u8() != 0;
  return v;
}

void write_str_vec(Writer& w, const std::vector<std::string>& v) {
  w.u64(v.size());
  for (const auto& s : v) w.str(s);
}

std::vector<std::string> read_str_vec(Reader& r, std::size_t max) {
  const std::size_t n = r.count(max);
  std::vector<std::string> v(n);
  for (auto& s : v) s = r.str();
  return v;
}

}  // namespace

std::string feature_file_name(const EncodingKey& key) {
  return key_stem("feat", key);
}

std::string graph_file_name(const EncodingKey& key) {
  return key_stem("graph", key);
}

void save_feature_set(Writer& w, const EncodingKey& key,
                      const core::FeatureSet& fs) {
  write_section(w, "ENCF", kEncodingVersion);
  write_key(w, key);
  const std::size_t n = fs.size();
  MPIDETECT_EXPECTS(fs.y_binary.size() == n && fs.y_label.size() == n &&
                    fs.incorrect.size() == n && fs.case_names.size() == n);
  w.u64(n);
  const std::size_t dim = n == 0 ? 0 : fs.X.front().size();
  w.u64(dim);
  for (const auto& row : fs.X) {
    MPIDETECT_EXPECTS(row.size() == dim);
    for (const double x : row) w.f64(x);
  }
  w.index_vec(fs.y_binary);
  w.index_vec(fs.y_label);
  write_str_vec(w, fs.label_names);
  write_bool_vec(w, fs.incorrect);
  write_str_vec(w, fs.case_names);
}

core::FeatureSet load_feature_set(Reader& r, const EncodingKey& expected) {
  read_section(r, "ENCF", 1, kEncodingVersion, "feature encoding");
  check_key(r, expected);
  core::FeatureSet fs;
  const std::size_t n = r.count(Reader::kMaxElements);
  // The caller indexes the loaded set by dataset index up to key.size;
  // a file claiming any other count must be a miss, not an allocation.
  if (n != expected.size) r.fail("feature encoding case count mismatch");
  const std::size_t dim = r.count(1u << 20);
  fs.X.resize(n);
  for (auto& row : fs.X) {
    row.resize(dim);
    for (double& x : row) x = r.f64();
  }
  fs.y_binary = r.index_vec();
  fs.y_label = r.index_vec();
  fs.label_names = read_str_vec(r, 1u << 16);
  fs.incorrect = read_bool_vec(r, n);
  fs.case_names = read_str_vec(r, Reader::kMaxElements);
  if (fs.y_binary.size() != n || fs.y_label.size() != n ||
      fs.case_names.size() != n) {
    r.fail("feature encoding column length mismatch");
  }
  for (const std::size_t l : fs.y_label) {
    if (l >= fs.label_names.size()) r.fail("label index out of range");
  }
  return fs;
}

void save_graph_set(Writer& w, const EncodingKey& key,
                    const core::GraphSet& gs) {
  write_section(w, "ENCG", kEncodingVersion);
  write_key(w, key);
  const std::size_t n = gs.size();
  MPIDETECT_EXPECTS(gs.y_binary.size() == n && gs.incorrect.size() == n &&
                    gs.case_names.size() == n);
  w.u64(n);
  for (const auto& g : gs.graphs) {
    w.u64(g.nodes.size());
    for (const auto& node : g.nodes) {
      w.u8(static_cast<std::uint8_t>(node.type));
      w.u32(node.token);
      w.str(node.text);
    }
    for (const auto& edges : g.edges) {
      w.u64(edges.size());
      for (const auto& e : edges) {
        w.u32(e.src);
        w.u32(e.dst);
      }
    }
  }
  w.index_vec(gs.y_binary);
  write_bool_vec(w, gs.incorrect);
  write_str_vec(w, gs.case_names);
}

core::GraphSet load_graph_set(Reader& r, const EncodingKey& expected) {
  read_section(r, "ENCG", 1, kEncodingVersion, "graph encoding");
  check_key(r, expected);
  core::GraphSet gs;
  const std::size_t n = r.count(Reader::kMaxElements);
  if (n != expected.size) r.fail("graph encoding case count mismatch");
  gs.graphs.resize(n);
  for (auto& g : gs.graphs) {
    const std::size_t n_nodes = r.count(Reader::kMaxElements);
    g.nodes.resize(n_nodes);
    for (auto& node : g.nodes) {
      const std::uint8_t type = r.u8();
      if (type >= programl::kNumNodeTypes) r.fail("bad node type");
      node.type = static_cast<programl::NodeType>(type);
      node.token = r.u32();
      if (node.token >= programl::kVocabSize) {
        r.fail("node token out of vocabulary range");
      }
      node.text = r.str();
    }
    for (auto& edges : g.edges) {
      const std::size_t n_edges = r.count(Reader::kMaxElements);
      edges.resize(n_edges);
      for (auto& e : edges) {
        e.src = r.u32();
        e.dst = r.u32();
        if (e.src >= n_nodes || e.dst >= n_nodes) {
          r.fail("edge endpoint out of range");
        }
      }
    }
  }
  gs.y_binary = r.index_vec();
  gs.incorrect = read_bool_vec(r, n);
  gs.case_names = read_str_vec(r, Reader::kMaxElements);
  if (gs.y_binary.size() != n || gs.case_names.size() != n) {
    r.fail("graph encoding column length mismatch");
  }
  return gs;
}

}  // namespace mpidetect::io
