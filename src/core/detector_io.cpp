// Persistence for the detector surface: Detector::save_state /
// load_state implementations and the registry-level model bundles
// (DetectorRegistry::save_bundle / load_bundle). A bundle is
//
//   "MPGD" + version | registry key | display name | kind |
//   detector-specific state section
//
// written atomically (io::save_file). Loading rebuilds the detector
// through its registry factory — so the caller's DetectorConfig wires
// in the shared EncodingCache — then overwrites every encoding-relevant
// option from the file: a persisted model must embed its inputs exactly
// as it did at training time to reproduce its verdicts bit-for-bit.
#include "core/detector.hpp"

#include <string>
#include <utility>

#include "io/model_io.hpp"
#include "io/serialize.hpp"
#include "ir2vec/vocabulary.hpp"
#include "support/check.hpp"

namespace mpidetect::core {

namespace {

constexpr std::uint32_t kStatelessVersion = 1;
constexpr std::uint32_t kIr2vecStateVersion = 1;
constexpr std::uint32_t kGnnStateVersion = 1;
constexpr std::uint32_t kBundleVersion = 1;

passes::OptLevel read_opt_level(io::Reader& r) {
  const std::uint8_t v = r.u8();
  if (v > static_cast<std::uint8_t>(passes::OptLevel::Os)) {
    r.fail("bad optimization level " + std::to_string(v));
  }
  return static_cast<passes::OptLevel>(v);
}

ir2vec::Normalization read_normalization(io::Reader& r) {
  const std::uint8_t v = r.u8();
  if (v > static_cast<std::uint8_t>(ir2vec::Normalization::Index)) {
    r.fail("bad normalization " + std::to_string(v));
  }
  return static_cast<ir2vec::Normalization>(v);
}

}  // namespace

// ---- Detector (stateless default) -------------------------------------------

void Detector::save_state(io::Writer& w) const {
  // Expert tools have no trained state; the marker still makes the
  // bundle payload self-describing and corruption-checkable.
  io::write_section(w, "STL0", kStatelessVersion);
}

void Detector::load_state(io::Reader& r) {
  io::read_section(r, "STL0", 1, kStatelessVersion,
                   "stateless detector state");
}

// ---- Ir2vecDetector ---------------------------------------------------------

void Ir2vecDetector::save_state(io::Writer& w) const {
  if (!model_.has_value()) {
    throw ContractViolation("Ir2vecDetector: fit() before save_state()");
  }
  io::write_section(w, "IR2V", kIr2vecStateVersion);
  w.u8(static_cast<std::uint8_t>(cfg_.feature_opt));
  w.u8(static_cast<std::uint8_t>(cfg_.normalization));
  io::save_vocabulary(w, ir2vec::Vocabulary(cfg_.vocab_seed));
  w.u8(cfg_.ir2vec.use_ga ? 1 : 0);
  w.i64(cfg_.ir2vec.folds);
  w.u64(cfg_.ir2vec.seed);
  w.u8(multiclass_ ? 1 : 0);
  io::save_trained_ir2vec(w, *model_);
}

void Ir2vecDetector::load_state(io::Reader& r) {
  io::read_section(r, "IR2V", 1, kIr2vecStateVersion,
                   "IR2vec detector state");
  cfg_.feature_opt = read_opt_level(r);
  cfg_.normalization = read_normalization(r);
  cfg_.vocab_seed = io::load_vocabulary(r).seed();
  cfg_.ir2vec.use_ga = r.u8() != 0;
  cfg_.ir2vec.folds = static_cast<int>(r.i64());
  cfg_.ir2vec.seed = r.u64();
  multiclass_ = r.u8() != 0;
  TrainedIr2vec model = io::load_trained_ir2vec(r);
  // evaluate() feeds the tree 2 * kDim-wide rows (encode_concat), so a
  // tree of any other width would read past them or misread them.
  constexpr std::size_t kWidth = 2 * ir2vec::kDim;
  if (model.tree.num_features() != kWidth) {
    r.fail("IR2vec decision tree expects " +
           std::to_string(model.tree.num_features()) +
           " features, the detector's rows have " + std::to_string(kWidth));
  }
  model_ = std::move(model);
  bound_.clear();
}

// ---- GnnDetector ------------------------------------------------------------

void GnnDetector::save_state(io::Writer& w) const {
  if (!model_) {
    throw ContractViolation("GnnDetector: fit() before save_state()");
  }
  io::write_section(w, "GNND", kGnnStateVersion);
  w.u8(static_cast<std::uint8_t>(cfg_.graph_opt));
  w.i64(cfg_.gnn.folds);
  w.u64(cfg_.gnn.seed);
  io::save_gnn_model(w, *model_);
}

void GnnDetector::load_state(io::Reader& r) {
  io::read_section(r, "GNND", 1, kGnnStateVersion,
                   "GNN detector state");
  cfg_.graph_opt = read_opt_level(r);
  cfg_.gnn.folds = static_cast<int>(r.i64());
  cfg_.gnn.seed = r.u64();
  model_ = io::load_gnn_model(r);
  cfg_.gnn.cfg = model_->config();
  bound_.clear();
}

// ---- DetectorRegistry bundles -----------------------------------------------

void DetectorRegistry::save_bundle(std::string_view name, const Detector& det,
                                   const std::string& path) const {
  if (!contains(name)) {
    throw ContractViolation("save_bundle: detector '" + std::string(name) +
                            "' is not registered; the bundle could never be "
                            "loaded back");
  }
  io::save_file(path, [&](io::Writer& w) {
    io::write_section(w, "MPGD", kBundleVersion);
    w.str(name);
    w.str(det.name());
    w.u8(static_cast<std::uint8_t>(det.kind()));
    det.save_state(w);
  });
}

std::unique_ptr<Detector> DetectorRegistry::load_bundle(
    const std::string& path, const DetectorConfig& cfg) const {
  std::unique_ptr<Detector> det;
  io::load_file(path, [&](io::Reader& r) {
    io::read_section(r, "MPGD", 1, kBundleVersion,
                     "mpidetect model bundle");
    const std::string key = r.str(256);
    const std::string display = r.str(256);
    const std::uint8_t kind = r.u8();
    if (!contains(key)) {
      throw ContractViolation("load_bundle: bundle holds detector '" + key +
                              "' (" + display +
                              "), which is not registered here");
    }
    det = create(key, cfg);
    if (kind != static_cast<std::uint8_t>(det->kind())) {
      r.fail("bundle kind does not match detector '" + key +
             "' (file corrupt or registry changed)");
    }
    det->load_state(r);
    if (!r.at_end()) {
      r.fail("trailing bytes after detector state (corrupt bundle)");
    }
  });
  return det;
}

}  // namespace mpidetect::core
