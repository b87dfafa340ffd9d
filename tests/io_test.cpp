// Serialization subsystem tests: save/load round trips must reproduce
// verdicts BIT-IDENTICALLY for every detector kind on a fixed corpus,
// the encoding spill must serve disk hits across cache instances, and
// corrupt / truncated / future-version artifacts must be rejected with
// a clear FormatError instead of producing a silently different model.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "core/detector.hpp"
#include "core/eval_engine.hpp"
#include "datasets/corrbench.hpp"
#include "datasets/mbi.hpp"
#include "io/encoding_io.hpp"
#include "io/model_io.hpp"
#include "io/serialize.hpp"
#include "support/check.hpp"

namespace mpidetect {
namespace {

namespace fs = std::filesystem;

/// Unique per-test scratch directory, removed on destruction.
struct TempDir {
  fs::path path;

  TempDir() {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    path = fs::temp_directory_path() /
           (std::string("mpidetect_io_") + info->name());
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string file(const char* name) const { return (path / name).string(); }
};

datasets::Dataset small_mbi(double scale = 0.05, std::uint64_t seed = 99) {
  datasets::MbiConfig cfg;
  cfg.scale = scale;
  cfg.seed = seed;
  return datasets::generate_mbi(cfg);
}

core::DetectorConfig tiny_config() {
  core::DetectorConfig cfg;
  cfg.ir2vec.use_ga = false;
  cfg.gnn.cfg.embed_dim = 8;
  cfg.gnn.cfg.layers = {16, 8};
  cfg.gnn.cfg.fc_hidden = 8;
  cfg.gnn.cfg.epochs = 2;
  return cfg;
}

void expect_identical_verdicts(const std::vector<core::Verdict>& a,
                               const std::vector<core::Verdict>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].outcome, b[i].outcome) << "case " << i;
    EXPECT_EQ(a[i].predicted_label, b[i].predicted_label) << "case " << i;
    // Bit-identical, not approximately equal: the format stores IEEE-754
    // bit patterns, so nothing may drift through a round trip.
    EXPECT_EQ(a[i].confidence, b[i].confidence) << "case " << i;
  }
}

TEST(SerializeTest, PrimitivesRoundTrip) {
  std::stringstream ss;
  io::Writer w(ss);
  w.u8(0xab);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  w.i64(-42);
  w.f64(3.141592653589793);
  w.f64(-0.0);
  w.str("hello");
  w.index_vec(std::vector<std::size_t>{5, 0, 7});
  io::Reader r(ss);
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_EQ(r.f64(), 3.141592653589793);
  EXPECT_EQ(std::signbit(r.f64()), true);
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.index_vec(), (std::vector<std::size_t>{5, 0, 7}));
  EXPECT_TRUE(r.at_end());
}

TEST(SerializeTest, TruncatedStreamThrows) {
  std::stringstream ss;
  io::Writer w(ss);
  w.u32(7);
  io::Reader r(ss, "test-origin");
  try {
    r.u64();
    FAIL() << "expected FormatError";
  } catch (const io::FormatError& e) {
    EXPECT_NE(std::string(e.what()).find("test-origin"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("end of file"), std::string::npos);
  }
}

TEST(SerializeTest, ImplausibleCountRejected) {
  std::stringstream ss;
  io::Writer w(ss);
  w.u64(std::uint64_t{1} << 60);  // a corrupt length prefix
  io::Reader r(ss);
  EXPECT_THROW(r.str(), io::FormatError);
}

TEST(SerializeTest, FutureVersionRejected) {
  std::stringstream ss;
  io::Writer w(ss);
  io::write_section(w, "CART", 999);
  io::Reader r(ss);
  try {
    io::read_section(r, "CART", 1, 1, "decision-tree model");
    FAIL() << "expected FormatError";
  } catch (const io::FormatError& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("999"), std::string::npos);
  }
}

TEST(SerializeTest, VersionRejectionSaysCorruptOlderOrNewer) {
  // The message read_section gives `version` against [lo, hi], or "" when
  // it accepts it.
  const auto message = [](std::uint32_t version, std::uint32_t lo,
                          std::uint32_t hi) -> std::string {
    std::stringstream ss;
    io::Writer w(ss);
    io::write_section(w, "CART", version);
    io::Reader r(ss);
    try {
      EXPECT_EQ(io::read_section(r, "CART", lo, hi, "decision-tree model"),
                version);
      return "";
    } catch (const io::FormatError& e) {
      return e.what();
    }
  };
  const auto contains = [](const std::string& s, const std::string& part) {
    return s.find(part) != std::string::npos;
  };
  EXPECT_EQ(message(2, 2, 3), "");
  EXPECT_EQ(message(3, 2, 3), "");

  const std::string zero = message(0, 1, 3);
  EXPECT_TRUE(contains(zero, "corrupt decision-tree model: version 0"))
      << zero;
  EXPECT_FALSE(contains(zero, "older build")) << zero;
  EXPECT_FALSE(contains(zero, "newer build")) << zero;

  const std::string older = message(1, 2, 3);
  EXPECT_TRUE(contains(older,
                       "unsupported decision-tree model version 1 (this "
                       "build supports 2..3; it was written by an older "
                       "build)"))
      << older;
  const std::string newer = message(4, 2, 3);
  EXPECT_TRUE(contains(newer,
                       "unsupported decision-tree model version 4 (this "
                       "build supports 2..3; it was written by a newer "
                       "build)"))
      << newer;

  // A single accepted version is named as such, on both sides.
  const std::string only_older = message(2, 3, 3);
  EXPECT_TRUE(contains(only_older,
                       "version 2 (this build supports only version 3; it "
                       "was written by an older build)"))
      << only_older;
  const std::string only_newer = message(4, 3, 3);
  EXPECT_TRUE(contains(only_newer,
                       "version 4 (this build supports only version 3; it "
                       "was written by a newer build)"))
      << only_newer;
}

TEST(SerializeTest, WrongMagicRejected) {
  std::stringstream ss;
  io::Writer w(ss);
  io::write_section(w, "GNNW", 1);
  io::Reader r(ss);
  EXPECT_THROW(io::read_section(r, "CART", 1, 1, "decision-tree model"),
               io::FormatError);
}

TEST(DecisionTreeIoTest, RoundTripPredictsIdentically) {
  // A spiral of points the tree must carve up with many splits.
  std::vector<std::vector<double>> X;
  std::vector<std::size_t> y;
  for (int i = 0; i < 120; ++i) {
    const double a = 0.1 * i;
    X.push_back({a * std::cos(a), a * std::sin(a), (i % 7) * 0.3});
    y.push_back(static_cast<std::size_t>(i % 3));
  }
  ml::DecisionTree tree;
  tree.fit(X, y);

  std::stringstream ss;
  io::Writer w(ss);
  io::save_decision_tree(w, tree);
  io::Reader r(ss);
  const ml::DecisionTree loaded = io::load_decision_tree(r);

  EXPECT_EQ(loaded.node_count(), tree.node_count());
  EXPECT_EQ(loaded.depth(), tree.depth());
  EXPECT_EQ(loaded.num_classes(), tree.num_classes());
  EXPECT_EQ(loaded.predict(X), tree.predict(X));
}

TEST(DecisionTreeIoTest, MalformedNodesRejected) {
  std::vector<ml::DecisionTree::Node> nodes(2);
  nodes[0].leaf = false;
  nodes[0].left = 0;  // self-loop: predict() would never terminate
  nodes[0].right = 1;
  EXPECT_THROW(ml::DecisionTree::from_nodes({}, nodes, 2, 4),
               ContractViolation);

  nodes[0].left = 5;  // out of range
  EXPECT_THROW(ml::DecisionTree::from_nodes({}, nodes, 2, 4),
               ContractViolation);

  nodes = std::vector<ml::DecisionTree::Node>(3);
  nodes[0].leaf = false;
  nodes[0].left = 1;
  nodes[0].right = 2;
  nodes[0].feature = 99;  // past the feature-row width: OOB read in predict
  EXPECT_THROW(ml::DecisionTree::from_nodes({}, nodes, 2, 4),
               ContractViolation);

  nodes[0].feature = 3;  // in range: accepted
  const auto tree = ml::DecisionTree::from_nodes({}, nodes, 2, 4);
  EXPECT_EQ(tree.num_features(), 4u);
  EXPECT_EQ(tree.predict(std::vector<double>{0, 0, 0, 0}), 0u);
}

TEST(VocabularyIoTest, RoundTripAndSeedPreserved) {
  std::stringstream ss;
  io::Writer w(ss);
  io::save_vocabulary(w, ir2vec::Vocabulary(0x5eed));
  io::Reader r(ss);
  const ir2vec::Vocabulary loaded = io::load_vocabulary(r);
  EXPECT_EQ(loaded.seed(), 0x5eedu);
  EXPECT_EQ(loaded.entity("callee:MPI_Recv"),
            ir2vec::Vocabulary(0x5eed).entity("callee:MPI_Recv"));
}

TEST(BundleTest, Ir2vecRoundTripReproducesEngineVerdictsExactly) {
  TempDir tmp;
  const auto ds = small_mbi();
  auto& registry = core::DetectorRegistry::global();

  auto det = registry.create("ir2vec", tiny_config());
  core::EvalEngine engine(2);
  engine.fit_full(*det, ds);
  const auto before = engine.sweep(*det, ds);

  const std::string path = tmp.file("ir2vec.mpib");
  registry.save_bundle("ir2vec", *det, path);

  // A fresh engine + cache: the loaded model must re-encode and still
  // produce the exact same verdicts the in-process model did.
  auto loaded = registry.load_bundle(path);
  core::EvalEngine engine2(2);
  const auto after = engine2.sweep(*loaded, ds);
  expect_identical_verdicts(before.verdicts, after.verdicts);
  EXPECT_EQ(before.confusion.to_string(), after.confusion.to_string());
}

TEST(BundleTest, Ir2vecMulticlassStatePersists) {
  TempDir tmp;
  const auto ds = small_mbi(0.08);
  auto& registry = core::DetectorRegistry::global();
  auto det = registry.create("ir2vec", tiny_config());

  // Multiclass fit: labels are per-label class indices, not binary.
  core::EvalEngine engine(2);
  std::vector<std::size_t> idx(ds.size());
  std::vector<std::size_t> y(ds.size());
  std::vector<std::string> names;
  for (std::size_t i = 0; i < ds.size(); ++i) {
    idx[i] = i;
    const std::string label = ds.cases[i].label_name();
    auto it = std::find(names.begin(), names.end(), label);
    if (it == names.end()) {
      names.push_back(label);
      it = names.end() - 1;
    }
    y[i] = static_cast<std::size_t>(it - names.begin());
  }
  det->prepare(ds);
  det->fit(ds, idx, y, core::FitSpec{std::nullopt, 0, true});

  const std::string path = tmp.file("mc.mpib");
  registry.save_bundle("ir2vec", *det, path);
  auto loaded = registry.load_bundle(path);
  loaded->prepare(ds);
  for (std::size_t i = 0; i < ds.size(); ++i) {
    const auto a = det->evaluate(ds, i);
    const auto b = loaded->evaluate(ds, i);
    EXPECT_EQ(a.outcome, b.outcome);
    ASSERT_TRUE(b.predicted_label.has_value());  // multiclass survived
    EXPECT_EQ(a.predicted_label, b.predicted_label);
  }
}

TEST(BundleTest, GnnRoundTripReproducesEngineVerdictsExactly) {
  TempDir tmp;
  const auto ds = small_mbi(0.02);
  auto& registry = core::DetectorRegistry::global();

  auto det = registry.create("gnn", tiny_config());
  core::EvalEngine engine(2);
  engine.fit_full(*det, ds);
  const auto before = engine.sweep(*det, ds);

  const std::string path = tmp.file("gnn.mpib");
  registry.save_bundle("gnn", *det, path);

  auto loaded = registry.load_bundle(path);
  core::EvalEngine engine2(2);
  const auto after = engine2.sweep(*loaded, ds);
  expect_identical_verdicts(before.verdicts, after.verdicts);
}

TEST(BundleTest, GnnBundleWithNonFiniteWeightRejected) {
  TempDir tmp;
  const auto ds = small_mbi(0.02);
  auto& registry = core::DetectorRegistry::global();
  auto det = registry.create("gnn", tiny_config());
  core::EvalEngine(2).fit_full(*det, ds);
  const std::string path = tmp.file("gnn.mpib");
  registry.save_bundle("gnn", *det, path);

  // A GNN bundle ends with its last weight tensor, so the final eight
  // bytes are one weight (little-endian IEEE-754). Make it a NaN.
  {
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)), {});
    const double nan = std::numeric_limits<double>::quiet_NaN();
    std::uint64_t bits = 0;
    std::memcpy(&bits, &nan, sizeof(bits));
    for (std::size_t b = 0; b < 8; ++b) {
      bytes[bytes.size() - 8 + b] = static_cast<char>((bits >> (8 * b)) & 0xff);
    }
    std::ofstream out(tmp.file("nan.mpib"), std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  try {
    registry.load_bundle(tmp.file("nan.mpib"));
    FAIL() << "expected FormatError";
  } catch (const io::FormatError& e) {
    EXPECT_NE(std::string(e.what()).find("non-finite"), std::string::npos)
        << e.what();
  }
}

TEST(BundleTest, StatelessToolBundleRoundTrips) {
  TempDir tmp;
  const auto ds = small_mbi(0.03);
  auto& registry = core::DetectorRegistry::global();
  auto det = registry.create("parcoach");

  const std::string path = tmp.file("parcoach.mpib");
  registry.save_bundle("parcoach", *det, path);
  auto loaded = registry.load_bundle(path);
  EXPECT_EQ(loaded->name(), det->name());
  for (std::size_t i = 0; i < ds.size(); ++i) {
    EXPECT_EQ(loaded->evaluate(ds, i).outcome, det->evaluate(ds, i).outcome);
  }
}

TEST(BundleTest, UnfittedDetectorRefusesToSave) {
  TempDir tmp;
  auto& registry = core::DetectorRegistry::global();
  const auto det = registry.create("ir2vec");
  EXPECT_THROW(
      registry.save_bundle("ir2vec", *det, tmp.file("unfitted.mpib")),
      ContractViolation);
  const auto gnn = registry.create("gnn");
  EXPECT_THROW(registry.save_bundle("gnn", *gnn, tmp.file("unfitted2.mpib")),
               ContractViolation);
  // The aborted writes must not leave partial .mpib/.tmp files behind.
  EXPECT_TRUE(fs::is_empty(tmp.path));
}

TEST(BundleTest, CorruptBundlesRejectedWithClearErrors) {
  TempDir tmp;
  const auto ds = small_mbi(0.03);
  auto& registry = core::DetectorRegistry::global();
  auto det = registry.create("ir2vec", tiny_config());
  core::EvalEngine engine(2);
  engine.fit_full(*det, ds);
  const std::string path = tmp.file("model.mpib");
  registry.save_bundle("ir2vec", *det, path);

  // Truncation: drop the second half of the file.
  {
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)), {});
    std::ofstream out(tmp.file("truncated.mpib"), std::ios::binary);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size() / 2));
  }
  EXPECT_THROW(registry.load_bundle(tmp.file("truncated.mpib")),
               io::FormatError);

  // Wrong magic: not a bundle at all.
  {
    std::ofstream out(tmp.file("noise.mpib"), std::ios::binary);
    out << "this is not a model bundle";
  }
  try {
    registry.load_bundle(tmp.file("noise.mpib"));
    FAIL() << "expected FormatError";
  } catch (const io::FormatError& e) {
    EXPECT_NE(std::string(e.what()).find("not a mpidetect model bundle"),
              std::string::npos)
        << e.what();
  }

  // Future format version.
  {
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)), {});
    bytes[4] = 0x7f;  // bump the bundle version little-endian low byte
    std::ofstream out(tmp.file("future.mpib"), std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  try {
    registry.load_bundle(tmp.file("future.mpib"));
    FAIL() << "expected FormatError";
  } catch (const io::FormatError& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported"), std::string::npos)
        << e.what();
  }

  // Trailing garbage after a valid payload.
  {
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)), {});
    std::ofstream out(tmp.file("trailing.mpib"), std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out << "garbage";
  }
  EXPECT_THROW(registry.load_bundle(tmp.file("trailing.mpib")),
               io::FormatError);

  // Missing file.
  EXPECT_THROW(registry.load_bundle(tmp.file("missing.mpib")),
               io::FormatError);
}

TEST(EncodingSpillTest, SecondCacheServesFromDisk) {
  TempDir tmp;
  const auto ds = small_mbi(0.04);
  const auto opt = passes::OptLevel::Os;
  const auto norm = ir2vec::Normalization::Vector;

  core::EncodingCache first;
  first.set_spill_dir(tmp.path.string());
  const core::FeatureSet& computed = first.features(ds, opt, norm, 1);
  EXPECT_EQ(first.disk_hits(), 0u);
  EXPECT_EQ(first.disk_writes(), 1u);

  // A brand-new cache (a new process, conceptually) must not re-embed.
  core::EncodingCache second;
  second.set_spill_dir(tmp.path.string());
  const core::FeatureSet& loaded = second.features(ds, opt, norm, 1);
  EXPECT_EQ(second.disk_hits(), 1u);
  EXPECT_EQ(second.disk_writes(), 0u);
  EXPECT_EQ(loaded.X, computed.X);
  EXPECT_EQ(loaded.y_binary, computed.y_binary);
  EXPECT_EQ(loaded.y_label, computed.y_label);
  EXPECT_EQ(loaded.label_names, computed.label_names);
  EXPECT_EQ(loaded.case_names, computed.case_names);

  // Graphs spill independently.
  const core::GraphSet& g1 = first.graphs(ds, passes::OptLevel::O0);
  core::EncodingCache third;
  third.set_spill_dir(tmp.path.string());
  const core::GraphSet& g2 = third.graphs(ds, passes::OptLevel::O0);
  EXPECT_EQ(third.disk_hits(), 1u);
  ASSERT_EQ(g1.size(), g2.size());
  for (std::size_t i = 0; i < g1.size(); ++i) {
    EXPECT_EQ(g1.graphs[i].num_nodes(), g2.graphs[i].num_nodes());
    EXPECT_EQ(g1.graphs[i].num_edges(), g2.graphs[i].num_edges());
  }
}

TEST(EncodingSpillTest, CorruptSpillFileRecomputedNotTrusted) {
  TempDir tmp;
  const auto ds = small_mbi(0.03);
  const auto opt = passes::OptLevel::Os;
  const auto norm = ir2vec::Normalization::Vector;

  core::EncodingCache first;
  first.set_spill_dir(tmp.path.string());
  const auto X = first.features(ds, opt, norm, 1).X;

  // Corrupt every spill file in place.
  for (const auto& entry : fs::directory_iterator(tmp.path)) {
    std::ofstream out(entry.path(), std::ios::binary | std::ios::trunc);
    out << "junk";
  }
  core::EncodingCache second;
  second.set_spill_dir(tmp.path.string());
  const core::FeatureSet& recomputed = second.features(ds, opt, norm, 1);
  EXPECT_EQ(second.disk_hits(), 0u);   // the junk was not served
  EXPECT_EQ(second.disk_writes(), 1u); // and was overwritten
  EXPECT_EQ(recomputed.X, X);
}

TEST(EncodingSpillTest, ProgramContentChangesTheKey) {
  // corr with vs without the mpitest.h preamble: identical dataset name,
  // case names and labels — only the program BODIES differ. Serving one
  // encoding for the other would be silently wrong verdicts, so the
  // fingerprint must separate them, in memory and on disk.
  TempDir tmp;
  datasets::CorrConfig stripped;
  stripped.scale = 0.2;
  datasets::CorrConfig with_header = stripped;
  with_header.strip_header = false;
  const auto a = datasets::generate_corrbench(stripped);
  const auto b = datasets::generate_corrbench(with_header);
  const auto opt = passes::OptLevel::Os;
  const auto norm = ir2vec::Normalization::Vector;

  core::EncodingCache first;
  first.set_spill_dir(tmp.path.string());
  first.features(a, opt, norm, 1);

  core::EncodingCache second;
  second.set_spill_dir(tmp.path.string());
  second.features(b, opt, norm, 1);
  EXPECT_EQ(second.disk_hits(), 0u);    // a's spill file was NOT served
  EXPECT_EQ(second.disk_writes(), 1u);  // b embedded and spilled itself

  core::EncodingCache third;
  third.features(a, opt, norm, 1);
  third.features(b, opt, norm, 1);
  EXPECT_EQ(third.feature_set_count(), 2u);  // distinct in-memory slots
}

TEST(EncodingSpillTest, DifferentConfigurationsDoNotCollide) {
  TempDir tmp;
  const auto ds = small_mbi(0.03);

  core::EncodingCache cache;
  cache.set_spill_dir(tmp.path.string());
  cache.features(ds, passes::OptLevel::Os, ir2vec::Normalization::Vector, 1);
  cache.features(ds, passes::OptLevel::O0, ir2vec::Normalization::Vector, 1);
  cache.features(ds, passes::OptLevel::Os, ir2vec::Normalization::None, 1);
  cache.features(ds, passes::OptLevel::Os, ir2vec::Normalization::Vector, 2);
  EXPECT_EQ(cache.disk_writes(), 4u);  // four distinct spill files
  EXPECT_EQ(cache.feature_set_count(), 4u);
}

}  // namespace
}  // namespace mpidetect
