#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <limits>
#include <set>
#include <sstream>

#include "core/detector.hpp"
#include "core/eval_engine.hpp"
#include "core/gnn_detector.hpp"
#include "core/hypre_study.hpp"
#include "core/ir2vec_detector.hpp"
#include "core/perf_bench.hpp"
#include "datasets/corrbench.hpp"
#include "datasets/mbi.hpp"

namespace mpidetect::core {
namespace {

datasets::Dataset small_mbi() {
  datasets::MbiConfig cfg;
  // Large enough that the learned detectors clear their accuracy bars
  // with margin under any suite seed (k-fold on much smaller samples is
  // dominated by draw noise).
  cfg.scale = 0.15;
  return datasets::generate_mbi(cfg);
}

datasets::Dataset small_corr() {
  datasets::CorrConfig cfg;
  cfg.scale = 0.35;
  return datasets::generate_corrbench(cfg);
}

Ir2vecOptions fast_opts() {
  Ir2vecOptions o;
  o.use_ga = false;
  o.folds = 5;
  return o;
}

std::unique_ptr<Detector> fast_ir2vec() {
  DetectorConfig cfg;
  cfg.ir2vec = fast_opts();
  return DetectorRegistry::global().create("ir2vec", cfg);
}

std::unique_ptr<Detector> small_gnn(const GnnOptions& o) {
  DetectorConfig cfg;
  cfg.gnn = o;
  return DetectorRegistry::global().create("gnn", cfg);
}

TEST(Features, ShapesAndLabels) {
  const auto ds = small_mbi();
  const auto fs = extract_features(ds, passes::OptLevel::Os,
                                   ir2vec::Normalization::Vector);
  EXPECT_EQ(fs.size(), ds.size());
  EXPECT_EQ(fs.X.front().size(), 512u);
  EXPECT_EQ(fs.label_names.size(), 10u);  // Correct + 9 error classes
  for (std::size_t i = 0; i < fs.size(); ++i) {
    EXPECT_EQ(fs.y_binary[i], fs.incorrect[i] ? 1u : 0u);
    EXPECT_LT(fs.y_label[i], fs.label_names.size());
  }
}

TEST(Features, VectorNormalizationBoundsRows) {
  const auto fs = extract_features(small_mbi(), passes::OptLevel::Os,
                                   ir2vec::Normalization::Vector);
  for (const auto& row : fs.X) {
    for (const double x : row) {
      EXPECT_LE(std::abs(x), 1.0 + 1e-9);
    }
  }
}

TEST(Features, DeterministicAcrossThreadCounts) {
  const auto ds = small_mbi();
  const auto a = extract_features(ds, passes::OptLevel::O0,
                                  ir2vec::Normalization::None, 99, 1);
  const auto b = extract_features(ds, passes::OptLevel::O0,
                                  ir2vec::Normalization::None, 99, 8);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a.X[i], b.X[i]);
}

TEST(Features, OptLevelChangesFeatures) {
  const auto ds = small_mbi();
  const auto o0 = extract_features(ds, passes::OptLevel::O0,
                                   ir2vec::Normalization::None);
  const auto os = extract_features(ds, passes::OptLevel::Os,
                                   ir2vec::Normalization::None);
  std::size_t differing = 0;
  for (std::size_t i = 0; i < o0.size(); ++i) {
    differing += (o0.X[i] != os.X[i]);
  }
  EXPECT_GT(differing, o0.size() / 2);
}

TEST(Features, GraphExtraction) {
  const auto ds = small_mbi();
  const auto gs = extract_graphs(ds);
  EXPECT_EQ(gs.size(), ds.size());
  for (const auto& g : gs.graphs) EXPECT_GT(g.num_nodes(), 0u);
}

TEST(Ir2vecDetector, IntraBeatsChance) {
  const auto ds = small_mbi();
  EvalEngine engine;
  const auto c = engine.kfold(*fast_ir2vec(), ds).confusion;
  EXPECT_EQ(c.population(), ds.size());
  EXPECT_GT(c.accuracy(), 0.7);
}

TEST(Ir2vecDetector, CrossRunsBothDirections) {
  const auto mbi = small_mbi();
  const auto corr = small_corr();
  EvalEngine engine;
  const auto m2c = engine.cross(*fast_ir2vec(), mbi, corr).confusion;
  const auto c2m = engine.cross(*fast_ir2vec(), corr, mbi).confusion;
  EXPECT_EQ(m2c.population(), corr.size());
  EXPECT_EQ(c2m.population(), mbi.size());
  EXPECT_GT(m2c.accuracy(), 0.5);
}

TEST(Ir2vecDetector, GaSelectsSmallSubset) {
  const auto fs = extract_features(small_mbi(), passes::OptLevel::Os,
                                   ir2vec::Normalization::Vector);
  Ir2vecOptions o = fast_opts();
  o.use_ga = true;
  o.ga.population = 40;
  o.ga.generations = 3;
  o.ga.threads = 2;
  const auto model = train_ir2vec(fs.X, fs.y_binary, o);
  EXPECT_FALSE(model.selected_features.empty());
  EXPECT_LE(model.selected_features.size(), o.ga.genes);
  for (const auto f : model.selected_features) EXPECT_LT(f, 512u);
}

TEST(Ir2vecDetector, PerLabelCoversEveryLabel) {
  const auto ds = small_mbi();
  std::set<std::string> labels;
  for (const auto& c : ds.cases) labels.insert(c.label_name());
  EvalEngine engine;
  auto det = fast_ir2vec();
  EvalOptions opts = det->eval_defaults();
  opts.multiclass = true;
  const auto per_label = engine.kfold(*det, ds, opts).per_label;
  EXPECT_EQ(per_label.size(), labels.size());
  std::size_t total = 0;
  for (const auto& [name, counts] : per_label) {
    (void)name;
    total += counts.second;
  }
  EXPECT_EQ(total, ds.size());
}

TEST(Ir2vecDetector, AblationExcludesLabelFromTraining) {
  const auto ds = small_mbi();
  EvalEngine engine;
  auto det = fast_ir2vec();
  const auto r = engine.ablation(*det, ds, {"Call Ordering"}, std::nullopt,
                                 det->eval_defaults());
  // Every Call Ordering sample is evaluated exactly once across folds.
  std::size_t expected = 0;
  for (const auto& c : ds.cases) expected += (c.label_name() == "Call Ordering");
  EXPECT_EQ(r.total, expected);
  EXPECT_LE(r.detected, r.total);
}

TEST(Ir2vecDetector, AblationUnknownLabelThrows) {
  const auto ds = small_mbi();
  EvalEngine engine;
  auto det = fast_ir2vec();
  EXPECT_THROW(engine.ablation(*det, ds, {"No Such Label"}, std::nullopt,
                               det->eval_defaults()),
               ContractViolation);
}

TEST(GnnDetector, IntraRunsAndBeatsChance) {
  const auto ds = small_mbi();
  GnnOptions o;
  o.folds = 3;
  o.cfg.epochs = 6;
  o.cfg.embed_dim = 16;
  o.cfg.layers = {32, 16};
  o.cfg.fc_hidden = 16;
  o.cfg.lr = 2e-3;
  EvalEngine engine;
  const auto c = engine.kfold(*small_gnn(o), ds).confusion;
  EXPECT_EQ(c.population(), ds.size());
  EXPECT_GT(c.accuracy(), 0.55);
}

TEST(GnnDetector, CrossRuns) {
  const auto mbi = small_mbi();
  const auto corr = small_corr();
  GnnOptions o;
  o.cfg.epochs = 3;
  o.cfg.embed_dim = 16;
  o.cfg.layers = {32, 16};
  o.cfg.fc_hidden = 16;
  EvalEngine engine;
  const auto c = engine.cross(*small_gnn(o), mbi, corr).confusion;
  EXPECT_EQ(c.population(), corr.size());
}

TEST(GnnVerdict, FiniteProbabilitiesPickTheArgmax) {
  const std::vector<double> incorrect{0.25, 0.75};
  const Verdict v = gnn_verdict(incorrect);
  EXPECT_EQ(v.outcome, Verdict::Outcome::Incorrect);
  EXPECT_EQ(v.confidence, 0.75);
  const std::vector<double> correct{0.75, 0.25};
  EXPECT_EQ(gnn_verdict(correct).outcome, Verdict::Outcome::Correct);
}

TEST(GnnVerdict, NaNWeightGivesRuntimeErrNotCorrect) {
  // max_element over a NaN vector returns index 0, which used to read
  // as a confident Correct verdict.
  const auto gs = extract_graphs(small_mbi());
  ml::GnnConfig cfg;
  cfg.embed_dim = 8;
  cfg.layers = {8};
  cfg.fc_hidden = 8;
  ml::GnnModel model(cfg);
  std::vector<ml::Matrix> params;
  for (const ml::Matrix* p : model.parameters()) params.push_back(*p);
  params.back().data()[0] = std::numeric_limits<double>::quiet_NaN();
  model.set_parameters(std::move(params));

  const auto proba = model.predict_proba(gs.graphs[0]);
  ASSERT_TRUE(std::isnan(proba[0]));
  const Verdict v = gnn_verdict(proba);
  EXPECT_EQ(v.outcome, Verdict::Outcome::RuntimeErr);
  EXPECT_FALSE(v.conclusive());
  EXPECT_FALSE(v.confidence.has_value());
}

TEST(HypreStudy, ProducesFourRowsOfSixCells) {
  Ir2vecOptions o = fast_opts();
  o.use_ga = true;
  o.ga.population = 30;
  o.ga.generations = 2;
  const auto res = hypre_study(small_mbi(), small_corr(), o);
  ASSERT_EQ(res.rows.size(), 4u);
  for (const auto& row : res.rows) {
    EXPECT_TRUE(row.features == "all" || row.features == "GA");
    EXPECT_TRUE(row.training == "MBI" || row.training == "MPI-CorrBench");
    EXPECT_LE(row.correct_cells(), 6u);
  }
}

TEST(PerfBench, ReportFailsOnProbabilityDriftCheckerRejects) {
  // Every argmax agrees, but a probability moved past the bound
  // scripts/check_bench_json.py enforces: the driver must fail too.
  namespace fs = std::filesystem;
  const fs::path out = fs::temp_directory_path() /
                       ("mpidetect_perf_" + std::to_string(::getpid()) +
                        ".json");
  GnnPerfReport report;
  report.dataset = "MBI";
  report.cases = 1;
  report.prediction_agreement = 1.0;
  std::ostringstream log;
  EXPECT_EQ(report_and_write(report, out.string(), log), 0) << log.str();
  report.max_abs_proba_diff = 1e-5;
  EXPECT_EQ(report_and_write(report, out.string(), log), 2) << log.str();
  EXPECT_TRUE(fs::exists(out));  // written before the verdict
  fs::remove(out);
}

}  // namespace
}  // namespace mpidetect::core
