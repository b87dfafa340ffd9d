#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/detector.hpp"
#include "core/gnn_detector.hpp"
#include "core/hypre_study.hpp"
#include "core/ir2vec_detector.hpp"
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
  const auto fs = extract_features(small_mbi(), passes::OptLevel::Os,
                                   ir2vec::Normalization::Vector);
  const auto c = ir2vec_intra(fs, fast_opts());
  EXPECT_EQ(c.population(), fs.size());
  EXPECT_GT(c.accuracy(), 0.7);
}

TEST(Ir2vecDetector, CrossRunsBothDirections) {
  const auto fs_m = extract_features(small_mbi(), passes::OptLevel::Os,
                                     ir2vec::Normalization::Vector);
  const auto fs_c = extract_features(small_corr(), passes::OptLevel::Os,
                                     ir2vec::Normalization::Vector);
  const auto m2c = ir2vec_cross(fs_m, fs_c, fast_opts());
  const auto c2m = ir2vec_cross(fs_c, fs_m, fast_opts());
  EXPECT_EQ(m2c.population(), fs_c.size());
  EXPECT_EQ(c2m.population(), fs_m.size());
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
  const auto fs = extract_features(small_mbi(), passes::OptLevel::Os,
                                   ir2vec::Normalization::Vector);
  const auto per_label = ir2vec_per_label(fs, fast_opts());
  EXPECT_EQ(per_label.size(), fs.label_names.size());
  std::size_t total = 0;
  for (const auto& [name, counts] : per_label) {
    (void)name;
    total += counts.second;
  }
  EXPECT_EQ(total, fs.size());
}

TEST(Ir2vecDetector, AblationExcludesLabelFromTraining) {
  const auto fs = extract_features(small_mbi(), passes::OptLevel::Os,
                                   ir2vec::Normalization::Vector);
  const auto [detected, total] =
      ir2vec_ablation(fs, {"Call Ordering"}, fast_opts());
  // Every Call Ordering sample is evaluated exactly once across folds.
  std::size_t expected = 0;
  for (std::size_t i = 0; i < fs.size(); ++i) {
    expected += (fs.label_names[fs.y_label[i]] == "Call Ordering");
  }
  EXPECT_EQ(total, expected);
  EXPECT_LE(detected, total);
}

TEST(Ir2vecDetector, AblationUnknownLabelThrows) {
  const auto fs = extract_features(small_mbi(), passes::OptLevel::Os,
                                   ir2vec::Normalization::Vector);
  EXPECT_THROW(ir2vec_ablation(fs, {"No Such Label"}, fast_opts()),
               ContractViolation);
}

TEST(GnnDetector, IntraRunsAndBeatsChance) {
  const auto gs = extract_graphs(small_mbi());
  GnnOptions o;
  o.folds = 3;
  o.cfg.epochs = 6;
  o.cfg.embed_dim = 16;
  o.cfg.layers = {32, 16};
  o.cfg.fc_hidden = 16;
  o.cfg.lr = 2e-3;
  const auto c = gnn_intra(gs, o);
  EXPECT_EQ(c.population(), gs.size());
  EXPECT_GT(c.accuracy(), 0.55);
}

TEST(GnnDetector, CrossRuns) {
  const auto gs_m = extract_graphs(small_mbi());
  const auto gs_c = extract_graphs(small_corr());
  GnnOptions o;
  o.cfg.epochs = 3;
  o.cfg.embed_dim = 16;
  o.cfg.layers = {32, 16};
  o.cfg.fc_hidden = 16;
  const auto c = gnn_cross(gs_m, gs_c, o);
  EXPECT_EQ(c.population(), gs_c.size());
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

}  // namespace
}  // namespace mpidetect::core
