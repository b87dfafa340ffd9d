#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <numeric>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/detector.hpp"
#include "core/eval_engine.hpp"
#include "datasets/corrbench.hpp"
#include "datasets/mbi.hpp"
#include "io/model_io.hpp"
#include "io/serialize.hpp"
#include "ir2vec/vocabulary.hpp"
#include "ml/kfold.hpp"

namespace mpidetect::core {
namespace {

datasets::Dataset small_mbi() {
  datasets::MbiConfig cfg;
  cfg.scale = 0.08;
  return datasets::generate_mbi(cfg);
}

datasets::Dataset small_corr() {
  datasets::CorrConfig cfg;
  cfg.scale = 0.35;
  return datasets::generate_corrbench(cfg);
}

DetectorConfig fast_config() {
  DetectorConfig cfg;
  cfg.ir2vec.use_ga = false;
  cfg.ir2vec.folds = 4;
  cfg.gnn.folds = 2;
  cfg.gnn.cfg.epochs = 2;
  cfg.gnn.cfg.embed_dim = 8;
  cfg.gnn.cfg.layers = {16, 8};
  cfg.gnn.cfg.fc_hidden = 8;
  return cfg;
}

void expect_equal(const ml::Confusion& a, const ml::Confusion& b) {
  EXPECT_EQ(a.tp, b.tp);
  EXPECT_EQ(a.tn, b.tn);
  EXPECT_EQ(a.fp, b.fp);
  EXPECT_EQ(a.fn, b.fn);
  EXPECT_EQ(a.ce, b.ce);
  EXPECT_EQ(a.to, b.to);
  EXPECT_EQ(a.re, b.re);
}

TEST(Registry, ContainsAllBuiltinDetectors) {
  auto& reg = DetectorRegistry::global();
  for (const char* name :
       {"itac", "must", "parcoach", "mpi-checker", "ir2vec", "gnn",
        "itac-sweep", "must-sweep"}) {
    EXPECT_TRUE(reg.contains(name)) << name;
    auto det = reg.create(name);
    ASSERT_NE(det, nullptr) << name;
    EXPECT_FALSE(det->name().empty());
  }
  EXPECT_EQ(reg.names().size(), 8u);
}

TEST(Registry, KindsAndTrainability) {
  auto& reg = DetectorRegistry::global();
  EXPECT_EQ(reg.create("itac")->kind(), DetectorKind::Dynamic);
  EXPECT_EQ(reg.create("must")->kind(), DetectorKind::Dynamic);
  EXPECT_EQ(reg.create("parcoach")->kind(), DetectorKind::Static);
  EXPECT_EQ(reg.create("mpi-checker")->kind(), DetectorKind::Static);
  EXPECT_EQ(reg.create("ir2vec")->kind(), DetectorKind::Learned);
  EXPECT_EQ(reg.create("gnn")->kind(), DetectorKind::Learned);
  EXPECT_FALSE(reg.create("itac")->trainable());
  EXPECT_TRUE(reg.create("ir2vec")->trainable());
  EXPECT_TRUE(reg.create("gnn")->trainable());
}

TEST(Registry, ToolNamesMatchPaper) {
  auto& reg = DetectorRegistry::global();
  EXPECT_EQ(reg.create("itac")->name(), "ITAC");
  EXPECT_EQ(reg.create("must")->name(), "MUST");
  EXPECT_EQ(reg.create("parcoach")->name(), "PARCOACH");
  EXPECT_EQ(reg.create("mpi-checker")->name(), "MPI-Checker");
}

TEST(Registry, UnknownNameThrows) {
  EXPECT_THROW(DetectorRegistry::global().create("no-such-detector"),
               ContractViolation);
}

TEST(Registry, DuplicateRegistrationThrows) {
  DetectorRegistry reg;  // fresh instance, built-ins pre-registered
  EXPECT_THROW(reg.add("itac", [](const DetectorConfig&) {
    return DetectorRegistry::global().create("itac");
  }),
               ContractViolation);
}

TEST(Verdict, OutcomeIsTheDiagnosticVocabulary) {
  static_assert(std::is_same_v<Verdict::Outcome, verify::Diagnostic>);
  Verdict v;
  EXPECT_EQ(v.outcome, verify::Diagnostic::Correct);
  EXPECT_TRUE(v.conclusive());
  EXPECT_FALSE(v.flagged());
  v.outcome = verify::Diagnostic::Incorrect;
  EXPECT_TRUE(v.conclusive());
  EXPECT_TRUE(v.flagged());
  for (const auto o : {verify::Diagnostic::Timeout,
                       verify::Diagnostic::RuntimeErr,
                       verify::Diagnostic::CompileErr}) {
    v.outcome = o;
    EXPECT_FALSE(v.conclusive());
    EXPECT_FALSE(v.flagged());
  }
}

// One name per outcome, in value order: the values are wire bytes and
// EvalReport::outcome_counts indices.
TEST(Verdict, OutcomeNamesFollowValueOrder) {
  const std::pair<Verdict::Outcome, std::string_view> names[] = {
      {Verdict::Outcome::Correct, "correct"},
      {Verdict::Outcome::Incorrect, "incorrect"},
      {Verdict::Outcome::Timeout, "timeout"},
      {Verdict::Outcome::RuntimeErr, "runtime-error"},
      {Verdict::Outcome::CompileErr, "compile-error"},
  };
  static_assert(std::size(names) == kNumOutcomes);
  for (std::size_t i = 0; i < kNumOutcomes; ++i) {
    EXPECT_EQ(static_cast<std::size_t>(names[i].first), i);
    EXPECT_EQ(outcome_name(names[i].first), names[i].second);
  }
}

// ---------------------------------------------------------------------------
// Engine vs independent reference implementations: the tests below
// re-implement the paper's evaluation loops by hand and prove the engine
// reproduces their results exactly on a fixed-seed dataset.
// ---------------------------------------------------------------------------

TEST(EvalEngine, SweepMatchesHandRolledToolLoop) {
  const auto ds = small_mbi();
  // Reference: a serial loop over check(), accumulating the MBI-style
  // confusion exactly as the original tool-evaluation loop did.
  auto tool = verify::make_parcoach_lite();
  ml::Confusion ref;
  for (const auto& c : ds.cases) {
    switch (tool->check(c)) {
      case verify::Diagnostic::Correct: ref.add(c.incorrect, false); break;
      case verify::Diagnostic::Incorrect: ref.add(c.incorrect, true); break;
      case verify::Diagnostic::Timeout: ++ref.to; break;
      case verify::Diagnostic::RuntimeErr: ++ref.re; break;
      case verify::Diagnostic::CompileErr: ++ref.ce; break;
    }
  }
  EvalEngine engine(4);
  auto det = DetectorRegistry::global().create("parcoach");
  const auto report = engine.sweep(*det, ds);
  expect_equal(report.confusion, ref);
  EXPECT_EQ(report.cases, ds.size());
  EXPECT_EQ(report.verdicts.size(), ds.size());
  EXPECT_EQ(report.confusion.population(), ds.size());
  // The outcome tallies agree with the confusion's columns.
  EXPECT_EQ(report.outcome_counts[static_cast<std::size_t>(
                Verdict::Outcome::Incorrect)],
            report.confusion.tp + report.confusion.fp);
}

TEST(EvalEngine, KfoldMatchesHandRolledLegacyIntraLoop) {
  // Reference: the original IR2vec Intra protocol — stratified folds on
  // the binary labels, per-fold seed = base + fold, single-threaded
  // training on the fold complement, validation on the fold.
  const auto ds = small_mbi();
  const DetectorConfig cfg = fast_config();
  const auto fs = extract_features(ds, cfg.feature_opt, cfg.normalization,
                                   cfg.vocab_seed);
  const auto folds = ml::stratified_kfold(
      fs.y_binary, static_cast<std::size_t>(cfg.ir2vec.folds),
      cfg.ir2vec.seed);
  ml::Confusion ref;
  for (std::size_t f = 0; f < folds.size(); ++f) {
    const auto& val_idx = folds[f];
    std::vector<std::vector<double>> X;
    std::vector<std::size_t> y;
    for (const std::size_t i : ml::fold_complement(val_idx, fs.size())) {
      X.push_back(fs.X[i]);
      y.push_back(fs.y_binary[i]);
    }
    Ir2vecOptions o = cfg.ir2vec;
    o.seed = cfg.ir2vec.seed + f;
    o.threads = 1;
    o.ga.threads = 1;
    const TrainedIr2vec model = train_ir2vec(X, y, o);
    for (const std::size_t i : val_idx) {
      ref.add(fs.incorrect[i], model.predict(fs.X[i]) == 1);
    }
  }

  EvalEngine engine;
  auto det = DetectorRegistry::global().create("ir2vec", cfg);
  expect_equal(engine.kfold(*det, ds).confusion, ref);
}

TEST(EvalEngine, CrossMatchesHandRolledLegacyCrossLoop) {
  // Reference: the original IR2vec Cross protocol — one full-set
  // training run, then a straight prediction pass over the validation
  // embedding.
  const auto mbi = small_mbi();
  const auto corr = small_corr();
  const DetectorConfig cfg = fast_config();
  const auto fs_m = extract_features(mbi, cfg.feature_opt, cfg.normalization,
                                     cfg.vocab_seed);
  const auto fs_c = extract_features(corr, cfg.feature_opt, cfg.normalization,
                                     cfg.vocab_seed);
  const TrainedIr2vec model =
      train_ir2vec(fs_m.X, fs_m.y_binary, cfg.ir2vec);
  ml::Confusion ref;
  for (std::size_t i = 0; i < fs_c.size(); ++i) {
    ref.add(fs_c.incorrect[i], model.predict(fs_c.X[i]) == 1);
  }

  EvalEngine engine;
  auto det = DetectorRegistry::global().create("ir2vec", cfg);
  expect_equal(engine.cross(*det, mbi, corr).confusion, ref);
}

TEST(EvalEngine, CrossDistinguishesSameCasesDifferentEmbeddings) {
  // Regression: train and validation sets covering the *same* cases
  // under different embeddings (the table5 seed-study shape) must not
  // collide in the encoding cache, whose key includes the dataset name.
  const auto ds = small_mbi();
  DetectorConfig cfg = fast_config();
  cfg.cache = std::make_shared<EncodingCache>();
  const auto fs_a = extract_features(ds, cfg.feature_opt, cfg.normalization,
                                     cfg.vocab_seed);
  const auto fs_b =
      extract_features(ds, cfg.feature_opt, cfg.normalization, 0x9999);
  const TrainedIr2vec model =
      train_ir2vec(fs_a.X, fs_a.y_binary, cfg.ir2vec);
  ml::Confusion ref;
  for (std::size_t i = 0; i < fs_b.size(); ++i) {
    ref.add(fs_b.incorrect[i], model.predict(fs_b.X[i]) == 1);
  }

  const auto train = skeleton_dataset(fs_a);
  auto valid = skeleton_dataset(fs_b);
  valid.name = "features-valid";
  cfg.cache->put_features(train, cfg.feature_opt, cfg.normalization,
                          cfg.vocab_seed, fs_a);
  cfg.cache->put_features(valid, cfg.feature_opt, cfg.normalization,
                          cfg.vocab_seed, fs_b);
  EvalEngine engine(0, cfg.cache);
  auto det = DetectorRegistry::global().create("ir2vec", cfg);
  expect_equal(engine.cross(*det, train, valid).confusion, ref);
}

TEST(EvalEngine, GnnKfoldMatchesHandRolledLoop) {
  // Reference: stratified folds on the binary labels with the GNN's
  // seed, a fresh two-class model per fold seeded seed * 97 + fold,
  // trained on the fold complement and validated on the fold.
  const auto ds = small_mbi();
  const DetectorConfig cfg = fast_config();
  const auto gs = extract_graphs(ds, cfg.graph_opt);
  const auto folds = ml::stratified_kfold(
      gs.y_binary, static_cast<std::size_t>(cfg.gnn.folds), cfg.gnn.seed);
  ml::Confusion ref;
  for (std::size_t f = 0; f < folds.size(); ++f) {
    std::vector<programl::ProgramGraph> graphs;
    std::vector<std::size_t> y;
    for (const std::size_t i : ml::fold_complement(folds[f], gs.size())) {
      graphs.push_back(gs.graphs[i]);
      y.push_back(gs.y_binary[i]);
    }
    ml::GnnConfig mc = cfg.gnn.cfg;
    mc.classes = 2;
    mc.seed = cfg.gnn.seed * 97 + f;
    ml::GnnModel model(mc);
    model.fit(graphs, y);
    for (const std::size_t i : folds[f]) {
      const Verdict v = gnn_verdict(model.predict_proba(gs.graphs[i]));
      if (v.conclusive()) {
        ref.add(gs.incorrect[i], v.flagged());
      } else {
        ++ref.re;
      }
    }
  }

  EvalEngine engine;
  auto det = DetectorRegistry::global().create("gnn", cfg);
  expect_equal(engine.kfold(*det, ds).confusion, ref);
}

TEST(EvalEngine, PerLabelMatchesHandRolledMulticlassLoop) {
  // Reference: classes are the labels in first-occurrence order, folds
  // are stratified over them, and a case counts as correct when the
  // tree trained on its fold complement predicts its exact label.
  const auto ds = small_mbi();
  const DetectorConfig cfg = fast_config();
  const auto fs = extract_features(ds, cfg.feature_opt, cfg.normalization,
                                   cfg.vocab_seed);
  std::vector<std::string> names;
  std::vector<std::size_t> y;
  for (const auto& c : ds.cases) {
    const auto it = std::find(names.begin(), names.end(), c.label_name());
    y.push_back(static_cast<std::size_t>(it - names.begin()));
    if (it == names.end()) names.push_back(c.label_name());
  }
  const auto folds = ml::stratified_kfold(
      y, static_cast<std::size_t>(cfg.ir2vec.folds), cfg.ir2vec.seed);
  std::map<std::string, std::pair<std::size_t, std::size_t>> ref;
  for (std::size_t f = 0; f < folds.size(); ++f) {
    std::vector<std::vector<double>> X;
    std::vector<std::size_t> yt;
    for (const std::size_t i : ml::fold_complement(folds[f], fs.size())) {
      X.push_back(fs.X[i]);
      yt.push_back(y[i]);
    }
    Ir2vecOptions o = cfg.ir2vec;
    o.seed = cfg.ir2vec.seed + f;
    const TrainedIr2vec model = train_ir2vec(X, yt, o);
    for (const std::size_t i : folds[f]) {
      auto& [correct, total] = ref[names[y[i]]];
      ++total;
      correct += model.predict(fs.X[i]) == y[i];
    }
  }

  EvalEngine engine;
  auto det = DetectorRegistry::global().create("ir2vec", cfg);
  EvalOptions eval = det->eval_defaults();
  eval.multiclass = true;
  EXPECT_EQ(engine.kfold(*det, ds, eval).per_label, ref);
}

TEST(EvalEngine, AblationMatchesHandRolledExclusionLoop) {
  // Reference: stratified binary folds whose training rows never
  // include an excluded-label case; every excluded case is validated
  // once and counts as detected when the binary tree flags it.
  const auto ds = small_mbi();
  const DetectorConfig cfg = fast_config();
  const auto fs = extract_features(ds, cfg.feature_opt, cfg.normalization,
                                   cfg.vocab_seed);
  const auto excluded = [&](std::size_t i) {
    return ds.cases[i].label_name() == "Call Ordering";
  };
  const auto folds = ml::stratified_kfold(
      fs.y_binary, static_cast<std::size_t>(cfg.ir2vec.folds),
      cfg.ir2vec.seed);
  std::size_t detected = 0, total = 0;
  for (std::size_t f = 0; f < folds.size(); ++f) {
    std::vector<std::vector<double>> X;
    std::vector<std::size_t> y;
    for (const std::size_t i : ml::fold_complement(folds[f], fs.size())) {
      if (excluded(i)) continue;
      X.push_back(fs.X[i]);
      y.push_back(fs.y_binary[i]);
    }
    Ir2vecOptions o = cfg.ir2vec;
    o.seed = cfg.ir2vec.seed + f;
    const TrainedIr2vec model = train_ir2vec(X, y, o);
    for (const std::size_t i : folds[f]) {
      if (!excluded(i)) continue;
      ++total;
      detected += model.predict(fs.X[i]) == 1;
    }
  }
  ASSERT_GT(total, 0u);

  EvalEngine engine;
  auto det = DetectorRegistry::global().create("ir2vec", cfg);
  const auto r = engine.ablation(*det, ds, {"Call Ordering"}, std::nullopt,
                                 det->eval_defaults());
  EXPECT_EQ(r.detected, detected);
  EXPECT_EQ(r.total, total);
}

/// Same outcome and the same confidence bits for every case.
void expect_same_verdicts(const EvalReport& a, const EvalReport& b) {
  expect_equal(a.confusion, b.confusion);
  ASSERT_EQ(a.verdicts.size(), b.verdicts.size());
  for (std::size_t i = 0; i < a.verdicts.size(); ++i) {
    const Verdict& va = a.verdicts[i];
    const Verdict& vb = b.verdicts[i];
    EXPECT_EQ(va.outcome, vb.outcome) << "case " << i;
    ASSERT_EQ(va.confidence.has_value(), vb.confidence.has_value()) << i;
    if (va.confidence) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(*va.confidence),
                std::bit_cast<std::uint64_t>(*vb.confidence))
          << "case " << i;
    }
  }
}

TEST(EvalEngine, SweepIsSerialParallelInvariant) {
  const auto ds = small_mbi();
  auto det = DetectorRegistry::global().create("must");
  EvalEngine serial(1);
  EvalEngine parallel(4);
  expect_equal(serial.sweep(*det, ds).confusion,
               parallel.sweep(*det, ds).confusion);

  // The engine's pool is the only parallelism GNN training and
  // inference get (dense kernels run on their caller's thread), so its
  // width must not move a single probability bit: cross runs the cases
  // on the pool, kfold the folds.
  const auto corr = small_corr();
  auto gnn = DetectorRegistry::global().create("gnn", fast_config());
  const EvalReport cross1 = serial.cross(*gnn, ds, corr);
  const EvalReport cross4 = parallel.cross(*gnn, ds, corr);
  ASSERT_TRUE(cross1.verdicts.front().confidence.has_value());
  expect_same_verdicts(cross1, cross4);
  expect_same_verdicts(serial.kfold(*gnn, ds), parallel.kfold(*gnn, ds));
}

TEST(EvalEngine, Ir2vecKfoldSharesOneSortedTableAtAnyThreadCount) {
  // Every fold's fit, and every GA fitness fit inside it, filters the
  // feature set's one sorted-column table; the folds that arrive first
  // sort it together. The verdicts must not depend on how many folds
  // race for it, and the table must cost no cache lookup.
  const auto ds = small_mbi();
  for (const bool ga : {false, true}) {
    for (const bool multiclass : {false, true}) {
      SCOPED_TRACE(std::string(ga ? "GA" : "no GA") +
                   (multiclass ? ", multiclass" : ", binary"));
      std::vector<EvalReport> reports;
      for (const unsigned threads : {1u, 4u}) {
        DetectorConfig cfg = fast_config();
        cfg.ir2vec.use_ga = ga;
        cfg.ir2vec.ga.population = 16;
        cfg.ir2vec.ga.generations = 2;
        cfg.cache = std::make_shared<EncodingCache>();
        EvalEngine engine(threads, cfg.cache);
        auto det = DetectorRegistry::global().create("ir2vec", cfg);
        EvalOptions opts = det->eval_defaults();
        opts.multiclass = multiclass;
        const FeatureEntry& entry = cfg.cache->feature_entry(
            ds, cfg.feature_opt, cfg.normalization, cfg.vocab_seed);
        EXPECT_FALSE(entry.columns.built());  // encoding sorts nothing
        const std::size_t lookups = cfg.cache->lookups();
        reports.push_back(engine.kfold(*det, ds, opts));
        // The engine's prepare and one prepare per fold's fit.
        EXPECT_EQ(cfg.cache->lookups(),
                  lookups + 1 + static_cast<std::size_t>(opts.folds));
        EXPECT_TRUE(entry.columns.built());
        EXPECT_EQ(cfg.cache->feature_set_count(), 1u);
      }
      expect_same_verdicts(reports[0], reports[1]);
      for (std::size_t i = 0; i < reports[0].verdicts.size(); ++i) {
        EXPECT_EQ(reports[0].verdicts[i].predicted_label,
                  reports[1].verdicts[i].predicted_label)
            << "case " << i;
      }
    }
  }
}

TEST(EvalEngine, SweepOfUnfittedLearnedDetectorThrows) {
  // The throw happens on pool workers; it must reach the caller as the
  // detector's ContractViolation instead of terminating the process.
  const auto ds = small_mbi();
  EvalEngine engine(4);
  auto det = DetectorRegistry::global().create("ir2vec", fast_config());
  EXPECT_THROW(engine.sweep(*det, ds), ContractViolation);
}

TEST(Detector, BatchedRunDoesNotGrowCache) {
  const auto ds = small_mbi();
  DetectorConfig cfg = fast_config();
  cfg.cache = std::make_shared<EncodingCache>();
  auto det = DetectorRegistry::global().create("ir2vec", cfg);
  EvalEngine engine(0, cfg.cache);
  engine.fit_full(*det, ds);
  const auto base = cfg.cache->feature_set_count();
  for (int r = 0; r < 3; ++r) {
    det->run(std::span(ds.cases.data(), 2));  // ad-hoc batches, discarded
  }
  EXPECT_EQ(cfg.cache->feature_set_count(), base);
}

TEST(EvalEngine, AblationUnknownLabelThrows) {
  const auto ds = small_mbi();
  EvalEngine engine;
  auto det = DetectorRegistry::global().create("ir2vec", fast_config());
  EXPECT_THROW(engine.ablation(*det, ds, {"No Such Label"}, std::nullopt,
                               det->eval_defaults()),
               ContractViolation);
}

TEST(EvalEngine, EncodingCacheIsSharedAcrossProtocols) {
  const auto ds = small_mbi();
  EvalEngine engine;
  auto det = DetectorRegistry::global().create("ir2vec", fast_config());
  det->use_cache(engine.cache());
  engine.kfold(*det, ds);
  EXPECT_EQ(engine.cache()->feature_set_count(), 1u);
  engine.kfold(*det, ds);  // second protocol run: no re-encoding
  EXPECT_EQ(engine.cache()->feature_set_count(), 1u);
}

TEST(Detector, RunUnfittedLearnedDetectorThrows) {
  const auto ds = small_mbi();
  DetectorConfig cfg = fast_config();
  cfg.cache = std::make_shared<EncodingCache>();
  auto det = DetectorRegistry::global().create("ir2vec", cfg);
  EXPECT_THROW(det->run(std::span(ds.cases.data(), 1)), ContractViolation);
  // The throwing batch was still discarded from the shared cache.
  EXPECT_EQ(cfg.cache->feature_set_count(), 0u);
}

void expect_same(const Verdict& got, const Verdict& want) {
  EXPECT_EQ(got.outcome, want.outcome);
  EXPECT_EQ(got.predicted_label, want.predicted_label);
  EXPECT_EQ(got.confidence, want.confidence);
}

TEST(DetectorApi, PreparedDatasetsStayBound) {
  const auto a = small_mbi();
  const auto b = small_corr();
  std::vector<std::size_t> all_a(a.size());
  std::vector<std::size_t> all_b(b.size());
  std::iota(all_a.begin(), all_a.end(), std::size_t{0});
  std::iota(all_b.begin(), all_b.end(), std::size_t{0});
  auto& registry = DetectorRegistry::global();
  for (const char* key : {"ir2vec", "gnn"}) {
    SCOPED_TRACE(key);
    std::stringstream state;
    {
      auto trained = registry.create(key, fast_config());
      EvalEngine engine;
      engine.fit_full(*trained, a);
      io::Writer w(state);
      trained->save_state(w);
    }
    const auto restore = [&](std::shared_ptr<EncodingCache> cache) {
      DetectorConfig cfg = fast_config();
      cfg.cache = std::move(cache);
      auto det = registry.create(key, cfg);
      state.clear();
      state.seekg(0);
      io::Reader r(state);
      det->load_state(r);
      return det;
    };
    // References that each saw one dataset, on caches of their own.
    const auto reference = [&](const datasets::Dataset& ds,
                               std::span<const std::size_t> idx) {
      auto ref = restore(std::make_shared<EncodingCache>());
      ref->prepare(ds);
      return ref->run_indexed(ds, idx);
    };
    const auto want_a = reference(a, all_a);
    const auto want_b = reference(b, all_b);

    const auto cache = std::make_shared<EncodingCache>();
    auto det = restore(cache);
    det->prepare(a);
    det->prepare(b);
    const std::size_t lookups = cache->lookups();
    for (std::size_t i = 0; i < std::max(a.size(), b.size()); ++i) {
      if (i < a.size()) expect_same(det->evaluate(a, i), want_a[i]);
      if (i < b.size()) {
        const std::size_t one[] = {i};
        expect_same(det->run_indexed(b, one).front(), want_b[i]);
      }
    }
    EXPECT_EQ(cache->lookups(), lookups);

    // discard(a) drops a's binding only: b is still served bound, while
    // a falls back to the cache (and re-encodes) on every verdict.
    det->discard(a);
    const auto got_b = det->run_indexed(b, all_b);
    for (std::size_t i = 0; i < b.size(); ++i) expect_same(got_b[i], want_b[i]);
    EXPECT_EQ(cache->lookups(), lookups);
    expect_same(det->evaluate(a, 0), want_a[0]);
    expect_same(det->evaluate(a, 1), want_a[1]);
    EXPECT_EQ(cache->lookups(), lookups + 2);
  }
}

TEST(Detector, BatchedRunMatchesSweep) {
  const auto ds = small_mbi();
  auto det = DetectorRegistry::global().create("parcoach");
  EvalEngine engine;
  const auto report = engine.sweep(*det, ds);
  const auto verdicts = det->run(std::span(ds.cases));
  ASSERT_EQ(verdicts.size(), report.verdicts.size());
  for (std::size_t i = 0; i < verdicts.size(); ++i) {
    EXPECT_EQ(verdicts[i].outcome, report.verdicts[i].outcome) << i;
  }
}

TEST(Detector, FittedDetectorClassifiesHeldOutBatch) {
  const auto ds = small_mbi();
  auto det = DetectorRegistry::global().create("ir2vec", fast_config());
  EvalEngine engine;
  engine.fit_full(*det, ds);
  const auto verdicts = det->run(std::span(ds.cases.data(), 8));
  ASSERT_EQ(verdicts.size(), 8u);
  for (const auto& v : verdicts) EXPECT_TRUE(v.conclusive());
}

/// IR2vec detector state around `model`, in save_state()'s layout.
std::string ir2vec_state(const TrainedIr2vec& model) {
  const DetectorConfig cfg;
  std::stringstream ss;
  io::Writer w(ss);
  io::write_section(w, "IR2V", 1);
  w.u8(static_cast<std::uint8_t>(cfg.feature_opt));
  w.u8(static_cast<std::uint8_t>(cfg.normalization));
  io::save_vocabulary(w, ir2vec::Vocabulary(cfg.vocab_seed));
  w.u8(0);  // use_ga
  w.i64(cfg.ir2vec.folds);
  w.u64(cfg.ir2vec.seed);
  w.u8(0);  // multiclass
  io::save_trained_ir2vec(w, model);
  return ss.str();
}

TEST(Detector, Ir2vecLoadRejectsTreeOfWrongWidth) {
  // A tree trained on `width`-wide rows that splits on the last feature.
  const auto state_for = [](std::size_t width) {
    std::vector<std::vector<double>> X(4, std::vector<double>(width, 0.0));
    X[2][width - 1] = X[3][width - 1] = 1.0;
    TrainedIr2vec model;
    model.tree.fit(X, {0, 0, 1, 1});
    EXPECT_EQ(model.tree.nodes().front().feature, width - 1);
    return ir2vec_state(model);
  };
  const auto load = [](const std::string& bytes) {
    auto det = DetectorRegistry::global().create("ir2vec", fast_config());
    std::stringstream ss(bytes);
    io::Reader r(ss);
    det->load_state(r);
  };
  EXPECT_NO_THROW(load(state_for(512)));
  // 600 wide, splitting on feature 599: evaluate() would read past the
  // detector's 512-wide rows.
  EXPECT_THROW(load(state_for(600)), io::FormatError);
  EXPECT_THROW(load(state_for(8)), io::FormatError);
}

}  // namespace
}  // namespace mpidetect::core
