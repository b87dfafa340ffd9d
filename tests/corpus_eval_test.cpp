// On-disk vs resident equivalence properties: every protocol run over
// .mpcs shards on disk (cases windowed, detectors trained through
// fit_stream, folds serial) must reproduce the same protocol over the
// resident dataset BIT-IDENTICALLY — same verdict outcomes, predicted
// labels, IEEE-754-identical confidences, same confusion matrices,
// per-label and outcome tallies. Residency is a memory trade, never a
// results change.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/detector.hpp"
#include "core/eval_engine.hpp"
#include "corpus/corpus.hpp"
#include "datasets/spec.hpp"
#include "ir2vec/normalize.hpp"
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
           (std::string("mpidetect_ceval_") + info->name());
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

/// Shards `ds` with a small per-shard cap so streamed runs cross shard
/// boundaries, and returns a validated reader over it.
std::unique_ptr<corpus::CorpusReader> shard(const fs::path& dir,
                                            const datasets::Dataset& ds) {
  corpus::WriterOptions opts;
  opts.max_cases_per_shard = 16;
  corpus::CorpusWriter w(dir, opts);
  for (const auto& c : ds.cases) w.add(c);
  const auto stats = w.finish();
  EXPECT_GT(stats.shards, 1u);
  return std::make_unique<corpus::CorpusReader>(dir);
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

void expect_identical_reports(const core::EvalReport& a,
                              const core::EvalReport& b,
                              const char* what) {
  EXPECT_EQ(a.confusion.tp, b.confusion.tp) << what;
  EXPECT_EQ(a.confusion.tn, b.confusion.tn) << what;
  EXPECT_EQ(a.confusion.fp, b.confusion.fp) << what;
  EXPECT_EQ(a.confusion.fn, b.confusion.fn) << what;
  EXPECT_EQ(a.confusion.ce, b.confusion.ce) << what;
  EXPECT_EQ(a.confusion.to, b.confusion.to) << what;
  EXPECT_EQ(a.confusion.re, b.confusion.re) << what;
  EXPECT_EQ(a.per_label, b.per_label) << what;
  EXPECT_EQ(a.outcome_counts, b.outcome_counts) << what;
  ASSERT_EQ(a.verdicts.size(), b.verdicts.size()) << what;
  for (std::size_t i = 0; i < a.verdicts.size(); ++i) {
    EXPECT_EQ(a.verdicts[i].outcome, b.verdicts[i].outcome)
        << what << " case " << i;
    EXPECT_EQ(a.verdicts[i].predicted_label, b.verdicts[i].predicted_label)
        << what << " case " << i;
    // Bit-identical, not approximately equal: streaming must not change
    // a single float anywhere in the pipeline.
    EXPECT_EQ(a.verdicts[i].confidence, b.verdicts[i].confidence)
        << what << " case " << i;
  }
}

// ---- sweep ------------------------------------------------------------------

TEST(CorpusEval, OnDiskSweepMatchesInMemory) {
  TempDir tmp;
  const auto ds = datasets::make_dataset("mbi:0.05@17");
  const auto reader = shard(tmp.path / "c", ds);
  // Tiny window to force many refill cycles.
  core::StreamOptions sopts;
  sopts.window = 5;

  auto& registry = core::DetectorRegistry::global();
  for (const char* key : {"parcoach", "mpi-checker", "itac", "ir2vec", "gnn"}) {
    core::EvalEngine mem_engine(2), disk_engine(2);
    auto det = registry.create(key, tiny_config());
    mem_engine.fit_full(*det, ds);  // no-op for the expert tools
    const auto in_memory = mem_engine.sweep(*det, ds);
    const auto on_disk = disk_engine.sweep(*det, *reader, sopts);
    expect_identical_reports(in_memory, on_disk, key);
  }
}

// ---- k-fold -----------------------------------------------------------------

void check_kfold_equivalence(const char* key, int folds) {
  TempDir tmp;
  const auto ds = datasets::make_dataset("mbi:0.05@23");
  const auto reader = shard(tmp.path / "c", ds);

  auto& registry = core::DetectorRegistry::global();
  core::EvalOptions opts = registry.create(key, tiny_config())->eval_defaults();
  opts.folds = folds;

  core::EvalEngine mem_engine(2);
  auto mem_det = registry.create(key, tiny_config());
  const auto in_memory = mem_engine.kfold(*mem_det, ds, opts);

  core::StreamOptions sopts;
  sopts.window = 7;
  core::EvalEngine disk_engine(2);
  auto disk_det = registry.create(key, tiny_config());
  const auto on_disk = disk_engine.kfold(*disk_det, *reader, opts, sopts);

  expect_identical_reports(in_memory, on_disk, key);
}

TEST(CorpusEval, OnDiskKfoldMatchesInMemoryIr2vec) {
  check_kfold_equivalence("ir2vec", 4);
}

TEST(CorpusEval, OnDiskKfoldMatchesInMemoryGnn) {
  check_kfold_equivalence("gnn", 3);
}

TEST(CorpusEval, OnDiskKfoldOfUntrainableDegeneratesToSweep) {
  TempDir tmp;
  const auto ds = datasets::make_dataset("mbi:0.05@29");
  const auto reader = shard(tmp.path / "c", ds);
  core::EvalEngine engine(2);
  auto det = core::DetectorRegistry::global().create("parcoach");
  const auto swept = engine.sweep(*det, *reader);
  auto report = engine.kfold(*det, *reader, det->eval_defaults());
  EXPECT_EQ(report.protocol, "kfold");
  expect_identical_reports(swept, report, "parcoach kfold degenerate");
}

// ---- cross ------------------------------------------------------------------

TEST(CorpusEval, OnDiskCrossMatchesInMemory) {
  TempDir tmp;
  const auto train = datasets::make_dataset("mbi:0.05@31");
  const auto valid = datasets::make_dataset("corr:0.05@37");
  const auto train_reader = shard(tmp.path / "train", train);
  const auto valid_reader = shard(tmp.path / "valid", valid);
  core::StreamOptions sopts;
  sopts.window = 9;

  auto& registry = core::DetectorRegistry::global();
  for (const char* key : {"ir2vec", "gnn"}) {
    core::EvalEngine mem_engine(2);
    auto mem_det = registry.create(key, tiny_config());
    const auto in_memory = mem_engine.cross(*mem_det, train, valid);

    core::EvalEngine disk_engine(2);
    auto disk_det = registry.create(key, tiny_config());
    const auto on_disk =
        disk_engine.cross(*disk_det, *train_reader, *valid_reader, sopts);
    expect_identical_reports(in_memory, on_disk, key);
  }
}

// ---- contract edges ---------------------------------------------------------

TEST(CorpusEval, FailedOnDiskSweepLeavesNoWindowEncodings) {
  TempDir tmp;
  const auto ds = datasets::make_dataset("mbi:0.02@47");
  const auto reader = shard(tmp.path / "c", ds);
  core::EvalEngine engine(2);
  // Unfitted: every verdict throws, on the pool's workers.
  auto det = core::DetectorRegistry::global().create("ir2vec", tiny_config());
  EXPECT_THROW(engine.sweep(*det, *reader), ContractViolation);
  EXPECT_EQ(engine.cache()->feature_set_count(), 0u);
}

TEST(CorpusEval, MulticlassStreamingIsRejected) {
  TempDir tmp;
  const auto ds = datasets::make_dataset("mbi:0.02@41");
  const auto reader = shard(tmp.path / "c", ds);
  core::EvalEngine engine(2);
  auto det = core::DetectorRegistry::global().create("ir2vec", tiny_config());
  core::EvalOptions opts = det->eval_defaults();
  opts.multiclass = true;
  EXPECT_THROW(engine.kfold(*det, *reader, opts), ContractViolation);
}

TEST(CorpusEval, IndexNormalizationStreamingIsRejected) {
  TempDir tmp;
  const auto ds = datasets::make_dataset("mbi:0.02@43");
  const auto reader = shard(tmp.path / "c", ds);
  core::DetectorConfig cfg = tiny_config();
  // Index normalization standardizes over the WHOLE feature matrix —
  // inherently not streamable, and it must say so instead of silently
  // training a different model.
  cfg.normalization = ir2vec::Normalization::Index;
  core::EvalEngine engine(2);
  auto det = core::DetectorRegistry::global().create("ir2vec", cfg);
  EXPECT_THROW(engine.kfold(*det, *reader, det->eval_defaults()),
               ContractViolation);
}

}  // namespace
}  // namespace mpidetect
