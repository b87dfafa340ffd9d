#include <gtest/gtest.h>

#include "core/detector.hpp"
#include "core/eval_engine.hpp"
#include "datasets/corrbench.hpp"
#include "datasets/mbi.hpp"
#include "datasets/spec.hpp"
#include "support/check.hpp"
#include "verify/tool.hpp"

namespace mpidetect::verify {
namespace {

datasets::Dataset small_mbi() {
  datasets::MbiConfig cfg;
  cfg.scale = 0.08;
  return datasets::generate_mbi(cfg);
}

/// MBI-style confusion of one registry tool over `ds` (TO/RE/CE feed
/// the Errors column of Table III), on a 4-wide engine pool.
ml::Confusion sweep(const char* key, const datasets::Dataset& ds) {
  core::EvalEngine engine(4);
  auto det = core::DetectorRegistry::global().create(key);
  return engine.sweep(*det, ds).confusion;
}

TEST(Tools, NamesMatchPaper) {
  EXPECT_EQ(make_itac_lite()->name(), "ITAC");
  EXPECT_EQ(make_must_lite()->name(), "MUST");
  EXPECT_EQ(make_parcoach_lite()->name(), "PARCOACH");
  EXPECT_EQ(make_mpichecker_lite()->name(), "MPI-Checker");
}

TEST(Tools, DiagnosticNames) {
  EXPECT_EQ(core::outcome_name(Diagnostic::Correct), "correct");
  EXPECT_EQ(core::outcome_name(Diagnostic::Timeout), "timeout");
}

TEST(Tools, DynamicToolsRejectAnEmptySweep) {
  EXPECT_THROW(make_itac_lite(0), ContractViolation);
  EXPECT_THROW(make_must_lite(0, 3), ContractViolation);
  core::DetectorConfig cfg;
  cfg.dynamic_schedules = 0;
  EXPECT_THROW(core::DetectorRegistry::global().create("must-sweep", cfg),
               ContractViolation);
  // The plain keys always run one schedule.
  EXPECT_EQ(core::DetectorRegistry::global().create("must", cfg)->name(),
            "MUST");
}

TEST(Tools, EvaluateCoversWholeDataset) {
  const auto ds = small_mbi();
  const auto c = sweep("mpi-checker", ds);
  EXPECT_EQ(c.population(), ds.size());
}

TEST(ItacLite, HighPrecisionProfile) {
  // ITAC's hallmark in Table III: near-perfect precision/specificity and
  // a non-trivial number of inconclusive (TO) codes.
  const auto ds = small_mbi();
  const auto c = sweep("itac", ds);
  EXPECT_GT(c.precision(), 0.9);
  EXPECT_GT(c.specificity(), 0.9);
  EXPECT_GT(c.recall(), 0.5);
  EXPECT_GT(c.to, 0u);  // tracing budget exhausted on compute-heavy codes
  EXPECT_LT(c.conclusiveness(), 1.0);
}

TEST(MustLite, BroaderRecallThanItac) {
  const auto ds = small_mbi();
  const auto ci = sweep("itac", ds);
  const auto cm = sweep("must", ds);
  // MUST additionally reports races / RMA / ownership errors.
  EXPECT_GE(cm.tp, ci.tp);
  EXPECT_GT(cm.conclusiveness(), ci.conclusiveness());
}

TEST(ParcoachLite, LowSpecificityHighCoverageProfile) {
  // PARCOACH floods correct codes with false positives (paper: S=0.088)
  // while never failing to ingest a code (coverage = conclusiveness = 1).
  const auto ds = small_mbi();
  const auto c = sweep("parcoach", ds);
  EXPECT_DOUBLE_EQ(c.coverage(), 1.0);
  EXPECT_DOUBLE_EQ(c.conclusiveness(), 1.0);
  EXPECT_LT(c.specificity(), 0.6);
  EXPECT_GT(c.recall(), 0.5);
  EXPECT_GT(c.fp, 0u);
}

TEST(ParcoachLite, StaticToolNeverTimesOut) {
  const auto ds = small_mbi();
  const auto c = sweep("parcoach", ds);
  EXPECT_EQ(c.to, 0u);
  EXPECT_EQ(c.re, 0u);
}

TEST(MpiCheckerLite, CatchesLiteralArgErrors) {
  datasets::CorrConfig cfg;
  cfg.scale = 0.3;
  const auto ds = datasets::generate_corrbench(cfg);
  auto tool = make_mpichecker_lite();
  std::size_t argerr_total = 0, argerr_caught = 0;
  for (const auto& c : ds.cases) {
    if (c.corr_label != mpi::CorrLabel::ArgError) continue;
    ++argerr_total;
    argerr_caught += (tool->check(c) == Diagnostic::Incorrect);
  }
  ASSERT_GT(argerr_total, 0u);
  // Literal argument errors are MPI-Checker's home turf.
  EXPECT_GT(static_cast<double>(argerr_caught) / argerr_total, 0.5);
}

TEST(MpiCheckerLite, ModestOverallRecall) {
  // Cross-rank and dynamic error classes are invisible to AST checks.
  const auto ds = small_mbi();
  const auto c = sweep("mpi-checker", ds);
  EXPECT_LT(c.recall(), 0.7);
}

TEST(AllTools, CleanOnSimplestCorrectCode) {
  datasets::MbiConfig cfg;
  cfg.scale = 0.01;
  const auto ds = datasets::generate_mbi(cfg);
  for (const auto& c : ds.cases) {
    if (c.incorrect) continue;
    if (c.name.find("coll_seq") == std::string::npos) continue;
    // A straight-line collective sequence: no tool should flag it.
    EXPECT_EQ(make_itac_lite()->check(c), Diagnostic::Correct) << c.name;
    EXPECT_EQ(make_must_lite()->check(c), Diagnostic::Correct) << c.name;
    EXPECT_EQ(make_parcoach_lite()->check(c), Diagnostic::Correct) << c.name;
    EXPECT_EQ(make_mpichecker_lite()->check(c), Diagnostic::Correct)
        << c.name;
  }
}

// Frozen wall for the expert tools: the FNV-1a digest of every verdict
// of the four tools (and the swept dynamic variants) over MBI and
// CorrBench slices, recorded before the dynamic tools were merged into
// one checker. Any change to a tool's verdict on any case moves it.
TEST(FrozenDigest, ToolVerdictsMatchRecordedDigest) {
  const datasets::Dataset mbi = datasets::make_dataset("mbi:0.1");
  const datasets::Dataset corr = datasets::make_dataset("corr:0.25");
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  for (const char* key : {"itac", "must", "itac-sweep", "must-sweep",
                          "parcoach", "mpi-checker"}) {
    auto det = core::DetectorRegistry::global().create(key);
    for (const datasets::Dataset* ds : {&mbi, &corr}) {
      mix(ds->size());
      for (std::size_t i = 0; i < ds->size(); ++i) {
        const core::Verdict v = det->evaluate(*ds, i);
        mix(static_cast<std::uint64_t>(v.outcome));
        mix(v.predicted_label.has_value());
        mix(v.confidence.has_value());
      }
    }
  }
  EXPECT_EQ(h, 0xaaaa27d154398885ULL);
}

}  // namespace
}  // namespace mpidetect::verify
