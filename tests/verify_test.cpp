#include <gtest/gtest.h>

#include "core/detector.hpp"
#include "core/eval_engine.hpp"
#include "datasets/corrbench.hpp"
#include "datasets/mbi.hpp"
#include "datasets/spec.hpp"
#include "mpisim/sweep.hpp"
#include "progmodel/lower.hpp"
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

// Rank 0's wildcard receive decides between an out-of-bounds store
// (the rank crashes) and an endless loop (the step budget runs out):
// round-robin delivers rank 1's message first, and Random schedules
// sometimes deliver rank 2's. Ranks 1 and 2 skip MPI_Finalize, so the
// crash ends the run instead of leaving them blocked in a deadlock.
datasets::Case crash_or_spin_case() {
  using progmodel::Arg;
  using progmodel::Expr;
  using progmodel::Stmt;
  constexpr std::int64_t kInt = static_cast<std::int64_t>(mpi::Datatype::Int);
  datasets::Case c;
  c.name = "wildcard_crash_or_spin";
  c.incorrect = true;
  progmodel::Program& p = c.program;
  p.nprocs = 3;
  auto& b = p.main_body;
  b.push_back(Stmt::decl_int("rank"));
  b.push_back(Stmt::decl_int("x", Expr::lit(0)));
  b.push_back(Stmt::decl_int("y", Expr::lit(0)));
  b.push_back(Stmt::decl_int("i"));
  b.push_back(Stmt::decl_buf("buf", ir::Type::I32, Expr::lit(4)));
  b.push_back(Stmt::mpi(mpi::Func::Init, {}));
  b.push_back(Stmt::mpi(mpi::Func::CommRank,
                        {Arg::val(mpi::kCommWorld), Arg::addr("rank")}));
  std::vector<Stmt> crash{
      Stmt::buf_store("buf", Expr::lit(1 << 24), Expr::lit(7))};
  std::vector<Stmt> spin{Stmt::for_(
      "i", Expr::lit(0), Expr::lit(1'000'000'000),
      {Stmt::assign("y", Expr::add(Expr::ref("y"), Expr::lit(1)))})};
  std::vector<Stmt> receiver{
      Stmt::mpi(mpi::Func::Recv,
                {Arg::addr("x"), Arg::val(1), Arg::val(kInt),
                 Arg::val(mpi::kAnySource), Arg::val(0),
                 Arg::val(mpi::kCommWorld), Arg::null()}),
      Stmt::if_(Expr::eq(Expr::ref("x"), Expr::lit(1)), std::move(crash),
                std::move(spin))};
  std::vector<Stmt> senders{
      Stmt::assign("x", Expr::ref("rank")),
      Stmt::mpi(mpi::Func::Send,
                {Arg::addr("x"), Arg::val(1), Arg::val(kInt), Arg::val(0),
                 Arg::val(0), Arg::val(mpi::kCommWorld)})};
  b.push_back(Stmt::if_(Expr::eq(Expr::ref("rank"), Expr::lit(0)),
                        std::move(receiver), std::move(senders)));
  return c;
}

// A runtime error under any schedule outranks a timeout under another,
// whichever comes first in the sweep.
TEST(DynamicChecker, CrashUnderOneScheduleOutranksTimeoutUnderAnother) {
  const datasets::Case c = crash_or_spin_case();
  constexpr int kSchedules = 8;
  for (const std::uint64_t budget : {3'000ULL, 100'000ULL}) {
    mpisim::MachineConfig cfg;
    cfg.nprocs = c.program.nprocs;
    cfg.max_steps = budget;
    const mpisim::ScheduleSweepReport sweep = mpisim::sweep_schedules(
        *progmodel::lower(c.program), cfg, {kSchedules, 1});
    EXPECT_EQ(sweep.reports.front().outcome, mpisim::Outcome::Crashed);
    EXPECT_GT(sweep.count(mpisim::Outcome::Timeout), 0) << sweep.summary();
  }
  EXPECT_EQ(make_itac_lite(kSchedules, 1)->check(c), Diagnostic::RuntimeErr);
  EXPECT_EQ(make_must_lite(kSchedules, 1)->check(c), Diagnostic::RuntimeErr);
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
