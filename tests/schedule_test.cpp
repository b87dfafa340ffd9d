// Scheduler coverage: determinism of seeded schedules, the
// round-robin default, schedule sweeps, and the Timeout/Deadlock
// budget semantics of MachineConfig::max_steps.
#include <gtest/gtest.h>

#include <set>

#include "datasets/mbi.hpp"
#include "datasets/spec.hpp"
#include "mpi/api.hpp"
#include "mpisim/machine.hpp"
#include "mpisim/sweep.hpp"
#include "progmodel/ast.hpp"
#include "passes/pipelines.hpp"
#include "progmodel/lower.hpp"
#include "support/check.hpp"

namespace mpidetect::mpisim {
namespace {

using mpi::Func;
using progmodel::Arg;
using progmodel::Expr;
using progmodel::Program;
using progmodel::Stmt;
using E = Expr;
using S = Stmt;
using A = Arg;

constexpr std::int32_t kInt = static_cast<std::int32_t>(mpi::Datatype::Int);
constexpr std::int32_t kW = mpi::kCommWorld;

std::vector<Stmt> preamble() {
  std::vector<Stmt> v;
  v.push_back(S::decl_int("rank"));
  v.push_back(S::decl_int("size"));
  v.push_back(S::mpi(Func::Init, {}));
  v.push_back(S::mpi(Func::CommRank, {A::val(kW), A::addr("rank")}));
  v.push_back(S::mpi(Func::CommSize, {A::val(kW), A::addr("size")}));
  return v;
}

Stmt send_to(int dest) {
  return S::mpi(Func::Send, {A::buf("buf"), A::val(4), A::val(kInt),
                             A::val(dest), A::val(0), A::val(kW)});
}

Stmt recv_any() {
  return S::mpi(Func::Recv,
                {A::buf("buf"), A::val(4), A::val(kInt),
                 A::val(mpi::kAnySource), A::val(0), A::val(kW), A::null()});
}

/// rank 0: two wildcard receives. rank 1: sends immediately. rank 2:
/// computes `delay` filler iterations, then sends. Under round-robin
/// the first receive always matches rank 1's send before rank 2 ever
/// posts, so the program looks race free; schedules that run rank 2
/// ahead expose the wildcard race.
Program delayed_racer(int delay = 100) {
  Program p;
  p.nprocs = 3;
  p.main_body = preamble();
  p.main_body.push_back(S::decl_buf("buf", ir::Type::I32, E::lit(8)));
  std::vector<Stmt> r0{recv_any(), recv_any()};
  std::vector<Stmt> r1{send_to(0)};
  std::vector<Stmt> r2;
  r2.push_back(S::compute("buf", delay));
  r2.push_back(send_to(0));
  p.main_body.push_back(
      S::if_(E::eq(E::ref("rank"), E::lit(0)), std::move(r0),
             {S::if_(E::eq(E::ref("rank"), E::lit(1)), std::move(r1),
                     std::move(r2))}));
  p.main_body.push_back(S::mpi(Func::Finalize, {}));
  return p;
}

Program recv_recv_cycle() {
  Program p;
  p.main_body = preamble();
  p.main_body.push_back(S::decl_buf("buf", ir::Type::I32, E::lit(8)));
  std::vector<Stmt> r0{S::mpi(Func::Recv,
                              {A::buf("buf"), A::val(4), A::val(kInt),
                               A::val(1), A::val(0), A::val(kW), A::null()}),
                       send_to(1)};
  std::vector<Stmt> r1{S::mpi(Func::Recv,
                              {A::buf("buf"), A::val(4), A::val(kInt),
                               A::val(0), A::val(0), A::val(kW), A::null()}),
                       send_to(0)};
  p.main_body.push_back(S::if_(E::eq(E::ref("rank"), E::lit(0)),
                               std::move(r0), std::move(r1)));
  p.main_body.push_back(S::mpi(Func::Finalize, {}));
  return p;
}

Program infinite_loop() {
  Program p;
  p.main_body = preamble();
  p.main_body.push_back(S::decl_int("i"));
  p.main_body.push_back(
      S::for_("i", E::lit(0), E::lit(1000000000),
              {S::assign("i", E::sub(E::ref("i"), E::lit(1)))}));
  p.main_body.push_back(S::mpi(Func::Finalize, {}));
  return p;
}

// -------------------------------------------------------- determinism

TEST(Schedule, DefaultConfigIsRoundRobinWithSeedZero) {
  const auto m = progmodel::lower(delayed_racer());
  MachineConfig cfg;
  cfg.nprocs = 3;
  const RunReport a = run(*m, cfg);
  const RunReport b = run(*m, cfg);
  EXPECT_EQ(a.schedule_seed, 0u);
  EXPECT_TRUE(a == b);
}

TEST(Schedule, SameRandomSeedGivesByteIdenticalReports) {
  const auto m = progmodel::lower(delayed_racer());
  MachineConfig cfg;
  cfg.nprocs = 3;
  cfg.schedule.policy = SchedPolicy::Random;
  for (const std::uint64_t seed : {1ULL, 42ULL, 0xdeadbeefULL}) {
    cfg.schedule.seed = seed;
    const RunReport a = run(*m, cfg);
    const RunReport b = run(*m, cfg);
    EXPECT_TRUE(a == b) << "seed " << seed;
    EXPECT_EQ(a.schedule_seed, seed);
    EXPECT_EQ(a.match_digest(), b.match_digest());
  }
}

TEST(Schedule, RandomSeedZeroIsRemappedAwayFromRoundRobin) {
  const auto m = progmodel::lower(delayed_racer());
  MachineConfig cfg;
  cfg.nprocs = 3;
  cfg.schedule.policy = SchedPolicy::Random;
  cfg.schedule.seed = 0;
  EXPECT_NE(run(*m, cfg).schedule_seed, 0u);
}

// Satellite: different seeds => the wildcard-race program yields at
// least two distinct message matchings across a 16-seed sweep.
TEST(Schedule, SixteenSeedsExploreDistinctMatchings) {
  const auto m = progmodel::lower(delayed_racer());
  MachineConfig cfg;
  cfg.nprocs = 3;
  cfg.schedule.policy = SchedPolicy::Random;
  std::set<std::uint64_t> digests;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    cfg.schedule.seed = seed;
    const RunReport rep = run(*m, cfg);
    EXPECT_EQ(rep.outcome, Outcome::Completed) << rep.summary();
    digests.insert(rep.match_digest());
  }
  EXPECT_GE(digests.size(), 2u);
}

TEST(Schedule, MatchTraceRecordsEveryP2PMatch) {
  const auto m = progmodel::lower(delayed_racer());
  MachineConfig cfg;
  cfg.nprocs = 3;
  const RunReport rep = run(*m, cfg);
  // Two sends, two receives: exactly two match events, both into rank 0.
  ASSERT_EQ(rep.matches.size(), 2u);
  for (const MatchEvent& e : rep.matches) {
    EXPECT_EQ(e.recv_rank, 0);
    EXPECT_TRUE(e.src == 1 || e.src == 2);
  }
}

// ------------------------------------------------------------- sweeps

// Acceptance regression: the single deterministic schedule reports the
// delayed-racer program clean; the schedule sweep demonstrably catches
// its WildcardRace, recording the witness seed.
TEST(Schedule, SweepCatchesRaceTheRoundRobinScheduleMisses) {
  const auto m = progmodel::lower(delayed_racer());
  MachineConfig cfg;
  cfg.nprocs = 3;

  const RunReport rr = run(*m, cfg);
  EXPECT_EQ(rr.outcome, Outcome::Completed) << rr.summary();
  EXPECT_TRUE(rr.findings.empty()) << rr.summary();

  ScheduleSweepOptions opts;
  opts.schedules = 16;
  opts.seed = 7;
  const ScheduleSweepReport sweep = sweep_schedules(*m, cfg, opts);
  EXPECT_EQ(sweep.count(Outcome::Completed), 16);
  ASSERT_TRUE(sweep.has(FindingKind::MessageRace)) << sweep.summary();
  EXPECT_GT(sweep.findings.at(FindingKind::MessageRace).schedules, 0);
  // The witness is a random schedule (the round-robin one is clean).
  ASSERT_TRUE(sweep.first_witness_seed.has_value());
  EXPECT_NE(*sweep.first_witness_seed, 0u);
  EXPECT_EQ(sweep.findings.at(FindingKind::MessageRace).first_seed,
            *sweep.first_witness_seed);
  EXPECT_TRUE(sweep.witness.has(FindingKind::MessageRace));
  EXPECT_GE(sweep.distinct_matchings, 2u);
}

TEST(Schedule, SweepIsDeterministicForFixedOptions) {
  const auto m = progmodel::lower(delayed_racer());
  MachineConfig cfg;
  cfg.nprocs = 3;
  ScheduleSweepOptions opts;
  opts.schedules = 8;
  opts.seed = 3;
  const auto a = sweep_schedules(*m, cfg, opts);
  const auto b = sweep_schedules(*m, cfg, opts);
  ASSERT_EQ(a.reports.size(), b.reports.size());
  EXPECT_TRUE(a.reports == b.reports);
}

TEST(Schedule, SweepCountsOutcomesOnDeadlock) {
  const auto m = progmodel::lower(recv_recv_cycle());
  MachineConfig cfg;
  ScheduleSweepOptions opts;
  opts.schedules = 8;
  const ScheduleSweepReport sweep = sweep_schedules(*m, cfg, opts);
  EXPECT_EQ(sweep.count(Outcome::Deadlock), 8) << sweep.summary();
  // The round-robin schedule (slot 0, seed 0) is the first witness.
  ASSERT_TRUE(sweep.first_witness_seed.has_value());
  EXPECT_EQ(*sweep.first_witness_seed, 0u);
  EXPECT_FALSE(sweep.clean());
}

TEST(Schedule, ScheduleSeedForIsStableAndReservesZero) {
  EXPECT_EQ(schedule_seed_for(1, 0), 0u);
  for (int k = 1; k < 64; ++k) {
    EXPECT_NE(schedule_seed_for(1, k), 0u);
    EXPECT_EQ(schedule_seed_for(1, k), schedule_seed_for(1, k));
    EXPECT_NE(schedule_seed_for(1, k), schedule_seed_for(2, k));
  }
}

TEST(Schedule, RandomSchedulerStillFindsDeadlocks) {
  const auto m = progmodel::lower(recv_recv_cycle());
  MachineConfig cfg;
  cfg.schedule.policy = SchedPolicy::Random;
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL}) {
    cfg.schedule.seed = seed;
    EXPECT_EQ(run(*m, cfg).outcome, Outcome::Deadlock) << "seed " << seed;
  }
}

// -------------------------------------------- max_steps budget semantics

// Satellite: max_steps is a *total* budget across ranks, so the same
// compute-bound program times out after (about) the same number of
// machine steps at 2 and at 8 ranks — each rank just gets a smaller
// share.
TEST(MaxSteps, TimeoutBudgetIsTotalAcrossRanks) {
  const Program p = infinite_loop();
  const auto m = progmodel::lower(p);
  for (const int nprocs : {2, 8}) {
    MachineConfig cfg;
    cfg.nprocs = nprocs;
    cfg.max_steps = 50'000;
    const RunReport rep = run(*m, cfg);
    EXPECT_EQ(rep.outcome, Outcome::Timeout)
        << nprocs << " ranks: " << rep.summary();
    EXPECT_GE(rep.steps, cfg.max_steps);
    // Overshoot is bounded by one slice of one rank.
    EXPECT_LT(rep.steps, cfg.max_steps + static_cast<std::uint64_t>(
                                             cfg.slice));
  }
}

// Satellite: Timeout and Deadlock are never conflated — a provably
// stuck rank set is a Deadlock whatever the remaining budget, under
// both scheduling policies.
TEST(MaxSteps, DeadlockIsNeverReportedAsTimeout) {
  const auto m = progmodel::lower(recv_recv_cycle());
  for (const std::uint64_t budget : {2'000ULL, 5'000ULL, 2'000'000ULL}) {
    MachineConfig cfg;
    cfg.max_steps = budget;
    EXPECT_EQ(run(*m, cfg).outcome, Outcome::Deadlock) << budget;
    cfg.schedule.policy = SchedPolicy::Random;
    cfg.schedule.seed = 11;
    EXPECT_EQ(run(*m, cfg).outcome, Outcome::Deadlock) << budget;
  }
}

// ------------------------------------------------- frozen report digest

/// FNV-1a over every observable field of a report: outcome, findings,
/// step count, schedule seed, matching digest and the summary text.
struct ReportHasher {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 0x100000001b3ULL;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  void report(const RunReport& r) {
    u64(static_cast<std::uint64_t>(r.outcome));
    u64(r.findings.size());
    for (const Finding& f : r.findings) {
      u64(static_cast<std::uint64_t>(f.kind));
      u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(f.rank)));
      str(f.message);
    }
    u64(r.steps);
    u64(r.schedule_seed);
    u64(r.match_digest());
    str(r.summary());
  }
};

/// Sweeps every case of `ds` (8 schedules each) and folds all reports
/// into `hash`. Cases that fail to lower are skipped, as the dynamic
/// tools report them as compile errors without simulating.
void hash_sweeps(const datasets::Dataset& ds, passes::OptLevel opt,
                 const MachineConfig& base, ReportHasher& hash) {
  for (const datasets::Case& c : ds.cases) {
    std::unique_ptr<ir::Module> m;
    try {
      m = progmodel::lower(c.program);
    } catch (const ContractViolation&) {
      continue;
    }
    passes::run_pipeline(*m, opt);
    MachineConfig cfg = base;
    cfg.nprocs = c.program.nprocs;
    const ScheduleSweepReport sweep = sweep_schedules(*m, cfg, {});
    for (const RunReport& r : sweep.reports) hash.report(r);
    hash.str(sweep.summary());
  }
}

// Frozen wall for the interpreter: every report of 8-schedule sweeps
// over MBI and CorrBench slices must hash to the value recorded before
// the simulator's arenas and register file were reworked. It pins step
// counts and the Timeout/Deadlock/Crashed boundaries, not only verdicts.
TEST(FrozenDigest, SweptReportsMatchRecordedDigest) {
  const datasets::Dataset mbi = datasets::make_dataset("mbi:0.1");
  const datasets::Dataset corr = datasets::make_dataset("corr:0.25");
  datasets::MbiConfig wide_cfg;
  wide_cfg.scale = 0.05;
  wide_cfg.widened = true;
  const datasets::Dataset wide = datasets::generate_mbi(wide_cfg);

  MachineConfig must;  // the MUST-lite budget
  must.max_steps = 100'000;
  MachineConfig itac;  // the ITAC-lite budget: many runs time out
  itac.max_steps = 3'000;
  MachineConfig tiny = must;  // allocations near the arena limit
  tiny.arena_bytes = 256;

  ReportHasher hash;
  for (const passes::OptLevel opt : passes::kAllOptLevels) {
    hash_sweeps(mbi, opt, must, hash);
  }
  hash_sweeps(mbi, passes::OptLevel::O0, itac, hash);
  hash_sweeps(mbi, passes::OptLevel::O0, tiny, hash);
  hash_sweeps(corr, passes::OptLevel::O0, must, hash);
  hash_sweeps(corr, passes::OptLevel::O2, itac, hash);
  hash_sweeps(wide, passes::OptLevel::O0, must, hash);
  hash_sweeps(wide, passes::OptLevel::O2, must, hash);
  EXPECT_EQ(hash.h, 0xa2a19c378c71578dULL);
}

}  // namespace
}  // namespace mpidetect::mpisim
