#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "ir/builder.hpp"
#include "mpi/api.hpp"
#include "mpisim/machine.hpp"
#include "progmodel/ast.hpp"
#include "progmodel/lower.hpp"

namespace mpidetect::mpisim {
namespace {

using mpi::Func;
using progmodel::Arg;
using progmodel::Expr;
using progmodel::HandleKind;
using progmodel::Program;
using progmodel::Stmt;
using E = Expr;
using S = Stmt;
using A = Arg;

constexpr std::int32_t kInt = static_cast<std::int32_t>(mpi::Datatype::Int);
constexpr std::int32_t kDouble =
    static_cast<std::int32_t>(mpi::Datatype::Double);
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

RunReport run_program(Program p, int nprocs,
                      std::uint64_t max_steps = 2'000'000) {
  const auto m = progmodel::lower(p);
  MachineConfig cfg;
  cfg.nprocs = nprocs;
  cfg.max_steps = max_steps;
  return run(*m, cfg);
}

Stmt send_stmt(std::string buf, int count, std::int32_t dtype, Expr dest,
               int tag) {
  return S::mpi(Func::Send, {A::buf(std::move(buf)), A::val(count),
                             A::val(dtype), A::val(std::move(dest)),
                             A::val(tag), A::val(kW)});
}

Stmt recv_stmt(std::string buf, int count, std::int32_t dtype, Expr src,
               int tag) {
  return S::mpi(Func::Recv, {A::buf(std::move(buf)), A::val(count),
                             A::val(dtype), A::val(std::move(src)),
                             A::val(tag), A::val(kW), A::null()});
}

// ------------------------------------------------------------- basics

TEST(Sim, MinimalInitFinalizeCompletesClean) {
  Program p;
  p.main_body = preamble();
  p.main_body.push_back(S::mpi(Func::Finalize, {}));
  const auto rep = run_program(p, 2);
  EXPECT_EQ(rep.outcome, Outcome::Completed);
  EXPECT_TRUE(rep.clean()) << rep.summary();
}

TEST(Sim, MissingFinalizeIsReported) {
  Program p;
  p.main_body = preamble();
  const auto rep = run_program(p, 2);
  EXPECT_TRUE(rep.has(FindingKind::MissingFinalize)) << rep.summary();
}

TEST(Sim, CallBeforeInitIsReported) {
  Program p;
  p.main_body.push_back(S::mpi(Func::Barrier, {A::val(kW)}));
  p.main_body.push_back(S::mpi(Func::Init, {}));
  p.main_body.push_back(S::mpi(Func::Finalize, {}));
  const auto rep = run_program(p, 2);
  EXPECT_TRUE(rep.has(FindingKind::DoubleInit)) << rep.summary();
}

// --------------------------------------------------------- point-to-point

Program pingpong() {
  Program p;
  p.main_body = preamble();
  p.main_body.push_back(S::decl_buf("buf", ir::Type::I32, E::lit(4)));
  std::vector<Stmt> r0;
  r0.push_back(S::buf_store("buf", E::lit(0), E::lit(42)));
  r0.push_back(send_stmt("buf", 4, kInt, E::lit(1), 7));
  r0.push_back(recv_stmt("buf", 4, kInt, E::lit(1), 8));
  std::vector<Stmt> r1;
  r1.push_back(recv_stmt("buf", 4, kInt, E::lit(0), 7));
  r1.push_back(send_stmt("buf", 4, kInt, E::lit(0), 8));
  p.main_body.push_back(S::if_(E::eq(E::ref("rank"), E::lit(0)),
                               std::move(r0), std::move(r1)));
  p.main_body.push_back(S::mpi(Func::Finalize, {}));
  return p;
}

TEST(Sim, PingPongCompletesClean) {
  const auto rep = run_program(pingpong(), 2);
  EXPECT_EQ(rep.outcome, Outcome::Completed);
  EXPECT_TRUE(rep.findings.empty()) << rep.summary();
}

TEST(Sim, RecvRecvCycleDeadlocks) {
  Program p;
  p.main_body = preamble();
  p.main_body.push_back(S::decl_buf("buf", ir::Type::I32, E::lit(4)));
  // Both ranks receive first: classic head-to-head deadlock.
  std::vector<Stmt> r0{recv_stmt("buf", 4, kInt, E::lit(1), 0),
                       send_stmt("buf", 4, kInt, E::lit(1), 0)};
  std::vector<Stmt> r1{recv_stmt("buf", 4, kInt, E::lit(0), 0),
                       send_stmt("buf", 4, kInt, E::lit(0), 0)};
  p.main_body.push_back(S::if_(E::eq(E::ref("rank"), E::lit(0)),
                               std::move(r0), std::move(r1)));
  p.main_body.push_back(S::mpi(Func::Finalize, {}));
  const auto rep = run_program(p, 2);
  EXPECT_EQ(rep.outcome, Outcome::Deadlock) << rep.summary();
}

TEST(Sim, LargeSynchronousSendCycleDeadlocks) {
  Program p;
  p.main_body = preamble();
  // 4096 ints = 16 KiB > eager threshold: both sends rendezvous-block.
  p.main_body.push_back(S::decl_buf("buf", ir::Type::I32, E::lit(4096)));
  std::vector<Stmt> r0{send_stmt("buf", 4096, kInt, E::lit(1), 0),
                       recv_stmt("buf", 4096, kInt, E::lit(1), 0)};
  std::vector<Stmt> r1{send_stmt("buf", 4096, kInt, E::lit(0), 0),
                       recv_stmt("buf", 4096, kInt, E::lit(0), 0)};
  p.main_body.push_back(S::if_(E::eq(E::ref("rank"), E::lit(0)),
                               std::move(r0), std::move(r1)));
  p.main_body.push_back(S::mpi(Func::Finalize, {}));
  const auto rep = run_program(p, 2);
  EXPECT_EQ(rep.outcome, Outcome::Deadlock) << rep.summary();
}

TEST(Sim, EagerSendSendCycleCompletes) {
  Program p;
  p.main_body = preamble();
  p.main_body.push_back(S::decl_buf("buf", ir::Type::I32, E::lit(4)));
  std::vector<Stmt> r0{send_stmt("buf", 4, kInt, E::lit(1), 0),
                       recv_stmt("buf", 4, kInt, E::lit(1), 0)};
  std::vector<Stmt> r1{send_stmt("buf", 4, kInt, E::lit(0), 0),
                       recv_stmt("buf", 4, kInt, E::lit(0), 0)};
  p.main_body.push_back(S::if_(E::eq(E::ref("rank"), E::lit(0)),
                               std::move(r0), std::move(r1)));
  p.main_body.push_back(S::mpi(Func::Finalize, {}));
  const auto rep = run_program(p, 2);
  EXPECT_EQ(rep.outcome, Outcome::Completed) << rep.summary();
}

TEST(Sim, DatatypeMismatchDetectedAtMatch) {
  Program p;
  p.main_body = preamble();
  p.main_body.push_back(S::decl_buf("buf", ir::Type::F64, E::lit(8)));
  std::vector<Stmt> r0{send_stmt("buf", 4, kInt, E::lit(1), 0)};
  std::vector<Stmt> r1{recv_stmt("buf", 4, kDouble, E::lit(0), 0)};
  p.main_body.push_back(S::if_(E::eq(E::ref("rank"), E::lit(0)),
                               std::move(r0), std::move(r1)));
  p.main_body.push_back(S::mpi(Func::Finalize, {}));
  const auto rep = run_program(p, 2);
  EXPECT_TRUE(rep.has(FindingKind::TypeMismatch)) << rep.summary();
}

TEST(Sim, TruncationDetectedWhenSendExceedsRecv) {
  Program p;
  p.main_body = preamble();
  p.main_body.push_back(S::decl_buf("buf", ir::Type::I32, E::lit(16)));
  std::vector<Stmt> r0{send_stmt("buf", 16, kInt, E::lit(1), 0)};
  std::vector<Stmt> r1{recv_stmt("buf", 4, kInt, E::lit(0), 0)};
  p.main_body.push_back(S::if_(E::eq(E::ref("rank"), E::lit(0)),
                               std::move(r0), std::move(r1)));
  p.main_body.push_back(S::mpi(Func::Finalize, {}));
  const auto rep = run_program(p, 2);
  EXPECT_TRUE(rep.has(FindingKind::TypeMismatch)) << rep.summary();
}

TEST(Sim, InvalidParamNegativeCount) {
  Program p;
  p.main_body = preamble();
  p.main_body.push_back(S::decl_buf("buf", ir::Type::I32, E::lit(4)));
  std::vector<Stmt> r0{send_stmt("buf", -1, kInt, E::lit(1), 0)};
  p.main_body.push_back(
      S::if_(E::eq(E::ref("rank"), E::lit(0)), std::move(r0)));
  p.main_body.push_back(S::mpi(Func::Finalize, {}));
  const auto rep = run_program(p, 2);
  EXPECT_TRUE(rep.has(FindingKind::InvalidParam)) << rep.summary();
}

TEST(Sim, InvalidParamBadDestRank) {
  Program p;
  p.main_body = preamble();
  p.main_body.push_back(S::decl_buf("buf", ir::Type::I32, E::lit(4)));
  std::vector<Stmt> r0{send_stmt("buf", 4, kInt, E::lit(5), 0)};
  p.main_body.push_back(
      S::if_(E::eq(E::ref("rank"), E::lit(0)), std::move(r0)));
  p.main_body.push_back(S::mpi(Func::Finalize, {}));
  const auto rep = run_program(p, 2);
  EXPECT_TRUE(rep.has(FindingKind::InvalidParam)) << rep.summary();
}

TEST(Sim, InvalidParamBadTag) {
  Program p;
  p.main_body = preamble();
  p.main_body.push_back(S::decl_buf("buf", ir::Type::I32, E::lit(4)));
  std::vector<Stmt> r0{send_stmt("buf", 4, kInt, E::lit(1), -5)};
  p.main_body.push_back(
      S::if_(E::eq(E::ref("rank"), E::lit(0)), std::move(r0)));
  p.main_body.push_back(S::mpi(Func::Finalize, {}));
  const auto rep = run_program(p, 2);
  EXPECT_TRUE(rep.has(FindingKind::InvalidParam)) << rep.summary();
}

TEST(Sim, InvalidParamNullBuffer) {
  Program p;
  p.main_body = preamble();
  std::vector<Stmt> r0;
  r0.push_back(S::mpi(Func::Send,
                      {A::null(), A::val(4), A::val(kInt), A::val(1),
                       A::val(0), A::val(kW)}));
  p.main_body.push_back(
      S::if_(E::eq(E::ref("rank"), E::lit(0)), std::move(r0)));
  p.main_body.push_back(S::mpi(Func::Finalize, {}));
  const auto rep = run_program(p, 2);
  EXPECT_TRUE(rep.has(FindingKind::InvalidParam)) << rep.summary();
}

TEST(Sim, MessageRaceOnWildcardRecv) {
  Program p;
  p.nprocs = 3;
  p.main_body = preamble();
  p.main_body.push_back(S::decl_buf("buf", ir::Type::I32, E::lit(4)));
  std::vector<Stmt> r0{
      recv_stmt("buf", 4, kInt, E::lit(mpi::kAnySource), 0),
      recv_stmt("buf", 4, kInt, E::lit(mpi::kAnySource), 0)};
  std::vector<Stmt> rx{send_stmt("buf", 4, kInt, E::lit(0), 0)};
  p.main_body.push_back(S::if_(E::eq(E::ref("rank"), E::lit(0)),
                               std::move(r0), std::move(rx)));
  p.main_body.push_back(S::mpi(Func::Finalize, {}));
  const auto rep = run_program(p, 3);
  EXPECT_EQ(rep.outcome, Outcome::Completed) << rep.summary();
  EXPECT_TRUE(rep.has(FindingKind::MessageRace)) << rep.summary();
}

// ----------------------------------------------------------- nonblocking

Program isend_wait(bool with_wait, bool touch_buffer_before_wait = false) {
  Program p;
  p.main_body = preamble();
  p.main_body.push_back(S::decl_buf("buf", ir::Type::I32, E::lit(2048)));
  p.main_body.push_back(S::decl_handle("req", HandleKind::Request));
  std::vector<Stmt> r0;
  // 2048 ints = 8 KiB: rendezvous path, so the request stays pending.
  r0.push_back(S::mpi(Func::Isend,
                      {A::buf("buf"), A::val(2048), A::val(kInt), A::val(1),
                       A::val(0), A::val(kW), A::addr("req")}));
  if (touch_buffer_before_wait) {
    r0.push_back(S::buf_store("buf", E::lit(0), E::lit(99)));
  }
  if (with_wait) {
    r0.push_back(S::mpi(Func::Wait, {A::addr("req"), A::null()}));
  }
  std::vector<Stmt> r1{recv_stmt("buf", 2048, kInt, E::lit(0), 0)};
  p.main_body.push_back(S::if_(E::eq(E::ref("rank"), E::lit(0)),
                               std::move(r0), std::move(r1)));
  p.main_body.push_back(S::mpi(Func::Finalize, {}));
  return p;
}

TEST(Sim, IsendWaitCompletesClean) {
  const auto rep = run_program(isend_wait(true), 2);
  EXPECT_EQ(rep.outcome, Outcome::Completed);
  EXPECT_TRUE(rep.findings.empty()) << rep.summary();
}

TEST(Sim, MissingWaitIsRequestLeak) {
  const auto rep = run_program(isend_wait(false), 2);
  EXPECT_TRUE(rep.has(FindingKind::ResourceLeak)) << rep.summary();
}

TEST(Sim, BufferWriteBeforeWaitIsLocalConcurrency) {
  const auto rep = run_program(isend_wait(true, true), 2);
  EXPECT_TRUE(rep.has(FindingKind::LocalConcurrency)) << rep.summary();
}

TEST(Sim, WaitOnUninitializedRequestIsRequestError) {
  Program p;
  p.main_body = preamble();
  p.main_body.push_back(S::decl_handle("req", HandleKind::Request));
  // req slot contains garbage zero -> MPI_REQUEST_NULL; waiting on a
  // never-assigned non-null handle is the interesting case, so assign a
  // bogus value first through an int alias... simplest: Wait twice after
  // completion: the second wait sees an invalidated handle (null -> ok),
  // so instead use MPI_Start on a non-persistent request.
  p.main_body.push_back(S::decl_buf("buf", ir::Type::I32, E::lit(4)));
  std::vector<Stmt> r0;
  r0.push_back(S::mpi(Func::Isend,
                      {A::buf("buf"), A::val(4), A::val(kInt), A::val(1),
                       A::val(0), A::val(kW), A::addr("req")}));
  r0.push_back(S::mpi(Func::Start, {A::addr("req")}));  // not persistent!
  r0.push_back(S::mpi(Func::Wait, {A::addr("req"), A::null()}));
  std::vector<Stmt> r1{recv_stmt("buf", 4, kInt, E::lit(0), 0)};
  p.main_body.push_back(S::if_(E::eq(E::ref("rank"), E::lit(0)),
                               std::move(r0), std::move(r1)));
  p.main_body.push_back(S::mpi(Func::Finalize, {}));
  const auto rep = run_program(p, 2);
  EXPECT_TRUE(rep.has(FindingKind::RequestError)) << rep.summary();
}

TEST(Sim, PersistentRequestLifecycle) {
  Program p;
  p.main_body = preamble();
  p.main_body.push_back(S::decl_buf("buf", ir::Type::I32, E::lit(4)));
  p.main_body.push_back(S::decl_handle("req", HandleKind::Request));
  std::vector<Stmt> r0;
  r0.push_back(S::mpi(Func::SendInit,
                      {A::buf("buf"), A::val(4), A::val(kInt), A::val(1),
                       A::val(0), A::val(kW), A::addr("req")}));
  r0.push_back(S::mpi(Func::Start, {A::addr("req")}));
  r0.push_back(S::mpi(Func::Wait, {A::addr("req"), A::null()}));
  r0.push_back(S::mpi(Func::Start, {A::addr("req")}));
  r0.push_back(S::mpi(Func::Wait, {A::addr("req"), A::null()}));
  r0.push_back(S::mpi(Func::RequestFree, {A::addr("req")}));
  std::vector<Stmt> r1{recv_stmt("buf", 4, kInt, E::lit(0), 0),
                       recv_stmt("buf", 4, kInt, E::lit(0), 0)};
  p.main_body.push_back(S::if_(E::eq(E::ref("rank"), E::lit(0)),
                               std::move(r0), std::move(r1)));
  p.main_body.push_back(S::mpi(Func::Finalize, {}));
  const auto rep = run_program(p, 2);
  EXPECT_EQ(rep.outcome, Outcome::Completed) << rep.summary();
  EXPECT_TRUE(rep.findings.empty()) << rep.summary();
}

TEST(Sim, PersistentRequestNeverFreedLeaks) {
  Program p;
  p.main_body = preamble();
  p.main_body.push_back(S::decl_buf("buf", ir::Type::I32, E::lit(4)));
  p.main_body.push_back(S::decl_handle("req", HandleKind::Request));
  std::vector<Stmt> r0;
  r0.push_back(S::mpi(Func::SendInit,
                      {A::buf("buf"), A::val(4), A::val(kInt), A::val(1),
                       A::val(0), A::val(kW), A::addr("req")}));
  p.main_body.push_back(
      S::if_(E::eq(E::ref("rank"), E::lit(0)), std::move(r0)));
  p.main_body.push_back(S::mpi(Func::Finalize, {}));
  const auto rep = run_program(p, 2);
  EXPECT_TRUE(rep.has(FindingKind::ResourceLeak)) << rep.summary();
}

// ------------------------------------------------------------ collectives

TEST(Sim, BarrierSynchronizes) {
  Program p;
  p.main_body = preamble();
  p.main_body.push_back(S::mpi(Func::Barrier, {A::val(kW)}));
  p.main_body.push_back(S::mpi(Func::Finalize, {}));
  const auto rep = run_program(p, 4);
  EXPECT_EQ(rep.outcome, Outcome::Completed);
  EXPECT_TRUE(rep.findings.empty()) << rep.summary();
}

TEST(Sim, CollectiveOrderMismatchDeadlocks) {
  Program p;
  p.main_body = preamble();
  p.main_body.push_back(S::decl_buf("buf", ir::Type::I32, E::lit(4)));
  // rank 0: Barrier then Bcast; others: Bcast then Barrier.
  std::vector<Stmt> r0;
  r0.push_back(S::mpi(Func::Barrier, {A::val(kW)}));
  r0.push_back(S::mpi(Func::Bcast, {A::buf("buf"), A::val(4), A::val(kInt),
                                    A::val(0), A::val(kW)}));
  std::vector<Stmt> rx;
  rx.push_back(S::mpi(Func::Bcast, {A::buf("buf"), A::val(4), A::val(kInt),
                                    A::val(0), A::val(kW)}));
  rx.push_back(S::mpi(Func::Barrier, {A::val(kW)}));
  p.main_body.push_back(S::if_(E::eq(E::ref("rank"), E::lit(0)),
                               std::move(r0), std::move(rx)));
  p.main_body.push_back(S::mpi(Func::Finalize, {}));
  const auto rep = run_program(p, 2);
  EXPECT_EQ(rep.outcome, Outcome::Deadlock) << rep.summary();
  EXPECT_TRUE(rep.has(FindingKind::CollectiveMismatch)) << rep.summary();
}

TEST(Sim, BcastRootMismatchIsParamMismatch) {
  Program p;
  p.main_body = preamble();
  p.main_body.push_back(S::decl_buf("buf", ir::Type::I32, E::lit(4)));
  // Root depends on rank: 0 on rank 0, 1 elsewhere.
  p.main_body.push_back(S::decl_int("root", E::lit(1)));
  p.main_body.push_back(S::if_(E::eq(E::ref("rank"), E::lit(0)),
                               {S::assign("root", E::lit(0))}));
  p.main_body.push_back(S::mpi(Func::Bcast,
                               {A::buf("buf"), A::val(4), A::val(kInt),
                                A::val(E::ref("root")), A::val(kW)}));
  p.main_body.push_back(S::mpi(Func::Finalize, {}));
  const auto rep = run_program(p, 2);
  EXPECT_TRUE(rep.has(FindingKind::ParamMismatch)) << rep.summary();
}

TEST(Sim, BcastDeliversRootPayload) {
  Program p;
  p.main_body = preamble();
  p.main_body.push_back(S::decl_buf("buf", ir::Type::I32, E::lit(1)));
  p.main_body.push_back(S::if_(E::eq(E::ref("rank"), E::lit(0)),
                               {S::buf_store("buf", E::lit(0), E::lit(77))},
                               {S::buf_store("buf", E::lit(0), E::lit(0))}));
  p.main_body.push_back(S::mpi(Func::Bcast,
                               {A::buf("buf"), A::val(1), A::val(kInt),
                                A::val(0), A::val(kW)}));
  // Non-root returns buf[0]; completing with 77 proves delivery.
  p.main_body.push_back(S::mpi(Func::Finalize, {}));
  const auto rep = run_program(p, 3);
  EXPECT_EQ(rep.outcome, Outcome::Completed);
  EXPECT_TRUE(rep.findings.empty()) << rep.summary();
}

TEST(Sim, CollectiveCountMismatchIsParamMismatch) {
  Program p;
  p.main_body = preamble();
  p.main_body.push_back(S::decl_buf("buf", ir::Type::I32, E::lit(8)));
  p.main_body.push_back(S::decl_int("n", E::lit(4)));
  p.main_body.push_back(S::if_(E::eq(E::ref("rank"), E::lit(0)),
                               {S::assign("n", E::lit(8))}));
  p.main_body.push_back(S::mpi(Func::Bcast,
                               {A::buf("buf"), A::val(E::ref("n")),
                                A::val(kInt), A::val(0), A::val(kW)}));
  p.main_body.push_back(S::mpi(Func::Finalize, {}));
  const auto rep = run_program(p, 2);
  EXPECT_TRUE(rep.has(FindingKind::ParamMismatch)) << rep.summary();
}

TEST(Sim, AllreduceOpMismatchIsParamMismatch) {
  Program p;
  p.main_body = preamble();
  p.main_body.push_back(S::decl_buf("s", ir::Type::I32, E::lit(1)));
  p.main_body.push_back(S::decl_buf("r", ir::Type::I32, E::lit(1)));
  p.main_body.push_back(S::decl_int("op", E::lit(1)));  // MPI_SUM
  p.main_body.push_back(S::if_(E::eq(E::ref("rank"), E::lit(0)),
                               {S::assign("op", E::lit(2))}));  // MPI_MAX
  p.main_body.push_back(S::mpi(Func::Allreduce,
                               {A::buf("s"), A::buf("r"), A::val(1),
                                A::val(kInt), A::val(E::ref("op")),
                                A::val(kW)}));
  p.main_body.push_back(S::mpi(Func::Finalize, {}));
  const auto rep = run_program(p, 2);
  EXPECT_TRUE(rep.has(FindingKind::ParamMismatch)) << rep.summary();
}

// ------------------------------------------------- comms, datatypes, leaks

TEST(Sim, CommDupFreeIsClean) {
  Program p;
  p.main_body = preamble();
  p.main_body.push_back(S::decl_handle("newcomm", HandleKind::Comm));
  p.main_body.push_back(S::mpi(Func::CommDup, {A::val(kW), A::addr("newcomm")}));
  p.main_body.push_back(S::mpi(Func::Barrier, {A::val(E::ref("newcomm"))}));
  p.main_body.push_back(S::mpi(Func::CommFree, {A::addr("newcomm")}));
  p.main_body.push_back(S::mpi(Func::Finalize, {}));
  const auto rep = run_program(p, 2);
  EXPECT_EQ(rep.outcome, Outcome::Completed);
  EXPECT_TRUE(rep.findings.empty()) << rep.summary();
}

TEST(Sim, UnfreedCommLeaks) {
  Program p;
  p.main_body = preamble();
  p.main_body.push_back(S::decl_handle("newcomm", HandleKind::Comm));
  p.main_body.push_back(S::mpi(Func::CommDup, {A::val(kW), A::addr("newcomm")}));
  p.main_body.push_back(S::mpi(Func::Finalize, {}));
  const auto rep = run_program(p, 2);
  EXPECT_TRUE(rep.has(FindingKind::ResourceLeak)) << rep.summary();
}

TEST(Sim, CommSplitGroupsByColor) {
  Program p;
  p.main_body = preamble();
  p.main_body.push_back(S::decl_handle("sub", HandleKind::Comm));
  p.main_body.push_back(S::decl_int("color"));
  p.main_body.push_back(S::assign("color", E::mod(E::ref("rank"), E::lit(2))));
  p.main_body.push_back(S::mpi(Func::CommSplit,
                               {A::val(kW), A::val(E::ref("color")),
                                A::val(E::ref("rank")), A::addr("sub")}));
  p.main_body.push_back(S::mpi(Func::Barrier, {A::val(E::ref("sub"))}));
  p.main_body.push_back(S::mpi(Func::CommFree, {A::addr("sub")}));
  p.main_body.push_back(S::mpi(Func::Finalize, {}));
  const auto rep = run_program(p, 4);
  EXPECT_EQ(rep.outcome, Outcome::Completed) << rep.summary();
  EXPECT_TRUE(rep.findings.empty()) << rep.summary();
}

TEST(Sim, UncommittedDatatypeIsInvalidParam) {
  Program p;
  p.main_body = preamble();
  p.main_body.push_back(S::decl_handle("dt", HandleKind::Datatype));
  p.main_body.push_back(S::decl_buf("buf", ir::Type::I32, E::lit(8)));
  p.main_body.push_back(S::mpi(Func::TypeContiguous,
                               {A::val(4), A::val(kInt), A::addr("dt")}));
  // Missing MPI_Type_commit.
  std::vector<Stmt> r0;
  r0.push_back(S::mpi(Func::Send,
                      {A::buf("buf"), A::val(1), A::val(E::ref("dt")),
                       A::val(1), A::val(0), A::val(kW)}));
  p.main_body.push_back(
      S::if_(E::eq(E::ref("rank"), E::lit(0)), std::move(r0)));
  p.main_body.push_back(S::mpi(Func::TypeFree, {A::addr("dt")}));
  p.main_body.push_back(S::mpi(Func::Finalize, {}));
  const auto rep = run_program(p, 2);
  EXPECT_TRUE(rep.has(FindingKind::InvalidParam)) << rep.summary();
}

TEST(Sim, UnfreedDatatypeLeaks) {
  Program p;
  p.main_body = preamble();
  p.main_body.push_back(S::decl_handle("dt", HandleKind::Datatype));
  p.main_body.push_back(S::mpi(Func::TypeContiguous,
                               {A::val(4), A::val(kInt), A::addr("dt")}));
  p.main_body.push_back(S::mpi(Func::TypeCommit, {A::addr("dt")}));
  p.main_body.push_back(S::mpi(Func::Finalize, {}));
  const auto rep = run_program(p, 2);
  EXPECT_TRUE(rep.has(FindingKind::ResourceLeak)) << rep.summary();
}

// ------------------------------------------------------------------- RMA

Program rma_base(std::vector<Stmt> epoch_body, bool open_epoch = true,
                 bool close_epoch = true) {
  Program p;
  p.main_body = preamble();
  p.main_body.push_back(S::decl_buf("wbuf", ir::Type::I32, E::lit(16)));
  p.main_body.push_back(S::decl_buf("obuf", ir::Type::I32, E::lit(16)));
  p.main_body.push_back(S::decl_handle("win", HandleKind::Win));
  p.main_body.push_back(S::mpi(Func::WinCreate,
                               {A::buf("wbuf"), A::val(E::lit(64)),
                                A::val(4), A::val(kW), A::addr("win")}));
  if (open_epoch) {
    p.main_body.push_back(
        S::mpi(Func::WinFence, {A::val(0), A::val(E::ref("win"))}));
  }
  for (Stmt& s : epoch_body) p.main_body.push_back(std::move(s));
  if (close_epoch) {
    p.main_body.push_back(
        S::mpi(Func::WinFence, {A::val(0), A::val(E::ref("win"))}));
  }
  p.main_body.push_back(S::mpi(Func::WinFree, {A::addr("win")}));
  p.main_body.push_back(S::mpi(Func::Finalize, {}));
  return p;
}

TEST(Sim, RmaPutInsideFenceEpochIsClean) {
  std::vector<Stmt> body;
  std::vector<Stmt> r0;
  r0.push_back(S::mpi(Func::Put,
                      {A::buf("obuf"), A::val(4), A::val(kInt), A::val(1),
                       A::val(E::lit(0)), A::val(4), A::val(kInt),
                       A::val(E::ref("win"))}));
  body.push_back(S::if_(E::eq(E::ref("rank"), E::lit(0)), std::move(r0)));
  const auto rep = run_program(rma_base(std::move(body)), 2);
  EXPECT_EQ(rep.outcome, Outcome::Completed) << rep.summary();
  EXPECT_TRUE(rep.findings.empty()) << rep.summary();
}

TEST(Sim, RmaPutOutsideEpochIsEpochError) {
  std::vector<Stmt> body;
  std::vector<Stmt> r0;
  r0.push_back(S::mpi(Func::Put,
                      {A::buf("obuf"), A::val(4), A::val(kInt), A::val(1),
                       A::val(E::lit(0)), A::val(4), A::val(kInt),
                       A::val(E::ref("win"))}));
  body.push_back(S::if_(E::eq(E::ref("rank"), E::lit(0)), std::move(r0)));
  const auto rep =
      run_program(rma_base(std::move(body), /*open_epoch=*/false,
                           /*close_epoch=*/false),
                  2);
  EXPECT_TRUE(rep.has(FindingKind::EpochError)) << rep.summary();
}

TEST(Sim, ConflictingPutsAreGlobalConcurrency) {
  // Ranks 0 and 2 both put to rank 1, offset 0, inside one epoch.
  std::vector<Stmt> body;
  std::vector<Stmt> writer;
  writer.push_back(S::mpi(Func::Put,
                          {A::buf("obuf"), A::val(4), A::val(kInt), A::val(1),
                           A::val(E::lit(0)), A::val(4), A::val(kInt),
                           A::val(E::ref("win"))}));
  body.push_back(S::if_(E::ne(E::ref("rank"), E::lit(1)), std::move(writer)));
  const auto rep = run_program(rma_base(std::move(body)), 3);
  EXPECT_TRUE(rep.has(FindingKind::GlobalConcurrency)) << rep.summary();
}

TEST(Sim, RmaTargetOutOfWindowIsInvalidParam) {
  std::vector<Stmt> body;
  std::vector<Stmt> r0;
  r0.push_back(S::mpi(Func::Put,
                      {A::buf("obuf"), A::val(4), A::val(kInt), A::val(1),
                       A::val(E::lit(1000)), A::val(4), A::val(kInt),
                       A::val(E::ref("win"))}));
  body.push_back(S::if_(E::eq(E::ref("rank"), E::lit(0)), std::move(r0)));
  const auto rep = run_program(rma_base(std::move(body)), 2);
  EXPECT_TRUE(rep.has(FindingKind::InvalidParam)) << rep.summary();
}

TEST(Sim, UnfreedWindowLeaks) {
  Program p;
  p.main_body = preamble();
  p.main_body.push_back(S::decl_buf("wbuf", ir::Type::I32, E::lit(16)));
  p.main_body.push_back(S::decl_handle("win", HandleKind::Win));
  p.main_body.push_back(S::mpi(Func::WinCreate,
                               {A::buf("wbuf"), A::val(E::lit(64)),
                                A::val(4), A::val(kW), A::addr("win")}));
  p.main_body.push_back(S::mpi(Func::Finalize, {}));
  const auto rep = run_program(p, 2);
  EXPECT_TRUE(rep.has(FindingKind::ResourceLeak)) << rep.summary();
}

TEST(Sim, LockUnlockEpochAllowsPut) {
  Program p;
  p.main_body = preamble();
  p.main_body.push_back(S::decl_buf("wbuf", ir::Type::I32, E::lit(16)));
  p.main_body.push_back(S::decl_buf("obuf", ir::Type::I32, E::lit(16)));
  p.main_body.push_back(S::decl_handle("win", HandleKind::Win));
  p.main_body.push_back(S::mpi(Func::WinCreate,
                               {A::buf("wbuf"), A::val(E::lit(64)),
                                A::val(4), A::val(kW), A::addr("win")}));
  std::vector<Stmt> r0;
  r0.push_back(S::mpi(Func::WinLock,
                      {A::val(mpi::kLockExclusive), A::val(1), A::val(0),
                       A::val(E::ref("win"))}));
  r0.push_back(S::mpi(Func::Put,
                      {A::buf("obuf"), A::val(4), A::val(kInt), A::val(1),
                       A::val(E::lit(0)), A::val(4), A::val(kInt),
                       A::val(E::ref("win"))}));
  r0.push_back(S::mpi(Func::WinUnlock, {A::val(1), A::val(E::ref("win"))}));
  p.main_body.push_back(
      S::if_(E::eq(E::ref("rank"), E::lit(0)), std::move(r0)));
  p.main_body.push_back(S::mpi(Func::WinFree, {A::addr("win")}));
  p.main_body.push_back(S::mpi(Func::Finalize, {}));
  const auto rep = run_program(p, 2);
  EXPECT_EQ(rep.outcome, Outcome::Completed) << rep.summary();
  EXPECT_TRUE(rep.findings.empty()) << rep.summary();
}

TEST(Sim, UnlockWithoutLockIsEpochError) {
  Program p;
  p.main_body = preamble();
  p.main_body.push_back(S::decl_buf("wbuf", ir::Type::I32, E::lit(16)));
  p.main_body.push_back(S::decl_handle("win", HandleKind::Win));
  p.main_body.push_back(S::mpi(Func::WinCreate,
                               {A::buf("wbuf"), A::val(E::lit(64)),
                                A::val(4), A::val(kW), A::addr("win")}));
  std::vector<Stmt> r0;
  r0.push_back(S::mpi(Func::WinUnlock, {A::val(1), A::val(E::ref("win"))}));
  p.main_body.push_back(
      S::if_(E::eq(E::ref("rank"), E::lit(0)), std::move(r0)));
  p.main_body.push_back(S::mpi(Func::WinFree, {A::addr("win")}));
  p.main_body.push_back(S::mpi(Func::Finalize, {}));
  const auto rep = run_program(p, 2);
  EXPECT_TRUE(rep.has(FindingKind::EpochError)) << rep.summary();
}

// ------------------------------------------------------------- scheduling

TEST(Sim, InfiniteLoopTimesOut) {
  Program p;
  p.main_body = preamble();
  p.main_body.push_back(S::decl_int("i"));
  p.main_body.push_back(S::for_("i", E::lit(0), E::lit(1000000000),
                                {S::assign("i", E::sub(E::ref("i"), E::lit(1)))}));
  p.main_body.push_back(S::mpi(Func::Finalize, {}));
  const auto rep = run_program(p, 2, /*max_steps=*/50'000);
  EXPECT_EQ(rep.outcome, Outcome::Timeout) << rep.summary();
}

TEST(Sim, ReportSummaryMentionsOutcome) {
  Program p;
  p.main_body = preamble();
  p.main_body.push_back(S::mpi(Func::Finalize, {}));
  const auto rep = run_program(p, 2);
  EXPECT_NE(rep.summary().find("completed"), std::string::npos);
}

TEST(Sim, ManyRanksCompleteRing) {
  // Ring exchange: rank r sends to (r+1)%size, receives from left.
  Program p;
  p.main_body = preamble();
  p.main_body.push_back(S::decl_buf("buf", ir::Type::I32, E::lit(4)));
  p.main_body.push_back(S::decl_int("right"));
  p.main_body.push_back(S::decl_int("left"));
  p.main_body.push_back(S::assign(
      "right", E::mod(E::add(E::ref("rank"), E::lit(1)), E::ref("size"))));
  p.main_body.push_back(S::assign(
      "left", E::mod(E::add(E::ref("rank"),
                            E::sub(E::ref("size"), E::lit(1))),
                     E::ref("size"))));
  p.main_body.push_back(send_stmt("buf", 4, kInt, E::ref("right"), 3));
  p.main_body.push_back(recv_stmt("buf", 4, kInt, E::ref("left"), 3));
  p.main_body.push_back(S::mpi(Func::Finalize, {}));
  const auto rep = run_program(p, 6);
  EXPECT_EQ(rep.outcome, Outcome::Completed) << rep.summary();
  EXPECT_TRUE(rep.findings.empty()) << rep.summary();
}

// ----------------------------------------------------------------- arena

/// Builds `main` directly in IR so a test controls every arena offset.
/// A rank's first allocation starts at offset 8 (0..7 stay reserved).
class IrMain {
 public:
  IrMain() : m_("arena"), b_(m_) {
    ir::Function* f = m_.create_function("main", ir::Type::I32, {});
    b_.set_insert_point(f->create_block("entry"));
  }

  ir::IRBuilder& b() { return b_; }
  ir::Value* i32(std::int64_t v) { return m_.get_i32(v); }
  ir::Value* i64(std::int64_t v) { return m_.get_i64(v); }
  ir::Value* at(ir::Value* buf, std::int64_t idx) {
    return b_.gep(ir::Type::I32, buf, i64(idx));
  }
  ir::Value* load(ir::Value* ptr) { return b_.load(ir::Type::I32, ptr); }
  void mpi(Func f, std::vector<ir::Value*> args) {
    b_.call(mpi::declare(m_, f), std::move(args));
  }
  /// Divides by zero (a MemoryFault that crashes the rank) unless `v`
  /// equals `expected`, so a clean report proves the value.
  void expect_eq(ir::Value* v, std::int64_t expected) {
    ir::Value* same = b_.icmp(ir::CmpPred::EQ, v, i32(expected));
    b_.sdiv(i32(1), b_.cast(ir::Opcode::ZExt, same, ir::Type::I32));
  }

  RunReport run(int nprocs, std::size_t arena_bytes = 1 << 20) {
    b_.ret(i32(0));
    MachineConfig cfg;
    cfg.nprocs = nprocs;
    cfg.arena_bytes = arena_bytes;
    return mpisim::run(m_, cfg);
  }

 private:
  ir::Module m_;
  ir::IRBuilder b_;
};

bool has_message(const RunReport& rep, FindingKind kind,
                 const std::string& msg) {
  for (const Finding& f : rep.findings) {
    if (f.kind == kind && f.message == msg) return true;
  }
  return false;
}

TEST(Arena, AllocationEndingAtTheLimitSucceeds) {
  IrMain p;
  ir::Value* buf = p.b().alloca_(ir::Type::I1, 4096 - 8);
  ir::Value* last = p.at(buf, (4096 - 8) / 4 - 1);  // bytes 4092..4095
  p.b().store(p.i32(7), last);
  p.expect_eq(p.load(last), 7);
  const RunReport rep = p.run(1, 4096);
  EXPECT_EQ(rep.outcome, Outcome::Completed) << rep.summary();
  EXPECT_TRUE(rep.findings.empty()) << rep.summary();
}

TEST(Arena, OneByteMoreIsArenaExhausted) {
  IrMain p;
  p.b().alloca_(ir::Type::I1, 4096 - 8 + 1);
  const RunReport rep = p.run(1, 4096);
  EXPECT_EQ(rep.outcome, Outcome::Crashed) << rep.summary();
  EXPECT_TRUE(has_message(rep, FindingKind::MemoryFault, "arena exhausted"))
      << rep.summary();
}

TEST(Arena, AllocationSizeThatOverflowsIsArenaExhausted) {
  // count * element size wraps size_t: 2^62 * 4 is 2^64, and
  // (SIZE_MAX / 2) * 8 wraps to SIZE_MAX - 7, which the 8-byte rounding
  // would wrap again.
  const std::pair<ir::Type, std::int64_t> huge[] = {
      {ir::Type::I32, std::int64_t{1} << 62},
      {ir::Type::I64, static_cast<std::int64_t>(SIZE_MAX / 2)}};
  for (const auto& [type, count] : huge) {
    IrMain p;
    p.b().alloca_(type, count);
    const RunReport rep = p.run(1, 4096);
    EXPECT_EQ(rep.outcome, Outcome::Crashed) << rep.summary();
    EXPECT_TRUE(has_message(rep, FindingKind::MemoryFault, "arena exhausted"))
        << rep.summary();
  }
}

TEST(Arena, AccessEndingPastTheLimitIsOutOfBounds) {
  IrMain p;
  ir::Value* buf = p.b().alloca_(ir::Type::I1, 4096 - 8);
  ir::Value* last = p.at(buf, (4096 - 8) / 4 - 1);
  p.expect_eq(p.load(last), 0);         // ends exactly at the limit
  p.b().load(ir::Type::I64, last);      // ends 4 bytes past it
  const RunReport rep = p.run(1, 4096);
  EXPECT_EQ(rep.outcome, Outcome::Crashed) << rep.summary();
  ASSERT_EQ(rep.findings.size(), 1u) << rep.summary();
  EXPECT_TRUE(
      has_message(rep, FindingKind::MemoryFault, "out-of-bounds access"))
      << rep.summary();
}

TEST(Arena, UnwrittenMemoryReadsZeroAndStoresReadBack) {
  IrMain p;
  ir::Value* buf = p.b().alloca_(ir::Type::I32, 200'000);
  p.expect_eq(p.load(p.at(buf, 199'999)), 0);
  p.b().store(p.i32(42), p.at(buf, 199'999));
  p.expect_eq(p.load(p.at(buf, 199'999)), 42);
  p.expect_eq(p.load(p.at(buf, 100'000)), 0);
  p.expect_eq(p.load(p.at(buf, 0)), 0);
  const RunReport rep = p.run(1);
  EXPECT_EQ(rep.outcome, Outcome::Completed) << rep.summary();
  EXPECT_TRUE(rep.findings.empty()) << rep.summary();
}

// One rank puts from its low buffer into its own untouched window, then
// gets the window back into a buffer above it: each copy's destination
// lies past everything the rank has touched when the source is resolved.
TEST(Arena, SameRankPutAndGetCopyPastTheHighWaterMark) {
  IrMain p;
  const std::int32_t win_bytes = 1000 * 4;
  ir::Value* origin = p.b().alloca_(ir::Type::I32, 4);
  ir::Value* window = p.b().alloca_(ir::Type::I32, 1000);
  ir::Value* back = p.b().alloca_(ir::Type::I32, 1000);
  ir::Value* win_slot = p.b().alloca_(ir::Type::I32, 1);
  p.mpi(Func::Init, {});
  p.b().store(p.i32(11), p.at(origin, 0));
  p.b().store(p.i32(14), p.at(origin, 3));
  p.mpi(Func::WinCreate,
        {window, p.i64(win_bytes), p.i32(4), p.i32(kW), win_slot});
  ir::Value* win = p.load(win_slot);
  p.mpi(Func::WinFence, {p.i32(0), win});
  p.mpi(Func::Put, {origin, p.i32(4), p.i32(kInt), p.i32(0), p.i64(996),
                    p.i32(4), p.i32(kInt), win});
  p.mpi(Func::Get, {p.at(back, 996), p.i32(4), p.i32(kInt), p.i32(0),
                    p.i64(996), p.i32(4), p.i32(kInt), win});
  p.mpi(Func::WinFence, {p.i32(0), win});
  p.expect_eq(p.load(p.at(window, 996)), 11);
  p.expect_eq(p.load(p.at(window, 999)), 14);
  p.expect_eq(p.load(p.at(back, 996)), 11);
  p.expect_eq(p.load(p.at(back, 999)), 14);
  p.expect_eq(p.load(p.at(back, 0)), 0);
  p.mpi(Func::WinFree, {win_slot});
  p.mpi(Func::Finalize, {});
  const RunReport rep = p.run(1);
  EXPECT_EQ(rep.outcome, Outcome::Completed) << rep.summary();
  EXPECT_TRUE(rep.findings.empty()) << rep.summary();
}

// The Bcast lands in rank 1's untouched buffer; the one-rank Allgather
// copies between two buffers of the same arena, the destination above
// everything written so far.
TEST(Arena, CollectivesCopyPastTheHighWaterMark) {
  IrMain p;
  ir::Value* rank_slot = p.b().alloca_(ir::Type::I32, 1);
  ir::Value* scratch = p.b().alloca_(ir::Type::I32, 1);
  ir::Value* buf = p.b().alloca_(ir::Type::I32, 1000);
  p.mpi(Func::Init, {});
  p.mpi(Func::CommRank, {p.i32(kW), rank_slot});
  ir::Value* is_root =
      p.b().icmp(ir::CmpPred::EQ, p.load(rank_slot), p.i32(0));
  // Only the root writes its buffer; rank 1 writes a scratch word.
  p.b().store(p.i32(77), p.b().select(is_root, p.at(buf, 999), scratch));
  p.mpi(Func::Bcast,
        {p.at(buf, 999), p.i32(1), p.i32(kInt), p.i32(0), p.i32(kW)});
  p.expect_eq(p.load(p.at(buf, 999)), 77);
  p.expect_eq(p.load(p.at(buf, 998)), 0);
  p.mpi(Func::Finalize, {});
  const RunReport bcast = p.run(2);
  EXPECT_EQ(bcast.outcome, Outcome::Completed) << bcast.summary();
  EXPECT_TRUE(bcast.findings.empty()) << bcast.summary();

  IrMain q;
  ir::Value* send = q.b().alloca_(ir::Type::I32, 1);
  ir::Value* recv = q.b().alloca_(ir::Type::I32, 1000);
  q.mpi(Func::Init, {});
  q.b().store(q.i32(55), send);
  q.mpi(Func::Allgather, {send, q.i32(1), q.i32(kInt), q.at(recv, 999),
                          q.i32(1), q.i32(kInt), q.i32(kW)});
  q.expect_eq(q.load(q.at(recv, 999)), 55);
  q.mpi(Func::Finalize, {});
  const RunReport gather = q.run(1);
  EXPECT_EQ(gather.outcome, Outcome::Completed) << gather.summary();
  EXPECT_TRUE(gather.findings.empty()) << gather.summary();
}

// A send of 2^31-1 doubles from a 4-double buffer reads ~16 GiB past the
// arena. Every send path must report the fault before sizing a payload.
TEST(Sim, SendLargerThanArenaIsMemoryFault) {
  constexpr std::int64_t kHuge = 2147483647;
  std::vector<Stmt> sends;
  sends.push_back(S::mpi(Func::Send, {A::buf("buf"), A::val(kHuge),
                                      A::val(kDouble), A::val(0), A::val(0),
                                      A::val(kW)}));
  sends.push_back(S::mpi(
      Func::Sendrecv,
      {A::buf("buf"), A::val(kHuge), A::val(kDouble), A::val(0), A::val(0),
       A::buf("buf"), A::val(4), A::val(kDouble), A::val(0), A::val(0),
       A::val(kW), A::null()}));
  for (Stmt& send : sends) {
    Program p;
    p.main_body = preamble();
    p.main_body.push_back(S::decl_buf("buf", ir::Type::F64, E::lit(4)));
    p.main_body.push_back(std::move(send));
    p.main_body.push_back(S::mpi(Func::Finalize, {}));
    const auto rep = run_program(p, 1);
    EXPECT_EQ(rep.outcome, Outcome::Crashed) << rep.summary();
    EXPECT_TRUE(
        has_message(rep, FindingKind::MemoryFault, "out-of-bounds access"))
        << rep.summary();
  }

  Program p;
  p.main_body = preamble();
  p.main_body.push_back(S::decl_buf("buf", ir::Type::F64, E::lit(4)));
  p.main_body.push_back(S::decl_handle("req", HandleKind::Request));
  p.main_body.push_back(S::mpi(Func::SendInit,
                               {A::buf("buf"), A::val(kHuge),
                                A::val(kDouble), A::val(0), A::val(0),
                                A::val(kW), A::addr("req")}));
  p.main_body.push_back(S::mpi(Func::Start, {A::addr("req")}));
  p.main_body.push_back(S::mpi(Func::Finalize, {}));
  const auto rep = run_program(p, 1);
  EXPECT_EQ(rep.outcome, Outcome::Crashed) << rep.summary();
  EXPECT_TRUE(
      has_message(rep, FindingKind::MemoryFault, "out-of-bounds access"))
      << rep.summary();
}


// ------------------------------------------------ p2p and request wall

/// FNV-1a over the report fields that the frozen sweep digest of
/// schedule_test.cpp folds: outcome, every finding, steps, schedule seed,
/// match trace and summary text.
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

/// The argument set a point-to-point call of the wall receives: well
/// formed, or wrong in exactly one way.
enum class BadArg {
  None,
  NegativeCount,
  Tag,
  RankOutOfRange,
  ProcNull,
  NullBuffer,
  InvalidDatatype,
  UncommittedDatatype,
  InvalidComm,
  CountPastArena,
};
constexpr BadArg kAllBadArgs[] = {
    BadArg::None,
    BadArg::NegativeCount,
    BadArg::Tag,
    BadArg::RankOutOfRange,
    BadArg::ProcNull,
    BadArg::NullBuffer,
    BadArg::InvalidDatatype,
    BadArg::UncommittedDatatype,
    BadArg::InvalidComm,
    BadArg::CountPastArena,
};

/// buf, count, datatype, peer and tag of one message half addressed to
/// `peer`, spoiled by `bad` ("dt" is an uncommitted derived datatype).
std::vector<Arg> half_args(BadArg bad, int peer) {
  std::vector<Arg> a;
  a.push_back(bad == BadArg::NullBuffer ? A::null() : A::buf("buf"));
  a.push_back(A::val(bad == BadArg::NegativeCount    ? -1
                     : bad == BadArg::CountPastArena ? 2147483647
                                                     : 4));
  a.push_back(bad == BadArg::InvalidDatatype       ? A::val(4242)
              : bad == BadArg::UncommittedDatatype ? A::val(E::ref("dt"))
                                                   : A::val(kInt));
  a.push_back(A::val(bad == BadArg::RankOutOfRange ? 5
                     : bad == BadArg::ProcNull     ? mpi::kProcNull
                                                   : peer));
  a.push_back(A::val(bad == BadArg::Tag ? -7 : 0));
  return a;
}

std::vector<Arg> concat(std::vector<Arg> a, std::vector<Arg> b) {
  for (Arg& x : b) a.push_back(std::move(x));
  return a;
}

/// The point-to-point entry points of the wall; each spoils the argument
/// set of one call (for Sendrecv, of one half).
enum class P2pCall {
  Send,
  Ssend,
  Recv,
  Isend,
  Irecv,
  SendInit,
  RecvInit,
  SendrecvSendHalf,
  SendrecvRecvHalf,
};
constexpr P2pCall kAllP2pCalls[] = {
    P2pCall::Send,     P2pCall::Ssend,    P2pCall::Recv,
    P2pCall::Isend,    P2pCall::Irecv,    P2pCall::SendInit,
    P2pCall::RecvInit, P2pCall::SendrecvSendHalf,
    P2pCall::SendrecvRecvHalf,
};

/// Rank 0 makes `call` with `bad` arguments (plus the Start/Wait/free a
/// request needs); rank 1 posts a well-formed counterpart.
Program p2p_program(P2pCall call, BadArg bad) {
  Program p;
  p.main_body = preamble();
  p.main_body.push_back(S::decl_buf("buf", ir::Type::I32, E::lit(8)));
  p.main_body.push_back(S::decl_handle("req", HandleKind::Request));
  p.main_body.push_back(S::decl_handle("dt", HandleKind::Datatype));
  p.main_body.push_back(S::mpi(Func::TypeContiguous,
                               {A::val(4), A::val(kInt), A::addr("dt")}));
  const Arg comm = A::val(bad == BadArg::InvalidComm ? 4242 : kW);
  const auto reqp = [] { return A::addr("req"); };
  std::vector<Stmt> r0;
  std::vector<Stmt> r1;
  switch (call) {
    case P2pCall::Send:
    case P2pCall::Ssend:
    case P2pCall::Isend:
    case P2pCall::SendInit: {
      const Func f = call == P2pCall::Send    ? Func::Send
                     : call == P2pCall::Ssend ? Func::Ssend
                     : call == P2pCall::Isend ? Func::Isend
                                              : Func::SendInit;
      std::vector<Arg> args = half_args(bad, 1);
      args.push_back(comm);
      if (f == Func::Isend || f == Func::SendInit) args.push_back(reqp());
      r0.push_back(S::mpi(f, std::move(args)));
      r1.push_back(recv_stmt("buf", 4, kInt, E::lit(0), 0));
      break;
    }
    case P2pCall::Recv:
    case P2pCall::Irecv:
    case P2pCall::RecvInit: {
      const Func f = call == P2pCall::Recv    ? Func::Recv
                     : call == P2pCall::Irecv ? Func::Irecv
                                              : Func::RecvInit;
      std::vector<Arg> args = half_args(bad, 1);
      args.push_back(comm);
      args.push_back(f == Func::Recv ? A::null() : reqp());
      r0.push_back(S::mpi(f, std::move(args)));
      r1.push_back(send_stmt("buf", 4, kInt, E::lit(0), 0));
      break;
    }
    case P2pCall::SendrecvSendHalf:
    case P2pCall::SendrecvRecvHalf: {
      const bool send_bad = call == P2pCall::SendrecvSendHalf;
      std::vector<Arg> args =
          concat(half_args(send_bad ? bad : BadArg::None, 1),
                 half_args(send_bad ? BadArg::None : bad, 1));
      args.push_back(comm);
      args.push_back(A::null());
      r0.push_back(S::mpi(Func::Sendrecv, std::move(args)));
      std::vector<Arg> peer_args =
          concat(half_args(BadArg::None, 0), half_args(BadArg::None, 0));
      peer_args.push_back(A::val(kW));
      peer_args.push_back(A::null());
      r1.push_back(S::mpi(Func::Sendrecv, std::move(peer_args)));
      break;
    }
  }
  if (call == P2pCall::SendInit || call == P2pCall::RecvInit) {
    r0.push_back(S::mpi(Func::Start, {reqp()}));
  }
  if (call == P2pCall::Isend || call == P2pCall::Irecv ||
      call == P2pCall::SendInit || call == P2pCall::RecvInit) {
    r0.push_back(S::mpi(Func::Wait, {reqp(), A::null()}));
  }
  if (call == P2pCall::SendInit || call == P2pCall::RecvInit) {
    r0.push_back(S::mpi(Func::RequestFree, {reqp()}));
  }
  p.main_body.push_back(S::if_(E::eq(E::ref("rank"), E::lit(0)),
                               std::move(r0), std::move(r1)));
  p.main_body.push_back(S::mpi(Func::TypeFree, {A::addr("dt")}));
  p.main_body.push_back(S::mpi(Func::Finalize, {}));
  return p;
}

/// What the request argument of a lifecycle call of the wall holds.
enum class ReqInput {
  BadPointer,          // a null request pointer / request array
  RequestNull,         // MPI_REQUEST_NULL
  FreedHandle,         // a persistent request after MPI_Request_free
  InactivePersistent,  // MPI_Send_init, never started
  StartedPersistent,   // MPI_Send_init + MPI_Start (eager, so complete)
  CompletedIsend,      // an eager MPI_Isend
};
constexpr ReqInput kAllReqInputs[] = {
    ReqInput::BadPointer,        ReqInput::RequestNull,
    ReqInput::FreedHandle,       ReqInput::InactivePersistent,
    ReqInput::StartedPersistent, ReqInput::CompletedIsend,
};
constexpr Func kRequestCalls[] = {
    Func::Wait, Func::Waitall, Func::Waitany,     Func::Waitsome,
    Func::Test, Func::Testall, Func::RequestFree, Func::Start,
};

/// Rank 0 builds `input` in reqs[0] (reqs[1] stays MPI_REQUEST_NULL) and
/// makes `f` on it; rank 1 receives whatever rank 0 may have sent.
Program request_program(Func f, ReqInput input) {
  Program p;
  p.main_body = preamble();
  p.main_body.push_back(S::decl_buf("buf", ir::Type::I32, E::lit(4)));
  p.main_body.push_back(S::decl_buf("inds", ir::Type::I32, E::lit(2)));
  p.main_body.push_back(S::decl_handle("h", HandleKind::Request));
  p.main_body.push_back(S::decl_handle("h2", HandleKind::Request));
  p.main_body.push_back(S::decl_req_array("reqs", 2));
  p.main_body.push_back(S::decl_int("out", E::lit(-1)));
  const auto send_init = [] {
    return S::mpi(Func::SendInit,
                  {A::buf("buf"), A::val(4), A::val(kInt), A::val(1),
                   A::val(0), A::val(kW), A::addr("h")});
  };
  std::vector<Stmt> r0;
  std::vector<Stmt> r1;
  switch (input) {
    case ReqInput::BadPointer:
    case ReqInput::RequestNull:
      break;
    case ReqInput::FreedHandle:
      r0.push_back(send_init());
      r0.push_back(S::assign("h2", E::ref("h")));
      r0.push_back(S::mpi(Func::RequestFree, {A::addr("h")}));
      r0.push_back(S::buf_store("reqs", E::lit(0), E::ref("h2")));
      break;
    case ReqInput::InactivePersistent:
      r0.push_back(send_init());
      r0.push_back(S::buf_store("reqs", E::lit(0), E::ref("h")));
      break;
    case ReqInput::StartedPersistent:
      r0.push_back(send_init());
      r0.push_back(S::mpi(Func::Start, {A::addr("h")}));
      r0.push_back(S::buf_store("reqs", E::lit(0), E::ref("h")));
      r1.push_back(recv_stmt("buf", 4, kInt, E::lit(0), 0));
      break;
    case ReqInput::CompletedIsend:
      r0.push_back(S::mpi(Func::Isend,
                          {A::buf("buf"), A::val(4), A::val(kInt), A::val(1),
                           A::val(0), A::val(kW), A::addr("h")}));
      r0.push_back(S::buf_store("reqs", E::lit(0), E::ref("h")));
      r1.push_back(recv_stmt("buf", 4, kInt, E::lit(0), 0));
      break;
  }
  const bool bad = input == ReqInput::BadPointer;
  const auto one = [&] {
    return bad ? A::null() : A::buf_at("reqs", E::lit(0));
  };
  const auto all = [&] { return bad ? A::null() : A::buf("reqs"); };
  switch (f) {
    case Func::Wait:
      r0.push_back(S::mpi(f, {one(), A::null()}));
      break;
    case Func::Waitall:
      r0.push_back(S::mpi(f, {A::val(2), all(), A::null()}));
      break;
    case Func::Waitany:
      r0.push_back(S::mpi(f, {A::val(2), all(), A::addr("out"), A::null()}));
      break;
    case Func::Waitsome:
      r0.push_back(S::mpi(f, {A::val(2), all(), A::addr("out"),
                              A::buf("inds"), A::null()}));
      break;
    case Func::Test:
      r0.push_back(S::mpi(f, {one(), A::addr("out"), A::null()}));
      break;
    case Func::Testall:
      r0.push_back(S::mpi(f, {A::val(2), all(), A::addr("out"), A::null()}));
      break;
    default:  // MPI_Request_free, MPI_Start
      r0.push_back(S::mpi(f, {one()}));
      break;
  }
  p.main_body.push_back(S::if_(E::eq(E::ref("rank"), E::lit(0)),
                               std::move(r0), std::move(r1)));
  p.main_body.push_back(S::mpi(Func::Finalize, {}));
  return p;
}

// Frozen wall for the simulator's message and request paths: every
// point-to-point entry point with each malformed argument, and every
// wait/test/free/start call on each kind of request argument. Pins the
// findings' text and order, step counts and outcomes, so one shared
// send/recv/request path must reproduce each call's own behaviour.
TEST(FrozenDigest, P2pAndRequestCallsMatchRecordedDigest) {
  ReportHasher hash;
  for (const P2pCall call : kAllP2pCalls) {
    for (const BadArg bad : kAllBadArgs) {
      hash.report(run_program(p2p_program(call, bad), 2));
    }
  }
  for (const Func f : kRequestCalls) {
    for (const ReqInput input : kAllReqInputs) {
      hash.report(run_program(request_program(f, input), 2));
    }
  }
  EXPECT_EQ(hash.h, 0x3b346fabb4e768a0ULL);
}

}  // namespace
}  // namespace mpidetect::mpisim
