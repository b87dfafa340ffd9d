// Quickstart: build one MPI program, inspect its IR and ProGraML graph,
// embed it with IR2vec, run it in the simulator, and classify it with a
// registry-built detector trained on the synthetic MBI corpus through
// the unified Detector API, beside the MUST expert tool's verdict.
//
//   $ ./examples/quickstart
//
// Exit status: 0 when the learned detector flags the bug, 1 when it
// misses it.
#include <iostream>

#include "core/detector.hpp"
#include "core/eval_engine.hpp"
#include "datasets/mbi.hpp"
#include "ir/printer.hpp"
#include "ir2vec/encoder.hpp"
#include "mpisim/machine.hpp"
#include "programl/graph.hpp"
#include "progmodel/lower.hpp"

using namespace mpidetect;

namespace {

/// A two-rank program with a classic call-ordering bug: both ranks
/// receive before they send.
progmodel::Program buggy_pingpong() {
  using E = progmodel::Expr;
  using S = progmodel::Stmt;
  using A = progmodel::Arg;
  using mpi::Func;
  constexpr std::int32_t kInt = static_cast<std::int32_t>(mpi::Datatype::Int);

  progmodel::Program p;
  p.name = "buggy_pingpong";
  p.nprocs = 2;
  p.main_body.push_back(S::decl_int("rank"));
  p.main_body.push_back(S::mpi(Func::Init, {}));
  p.main_body.push_back(
      S::mpi(Func::CommRank, {A::val(mpi::kCommWorld), A::addr("rank")}));
  p.main_body.push_back(S::decl_buf("buf", ir::Type::I32, E::lit(8)));
  const auto recv = [&](int peer) {
    return S::mpi(Func::Recv,
                  {A::buf("buf"), A::val(8), A::val(kInt), A::val(peer),
                   A::val(0), A::val(mpi::kCommWorld), A::null()});
  };
  const auto send = [&](int peer) {
    return S::mpi(Func::Send, {A::buf("buf"), A::val(8), A::val(kInt),
                               A::val(peer), A::val(0),
                               A::val(mpi::kCommWorld)});
  };
  // Both ranks block in MPI_Recv forever — deadlock.
  p.main_body.push_back(S::if_(E::eq(E::ref("rank"), E::lit(0)),
                               {recv(1), send(1)}, {recv(0), send(0)}));
  p.main_body.push_back(S::mpi(Func::Finalize, {}));
  return p;
}

}  // namespace

int main() {
  const progmodel::Program program = buggy_pingpong();

  // 1. Lower to IR (what clang -O0 would emit for the C source).
  const auto module = progmodel::lower(program);
  std::cout << "--- IR ---------------------------------------------\n"
            << ir::to_string(*module) << "\n";

  // 2. Execute under the simulated MPI runtime.
  mpisim::MachineConfig cfg;
  cfg.nprocs = program.nprocs;
  const auto report = mpisim::run(*module, cfg);
  std::cout << "--- simulation -------------------------------------\n"
            << report.summary() << "\n\n";

  // 3. Represent: ProGraML graph + IR2vec embedding.
  const auto graph = programl::build_graph(*module);
  std::cout << "--- representations --------------------------------\n"
            << "ProGraML graph: " << graph.num_nodes() << " nodes, "
            << graph.num_edges() << " edges\n";
  ir2vec::Vocabulary vocab;
  const auto embedding = ir2vec::encode_concat(*module, vocab);
  std::cout << "IR2vec embedding: " << embedding.size()
            << " dims (symbolic ++ flow-aware)\n\n";

  // 4. Build the IR2vec detector from the registry, train it on a
  //    reduced MBI corpus, and classify the program through run().
  datasets::MbiConfig mbi_cfg;
  mbi_cfg.scale = 0.25;
  const auto mbi = datasets::generate_mbi(mbi_cfg);

  core::DetectorConfig det_cfg;
  det_cfg.ir2vec.use_ga = false;  // keep the quickstart fast
  auto detector = core::DetectorRegistry::global().create("ir2vec", det_cfg);

  core::EvalEngine engine(0, det_cfg.cache);
  engine.fit_full(*detector, mbi);

  datasets::Case own;
  own.name = program.name;
  own.suite = datasets::Suite::Mbi;
  own.mbi_label = mpi::MbiLabel::CallOrdering;
  own.incorrect = true;  // ground truth, not visible to the detector
  own.program = program;

  const auto verdicts = detector->run(std::span(&own, 1));
  const bool predicted_incorrect = verdicts.front().flagged();

  // 5. The expert-tool view of the same program: MUST runs it under the
  //    simulator, so it sees the deadlock of step 2 directly.
  auto must = core::DetectorRegistry::global().create("must");
  const core::Verdict tool_verdict = must->run(std::span(&own, 1)).front();
  std::cout << "--- verdicts ---------------------------------------\n"
            << "detector " << detector->name() << " ("
            << core::detector_kind_name(detector->kind()) << ") trained on "
            << mbi.size() << " MBI codes\n"
            << "prediction for buggy_pingpong: "
            << (predicted_incorrect ? "INCORRECT (error detected)"
                                    : "correct")
            << "\n"
            << "expert tool " << must->name() << " ("
            << core::detector_kind_name(must->kind())
            << "): " << core::outcome_name(tool_verdict.outcome) << "\n"
            << "ground truth: INCORRECT (recv-recv deadlock)\n";
  return predicted_incorrect ? 0 : 1;
}
