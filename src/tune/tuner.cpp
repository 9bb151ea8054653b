#include "tune/tuner.hpp"

#include <algorithm>
#include <chrono>

#include "autograd/gemm.hpp"
#include "common/check.hpp"
#include "tensor/rng.hpp"
#include "tensor/shape.hpp"

namespace roadfusion::tune {
namespace {

namespace ag = roadfusion::autograd::kernels;
using tensor::Rng;
using tensor::Shape;

/// Keeps the timed loop's stores observable without a benchmark framework
/// dependency: the checksum is read through a volatile sink after timing.
volatile float g_sink = 0.0f;

}  // namespace

const SolverMeasurement* ProblemTuneResult::find(
    const std::string& solver) const {
  for (const SolverMeasurement& m : measurements) {
    if (m.solver == solver && m.params.empty()) {
      return &m;
    }
  }
  return nullptr;
}

double benchmark_solver(const Solver& solver, const ConvProblem& problem,
                        const std::string& params,
                        const TuneOptions& options) {
  const int64_t m = problem.gemm_m();
  const int64_t k = problem.gemm_k();
  const int64_t n = problem.gemm_n();
  Rng rng(17);
  // Transposed problems store A as the (k, m) source the decoder holds —
  // wmat^T — and hand B to the solver raw, like the layer does.
  const Tensor wmat = problem.transposed
                          ? Tensor::normal(Shape::mat(k, m), rng)
                          : Tensor::normal(Shape::mat(m, k), rng);
  const Tensor columns = Tensor::normal(Shape::mat(k, n), rng);
  Tensor out = Tensor::uninitialized(Shape::mat(m, n));

  PackedA packed;
  SolverArgs args;
  args.wmat = &wmat;
  args.columns = &columns;
  args.out = out.raw();
  if (problem.transposed) {
    args.b = columns.raw();
    args.ldb = n;
  }
  if (solver.wants_packed()) {
    packed = problem.transposed ? ag::prepack_a(wmat.raw(), 1, m, m, k)
                                : ag::prepack_a(wmat.raw(), k, 1, m, k);
    args.packed = &packed;
  }

  const auto run_once = [&] { solver.run(problem, args, params); };
  run_once();
  run_once();  // warm caches and any lazy one-time setup

  using clock = std::chrono::steady_clock;
  int64_t iters = 0;
  const clock::time_point start = clock::now();
  double elapsed = 0.0;
  while (elapsed < options.seconds_floor() || iters < options.iters_floor()) {
    run_once();
    ++iters;
    elapsed = std::chrono::duration<double>(clock::now() - start).count();
  }
  g_sink = out.raw()[0];
  const double seconds = elapsed / static_cast<double>(iters);
  return 2.0 * static_cast<double>(problem.macs()) / seconds / 1e9;
}

ProblemTuneResult tune_problem(const ConvProblem& problem,
                               const TuneOptions& options) {
  ProblemTuneResult result;
  result.problem = problem;
  for (const Solver* solver : applicable_solvers(problem,
                                                 /*packed_available=*/true)) {
    for (const std::string& params : solver->search_space(problem)) {
      result.measurements.push_back(
          {solver->name(), params,
           benchmark_solver(*solver, problem, params, options)});
    }
  }
  ROADFUSION_CHECK(!result.measurements.empty(),
                   "tune_problem: no applicable solver for "
                       << problem.key());
  std::stable_sort(result.measurements.begin(), result.measurements.end(),
                   [](const SolverMeasurement& a, const SolverMeasurement& b) {
                     return a.gflops > b.gflops;
                   });
  return result;
}

PerfDb tune_problems(
    const std::vector<ConvProblem>& problems, const TuneOptions& options,
    const std::function<void(const ProblemTuneResult&)>& on_result) {
  PerfDb db;
  for (const ConvProblem& problem : problems) {
    if (db.find(problem.key()) != nullptr) {
      continue;  // duplicate shape: one benchmark per key is enough
    }
    const ProblemTuneResult result = tune_problem(problem, options);
    const SolverMeasurement& best = result.best();
    db.set(problem.key(), PerfRecord{best.solver, best.params, best.gflops});
    if (on_result) {
      on_result(result);
    }
  }
  return db;
}

}  // namespace roadfusion::tune
