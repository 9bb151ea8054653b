// Solver interface and registry — per-shape selectable conv-GEMM kernels.
//
// MIOpen's solver.hpp pattern scaled to this repository: each existing GEMM
// path (reference triple loop, cache-blocked with searchable Mc/Kc/Nc,
// fused pre-packed, AVX2, transposed) is wrapped as a Solver with
// `is_applicable` / `estimate` / `run`. Call sites ask the dispatcher
// (dispatch.hpp) for the binding of their ConvProblem, which consults the
// ROADFUSION_SOLVER override, the perf DB, or the heuristic estimate.
//
// Numerical contract: every solver in the "blocked" family is bit-identical
// to blocked_matmul when the reduction fits one Kc block, and a tuned
// "blocked" record is bit-identical to the default binding at any depth
// (tuning varies only Mc/Nc, never the Kc split). The "reference" solver
// is the scalar oracle and matches within GEMM reassociation tolerance.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "autograd/gemm.hpp"
#include "tensor/tensor.hpp"
#include "tune/problem.hpp"

namespace roadfusion::tune {

using autograd::kernels::ConvEpilogue;
using autograd::kernels::PackedA;
using tensor::Tensor;

/// Operand set of one lowered conv GEMM (one sample). Forward problems:
/// out = wmat * columns (+ epilogue). Transposed problems: out = wmat^T *
/// B, with B addressed raw (`b`/`ldb`) so the decoder's zero-copy
/// plane-in-place path survives solver dispatch.
struct SolverArgs {
  const Tensor* wmat = nullptr;     ///< (K, C*R*S) row-major weights
  const PackedA* packed = nullptr;  ///< pre-packed wmat panels, or null
  const Tensor* columns = nullptr;  ///< im2col matrix (C*R*S, Ho*Wo)
  float* out = nullptr;             ///< (gemm_m, gemm_n) contiguous
  const ConvEpilogue* epi = nullptr;  ///< optional fused post-ops
  /// Transposed problems: the raw (gemm_k, gemm_n) B operand and its row
  /// stride — a view into the sample's input plane, never copied by the
  /// prepacked solver.
  const float* b = nullptr;
  int64_t ldb = 0;
};

class Solver {
 public:
  virtual ~Solver() = default;

  virtual const char* name() const = 0;

  /// Static storage span label ("solver.<name>"), hot-path safe.
  virtual const char* span_name() const = 0;

  /// Whether the solver can run this problem at all, independent of which
  /// operands the caller has on hand.
  virtual bool is_applicable(const ConvProblem& problem) const = 0;

  /// True when run() consumes args.packed — such a solver can only bind
  /// where pre-packed weights exist (the planned inference path).
  virtual bool wants_packed() const { return false; }

  /// Heuristic relative cost (arbitrary units, lower wins). Used to pick a
  /// solver when the perf DB has no record for the problem; only the
  /// ordering between applicable solvers matters.
  virtual double estimate(const ConvProblem& problem) const = 0;

  /// Tunable-parameter candidates the offline tuner benchmarks for this
  /// problem. "" means "defaults"; solvers without knobs return {""}.
  virtual std::vector<std::string> search_space(
      const ConvProblem& problem) const {
    (void)problem;
    return {""};
  }

  /// Executes the GEMM (+ epilogue) into args.out. `params` is a tuned
  /// parameter string from a DB record ("" = defaults); unknown keys and
  /// malformed fragments are ignored in favour of the defaults.
  virtual void run(const ConvProblem& problem, const SolverArgs& args,
                   const std::string& params) const = 0;
};

/// All built-in solvers, registration order (stable across runs).
const std::vector<const Solver*>& solvers();

/// Lookup by name; nullptr when unknown.
const Solver* find_solver(std::string_view name);

/// Solvers whose is_applicable passes, filtered by operand availability
/// (wants_packed solvers drop out when `packed_available` is false).
std::vector<const Solver*> applicable_solvers(const ConvProblem& problem,
                                              bool packed_available);

/// Registered solver names, for error messages and CLI listings.
std::vector<std::string> solver_names();

}  // namespace roadfusion::tune
