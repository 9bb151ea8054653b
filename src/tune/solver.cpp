#include "tune/solver.hpp"

#include <cstdlib>
#include <cstring>

#include "autograd/gemm_avx2.hpp"
#include "common/check.hpp"
#include "common/cpu.hpp"
#include "tensor/ops.hpp"
#include "tensor/shape.hpp"

namespace roadfusion::tune {
namespace {

namespace ag = roadfusion::autograd::kernels;
namespace t = roadfusion::tensor;

/// Extracts `key` from a "k1=v1,k2=v2" parameter string; `fallback` when
/// the key is absent or its value is not a positive integer. Malformed
/// fragments are skipped, never fatal — a stale DB must not crash serving.
int64_t parse_param(const std::string& params, const char* key,
                    int64_t fallback) {
  const std::string tag = std::string(key) + "=";
  size_t pos = 0;
  while (pos < params.size()) {
    const size_t end = params.find(',', pos);
    const size_t len = (end == std::string::npos ? params.size() : end) - pos;
    if (len > tag.size() && params.compare(pos, tag.size(), tag) == 0) {
      const char* start = params.c_str() + pos + tag.size();
      char* parsed_end = nullptr;
      const long long value = std::strtoll(start, &parsed_end, 10);
      if (parsed_end == start + (len - tag.size()) && value >= 1) {
        return value;
      }
    }
    pos = (end == std::string::npos ? params.size() : end + 1);
  }
  return fallback;
}

/// Copies a freshly allocated (m, n) GEMM result into the caller's output
/// and applies the epilogue — the same store + post-op sequence as the
/// autograd conv op, so results stay bit-identical to it.
void store_with_epilogue(const Tensor& res, const ConvProblem& problem,
                         const SolverArgs& args) {
  std::memcpy(args.out, res.raw(),
              sizeof(float) * static_cast<size_t>(res.numel()));
  if (args.epi != nullptr) {
    ag::apply_epilogue(args.out, problem.gemm_m(), problem.gemm_n(),
                       *args.epi);
  }
}

bool forward_and_valid(const ConvProblem& problem) {
  return !problem.transposed && problem.valid();
}

bool transposed_and_valid(const ConvProblem& problem) {
  return problem.transposed && problem.valid();
}

/// Copies the raw transposed-problem B operand into a contiguous tensor —
/// the operand shape the unpacked A^T * B GEMMs consume.
Tensor materialize_b(const SolverArgs& args, int64_t k, int64_t n) {
  Tensor b = Tensor::uninitialized(t::Shape::mat(k, n));
  if (args.ldb == n) {
    std::memcpy(b.raw(), args.b, sizeof(float) * static_cast<size_t>(k * n));
  } else {
    for (int64_t row = 0; row < k; ++row) {
      std::memcpy(b.raw() + row * n, args.b + row * args.ldb,
                  sizeof(float) * static_cast<size_t>(n));
    }
  }
  return b;
}

class ReferenceSolver final : public Solver {
 public:
  const char* name() const override { return "reference"; }
  const char* span_name() const override { return "solver.reference"; }

  bool is_applicable(const ConvProblem& problem) const override {
    return forward_and_valid(problem);
  }

  double estimate(const ConvProblem& problem) const override {
    // The triple loop has no packing or tiling overhead but roughly half
    // the arithmetic throughput of the register-tiled kernel.
    return 1.0 * static_cast<double>(problem.macs());
  }

  void run(const ConvProblem& problem, const SolverArgs& args,
           const std::string& params) const override {
    (void)params;
    store_with_epilogue(t::matmul(*args.wmat, *args.columns), problem, args);
  }
};

/// Cache-blocked GEMM with searchable Mc/Kc/Nc.
class BlockedSolver final : public Solver {
 public:
  const char* name() const override { return "blocked"; }
  const char* span_name() const override { return "solver.blocked"; }

  bool is_applicable(const ConvProblem& problem) const override {
    // M must cover at least one register tile.
    return forward_and_valid(problem) &&
           problem.gemm_m() >= ag::kMicroTileRows;
  }

  double estimate(const ConvProblem& problem) const override {
    return 0.45 * static_cast<double>(problem.macs());
  }

  std::vector<std::string> search_space(
      const ConvProblem& problem) const override {
    (void)problem;
    // Mc/Nc shrink candidates for L1-resident small shapes. Kc is not
    // searched: it sets where the reduction splits into blocks, so every
    // candidate keeps the defaults' summation order and is bit-identical
    // to them at any reduction depth.
    return {"", "mc=64", "nc=1024", "mc=64,nc=1024"};
  }

  void run(const ConvProblem& problem, const SolverArgs& args,
           const std::string& params) const override {
    // Only Mc/Nc are tunable; Kc stays the default so a tuned record sums
    // in the same order as the heuristic binding.
    ag::BlockedGemmConfig config = ag::blocked_gemm_config();
    config.mc = parse_param(params, "mc", config.mc);
    config.nc = parse_param(params, "nc", config.nc);
    store_with_epilogue(
        ag::blocked_matmul(*args.wmat, *args.columns, config), problem, args);
  }
};

/// The fused inference fast path: pre-packed A panels, overwrite store,
/// epilogue applied in registers. Only binds where the caller holds packed
/// weights (the planned inference path's per-layer cache).
class PrepackedSolver final : public Solver {
 public:
  const char* name() const override { return "blocked_prepacked"; }
  const char* span_name() const override { return "solver.blocked_prepacked"; }

  bool is_applicable(const ConvProblem& problem) const override {
    return forward_and_valid(problem) &&
           ag::prepack_viable(problem.gemm_m(), problem.gemm_k());
  }

  bool wants_packed() const override { return true; }

  double estimate(const ConvProblem& problem) const override {
    // Cheapest applicable choice: no per-call A pack, no C zero-fill, and
    // the epilogue rides the register store.
    return 0.40 * static_cast<double>(problem.macs());
  }

  void run(const ConvProblem& problem, const SolverArgs& args,
           const std::string& params) const override {
    (void)params;
    ROADFUSION_CHECK(args.packed != nullptr,
                     "blocked_prepacked bound without packed weights");
    const int64_t n = args.columns->shape().dim(1);
    (void)problem;
    ag::gemm_prepacked(*args.packed, args.columns->raw(), n, n, args.out, n,
                       args.epi);
  }
};

/// True when the AVX2 kernels are both in the binary and allowed to execute
/// on this machine at the currently active dispatch tier (DESIGN.md §16).
/// Tier changes bump common::tier_generation(), which the binding cache
/// folds into its generation check, so applicability here can depend on the
/// active tier without stale bindings surviving a tier switch.
bool avx2_ready() {
  return ag::avx2_kernels_compiled() &&
         common::active_tier() >= common::CpuTier::kAvx2;
}

/// AVX2 fp32 kernel: 16x6 FMA register tile, per-call A pack, direct-B
/// streaming. FMA contracts each multiply-add, so outputs differ from the
/// SSE2 family within reassociation tolerance, so it is priced to never win
/// the heuristic and must earn selection through a measured DB record (or an
/// explicit force), keeping default-path numerics bit-stable across machines.
class BlockedAvx2Solver final : public Solver {
 public:
  const char* name() const override { return "blocked_avx2"; }
  const char* span_name() const override { return "solver.blocked_avx2"; }

  bool is_applicable(const ConvProblem& problem) const override {
    return forward_and_valid(problem) && avx2_ready();
  }

  double estimate(const ConvProblem& problem) const override {
    // Strictly above "reference", which applies wherever this does, so it
    // never wins the heuristic — not even at cout < 4, where "blocked"
    // drops out — and selection always comes from measurement.
    return 1.0 * static_cast<double>(problem.macs()) + 150000.0;
  }

  void run(const ConvProblem& problem, const SolverArgs& args,
           const std::string& params) const override {
    (void)params;
    const int64_t m = problem.gemm_m();
    const int64_t k = problem.gemm_k();
    const int64_t n = args.columns->shape().dim(1);
    // A-pack scratch rides a workspace-arena tensor on the planned path.
    Tensor apack =
        Tensor::uninitialized(t::Shape::vec(ag::avx2_apack_floats(m, k)));
    ag::avx2_gemm_infer(args.wmat->raw(), m, k, apack.raw(),
                        args.columns->raw(), n, n, args.out, n, args.epi);
  }
};

// ---------------------------------------------------------------------------
// Transposed-conv solvers: the decoder's columns = wmat^T (c, k*r*s) x
// input plane (c, h*w) GEMM. Each wraps one GEMM form; col2im + bias stay
// in the layer.
// ---------------------------------------------------------------------------

class TConvReferenceSolver final : public Solver {
 public:
  const char* name() const override { return "tconv_reference"; }
  const char* span_name() const override { return "solver.tconv_reference"; }

  bool is_applicable(const ConvProblem& problem) const override {
    return transposed_and_valid(problem);
  }

  double estimate(const ConvProblem& problem) const override {
    return 1.0 * static_cast<double>(problem.macs());
  }

  void run(const ConvProblem& problem, const SolverArgs& args,
           const std::string& params) const override {
    (void)params;
    ROADFUSION_CHECK(args.b != nullptr, "tconv_reference bound without B");
    const Tensor b = materialize_b(args, problem.gemm_k(), problem.gemm_n());
    store_with_epilogue(t::matmul_at(*args.wmat, b), problem, args);
  }
};

class TConvBlockedSolver final : public Solver {
 public:
  const char* name() const override { return "tconv_blocked"; }
  const char* span_name() const override { return "solver.tconv_blocked"; }

  bool is_applicable(const ConvProblem& problem) const override {
    return transposed_and_valid(problem) &&
           problem.gemm_m() >= ag::kMicroTileRows;
  }

  double estimate(const ConvProblem& problem) const override {
    return 0.45 * static_cast<double>(problem.macs());
  }

  void run(const ConvProblem& problem, const SolverArgs& args,
           const std::string& params) const override {
    (void)params;
    ROADFUSION_CHECK(args.b != nullptr, "tconv_blocked bound without B");
    const Tensor b = materialize_b(args, problem.gemm_k(), problem.gemm_n());
    store_with_epilogue(ag::blocked_matmul_at(*args.wmat, b), problem, args);
  }
};

class TConvPrepackedSolver final : public Solver {
 public:
  const char* name() const override { return "tconv_prepacked"; }
  const char* span_name() const override { return "solver.tconv_prepacked"; }

  bool is_applicable(const ConvProblem& problem) const override {
    return transposed_and_valid(problem) &&
           ag::prepack_viable(problem.gemm_m(), problem.gemm_k());
  }

  bool wants_packed() const override { return true; }

  double estimate(const ConvProblem& problem) const override {
    return 0.40 * static_cast<double>(problem.macs());
  }

  void run(const ConvProblem& problem, const SolverArgs& args,
           const std::string& params) const override {
    (void)params;
    ROADFUSION_CHECK(args.packed != nullptr && args.b != nullptr,
                     "tconv_prepacked bound without packed weights or B");
    const int64_t n = problem.gemm_n();
    ag::gemm_prepacked(*args.packed, args.b, args.ldb, n, args.out, n,
                       args.epi);
  }
};

}  // namespace

const std::vector<const Solver*>& solvers() {
  static const ReferenceSolver reference;
  static const BlockedSolver blocked;
  static const PrepackedSolver prepacked;
  static const BlockedAvx2Solver blocked_avx2;
  static const TConvReferenceSolver tconv_reference;
  static const TConvBlockedSolver tconv_blocked;
  static const TConvPrepackedSolver tconv_prepacked;
  static const std::vector<const Solver*> all{
      &reference,       &blocked,       &prepacked,      &blocked_avx2,
      &tconv_reference, &tconv_blocked, &tconv_prepacked};
  return all;
}

const Solver* find_solver(std::string_view name) {
  for (const Solver* solver : solvers()) {
    if (name == solver->name()) {
      return solver;
    }
  }
  return nullptr;
}

std::vector<const Solver*> applicable_solvers(const ConvProblem& problem,
                                              bool packed_available) {
  std::vector<const Solver*> result;
  for (const Solver* solver : solvers()) {
    if ((packed_available || !solver->wants_packed()) &&
        solver->is_applicable(problem)) {
      result.push_back(solver);
    }
  }
  return result;
}

std::vector<std::string> solver_names() {
  std::vector<std::string> names;
  names.reserve(solvers().size());
  for (const Solver* solver : solvers()) {
    names.emplace_back(solver->name());
  }
  return names;
}

}  // namespace roadfusion::tune
