#include "tune/solver.hpp"

#include <algorithm>
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

bool fp32_and_valid(const ConvProblem& problem) {
  return problem.dtype == "fp32" && !problem.transposed && problem.valid();
}

bool fp32_transposed(const ConvProblem& problem) {
  return problem.dtype == "fp32" && problem.transposed && problem.valid();
}

/// Int8 is offered for forward conv problems whose reduction depth keeps
/// the int32 accumulator exactly float-representable (see kMaxInt8Depth).
bool int8_and_valid(const ConvProblem& problem) {
  return problem.dtype == "int8" && !problem.transposed && problem.valid() &&
         problem.gemm_k() <= ag::kMaxInt8Depth;
}

/// The per-tensor activation scale of one int8 GEMM call: the calibrated
/// static scale when the caller has one, else the dynamic absmax of this
/// call's im2col matrix. Both int8 solvers share this (and the
/// quantize_value rounding), so their quantized operands — and, with exact
/// int32 accumulation, their outputs — are bit-identical.
float int8_activation_scale(const SolverArgs& args) {
  if (args.act_scale > 0.0f) {
    return args.act_scale;
  }
  return ag::quantize_scale(
      ag::tensor_absmax(args.columns->raw(), args.columns->numel()));
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
    return fp32_and_valid(problem);
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
    return fp32_and_valid(problem) && problem.gemm_m() >= ag::kMicroTileRows;
  }

  double estimate(const ConvProblem& problem) const override {
    return 0.45 * static_cast<double>(problem.macs());
  }

  std::vector<std::string> search_space(
      const ConvProblem& problem) const override {
    (void)problem;
    // Mc/Nc shrink candidates for L1-resident small shapes plus one larger
    // Kc. run() clamps kc back to >= the reduction depth, so every
    // candidate stays a single-Kc-block schedule — bit-identical to the
    // defaults.
    return {"", "mc=64", "nc=1024", "mc=64,nc=1024", "mc=64,kc=512"};
  }

  void run(const ConvProblem& problem, const SolverArgs& args,
           const std::string& params) const override {
    ag::BlockedGemmConfig config = ag::blocked_gemm_config();
    if (!params.empty()) {
      config.mc = parse_param(params, "mc", config.mc);
      config.nc = parse_param(params, "nc", config.nc);
      // Clamp to one Kc block: splitting the reduction would change the
      // accumulation order and break the bit-exactness contract.
      config.kc =
          std::max(parse_param(params, "kc", config.kc), problem.gemm_k());
    }
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
    return fp32_and_valid(problem) &&
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
    return fp32_and_valid(problem) && avx2_ready();
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
// Int8 solvers (DESIGN.md §13). Weights come pre-quantized from the layer
// cache (args.qweights); each run quantizes this call's activations at the
// shared per-tensor scale. Exact int32 accumulation makes the two variants
// bit-identical, so the int8 golden-mask hash is solver-independent.
// ---------------------------------------------------------------------------

class Int8ReferenceSolver final : public Solver {
 public:
  const char* name() const override { return "int8_reference"; }
  const char* span_name() const override { return "solver.int8_reference"; }

  bool is_applicable(const ConvProblem& problem) const override {
    return int8_and_valid(problem);
  }

  double estimate(const ConvProblem& problem) const override {
    return 1.0 * static_cast<double>(problem.macs());
  }

  void run(const ConvProblem& problem, const SolverArgs& args,
           const std::string& params) const override {
    (void)params;
    ROADFUSION_CHECK(args.qweights != nullptr,
                     "int8_reference bound without quantized weights");
    const int64_t k = problem.gemm_k();
    const int64_t n = args.columns->shape().dim(1);
    const float scale = int8_activation_scale(args);
    // The int8 image rides a float tensor (workspace-arena allocated on
    // the planned path): k*n bytes fit in ceil(k*n/4) floats.
    Tensor bq = Tensor::uninitialized(t::Shape::vec((k * n + 3) / 4));
    int8_t* bq_raw = reinterpret_cast<int8_t*>(bq.raw());
    ag::quantize_activations(args.columns->raw(), k * n, scale, bq_raw);
    ag::int8_gemm_reference(*args.qweights, bq_raw, n, scale, args.out,
                            args.epi);
  }
};

class Int8BlockedSolver final : public Solver {
 public:
  const char* name() const override { return "int8_blocked"; }
  const char* span_name() const override { return "solver.int8_blocked"; }

  bool is_applicable(const ConvProblem& problem) const override {
    return int8_and_valid(problem);
  }

  double estimate(const ConvProblem& problem) const override {
    // pmaddwd retires two k-steps per lane; markedly cheaper than any
    // fp32 path, but only int8 solvers ever compete on an int8 key.
    return 0.20 * static_cast<double>(problem.macs());
  }

  void run(const ConvProblem& problem, const SolverArgs& args,
           const std::string& params) const override {
    (void)params;
    ROADFUSION_CHECK(args.qweights != nullptr,
                     "int8_blocked bound without quantized weights");
    const int64_t k = problem.gemm_k();
    const int64_t n = args.columns->shape().dim(1);
    const float scale = int8_activation_scale(args);
    const int64_t units = ag::packed_activation_units(k, n);
    Tensor bpack = Tensor::uninitialized(t::Shape::vec(units));
    int32_t* bpack_raw = reinterpret_cast<int32_t*>(bpack.raw());
    ag::pack_activations_int8(args.columns->raw(), k, n, scale, bpack_raw);
    ag::int8_gemm_packed(*args.qweights, bpack_raw, n, scale, args.out,
                         args.epi);
  }
};

/// AVX2 int8 kernel: vpmaddubsw over sign-normalized operands, 32
/// reduction steps per YMM op. Accumulation is exact int32 (no saturation —
/// see gemm_avx2.hpp), and the activation quantization is the same
/// round-nearest-even sequence as quantize_value, so outputs are
/// bit-identical to both SSE2-era int8 solvers. Measured wins are
/// shape-dependent (the reduction depth pads to 32, so shallow convs waste
/// work, and the column-major activation pack is store-bound at large N), so
/// it is priced to never win the heuristic and must earn selection through a
/// measured DB record.
class Int8Avx2Solver final : public Solver {
 public:
  const char* name() const override { return "int8_avx2"; }
  const char* span_name() const override { return "solver.int8_avx2"; }

  bool is_applicable(const ConvProblem& problem) const override {
    return int8_and_valid(problem) && avx2_ready();
  }

  double estimate(const ConvProblem& problem) const override {
    // Strictly above int8_blocked for every problem size, so selection
    // always comes from measurement.
    return 0.20 * static_cast<double>(problem.macs()) + 150000.0;
  }

  void run(const ConvProblem& problem, const SolverArgs& args,
           const std::string& params) const override {
    (void)params;
    ROADFUSION_CHECK(args.qweights != nullptr,
                     "int8_avx2 bound without quantized weights");
    const int64_t k = problem.gemm_k();
    const int64_t n = args.columns->shape().dim(1);
    const float scale = int8_activation_scale(args);
    const int64_t bytes = ag::avx2_int8_packed_bytes(k, n);
    // The column-major int8 image rides a float tensor (workspace-arena
    // allocated on the planned path).
    Tensor bpack = Tensor::uninitialized(t::Shape::vec((bytes + 3) / 4));
    int8_t* bpack_raw = reinterpret_cast<int8_t*>(bpack.raw());
    ag::avx2_int8_pack_activations(args.columns->raw(), k, n,
                                   ag::quantize_inv(scale), bpack_raw);
    ag::avx2_int8_gemm(args.qweights->data.data(), args.qweights->scales.data(),
                       args.qweights->m, args.qweights->k, bpack_raw, n, scale,
                       args.out, args.epi);
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
    return fp32_transposed(problem);
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
    return fp32_transposed(problem) &&
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
    return fp32_transposed(problem) &&
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
  static const Int8ReferenceSolver int8_reference;
  static const Int8BlockedSolver int8_blocked;
  static const Int8Avx2Solver int8_avx2;
  static const TConvReferenceSolver tconv_reference;
  static const TConvBlockedSolver tconv_blocked;
  static const TConvPrepackedSolver tconv_prepacked;
  static const std::vector<const Solver*> all{
      &reference,      &blocked,      &prepacked,       &blocked_avx2,
      &int8_reference, &int8_blocked, &int8_avx2,       &tconv_reference,
      &tconv_blocked,  &tconv_prepacked};
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
