#include "nn/layers.hpp"

#include <atomic>
#include <cmath>

#include "autograd/kernels.hpp"
#include "common/check.hpp"
#include "obs/metrics.hpp"
#include "quant/runtime.hpp"
#include "tensor/ops.hpp"
#include "tensor/workspace.hpp"
#include "tune/dispatch.hpp"

namespace roadfusion::nn {
namespace {

namespace kernels = roadfusion::autograd::kernels;
namespace t = roadfusion::tensor;

/// He-normal initialization: stddev = sqrt(2 / fan_in).
Tensor he_normal(const Shape& shape, int64_t fan_in, Rng& rng) {
  ROADFUSION_CHECK(fan_in > 0, "he_normal: non-positive fan-in");
  const float stddev = std::sqrt(2.0f / static_cast<float>(fan_in));
  return Tensor::normal(shape, rng, 0.0f, stddev);
}

// Pre-pack cache effectiveness counters (DESIGN.md §11): a hit is a conv
// inference call served by the fused pre-packed path, a miss ran an unpacked
// solver (a forced one, or a weight too large for a single cache block).
// References cached so the hot path pays one atomic increment, not a
// registry lookup.
obs::Counter& prepack_hits() {
  static obs::Counter& counter = obs::MetricsRegistry::global().counter(
      "roadfusion_prepack_hits",
      "Conv inference calls served by the pre-packed weight cache");
  return counter;
}

obs::Counter& prepack_misses() {
  static obs::Counter& counter = obs::MetricsRegistry::global().counter(
      "roadfusion_prepack_misses",
      "Conv inference calls served by an unpacked solver");
  return counter;
}

// Conv inference calls served by the int8 quantized solvers (neither a
// prepack hit nor a miss — quantized weights are their own cache).
obs::Counter& int8_convs() {
  static obs::Counter& counter = obs::MetricsRegistry::global().counter(
      "roadfusion_int8_conv_total",
      "Conv inference calls served by the int8 quantized path");
  return counter;
}

// Eager registration so the counters show up in metrics dumps (and keep a
// stable zero) even before the first inference call.
[[maybe_unused]] const bool prepack_counters_registered = [] {
  prepack_hits();
  prepack_misses();
  int8_convs();
  return true;
}();

}  // namespace

// ---------------------------------------------------------------------------
// Conv2d
// ---------------------------------------------------------------------------

Conv2d::Conv2d(const std::string& name, int64_t in_channels,
               int64_t out_channels, int64_t kernel, int64_t stride,
               int64_t padding, bool bias, Rng& rng)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      geom_{kernel, stride, padding} {
  ROADFUSION_CHECK(in_channels > 0 && out_channels > 0 && kernel > 0 &&
                       stride > 0 && padding >= 0,
                   "Conv2d '" << name << "': invalid geometry");
  const int64_t fan_in = in_channels * kernel * kernel;
  weight_ = std::make_shared<Parameter>(
      name + ".weight",
      he_normal(Shape::nchw(out_channels, in_channels, kernel, kernel), fan_in,
                rng));
  if (bias) {
    bias_ = std::make_shared<Parameter>(name + ".bias",
                                        Tensor::zeros(Shape::vec(out_channels)));
  }
}

Conv2d::Conv2d(const std::string& name, const Conv2d& other)
    : in_channels_(other.in_channels_),
      out_channels_(other.out_channels_),
      geom_(other.geom_),
      weight_(other.weight_),
      bias_(other.bias_) {
  (void)name;  // the shared parameters keep their original names
}

Variable Conv2d::forward(const Variable& x) const {
  return autograd::conv2d(x, weight_->var,
                          bias_ ? bias_->var : Variable(), geom_);
}

std::shared_ptr<const Conv2d::InferCache> Conv2d::infer_cache() const {
  const uint64_t epoch = current_inference_epoch();
  const bool quant_on = quant::enabled();
  std::shared_ptr<const InferCache> cache = std::atomic_load(&cache_);
  if (cache != nullptr && cache->epoch == epoch &&
      cache->quantized == quant_on) {
    return cache;
  }
  // Cache tensors outlive any forward pass, so they must not draw from
  // the ambient inference pool.
  t::NoWorkspaceScope no_pool;
  const int64_t ckk = in_channels_ * geom_.kernel * geom_.kernel;
  auto fresh = std::make_shared<InferCache>();
  fresh->epoch = epoch;
  fresh->wmat =
      weight_->var.value().reshaped(Shape::mat(out_channels_, ckk));
  if (kernels::prepack_viable(out_channels_, ckk)) {
    fresh->packed =
        kernels::prepack_a(fresh->wmat.raw(), ckk, 1, out_channels_, ckk);
    fresh->prepacked = true;
  }
  fresh->quantized = quant_on;
  if (quant_on && ckk <= kernels::kMaxInt8Depth) {
    fresh->qweights =
        kernels::quantize_weights(fresh->wmat.raw(), out_channels_, ckk);
  }
  std::shared_ptr<const InferCache> ready = std::move(fresh);
  std::atomic_store(&cache_, ready);
  return ready;
}

void Conv2d::prepare_inference() { infer_cache(); }

Tensor Conv2d::forward_infer(const Tensor& x,
                             autograd::kernels::ConvEpilogue epi) const {
  ROADFUSION_CHECK(x.shape().rank() == 4 &&
                       x.shape().channels() == in_channels_,
                   "Conv2d::forward_infer: bad input " << x.shape().str());
  const int64_t batch = x.shape().batch();
  const int64_t h = x.shape().height();
  const int64_t w = x.shape().width();
  const int64_t out_h = geom_.out_extent(h);
  const int64_t out_w = geom_.out_extent(w);
  const int64_t out_plane = out_h * out_w;
  const std::shared_ptr<const InferCache> cache = infer_cache();
  epi.bias = bias_ ? bias_->var.value().raw() : nullptr;
  const bool has_epi =
      epi.bias != nullptr || epi.bn_mean != nullptr || epi.relu;
  Tensor out = Tensor::uninitialized(
      Shape::nchw(batch, out_channels_, out_h, out_w));
  // Per-shape solver binding (src/tune): forced solver > perf DB record >
  // heuristic. The binding is cached per problem, so the steady state pays
  // one hash lookup — no allocation. GEMMs run per sample, so the problem
  // is keyed with n = 1.
  tune::ConvProblem problem;
  problem.c = in_channels_;
  problem.h = h;
  problem.w = w;
  problem.k = out_channels_;
  problem.r = geom_.kernel;
  problem.s = geom_.kernel;
  problem.stride = geom_.stride;
  problem.pad = geom_.padding;
  // Calibration (fp32 passes only) and calibrated static scales both key
  // on the CANONICAL fp32 problem string — the scale table identifies a
  // layer's activation tensor, which does not depend on the serving dtype,
  // so the key is built before the int8 re-keying below. Built once per
  // forward, off the fp32 fast path.
  const bool use_int8 = cache->quantized && cache->qweights.m > 0;
  const bool calibrate = !use_int8 && quant::calibrating();
  std::string problem_key;
  if (calibrate || (use_int8 && quant::scale_table_size() > 0)) {
    problem_key = problem.key();
  }
  // Quantized mode: key the problem as int8 so the int8 solvers bind.
  // The reduction-depth guard matches quantize_weights' envelope; a layer
  // outside it simply stays fp32.
  if (use_int8) {
    problem.dtype = "int8";
  }
  const float act_scale =
      use_int8 && !problem_key.empty() ? quant::activation_scale(problem_key)
                                       : 0.0f;
  const std::shared_ptr<const tune::Binding> binding =
      tune::bind(problem, cache->prepacked);
  tune::SolverArgs args;
  args.wmat = &cache->wmat;
  args.packed = cache->prepacked ? &cache->packed : nullptr;
  args.epi = has_epi ? &epi : nullptr;
  args.qweights = use_int8 ? &cache->qweights : nullptr;
  args.act_scale = act_scale;
  // "Hit" keeps its DESIGN.md §11 meaning: served by the fused pre-packed
  // path (which only the prepacked solver runs); int8 calls count on their
  // own meter.
  obs::Counter& counter = use_int8 ? int8_convs()
                          : binding->solver->wants_packed() ? prepack_hits()
                                                            : prepack_misses();
  for (int64_t s = 0; s < batch; ++s) {
    const Tensor columns = kernels::im2col(
        x.raw() + s * in_channels_ * h * w, in_channels_, h, w, geom_);
    if (calibrate) {
      quant::observe_activation(
          problem_key, kernels::tensor_absmax(columns.raw(), columns.numel()));
    }
    args.columns = &columns;
    args.out = out.raw() + s * out_channels_ * out_plane;
    tune::run(*binding, problem, args);
    counter.inc();
  }
  return out;
}

void Conv2d::collect_parameters(std::vector<ParameterPtr>& out) const {
  out.push_back(weight_);
  if (bias_) {
    out.push_back(bias_);
  }
}

void Conv2d::collect_state(const std::string& prefix,
                           std::vector<StateEntry>& out) {
  out.push_back({prefix + weight_->name, &weight_->var.mutable_value()});
  if (bias_) {
    out.push_back({prefix + bias_->name, &bias_->var.mutable_value()});
  }
}

Complexity Conv2d::complexity(int64_t in_h, int64_t in_w) const {
  const int64_t out_h = geom_.out_extent(in_h);
  const int64_t out_w = geom_.out_extent(in_w);
  Complexity c;
  c.macs = out_channels_ * in_channels_ * geom_.kernel * geom_.kernel * out_h *
           out_w;
  c.params = weight_->var.value().numel() +
             (bias_ ? bias_->var.value().numel() : 0);
  return c;
}

// ---------------------------------------------------------------------------
// ConvTranspose2d
// ---------------------------------------------------------------------------

ConvTranspose2d::ConvTranspose2d(const std::string& name, int64_t in_channels,
                                 int64_t out_channels, int64_t kernel,
                                 int64_t stride, int64_t padding, bool bias,
                                 Rng& rng)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      geom_{kernel, stride, padding} {
  ROADFUSION_CHECK(in_channels > 0 && out_channels > 0 && kernel > 0 &&
                       stride > 0 && padding >= 0,
                   "ConvTranspose2d '" << name << "': invalid geometry");
  const int64_t fan_in = in_channels * kernel * kernel;
  weight_ = std::make_shared<Parameter>(
      name + ".weight",
      he_normal(Shape::nchw(in_channels, out_channels, kernel, kernel), fan_in,
                rng));
  if (bias) {
    bias_ = std::make_shared<Parameter>(name + ".bias",
                                        Tensor::zeros(Shape::vec(out_channels)));
  }
}

Variable ConvTranspose2d::forward(const Variable& x) const {
  return autograd::conv_transpose2d(x, weight_->var,
                                    bias_ ? bias_->var : Variable(), geom_);
}

std::shared_ptr<const ConvTranspose2d::InferCache>
ConvTranspose2d::infer_cache() const {
  const uint64_t epoch = current_inference_epoch();
  std::shared_ptr<const InferCache> cache = std::atomic_load(&cache_);
  if (cache != nullptr && cache->epoch == epoch) {
    return cache;
  }
  t::NoWorkspaceScope no_pool;
  const int64_t ckk = out_channels_ * geom_.kernel * geom_.kernel;
  auto fresh = std::make_shared<InferCache>();
  fresh->epoch = epoch;
  fresh->wmat = weight_->var.value().reshaped(Shape::mat(in_channels_, ckk));
  if (kernels::prepack_viable(ckk, in_channels_)) {
    // A^T view of the (Cin, Cout*K*K) matrix: logical (ckk, cin) with
    // row stride 1 — exactly what blocked_matmul_at feeds pack_a.
    fresh->packed =
        kernels::prepack_a(fresh->wmat.raw(), 1, ckk, ckk, in_channels_);
    fresh->prepacked = true;
  }
  std::shared_ptr<const InferCache> ready = std::move(fresh);
  std::atomic_store(&cache_, ready);
  return ready;
}

void ConvTranspose2d::prepare_inference() { infer_cache(); }

Tensor ConvTranspose2d::forward_infer(const Tensor& x) const {
  ROADFUSION_CHECK(x.shape().rank() == 4 &&
                       x.shape().channels() == in_channels_,
                   "ConvTranspose2d::forward_infer: bad input "
                       << x.shape().str());
  const int64_t batch = x.shape().batch();
  const int64_t h = x.shape().height();
  const int64_t w = x.shape().width();
  const int64_t out_h = geom_.transposed_out_extent(h);
  const int64_t out_w = geom_.transposed_out_extent(w);
  const int64_t in_plane = h * w;
  const int64_t out_plane = out_h * out_w;
  const int64_t ckk = out_channels_ * geom_.kernel * geom_.kernel;
  const std::shared_ptr<const InferCache> cache = infer_cache();
  // Transposed problems dispatch through the solver registry like forward
  // convs (tconv_* solvers); the raw B pointer keeps the prepacked
  // solver's zero-copy plane-in-place path.
  tune::ConvProblem problem;
  problem.transposed = true;
  problem.c = in_channels_;
  problem.h = h;
  problem.w = w;
  problem.k = out_channels_;
  problem.r = geom_.kernel;
  problem.s = geom_.kernel;
  problem.stride = geom_.stride;
  problem.pad = geom_.padding;
  const std::shared_ptr<const tune::Binding> binding =
      tune::bind(problem, cache->prepacked);
  // col2im accumulates, so the output must start zeroed.
  Tensor out(Shape::nchw(batch, out_channels_, out_h, out_w));
  for (int64_t s = 0; s < batch; ++s) {
    const float* x_plane = x.raw() + s * in_channels_ * in_plane;
    Tensor columns = Tensor::uninitialized(Shape::mat(ckk, in_plane));
    tune::SolverArgs args;
    args.wmat = &cache->wmat;
    args.packed = cache->prepacked ? &cache->packed : nullptr;
    args.b = x_plane;
    args.ldb = in_plane;
    args.out = columns.raw();
    tune::run(*binding, problem, args);
    (binding->solver->wants_packed() ? prepack_hits() : prepack_misses())
        .inc();
    kernels::col2im_accumulate(columns, out_channels_, out_h, out_w, geom_,
                               out.raw() + s * out_channels_ * out_plane);
    if (bias_) {
      const float* pb = bias_->var.value().raw();
      float* dst = out.raw() + s * out_channels_ * out_plane;
      for (int64_t c = 0; c < out_channels_; ++c) {
        float* row = dst + c * out_plane;
        for (int64_t i = 0; i < out_plane; ++i) {
          row[i] += pb[c];
        }
      }
    }
  }
  return out;
}

void ConvTranspose2d::collect_parameters(std::vector<ParameterPtr>& out) const {
  out.push_back(weight_);
  if (bias_) {
    out.push_back(bias_);
  }
}

void ConvTranspose2d::collect_state(const std::string& prefix,
                                    std::vector<StateEntry>& out) {
  out.push_back({prefix + weight_->name, &weight_->var.mutable_value()});
  if (bias_) {
    out.push_back({prefix + bias_->name, &bias_->var.mutable_value()});
  }
}

Complexity ConvTranspose2d::complexity(int64_t in_h, int64_t in_w) const {
  Complexity c;
  // Each input location contributes Cin*Cout*K*K multiply-accumulates.
  c.macs = in_channels_ * out_channels_ * geom_.kernel * geom_.kernel * in_h *
           in_w;
  c.params = weight_->var.value().numel() +
             (bias_ ? bias_->var.value().numel() : 0);
  return c;
}

// ---------------------------------------------------------------------------
// BatchNorm2d
// ---------------------------------------------------------------------------

BatchNorm2d::BatchNorm2d(const std::string& name, int64_t channels)
    : channels_(channels) {
  ROADFUSION_CHECK(channels > 0, "BatchNorm2d '" << name << "': bad channels");
  gamma_ = std::make_shared<Parameter>(name + ".gamma",
                                       Tensor::ones(Shape::vec(channels)));
  beta_ = std::make_shared<Parameter>(name + ".beta",
                                      Tensor::zeros(Shape::vec(channels)));
  state_ = std::make_shared<autograd::BatchNormState>();
  state_->running_mean = Tensor::zeros(Shape::vec(channels));
  state_->running_var = Tensor::ones(Shape::vec(channels));
}

BatchNorm2d::BatchNorm2d(const std::string& name, const BatchNorm2d& other)
    : channels_(other.channels_),
      gamma_(other.gamma_),
      beta_(other.beta_),
      state_(other.state_),
      training_(other.training_) {
  (void)name;
}

Variable BatchNorm2d::forward(const Variable& x) const {
  return autograd::batch_norm2d(x, gamma_->var, beta_->var, state_, training_);
}

std::shared_ptr<const BatchNorm2d::InferParams>
BatchNorm2d::infer_params() const {
  const uint64_t epoch = current_inference_epoch();
  std::shared_ptr<const InferParams> cache = std::atomic_load(&cache_);
  if (cache != nullptr && cache->epoch == epoch) {
    return cache;
  }
  t::NoWorkspaceScope no_pool;
  auto fresh = std::make_shared<InferParams>();
  fresh->epoch = epoch;
  fresh->invstd = Tensor::uninitialized(Shape::vec(channels_));
  // Exactly the batch_norm2d eval formula (float eps promoted to double),
  // so the fused affine reproduces the op's bits.
  const float eps = 1e-5f;
  float* inv = fresh->invstd.raw();
  for (int64_t c = 0; c < channels_; ++c) {
    inv[c] = static_cast<float>(
        1.0 / std::sqrt(static_cast<double>(state_->running_var.at(c)) +
                        eps));
  }
  std::shared_ptr<const InferParams> ready = std::move(fresh);
  std::atomic_store(&cache_, ready);
  return ready;
}

std::shared_ptr<const BatchNorm2d::InferParams> BatchNorm2d::fill_epilogue(
    autograd::kernels::ConvEpilogue& epi) const {
  ROADFUSION_CHECK(!training_,
                   "BatchNorm2d epilogue fusion requires eval mode");
  std::shared_ptr<const InferParams> params = infer_params();
  epi.bn_mean = state_->running_mean.raw();
  epi.bn_invstd = params->invstd.raw();
  epi.bn_gamma = gamma_->var.value().raw();
  epi.bn_beta = beta_->var.value().raw();
  return params;
}

void BatchNorm2d::prepare_inference() {
  if (!training_) {
    infer_params();
  }
}

void BatchNorm2d::collect_parameters(std::vector<ParameterPtr>& out) const {
  out.push_back(gamma_);
  out.push_back(beta_);
}

void BatchNorm2d::collect_state(const std::string& prefix,
                                std::vector<StateEntry>& out) {
  out.push_back({prefix + gamma_->name, &gamma_->var.mutable_value()});
  out.push_back({prefix + beta_->name, &beta_->var.mutable_value()});
  out.push_back({prefix + gamma_->name + ".running_mean",
                 &state_->running_mean});
  out.push_back({prefix + gamma_->name + ".running_var",
                 &state_->running_var});
}

void BatchNorm2d::set_training(bool training) {
  if (training != training_) {
    // Training forwards mutate the running statistics the cached invstd
    // was derived from; mode flips are the cheap place to invalidate.
    invalidate_inference_caches();
  }
  training_ = training;
}

Complexity BatchNorm2d::complexity(int64_t in_h, int64_t in_w) const {
  Complexity c;
  c.macs = 2 * channels_ * in_h * in_w;
  c.params = 2 * channels_;
  return c;
}

// ---------------------------------------------------------------------------
// Linear
// ---------------------------------------------------------------------------

Linear::Linear(const std::string& name, int64_t in_features,
               int64_t out_features, bool bias, Rng& rng)
    : in_features_(in_features), out_features_(out_features) {
  ROADFUSION_CHECK(in_features > 0 && out_features > 0,
                   "Linear '" << name << "': bad dimensions");
  weight_ = std::make_shared<Parameter>(
      name + ".weight",
      he_normal(Shape::mat(out_features, in_features), in_features, rng));
  if (bias) {
    bias_ = std::make_shared<Parameter>(
        name + ".bias", Tensor::zeros(Shape::vec(out_features)));
  }
}

Variable Linear::forward(const Variable& x) const {
  return autograd::linear(x, weight_->var, bias_ ? bias_->var : Variable());
}

Tensor Linear::forward_infer(const Tensor& x) const {
  ROADFUSION_CHECK(x.shape().rank() == 2 &&
                       x.shape().dim(1) == in_features_,
                   "Linear::forward_infer: bad input " << x.shape().str());
  // Same arithmetic as the linear op's forward: x @ W^T, then bias rows.
  Tensor out = t::matmul_bt(x, weight_->var.value());
  if (bias_) {
    const int64_t batch = x.shape().dim(0);
    const float* pb = bias_->var.value().raw();
    float* po = out.raw();
    for (int64_t s = 0; s < batch; ++s) {
      for (int64_t o = 0; o < out_features_; ++o) {
        po[s * out_features_ + o] += pb[o];
      }
    }
  }
  return out;
}

void Linear::collect_parameters(std::vector<ParameterPtr>& out) const {
  out.push_back(weight_);
  if (bias_) {
    out.push_back(bias_);
  }
}

void Linear::collect_state(const std::string& prefix,
                           std::vector<StateEntry>& out) {
  out.push_back({prefix + weight_->name, &weight_->var.mutable_value()});
  if (bias_) {
    out.push_back({prefix + bias_->name, &bias_->var.mutable_value()});
  }
}

Complexity Linear::complexity() const {
  Complexity c;
  c.macs = in_features_ * out_features_;
  c.params = weight_->var.value().numel() +
             (bias_ ? bias_->var.value().numel() : 0);
  return c;
}

}  // namespace roadfusion::nn
