// SegmentationModel: the common interface of every two-modality road
// segmentation network in this repository — the middle-fusion RoadSegNet
// (the paper's subject) and the early/late-fusion baselines from the
// paper's background section. The trainer and evaluator operate on this
// interface, so every fusion family can be trained and scored through one
// pipeline.
#pragma once

#include <utility>
#include <vector>

#include "nn/layers.hpp"

namespace roadfusion::roadseg {

/// Everything a forward pass produces.
struct ForwardResult {
  autograd::Variable logits;  ///< (N, 1, H, W) road logits
  /// Per-stage (rgb features, matched depth features) — the stacks summed
  /// at each fusion point. Empty for architectures without middle-fusion
  /// points (early / late fusion).
  std::vector<std::pair<autograd::Variable, autograd::Variable>> fusion_pairs;
  /// AWN per-sample weights (N, 1); defined only for WeightedSharing.
  autograd::Variable awn_weight;
};

/// Cross-frame depth-feature cache for streaming inference. A stream
/// session owns one cache per model; when the depth input is bitwise
/// unchanged from the frame that populated it (LiDAR refreshes slower
/// than the camera), `predict_stream` runs the compiled plan's stream-hit
/// schedule, which skips the depth encoder and fuses the cached features
/// instead — bit-identical to the full pass. The slots live on the heap
/// (not a workspace arena), so the cache survives across predict calls;
/// repopulation writes into the existing buffers when the schedule
/// matches, keeping steady state zero-alloc.
struct StreamFeatureCache {
  bool valid = false;
  /// The depth-branch input of every fusion step as NCHWc8 planes
  /// (DESIGN.md §16): raw d_i for summation schemes, post-filter features
  /// for AllFilter_U, and for WeightedSharing the unscaled deepest depth
  /// features the AWN reads.
  std::vector<tensor::Tensor> slots;
  int64_t hits = 0;
  int64_t misses = 0;

  void invalidate() { valid = false; }
};

/// Abstract two-input segmentation network.
class SegmentationModel : public nn::Module {
 public:
  /// Forward pass. rgb: (N, 3, H, W); depth: (N, C_d, H, W).
  virtual ForwardResult forward(const autograd::Variable& rgb,
                                const autograd::Variable& depth) const = 0;

  /// Forward pass with the depth contribution scaled by `fusion_weight`
  /// in [0, 1] — the serving-time analogue of the paper's AWN scalar
  /// fusion weight. Contract: fusion_weight == 1 is exactly `forward`;
  /// fusion_weight == 0 is the RGB-only degraded mode and MUST NOT read
  /// `depth`'s values (the caller may pass NaN-poisoned data from a dead
  /// sensor). The default neutralizes the depth input itself (zeros at
  /// weight 0, a scaled copy otherwise); networks with explicit fusion
  /// points override this to weight each point instead.
  virtual ForwardResult forward_fused(const autograd::Variable& rgb,
                                      const autograd::Variable& depth,
                                      float fusion_weight) const;

  /// MAC / parameter budget for the given input size.
  virtual nn::Complexity complexity(int64_t height, int64_t width) const = 0;

  /// Throws unless rgb / depth are NCHW with matching batch and spatial
  /// extent and fusion_weight is in [0, 1]; a model with further input
  /// constraints (RoadSegNet: extents divisible by its stride) adds them.
  /// The contract every path serving the model shares, so a server can
  /// reject a request before queueing it.
  virtual void check_inputs(const tensor::Shape& rgb,
                            const tensor::Shape& depth,
                            float fusion_weight) const;

  /// The (N, 1, H, W) logits every predict serves, before the sigmoid;
  /// rank-3 (C, H, W) inputs are read as batch 1. `cache` (may be null)
  /// carries depth features across stream frames for a model that can
  /// reuse them. Default: the autograd graph, which invalidates `cache`.
  /// RoadSegNet overrides it to run its compiled plan in eval mode.
  virtual tensor::Tensor inference_logits(const tensor::Tensor& rgb,
                                          const tensor::Tensor& depth,
                                          float fusion_weight,
                                          StreamFeatureCache* cache,
                                          bool depth_unchanged) const;

  /// Builds whatever serving state the model has up front, so serving
  /// threads never race its lazy build on a first predict. Call after
  /// set_training(false). Default: nothing to build.
  virtual void prepare_inference() const {}

  /// Convenience inference: accepts CHW or NCHW tensors and returns road
  /// probabilities of matching rank. Call set_training(false) first.
  tensor::Tensor predict(const tensor::Tensor& rgb,
                         const tensor::Tensor& depth) const;

  /// `predict` through `forward_fused`; fusion_weight = 0 serves RGB-only
  /// without reading depth values (safe for corrupt depth tensors).
  tensor::Tensor predict_fused(const tensor::Tensor& rgb,
                               const tensor::Tensor& depth,
                               float fusion_weight) const;

  /// `predict_fused` with frame-to-frame depth features flowing through
  /// `cache`: same CHW/NCHW handling and bit-identical probabilities.
  /// When `depth_unchanged` is true and `cache` holds features for this
  /// schedule, the depth encoder is skipped. On the graph (training mode,
  /// the early/late-fusion baselines), or for schemes whose depth branch
  /// reads RGB features (AllFilter_B), it is `predict_fused` and the
  /// cache is invalidated.
  tensor::Tensor predict_stream(const tensor::Tensor& rgb,
                                const tensor::Tensor& depth,
                                float fusion_weight,
                                StreamFeatureCache& cache,
                                bool depth_unchanged) const;
};

}  // namespace roadfusion::roadseg
