#include "roadseg/roadseg_net.hpp"

#include "autograd/ops.hpp"
#include "common/check.hpp"
#include "nn/module.hpp"
#include "obs/trace.hpp"
#include "roadseg/plan_hook.hpp"
#include "tensor/workspace.hpp"

namespace roadfusion::roadseg {

namespace ag = roadfusion::autograd;

RoadSegNet::RoadSegNet(const RoadSegConfig& config, Rng& rng)
    : config_(config) {
  ROADFUSION_CHECK(config.stage_channels.size() >= 2,
                   "RoadSegNet needs at least two stages");
  rgb_encoder_ = std::make_unique<Encoder>("rgb", config.rgb_channels,
                                           config.stage_channels, rng);
  if (core::uses_layer_sharing(config.scheme)) {
    depth_encoder_ = std::make_unique<Encoder>(
        "depth", config.depth_channels, config.stage_channels, *rgb_encoder_,
        resolved_share_from(), rng);
  } else {
    depth_encoder_ = std::make_unique<Encoder>(
        "depth", config.depth_channels, config.stage_channels, rng);
  }

  if (core::uses_fusion_filters(config.scheme)) {
    for (size_t i = 0; i < config.stage_channels.size(); ++i) {
      depth_to_rgb_filters_.emplace_back(
          "d2r.stage" + std::to_string(i), config.stage_channels[i], rng);
    }
    if (config.scheme == FusionScheme::kAllFilterB) {
      // No reverse filter at the deepest stage: the depth branch has no
      // further stage to consume the updated features.
      for (size_t i = 0; i + 1 < config.stage_channels.size(); ++i) {
        rgb_to_depth_filters_.emplace_back(
            "r2d.stage" + std::to_string(i), config.stage_channels[i], rng);
      }
    }
  }

  if (config.scheme == FusionScheme::kWeightedSharing) {
    awn_ = std::make_unique<core::AuxiliaryWeightNetwork>(
        "awn", config.stage_channels.back(), rng);
  }

  decoder_ = std::make_unique<Decoder>("decoder", config.stage_channels, rng);
}

int RoadSegNet::resolved_share_from() const {
  if (config_.share_from_stage >= 0) {
    return config_.share_from_stage;
  }
  // The paper shares the last convolutional stage.
  return static_cast<int>(config_.stage_channels.size()) - 1;
}

bool RoadSegNet::stage_is_shared(int stage) const {
  return core::uses_layer_sharing(config_.scheme) &&
         stage >= resolved_share_from();
}

void RoadSegNet::check_inputs(const tensor::Shape& rgb,
                              const tensor::Shape& depth,
                              float fusion_weight) const {
  SegmentationModel::check_inputs(rgb, depth, fusion_weight);
  const int64_t stride = int64_t{1} << (num_stages() - 1);
  ROADFUSION_CHECK(rgb.height() % stride == 0 && rgb.width() % stride == 0,
                   "input " << rgb.str()
                            << " not divisible by the network stride "
                            << stride);
}

ForwardResult RoadSegNet::forward(const autograd::Variable& rgb,
                                  const autograd::Variable& depth) const {
  return forward_fused(rgb, depth, 1.0f);
}

ForwardResult RoadSegNet::forward_fused(const autograd::Variable& rgb,
                                        const autograd::Variable& depth,
                                        float fusion_weight) const {
  check_inputs(rgb.shape(), depth.shape(), fusion_weight);
  const int stages = num_stages();

  ForwardResult result;
  std::vector<autograd::Variable> skips;
  autograd::Variable rgb_in = rgb;

  if (fusion_weight == 0.0f) {
    // RGB-only degraded mode: the depth branch is never executed and the
    // depth values are never read, so a NaN-poisoned tensor from a dead
    // sensor cannot contaminate the output. Each fusion point contributes
    // zero matched features (fused_i = r_i). The `rgb_only` span marks the
    // degraded path in traces; no `depth_encoder.*` span ever appears
    // inside it.
    obs::ScopedSpan rgb_only_span("rgb_only");
    for (int stage = 0; stage < stages; ++stage) {
      obs::ScopedSpan stage_span("rgb_encoder.stage", stage);
      const autograd::Variable r_i =
          rgb_encoder_->forward_stage(stage, rgb_in);
      result.fusion_pairs.emplace_back(
          r_i, autograd::Variable::constant(
                   tensor::Tensor(r_i.shape())));
      skips.push_back(r_i);
      rgb_in = r_i;
    }
    obs::ScopedSpan decoder_span("decoder");
    result.logits = decoder_->forward(skips);
    return result;
  }

  autograd::Variable depth_in = depth;
  for (int stage = 0; stage < stages; ++stage) {
    autograd::Variable r_i, d_i;
    {
      obs::ScopedSpan stage_span("rgb_encoder.stage", stage);
      r_i = rgb_encoder_->forward_stage(stage, rgb_in);
    }
    {
      obs::ScopedSpan stage_span("depth_encoder.stage", stage);
      d_i = depth_encoder_->forward_stage(stage, depth_in);
    }

    // Every scheme reduces to fused_i = r_i + matched_i; the schemes
    // differ only in how `matched` is derived from d_i (identity, fusion
    // filter, AWN weighting) and whether the depth branch is updated in
    // reverse (AllFilter_B).
    obs::ScopedSpan fusion_span("fusion.stage", stage);
    autograd::Variable matched = d_i;
    autograd::Variable next_depth = d_i;
    switch (config_.scheme) {
      case FusionScheme::kBaseline:
      case FusionScheme::kBaseSharing:
        break;
      case FusionScheme::kAllFilterU:
        matched = depth_to_rgb_filters_[static_cast<size_t>(stage)].match(d_i);
        break;
      case FusionScheme::kAllFilterB: {
        matched = depth_to_rgb_filters_[static_cast<size_t>(stage)].match(d_i);
        if (stage < stages - 1) {
          const autograd::Variable matched_rgb =
              rgb_to_depth_filters_[static_cast<size_t>(stage)].match(r_i);
          next_depth = ag::add(d_i, matched_rgb);
        }
        break;
      }
      case FusionScheme::kWeightedSharing: {
        if (stage == stages - 1) {
          obs::ScopedSpan awn_span("awn.weight");
          const autograd::Variable w = awn_->weight(r_i, d_i);
          result.awn_weight = w;
          matched = ag::scale_per_sample(d_i, w);
        }
        break;
      }
    }

    // The serving-time fusion weight composes with the scheme's own
    // matching (including the AWN weight); at 1 the extra scale is
    // skipped so the path stays bit-identical to the plain forward.
    const autograd::Variable fused_rgb =
        fusion_weight == 1.0f
            ? ag::add(r_i, matched)
            : ag::add(r_i, ag::scale(matched, fusion_weight));
    result.fusion_pairs.emplace_back(r_i, matched);
    skips.push_back(fused_rgb);
    rgb_in = fused_rgb;
    depth_in = next_depth;
  }

  obs::ScopedSpan decoder_span("decoder");
  result.logits = decoder_->forward(skips);
  return result;
}

std::shared_ptr<void> RoadSegNet::inference_plan() const {
  if (training_) {
    return nullptr;
  }
  const uint64_t epoch = nn::current_inference_epoch();
  const std::shared_ptr<const PlanBinding> bound = std::atomic_load(&plan_);
  if (bound != nullptr && bound->epoch == epoch) {
    return bound->state;
  }
  const PlanHooks hooks = plan_hooks();
  if (hooks.build == nullptr) {
    return nullptr;
  }
  // The plan snapshots the weights and eval-BN statistics of this epoch;
  // it outlives any forward pass, so keep it out of the arena.
  const tensor::NoWorkspaceScope no_pool;
  auto fresh = std::make_shared<PlanBinding>();
  fresh->epoch = epoch;
  fresh->state = hooks.build(*this);
  std::atomic_store(&plan_, std::shared_ptr<const PlanBinding>(fresh));
  return fresh->state;
}

nn::Complexity RoadSegNet::complexity(int64_t height, int64_t width) const {
  nn::Complexity total;
  // Encoders: MACs for both branches (shared stages still execute twice).
  for (int stage = 0; stage < num_stages(); ++stage) {
    const int64_t in_h = Encoder::stage_extent(stage == 0 ? 0 : stage - 1,
                                               height);
    const int64_t in_w = Encoder::stage_extent(stage == 0 ? 0 : stage - 1,
                                               width);
    const nn::Complexity rgb_stage =
        rgb_encoder_->stage_complexity(stage, in_h, in_w);
    const nn::Complexity depth_stage =
        depth_encoder_->stage_complexity(stage, in_h, in_w);
    total.macs += rgb_stage.macs + depth_stage.macs;
  }
  for (size_t i = 0; i < depth_to_rgb_filters_.size(); ++i) {
    const int stage = static_cast<int>(i);
    const int64_t h = Encoder::stage_extent(stage, height);
    const int64_t w = Encoder::stage_extent(stage, width);
    total.macs += depth_to_rgb_filters_[i].complexity(h, w).macs;
  }
  for (size_t i = 0; i < rgb_to_depth_filters_.size(); ++i) {
    const int stage = static_cast<int>(i);
    const int64_t h = Encoder::stage_extent(stage, height);
    const int64_t w = Encoder::stage_extent(stage, width);
    total.macs += rgb_to_depth_filters_[i].complexity(h, w).macs;
  }
  if (awn_) {
    total.macs += awn_->complexity().macs;
  }
  total.macs += decoder_->complexity(height, width).macs;
  // Parameters: deduplicated count — this is where Layer-sharing pays off.
  total.params = parameter_count();
  return total;
}

void RoadSegNet::collect_parameters(std::vector<nn::ParameterPtr>& out) const {
  rgb_encoder_->collect_parameters(out);
  depth_encoder_->collect_parameters(out);
  for (const auto& filter : depth_to_rgb_filters_) {
    filter.collect_parameters(out);
  }
  for (const auto& filter : rgb_to_depth_filters_) {
    filter.collect_parameters(out);
  }
  if (awn_) {
    awn_->collect_parameters(out);
  }
  decoder_->collect_parameters(out);
}

void RoadSegNet::collect_state(const std::string& prefix,
                               std::vector<nn::StateEntry>& out) {
  rgb_encoder_->collect_state(prefix, out);
  depth_encoder_->collect_state(prefix, out);
  for (auto& filter : depth_to_rgb_filters_) {
    filter.collect_state(prefix, out);
  }
  for (auto& filter : rgb_to_depth_filters_) {
    filter.collect_state(prefix, out);
  }
  if (awn_) {
    awn_->collect_state(prefix, out);
  }
  decoder_->collect_state(prefix, out);
}

void RoadSegNet::set_training(bool training) {
  training_ = training;
  rgb_encoder_->set_training(training);
  depth_encoder_->set_training(training);
  decoder_->set_training(training);
}

}  // namespace roadfusion::roadseg
