#include "roadseg/decoder.hpp"

#include "autograd/ops.hpp"
#include "common/check.hpp"
#include "obs/trace.hpp"

namespace roadfusion::roadseg {

Decoder::Decoder(const std::string& name,
                 const std::vector<int64_t>& stage_channels, Rng& rng)
    : stage_channels_(stage_channels),
      head_(name + ".head", stage_channels.at(0), 1, /*kernel=*/1,
            /*stride=*/1, /*padding=*/0, /*bias=*/true, rng) {
  ROADFUSION_CHECK(stage_channels.size() >= 2,
                   "Decoder '" << name << "' needs at least two stages");
  // One (up, refine) pair per transition from stage i to stage i-1,
  // deepest transition first.
  for (size_t i = stage_channels.size() - 1; i >= 1; --i) {
    const std::string tag = name + ".up" + std::to_string(i);
    up_.emplace_back(tag, stage_channels[i], stage_channels[i - 1],
                     /*kernel=*/2, /*stride=*/2, /*padding=*/0,
                     /*bias=*/false, rng);
    refine_.emplace_back(name + ".refine" + std::to_string(i),
                         stage_channels[i - 1], stage_channels[i - 1], 3, 1,
                         1, rng);
  }
}

Variable Decoder::forward(const std::vector<Variable>& skips) const {
  ROADFUSION_CHECK(skips.size() == stage_channels_.size(),
                   "Decoder: expected " << stage_channels_.size()
                                        << " skips, got " << skips.size());
  Variable x = skips.back();
  for (size_t step = 0; step < up_.size(); ++step) {
    const size_t target_stage = stage_channels_.size() - 2 - step;
    // Named as the transition's layers (decoder.up{target + 1}).
    obs::ScopedSpan step_span("decoder.up",
                              static_cast<int>(target_stage + 1));
    x = up_[step].forward(x);
    x = autograd::add(x, skips[target_stage]);
    x = refine_[step].forward(x);
  }
  obs::ScopedSpan head_span("decoder.head");
  return head_.forward(x);
}

void Decoder::collect_parameters(std::vector<nn::ParameterPtr>& out) const {
  for (const auto& layer : up_) {
    layer.collect_parameters(out);
  }
  for (const auto& layer : refine_) {
    layer.collect_parameters(out);
  }
  head_.collect_parameters(out);
}

void Decoder::collect_state(const std::string& prefix,
                            std::vector<nn::StateEntry>& out) {
  for (auto& layer : up_) {
    layer.collect_state(prefix, out);
  }
  for (auto& layer : refine_) {
    layer.collect_state(prefix, out);
  }
  head_.collect_state(prefix, out);
}

void Decoder::set_training(bool training) {
  for (auto& layer : refine_) {
    layer.set_training(training);
  }
}

Complexity Decoder::complexity(int64_t full_h, int64_t full_w) const {
  Complexity total;
  const int num_stages = static_cast<int>(stage_channels_.size());
  for (size_t step = 0; step < up_.size(); ++step) {
    // The step consumes the feature map of stage (num_stages - 1 - step).
    int64_t h = full_h;
    int64_t w = full_w;
    for (int s = 1; s <= num_stages - 1 - static_cast<int>(step); ++s) {
      h = (h + 1) / 2;
      w = (w + 1) / 2;
    }
    total += up_[step].complexity(h, w);
    total += refine_[step].complexity(h * 2, w * 2);
  }
  total += head_.complexity(full_h, full_w);
  return total;
}

}  // namespace roadfusion::roadseg
