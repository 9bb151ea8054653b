// RoadSeg encoder branch: a slim ResNet-style feature pyramid.
//
// Stage 0 is a stride-1 stem (ConvBnRelu); stages 1..N-1 are stride-2
// residual blocks. Each stage's output is a fusion point, giving the five
// fusion stages of the paper's architecture (Fig. 2 / Fig. 3).
//
// The sharing constructor aliases the parameters of a donor encoder for
// all stages >= `share_from_stage` — the Layer-sharing mechanism. The stem
// can never be shared across modalities because the RGB and depth branches
// have different input channel counts.
#pragma once

#include <vector>

#include "nn/blocks.hpp"

namespace roadfusion::roadseg {

using autograd::Variable;
using nn::Complexity;
using nn::Rng;

/// One encoder branch of the two-branch fusion network.
class Encoder : public nn::Module {
 public:
  /// Fresh encoder. `stage_channels` lists the output channels of every
  /// stage (stage 0 = stem); at least two stages are required.
  Encoder(const std::string& name, int64_t in_channels,
          const std::vector<int64_t>& stage_channels, Rng& rng);

  /// Sharing encoder: stages >= `share_from_stage` alias `donor`'s
  /// parameters; earlier stages are freshly initialized.
  /// `share_from_stage` must be >= 1 (the stem is modality-specific).
  Encoder(const std::string& name, int64_t in_channels,
          const std::vector<int64_t>& stage_channels, const Encoder& donor,
          int share_from_stage, Rng& rng);

  /// Runs a single stage on its input feature map.
  Variable forward_stage(int stage, const Variable& input) const;

  int num_stages() const { return static_cast<int>(stage_channels_.size()); }
  int64_t stage_channels(int stage) const;

  /// Spatial extent of stage `stage`'s output for an input of `in_h` rows
  /// (stage 0 keeps the size; every later stage halves it).
  static int64_t stage_extent(int stage, int64_t input_extent);

  /// Complexity of one stage for the given *stage input* spatial size.
  Complexity stage_complexity(int stage, int64_t in_h, int64_t in_w) const;

  void collect_parameters(std::vector<nn::ParameterPtr>& out) const override;
  void collect_state(const std::string& prefix,
                     std::vector<nn::StateEntry>& out) override;
  void set_training(bool training) override;

  /// Structural accessors for the inference plan compiler (DESIGN.md §16).
  const nn::ConvBnRelu& stem() const { return stem_; }
  /// Residual block of stage `stage` (1 <= stage < num_stages()).
  const nn::ResidualBlock& block(int stage) const {
    return blocks_[static_cast<size_t>(stage - 1)];
  }

 private:
  std::vector<int64_t> stage_channels_;
  nn::ConvBnRelu stem_;
  std::vector<nn::ResidualBlock> blocks_;
};

}  // namespace roadfusion::roadseg
