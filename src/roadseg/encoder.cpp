#include "roadseg/encoder.hpp"

#include "common/check.hpp"

namespace roadfusion::roadseg {

Encoder::Encoder(const std::string& name, int64_t in_channels,
                 const std::vector<int64_t>& stage_channels, Rng& rng)
    : stage_channels_(stage_channels),
      stem_(name + ".stem", in_channels, stage_channels.at(0), 3, 1, 1, rng) {
  ROADFUSION_CHECK(stage_channels.size() >= 2,
                   "Encoder '" << name << "' needs at least two stages");
  for (size_t i = 1; i < stage_channels.size(); ++i) {
    blocks_.emplace_back(name + ".stage" + std::to_string(i),
                         stage_channels[i - 1], stage_channels[i],
                         /*stride=*/2, rng);
  }
}

Encoder::Encoder(const std::string& name, int64_t in_channels,
                 const std::vector<int64_t>& stage_channels,
                 const Encoder& donor, int share_from_stage, Rng& rng)
    : stage_channels_(stage_channels),
      stem_(name + ".stem", in_channels, stage_channels.at(0), 3, 1, 1, rng) {
  ROADFUSION_CHECK(stage_channels.size() >= 2,
                   "Encoder '" << name << "' needs at least two stages");
  ROADFUSION_CHECK(stage_channels == donor.stage_channels_,
                   "Encoder '" << name
                               << "': stage channels differ from donor");
  ROADFUSION_CHECK(share_from_stage >= 1 &&
                       share_from_stage < static_cast<int>(
                                              stage_channels.size()),
                   "Encoder '" << name << "': share_from_stage "
                               << share_from_stage << " out of range");
  for (size_t i = 1; i < stage_channels.size(); ++i) {
    const std::string stage_name = name + ".stage" + std::to_string(i);
    if (static_cast<int>(i) >= share_from_stage) {
      blocks_.emplace_back(stage_name, donor.blocks_[i - 1]);  // shared
    } else {
      blocks_.emplace_back(stage_name, stage_channels[i - 1],
                           stage_channels[i], /*stride=*/2, rng);
    }
  }
}

Variable Encoder::forward_stage(int stage, const Variable& input) const {
  ROADFUSION_CHECK(stage >= 0 && stage < num_stages(),
                   "Encoder stage " << stage << " out of range");
  if (stage == 0) {
    return stem_.forward(input);
  }
  return blocks_[static_cast<size_t>(stage - 1)].forward(input);
}

int64_t Encoder::stage_channels(int stage) const {
  ROADFUSION_CHECK(stage >= 0 && stage < num_stages(),
                   "Encoder stage " << stage << " out of range");
  return stage_channels_[static_cast<size_t>(stage)];
}

int64_t Encoder::stage_extent(int stage, int64_t input_extent) {
  int64_t extent = input_extent;
  for (int i = 1; i <= stage; ++i) {
    extent = (extent + 1) / 2;
  }
  return extent;
}

Complexity Encoder::stage_complexity(int stage, int64_t in_h,
                                     int64_t in_w) const {
  ROADFUSION_CHECK(stage >= 0 && stage < num_stages(),
                   "Encoder stage " << stage << " out of range");
  if (stage == 0) {
    return stem_.complexity(in_h, in_w);
  }
  return blocks_[static_cast<size_t>(stage - 1)].complexity(in_h, in_w);
}

void Encoder::collect_parameters(std::vector<nn::ParameterPtr>& out) const {
  stem_.collect_parameters(out);
  for (const auto& block : blocks_) {
    block.collect_parameters(out);
  }
}

void Encoder::collect_state(const std::string& prefix,
                            std::vector<nn::StateEntry>& out) {
  stem_.collect_state(prefix, out);
  for (auto& block : blocks_) {
    block.collect_state(prefix, out);
  }
}

void Encoder::set_training(bool training) {
  stem_.set_training(training);
  for (auto& block : blocks_) {
    block.set_training(training);
  }
}

}  // namespace roadfusion::roadseg
