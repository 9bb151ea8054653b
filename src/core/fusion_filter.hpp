// Fusion-filter — the paper's Eq. 2 feature-matching technique.
//
// A learned 1x1 convolution re-maps the source branch's channels before
// they are element-wisely summed into the target branch:
//
//   f'_target = f_target + Conv1x1(f_source; W_f)
//
// The 1x1 kernel is deliberate: the filter only reorganizes the mapping
// relationship between the two channel spaces, it does not look at spatial
// context. Unidirectional use (depth -> RGB) yields AllFilter_U;
// instantiating one per direction yields AllFilter_B.
#pragma once

#include "nn/layers.hpp"

namespace roadfusion::core {

using autograd::Variable;
using nn::Complexity;
using nn::Rng;

/// One fusion stage's learned channel-matching filter.
class FusionFilter : public nn::Module {
 public:
  /// `channels`: channel count of both feature stacks at this stage.
  FusionFilter(const std::string& name, int64_t channels, Rng& rng);

  /// The matched source features F_f(f_source; W_f) — what actually gets
  /// summed into the target branch. Exposed separately so the Feature
  /// Disparity of the *matched* pair can be measured (Fig. 3a, orange).
  Variable match(const Variable& source_features) const;

  /// Eq. 2: target + match(source).
  Variable fuse(const Variable& target_features,
                const Variable& source_features) const;

  void collect_parameters(std::vector<nn::ParameterPtr>& out) const override;
  void collect_state(const std::string& prefix,
                     std::vector<nn::StateEntry>& out) override;

  /// Extra MACs/params this filter adds at the given feature-map size —
  /// the overhead discussed in the paper's Sec. IV-B.
  Complexity complexity(int64_t height, int64_t width) const;

  int64_t channels() const { return conv_.out_channels(); }

  /// The underlying 1x1 conv, exposed so the inference plan compiler can
  /// repack its weight and fuse the match into a conv epilogue.
  const nn::Conv2d& conv() const { return conv_; }

 private:
  nn::Conv2d conv_;
};

}  // namespace roadfusion::core
