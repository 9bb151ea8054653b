#include "core/fusion_filter.hpp"

#include "autograd/ops.hpp"
#include "common/check.hpp"
#include "obs/trace.hpp"

namespace roadfusion::core {

FusionFilter::FusionFilter(const std::string& name, int64_t channels, Rng& rng)
    : conv_(name + ".fusion_filter", channels, channels, /*kernel=*/1,
            /*stride=*/1, /*padding=*/0, /*bias=*/true, rng) {}

Variable FusionFilter::match(const Variable& source_features) const {
  obs::ScopedSpan span("fusion_filter.match");
  return conv_.forward(source_features);
}

Variable FusionFilter::fuse(const Variable& target_features,
                            const Variable& source_features) const {
  ROADFUSION_CHECK(target_features.shape() == source_features.shape(),
                   "FusionFilter::fuse: shape mismatch "
                       << target_features.shape().str() << " vs "
                       << source_features.shape().str());
  return autograd::add(target_features, match(source_features));
}

void FusionFilter::collect_parameters(
    std::vector<nn::ParameterPtr>& out) const {
  conv_.collect_parameters(out);
}

void FusionFilter::collect_state(const std::string& prefix,
                                 std::vector<nn::StateEntry>& out) {
  conv_.collect_state(prefix, out);
}

Complexity FusionFilter::complexity(int64_t height, int64_t width) const {
  return conv_.complexity(height, width);
}

}  // namespace roadfusion::core
