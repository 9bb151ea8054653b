// Point-cloud-to-depth-image preprocessing.
//
// Reproduces the role of the baseline's preprocessing pipeline: the sparse
// projected LiDAR ranges are densified by iterative nearest-neighbour
// dilation, lightly smoothed, and converted to a normalized inverse-depth
// image in [0, 1] (near = bright) — the "Depth input image" of the
// paper's Fig. 1(b).
#pragma once

#include "tensor/tensor.hpp"

namespace roadfusion::kitti {

using tensor::Tensor;

/// Densification / normalization parameters.
struct DepthPreprocConfig {
  int fill_iterations = 6;     ///< 3x3 nearest-fill passes
  double smoothing_sigma = 0.6;  ///< post-fill Gaussian; <= 0 disables
  double min_range = 1.0;      ///< metres mapped to inverse-depth 1
  double max_range = 60.0;     ///< metres mapped to inverse-depth ~0
};

/// Fills zero (no-return) pixels of a sparse metric range image (1, H, W)
/// by iterated 3x3 nearest-valid-neighbour averaging.
Tensor densify_range(const Tensor& sparse_range,
                     const DepthPreprocConfig& config = {});

/// Converts a dense metric range image to normalized inverse depth in
/// [0, 1]. Pixels that are still empty after densification map to 0.
Tensor range_to_inverse_depth(const Tensor& dense_range,
                              const DepthPreprocConfig& config = {});

/// Full pipeline: densify, smooth, convert to inverse depth.
Tensor preprocess_depth(const Tensor& sparse_range,
                        const DepthPreprocConfig& config = {});

// Shim for rfbench's `stream_reuse` only; the next benchmark change drops it.
struct TiledPreprocStats {
  int64_t tiles_total = 0;
  int64_t tiles_reused = 0;
};

/// Returns `preprocess_depth(sparse_range, config)` and reports {1, 0}.
Tensor preprocess_depth_tiled(const Tensor& sparse_range,
                              const Tensor& previous_sparse,
                              const Tensor& previous_output,
                              const DepthPreprocConfig& config,
                              TiledPreprocStats* stats);

}  // namespace roadfusion::kitti
