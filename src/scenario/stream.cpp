#include "scenario/stream.hpp"

#include <chrono>
#include <utility>

#include "common/check.hpp"
#include "kitti/lidar.hpp"
#include "kitti/render.hpp"
#include "tensor/rng.hpp"

namespace roadfusion::scenario {
namespace {

using tensor::Rng;
using tensor::SplitMix64;

/// Independent seed streams per (base seed, index, role).
uint64_t stream_seed(uint64_t base, int64_t index, uint64_t salt) {
  return SplitMix64(base ^
                    static_cast<uint64_t>(index + 1) * 0x9e3779b97f4a7c15ULL ^
                    salt)
      .next();
}

constexpr uint64_t kRenderSalt = 0x7e8de2a1c0ffee17ULL;
constexpr uint64_t kScanSalt = 0x5ca11ab1e0d15c0dULL;
constexpr uint64_t kRgbCorruptSalt = 0xc0221067b5e7a9d1ULL;
constexpr uint64_t kDepthCorruptSalt = 0xdeb7c0221067aa31ULL;

}  // namespace

StreamGenerator::StreamGenerator(const StreamConfig& config)
    : config_(config),
      camera_(config.dataset.image_width, config.dataset.image_height,
              config.dataset.fov_deg, config.dataset.cam_height,
              config.dataset.cam_pitch),
      base_scene_(kitti::Scene::generate(config.category, config.lighting,
                                         config.scene_seed)) {
  ROADFUSION_CHECK(config.lidar_period >= 1,
                   "stream: lidar_period must be >= 1, got "
                       << config.lidar_period);
  ROADFUSION_CHECK(config.advance_m >= 0.0,
                   "stream: advance_m must be >= 0, got " << config.advance_m);
  ROADFUSION_CHECK(!config.dataset.use_surface_normals,
                   "stream: surface-normal depth input is not supported");
}

uint64_t StreamGenerator::frame_seed(int64_t frame) const {
  return stream_seed(config_.corruption_seed, frame, kRgbCorruptSalt);
}

uint64_t StreamGenerator::scan_seed(int64_t scan) const {
  return stream_seed(config_.corruption_seed, scan, kDepthCorruptSalt);
}

StreamFrame StreamGenerator::next() {
  const int64_t frame = frame_index_++;
  // The scan this frame sees: the LiDAR refreshed at the last multiple of
  // lidar_period, so the depth channel describes the scene as of that
  // frame — between refreshes the network consumes a (slightly) stale
  // depth image, exactly like a real camera/LiDAR rate mismatch.
  const int64_t scan_frame =
      (frame / config_.lidar_period) * config_.lidar_period;
  const bool refreshed = frame == scan_frame;

  if (refreshed || !config_.frame_to_frame_reuse || !has_scan_) {
    // Recompute the scan. With reuse on, this only happens at refresh
    // frames; the naive baseline redoes it every frame from the same
    // scan-indexed seeds, producing bitwise-identical depth with full
    // per-frame cost.
    const kitti::Scene scan_scene =
        base_scene_.advanced(config_.advance_m * static_cast<double>(scan_frame));
    Rng scan_rng(stream_seed(config_.noise_seed, scan_frame, kScanSalt));
    const std::vector<kitti::LidarPoint> points =
        kitti::scan(scan_scene, config_.dataset.lidar, scan_rng);
    Tensor sparse = kitti::project_to_sparse_depth(points, camera_);
    // Fog removes far returns at the sensor boundary (range domain), so
    // the densifier never sees them — the stream-domain counterpart of
    // the frame-domain fog cut.
    const uint64_t depth_seed = scan_seed(scan_frame);
    for (const CorruptionSpec& spec : config_.corruptions) {
      if (spec.kind == CorruptionKind::kFog) {
        sparse = corrupt_range(sparse, spec,
                               kind_seed(depth_seed, spec.kind),
                               config_.dataset.lidar.max_range);
      }
    }

    // Dropout kills rows of the *dense* image (a failing sensor /
    // transport, after preprocessing).
    Tensor depth = kitti::preprocess_depth(sparse, config_.dataset.depth);
    for (const CorruptionSpec& spec : config_.corruptions) {
      if (spec.kind == CorruptionKind::kDropout) {
        depth = corrupt_inverse_depth(depth, spec,
                                      kind_seed(depth_seed, spec.kind));
      }
    }

    last_depth_ = std::move(depth);
    has_scan_ = true;
  }

  const kitti::Scene scene =
      base_scene_.advanced(config_.advance_m * static_cast<double>(frame));
  Rng render_rng(stream_seed(config_.noise_seed, frame, kRenderSalt));

  StreamFrame out;
  out.index = frame;
  out.depth_refreshed = refreshed;
  out.rgb = kitti::render_rgb(scene, camera_, render_rng);
  out.depth = last_depth_;
  // Camera corruptions churn per frame (the camera runs at frame rate);
  // fog hazes the RGB against the current (possibly stale) depth.
  const uint64_t rgb_seed = frame_seed(frame);
  for (const CorruptionSpec& spec : config_.corruptions) {
    if (!affects_rgb(spec.kind)) {
      continue;
    }
    const Tensor* haze_depth =
        spec.kind == CorruptionKind::kFog ? &last_depth_ : nullptr;
    out.rgb =
        corrupt_rgb(out.rgb, haze_depth, spec, kind_seed(rgb_seed, spec.kind));
  }
  return out;
}

StreamSession::StreamSession(serve::FrontDoor& door,
                             StreamGenerator& generator,
                             const StreamSessionConfig& config)
    : door_(door), generator_(generator), config_(config) {}

StreamFrameResult StreamSession::step() {
  StreamFrame frame = generator_.next();

  serve::ServeOptions options;
  options.tenant = config_.tenant;
  options.route_key = config_.route_key;
  options.deadline_ms = config_.deadline_ms;
  options.scenario = config_.scenario;
  if (generator_.config().frame_to_frame_reuse) {
    options.stream_cache = &cache_;
    // The first frame must populate the cache; afterwards any frame whose
    // depth did not refresh reuses the cached depth features bitwise.
    options.depth_unchanged = !frame.depth_refreshed;
  }

  const auto start = std::chrono::steady_clock::now();
  std::future<runtime::InferenceResult> future =
      door_.submit(std::move(frame.rgb), std::move(frame.depth), options);
  runtime::InferenceResult result = future.get();
  const auto end = std::chrono::steady_clock::now();

  StreamFrameResult out;
  out.index = frame.index;
  out.depth_refreshed = frame.depth_refreshed;
  out.degraded = result.degraded;
  out.latency_ms =
      std::chrono::duration<double, std::milli>(end - start).count();
  out.within_slo = config_.slo_ms <= 0.0 || out.latency_ms <= config_.slo_ms;
  out.output = std::move(result.output);

  ++stats_.frames;
  if (out.degraded) {
    ++stats_.degraded_frames;
  }
  if (!out.within_slo) {
    ++stats_.slo_misses;
  }
  stats_.total_latency_ms += out.latency_ms;
  if (out.latency_ms > stats_.max_latency_ms) {
    stats_.max_latency_ms = out.latency_ms;
  }
  stats_.cache_hits = cache_.hits;
  stats_.cache_misses = cache_.misses;
  return out;
}

std::vector<StreamFrameResult> StreamSession::run(int64_t frames) {
  ROADFUSION_CHECK(frames > 0, "stream: frame count must be > 0");
  std::vector<StreamFrameResult> results;
  results.reserve(static_cast<size_t>(frames));
  for (int64_t i = 0; i < frames; ++i) {
    results.push_back(step());
  }
  return results;
}

}  // namespace roadfusion::scenario
