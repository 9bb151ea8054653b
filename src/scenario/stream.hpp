// Temporally coherent frame streaming.
//
// StreamGenerator produces the frames an ego vehicle would see driving
// straight ahead through one procedural scene: the camera renders every
// frame (scene advanced by `advance_m` per frame), while the LiDAR
// refreshes only every `lidar_period` frames — between refreshes the
// depth image is bitwise-unchanged, which is exactly what makes
// frame-to-frame reuse sound. Two reuse levers exist, both bit-exact and
// both switched by StreamConfig::frame_to_frame_reuse:
//  * stale-scan reuse — between refreshes the generator hands out the
//    last scan's depth instead of scanning and densifying it again;
//  * StreamFeatureCache — between refreshes, the depth encoder is skipped
//    entirely (runtime::SubmitOptions::depth_unchanged).
// Corruptions are seeded per scan index on the depth side (so non-refresh
// frames reproduce the corrupted depth bitwise) and per frame index on
// the RGB side (so camera corruption churns every frame).
//
// StreamSession drives generated frames serially through a serve::FrontDoor
// with the cache attached, measuring per-frame latency against an SLO.
#pragma once

#include <cstdint>
#include <vector>

#include "kitti/dataset.hpp"
#include "scenario/corruption.hpp"
#include "serve/front_door.hpp"

namespace roadfusion::scenario {

/// Stream synthesis knobs.
struct StreamConfig {
  /// Image geometry, LiDAR and depth-preproc parameters; the lighting mix
  /// probabilities are ignored (lighting comes from `lighting` below).
  kitti::DatasetConfig dataset;
  kitti::RoadCategory category = kitti::RoadCategory::kUM;
  kitti::Lighting lighting = kitti::Lighting::kDay;
  /// Scenario corruption stack applied to every frame.
  std::vector<CorruptionSpec> corruptions;
  double advance_m = 1.5;  ///< ego motion per frame, metres
  int lidar_period = 3;    ///< frames between LiDAR refreshes (>= 1)
  uint64_t scene_seed = 7;
  uint64_t noise_seed = 9;        ///< render + scan sensor noise
  uint64_t corruption_seed = 11;  ///< corruption randomness
  /// Bit-exact frame-to-frame shortcuts (stale-scan reuse, and the
  /// session's feature cache). Off recomputes everything per frame — the
  /// naive baseline the streaming bench compares against; outputs are
  /// bitwise identical.
  bool frame_to_frame_reuse = true;
};

/// One generated frame.
struct StreamFrame {
  Tensor rgb;    ///< (3, H, W) corrupted camera frame
  Tensor depth;  ///< (1, H, W) corrupted dense inverse depth
  int64_t index = 0;
  /// True when this frame carries a fresh LiDAR scan; false means `depth`
  /// is bitwise-identical to the previous frame's.
  bool depth_refreshed = false;
};

/// Deterministic temporally coherent frame source; see file comment.
class StreamGenerator {
 public:
  explicit StreamGenerator(const StreamConfig& config);

  /// Generates the next frame (frame indices advance monotonically).
  StreamFrame next();

  const vision::Camera& camera() const { return camera_; }
  const StreamConfig& config() const { return config_; }

 private:
  uint64_t frame_seed(int64_t frame) const;
  uint64_t scan_seed(int64_t scan) const;

  StreamConfig config_;
  vision::Camera camera_;
  kitti::Scene base_scene_;
  int64_t frame_index_ = 0;
  bool has_scan_ = false;
  Tensor last_depth_;  ///< final corrupted dense inverse depth
};

/// Per-frame serving outcome.
struct StreamFrameResult {
  int64_t index = 0;
  bool degraded = false;
  bool depth_refreshed = false;
  double latency_ms = 0.0;
  bool within_slo = true;
  tensor::Tensor output;  ///< (1, H, W) road probability
};

/// Aggregate session outcome.
struct StreamSessionStats {
  int64_t frames = 0;
  int64_t degraded_frames = 0;
  int64_t slo_misses = 0;
  double total_latency_ms = 0.0;
  double max_latency_ms = 0.0;
  int64_t cache_hits = 0;    ///< StreamFeatureCache hits
  int64_t cache_misses = 0;
};

/// Session knobs.
struct StreamSessionConfig {
  std::string tenant = "stream";
  std::string scenario;   ///< label for metric/trace slicing; may be empty
  uint64_t route_key = 1;  ///< shard affinity (nonzero pins the stream)
  int64_t deadline_ms = 0;
  double slo_ms = 0.0;  ///< per-frame latency SLO; <= 0 disables tracking
};

/// Drives a generator's frames serially through the front door. Keeps the
/// results in submission order; each frame waits for its future before
/// the next submit (a stream is inherently sequential — the cache binds
/// frame N's forward to frame N-1's features). The feature cache is
/// attached when the generator's `frame_to_frame_reuse` is on; off
/// submits plain requests — the naive baseline (bitwise-identical
/// outputs).
class StreamSession {
 public:
  StreamSession(serve::FrontDoor& door, StreamGenerator& generator,
                const StreamSessionConfig& config);

  /// Generates, submits and resolves one frame.
  StreamFrameResult step();

  /// Runs `frames` steps, returning every per-frame result.
  std::vector<StreamFrameResult> run(int64_t frames);

  StreamSessionStats stats() const { return stats_; }

 private:
  serve::FrontDoor& door_;
  StreamGenerator& generator_;
  StreamSessionConfig config_;
  roadseg::StreamFeatureCache cache_;
  StreamSessionStats stats_;
};

}  // namespace roadfusion::scenario
