#include "workloads.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <future>
#include <map>
#include <memory>
#include <utility>

#include "alloc_hook.hpp"
#include "autograd/kernels.hpp"
#include "autograd/ops.hpp"
#include "autograd/variable.hpp"
#include "kitti/dataset.hpp"
#include "kitti/depth_preproc.hpp"
#include "kitti/lidar.hpp"
#include "kitti/render.hpp"
#include "kitti/sensor_health.hpp"
#include "obs/metrics.hpp"
#include "plan/plan.hpp"
#include "roadseg/roadseg_net.hpp"
#include "serve/front_door.hpp"
#include "spans.hpp"
#include "tensor/rng.hpp"
#include "tensor/workspace.hpp"
#include "train/checkpoint.hpp"

namespace rfbench {
namespace {

using namespace roadfusion;
using kitti::SensorStatus;
using tensor::Shape;
using tensor::Tensor;

// Model and inputs. Forward cost does not depend on the weight values, so
// the model is seeded, not trained.
constexpr uint64_t kModelSeed = 2022;
constexpr int64_t kFrameHeight = 32;
constexpr int64_t kFrameWidth = 96;
constexpr int64_t kStreamHeight = 64;
constexpr int64_t kStreamWidth = 192;
constexpr int kDriveFrames = 64;
constexpr int kStreamFrames = 48;
constexpr int kLidarPeriod = 3;
constexpr double kAdvanceM = 1.5;
constexpr double kFrameSloMs = 33.0;  // one camera frame at 30 Hz

constexpr int kSetups = 15;
constexpr int kWarmupOps = 8;
constexpr size_t kCheckedFrameOps = 16;
constexpr size_t kCheckedStreamOps = 48;
constexpr size_t kSpanCapacity = 1 << 20;

// Front-door settings, all fixed: nothing is derived from a measurement
// taken during a run, so a parent and a change face the same load.
constexpr int kShards = 2;
constexpr int kMaxBatch = 4;
constexpr int64_t kMaxWaitUs = 200;
constexpr size_t kShardQueue = 32;
constexpr double kDoorSloMs = 100.0;
// Closed-loop capacity of this door: its throughput with two full batches
// per shard outstanding, the most it sustains at brownout tier 0 (twice as
// many already trip tier 1). `rfbench --capacity`, median of 5 runs on the
// host in README "Host". The door workloads offer 0.5x and 2x of it.
constexpr int kCapacityOutstanding = 2 * kShards * kMaxBatch;
constexpr double kCapacityRps = 977.6;
constexpr double kSteadyRps = 0.5 * kCapacityRps;
constexpr double kOverloadRps = 2.0 * kCapacityRps;
// One shard's time for a full batch at that capacity.
constexpr double kEstBatchServiceMs =
    1000.0 * kShards * kMaxBatch / kCapacityRps;
constexpr int kDoorScenes = 32;
constexpr int kDeadEvery = 10;  // one request in ten carries dead depth
constexpr double kDoorWarmupS = 1.0;
// The send-lateness gate is judged on the median of short windows: a
// generator that cannot keep its schedule is late in every window, while
// the occasional multi-millisecond vCPU stall of a virtual machine hits
// only a few.
constexpr double kMaxSendLateMs = 1.0;
constexpr double kWindowS = 0.25;

const std::vector<std::string> kWorkloads = {
    "frame_fused", "frame_rgb_only", "stream_reuse", "door_steady",
    "door_overload"};

// The per-layer metrics of a traced run, in BENCHMARK.json's order; README
// "Per-layer metrics" says which end-to-end metric each should move.
const std::vector<Metric> kLayerMetrics = {
    {"kitti.self_share", "1"},
    {"roadseg.self_share", "1"},
    {"serve.self_share", "1"},
    {"runtime.self_share", "1"},
    {"bench.self_share", "1"},
    {"kitti.project_ms_p50", "ms"},
    {"kitti.preprocess_ms_p50", "ms"},
    {"kitti.health_us_p50", "us"},
    {"kitti.tiles_reused_share", "1"},
    {"roadseg.predict_ms_p50", "ms"},
    {"roadseg.predict_ms_p99", "ms"},
    {"roadseg.stream_hit_share", "1"},
    {"plan.planned_share", "1"},
    {"plan.compiles_in_run", "count"},
    {"autograd.im2col_per_op", "count"},
    {"tune.selections_per_op", "count"},
    {"tensor.heap_allocs_per_op", "count"},
    {"tensor.arena_peak_bytes", "bytes"},
    {"runtime.request_ms_p50", "ms"},
    {"runtime.queue_wait_ms_p50", "ms"},
    {"runtime.queue_wait_ms_p99", "ms"},
    {"runtime.engine_ms_p50", "ms"},
    {"runtime.batch_size_mean", "count"},
    {"serve.submit_us_p50", "us"},
    {"serve.submit_us_p99", "us"},
    {"serve.shed_share", "1"},
    {"serve.forced_degraded_share", "1"},
    {"serve.spill_share", "1"},
    {"serve.tier_max", "count"},
    {"bench.send_late_ms_p99", "ms"},
    {"bench.host_probe_ms", "ms"},
    {"trace.overhead_share", "1"},
    {"trace.child_cover_share", "1"},
};

// ---------------------------------------------------------------------------
// Small helpers
// ---------------------------------------------------------------------------

double to_ms(int64_t ns) { return static_cast<double>(ns) * 1e-6; }

/// Linear-interpolated quantile (numpy's default); 0 for an empty sample.
double quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

double share(double part, double whole) { return whole > 0.0 ? part / whole : 0.0; }

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.raw(), b.raw(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

/// The op's final product: the 0.5-threshold road mask.
void threshold(const Tensor& probability, std::vector<uint8_t>& mask) {
  mask.resize(static_cast<size_t>(probability.numel()));
  const float* p = probability.raw();
  for (size_t i = 0; i < mask.size(); ++i) {
    mask[i] = p[i] > 0.5f ? 1 : 0;
  }
}

/// Independent child seed per (run seed, role, index).
uint64_t derive(uint64_t seed, uint64_t salt, uint64_t index = 0) {
  return tensor::SplitMix64(seed ^ salt ^ (index + 1) * 0x9e3779b97f4a7c15ULL)
      .next();
}

const roadseg::RoadSegConfig& net_config() {
  static const roadseg::RoadSegConfig config = [] {
    roadseg::RoadSegConfig c;
    c.scheme = core::FusionScheme::kWeightedSharing;
    return c;
  }();
  return config;
}

vision::Camera make_camera(int64_t height, int64_t width) {
  const kitti::DatasetConfig d;
  return vision::Camera(width, height, d.fov_deg, d.cam_height, d.cam_pitch);
}

/// The oracle: sigmoid of the autograd graph's `forward_fused`.
Tensor graph_probability(const roadseg::RoadSegNet& net, const Tensor& rgb,
                         const Tensor& depth, float fusion_weight) {
  const autograd::InferenceModeGuard no_grad;
  const Shape& rs = rgb.shape();
  const Shape& ds = depth.shape();
  const roadseg::ForwardResult result = net.forward_fused(
      autograd::Variable::constant(
          rgb.reshaped(Shape::nchw(1, rs.dim(0), rs.dim(1), rs.dim(2)))),
      autograd::Variable::constant(
          depth.reshaped(Shape::nchw(1, ds.dim(0), ds.dim(1), ds.dim(2)))),
      fusion_weight);
  return autograd::sigmoid(result.logits)
      .value()
      .reshaped(Shape::chw(1, rs.dim(1), rs.dim(2)));
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// A fixed loop in the benchmark's own code: tells a slow host phase apart
/// from a regression in the program.
double host_probe_ms() {
  static volatile double sink = 0.0;
  std::vector<double> times;
  for (int rep = 0; rep < 5; ++rep) {
    const int64_t start = now_ns();
    uint64_t x = 88172645463325252ULL;
    double acc = 0.0;
    for (int i = 0; i < 2'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      acc += static_cast<double>(x & 0xffff) * 1e-5;
    }
    sink = sink + acc;
    times.push_back(to_ms(now_ns() - start));
  }
  return quantile(times, 0.5);
}

// ---------------------------------------------------------------------------
// Program counters read around the timed phase
// ---------------------------------------------------------------------------

struct Counters {
  uint64_t plan_declined = 0;
  uint64_t plan_compiles = 0;
  uint64_t im2col = 0;
  uint64_t batches = 0;
  uint64_t batched_requests = 0;
  uint64_t queue_wait_count = 0;
  std::vector<double> queue_wait_bounds;
  std::vector<uint64_t> queue_wait_buckets;
  std::map<std::string, uint64_t> selections;  ///< by solver label

  static Counters read() {
    static const std::string kSelected = "roadfusion_solver_selected_total{";
    Counters c;
    for (const obs::MetricSnapshot& m :
         obs::MetricsRegistry::global().snapshot()) {
      const auto value = static_cast<uint64_t>(m.value);
      if (m.name == "roadfusion_plan_declined_total") {
        c.plan_declined = value;
      } else if (m.name == "roadfusion_plan_compiles_total") {
        c.plan_compiles = value;
      } else if (m.name == "roadfusion_engine_batches_formed_total") {
        c.batches = value;
      } else if (m.name == "roadfusion_engine_batched_requests_total") {
        c.batched_requests = value;
      } else if (m.name == "roadfusion_engine_queue_wait_ms") {
        c.queue_wait_count = m.count;
        c.queue_wait_bounds = m.bounds;
        c.queue_wait_buckets = m.buckets;
      } else if (m.name.rfind(kSelected, 0) == 0) {
        c.selections[m.name.substr(kSelected.size(),
                                   m.name.size() - kSelected.size() - 1)] =
            value;
      }
    }
    c.im2col = autograd::kernels::im2col_call_count();
    return c;
  }
};

/// Quantile of the queue-wait histogram's growth between two reads,
/// interpolated inside the bucket (Prometheus `le` buckets).
double histogram_quantile(const Counters& before, const Counters& after,
                          double q) {
  const std::vector<double>& bounds = after.queue_wait_bounds;
  const uint64_t total = after.queue_wait_count - before.queue_wait_count;
  if (total == 0 || bounds.empty()) {
    return 0.0;
  }
  const double target = q * static_cast<double>(total);
  double seen = 0.0;
  for (size_t i = 0; i < after.queue_wait_buckets.size(); ++i) {
    const uint64_t prior =
        i < before.queue_wait_buckets.size() ? before.queue_wait_buckets[i] : 0;
    const double in_bucket =
        static_cast<double>(after.queue_wait_buckets[i] - prior);
    if (in_bucket > 0.0 && seen + in_bucket >= target) {
      if (i >= bounds.size()) {
        return bounds.back();
      }
      const double lo = i == 0 ? 0.0 : bounds[i - 1];
      return lo + (bounds[i] - lo) * (target - seen) / in_bucket;
    }
    seen += in_bucket;
  }
  return bounds.back();
}

/// Per-layer counters every workload reports (the program's own registry
/// plus the benchmark's allocation hook), as deltas over the timed phase.
void add_counter_metrics(RunResult& result, const Counters& before,
                         const Counters& after, uint64_t heap_allocs,
                         double ops, double predict_calls) {
  uint64_t selections = 0;
  for (const auto& [solver, count] : after.selections) {
    const auto it = before.selections.find(solver);
    const uint64_t delta =
        count - (it == before.selections.end() ? 0 : it->second);
    selections += delta;
    result.detail.push_back({"tune.selections_per_op." + solver, "count",
                             share(static_cast<double>(delta), ops)});
  }
  std::map<std::string, double>& layer = result.layer;
  layer["plan.planned_share"] =
      1.0 - share(static_cast<double>(after.plan_declined -
                                      before.plan_declined),
                  predict_calls);
  layer["plan.compiles_in_run"] =
      static_cast<double>(after.plan_compiles - before.plan_compiles);
  layer["autograd.im2col_per_op"] =
      share(static_cast<double>(after.im2col - before.im2col), ops);
  layer["tune.selections_per_op"] =
      share(static_cast<double>(selections), ops);
  layer["tensor.heap_allocs_per_op"] =
      share(static_cast<double>(heap_allocs), ops);
  layer["tensor.arena_peak_bytes"] =
      static_cast<double>(tensor::Workspace::global_stats().peak_bytes);
}

void fail(RunResult& result, const std::string& message) {
  if (result.failures.size() < 20) {
    result.failures.push_back(message);
  }
  result.correct = false;
}

/// Op indices traced in a traced run: pairs alternate, so the traced half
/// mixes both door tenants (which alternate per request) evenly.
bool traced_op(bool trace, int64_t op) { return trace && ((op >> 1) & 1); }

/// One op of a timed phase, in send order.
struct OpRecord {
  int64_t start_ns = 0;  ///< op start (closed loop) or scheduled send (open)
  double latency_ms = 0.0;  ///< served ops only
  double late_ms = 0.0;  ///< open loop: how late the generator sent it
  bool served = false;
  bool fused = false;       ///< served with depth fusion
  bool misjudged = false;   ///< triage verdict the input does not warrant
};

/// The median over kWindowS windows of the phase (an op belongs to the
/// window of its start) of `metric(ops of the window)`.
template <typename F>
double median_window(const std::vector<OpRecord>& ops, int64_t start_ns,
                     int64_t end_ns, F&& metric) {
  const auto window_ns = static_cast<int64_t>(kWindowS * 1e9);
  const size_t count =
      std::max<size_t>(1, static_cast<size_t>((end_ns - start_ns) / window_ns));
  std::vector<std::vector<const OpRecord*>> windows(count);
  for (const OpRecord& op : ops) {
    const auto index = static_cast<size_t>((op.start_ns - start_ns) / window_ns);
    windows[std::min(count - 1, index)].push_back(&op);
  }
  std::vector<double> values;
  for (const auto& window : windows) {
    values.push_back(metric(window));
  }
  return quantile(values, 0.5);
}

/// The end-to-end metrics of an untraced run over the phase
/// [start_ns, end_ns). Only the three that repeat within their bound from
/// run to run go on the summary line; the rest swing with the host's speed
/// phases or the door's brownout tier (README "End-to-end metrics").
void add_end_to_end(RunResult& result, double setup_s, double rss_mb,
                    const std::vector<OpRecord>& ops, int64_t start_ns,
                    int64_t end_ns, double slo_ms) {
  std::vector<double> latency_ms;
  double fused = 0.0;
  double good = 0.0;
  for (const OpRecord& op : ops) {
    if (op.served) {
      latency_ms.push_back(op.latency_ms);
    }
    fused += op.fused ? 1.0 : 0.0;
    good += op.fused && op.latency_ms <= slo_ms ? 1.0 : 0.0;
  }
  const double seconds = static_cast<double>(end_ns - start_ns) * 1e-9;
  const double sent = static_cast<double>(ops.size());
  const double served = static_cast<double>(latency_ms.size());
  result.metrics = {
      {"setup_s", "s", setup_s},
      {"latency_ms_p50", "ms", quantile(latency_ms, 0.5)},
      {"peak_rss_mb", "MiB", rss_mb},
  };
  result.detail.insert(
      result.detail.end(),
      {{"latency_ms_p99", "ms", quantile(latency_ms, 0.99)},
       {"throughput_ops", "ops/s", served / seconds},
       {"goodput_ops", "ops/s", good / seconds},
       {"fused_share", "1", share(fused, sent)},
       {"failed_share", "1", 1.0 - share(served, sent)}});
}

/// Op latencies of the traced and the untraced half of a traced run.
void split_by_tracing(const std::vector<OpRecord>& ops,
                      std::vector<double>& traced,
                      std::vector<double>& untraced) {
  for (size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].served) {
      (traced_op(true, static_cast<int64_t>(i)) ? traced : untraced)
          .push_back(ops[i].latency_ms);
    }
  }
}

/// Per-layer metrics derived from the spans of a traced run.
struct TraceSummary {
  std::vector<SpanStats> stats;
  std::map<std::string, double> layer_self_ms;
  double op_total_ms = 0.0;
  double op_self_ms = 0.0;

  explicit TraceSummary(const std::vector<Span>& spans)
      : stats(analyze(spans)) {
    for (const SpanStats& s : stats) {
      layer_self_ms[s.layer] += s.self_ms;
      if (s.name == "op") {
        op_total_ms = s.total_ms;
        op_self_ms = s.self_ms;
      }
    }
  }

  double self_share(const std::string& layer) const {
    const auto it = layer_self_ms.find(layer);
    return it == layer_self_ms.end() ? 0.0 : share(it->second, op_total_ms);
  }

  /// Durations of every span of `layer` (or of one span name).
  std::vector<double> durations(const std::string& layer_or_name) const {
    std::vector<double> out;
    for (const SpanStats& s : stats) {
      if (s.layer == layer_or_name || s.name == layer_or_name) {
        out.insert(out.end(), s.durations_ms.begin(), s.durations_ms.end());
      }
    }
    return out;
  }
};

/// Layer shares, overhead and the span-derived layer timings of a traced
/// run, plus its Chrome trace file.
void add_trace_metrics(RunResult& result, const RunSpec& spec,
                       const SpanRecorder& recorder,
                       const std::vector<OpRecord>& ops) {
  const TraceSummary trace(recorder.spans());
  std::vector<double> traced;
  std::vector<double> untraced;
  split_by_tracing(ops, traced, untraced);
  std::map<std::string, double>& layer = result.layer;
  for (const char* name : {"kitti", "roadseg", "serve", "runtime", "bench"}) {
    layer[std::string(name) + ".self_share"] = trace.self_share(name);
  }
  layer["trace.overhead_share"] =
      share(quantile(traced, 0.5), quantile(untraced, 0.5)) - 1.0;
  layer["trace.child_cover_share"] =
      1.0 - share(trace.op_self_ms, trace.op_total_ms);

  const auto add_timing = [&](const std::string& name,
                              const std::string& source, double q,
                              double scale) {
    const std::vector<double> d = trace.durations(source);
    if (!d.empty()) {
      layer[name] = quantile(d, q) * scale;
    }
  };
  add_timing("kitti.project_ms_p50", "kitti.project", 0.5, 1.0);
  add_timing("kitti.preprocess_ms_p50", "kitti.preprocess", 0.5, 1.0);
  add_timing("kitti.health_us_p50", "kitti.health", 0.5, 1e3);
  add_timing("roadseg.predict_ms_p50", "roadseg", 0.5, 1.0);
  add_timing("roadseg.predict_ms_p99", "roadseg", 0.99, 1.0);
  add_timing("serve.submit_us_p50", "serve.submit", 0.5, 1e3);
  add_timing("serve.submit_us_p99", "serve.submit", 0.99, 1e3);
  add_timing("runtime.request_ms_p50", "runtime.request", 0.5, 1.0);
  if (recorder.dropped() > 0) {
    result.detail.push_back({"trace.dropped_spans", "count",
                             static_cast<double>(recorder.dropped())});
  }
  result.span_table = format_table(trace.stats);
  const std::string path = spec.out_dir + "/trace-" + spec.workload + "-seed" +
                           std::to_string(spec.seed) + ".json";
  if (!write_chrome_trace(recorder.spans(), path)) {
    fail(result, "cannot write " + path);
  }
}

// ---------------------------------------------------------------------------
// Inputs, all derived from --seed before any timing
// ---------------------------------------------------------------------------

/// Writes the seeded model as an RFM1 file; removed again at exit.
class ModelFile {
 public:
  ModelFile(const std::string& out_dir, roadseg::RoadSegNet& net)
      : path_(out_dir + "/model-" + std::to_string(::getpid()) + ".rfm") {
    train::save_model(net, path_);
  }
  ~ModelFile() { std::remove(path_.c_str()); }
  ModelFile(const ModelFile&) = delete;
  ModelFile& operator=(const ModelFile&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

struct DriveFrame {
  Tensor rgb;
  std::vector<kitti::LidarPoint> points;  ///< empty on stream non-refresh frames
};

/// A drive of `frames` frames in `segments` consecutive scenes (one per
/// KITTI category, in order). Every frame renders a camera image; LiDAR
/// scans every `lidar_period` frames.
std::vector<DriveFrame> make_drive(uint64_t seed, const vision::Camera& camera,
                                   int frames, int segments, int lidar_period,
                                   bool lose_lidar) {
  static const kitti::RoadCategory kCategories[] = {
      kitti::RoadCategory::kUM, kitti::RoadCategory::kUMM,
      kitti::RoadCategory::kUU};
  const kitti::LidarConfig lidar;
  const int first_category = static_cast<int>(derive(seed, 0xca7) % 3);
  std::vector<DriveFrame> drive(static_cast<size_t>(frames));
  for (int f = 0; f < frames; ++f) {
    const int segment = f * segments / frames;
    const int segment_start = (segment * frames + segments - 1) / segments;
    const kitti::Scene scene =
        kitti::Scene::generate(
            kCategories[(first_category + segment) % 3], kitti::Lighting::kDay,
            derive(seed, 0x5ce9e, static_cast<uint64_t>(segment)))
            .advanced(kAdvanceM * (f - segment_start));
    tensor::Rng rng(derive(seed, 0xf4a3e, static_cast<uint64_t>(f)));
    DriveFrame& frame = drive[static_cast<size_t>(f)];
    frame.rgb = kitti::render_rgb(scene, camera, rng);
    if (f % lidar_period == 0) {
      frame.points = kitti::scan(scene, lidar, rng);
      if (lose_lidar) {
        // Every channel lost: even one or two surviving beams can densify
        // to more than the triage's 40% live depth when a wall fills the
        // view, and the workload needs kDegraded on every frame.
        frame.points.clear();
      }
    }
  }
  return drive;
}

struct DoorRequest {
  double at_s = 0.0;  ///< scheduled send time from the phase start
  int scene = 0;
  bool dead = false;  ///< carries dead (all-zero) depth
  bool low_priority = false;
};

/// Poisson arrivals at `rate_rps`; tenants alternate (50/50), and exactly
/// one request in each run of ten, at a seeded position, loses its LiDAR.
std::vector<DoorRequest> make_schedule(double rate_rps, double seconds,
                                       uint64_t seed) {
  tensor::Rng rng(seed);
  std::vector<DoorRequest> schedule;
  double t = 0.0;
  int64_t dead_slot = 0;
  for (size_t i = 0;; ++i) {
    t += -std::log(1.0 - rng.uniform()) / rate_rps;
    if (t >= seconds) {
      return schedule;
    }
    if (i % kDeadEvery == 0) {
      dead_slot = rng.uniform_int(0, kDeadEvery - 1);
    }
    DoorRequest request;
    request.at_s = t;
    request.scene = static_cast<int>(rng.uniform_int(0, kDoorScenes - 1));
    request.dead = static_cast<int64_t>(i % kDeadEvery) == dead_slot;
    request.low_priority = i % 2 == 1;
    schedule.push_back(request);
  }
}

/// Pre-densified door scenes plus the oracle output of each scene in both
/// serving modes.
struct DoorInputs {
  std::vector<Tensor> rgb;
  std::vector<Tensor> depth;
  Tensor dead_depth;
  std::vector<Tensor> oracle_fused;
  std::vector<Tensor> oracle_degraded;
};

DoorInputs make_door_inputs(uint64_t seed, const roadseg::RoadSegNet& net) {
  kitti::DatasetConfig config;
  config.image_height = kFrameHeight;
  config.image_width = kFrameWidth;
  config.max_per_category = (kDoorScenes + 2) / 3;
  config.seed = derive(seed, 0xd00);
  const kitti::RoadDataset dataset(config, kitti::Split::kTest);
  DoorInputs in;
  for (int i = 0; i < kDoorScenes; ++i) {
    const kitti::Sample& sample = dataset.sample(i);
    in.rgb.push_back(sample.rgb);
    in.depth.push_back(sample.depth);
    in.oracle_fused.push_back(
        graph_probability(net, sample.rgb, sample.depth, 1.0f));
    in.oracle_degraded.push_back(
        graph_probability(net, sample.rgb, sample.depth, 0.0f));
  }
  in.dead_depth = Tensor(Shape::chw(1, kFrameHeight, kFrameWidth));
  return in;
}

// ---------------------------------------------------------------------------
// Set-up: load_model -> prepare_inference -> (door) -> first output
// ---------------------------------------------------------------------------

struct Served {
  std::unique_ptr<roadseg::RoadSegNet> net;
  std::unique_ptr<serve::FrontDoor> door;  ///< references *net

  void reset() {
    door.reset();
    net.reset();
  }
};

serve::FrontDoorConfig door_config() {
  serve::FrontDoorConfig config;
  config.shards = kShards;
  config.engine.threads = 1;
  config.engine.max_batch = kMaxBatch;
  config.engine.max_wait_us = kMaxWaitUs;
  config.engine.queue_capacity = kShardQueue;
  config.engine.default_deadline_ms = static_cast<int64_t>(kDoorSloMs);
  config.est_batch_service_ms = kEstBatchServiceMs;
  return config;
}

/// kSetups timed set-ups; keeps the last one serving. `first_output`
/// produces the set-up's first output, checked later against the oracle.
template <typename FirstOutput>
Served set_up(const std::string& model_path, bool with_door,
              FirstOutput&& first_output, double& setup_s,
              std::vector<Tensor>& firsts) {
  std::vector<double> times;
  Served kept;
  for (int k = 0; k < kSetups; ++k) {
    const int64_t start = now_ns();
    Served served;
    tensor::Rng init(1);  // overwritten by load_model
    served.net = std::make_unique<roadseg::RoadSegNet>(net_config(), init);
    train::load_model(*served.net, model_path);
    served.net->set_training(false);
    served.net->prepare_inference();
    if (with_door) {
      served.door = std::make_unique<serve::FrontDoor>(*served.net, door_config());
    }
    Tensor first = first_output(served);
    times.push_back(to_ms(now_ns() - start) * 1e-3);
    firsts.push_back(std::move(first));
    kept.reset();
    kept = std::move(served);
  }
  setup_s = quantile(times, 0.5);
  return kept;
}

// ---------------------------------------------------------------------------
// Closed loop: frame_fused, frame_rgb_only, stream_reuse
// ---------------------------------------------------------------------------

struct ClosedLoop {
  std::vector<OpRecord> ops;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Runs `op(i)` back to back until `seconds` have passed. `after(i, record)`
/// runs outside the op's timing: it judges the op's triage and captures
/// outputs for the checks.
template <typename Op, typename After>
ClosedLoop closed_loop(double seconds, bool trace, SpanRecorder& recorder,
                       Op&& op, After&& after) {
  ClosedLoop loop;
  loop.ops.reserve(static_cast<size_t>(seconds * 4000.0) + 64);
  loop.start_ns = now_ns();
  loop.end_ns = loop.start_ns;
  const int64_t limit = static_cast<int64_t>(seconds * 1e9);
  for (int64_t i = 0; loop.end_ns - loop.start_ns < limit; ++i) {
    recorder.set_enabled(traced_op(trace, i));
    OpRecord record;
    record.start_ns = now_ns();
    op(i);
    loop.end_ns = now_ns();
    record.latency_ms = to_ms(loop.end_ns - record.start_ns);
    record.served = true;
    after(i, record);
    loop.ops.push_back(record);
  }
  recorder.set_enabled(false);
  return loop;
}

/// Ops whose triage verdict the input does not warrant.
int64_t wrong_verdicts(const ClosedLoop& loop) {
  return std::count_if(loop.ops.begin(), loop.ops.end(),
                       [](const OpRecord& op) { return op.misjudged; });
}

struct CheckedOp {
  int frame = 0;
  Tensor depth;
  Tensor probability;
  std::vector<uint8_t> mask;
  bool refreshed = false;  ///< stream: the op densified a fresh scan...
  Tensor sparse;           ///< ...projected from these returns
};

RunResult run_frame(const RunSpec& spec, bool lose_lidar) {
  RunResult result;
  const SensorStatus expected =
      lose_lidar ? SensorStatus::kDegraded : SensorStatus::kHealthy;

  tensor::Rng model_rng(kModelSeed);
  roadseg::RoadSegNet seeded(net_config(), model_rng);
  const ModelFile model(spec.out_dir, seeded);
  const vision::Camera camera = make_camera(kFrameHeight, kFrameWidth);
  const std::vector<DriveFrame> drive =
      make_drive(spec.seed, camera, kDriveFrames, 3, 1, lose_lidar);
  const kitti::DepthPreprocConfig preproc;

  SpanRecorder recorder(spec.trace ? kSpanCapacity : 0);
  std::vector<uint8_t> mask;
  SensorStatus status = SensorStatus::kHealthy;
  Tensor depth;
  Tensor probability;
  // project -> densify -> triage -> predict -> mask
  const auto op = [&](const roadseg::RoadSegNet& net, int64_t i) {
    const DriveFrame& frame = drive[static_cast<size_t>(i % kDriveFrames)];
    const ScopedSpan root(recorder, "op", i);
    Tensor sparse;
    {
      const ScopedSpan span(recorder, "kitti.project", i);
      sparse = kitti::project_to_sparse_depth(frame.points, camera);
    }
    {
      const ScopedSpan span(recorder, "kitti.preprocess", i);
      depth = kitti::preprocess_depth(sparse, preproc);
    }
    {
      const ScopedSpan span(recorder, "kitti.health", i);
      status = kitti::check_sensor_health(frame.rgb, depth).status;
    }
    if (status == SensorStatus::kHealthy) {
      const ScopedSpan span(recorder, "roadseg.predict", i);
      probability = net.predict(frame.rgb, depth);
    } else {
      const ScopedSpan span(recorder, "roadseg.predict_fused", i);
      probability = net.predict_fused(frame.rgb, depth, 0.0f);
    }
    const ScopedSpan span(recorder, "bench.mask", i);
    threshold(probability, mask);
  };

  double setup_s = 0.0;
  std::vector<Tensor> firsts;
  const Served served = set_up(
      model.path(), false,
      [&](const Served& s) {
        op(*s.net, 0);
        return Tensor(probability);
      },
      setup_s, firsts);
  const roadseg::RoadSegNet& net = *served.net;
  for (int64_t i = 1; i <= kWarmupOps; ++i) {
    op(net, i);
  }

  std::vector<CheckedOp> checked;
  const Counters before = Counters::read();
  const uint64_t heap_before = heap_allocations();
  const ClosedLoop loop = closed_loop(
      spec.seconds, spec.trace, recorder, [&](int64_t i) { op(net, i); },
      [&](int64_t i, OpRecord& record) {
        record.fused = status == SensorStatus::kHealthy;
        record.misjudged = status != expected;
        if (checked.size() < kCheckedFrameOps) {
          checked.push_back({static_cast<int>(i % kDriveFrames), depth,
                             Tensor(probability), mask, false, Tensor()});
        }
      });
  const uint64_t heap_allocs = heap_allocations() - heap_before;
  const double rss_mb = peak_rss_mb();
  const Counters after = Counters::read();

  // Output checks, after timing: every checked mask and probability against
  // the graph oracle at the fusion weight triage chose.
  const float weight = lose_lidar ? 0.0f : 1.0f;
  std::vector<uint8_t> oracle_mask;
  for (const CheckedOp& c : checked) {
    const Tensor oracle = graph_probability(
        net, drive[static_cast<size_t>(c.frame)].rgb, c.depth, weight);
    threshold(oracle, oracle_mask);
    if (!same_bits(oracle, c.probability) || oracle_mask != c.mask) {
      ++result.failed;
      fail(result, "frame " + std::to_string(c.frame) +
                       ": output differs from sigmoid(forward_fused)");
    }
  }
  // Each set-up's first output is frame 0's.
  {
    const Tensor sparse =
        kitti::project_to_sparse_depth(drive[0].points, camera);
    const Tensor oracle = graph_probability(
        net, drive[0].rgb, kitti::preprocess_depth(sparse, preproc), weight);
    for (size_t k = 0; k < firsts.size(); ++k) {
      if (!same_bits(firsts[k], oracle)) {
        fail(result, "set-up " + std::to_string(k) +
                         ": first output differs from the oracle");
      }
    }
  }

  const int64_t wrong = wrong_verdicts(loop);
  if (wrong > 0) {
    fail(result, std::to_string(wrong) + " ops triaged as other than " +
                     kitti::to_string(expected));
  }
  result.attempted = static_cast<int64_t>(loop.ops.size());
  result.failed += wrong;
  const double ops = static_cast<double>(result.attempted);
  if (!spec.trace) {
    add_end_to_end(result, setup_s, rss_mb, loop.ops, loop.start_ns,
                   loop.end_ns, kFrameSloMs);
    return result;
  }
  add_trace_metrics(result, spec, recorder, loop.ops);
  add_counter_metrics(result, before, after, heap_allocs, ops, ops);
  return result;
}

RunResult run_stream(const RunSpec& spec) {
  RunResult result;
  tensor::Rng model_rng(kModelSeed);
  roadseg::RoadSegNet seeded(net_config(), model_rng);
  const ModelFile model(spec.out_dir, seeded);
  const vision::Camera camera = make_camera(kStreamHeight, kStreamWidth);
  const std::vector<DriveFrame> drive =
      make_drive(spec.seed, camera, kStreamFrames, 1, kLidarPeriod, false);
  const kitti::DepthPreprocConfig preproc;

  // Stream state: the last scan and its densified depth (the tiled
  // preprocessing's reference), and the cross-frame feature cache.
  struct State {
    bool has_scan = false;
    Tensor sparse;
    Tensor depth;
    roadseg::StreamFeatureCache cache;
    kitti::TiledPreprocStats tiles;
  };
  SpanRecorder recorder(spec.trace ? kSpanCapacity : 0);
  std::vector<uint8_t> mask;
  SensorStatus status = SensorStatus::kHealthy;
  Tensor probability;
  const auto op = [&](const roadseg::RoadSegNet& net, State& state,
                      int64_t i) {
    const int frame = static_cast<int>(i % kStreamFrames);
    const bool refresh = frame % kLidarPeriod == 0;
    const DriveFrame& input = drive[static_cast<size_t>(frame)];
    const ScopedSpan root(recorder, "op", i);
    if (refresh) {
      Tensor sparse;
      {
        const ScopedSpan span(recorder, "kitti.project", i);
        sparse = kitti::project_to_sparse_depth(input.points, camera);
      }
      const ScopedSpan span(recorder, "kitti.preprocess", i);
      if (state.has_scan) {
        kitti::TiledPreprocStats tiles;
        state.depth = kitti::preprocess_depth_tiled(
            sparse, state.sparse, state.depth, preproc, &tiles);
        state.tiles.tiles_total += tiles.tiles_total;
        state.tiles.tiles_reused += tiles.tiles_reused;
      } else {
        state.depth = kitti::preprocess_depth(sparse, preproc);
      }
      state.sparse = std::move(sparse);
      state.has_scan = true;
    }
    {
      const ScopedSpan span(recorder, "kitti.health", i);
      status = kitti::check_sensor_health(input.rgb, state.depth).status;
    }
    {
      const ScopedSpan span(recorder, "roadseg.predict_stream", i);
      // A stream needs healthy depth: the cache may only be reused while
      // the depth that populated it is the depth being served.
      probability = net.predict_stream(
          input.rgb, state.depth,
          status == SensorStatus::kHealthy ? 1.0f : 0.0f, state.cache,
          !refresh);
    }
    const ScopedSpan span(recorder, "bench.mask", i);
    threshold(probability, mask);
  };

  double setup_s = 0.0;
  std::vector<Tensor> firsts;
  const Served served = set_up(
      model.path(), false,
      [&](const Served& s) {
        State fresh;
        op(*s.net, fresh, 0);
        return Tensor(probability);
      },
      setup_s, firsts);
  const roadseg::RoadSegNet& net = *served.net;
  {
    State warm;
    for (int64_t i = 0; i < kWarmupOps; ++i) {
      op(net, warm, i);
    }
  }

  State state;
  std::vector<CheckedOp> checked;
  const Counters before = Counters::read();
  const uint64_t heap_before = heap_allocations();
  const ClosedLoop loop = closed_loop(
      spec.seconds, spec.trace, recorder,
      [&](int64_t i) { op(net, state, i); },
      [&](int64_t i, OpRecord& record) {
        record.fused = status == SensorStatus::kHealthy;
        record.misjudged = !record.fused;
        if (checked.size() < kCheckedStreamOps) {
          const int frame = static_cast<int>(i % kStreamFrames);
          const bool refreshed = frame % kLidarPeriod == 0;
          checked.push_back({frame, state.depth, Tensor(probability), mask,
                             refreshed, refreshed ? state.sparse : Tensor()});
        }
      });
  const uint64_t heap_allocs = heap_allocations() - heap_before;
  const double rss_mb = peak_rss_mb();
  const Counters after = Counters::read();

  // Output checks: each checked frame against an independent predict on
  // the same inputs, and each refreshed depth against an untiled
  // preprocess of the same scan.
  for (const CheckedOp& c : checked) {
    const Tensor independent =
        net.predict(drive[static_cast<size_t>(c.frame)].rgb, c.depth);
    if (!same_bits(independent, c.probability)) {
      ++result.failed;
      fail(result, "stream frame " + std::to_string(c.frame) +
                       ": predict_stream differs from predict");
    }
    if (c.refreshed &&
        !same_bits(kitti::preprocess_depth(c.sparse, preproc), c.depth)) {
      fail(result, "stream frame " + std::to_string(c.frame) +
                       ": tiled depth differs from preprocess_depth");
    }
  }
  for (size_t k = 0; k < firsts.size(); ++k) {
    if (!same_bits(firsts[k], checked.front().probability)) {
      fail(result, "set-up " + std::to_string(k) + ": first output wrong");
    }
  }

  const int64_t wrong = wrong_verdicts(loop);
  if (wrong > 0) {
    fail(result, std::to_string(wrong) + " stream ops not kHealthy");
  }
  result.attempted = static_cast<int64_t>(loop.ops.size());
  result.failed += wrong;
  const double ops = static_cast<double>(result.attempted);
  if (!spec.trace) {
    add_end_to_end(result, setup_s, rss_mb, loop.ops, loop.start_ns,
                   loop.end_ns, kFrameSloMs);
    return result;
  }
  add_trace_metrics(result, spec, recorder, loop.ops);
  add_counter_metrics(result, before, after, heap_allocs, ops, ops);
  result.layer["kitti.tiles_reused_share"] =
      share(static_cast<double>(state.tiles.tiles_reused),
            static_cast<double>(state.tiles.tiles_total));
  result.layer["roadseg.stream_hit_share"] =
      share(static_cast<double>(state.cache.hits),
            static_cast<double>(state.cache.hits + state.cache.misses));
  return result;
}

// ---------------------------------------------------------------------------
// Open loop: door_steady, door_overload
// ---------------------------------------------------------------------------

struct DoorTally {
  int64_t sent = 0;
  int64_t served = 0;
  int64_t shed = 0;  ///< RetryAfterError{kOverloaded}
  int64_t rate_limited = 0;
  int64_t timed_out = 0;
  int64_t failed = 0;  ///< wrong output or an error outside the contract
  /// Per request; a served op's latency runs from its scheduled send.
  std::vector<OpRecord> ops;
  int64_t start_ns = 0;
  int64_t end_ns = 0;  ///< last resolution
};

/// Drives `schedule` through the door from one load thread. Until the next
/// send is due it sweeps the outstanding futures with wait_for(0), so a
/// completion is stamped within one sweep without another thread. The
/// thread never sleeps: waking an idle vCPU of a virtual machine can take
/// milliseconds, which showed as run-to-run swings in door latency.
DoorTally drive_door(serve::FrontDoor& door, const DoorInputs& in,
                     const std::vector<DoorRequest>& schedule, bool trace,
                     SpanRecorder& recorder, RunResult& result) {
  struct Pending {
    size_t request = 0;
    std::future<runtime::InferenceResult> future;
    int32_t span = -1;
    int64_t submitted_ns = 0;
  };
  DoorTally tally;
  tally.ops.resize(schedule.size());
  std::vector<Pending> pending;
  pending.reserve(4 * kShardQueue * kShards);

  tally.start_ns = now_ns();
  const auto scheduled_ns = [&](size_t i) {
    return tally.start_ns + static_cast<int64_t>(schedule[i].at_s * 1e9);
  };
  const auto resolve = [&](Pending& p, int64_t done) {
    const DoorRequest& request = schedule[p.request];
    recorder.set_enabled(p.span >= 0);
    recorder.record("runtime.request", static_cast<int64_t>(p.request),
                    p.submitted_ns, done, p.span);
    recorder.set_end(p.span, done);
    try {
      const runtime::InferenceResult r = p.future.get();
      const Tensor& oracle =
          r.degraded ? in.oracle_degraded[static_cast<size_t>(request.scene)]
                     : in.oracle_fused[static_cast<size_t>(request.scene)];
      if ((request.dead && !r.degraded) || !same_bits(r.output, oracle)) {
        ++tally.failed;
        fail(result, "request " + std::to_string(p.request) +
                         ": response differs from the oracle");
        return;
      }
      ++tally.served;
      OpRecord& record = tally.ops[p.request];
      record.latency_ms = to_ms(done - record.start_ns);
      record.served = true;
      record.fused = !r.degraded;
    } catch (const runtime::DeadlineExceededError&) {
      ++tally.timed_out;
    } catch (const roadfusion::Error& e) {
      ++tally.failed;
      fail(result, "request " + std::to_string(p.request) + ": " + e.what());
    }
  };
  const auto send = [&](size_t i, int64_t now) {
    const DoorRequest& request = schedule[i];
    const int64_t op = static_cast<int64_t>(i);
    ++tally.sent;
    tally.ops[i].start_ns = scheduled_ns(i);
    tally.ops[i].late_ms = to_ms(now - scheduled_ns(i));
    recorder.set_enabled(traced_op(trace, op));
    const int32_t span = recorder.record("op", op, scheduled_ns(i), 0, -1);
    serve::ServeOptions options;
    options.low_priority = request.low_priority;
    options.tenant = request.low_priority ? "batch" : "interactive";
    options.route_key = i + 1;
    const size_t scene = static_cast<size_t>(request.scene);
    Tensor rgb = in.rgb[scene];
    Tensor depth = request.dead ? in.dead_depth : in.depth[scene];
    const int64_t t0 = now_ns();
    try {
      std::future<runtime::InferenceResult> future =
          door.submit(std::move(rgb), std::move(depth), options);
      const int64_t t1 = now_ns();
      recorder.record("serve.submit", op, t0, t1, span);
      pending.push_back({i, std::move(future), span, t1});
    } catch (const serve::RetryAfterError& e) {
      const int64_t t1 = now_ns();
      recorder.record("serve.submit", op, t0, t1, span);
      recorder.set_end(span, t1);
      ++(e.reason() == serve::RejectReason::kRateLimited ? tally.rate_limited
                                                          : tally.shed);
    } catch (const roadfusion::Error& e) {
      recorder.set_end(span, now_ns());
      ++tally.failed;
      fail(result, "request " + std::to_string(i) + ": " + e.what());
    }
  };

  size_t next = 0;
  while (next < schedule.size() || !pending.empty()) {
    const int64_t now = now_ns();
    if (next < schedule.size() && now >= scheduled_ns(next)) {
      send(next, now);
      ++next;
      continue;
    }
    for (size_t k = 0; k < pending.size();) {
      if (pending[k].future.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        ++k;
        continue;
      }
      const int64_t done = now_ns();
      resolve(pending[k], done);
      tally.end_ns = done;
      pending[k] = std::move(pending.back());
      pending.pop_back();
    }
  }
  recorder.set_enabled(false);
  tally.end_ns = std::max(tally.end_ns, now_ns());
  return tally;
}

RunResult run_door(const RunSpec& spec, double rate_rps) {
  RunResult result;
  tensor::Rng model_rng(kModelSeed);
  roadseg::RoadSegNet seeded(net_config(), model_rng);
  const ModelFile model(spec.out_dir, seeded);
  seeded.set_training(false);
  const DoorInputs in = make_door_inputs(spec.seed, seeded);
  const std::vector<DoorRequest> warmup =
      make_schedule(rate_rps, kDoorWarmupS, derive(spec.seed, 0x3a41));
  const std::vector<DoorRequest> schedule =
      make_schedule(rate_rps, spec.seconds, derive(spec.seed, 0x5c4ed));

  double setup_s = 0.0;
  std::vector<Tensor> firsts;
  Served served = set_up(
      model.path(), true,
      [&](const Served& s) {
        return s.door->submit(in.rgb[0], in.depth[0], {}).get().output;
      },
      setup_s, firsts);
  for (size_t k = 0; k < firsts.size(); ++k) {
    if (!same_bits(firsts[k], in.oracle_fused[0])) {
      fail(result, "set-up " + std::to_string(k) +
                       ": first output differs from the oracle");
    }
  }
  serve::FrontDoor& door = *served.door;
  SpanRecorder recorder(spec.trace ? kSpanCapacity : 0);
  {
    SpanRecorder off(0);
    (void)drive_door(door, in, warmup, false, off, result);
  }

  const serve::FrontDoorStats door_before = door.stats();
  const Counters before = Counters::read();
  const uint64_t heap_before = heap_allocations();
  const DoorTally tally =
      drive_door(door, in, schedule, spec.trace, recorder, result);
  const uint64_t heap_allocs = heap_allocations() - heap_before;
  const double rss_mb = peak_rss_mb();
  const Counters after = Counters::read();
  const serve::FrontDoorStats door_after = door.stats();

  // Every request ends in exactly one outcome, and the door's own counters
  // agree with what the client saw.
  const int64_t accounted = tally.served + tally.shed + tally.rate_limited +
                            tally.timed_out + tally.failed;
  if (accounted != tally.sent) {
    fail(result, "accounting: sent " + std::to_string(tally.sent) +
                     " but accounted " + std::to_string(accounted));
  }
  const uint64_t door_refused =
      (door_after.shed - door_before.shed) +
      (door_after.shard_full - door_before.shard_full);
  if (door_after.submitted - door_before.submitted !=
          static_cast<uint64_t>(tally.sent) ||
      door_after.rate_limited - door_before.rate_limited !=
          static_cast<uint64_t>(tally.rate_limited) ||
      door_refused != static_cast<uint64_t>(tally.shed)) {
    fail(result, "front-door counters disagree with the client's outcomes");
  }
  const double late_p99 = median_window(
      tally.ops, tally.start_ns, tally.end_ns,
      [](const std::vector<const OpRecord*>& window) {
        std::vector<double> late_ms;
        for (const OpRecord* op : window) {
          late_ms.push_back(op->late_ms);
        }
        return quantile(late_ms, 0.99);
      });
  if (late_p99 > kMaxSendLateMs) {
    fail(result, "load generator fell behind its schedule: send lateness "
                 "p99 " + std::to_string(late_p99) + " ms > 1 ms");
  }
  std::map<std::string, double>& layer = result.layer;
  layer["bench.send_late_ms_p99"] = late_p99;

  result.attempted = tally.sent;
  result.failed = tally.failed;
  if (!spec.trace) {
    add_end_to_end(result, setup_s, rss_mb, tally.ops, tally.start_ns,
                   tally.end_ns, kDoorSloMs);
    return result;
  }
  add_trace_metrics(result, spec, recorder, tally.ops);
  const double sent = static_cast<double>(tally.sent);
  const double batches = static_cast<double>(after.batches - before.batches);
  add_counter_metrics(result, before, after, heap_allocs, sent, batches);
  layer["runtime.batch_size_mean"] =
      share(static_cast<double>(after.batched_requests -
                                before.batched_requests),
            batches);
  layer["runtime.queue_wait_ms_p50"] = histogram_quantile(before, after, 0.5);
  layer["runtime.queue_wait_ms_p99"] = histogram_quantile(before, after, 0.99);
  layer["runtime.engine_ms_p50"] = door_after.engine.p50_latency_ms;
  int tier_max = door_before.tier;
  for (int t = serve::kTierCount - 1; t > tier_max; --t) {
    if (door_after.tier_entries[static_cast<size_t>(t)] >
        door_before.tier_entries[static_cast<size_t>(t)]) {
      tier_max = t;
    }
  }
  layer["serve.shed_share"] = share(static_cast<double>(tally.shed), sent);
  layer["serve.forced_degraded_share"] =
      share(static_cast<double>(door_after.forced_degraded -
                                door_before.forced_degraded),
            sent);
  layer["serve.spill_share"] =
      share(static_cast<double>(door_after.spills - door_before.spills), sent);
  layer["serve.tier_max"] = static_cast<double>(tier_max);
  return result;
}

}  // namespace

const std::vector<std::string>& workload_names() { return kWorkloads; }

RunResult run_workload(const RunSpec& spec) {
  // Linking the plan library installs its hooks; the call keeps that
  // independent of link order.
  plan::install_hooks();
  const double probe_ms = host_probe_ms();
  RunResult result;
  if (spec.workload == "frame_fused") {
    result = run_frame(spec, false);
  } else if (spec.workload == "frame_rgb_only") {
    result = run_frame(spec, true);
  } else if (spec.workload == "stream_reuse") {
    result = run_stream(spec);
  } else if (spec.workload == "door_steady") {
    result = run_door(spec, kSteadyRps);
  } else {
    result = run_door(spec, kOverloadRps);
  }
  result.layer["bench.host_probe_ms"] = probe_ms;
  for (const Metric& m : kLayerMetrics) {
    const auto it = result.layer.find(m.name);
    if (spec.trace) {
      result.metrics.push_back(
          {m.name, m.unit, it == result.layer.end() ? 0.0 : it->second});
    } else if (it != result.layer.end()) {
      result.detail.push_back({m.name, m.unit, it->second});
    }
  }
  return result;
}

double probe_door_capacity(uint64_t seed, double seconds) {
  plan::install_hooks();
  tensor::Rng model_rng(kModelSeed);
  roadseg::RoadSegNet net(net_config(), model_rng);
  net.set_training(false);
  const DoorInputs in = make_door_inputs(seed, net);
  serve::FrontDoor door(net, door_config());
  // The door workloads' mix, sent closed-loop with kCapacityOutstanding
  // requests outstanding.
  const std::vector<DoorRequest> mix =
      make_schedule(1000.0, 60.0, derive(seed, 0xcab));
  std::vector<std::future<runtime::InferenceResult>> pending;
  size_t next = 0;
  int64_t served = 0;
  int64_t start = 0;
  const auto submit = [&] {
    const DoorRequest& r = mix[next++ % mix.size()];
    serve::ServeOptions options;
    options.low_priority = r.low_priority;
    options.tenant = r.low_priority ? "batch" : "interactive";
    options.route_key = next;
    const size_t scene = static_cast<size_t>(r.scene);
    pending.push_back(door.submit(in.rgb[scene],
                                  r.dead ? in.dead_depth : in.depth[scene],
                                  options));
  };
  for (int i = 0; i < kCapacityOutstanding; ++i) {
    submit();
  }
  const int64_t warm_until = now_ns() + 1'000'000'000;
  while (true) {
    const int64_t now = now_ns();
    if (start == 0 && now >= warm_until) {
      start = now;
      served = 0;
    }
    if (start != 0 && now - start >= static_cast<int64_t>(seconds * 1e9)) {
      break;
    }
    pending.front().get();
    pending.erase(pending.begin());
    ++served;
    submit();
  }
  const double elapsed_s = static_cast<double>(now_ns() - start) * 1e-9;
  for (auto& f : pending) {
    f.wait();
  }
  const serve::FrontDoorStats stats = door.stats();
  std::printf("door probe: %llu forced degraded, tier entries %llu/%llu, "
              "mean batch %.2f\n",
              static_cast<unsigned long long>(stats.forced_degraded),
              static_cast<unsigned long long>(stats.tier_entries[1]),
              static_cast<unsigned long long>(stats.tier_entries[2]),
              stats.engine.mean_batch_size);
  return static_cast<double>(served) / elapsed_s;
}

}  // namespace rfbench
