#include "runtime/engine.hpp"

#include <algorithm>
#include <utility>

#include "obs/clock.hpp"
#include "obs/trace.hpp"
#include "tensor/shape.hpp"
#include "tensor/workspace.hpp"

namespace roadfusion::runtime {

using tensor::Shape;
using tensor::Tensor;

InferenceEngine::InferenceEngine(roadseg::SegmentationModel& model,
                                 const EngineConfig& config)
    : model_(model), config_(config), queue_(config.queue_capacity) {
  ROADFUSION_CHECK(config.threads >= 1,
                   "engine needs >= 1 worker thread, got " << config.threads);
  ROADFUSION_CHECK(config.max_batch >= 1,
                   "engine needs max_batch >= 1, got " << config.max_batch);
  ROADFUSION_CHECK(config.queue_capacity >= 1,
                   "engine needs queue_capacity >= 1, got "
                       << config.queue_capacity);
  ROADFUSION_CHECK(config.max_wait_us >= 0,
                   "engine needs max_wait_us >= 0, got "
                       << config.max_wait_us);
  ROADFUSION_CHECK(config.default_deadline_ms >= 0,
                   "engine needs default_deadline_ms >= 0, got "
                       << config.default_deadline_ms);
  model.set_training(false);
  // Build the inference plan (the packed weights) up front so the workers
  // never race a lazy build on the first batch.
  model.prepare_inference();
  workers_.reserve(static_cast<size_t>(config.threads));
  for (int i = 0; i < config.threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

InferenceEngine::~InferenceEngine() { shutdown(ShutdownMode::kDrain); }

std::future<InferenceResult> InferenceEngine::submit(
    Tensor rgb, Tensor depth, const SubmitOptions& options) {
  Request request;
  const kitti::SensorHealthReport health =
      kitti::check_sensor_health(rgb, depth, config_.health);
  if (health.status == kitti::SensorStatus::kInvalid) {
    stats_.record_invalid_input();
    throw InvalidInputError("rejected sensor input: " + health.detail);
  }
  request.degraded = health.status == kitti::SensorStatus::kDegraded ||
                     options.force_degraded;
  // A geometry the model cannot run (e.g. extents not divisible by the
  // network stride) is rejected here rather than failing in a worker.
  try {
    model_.check_inputs(
        Shape::nchw(1, rgb.shape().dim(0), rgb.shape().dim(1),
                    rgb.shape().dim(2)),
        Shape::nchw(1, depth.shape().dim(0), depth.shape().dim(1),
                    depth.shape().dim(2)),
        1.0f);
  } catch (const roadfusion::Error& e) {
    stats_.record_invalid_input();
    throw InvalidInputError(std::string("rejected input geometry: ") +
                            e.what());
  }
  request.rgb = std::move(rgb);
  request.depth = std::move(depth);
  request.scenario = options.scenario;
  request.stream_cache = options.stream_cache;
  request.depth_unchanged = options.depth_unchanged;
  request.enqueue_time = std::chrono::steady_clock::now();
  if (obs::tracing_enabled()) {
    request.trace_submit_us = obs::now_us();
  }
  const int64_t deadline_ms = options.deadline_ms != 0
                                  ? options.deadline_ms
                                  : config_.default_deadline_ms;
  if (deadline_ms > 0) {
    request.has_deadline = true;
    request.deadline =
        request.enqueue_time + std::chrono::milliseconds(deadline_ms);
  }
  std::future<InferenceResult> future = request.result.get_future();
  const bool degraded = request.degraded;

  const PushResult pushed = config_.overflow == OverflowPolicy::kBlock
                                ? queue_.push(std::move(request))
                                : queue_.try_push(std::move(request));
  switch (pushed) {
    case PushResult::kOk:
      stats_.record_submitted();
      if (!options.scenario.empty()) {
        scenario_counter("roadfusion_scenario_requests_total",
                         options.scenario)
            .inc();
        if (degraded) {
          scenario_counter("roadfusion_scenario_degraded_total",
                           options.scenario)
              .inc();
        }
      }
      return future;
    case PushResult::kFull:
      stats_.record_rejection();
      throw QueueFullError("inference queue full (capacity " +
                           std::to_string(queue_.capacity()) + ")");
    case PushResult::kClosed:
      throw EngineStoppedError("engine is shut down");
  }
  throw EngineStoppedError("unreachable");  // silences -Wreturn-type
}

void InferenceEngine::shutdown(ShutdownMode mode) {
  std::call_once(shutdown_once_, [&] {
    queue_.close();
    if (mode == ShutdownMode::kCancel) {
      std::vector<Request> pending = queue_.drain();
      for (Request& request : pending) {
        request.result.set_exception(std::make_exception_ptr(
            RequestCancelledError("request cancelled by engine shutdown")));
      }
      stats_.record_cancelled(pending.size());
    }
    for (std::thread& worker : workers_) {
      worker.join();
    }
  });
}

obs::Counter& InferenceEngine::scenario_counter(const std::string& family,
                                                const std::string& scenario) {
  std::string name = family;
  name += "{scenario=\"";
  name += scenario;
  name += "\"}";
  std::lock_guard<std::mutex> lock(scenario_mutex_);
  auto it = scenario_counters_.find(name);
  if (it == scenario_counters_.end()) {
    obs::Counter& counter = obs::MetricsRegistry::global().counter(name);
    it = scenario_counters_.emplace(name, &counter).first;
  }
  return *it->second;
}

void InferenceEngine::worker_loop() {
  // One arena per worker (DESIGN.md §11): the first batch populates it,
  // every later batch of the same geometry reuses the blocks — the serving
  // steady state allocates nothing. Result tensors escape to client
  // threads safely; their blocks flow back into this arena on release.
  tensor::Workspace workspace;
  const tensor::WorkspaceScope scope(workspace);
  // Degraded requests run a different forward (fusion_weight = 0), so a
  // batch is homogeneous in both geometry and degradation mode.
  const auto compatible = [](const Request& head, const Request& next) {
    // Streaming requests are singleton batches: the feature cache binds
    // one frame to one forward, so they never collate with anything.
    return head.stream_cache == nullptr && next.stream_cache == nullptr &&
           head.rgb.shape() == next.rgb.shape() &&
           head.depth.shape() == next.depth.shape() &&
           head.degraded == next.degraded;
  };
  while (true) {
    std::vector<Request> batch = queue_.pop_batch(
        static_cast<size_t>(config_.max_batch),
        std::chrono::microseconds(config_.max_wait_us), compatible);
    if (batch.empty()) {
      return;  // closed and drained
    }
    serve_batch(batch);
  }
}

void InferenceEngine::serve_batch(std::vector<Request>& batch) {
  // Expire deadlines first: a request whose queue wait already exceeded
  // its budget fails fast instead of consuming a slot in the forward.
  const auto now = std::chrono::steady_clock::now();
  std::vector<Request> live;
  live.reserve(batch.size());
  size_t expired = 0;
  for (const Request& request : batch) {
    // Queue wait of every popped request — including expired ones, whose
    // waits are exactly the pressure the front door's brownout ladder must
    // see (see recent_queue_wait_p99_ms).
    stats_.record_queue_wait(std::chrono::duration<double, std::milli>(
                                 now - request.enqueue_time)
                                 .count());
  }
  for (Request& request : batch) {
    if (request.has_deadline && now > request.deadline) {
      const double waited_ms = std::chrono::duration<double, std::milli>(
                                   now - request.enqueue_time)
                                   .count();
      request.result.set_exception(std::make_exception_ptr(
          DeadlineExceededError("request deadline exceeded after waiting " +
                                std::to_string(waited_ms) + " ms")));
      ++expired;
    } else {
      live.push_back(std::move(request));
    }
  }
  if (expired > 0) {
    stats_.record_timed_out(expired);
  }
  if (live.empty()) {
    return;
  }

  const int64_t n = static_cast<int64_t>(live.size());
  const Shape& rgb_shape = live.front().rgb.shape();
  const Shape& depth_shape = live.front().depth.shape();
  const int64_t height = rgb_shape.dim(1);
  const int64_t width = rgb_shape.dim(2);
  const bool degraded = live.front().degraded;
  stats_.record_batch(live.size());
  if (obs::tracing_enabled()) {
    // Queue-wait spans use explicit timestamps: the interval began on the
    // submitting thread but is recorded here, on the worker that picked
    // the request up, so the span lands on the serving thread's track.
    const int64_t picked_up_us = obs::now_us();
    for (const Request& request : live) {
      if (request.trace_submit_us != 0) {
        obs::record_event("engine.queue_wait", request.trace_submit_us,
                          picked_up_us - request.trace_submit_us);
      }
      if (!request.scenario.empty()) {
        // Zero-length marker event: lets trace tooling slice every span
        // of this batch by scenario label.
        const std::string name = "engine.scenario." + request.scenario;
        obs::record_event(name.c_str(), picked_up_us, 0);
      }
    }
  }
  try {
    if (config_.pre_forward_hook) {
      config_.pre_forward_hook(live.size());
    }
    // Collate (C, H, W) requests into one (N, C, H, W) pair; batch
    // elements are contiguous planes, so each request copies in flat.
    Tensor rgb(Shape::nchw(n, rgb_shape.dim(0), height, width));
    Tensor depth(Shape::nchw(n, depth_shape.dim(0), height, width));
    Tensor probability;
    {
      obs::ScopedSpan forward_span("engine.forward");
      const int64_t rgb_plane = rgb_shape.numel();
      const int64_t depth_plane = depth_shape.numel();
      for (int64_t i = 0; i < n; ++i) {
        std::copy(live[i].rgb.data().begin(), live[i].rgb.data().end(),
                  rgb.data().begin() + i * rgb_plane);
        std::copy(live[i].depth.data().begin(), live[i].depth.data().end(),
                  depth.data().begin() + i * depth_plane);
      }

      // Degraded batches go through the RGB-only path: fusion_weight = 0
      // never reads the (possibly NaN-poisoned) depth values.
      if (live.front().stream_cache != nullptr) {
        // Singleton by the compatibility rule; the session serialized its
        // submits, so the cache is touched by exactly one worker here.
        obs::ScopedSpan stream_span(live.front().depth_unchanged
                                        ? "stream.reuse"
                                        : "stream.refresh");
        probability = model_.predict_stream(
            rgb, depth, degraded ? 0.0f : 1.0f, *live.front().stream_cache,
            live.front().depth_unchanged);
      } else {
        probability = degraded ? model_.predict_fused(rgb, depth, 0.0f)
                               : model_.predict(rgb, depth);  // (N, 1, H, W)
      }
    }
    obs::ScopedSpan respond_span("engine.respond");
    const int64_t out_plane = height * width;
    size_t late = 0;
    for (int64_t i = 0; i < n; ++i) {
      // Second deadline check: the pop-time check only catches queue-wait
      // overruns. A request whose budget expired *during* the forward must
      // not be delivered silently late — it resolves with the same typed
      // error and is counted timed_out, so the SLO accounting (and the
      // soak bench's availability gate) sees every miss.
      const auto respond_time = std::chrono::steady_clock::now();
      if (live[i].has_deadline && respond_time > live[i].deadline) {
        const double waited_ms = std::chrono::duration<double, std::milli>(
                                     respond_time - live[i].enqueue_time)
                                     .count();
        live[i].result.set_exception(std::make_exception_ptr(
            DeadlineExceededError(
                "request deadline exceeded mid-flight; response ready "
                "after " +
                std::to_string(waited_ms) + " ms")));
        ++late;
        continue;
      }
      std::vector<float> values(
          probability.data().begin() + i * out_plane,
          probability.data().begin() + (i + 1) * out_plane);
      InferenceResult result;
      result.output = Tensor(Shape::chw(1, height, width), std::move(values));
      result.degraded = degraded;
      const double latency_ms = std::chrono::duration<double, std::milli>(
                                    respond_time - live[i].enqueue_time)
                                    .count();
      // Record before fulfilling: once the future is ready, a stats
      // snapshot must already count this request as served.
      stats_.record_served(latency_ms, degraded);
      live[i].result.set_value(std::move(result));
    }
    if (late > 0) {
      stats_.record_timed_out(late);
    }
  } catch (...) {
    // A forward failure (model error, injected fault, bad geometry) fails
    // every request of this batch with a typed InferenceError; the worker
    // itself stays alive for subsequent batches.
    std::string why = "batched forward failed";
    try {
      throw;
    } catch (const std::exception& error) {
      why += ": ";
      why += error.what();
    } catch (...) {
      why += ": unknown exception";
    }
    const std::exception_ptr error =
        std::make_exception_ptr(InferenceError(why));
    size_t failed = 0;
    for (Request& request : live) {
      try {
        request.result.set_exception(error);
        ++failed;
      } catch (const std::future_error&) {
        // promise already satisfied before the failure — nothing to do
      }
    }
    stats_.record_failed(failed);
  }
}

}  // namespace roadfusion::runtime
