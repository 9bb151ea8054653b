#include "serve/front_door.hpp"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <utility>

#include "obs/clock.hpp"
#include "obs/trace.hpp"

namespace roadfusion::serve {

using runtime::InferenceEngine;
using runtime::InferenceResult;
using tensor::Tensor;

const char* to_string(RejectReason reason) {
  switch (reason) {
    case RejectReason::kRateLimited:
      return "rate_limited";
    case RejectReason::kOverloaded:
      return "overloaded";
  }
  return "unknown";
}

namespace {

/// SplitMix64 finalizer: decorrelates consecutive / low-entropy keys so
/// `% shards` and the alternate-candidate derivation see independent bits.
uint64_t mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

const char* tier_event_name(int tier) {
  switch (tier) {
    case 0:
      return "frontdoor.tier0";
    case 1:
      return "frontdoor.tier1";
    default:
      return "frontdoor.tier2";
  }
}

/// Every live door. The registry outlives the doors and keeps one
/// callback per name, so the queue-depth gauge sums whichever doors are
/// alive when it is sampled; a door leaves the set before it is freed.
struct LiveDoors {
  std::mutex mutex;
  std::vector<const FrontDoor*> doors;
};

LiveDoors& live_doors() {
  static LiveDoors* const live = new LiveDoors();
  return *live;
}

double live_queue_depth() {
  LiveDoors& live = live_doors();
  const std::lock_guard<std::mutex> lock(live.mutex);
  size_t depth = 0;
  for (const FrontDoor* door : live.doors) {
    depth += door->queue_depth();
  }
  return static_cast<double>(depth);
}

}  // namespace

std::pair<size_t, bool> pick_shard(uint64_t hash,
                                   const std::vector<size_t>& depths,
                                   size_t spill_margin) {
  const size_t n = depths.size();
  if (n <= 1) {
    return {0, false};
  }
  const size_t primary = static_cast<size_t>(hash % n);
  // Second independent choice over the remaining shards; skipping the
  // primary keeps the two candidates distinct.
  size_t alternate = static_cast<size_t>(mix64(hash) % (n - 1));
  if (alternate >= primary) {
    ++alternate;
  }
  // Consistent-first: affinity wins unless the primary is deeper by more
  // than the margin, so a balanced fleet never churns placement.
  if (depths[primary] > depths[alternate] + spill_margin) {
    return {alternate, true};
  }
  return {primary, false};
}

FrontDoor::FrontDoor(roadseg::SegmentationModel& model,
                     const FrontDoorConfig& config)
    : config_(config),
      buckets_(config.default_limits, config.tenant_limits),
      controller_(config.brownout),
      tier_gauge_(obs::MetricsRegistry::global().gauge(
          "roadfusion_frontdoor_tier",
          "Brownout tier currently in force (0 = nominal)")) {
  ROADFUSION_CHECK(config.shards >= 1,
                   "front door needs >= 1 shard, got " << config.shards);
  ROADFUSION_CHECK(config.est_batch_service_ms > 0.0,
                   "front door needs est_batch_service_ms > 0, got "
                       << config.est_batch_service_ms);
  runtime::EngineConfig engine_config = config.engine;
  // Blocking a submitter is the failure mode this layer exists to
  // prevent: full queues surface as spill/shed decisions instead.
  engine_config.overflow = runtime::OverflowPolicy::kReject;
  engines_.reserve(static_cast<size_t>(config.shards));
  for (int i = 0; i < config.shards; ++i) {
    engines_.push_back(std::make_unique<InferenceEngine>(model, engine_config));
  }
  tier_gauge_.set(0.0);
  obs::MetricsRegistry::global().gauge_callback(
      "roadfusion_frontdoor_queue_depth", &live_queue_depth,
      "Requests queued across all front-door shards");
  LiveDoors& live = live_doors();
  const std::lock_guard<std::mutex> lock(live.mutex);
  live.doors.push_back(this);
}

FrontDoor::~FrontDoor() {
  shutdown(runtime::ShutdownMode::kDrain);
  LiveDoors& live = live_doors();
  const std::lock_guard<std::mutex> lock(live.mutex);
  live.doors.erase(std::find(live.doors.begin(), live.doors.end(), this));
}

void FrontDoor::shutdown(runtime::ShutdownMode mode) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shut_down_) {
      return;
    }
    shut_down_ = true;
  }
  for (auto& engine : engines_) {
    engine->shutdown(mode);
  }
}

size_t FrontDoor::queue_depth() const {
  size_t depth = 0;
  for (const auto& engine : engines_) {
    depth += engine->queue_depth();
  }
  return depth;
}

double FrontDoor::pressure_ms() const {
  size_t depth = 0;
  double observed = 0.0;
  for (const auto& engine : engines_) {
    depth += engine->queue_depth();
    observed = std::max(observed, engine->recent_queue_wait_p99_ms());
  }
  const double slots = static_cast<double>(engines_.size()) *
                       static_cast<double>(config_.engine.max_batch);
  const double batches_ahead = static_cast<double>(depth) / slots;
  return std::max(batches_ahead * config_.est_batch_service_ms, observed);
}

int FrontDoor::tier() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return controller_.tier();
}

obs::Counter& FrontDoor::labeled_counter(const std::string& family,
                                         const std::string& tenant,
                                         int tier) {
  // Callers hold mutex_. Cached because registry lookup takes the
  // registry-wide lock and label names are rebuilt strings.
  std::string name = family;
  name += "{tenant=\"";
  name += tenant;
  name += '"';
  if (tier >= 0) {
    name += ",tier=\"";
    name += std::to_string(tier);
    name += '"';
  }
  name += '}';
  auto it = counter_cache_.find(name);
  if (it == counter_cache_.end()) {
    obs::Counter& counter = obs::MetricsRegistry::global().counter(name);
    it = counter_cache_.emplace(name, &counter).first;
  }
  return *it->second;
}

int FrontDoor::observe_tier(int64_t now_us) {
  // pressure_ms() reads shard state outside the lock on purpose: queue
  // depths are racy samples either way and the controller only needs a
  // consistent observation order, which mutex_ provides.
  const double pressure = pressure_ms();
  std::lock_guard<std::mutex> lock(mutex_);
  const int previous = controller_.tier();
  const int tier = controller_.observe(pressure, now_us);
  if (tier != previous) {
    tier_gauge_.set(static_cast<double>(tier));
    std::string transitions = "roadfusion_frontdoor_tier_transitions_total";
    transitions += "{tier=\"";
    transitions += std::to_string(tier);
    transitions += "\"}";
    auto it = counter_cache_.find(transitions);
    if (it == counter_cache_.end()) {
      it = counter_cache_
               .emplace(transitions,
                        &obs::MetricsRegistry::global().counter(transitions))
               .first;
    }
    it->second->inc();
    totals_.tier_entries[static_cast<size_t>(tier)] += 1;
    if (obs::tracing_enabled()) {
      obs::record_event(tier_event_name(tier), now_us, 0);
    }
  }
  return tier;
}

std::future<InferenceResult> FrontDoor::submit(Tensor rgb, Tensor depth,
                                               const ServeOptions& options) {
  obs::ScopedSpan span("frontdoor.submit");
  ROADFUSION_CHECK(!options.tenant.empty() &&
                       options.tenant.find('"') == std::string::npos &&
                       options.tenant.find('\\') == std::string::npos,
                   "tenant must be non-empty without '\"' or '\\', got '"
                       << options.tenant << "'");
  const int64_t now_us = obs::now_us();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++totals_.submitted;
    labeled_counter("roadfusion_frontdoor_submitted_total", options.tenant,
                    -1)
        .inc();
  }

  // Gate 1 — per-tenant admission control.
  const TokenBucket::Decision admission =
      buckets_.try_acquire(options.tenant, now_us);
  if (!admission.admitted) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++totals_.rate_limited;
    labeled_counter("roadfusion_frontdoor_rate_limited_total",
                    options.tenant, -1)
        .inc();
    throw RetryAfterError(
        RejectReason::kRateLimited, admission.retry_after_ms,
        "tenant '" + options.tenant + "' over admission rate; retry after " +
            std::to_string(admission.retry_after_ms) + " ms");
  }

  // Gate 2 — the brownout ladder.
  const int tier = observe_tier(now_us);
  if (tier >= 2 && options.low_priority) {
    // Retry-after tracks the estimated backlog drain: by then the ladder
    // has either stepped down or the request would be shed again anyway.
    const int64_t retry_after_ms = std::max<int64_t>(
        1, static_cast<int64_t>(std::llround(pressure_ms())));
    std::lock_guard<std::mutex> lock(mutex_);
    ++totals_.shed;
    labeled_counter("roadfusion_frontdoor_shed_total", options.tenant, -1)
        .inc();
    throw RetryAfterError(
        RejectReason::kOverloaded, retry_after_ms,
        "shed by brownout tier 2; retry after " +
            std::to_string(retry_after_ms) + " ms");
  }
  const bool force_degraded = tier >= 2 || (tier >= 1 && options.low_priority);

  // Gate 3 — shard routing (consistent primary, p2c spill on depth).
  std::vector<size_t> depths(engines_.size());
  for (size_t i = 0; i < engines_.size(); ++i) {
    depths[i] = engines_[i]->queue_depth();
  }
  const uint64_t key = options.route_key != 0
                           ? options.route_key
                           : std::hash<std::string>{}(options.tenant);
  const auto [first, spilled] =
      pick_shard(mix64(key), depths, config_.spill_margin);

  runtime::SubmitOptions submit_options;
  submit_options.deadline_ms = options.deadline_ms;
  submit_options.force_degraded = force_degraded;
  submit_options.scenario = options.scenario;
  submit_options.stream_cache = options.stream_cache;
  submit_options.depth_unchanged = options.depth_unchanged;

  const auto record_admitted = [&](bool was_spill) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++totals_.admitted;
    if (was_spill) {
      ++totals_.spills;
      obs::MetricsRegistry::global()
          .counter("roadfusion_frontdoor_spills_total",
                   "Requests routed off their consistent primary shard")
          .inc();
    }
    if (force_degraded) {
      ++totals_.forced_degraded;
      labeled_counter("roadfusion_frontdoor_degraded_forced_total",
                      options.tenant, -1)
          .inc();
    }
    labeled_counter("roadfusion_frontdoor_admitted_total", options.tenant,
                    tier)
        .inc();
  };

  // Fallback candidate: with >1 shard a full first choice falls over to
  // the other p2c candidate, so the first attempt must not consume the
  // tensors (engine submit takes them by value; a kReject push destroys
  // them). One deep copy (~50 KB) is noise next to a forward pass.
  if (engines_.size() == 1) {
    try {
      std::future<InferenceResult> future = engines_[0]->submit(
          std::move(rgb), std::move(depth), submit_options);
      record_admitted(spilled);
      return future;
    } catch (const runtime::QueueFullError&) {
      const int64_t retry_after_ms = std::max<int64_t>(
          1, static_cast<int64_t>(std::llround(pressure_ms())));
      std::lock_guard<std::mutex> lock(mutex_);
      ++totals_.shard_full;
      obs::MetricsRegistry::global()
          .counter("roadfusion_frontdoor_shard_full_total",
                   "Submissions that found every candidate shard full")
          .inc();
      throw RetryAfterError(
          RejectReason::kOverloaded, retry_after_ms,
          "all candidate shards full; retry after " +
              std::to_string(retry_after_ms) + " ms");
    }
  }
  size_t fallback = static_cast<size_t>(mix64(key) % engines_.size());
  if (fallback == first) {
    fallback = (fallback + 1) % engines_.size();
  }
  try {
    std::future<InferenceResult> future =
        engines_[first]->submit(Tensor(rgb), Tensor(depth), submit_options);
    record_admitted(spilled);
    return future;
  } catch (const runtime::QueueFullError&) {
    // fall through to the alternate
  }
  try {
    std::future<InferenceResult> future = engines_[fallback]->submit(
        std::move(rgb), std::move(depth), submit_options);
    record_admitted(true);
    return future;
  } catch (const runtime::QueueFullError&) {
    const int64_t retry_after_ms = std::max<int64_t>(
        1, static_cast<int64_t>(std::llround(pressure_ms())));
    std::lock_guard<std::mutex> lock(mutex_);
    ++totals_.shard_full;
    obs::MetricsRegistry::global()
        .counter("roadfusion_frontdoor_shard_full_total",
                 "Submissions that found every candidate shard full")
        .inc();
    throw RetryAfterError(
        RejectReason::kOverloaded, retry_after_ms,
        "all candidate shards full; retry after " +
            std::to_string(retry_after_ms) + " ms");
  }
}

FrontDoorStats FrontDoor::stats() const {
  FrontDoorStats out;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    out = totals_;
    out.tier = controller_.tier();
    out.tier_entries = controller_.entries();
  }
  out.queue_depth = queue_depth();
  out.shards.reserve(engines_.size());
  double latency_weighted = 0.0;
  uint64_t batched_requests = 0;
  for (const auto& engine : engines_) {
    out.shards.push_back(engine->stats());
    const runtime::RuntimeStats& s = out.shards.back();
    out.engine.requests_submitted += s.requests_submitted;
    out.engine.requests_served += s.requests_served;
    out.engine.requests_degraded += s.requests_degraded;
    out.engine.requests_failed += s.requests_failed;
    out.engine.requests_timed_out += s.requests_timed_out;
    out.engine.requests_cancelled += s.requests_cancelled;
    out.engine.queue_full_rejections += s.queue_full_rejections;
    out.engine.invalid_input_rejections += s.invalid_input_rejections;
    out.engine.batches_formed += s.batches_formed;
    batched_requests += static_cast<uint64_t>(
        s.mean_batch_size * static_cast<double>(s.batches_formed) + 0.5);
    latency_weighted +=
        s.mean_latency_ms * static_cast<double>(s.requests_served);
    out.engine.p50_latency_ms =
        std::max(out.engine.p50_latency_ms, s.p50_latency_ms);
    out.engine.p99_latency_ms =
        std::max(out.engine.p99_latency_ms, s.p99_latency_ms);
    out.engine.recent_queue_wait_p99_ms = std::max(
        out.engine.recent_queue_wait_p99_ms, s.recent_queue_wait_p99_ms);
    out.engine.throughput_rps += s.throughput_rps;
    out.engine.elapsed_s = std::max(out.engine.elapsed_s, s.elapsed_s);
  }
  if (out.engine.batches_formed > 0) {
    out.engine.mean_batch_size =
        static_cast<double>(batched_requests) /
        static_cast<double>(out.engine.batches_formed);
  }
  if (out.engine.requests_served > 0) {
    out.engine.mean_latency_ms =
        latency_weighted / static_cast<double>(out.engine.requests_served);
  }
  return out;
}

}  // namespace roadfusion::serve
