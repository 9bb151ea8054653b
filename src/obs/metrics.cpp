#include "obs/metrics.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>

#include "common/check.hpp"

namespace roadfusion::obs {

namespace {

/// Prometheus metric name: [a-zA-Z_:][a-zA-Z0-9_:]*
bool valid_base_name(const std::string& name) {
  if (name.empty()) {
    return false;
  }
  const auto head_ok = [](char c) {
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == ':';
  };
  if (!head_ok(name.front())) {
    return false;
  }
  for (char c : name) {
    if (!head_ok(c) && !std::isdigit(static_cast<unsigned char>(c))) {
      return false;
    }
  }
  return true;
}

/// Accepts a plain base name or `base{key="value",...}` — labeled series
/// (e.g. the plan's roadfusion_plan_runs_total{variant=...})
/// register one instrument per label set, keyed by the full sample string.
/// Label keys follow [a-zA-Z_][a-zA-Z0-9_]*; values take any printable
/// character except '"' and '\'.
bool valid_metric_name(const std::string& name) {
  const size_t brace = name.find('{');
  if (brace == std::string::npos) {
    return valid_base_name(name);
  }
  if (name.back() != '}' || !valid_base_name(name.substr(0, brace))) {
    return false;
  }
  size_t pos = brace + 1;
  const size_t end = name.size() - 1;
  if (pos == end) {
    return false;  // empty label set: use the bare name instead
  }
  const auto key_char = [](char c, bool head) {
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_' ||
           (!head && std::isdigit(static_cast<unsigned char>(c)));
  };
  while (pos < end) {
    const size_t key_start = pos;
    while (pos < end && key_char(name[pos], pos == key_start)) {
      ++pos;
    }
    if (pos == key_start || pos + 1 >= end || name[pos] != '=' ||
        name[pos + 1] != '"') {
      return false;
    }
    pos += 2;
    while (pos < end && name[pos] != '"') {
      const char c = name[pos];
      if (c == '\\' || !std::isprint(static_cast<unsigned char>(c))) {
        return false;
      }
      ++pos;
    }
    if (pos >= end) {
      return false;  // unterminated label value
    }
    ++pos;  // closing quote
    if (pos < end) {
      if (name[pos] != ',' || pos + 1 == end) {
        return false;
      }
      ++pos;
    }
  }
  return true;
}

/// Metric family of a sample name: everything before the label set.
std::string family_of(const std::string& name) {
  const size_t brace = name.find('{');
  return brace == std::string::npos ? name : name.substr(0, brace);
}

const char* kind_name(MetricSnapshot::Kind kind) {
  switch (kind) {
    case MetricSnapshot::Kind::kCounter:
      return "counter";
    case MetricSnapshot::Kind::kGauge:
      return "gauge";
    case MetricSnapshot::Kind::kHistogram:
      return "histogram";
  }
  return "?";
}

}  // namespace

std::string format_metric_value(double value) {
  if (std::isfinite(value) && value == std::rint(value) &&
      std::fabs(value) < 9.007199254740992e15) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%lld",
                  static_cast<long long>(value));
    return buffer;
  }
  char buffer[48];
  std::snprintf(buffer, sizeof(buffer), "%.6g", value);
  return buffer;
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  ROADFUSION_CHECK(!bounds_.empty(), "histogram needs at least one bound");
  for (size_t i = 0; i + 1 < bounds_.size(); ++i) {
    ROADFUSION_CHECK(bounds_[i] < bounds_[i + 1],
                     "histogram bounds must be strictly increasing; bound "
                         << i << " (" << bounds_[i] << ") >= bound " << i + 1
                         << " (" << bounds_[i + 1] << ")");
  }
  buckets_ =
      std::make_unique<std::atomic<uint64_t>[]>(bounds_.size() + 1);
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
}

void Histogram::observe(double value) {
  // First bound >= value (le semantics: v == bound lands in that bucket).
  // NaN must be routed to the overflow bucket explicitly: lower_bound's
  // `bound < NaN` comparisons are all false, which would otherwise drop
  // NaN into the FIRST bucket.
  size_t index = bounds_.size();
  if (!std::isnan(value)) {
    const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
    index = static_cast<size_t>(it - bounds_.begin());
  }
  buckets_[index].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
}

std::vector<uint64_t> Histogram::bucket_counts() const {
  std::vector<uint64_t> out(bounds_.size() + 1);
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

void Histogram::reset() {
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

Counter& MetricsRegistry::counter(const std::string& name,
                                  const std::string& help) {
  ROADFUSION_CHECK(valid_metric_name(name), "invalid metric name '" << name
                                                                    << "'");
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& entry = entries_[name];
  if (!entry.counter) {
    ROADFUSION_CHECK(!entry.gauge && !entry.histogram,
                     "metric '" << name << "' already registered as "
                                << kind_name(entry.kind));
    entry.kind = MetricSnapshot::Kind::kCounter;
    entry.help = help;
    entry.counter = std::make_unique<Counter>();
  }
  return *entry.counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name,
                              const std::string& help) {
  ROADFUSION_CHECK(valid_metric_name(name), "invalid metric name '" << name
                                                                    << "'");
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& entry = entries_[name];
  if (!entry.gauge) {
    ROADFUSION_CHECK(!entry.counter && !entry.histogram && !entry.callback,
                     "metric '" << name << "' already registered as "
                                << kind_name(entry.kind));
    entry.kind = MetricSnapshot::Kind::kGauge;
    entry.help = help;
    entry.gauge = std::make_unique<Gauge>();
  }
  return *entry.gauge;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> bounds,
                                      const std::string& help) {
  ROADFUSION_CHECK(valid_metric_name(name), "invalid metric name '" << name
                                                                    << "'");
  // Histogram exposition appends _bucket/_sum/_count to the sample name,
  // which would land after a label set; labels stay counter/gauge-only.
  ROADFUSION_CHECK(name.find('{') == std::string::npos,
                   "histogram '" << name << "' cannot carry labels");
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& entry = entries_[name];
  if (!entry.histogram) {
    ROADFUSION_CHECK(!entry.counter && !entry.gauge,
                     "metric '" << name << "' already registered as "
                                << kind_name(entry.kind));
    entry.kind = MetricSnapshot::Kind::kHistogram;
    entry.help = help;
    entry.histogram = std::make_unique<Histogram>(std::move(bounds));
  } else {
    ROADFUSION_CHECK(entry.histogram->bounds() == bounds,
                     "histogram '" << name
                                   << "' re-registered with different bounds");
  }
  return *entry.histogram;
}

void MetricsRegistry::gauge_callback(const std::string& name,
                                     std::function<double()> fn,
                                     const std::string& help) {
  ROADFUSION_CHECK(valid_metric_name(name), "invalid metric name '" << name
                                                                    << "'");
  ROADFUSION_CHECK(fn != nullptr, "callback gauge '" << name
                                                     << "' needs a callable");
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& entry = entries_[name];
  ROADFUSION_CHECK(!entry.counter && !entry.gauge && !entry.histogram,
                   "metric '" << name << "' already registered as "
                              << kind_name(entry.kind));
  entry.kind = MetricSnapshot::Kind::kGauge;
  entry.help = help;
  entry.callback = std::move(fn);
}

std::vector<MetricSnapshot> MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<MetricSnapshot> out;
  out.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) {
    MetricSnapshot sample;
    sample.name = name;
    sample.help = entry.help;
    sample.kind = entry.kind;
    if (entry.counter) {
      sample.value = static_cast<double>(entry.counter->value());
    } else if (entry.gauge) {
      sample.value = entry.gauge->value();
    } else if (entry.callback) {
      sample.value = entry.callback();
    } else if (entry.histogram) {
      sample.bounds = entry.histogram->bounds();
      sample.buckets = entry.histogram->bucket_counts();
      sample.count = entry.histogram->count();
      sample.sum = entry.histogram->sum();
    }
    out.push_back(std::move(sample));
  }
  return out;  // std::map iteration is already name-sorted
}

std::string MetricsRegistry::render_prometheus() const {
  const std::vector<MetricSnapshot> samples = snapshot();
  std::string out;
  // HELP/TYPE describe the metric family (the name sans labels) and are
  // emitted once per family. Labeled series of one family are adjacent in
  // the name-sorted snapshot, so tracking the previous family suffices.
  std::string last_family;
  for (const MetricSnapshot& sample : samples) {
    const std::string family = family_of(sample.name);
    if (family != last_family) {
      if (!sample.help.empty()) {
        out += "# HELP " + family + " " + sample.help + "\n";
      }
      out += "# TYPE " + family + " ";
      out += kind_name(sample.kind);
      out += "\n";
      last_family = family;
    }
    if (sample.kind != MetricSnapshot::Kind::kHistogram) {
      out += sample.name + " " + format_metric_value(sample.value) + "\n";
      continue;
    }
    uint64_t cumulative = 0;
    for (size_t i = 0; i < sample.bounds.size(); ++i) {
      cumulative += sample.buckets[i];
      out += sample.name + "_bucket{le=\"" +
             format_metric_value(sample.bounds[i]) + "\"} " +
             std::to_string(cumulative) + "\n";
    }
    cumulative += sample.buckets.back();
    out += sample.name + "_bucket{le=\"+Inf\"} " +
           std::to_string(cumulative) + "\n";
    out += sample.name + "_sum " + format_metric_value(sample.sum) + "\n";
    out += sample.name + "_count " + std::to_string(sample.count) + "\n";
  }
  return out;
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, entry] : entries_) {
    if (entry.counter) {
      entry.counter->reset();
    }
    if (entry.gauge) {
      entry.gauge->reset();
    }
    if (entry.histogram) {
      entry.histogram->reset();
    }
  }
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry* instance = new MetricsRegistry();
  return *instance;
}

}  // namespace roadfusion::obs
