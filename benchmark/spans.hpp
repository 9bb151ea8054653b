// rfbench's own span recorder (benchmark/README.md, "Traced run").
//
// Spans sit in the benchmark's code, around its calls into each layer's
// public functions; nothing inside src/ is instrumented. A span is named
// "<layer>.<call>" ("kitti.project", "roadseg.predict", "serve.submit"),
// except the per-op root, which is named "op" and belongs to the bench
// layer. Every span records its op id and its parent, so a layer's self
// time — its duration minus the part of it covered by child spans — is
// computed after the run.
//
// Recording is single-threaded (every workload drives its calls from one
// load thread) and never allocates: the span list is reserved up front and
// spans past its capacity are counted as dropped, so tracing does not
// perturb the heap-allocation counts it is measured next to.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace rfbench {

/// Nanoseconds on the steady clock the whole benchmark times with.
inline int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";  ///< static "<layer>.<call>" string, or "op"
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  ///< index of the parent span, -1 for an op root
  int64_t op = 0;
};

class SpanRecorder {
 public:
  explicit SpanRecorder(size_t capacity) { spans_.reserve(capacity); }

  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// Opens a span under the innermost open one; -1 when disabled or full.
  int32_t begin(const char* name, int64_t op) {
    const int32_t index = record(name, op, now_ns(), 0, open_);
    if (index >= 0) {
      open_ = index;
    }
    return index;
  }

  void end(int32_t index) {
    if (index < 0) {
      return;
    }
    spans_[static_cast<size_t>(index)].end_ns = now_ns();
    open_ = spans_[static_cast<size_t>(index)].parent;
  }

  /// Records a span with explicit bounds (an open loop learns when a
  /// request resolved only after the fact); end_ns may be set later.
  int32_t record(const char* name, int64_t op, int64_t start_ns,
                 int64_t end_ns, int32_t parent) {
    if (!enabled_) {
      return -1;
    }
    if (spans_.size() == spans_.capacity()) {
      ++dropped_;
      return -1;
    }
    spans_.push_back(Span{name, start_ns, end_ns, parent, op});
    return static_cast<int32_t>(spans_.size() - 1);
  }

  void set_end(int32_t index, int64_t end_ns) {
    if (index >= 0) {
      spans_[static_cast<size_t>(index)].end_ns = end_ns;
    }
  }

  const std::vector<Span>& spans() const { return spans_; }
  uint64_t dropped() const { return dropped_; }

 private:
  std::vector<Span> spans_;
  int32_t open_ = -1;
  bool enabled_ = false;
  uint64_t dropped_ = 0;
};

/// RAII span; a no-op while the recorder is disabled.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, const char* name, int64_t op)
      : recorder_(recorder), index_(recorder.begin(name, op)) {}
  ~ScopedSpan() { recorder_.end(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& recorder_;
  int32_t index_;
};

/// Aggregate of every span sharing one name.
struct SpanStats {
  std::string name;
  std::string layer;  ///< text before the first '.', "bench" for "op"
  int64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
  std::vector<double> durations_ms;  ///< one per span, for percentiles
};

/// Per-name totals and self times over every closed span, sorted by name.
std::vector<SpanStats> analyze(const std::vector<Span>& spans);

/// Human table: name, layer, count, total ms, self ms, self share of the
/// op total.
std::string format_table(const std::vector<SpanStats>& stats);

/// Writes the spans as a Chrome trace ("X" events, microseconds from the
/// first span). Returns false when the file cannot be written.
bool write_chrome_trace(const std::vector<Span>& spans,
                        const std::string& path);

}  // namespace rfbench
