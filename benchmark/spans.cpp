#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>

namespace rfbench {

std::vector<SpanStats> analyze(const std::vector<Span>& spans) {
  // Child intervals per parent; the self time is the parent's duration
  // minus the union of its children (open-loop children may touch).
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& span : spans) {
    if (span.parent >= 0 && span.end_ns > 0) {
      children[static_cast<size_t>(span.parent)].emplace_back(span.start_ns,
                                                               span.end_ns);
    }
  }
  std::map<std::string, SpanStats> by_name;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    if (span.end_ns <= 0) {
      continue;  // never closed: a request still unresolved at exit
    }
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t cursor = span.start_ns;
    for (const auto& [start, end] : kids) {
      const int64_t from = std::max(start, cursor);
      const int64_t to = std::min(end, span.end_ns);
      if (to > from) {
        covered += to - from;
        cursor = to;
      }
    }
    const int64_t duration = span.end_ns - span.start_ns;
    SpanStats& stats = by_name[span.name];
    if (stats.count == 0) {
      stats.name = span.name;
      const std::string name = span.name;
      const size_t dot = name.find('.');
      stats.layer = dot == std::string::npos ? "bench" : name.substr(0, dot);
    }
    ++stats.count;
    stats.total_ms += static_cast<double>(duration) * 1e-6;
    stats.self_ms += static_cast<double>(duration - covered) * 1e-6;
    stats.durations_ms.push_back(static_cast<double>(duration) * 1e-6);
  }
  std::vector<SpanStats> out;
  for (auto& [name, stats] : by_name) {
    out.push_back(std::move(stats));
  }
  return out;
}

std::string format_table(const std::vector<SpanStats>& stats) {
  double op_total = 0.0;
  for (const SpanStats& s : stats) {
    if (s.name == "op") {
      op_total = s.total_ms;
    }
  }
  std::string out;
  char line[192];
  std::snprintf(line, sizeof(line), "%-24s %-8s %9s %12s %12s %8s\n", "span",
                "layer", "count", "total_ms", "self_ms", "self/op");
  out += line;
  for (const SpanStats& s : stats) {
    std::snprintf(line, sizeof(line), "%-24s %-8s %9lld %12.3f %12.3f %8.4f\n",
                  s.name.c_str(), s.layer.c_str(),
                  static_cast<long long>(s.count), s.total_ms, s.self_ms,
                  op_total > 0.0 ? s.self_ms / op_total : 0.0);
    out += line;
  }
  return out;
}

bool write_chrome_trace(const std::vector<Span>& spans,
                        const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return false;
  }
  int64_t origin = 0;
  for (const Span& span : spans) {
    if (origin == 0 || span.start_ns < origin) {
      origin = span.start_ns;
    }
  }
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", file);
  bool first = true;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    if (span.end_ns <= 0) {
      continue;
    }
    // Open-loop ops overlap in time; spreading them over a few tracks
    // keeps each track's events nested.
    std::fprintf(file,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%lld,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%lld,"
                 "\"span\":%zu,\"parent\":%d}}",
                 first ? "" : ",", span.name,
                 static_cast<long long>(span.op % 16),
                 static_cast<double>(span.start_ns - origin) * 1e-3,
                 static_cast<double>(span.end_ns - span.start_ns) * 1e-3,
                 static_cast<long long>(span.op), i, span.parent);
    first = false;
  }
  std::fputs("\n]}\n", file);
  return std::fclose(file) == 0;
}

}  // namespace rfbench
