#include "tune/problem.hpp"

#include <cstdio>
#include <cstdlib>

namespace roadfusion::tune {
namespace {

/// Parses "<tag><int>" out of `text` at `pos`, advancing past the value and
/// a trailing '-' when present. Returns false on tag or number mismatch.
bool consume_field(const std::string& text, size_t& pos, const char* tag,
                   int64_t& out) {
  const size_t tag_len = std::char_traits<char>::length(tag);
  if (text.compare(pos, tag_len, tag) != 0) {
    return false;
  }
  pos += tag_len;
  const char* start = text.c_str() + pos;
  char* end = nullptr;
  const long long value = std::strtoll(start, &end, 10);
  if (end == start) {
    return false;
  }
  pos += static_cast<size_t>(end - start);
  if (pos < text.size()) {
    if (text[pos] != '-') {
      return false;
    }
    ++pos;
  }
  out = value;
  return true;
}

}  // namespace

bool ConvProblem::valid() const {
  return n >= 1 && c >= 1 && h >= 1 && w >= 1 && k >= 1 && r >= 1 && s >= 1 &&
         stride >= 1 && pad >= 0 && out_h() >= 1 && out_w() >= 1;
}

std::string ConvProblem::key() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "%s-n%lld-c%lld-h%lld-w%lld-k%lld-r%lld-s%lld-st%lld-p%lld-fp32",
                transposed ? "convt" : "conv",
                static_cast<long long>(n), static_cast<long long>(c),
                static_cast<long long>(h), static_cast<long long>(w),
                static_cast<long long>(k), static_cast<long long>(r),
                static_cast<long long>(s), static_cast<long long>(stride),
                static_cast<long long>(pad));
  return buf;
}

std::optional<ConvProblem> ConvProblem::parse_key(const std::string& key) {
  ConvProblem p;
  size_t pos = 0;
  if (key.compare(pos, 6, "convt-") == 0) {
    p.transposed = true;
    pos += 6;
  } else if (key.compare(pos, 5, "conv-") == 0) {
    pos += 5;
  } else {
    return std::nullopt;
  }
  if (!consume_field(key, pos, "n", p.n) ||
      !consume_field(key, pos, "c", p.c) ||
      !consume_field(key, pos, "h", p.h) ||
      !consume_field(key, pos, "w", p.w) ||
      !consume_field(key, pos, "k", p.k) ||
      !consume_field(key, pos, "r", p.r) ||
      !consume_field(key, pos, "s", p.s) ||
      !consume_field(key, pos, "st", p.stride) ||
      !consume_field(key, pos, "p", p.pad)) {
    return std::nullopt;
  }
  if (key.compare(pos, std::string::npos, "fp32") != 0 || !p.valid()) {
    return std::nullopt;
  }
  return p;
}

size_t ConvProblemHash::operator()(const ConvProblem& p) const {
  // FNV-1a over every field.
  uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  mix(static_cast<uint64_t>(p.n));
  mix(static_cast<uint64_t>(p.c));
  mix(static_cast<uint64_t>(p.h));
  mix(static_cast<uint64_t>(p.w));
  mix(static_cast<uint64_t>(p.k));
  mix(static_cast<uint64_t>(p.r));
  mix(static_cast<uint64_t>(p.s));
  mix(static_cast<uint64_t>(p.stride));
  mix(static_cast<uint64_t>(p.pad));
  mix(p.transposed ? 1u : 0u);
  return static_cast<size_t>(h);
}

}  // namespace roadfusion::tune
