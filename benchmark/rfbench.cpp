// rfbench: one command for the frame, stream and front-door paths, with
// per-layer attribution (benchmark/README.md).
//
//   rfbench [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]
//           [--runs K] [--smoke] [--capacity]
//
// Without --workload the whole suite runs: every workload untraced, and
// traced too with --trace, for K consecutive seeds. Each run is a child
// process (this binary, re-executed with --child), so peak_rss_mb is that
// workload's alone. A child prints a human table and, as its last line,
// one JSON object: {"correct", "attempted", "failed", "metrics"}, holding
// the end-to-end metrics untraced and the per-layer metrics traced. It
// also writes a result file (every metric, plus host facts) and, when
// traced, a Chrome trace, under build-bench/out/.
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/cpu.hpp"
#include "workloads.hpp"

namespace {

using rfbench::Metric;
using rfbench::RunResult;
using rfbench::RunSpec;

constexpr double kDefaultSeconds = 20.0;
constexpr double kSmokeSeconds = 1.0;

struct Options {
  std::string workload;  ///< empty: the whole suite
  uint64_t seed = 1;
  double seconds = kDefaultSeconds;
  bool trace = false;
  int runs = 1;
  bool smoke = false;
  bool capacity = false;
  bool child = false;
};

int usage() {
  std::fprintf(stderr,
               "usage: rfbench [--workload NAME] [--seed N] [--seconds S] "
               "[--trace [0|1]] [--runs K] [--smoke] [--capacity]\n"
               "workloads:");
  for (const std::string& name : rfbench::workload_names()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

bool parse(int argc, char** argv, Options& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace") {
      options.trace = true;
      if (has_value && (std::strcmp(argv[i + 1], "0") == 0 ||
                        std::strcmp(argv[i + 1], "1") == 0)) {
        options.trace = argv[++i][0] == '1';
      }
    } else if (arg == "--runs" && has_value) {
      options.runs = std::atoi(argv[++i]);
    } else if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--capacity") {
      options.capacity = true;
    } else if (arg == "--child") {
      options.child = true;
    } else {
      return false;
    }
  }
  if (!options.workload.empty()) {
    bool known = false;
    for (const std::string& name : rfbench::workload_names()) {
      known = known || name == options.workload;
    }
    if (!known) {
      return false;
    }
  }
  return options.seconds > 0.0 && options.runs >= 1;
}

std::string self_path() {
  char buffer[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buffer, sizeof(buffer) - 1);
  if (n <= 0) {
    return {};
  }
  buffer[n] = '\0';
  return buffer;
}

/// Results live beside the binary (build-bench/out), inside the checkout.
std::string out_dir() {
  const std::string exe = self_path();
  const std::string dir = exe.substr(0, exe.rfind('/')) + "/out";
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char escaped[8];
      std::snprintf(escaped, sizeof(escaped), "\\u%04x", c);
      out += escaped;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Every digit the double carries: the driver rejects times that repeat.
std::string json_number(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += (i == 0 ? "" : ", ") + json_string(metrics[i].name) +
           ": {\"value\": " + json_number(metrics[i].value) +
           ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  return out + "}";
}

void print_table(const RunSpec& spec, const RunResult& result) {
  std::printf("\nrfbench %s  seed %llu  %.0f s  %s\n", spec.workload.c_str(),
              static_cast<unsigned long long>(spec.seed), spec.seconds,
              spec.trace ? "traced (per-layer metrics)"
                         : "untraced (end-to-end metrics)");
  std::printf("  attempted %lld  failed %lld  output checks %s\n",
              static_cast<long long>(result.attempted),
              static_cast<long long>(result.failed),
              result.correct ? "passed" : "FAILED");
  for (const std::string& failure : result.failures) {
    std::printf("  check failed: %s\n", failure.c_str());
  }
  for (const auto* list : {&result.metrics, &result.detail}) {
    for (const Metric& m : *list) {
      std::printf("  %-32s %16.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  if (!result.span_table.empty()) {
    std::printf("\n%s", result.span_table.c_str());
  }
}

bool write_result_file(const RunSpec& spec, const RunResult& result) {
  const std::string path = spec.out_dir + "/result-" + spec.workload +
                           "-seed" + std::to_string(spec.seed) + "-trace" +
                           (spec.trace ? "1" : "0") + ".json";
  std::vector<Metric> all = result.metrics;
  all.insert(all.end(), result.detail.begin(), result.detail.end());
  std::string failures = "[";
  for (size_t i = 0; i < result.failures.size(); ++i) {
    failures += (i == 0 ? "" : ", ") + json_string(result.failures[i]);
  }
  failures += "]";
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return false;
  }
  std::fprintf(
      file,
      "{\"workload\": %s, \"seed\": %llu, \"seconds\": %s, \"trace\": %d, "
      "\"nproc\": %u, \"cpu_model\": %s, \"cpu_tier\": %s, \"correct\": %s, "
      "\"attempted\": %lld, \"failed\": %lld, \"failures\": %s, "
      "\"metrics\": %s}\n",
      json_string(spec.workload).c_str(),
      static_cast<unsigned long long>(spec.seed),
      json_number(spec.seconds).c_str(), spec.trace ? 1 : 0,
      std::thread::hardware_concurrency(), json_string(cpu_model()).c_str(),
      json_string(roadfusion::common::tier_name(
                      roadfusion::common::active_tier()))
          .c_str(),
      result.correct ? "true" : "false",
      static_cast<long long>(result.attempted),
      static_cast<long long>(result.failed), failures.c_str(),
      metrics_json(all).c_str());
  return std::fclose(file) == 0;
}

/// The child: one workload, in this process.
int run_child(const Options& options) {
  RunSpec spec;
  spec.workload = options.workload;
  spec.seed = options.seed;
  spec.seconds = options.seconds;
  spec.trace = options.trace;
  spec.out_dir = out_dir();
  RunResult result = rfbench::run_workload(spec);
  if (!write_result_file(spec, result)) {
    result.correct = false;
    result.failures.push_back("cannot write the result file");
  }
  print_table(spec, result);
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              result.correct ? "true" : "false",
              static_cast<long long>(result.attempted),
              static_cast<long long>(result.failed),
              metrics_json(result.metrics).c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}

/// Runs one workload in a child process and waits for it; true on exit 0.
bool spawn(const std::string& workload, uint64_t seed, double seconds,
           bool trace) {
  const std::string exe = self_path();
  const std::string seed_arg = std::to_string(seed);
  const std::string seconds_arg = json_number(seconds);
  std::vector<const char*> args = {
      exe.c_str(),         "--child", "--workload",         workload.c_str(),
      "--seed",            seed_arg.c_str(), "--seconds", seconds_arg.c_str(),
      "--trace",           trace ? "1" : "0", nullptr};
  std::fflush(stdout);
  const pid_t pid = ::fork();
  if (pid < 0) {
    std::perror("rfbench: fork");
    return false;
  }
  if (pid == 0) {
    ::execv(exe.c_str(), const_cast<char* const*>(args.data()));
    std::perror("rfbench: execv");
    ::_exit(127);
  }
  int status = 0;
  pid_t waited = -1;
  do {
    waited = ::waitpid(pid, &status, 0);
  } while (waited < 0 && errno == EINTR);
  if (waited != pid || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    std::fprintf(stderr, "rfbench: %s (seed %llu, trace %d) failed\n",
                 workload.c_str(), static_cast<unsigned long long>(seed),
                 trace ? 1 : 0);
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!parse(argc, argv, options)) {
    return usage();
  }
  try {
    if (options.child) {
      return run_child(options);
    }
    if (options.capacity) {
      std::printf("door closed-loop capacity: %.1f ops/s\n",
                  rfbench::probe_door_capacity(options.seed, options.seconds));
      return 0;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rfbench: %s\n", e.what());
    return 1;
  }
  // One named workload runs as asked (`--trace 1` alone is its traced run);
  // the suite runs every workload untraced, and traced too with --trace.
  // --smoke is the suite for kSmokeSeconds, untraced and traced.
  const bool suite = options.workload.empty();
  const std::vector<std::string> workloads =
      suite ? rfbench::workload_names()
            : std::vector<std::string>{options.workload};
  std::vector<bool> traces = {options.trace};
  if (suite) {
    traces = options.trace || options.smoke ? std::vector<bool>{false, true}
                                            : std::vector<bool>{false};
  }
  const double seconds = options.smoke ? kSmokeSeconds : options.seconds;
  int failed = 0;
  int total = 0;
  for (int run = 0; run < options.runs; ++run) {
    const uint64_t seed = options.seed + static_cast<uint64_t>(run);
    for (const std::string& workload : workloads) {
      for (const bool traced : traces) {
        ++total;
        failed += spawn(workload, seed, seconds, traced) ? 0 : 1;
      }
    }
  }
  // A single run's last line must stay its own summary object.
  if (total > 1) {
    std::printf("\nrfbench: %d of %d workload runs passed their output "
                "checks; results in %s\n",
                total - failed, total, out_dir().c_str());
  }
  return failed == 0 ? 0 : 1;
}
