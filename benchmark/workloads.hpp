// rfbench workloads (benchmark/README.md): five fixed traffic shapes driven
// through the public API of the serving stack, each with its own output
// checks against the graph oracle (`forward_fused`).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace rfbench {

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// One workload run, as one child process executes it.
struct RunSpec {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20.0;
  /// Traced run: spans on every other pair of ops, per-layer metrics
  /// reported.
  bool trace = false;
  std::string out_dir;  ///< model, result and trace files go here
};

struct RunResult {
  bool correct = true;
  int64_t attempted = 0;  ///< ops sent in the timed phase
  /// Ops that ended outside the program's contract: a wrong output, a
  /// wrong triage verdict, or an error other than the front door's
  /// designed overload answers (refusal, deadline expiry).
  int64_t failed = 0;
  /// The summary line: untraced, the end-to-end metrics BENCHMARK.json
  /// bounds; traced, the per-layer ones (every workload reports all of
  /// them, 0 where it skips the layer).
  std::vector<Metric> metrics;
  /// Values outside the summary line (printed and written to the result
  /// file): the unbounded end-to-end metrics, per-solver counts.
  std::vector<Metric> detail;
  /// Per-layer values by name as the workload measured them; run_workload
  /// orders them into `metrics` (traced) or appends them to `detail`.
  std::map<std::string, double> layer;
  std::vector<std::string> failures;  ///< output-check messages
  std::string span_table;             ///< traced run only
};

const std::vector<std::string>& workload_names();

/// Runs `spec.workload` in this process: inputs, set-up, warm-up, timed
/// phase, output checks.
RunResult run_workload(const RunSpec& spec);

/// Closed-loop capacity of the front door on the door workloads' traffic
/// mix, ops/s — how the door workloads' fixed rates were chosen.
double probe_door_capacity(uint64_t seed, double seconds);

}  // namespace rfbench
