#include "tune/dispatch.hpp"

#include <atomic>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "autograd/kernels.hpp"
#include "common/check.hpp"
#include "common/cpu.hpp"
#include "common/env.hpp"
#include "common/logging.hpp"
#include "obs/metrics.hpp"

namespace roadfusion::tune {
namespace {

namespace ag = roadfusion::autograd::kernels;

struct CacheKey {
  ConvProblem problem;
  bool packed_available = false;

  bool operator==(const CacheKey& other) const = default;
};

struct CacheKeyHash {
  size_t operator()(const CacheKey& key) const {
    return ConvProblemHash{}(key.problem) * 31 +
           (key.packed_available ? 1 : 0);
  }
};

using BindingMap =
    std::unordered_map<CacheKey, std::shared_ptr<const Binding>, CacheKeyHash>;

/// All mutable dispatcher state. The binding map is copy-on-write behind
/// an atomically swapped shared_ptr: bind() hits read it lock-free, and
/// any configuration change (DB load, forced solver) swaps in a fresh map.
struct State {
  std::mutex mutex;
  std::shared_ptr<const BindingMap> bindings =
      std::make_shared<const BindingMap>();
  /// common::tier_generation() at which `bindings` was built. AVX2 solver
  /// applicability reads the active CPU tier, so a tier switch makes every
  /// cached binding stale — bind() compares generations and drops the map
  /// wholesale on mismatch.
  std::atomic<uint64_t> generation{0};
  PerfDb db;
  std::string forced;
  bool recording = false;
  std::vector<ConvProblem> recorded;
  std::unordered_set<std::string> recorded_keys;
  std::once_flag env_once;
};

State& state() {
  static State* instance = new State();
  return *instance;
}

/// Caller holds state().mutex.
void drop_bindings_locked(State& s) {
  std::atomic_store(&s.bindings, std::make_shared<const BindingMap>());
}

/// Bumps the per-solver selection counter — once per binding resolution,
/// not per conv call, so the label set stays bounded by #solvers.
void count_selection(const char* solver_name) {
  obs::MetricsRegistry::global()
      .counter(std::string("roadfusion_solver_selected_total{solver=\"") +
                   solver_name + "\"}",
               "Conv problem bindings resolved, by selected solver")
      .inc();
}

/// True when `solver` can serve `problem` with the operands on hand.
bool usable(const Solver* solver, const ConvProblem& problem,
            bool packed_available) {
  return solver != nullptr && (packed_available || !solver->wants_packed()) &&
         solver->is_applicable(problem);
}

/// Heuristic: the cheapest estimate() among the usable solvers; null when
/// none apply.
Binding cheapest_binding(const ConvProblem& problem, bool packed_available) {
  Binding binding;
  double best_cost = 0.0;
  for (const Solver* solver : solvers()) {
    if (!usable(solver, problem, packed_available)) {
      continue;
    }
    const double cost = solver->estimate(problem);
    if (binding.solver == nullptr || cost < best_cost) {
      binding.solver = solver;
      best_cost = cost;
    }
  }
  return binding;
}

/// Caller holds state().mutex. Resolution order: force > DB > heuristic.
Binding resolve_locked(State& s, const ConvProblem& problem,
                       bool packed_available) {
  if (!s.forced.empty()) {
    const Solver* forced = find_solver(s.forced);
    if (usable(forced, problem, packed_available)) {
      return Binding{forced, "", BindingSource::kForced};
    }
  }
  if (const PerfRecord* record = s.db.find(problem.key())) {
    const Solver* solver = find_solver(record->solver);
    if (usable(solver, problem, packed_available)) {
      return Binding{solver, record->params, BindingSource::kDatabase};
    }
    log_verbose("tune: perf DB record for ", problem.key(), " names '",
                record->solver, "' which is not usable here; falling back");
  }
  return cheapest_binding(problem, packed_available);
}

/// One-time environment pickup: a forced solver and/or an initial DB.
void init_from_env(State& s) {
  const std::string forced = env_string("ROADFUSION_SOLVER", "");
  if (!forced.empty()) {
    ROADFUSION_CHECK(find_solver(forced) != nullptr,
                     "ROADFUSION_SOLVER='"
                         << forced << "' names an unknown solver (registered: "
                         << [] {
                              std::string names;
                              for (const auto& n : solver_names()) {
                                names += names.empty() ? n : ", " + n;
                              }
                              return names;
                            }() << ")");
    std::lock_guard<std::mutex> lock(s.mutex);
    s.forced = forced;
  }
  const std::string db_path = env_string("ROADFUSION_PERF_DB", "");
  if (!db_path.empty()) {
    const PerfDbLoad result = load_perf_db(db_path);
    if (!result.found) {
      log_info("tune: ROADFUSION_PERF_DB='", db_path,
               "' not found; using heuristic solver selection");
    }
  }
}

/// The bridge installed into the autograd conv op (see kernels.hpp): the
/// op hands each sample's lowered GEMM here.
void conv_forward_hook_impl(const ag::ConvForwardCall& call) {
  ConvProblem problem;
  problem.n = 1;
  problem.c = call.cin;
  problem.h = call.h;
  problem.w = call.w;
  problem.k = call.cout;
  problem.r = call.kernel;
  problem.s = call.kernel;
  problem.stride = call.stride;
  problem.pad = call.padding;
  const std::shared_ptr<const Binding> binding = bind(problem, false);
  SolverArgs args;
  args.wmat = call.wmat;
  args.columns = call.columns;
  args.out = call.out;
  args.epi = call.epi;
  run(*binding, problem, args);
}

// Installed at static init; ordered-safe because the hook slot in
// kernels.cpp is a constant-initialized atomic. Any binary that links this
// library (everything using src/nn does, via the layer dispatch) routes
// conv forwards through the registry.
[[maybe_unused]] const bool hook_installed = [] {
  ag::set_conv_forward_hook(&conv_forward_hook_impl);
  return true;
}();

}  // namespace

std::shared_ptr<const Binding> bind(const ConvProblem& problem,
                                    bool packed_available) {
  State& s = state();
  std::call_once(s.env_once, [&s] { init_from_env(s); });
  // A CPU dispatch-tier switch invalidates every binding (AVX2-solver
  // applicability depends on the active tier). Steady state pays one
  // relaxed load.
  const uint64_t generation = common::tier_generation();
  if (s.generation.load(std::memory_order_acquire) != generation) {
    std::lock_guard<std::mutex> lock(s.mutex);
    if (s.generation.load(std::memory_order_relaxed) != generation) {
      drop_bindings_locked(s);
      s.generation.store(generation, std::memory_order_release);
    }
  }
  const CacheKey key{problem, packed_available};
  {
    const std::shared_ptr<const BindingMap> map = std::atomic_load(&s.bindings);
    const auto it = map->find(key);
    if (it != map->end()) {
      return it->second;
    }
  }
  std::lock_guard<std::mutex> lock(s.mutex);
  // Re-check under the lock: another thread may have resolved it.
  std::shared_ptr<const BindingMap> current = std::atomic_load(&s.bindings);
  const auto it = current->find(key);
  if (it != current->end()) {
    return it->second;
  }
  if (s.recording && s.recorded_keys.insert(problem.key()).second) {
    s.recorded.push_back(problem);
  }
  auto binding = std::make_shared<const Binding>(
      resolve_locked(s, problem, packed_available));
  ROADFUSION_CHECK(binding->solver != nullptr,
                   "tune: no registered solver applies to conv problem "
                       << problem.key());
  count_selection(binding->solver->name());
  auto next = std::make_shared<BindingMap>(*current);
  (*next)[key] = binding;
  std::atomic_store(&s.bindings,
                    std::shared_ptr<const BindingMap>(std::move(next)));
  return binding;
}

PerfDbLoad load_perf_db(const std::string& path) {
  PerfDbLoad result = load_perf_db_file(path);
  if (result.version_mismatch) {
    log_info("tune: perf DB '", path, "' has an unrecognized header; ignored");
  } else if (result.cpu_mismatch) {
    log_info("tune: perf DB '", path, "' was tuned on a different machine (",
             "expected cpu=", cpu_signature(), "); ignored");
  } else if (result.skipped_lines > 0) {
    log_info("tune: perf DB '", path, "': skipped ", result.skipped_lines,
             " corrupted line(s), kept ", result.db.size(), " record(s)");
  }
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  s.db = result.db;
  drop_bindings_locked(s);
  return result;
}

void set_perf_db(PerfDb db) {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  s.db = std::move(db);
  drop_bindings_locked(s);
}

void clear_perf_db() { set_perf_db(PerfDb{}); }

size_t perf_db_size() {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  return s.db.size();
}

void force_solver(const std::string& name) {
  ROADFUSION_CHECK(name.empty() || find_solver(name) != nullptr,
                   "force_solver: unknown solver '"
                       << name << "' (registered: "
                       << [] {
                            std::string names;
                            for (const auto& n : solver_names()) {
                              names += names.empty() ? n : ", " + n;
                            }
                            return names;
                          }() << ")");
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  s.forced = name;
  drop_bindings_locked(s);
}

std::string forced_solver() {
  State& s = state();
  // ROADFUSION_SOLVER counts as forced before the first bind, too.
  std::call_once(s.env_once, [&s] { init_from_env(s); });
  std::lock_guard<std::mutex> lock(s.mutex);
  return s.forced;
}

void set_problem_recording(bool enabled) {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  s.recording = enabled;
  // Recording must observe every bind, including shapes already cached —
  // re-resolving them is cheap and only happens when a tuner runs.
  drop_bindings_locked(s);
}

std::vector<ConvProblem> recorded_problems() {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  return s.recorded;
}

void clear_recorded_problems() {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  s.recorded.clear();
  s.recorded_keys.clear();
}

void clear_binding_cache() {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  drop_bindings_locked(s);
}

}  // namespace roadfusion::tune
