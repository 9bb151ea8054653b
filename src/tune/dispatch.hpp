// Solver binding and dispatch — the runtime half of the tune subsystem and
// the only way a conv kernel is chosen.
//
// `bind()` resolves a ConvProblem to a solver once and caches the result;
// the conv paths then `run()` the binding per sample. Resolution order:
//
//   1. ROADFUSION_SOLVER / force_solver(name)   (global override)
//   2. the loaded perf DB's record for the key  (measured winner)
//   3. heuristic: cheapest estimate() among applicable solvers
//
// Every valid problem has an applicable scalar oracle (reference,
// tconv_reference, int8_reference), so resolution always yields a solver;
// a problem nothing can serve fails a check naming its key.
//
// Hot-path contract: after the first call per (problem, packed) pair, a
// bind() is one shared_ptr atomic load plus a hash lookup — no allocation,
// preserving the zero-allocation steady state pinned by test_workspace.
// Loading a DB, forcing a solver, or switching the CPU dispatch tier
// invalidates the cache wholesale (atomic map swap).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "tune/perf_db.hpp"
#include "tune/problem.hpp"
#include "tune/solver.hpp"

namespace roadfusion::tune {

enum class BindingSource {
  kForced,     ///< ROADFUSION_SOLVER / force_solver override
  kDatabase,   ///< perf DB record
  kHeuristic,  ///< estimate() fallback
};

struct Binding {
  const Solver* solver = nullptr;  ///< never null once bound
  std::string params;  ///< tuned parameters from the DB record, or ""
  BindingSource source = BindingSource::kHeuristic;
};

/// Resolves (and caches) the binding for `problem`. `packed_available`
/// tells the resolver whether the caller holds pre-packed weights; it is
/// part of the cache key. The first call reads ROADFUSION_SOLVER and
/// ROADFUSION_PERF_DB. Never returns null, and the bound solver is never
/// null; throws when no registered solver applies to `problem`.
std::shared_ptr<const Binding> bind(const ConvProblem& problem,
                                    bool packed_available);

/// Runs a bound solver over one sample's GEMM inside its tracing span.
inline void run(const Binding& binding, const ConvProblem& problem,
                const SolverArgs& args) {
  obs::ScopedSpan span(binding.solver->span_name());
  binding.solver->run(problem, args, binding.params);
}

/// Replaces the active perf DB (drops every cached binding). Missing file,
/// version or CPU mismatch leave an empty DB; corruption is reported via
/// the returned PerfDbLoad, never thrown.
PerfDbLoad load_perf_db(const std::string& path);

/// Installs an in-memory DB (tuner and tests).
void set_perf_db(PerfDb db);
void clear_perf_db();
size_t perf_db_size();

/// Forces `name` globally (empty string clears). Throws on an unknown
/// name, listing the registered solvers. A forced solver that is not
/// applicable to some problem falls back to the heuristic there.
void force_solver(const std::string& name);
std::string forced_solver();

/// Unique-problem recording, used by `roadfusion tune` to discover the
/// model's conv shapes by running one representative predict.
void set_problem_recording(bool enabled);
std::vector<ConvProblem> recorded_problems();
void clear_recorded_problems();

/// Drops every cached binding (tests; config changes do this implicitly).
void clear_binding_cache();

}  // namespace roadfusion::tune
