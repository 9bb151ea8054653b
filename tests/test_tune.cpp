// Tests for the self-tuning solver registry (src/tune/): problem keys,
// solver registry semantics, perf DB parsing/persistence (round-trip
// determinism, CPU-signature and version invalidation, corrupted-line
// recovery, atomic writes), binding resolution (heuristic / DB / forced,
// including the acceptance check that bindings change once a DB is
// loaded), solver numerical parity, the offline tuner, and concurrent
// bind()/reload safety (exercised under TSan by run_tier1.sh --tsan).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "autograd/gemm.hpp"
#include "common/check.hpp"
#include "common/cpu.hpp"
#include "obs/metrics.hpp"
#include "roadseg/roadseg_net.hpp"
#include "tensor/tensor.hpp"
#include "tune/dispatch.hpp"
#include "tune/perf_db.hpp"
#include "tune/problem.hpp"
#include "tune/solver.hpp"
#include "tune/tuner.hpp"

namespace roadfusion::tune {
namespace {

namespace ag = roadfusion::autograd::kernels;
using tensor::Rng;
using tensor::Shape;
using tensor::Tensor;

/// Restores global dispatcher state on scope exit so a failing test
/// cannot leak a forced solver or a loaded DB into later tests.
class DispatchGuard {
 public:
  ~DispatchGuard() {
    force_solver("");
    clear_perf_db();
    clear_recorded_problems();
    set_problem_recording(false);
    clear_binding_cache();
  }
};

/// Pins the CPU dispatch tier for a test body and restores it on exit.
/// set_active_tier clamps to the detected hardware, so requesting kAvx2 on
/// an SSE2-only host is a no-op — tests gate on avx2_tier_active().
class TierGuard {
 public:
  explicit TierGuard(common::CpuTier tier) : saved_(common::active_tier()) {
    common::set_active_tier(tier);
  }
  ~TierGuard() { common::set_active_tier(saved_); }

 private:
  common::CpuTier saved_;
};

bool avx2_tier_available() {
  return common::detected_tier() >= common::CpuTier::kAvx2;
}

ConvProblem stage2_conv2() {
  ConvProblem p;
  p.c = 16;
  p.h = 8;
  p.w = 24;
  p.k = 16;
  return p;  // r=s=3, stride=1 defaults; pad stays 0
}

// ---------------------------------------------------------------------------
// ConvProblem keys
// ---------------------------------------------------------------------------

TEST(ConvProblemKey, CanonicalFormat) {
  ConvProblem p;
  p.c = 3;
  p.h = 32;
  p.w = 96;
  p.k = 8;
  p.stride = 1;
  p.pad = 1;
  EXPECT_EQ(p.key(), "conv-n1-c3-h32-w96-k8-r3-s3-st1-p1-fp32");
}

TEST(ConvProblemKey, RoundTripsThroughParse) {
  ConvProblem p;
  p.c = 24;
  p.h = 4;
  p.w = 12;
  p.k = 32;
  p.r = 1;
  p.s = 1;
  p.stride = 2;
  p.pad = 0;
  const std::optional<ConvProblem> parsed = ConvProblem::parse_key(p.key());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, p);
}

TEST(ConvProblemKey, ParseRejectsMalformedKeys) {
  for (const char* bad :
       {"", "pool-n1-c3-h8-w8-k4-r3-s3-st1-p1-fp32", "conv-n1-c3",
        "conv-n1-cX-h8-w8-k4-r3-s3-st1-p1-fp32",
        "conv-n1-c3-h8-w8-k4-r3-s3-st1-p1"}) {
    EXPECT_FALSE(ConvProblem::parse_key(bad).has_value()) << bad;
  }
}

TEST(ConvProblemKey, GemmDimensions) {
  const ConvProblem p = [] {
    ConvProblem q;
    q.c = 12;
    q.h = 16;
    q.w = 48;
    q.k = 16;
    q.stride = 1;
    q.pad = 1;
    return q;
  }();
  EXPECT_EQ(p.out_h(), 16);
  EXPECT_EQ(p.out_w(), 48);
  EXPECT_EQ(p.gemm_m(), 16);
  EXPECT_EQ(p.gemm_k(), 12 * 9);
  EXPECT_EQ(p.gemm_n(), 16 * 48);
  EXPECT_EQ(p.macs(), 16 * 108 * 768);
  EXPECT_TRUE(p.valid());
}

TEST(ConvProblemKey, TransposedCanonicalFormatAndRoundTrip) {
  ConvProblem p;
  p.transposed = true;
  p.c = 32;
  p.h = 2;
  p.w = 6;
  p.k = 24;
  p.r = 2;
  p.s = 2;
  p.stride = 2;
  p.pad = 0;
  EXPECT_EQ(p.key(), "convt-n1-c32-h2-w6-k24-r2-s2-st2-p0-fp32");
  const std::optional<ConvProblem> parsed = ConvProblem::parse_key(p.key());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->transposed);
  EXPECT_EQ(*parsed, p);
}

TEST(ConvProblemKey, Int8DtypeRoundTrips) {
  ConvProblem p = stage2_conv2();
  p.dtype = "int8";
  EXPECT_EQ(p.key(), "conv-n1-c16-h8-w24-k16-r3-s3-st1-p0-int8");
  const std::optional<ConvProblem> parsed = ConvProblem::parse_key(p.key());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->dtype, "int8");
  EXPECT_EQ(*parsed, p);
}

TEST(ConvProblemKey, TransposedGemmDimensions) {
  // Transposed GEMM form: columns (K*R*S, H*W) = wmat^T (K*R*S, C) x
  // input plane (C, H*W) — the reduction is over input channels, not
  // C*R*S, and n is the INPUT plane.
  ConvProblem p;
  p.transposed = true;
  p.c = 12;
  p.h = 16;
  p.w = 48;
  p.k = 8;
  p.r = 2;
  p.s = 2;
  p.stride = 2;
  p.pad = 0;
  EXPECT_EQ(p.gemm_m(), 8 * 2 * 2);
  EXPECT_EQ(p.gemm_k(), 12);
  EXPECT_EQ(p.gemm_n(), 16 * 48);
  EXPECT_EQ(p.out_h(), 32);
  EXPECT_EQ(p.out_w(), 96);
  EXPECT_TRUE(p.valid());
}

// ---------------------------------------------------------------------------
// Solver registry
// ---------------------------------------------------------------------------

TEST(SolverRegistry, BuiltinsRegistered) {
  const std::vector<std::string> names = solver_names();
  for (const char* expected : {"reference", "blocked", "blocked_prepacked",
                               "blocked_avx2", "tconv_reference",
                               "int8_reference"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
  }
  EXPECT_EQ(find_solver("no_such_solver"), nullptr);
  EXPECT_NE(find_solver("blocked"), nullptr);
}

TEST(SolverRegistry, PackedAvailabilityFiltersPrepacked) {
  const ConvProblem p = stage2_conv2();
  const std::vector<const Solver*> with = applicable_solvers(p, true);
  const std::vector<const Solver*> without = applicable_solvers(p, false);
  auto contains = [](const std::vector<const Solver*>& list,
                     const char* name) {
    return std::any_of(list.begin(), list.end(), [name](const Solver* s) {
      return std::string(s->name()) == name;
    });
  };
  EXPECT_TRUE(contains(with, "blocked_prepacked"));
  EXPECT_FALSE(contains(without, "blocked_prepacked"));
  EXPECT_TRUE(contains(without, "blocked"));
  EXPECT_TRUE(contains(without, "reference"));
}

TEST(SolverRegistry, TinyOutputChannelCountExcludesBlockedLoops) {
  // Pinned to the SSE2 tier: the AVX2 kernel pads ragged row tiles and so
  // stays applicable at gemm_m = 1 (covered by Avx2SolversGatedByTier).
  TierGuard tier(common::CpuTier::kSse2);
  ConvProblem p = stage2_conv2();
  p.k = 1;  // gemm_m = 1 < the 4-row micro-tile: blocked loops cannot split
  const std::vector<const Solver*> applicable = applicable_solvers(p, false);
  ASSERT_EQ(applicable.size(), 1u);
  EXPECT_STREQ(applicable[0]->name(), "reference");
}

TEST(SolverRegistry, Avx2SolversGatedByTier) {
  ConvProblem p = stage2_conv2();
  ConvProblem p8 = p;
  p8.dtype = "int8";
  auto contains = [](const std::vector<const Solver*>& list,
                     const char* name) {
    return std::any_of(list.begin(), list.end(), [name](const Solver* s) {
      return std::string(s->name()) == name;
    });
  };
  {
    TierGuard tier(common::CpuTier::kSse2);
    EXPECT_FALSE(contains(applicable_solvers(p, false), "blocked_avx2"));
    EXPECT_FALSE(contains(applicable_solvers(p8, true), "int8_avx2"));
  }
  if (avx2_tier_available()) {
    TierGuard tier(common::CpuTier::kAvx2);
    EXPECT_TRUE(contains(applicable_solvers(p, false), "blocked_avx2"));
    EXPECT_TRUE(contains(applicable_solvers(p8, true), "int8_avx2"));
  }
}

TEST(SolverRegistry, TransposedProblemsGetTconvFamilyOnly) {
  ConvProblem p;
  p.transposed = true;
  p.c = 32;
  p.h = 2;
  p.w = 6;
  p.k = 24;
  p.r = 2;
  p.s = 2;
  p.stride = 2;
  p.pad = 0;
  auto names = [](const std::vector<const Solver*>& list) {
    std::vector<std::string> out;
    for (const Solver* s : list) {
      out.push_back(s->name());
    }
    return out;
  };
  const std::vector<std::string> with = names(applicable_solvers(p, true));
  EXPECT_EQ(with, (std::vector<std::string>{"tconv_reference",
                                            "tconv_blocked",
                                            "tconv_prepacked"}));
  const std::vector<std::string> without =
      names(applicable_solvers(p, false));
  EXPECT_EQ(without, (std::vector<std::string>{"tconv_reference",
                                               "tconv_blocked"}))
      << "tconv_prepacked requires pre-packed weights on hand";
}

TEST(SolverRegistry, Int8ProblemsGetInt8FamilyOnly) {
  ConvProblem p = stage2_conv2();
  p.dtype = "int8";
  auto names = [&p] {
    std::vector<std::string> out;
    for (const Solver* s : applicable_solvers(p, true)) {
      out.push_back(s->name());
    }
    return out;
  };
  {
    TierGuard tier(common::CpuTier::kSse2);
    EXPECT_EQ(names(), (std::vector<std::string>{"int8_reference",
                                                 "int8_blocked"}));
  }
  if (avx2_tier_available()) {
    TierGuard tier(common::CpuTier::kAvx2);
    EXPECT_EQ(names(), (std::vector<std::string>{"int8_reference",
                                                 "int8_blocked",
                                                 "int8_avx2"}));
  }
}

TEST(SolverRegistry, Int8BeyondDepthCapHasNoSolver) {
  ConvProblem p = stage2_conv2();
  p.dtype = "int8";
  p.c = 200;  // gemm_k = 200 * 9 = 1800 > kMaxInt8Depth: accumulator
              // exactness would be lost, so no int8 solver offers itself
  EXPECT_GT(p.gemm_k(), ag::kMaxInt8Depth);
  EXPECT_TRUE(applicable_solvers(p, true).empty());
}

// ---------------------------------------------------------------------------
// Perf DB: format, round-trip, recovery
// ---------------------------------------------------------------------------

PerfDb sample_db() {
  PerfDb db;
  db.set("conv-n1-c3-h32-w96-k8-r3-s3-st1-p1-fp32",
         {"blocked_prepacked", "", 20.5});
  db.set("conv-n1-c12-h16-w48-k12-r3-s3-st1-p1-fp32",
         {"blocked", "mc=64,kc=512", 21.1});
  return db;
}

TEST(PerfDbFormat, SerializeParseRoundTripsByteIdentically) {
  const PerfDb db = sample_db();
  const std::string text = db.serialize();
  const PerfDbLoad load = parse_perf_db(text);
  EXPECT_TRUE(load.found);
  EXPECT_FALSE(load.cpu_mismatch);
  EXPECT_FALSE(load.version_mismatch);
  EXPECT_EQ(load.skipped_lines, 0u);
  ASSERT_EQ(load.db.size(), db.size());
  EXPECT_EQ(load.db.serialize(), text);
  const PerfRecord* record =
      load.db.find("conv-n1-c12-h16-w48-k12-r3-s3-st1-p1-fp32");
  ASSERT_NE(record, nullptr);
  EXPECT_EQ(record->solver, "blocked");
  EXPECT_EQ(record->params, "mc=64,kc=512");
  EXPECT_NEAR(record->gflops, 21.1, 1e-3);
}

TEST(PerfDbFormat, HeaderCarriesCurrentCpuSignature) {
  const std::string text = sample_db().serialize();
  EXPECT_EQ(text.rfind("RFPD1 cpu=" + cpu_signature() + "\n", 0), 0u) << text;
}

TEST(PerfDbFormat, ForeignCpuSignatureInvalidatesWholeFile) {
  const std::string text =
      "RFPD1 cpu=riscv64-vec256-hc64\n"
      "conv-n1-c3-h32-w96-k8-r3-s3-st1-p1-fp32 solver=blocked gflops=9.0\n";
  const PerfDbLoad load = parse_perf_db(text);
  EXPECT_TRUE(load.cpu_mismatch);
  EXPECT_TRUE(load.db.empty())
      << "tuned blockings must not transfer between machines";
}

TEST(PerfDbFormat, UnknownVersionHeaderInvalidatesWholeFile) {
  const std::string text = "RFPD9 cpu=" + cpu_signature() +
                           "\n"
                           "conv-n1-c3-h32-w96-k8-r3-s3-st1-p1-fp32 "
                           "solver=blocked gflops=9.0\n";
  const PerfDbLoad load = parse_perf_db(text);
  EXPECT_TRUE(load.version_mismatch);
  EXPECT_TRUE(load.db.empty());
}

TEST(PerfDbFormat, CorruptedLinesAreSkippedNotFatal) {
  const std::string text =
      "RFPD1 cpu=" + cpu_signature() +
      "\n"
      "# a comment line is fine\n"
      "conv-n1-c3-h32-w96-k8-r3-s3-st1-p1-fp32 solver=blocked gflops=9.0\n"
      "conv-n1-c8-h32-w96-k12-r3-s3-st2-p1-fp32 solver=\n"
      "garbage that is not a record\n"
      "conv-n1-c12-h16-w48-k12-r3-s3-st1-p1-fp32 solver=blocked "
      "gflops=not_a_number\n"
      "conv-n1-c16-h8-w24-k16-r3-s3-st1-p1-fp32 solver=reference "
      "gflops=4.25\n";
  const PerfDbLoad load = parse_perf_db(text);
  EXPECT_FALSE(load.cpu_mismatch);
  EXPECT_FALSE(load.version_mismatch);
  EXPECT_EQ(load.skipped_lines, 3u);
  EXPECT_EQ(load.db.size(), 2u) << "intact records must survive corruption";
  EXPECT_NE(load.db.find("conv-n1-c16-h8-w24-k16-r3-s3-st1-p1-fp32"),
            nullptr);
}

TEST(PerfDbFormat, TruncatedFileKeepsCompleteRecords) {
  std::string text = sample_db().serialize();
  text.resize(text.size() - 10);  // chop mid-record, no trailing newline
  const PerfDbLoad load = parse_perf_db(text);
  EXPECT_EQ(load.skipped_lines, 1u);
  EXPECT_EQ(load.db.size(), 1u);
}

TEST(PerfDbPersistence, AtomicSaveLeavesNoTempFile) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "rf_tune_test_db";
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "perf.db").string();
  sample_db().save(path);
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"))
      << "save must rename the temp file over the target";
  const PerfDbLoad load = load_perf_db_file(path);
  EXPECT_TRUE(load.found);
  EXPECT_EQ(load.db.serialize(), sample_db().serialize());
  std::filesystem::remove_all(dir);
}

TEST(PerfDbPersistence, MissingFileReportsNotFound) {
  const PerfDbLoad load =
      load_perf_db_file("/nonexistent/rf_tune_nowhere/perf.db");
  EXPECT_FALSE(load.found);
  EXPECT_TRUE(load.db.empty());
}

// ---------------------------------------------------------------------------
// Binding resolution: heuristic, DB, forced
// ---------------------------------------------------------------------------

TEST(Dispatch, HeuristicBindsCheapestApplicableSolver) {
  DispatchGuard guard;
  clear_perf_db();
  clear_binding_cache();
  ConvProblem tiny = stage2_conv2();
  tiny.k = 3;  // gemm_m below the 4-row micro-tile: blocked cannot apply
  ConvProblem transposed;
  transposed.transposed = true;
  transposed.c = 32;
  transposed.h = 2;
  transposed.w = 6;
  transposed.k = 24;
  transposed.r = 2;
  transposed.s = 2;
  transposed.stride = 2;
  transposed.pad = 0;
  ConvProblem int8 = stage2_conv2();
  int8.dtype = "int8";
  struct Case {
    const char* what;
    ConvProblem problem;
    bool packed;
    const char* solver;
  };
  // int8_avx2 and blocked_avx2 are priced to never win the heuristic, so
  // the expectations hold at every CPU tier.
  const Case cases[] = {
      {"packed", stage2_conv2(), true, "blocked_prepacked"},
      {"unpacked", stage2_conv2(), false, "blocked"},
      {"unpacked, cout < 4", tiny, false, "reference"},
      {"transposed, packed", transposed, true, "tconv_prepacked"},
      {"transposed, unpacked", transposed, false, "tconv_blocked"},
      {"int8", int8, false, "int8_blocked"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    const auto binding = bind(c.problem, c.packed);
    ASSERT_NE(binding->solver, nullptr);
    EXPECT_STREQ(binding->solver->name(), c.solver);
    EXPECT_EQ(binding->source, BindingSource::kHeuristic);
  }
}

TEST(Dispatch, UnbindableProblemFailsNamingItsKey) {
  DispatchGuard guard;
  ConvProblem p = stage2_conv2();
  p.dtype = "int8";
  p.c = 200;  // beyond kMaxInt8Depth: no int8 solver applies
  try {
    bind(p, true);
    FAIL() << "bind must fail when no solver applies";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(p.key()), std::string::npos)
        << e.what();
  }
}

TEST(Dispatch, TierSwitchInvalidatesBindingsWithoutManualClear) {
  if (!avx2_tier_available()) {
    GTEST_SKIP() << "host has no AVX2 tier to switch between";
  }
  DispatchGuard guard;
  // A DB record naming blocked_avx2: usable only while the active tier
  // reaches kAvx2. Dropping the tier must invalidate the cached binding
  // (no manual clear) and fall back to the heuristic choice.
  ConvProblem p = stage2_conv2();
  PerfDb db;
  db.set(p.key(), PerfRecord{"blocked_avx2", "", 0.01});
  set_perf_db(db);
  TierGuard tier(common::CpuTier::kAvx2);
  EXPECT_STREQ(bind(p, true)->solver->name(), "blocked_avx2");
  common::set_active_tier(common::CpuTier::kSse2);
  EXPECT_STREQ(bind(p, true)->solver->name(), "blocked_prepacked")
      << "a tier switch must invalidate cached bindings automatically";
  common::set_active_tier(common::CpuTier::kAvx2);
  EXPECT_STREQ(bind(p, true)->solver->name(), "blocked_avx2");
}

TEST(Dispatch, DatabaseRecordOverridesHeuristic) {
  DispatchGuard guard;
  const ConvProblem p = stage2_conv2();
  clear_perf_db();
  const auto before = bind(p, true);
  ASSERT_NE(before->solver, nullptr);
  EXPECT_EQ(before->source, BindingSource::kHeuristic);

  PerfDb db;
  db.set(p.key(), {"reference", "", 1.0});
  set_perf_db(std::move(db));  // drops every cached binding
  const auto after = bind(p, true);
  ASSERT_NE(after->solver, nullptr);
  EXPECT_STREQ(after->solver->name(), "reference");
  EXPECT_EQ(after->source, BindingSource::kDatabase)
      << "a loaded DB must change the binding for its keys";
}

TEST(Dispatch, DatabaseParamsReachTheBinding) {
  DispatchGuard guard;
  const ConvProblem p = stage2_conv2();
  PerfDb db;
  db.set(p.key(), {"blocked", "mc=64,nc=1024", 10.0});
  set_perf_db(std::move(db));
  const auto binding = bind(p, false);
  ASSERT_NE(binding->solver, nullptr);
  EXPECT_STREQ(binding->solver->name(), "blocked");
  EXPECT_EQ(binding->params, "mc=64,nc=1024");
}

TEST(Dispatch, DbRecordNamingUnknownSolverFallsBackToHeuristic) {
  DispatchGuard guard;
  const ConvProblem p = stage2_conv2();
  PerfDb db;
  db.set(p.key(), {"solver_from_the_future", "", 99.0});
  set_perf_db(std::move(db));
  const auto binding = bind(p, false);
  ASSERT_NE(binding->solver, nullptr);
  EXPECT_EQ(binding->source, BindingSource::kHeuristic);
}

TEST(Dispatch, ForcedSolverWinsOverDatabase) {
  DispatchGuard guard;
  const ConvProblem p = stage2_conv2();
  PerfDb db;
  db.set(p.key(), {"blocked", "", 10.0});
  set_perf_db(std::move(db));
  force_solver("reference");
  EXPECT_EQ(forced_solver(), "reference");
  const auto binding = bind(p, false);
  ASSERT_NE(binding->solver, nullptr);
  EXPECT_STREQ(binding->solver->name(), "reference");
  EXPECT_EQ(binding->source, BindingSource::kForced);
  force_solver("");
  const auto cleared = bind(p, false);
  EXPECT_EQ(cleared->source, BindingSource::kDatabase);
}

TEST(Dispatch, ForcingUnknownSolverThrows) {
  EXPECT_THROW(force_solver("simd9000"), Error);
}

TEST(Dispatch, ForcedSolverNotApplicableFallsBack) {
  DispatchGuard guard;
  clear_perf_db();
  force_solver("blocked_prepacked");
  const ConvProblem p = stage2_conv2();
  const auto binding = bind(p, false);  // no packed weights on hand
  ASSERT_NE(binding->solver, nullptr);
  EXPECT_STRNE(binding->solver->name(), "blocked_prepacked");
  EXPECT_EQ(binding->source, BindingSource::kHeuristic);
}

TEST(Dispatch, SelectionCounterIsExported) {
  DispatchGuard guard;
  clear_perf_db();
  clear_binding_cache();
  bind(stage2_conv2(), false);
  const std::string text = obs::MetricsRegistry::global().render_prometheus();
  EXPECT_NE(text.find("roadfusion_solver_selected_total{solver=\"blocked\"}"),
            std::string::npos);
}

TEST(Dispatch, ProblemRecordingCollectsUniqueShapes) {
  DispatchGuard guard;
  clear_perf_db();
  clear_recorded_problems();
  set_problem_recording(true);
  const ConvProblem a = stage2_conv2();
  ConvProblem b = stage2_conv2();
  b.k = 24;
  bind(a, false);
  bind(a, false);  // duplicate — must be recorded once
  bind(b, false);
  set_problem_recording(false);
  const std::vector<ConvProblem> recorded = recorded_problems();
  EXPECT_EQ(recorded.size(), 2u);
  clear_recorded_problems();
  EXPECT_TRUE(recorded_problems().empty());
}

// ---------------------------------------------------------------------------
// Concurrent bind() vs DB reload (TSan-checked in the --tsan tier-1 leg)
// ---------------------------------------------------------------------------

TEST(DispatchConcurrency, ParallelBindersSurviveDbSwaps) {
  DispatchGuard guard;
  clear_perf_db();
  constexpr int kBinders = 4;
  constexpr int kItersPerBinder = 400;
  std::atomic<bool> stop{false};
  std::atomic<int> null_bindings{0};
  std::vector<std::thread> binders;
  binders.reserve(kBinders);
  for (int t = 0; t < kBinders; ++t) {
    binders.emplace_back([t, &null_bindings] {
      ConvProblem p = stage2_conv2();
      p.k = 16 + 4 * t;  // distinct key per thread plus a shared one below
      for (int i = 0; i < kItersPerBinder; ++i) {
        const auto own = bind(p, i % 2 == 0);
        const auto shared = bind(stage2_conv2(), false);
        if (own->solver == nullptr || shared->solver == nullptr) {
          null_bindings.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  std::thread swapper([&stop] {
    PerfDb db;
    db.set(stage2_conv2().key(), {"blocked", "mc=64", 10.0});
    while (!stop.load(std::memory_order_relaxed)) {
      set_perf_db(db);
      clear_perf_db();
      clear_binding_cache();
      std::this_thread::yield();
    }
  });
  for (std::thread& binder : binders) {
    binder.join();
  }
  stop.store(true, std::memory_order_relaxed);
  swapper.join();
  EXPECT_EQ(null_bindings.load(), 0)
      << "every bind must resolve to a real solver";
}

// ---------------------------------------------------------------------------
// Solver numerical parity (every registered fp32 solver, with epilogue)
// ---------------------------------------------------------------------------

void expect_solver_parity(const ConvProblem& p, bool with_epilogue) {
  SCOPED_TRACE(p.key() + (with_epilogue ? "+epi" : ""));
  Rng rng(23);
  const Tensor wmat = Tensor::normal(Shape::mat(p.gemm_m(), p.gemm_k()), rng);
  const Tensor columns =
      Tensor::normal(Shape::mat(p.gemm_k(), p.gemm_n()), rng);
  const Tensor bias = Tensor::normal(Shape::vec(p.gemm_m()), rng);
  autograd::kernels::ConvEpilogue epi;
  epi.bias = bias.raw();
  epi.relu = true;

  const autograd::kernels::PackedA packed = autograd::kernels::prepack_a(
      wmat.raw(), p.gemm_k(), 1, p.gemm_m(), p.gemm_k());

  const Solver* reference = find_solver("reference");
  ASSERT_NE(reference, nullptr);
  auto run_solver = [&](const Solver* solver, const std::string& params) {
    Tensor out = Tensor::zeros(Shape::mat(p.gemm_m(), p.gemm_n()));
    SolverArgs args;
    args.wmat = &wmat;
    args.packed = &packed;
    args.columns = &columns;
    args.out = out.raw();
    args.epi = with_epilogue ? &epi : nullptr;
    solver->run(p, args, params);
    return out;
  };
  const Tensor expected = run_solver(reference, "");

  float max_abs = 1.0f;
  for (int64_t i = 0; i < expected.numel(); ++i) {
    max_abs = std::max(max_abs, std::abs(expected.at(i)));
  }
  const float tol = 1e-5f * max_abs;
  for (const Solver* solver : applicable_solvers(p, true)) {
    for (const std::string& params : solver->search_space(p)) {
      SCOPED_TRACE(std::string(solver->name()) +
                   (params.empty() ? "" : "[" + params + "]"));
      const Tensor actual = run_solver(solver, params);
      ASSERT_EQ(actual.shape(), expected.shape());
      for (int64_t i = 0; i < expected.numel(); ++i) {
        ASSERT_NEAR(expected.at(i), actual.at(i), tol)
            << "diverges at flat index " << i;
      }
    }
  }
}

TEST(SolverParity, AllRegisteredSolversMatchReference) {
  for (const bool with_epilogue : {false, true}) {
    expect_solver_parity(
        [] {
          ConvProblem p;
          p.c = 12;
          p.h = 16;
          p.w = 48;
          p.k = 16;
          p.pad = 1;
          return p;
        }(),
        with_epilogue);
    expect_solver_parity(
        [] {
          ConvProblem p;  // 1x1 stride-2 projection shape
          p.c = 16;
          p.h = 8;
          p.w = 24;
          p.k = 24;
          p.r = 1;
          p.s = 1;
          p.stride = 2;
          return p;
        }(),
        with_epilogue);
  }
}

TEST(SolverParity, BlockedFamilyIsBitIdenticalToBlockedDefault) {
  // The numerical contract that keeps the golden hash stable across DB
  // contents: every blocked-family solver and every tuned parameter set
  // must produce bit-identical output (Kc candidates are clamped to cover
  // the reduction in one block).
  ConvProblem p;
  p.c = 12;
  p.h = 16;
  p.w = 48;
  p.k = 16;
  p.pad = 1;
  Rng rng(29);
  const Tensor wmat = Tensor::normal(Shape::mat(p.gemm_m(), p.gemm_k()), rng);
  const Tensor columns =
      Tensor::normal(Shape::mat(p.gemm_k(), p.gemm_n()), rng);
  const autograd::kernels::PackedA packed = autograd::kernels::prepack_a(
      wmat.raw(), p.gemm_k(), 1, p.gemm_m(), p.gemm_k());
  auto run_solver = [&](const char* name, const std::string& params) {
    Tensor out = Tensor::zeros(Shape::mat(p.gemm_m(), p.gemm_n()));
    const Solver* solver = find_solver(name);
    EXPECT_NE(solver, nullptr) << name;
    SolverArgs args;
    args.wmat = &wmat;
    args.packed = &packed;
    args.columns = &columns;
    args.out = out.raw();
    solver->run(p, args, params);
    return out;
  };
  const Tensor baseline = run_solver("blocked", "");
  for (const char* name : {"blocked", "blocked_prepacked"}) {
    const Solver* solver = find_solver(name);
    ASSERT_NE(solver, nullptr);
    for (const std::string& params : solver->search_space(p)) {
      SCOPED_TRACE(std::string(name) + "[" + params + "]");
      const Tensor out = run_solver(name, params);
      for (int64_t i = 0; i < baseline.numel(); ++i) {
        ASSERT_EQ(baseline.at(i), out.at(i)) << "bit-diff at index " << i;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Offline tuner
// ---------------------------------------------------------------------------

TEST(Tuner, SmokeTuneMeasuresEveryApplicableCandidate) {
  TuneOptions options;
  options.smoke = true;
  const ConvProblem p = stage2_conv2();
  const ProblemTuneResult result = tune_problem(p, options);
  size_t candidates = 0;
  for (const Solver* solver : applicable_solvers(p, true)) {
    candidates += solver->search_space(p).size();
  }
  EXPECT_EQ(result.measurements.size(), candidates);
  EXPECT_TRUE(std::is_sorted(result.measurements.begin(),
                             result.measurements.end(),
                             [](const SolverMeasurement& a,
                                const SolverMeasurement& b) {
                               return a.gflops > b.gflops;
                             }));
  for (const SolverMeasurement& m : result.measurements) {
    EXPECT_GT(m.gflops, 0.0) << m.solver;
  }
  EXPECT_EQ(result.best().gflops, result.measurements.front().gflops);
}

TEST(Tuner, TuneProblemsRecordsOneWinnerPerKey) {
  TuneOptions options;
  options.smoke = true;
  ConvProblem a = stage2_conv2();
  ConvProblem b = stage2_conv2();
  b.k = 24;
  size_t callbacks = 0;
  const PerfDb db = tune_problems({a, b, a}, options,
                                  [&callbacks](const ProblemTuneResult&) {
                                    ++callbacks;
                                  });
  EXPECT_EQ(db.size(), 2u) << "duplicate problems must collapse to one key";
  EXPECT_EQ(callbacks, 2u);
  ASSERT_NE(db.find(a.key()), nullptr);
  ASSERT_NE(db.find(b.key()), nullptr);
  EXPECT_NE(find_solver(db.find(a.key())->solver), nullptr);
}

// ---------------------------------------------------------------------------
// End to end: a tuned DB rebinds the network's convs without changing its
// output, and the prepack hit/miss counters reflect the rebinding.
// ---------------------------------------------------------------------------

TEST(TuneEndToEnd, PerfDbRebindsNetworkConvsBitExactly) {
  DispatchGuard guard;
  clear_perf_db();
  clear_binding_cache();

  Rng rng(1);
  roadseg::RoadSegConfig config;
  // A conv deeper than one Kc block (48 * 3 * 3 > kc) sends every predict
  // to the all-NCHW schedule, whose layers dispatch through the registry;
  // the blocked schedule's kernels never consult it.
  config.stage_channels = {8, 12, 16, 48};
  roadseg::RoadSegNet net(config, rng);
  net.set_training(false);
  net.prepare_inference();
  Rng data_rng(5);
  const Tensor rgb = Tensor::uniform(Shape::chw(3, 32, 96), data_rng);
  const Tensor depth = Tensor::uniform(Shape::chw(1, 32, 96), data_rng);

  // Record the conv problems the net actually binds, and the baseline
  // output under the default heuristic (pre-packed where viable).
  clear_recorded_problems();
  set_problem_recording(true);
  const Tensor baseline = net.predict(rgb, depth);
  set_problem_recording(false);
  const std::vector<ConvProblem> problems = recorded_problems();
  ASSERT_FALSE(problems.empty());

  obs::Counter& hits =
      obs::MetricsRegistry::global().counter("roadfusion_prepack_hits");
  obs::Counter& misses =
      obs::MetricsRegistry::global().counter("roadfusion_prepack_misses");
  const uint64_t h0 = hits.value();
  const uint64_t m0 = misses.value();
  net.predict(rgb, depth);
  const uint64_t base_hits = hits.value() - h0;
  const uint64_t base_misses = misses.value() - m0;
  ASSERT_GT(base_hits, 0u)
      << "heuristic must bind the pre-packed solver for viable shapes";

  // A DB that pins each recorded shape to the plain blocked solver where it
  // applies (shapes too small for the blocked loops keep their heuristic,
  // and so does the Kc-deep one: a tuned record runs it in one Kc block,
  // a different summation order than the heuristic's two): the bindings
  // must change (hits -> misses), the math must not.
  const Solver* blocked = find_solver("blocked");
  ASSERT_NE(blocked, nullptr);
  PerfDb db;
  size_t pinned = 0;
  for (const ConvProblem& p : problems) {
    if (blocked->is_applicable(p) &&
        p.gemm_k() <= ag::blocked_gemm_config().kc) {
      db.set(p.key(), {"blocked", "mc=64", 10.0});
      ++pinned;
    }
  }
  ASSERT_GT(pinned, 0u);
  set_perf_db(std::move(db));
  const uint64_t h1 = hits.value();
  const uint64_t m1 = misses.value();
  const Tensor tuned = net.predict(rgb, depth);
  EXPECT_LT(hits.value() - h1, base_hits)
      << "DB-pinned 'blocked' must not take the pre-packed path";
  EXPECT_GT(misses.value() - m1, base_misses);

  ASSERT_EQ(tuned.shape(), baseline.shape());
  for (int64_t i = 0; i < baseline.numel(); ++i) {
    ASSERT_EQ(baseline.at(i), tuned.at(i))
        << "blocked-family rebinding must be bit-exact (index " << i << ")";
  }
}

}  // namespace
}  // namespace roadfusion::tune
