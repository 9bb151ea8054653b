#!/usr/bin/env bash
# Tier-1 verify driver (see ROADMAP.md): configure, build, ctest.
#
#   tools/run_tier1.sh            # the documented tier-1 line
#   tools/run_tier1.sh --tsan     # additionally build the runtime + fault
#                                 # tolerance + kernel parity + observability
#                                 # tests under ThreadSanitizer and run them
#                                 # (concurrent solver bind()/DB reloads in
#                                 # test_tune; tracing/metrics are lock-free
#                                 # hot paths)
#   tools/run_tier1.sh --asan     # additionally build the kernel parity +
#                                 # golden + fault tolerance + workspace
#                                 # tests under AddressSanitizer and run
#                                 # them (packing buffers, panel edges,
#                                 # fault paths, arena block lifetimes)
#   tools/run_tier1.sh --ubsan    # additionally build the runtime + fault
#                                 # tolerance + serialization tests under
#                                 # UndefinedBehaviorSanitizer and run them
#                                 # (checkpoint header parsing, fault
#                                 # injection arithmetic)
#   tools/run_tier1.sh --coverage # additionally build with gcov
#                                 # instrumentation, run the observability
#                                 # suite, and fail if line coverage of
#                                 # src/obs drops below 70%
#   tools/run_tier1.sh --bench-smoke
#                                 # additionally run bench_latency --smoke:
#                                 # a seconds-fast check that the planned
#                                 # inference path still reports zero
#                                 # per-call heap allocations
#   tools/run_tier1.sh --tune-smoke
#                                 # additionally run `roadfusion tune --smoke`
#                                 # and assert the perf DB is produced and
#                                 # reloaded by serving, which stays on the
#                                 # blocked plan (the DB moves registry
#                                 # bindings: the graph's, the all-NCHW
#                                 # schedule's)
#   tools/run_tier1.sh --soak-smoke
#                                 # additionally run bench_soak --smoke: a
#                                 # seconds-long open-loop overload drill
#                                 # asserting the front door keeps >=99%
#                                 # availability at 2x capacity where the
#                                 # bare engine collapses, with exact
#                                 # request accounting
#   tools/run_tier1.sh --plan-smoke
#                                 # additionally run the inference-plan leg:
#                                 # ctest -L plan (planned-vs-graph bitwise
#                                 # diff per scheme + zero-alloc steady state
#                                 # via AllocProbe), then train a throwaway
#                                 # model and assert `roadfusion infer
#                                 # --explain-plan` prints a schedule whose
#                                 # stems, transposed convs, refines and
#                                 # head are blocked-layout nchwc_direct
#                                 # steps (never the reference oracle), and
#                                 # that ROADFUSION_SOLVER=reference binds
#                                 # the oracle on the stems and decoder
#   tools/run_tier1.sh --scenario-smoke
#                                 # additionally drive the corruption
#                                 # round trip: `roadfusion eval-matrix
#                                 # --smoke` (per-cell fused >= own
#                                 # rgb_only gate) and `roadfusion stream
#                                 # --verify` (streamed frames bitwise
#                                 # equal to independent inference), then
#                                 # bench_stream --smoke (speedup gate)
set -euo pipefail

cd "$(dirname "$0")/.."

tsan=0
asan=0
ubsan=0
coverage=0
bench_smoke=0
tune_smoke=0
soak_smoke=0
scenario_smoke=0
plan_smoke=0
for arg in "$@"; do
  case "$arg" in
    --tsan) tsan=1 ;;
    --asan) asan=1 ;;
    --ubsan) ubsan=1 ;;
    --coverage) coverage=1 ;;
    --bench-smoke) bench_smoke=1 ;;
    --tune-smoke) tune_smoke=1 ;;
    --soak-smoke) soak_smoke=1 ;;
    --scenario-smoke) scenario_smoke=1 ;;
    --plan-smoke) plan_smoke=1 ;;
    *)
      echo "usage: tools/run_tier1.sh [--tsan] [--asan] [--ubsan] [--coverage] [--bench-smoke] [--tune-smoke] [--soak-smoke] [--scenario-smoke] [--plan-smoke]" >&2
      exit 2
      ;;
  esac
done

cmake -B build -S .
cmake --build build -j
(cd build && ctest --output-on-failure -j "$(nproc)")

if [[ "$tsan" == 1 ]]; then
  echo "== ThreadSanitizer pass over the runtime + serve + fault tolerance + kernel parity + observability + workspace tests =="
  cmake -B build-tsan -S . -DROADFUSION_SANITIZE=thread
  cmake --build build-tsan -j \
    --target test_runtime_queue test_runtime_engine test_fault_tolerance \
             test_kernel_parity test_tracing test_metrics test_runtime_stats \
             test_workspace test_tune test_frontdoor test_serve_e2e \
             test_stream test_plan
  (cd build-tsan && ctest --output-on-failure -R 'test_runtime|test_fault_tolerance|test_kernel_parity|test_tracing|test_metrics|test_workspace|test_tune|test_frontdoor|test_serve_e2e|test_stream|test_plan')
fi

if [[ "$asan" == 1 ]]; then
  echo "== AddressSanitizer pass over the kernel parity + golden + fault tolerance + workspace + serve tests =="
  cmake -B build-asan -S . -DROADFUSION_SANITIZE=address
  cmake --build build-asan -j \
    --target test_kernel_parity test_golden_inference test_fault_tolerance \
             test_workspace test_tune test_frontdoor \
             test_scenario test_stream test_plan
  (cd build-asan && ctest --output-on-failure -R 'test_kernel_parity|test_golden_inference|test_fault_tolerance|test_workspace|test_tune|test_frontdoor|test_scenario|test_stream|test_plan')
fi

if [[ "$ubsan" == 1 ]]; then
  echo "== UndefinedBehaviorSanitizer pass over the runtime + fault tolerance + serialization tests =="
  cmake -B build-ubsan -S . -DROADFUSION_SANITIZE=undefined
  cmake --build build-ubsan -j \
    --target test_runtime_queue test_runtime_engine test_runtime_stats \
             test_fault_tolerance test_serialize test_checkpoint test_scenario
  (cd build-ubsan && ctest --output-on-failure -R 'test_runtime|test_fault_tolerance|test_serialize|test_checkpoint|test_scenario')
fi

if [[ "$soak_smoke" == 1 ]]; then
  echo "== Soak smoke: front door holds availability at 2x capacity =="
  cmake --build build -j --target bench_soak
  # bench_soak gates internally (availability floors + exact accounting)
  # and exits nonzero if the ladder fails to hold.
  (cd build && ./bench/bench_soak --smoke)
fi

if [[ "$bench_smoke" == 1 ]]; then
  echo "== Bench smoke: planned inference stays zero-allocation =="
  cmake --build build -j --target bench_latency
  (cd build && ./bench/bench_latency --smoke)
  echo "== Bench smoke: streaming reuse is bitwise-equal and faster =="
  cmake --build build -j --target bench_stream
  # bench_stream gates internally: bitwise equality with naive per-frame
  # inference, and speedup >= 1.15x in smoke mode.
  (cd build && ./bench/bench_stream --smoke)
fi

if [[ "$scenario_smoke" == 1 ]]; then
  echo "== Scenario smoke: generate -> eval-matrix -> stream round trip =="
  cmake --build build -j --target roadfusion bench_stream
  # eval-matrix gates internally: on every scenario x scheme cell the
  # fused MaxF must stay within tolerance of the same model's own
  # RGB-only fallback (the path triage actually serves).
  matrix="build/scenario_smoke.json"
  rm -f "$matrix"
  (cd build && ./tools/roadfusion eval-matrix --smoke --out scenario_smoke.json)
  [[ -s "$matrix" ]] || { echo "scenario smoke: $matrix missing or empty" >&2; exit 1; }
  grep -q '"scenarios"' "$matrix" && grep -q '"rgb_only"' "$matrix" ||
    { echo "scenario smoke: matrix JSON lacks expected keys" >&2; exit 1; }
  # Streamed serving must be bitwise-identical to independent per-frame
  # inference; --verify replays the stream naively and compares.
  stream_out="$(cd build && ./tools/roadfusion stream --frames 12 \
      --scenario fog:0.5 --verify 2>&1)" ||
    { echo "$stream_out"; echo "scenario smoke: stream --verify failed" >&2; exit 1; }
  echo "$stream_out" | grep -q 'verify: 12/12 frames bitwise-identical' ||
    { echo "$stream_out"; echo "scenario smoke: stream verify line missing" >&2; exit 1; }
  (cd build && ./bench/bench_stream --smoke)
  echo "scenario smoke: OK"
fi

if [[ "$plan_smoke" == 1 ]]; then
  echo "== Plan smoke: compiled schedule is bit-exact and allocation-free =="
  cmake --build build -j --target test_plan roadfusion
  # test_plan covers the gates directly: every request kind (fused,
  # RGB-only, stream miss/hit, batched, forced solver) memcmp-equal to
  # the autograd graph for every fusion scheme, zero heap allocations per
  # predict from the second call on (AllocProbe), labeled all-NCHW
  # layouts (forced solver, Kc depth), the kernel-selection knob lines
  # and the bounded plan cache.
  (cd build && ctest --output-on-failure -L plan)
  # End to end: the CLI must print a blocked-layout schedule for a real
  # checkpoint.
  (cd build && ./tools/roadfusion train --epochs 1 --cap 2 --out plan_smoke.rfc >/dev/null)
  explain="$(cd build && ./tools/roadfusion infer --model plan_smoke.rfc \
      --explain-plan --out plan_smoke_out 2>&1)" ||
    { echo "$explain"; echo "plan smoke: infer --explain-plan failed" >&2; exit 1; }
  echo "$explain" | grep -q 'solver=nchwc_direct' ||
    { echo "$explain"; echo "plan smoke: no blocked-layout conv in the schedule" >&2; exit 1; }
  echo "$explain" | grep -q 'inference plan: scheme=' ||
    { echo "$explain"; echo "plan smoke: plan header missing" >&2; exit 1; }
  echo "$explain" | grep -q 'variant=rgb_only' ||
    { echo "$explain"; echo "plan smoke: no rgb_only schedule" >&2; exit 1; }
  # Every layer runs the blocked layout by default: the stems, transposed
  # convs, decoder refines and head are nchwc_direct steps, no step falls
  # to the scalar reference oracle, and no decoder runs NCHW.
  if echo "$explain" | grep -q 'solver=reference'; then
    echo "$explain"; echo "plan smoke: default plan binds the reference solver" >&2; exit 1
  fi
  for layer in 'rgb\.stage0' 'depth\.stage0' 'decoder\.up[0-9]+' \
               'decoder\.refine[0-9]+' 'decoder\.head'; do
    steps="$(echo "$explain" | grep -E "layer=$layer ")" ||
      { echo "$explain"; echo "plan smoke: no layer=$layer step in the schedule" >&2; exit 1; }
    if echo "$steps" | grep -vq 'layout=nchwc8 solver=nchwc_direct'; then
      echo "$steps"; echo "plan smoke: a layer=$layer step is not a blocked-layout kernel" >&2; exit 1
    fi
  done
  if echo "$explain" | grep -qE '\] decoder +layout=nchw '; then
    echo "$explain"; echo "plan smoke: default plan runs the decoder NCHW" >&2; exit 1
  fi
  # The oracle stays reachable: forcing it runs the all-NCHW schedule,
  # whose stems and decoder bind it.
  oracle="$(cd build && ROADFUSION_SOLVER=reference ./tools/roadfusion infer \
      --model plan_smoke.rfc --explain-plan --out plan_smoke_out 2>&1)" ||
    { echo "$oracle"; echo "plan smoke: forced-reference infer failed" >&2; exit 1; }
  echo "$oracle" | grep -q '^knob ROADFUSION_SOLVER=reference$' ||
    { echo "$oracle"; echo "plan smoke: explain does not report the forced solver" >&2; exit 1; }
  for step in 'layer=(rgb|depth)\.stage0 ' '\] decoder '; do
    lines="$(echo "$oracle" | grep -E "$step")" ||
      { echo "$oracle"; echo "plan smoke: no '$step' step under the oracle" >&2; exit 1; }
    if echo "$lines" | grep -vq 'solver=reference'; then
      echo "$lines"; echo "plan smoke: ROADFUSION_SOLVER=reference did not bind '$step'" >&2; exit 1
    fi
  done
  # A forced solver must run the all-NCHW layout and say why.
  forced="$(cd build && ROADFUSION_SOLVER=blocked ./tools/roadfusion infer \
      --model plan_smoke.rfc --explain-plan --out plan_smoke_out 2>&1)" ||
    { echo "$forced"; echo "plan smoke: forced-solver infer failed" >&2; exit 1; }
  echo "$forced" | grep -q 'reason=forced_solver' ||
    { echo "$forced"; echo "plan smoke: forced solver not labeled" >&2; exit 1; }
  echo "plan smoke: OK"
fi

if [[ "$tune_smoke" == 1 ]]; then
  echo "== Tune smoke: offline tuning produces a DB that serving consumes =="
  cmake --build build -j --target roadfusion
  tune_db="build/tune_smoke.db"
  rm -f "$tune_db" "$tune_db.tmp"
  (cd build && ./tools/roadfusion tune --smoke --db tune_smoke.db --cap 2)
  [[ -s "$tune_db" ]] || { echo "tune smoke: $tune_db missing or empty" >&2; exit 1; }
  [[ ! -e "$tune_db.tmp" ]] || { echo "tune smoke: stale $tune_db.tmp left behind" >&2; exit 1; }
  head -1 "$tune_db" | grep -q '^RFPD1 cpu=' ||
    { echo "tune smoke: bad DB header" >&2; exit 1; }
  # One synthetic scene through serving with the DB: the reload line must
  # appear. The DB moves registry bindings only (the graph's and the
  # all-NCHW schedule's), so serving must stay on the blocked plan.
  metrics="$(cd build && ./tools/roadfusion metrics-dump --count 1 \
      --perf-db tune_smoke.db 2>&1)"
  echo "$metrics" | grep -q 'reloaded [1-9][0-9]* tuned record' ||
    { echo "tune smoke: serving did not reload the DB" >&2; exit 1; }
  echo "$metrics" | grep -q 'roadfusion_plan_layers_total{layout="nchw"} 0$' ||
    { echo "$metrics"; echo "tune smoke: a tuned DB pulled serving off the blocked plan" >&2; exit 1; }
  echo "tune smoke: OK ($(grep -c ' solver=' "$tune_db") records)"
fi

if [[ "$coverage" == 1 ]]; then
  echo "== Coverage pass over the observability suite (src/obs floor: 70% lines) =="
  cmake -B build-cov -S . -DROADFUSION_COVERAGE=ON -DCMAKE_BUILD_TYPE=Debug
  cmake --build build-cov -j \
    --target test_tracing test_metrics test_runtime_stats test_obs_e2e
  # Fresh counters per run: stale .gcda from a previous invocation would
  # inflate (or deflate, after edits) the measured coverage.
  find build-cov -name '*.gcda' -delete
  (cd build-cov && ctest --output-on-failure -R 'test_tracing|test_metrics|test_runtime_stats|test_obs_e2e')

  objdir="build-cov/src/obs/CMakeFiles/rf_obs.dir"
  if command -v gcovr >/dev/null 2>&1; then
    gcovr -r . --filter 'src/obs/' --fail-under-line 70 "$objdir"
  else
    # gcov fallback: aggregate "Lines executed" over the src/obs sources
    # (headers included in other blocks are filtered by path).
    gcov -n "$objdir"/*.gcno 2>/dev/null |
      awk '
        /^File / { keep = (index($0, "src/obs/") > 0) }
        /^Lines executed:/ && keep {
          split($0, halves, ":")
          split(halves[2], parts, "% of ")
          covered += parts[1] * parts[2] / 100.0
          total += parts[2]
        }
        END {
          if (total == 0) {
            print "coverage: no gcov data for src/obs" > "/dev/stderr"
            exit 1
          }
          pct = 100.0 * covered / total
          printf "src/obs line coverage: %.1f%% (%.0f of %d lines)\n", \
                 pct, covered, total
          if (pct < 70.0) {
            printf "coverage below the 70%% floor\n" > "/dev/stderr"
            exit 1
          }
        }'
  fi
fi
