#!/usr/bin/env bash
# Tier-1 verify driver (see ROADMAP.md): configure, build, ctest.
#
#   tools/run_tier1.sh            # the documented tier-1 line
#   tools/run_tier1.sh --tsan     # additionally build the runtime + fault
#                                 # tolerance + kernel parity + observability
#                                 # tests under ThreadSanitizer and run them
#                                 # (concurrent predicts sharing one plan
#                                 # cache; tracing/metrics are lock-free
#                                 # hot paths)
#   tools/run_tier1.sh --asan     # additionally build the kernel parity +
#                                 # golden + fault tolerance + workspace
#                                 # tests under AddressSanitizer and run
#                                 # them (packing buffers, panel edges,
#                                 # fault paths, arena block lifetimes)
#   tools/run_tier1.sh --ubsan    # additionally build the runtime + fault
#                                 # tolerance + serialization + kernel
#                                 # parity + plan + stream + depth front end
#                                 # + filter tests under
#                                 # UndefinedBehaviorSanitizer and run them
#                                 # (checkpoint header parsing, fault
#                                 # injection arithmetic, the NCHWc8
#                                 # kernels' window reads up to the right
#                                 # border column, the AWN pooling of
#                                 # cached blocked planes, the densify
#                                 # frontier's bit-plane shifts)
#   tools/run_tier1.sh --coverage # additionally build with gcov
#                                 # instrumentation, run the observability
#                                 # suite, and fail if line coverage of
#                                 # src/obs drops below 70%
#   tools/run_tier1.sh --bench-smoke
#                                 # additionally run bench_latency --smoke:
#                                 # a seconds-fast check that the planned
#                                 # inference paths (default and wide net)
#                                 # still report zero per-call heap
#                                 # allocations
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
#                                 # diff per scheme at any depth + zero-alloc
#                                 # steady state via AllocProbe), then train
#                                 # a throwaway model and assert
#                                 # `roadfusion infer --explain-plan`
#                                 # prints a schedule whose
#                                 # stems, transposed convs, refines and
#                                 # head are blocked-layout nchwc_direct
#                                 # steps, that no slot is NCHW and each
#                                 # schedule's one to_nchw step is its
#                                 # last, that explain prints no deleted
#                                 # solver / perf-DB knob line, and that a
#                                 # stale ROADFUSION_SOLVER in the
#                                 # environment changes no output byte
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
    --soak-smoke) soak_smoke=1 ;;
    --scenario-smoke) scenario_smoke=1 ;;
    --plan-smoke) plan_smoke=1 ;;
    *)
      echo "usage: tools/run_tier1.sh [--tsan] [--asan] [--ubsan] [--coverage] [--bench-smoke] [--soak-smoke] [--scenario-smoke] [--plan-smoke]" >&2
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
             test_workspace test_frontdoor test_serve_e2e \
             test_stream test_plan
  (cd build-tsan && ctest --output-on-failure -R 'test_runtime|test_fault_tolerance|test_kernel_parity|test_tracing|test_metrics|test_workspace|test_frontdoor|test_serve_e2e|test_stream|test_plan')
fi

if [[ "$asan" == 1 ]]; then
  echo "== AddressSanitizer pass over the kernel parity + golden + fault tolerance + workspace + serve tests =="
  cmake -B build-asan -S . -DROADFUSION_SANITIZE=address
  cmake --build build-asan -j \
    --target test_kernel_parity test_golden_inference test_fault_tolerance \
             test_workspace test_frontdoor \
             test_scenario test_stream test_plan
  (cd build-asan && ctest --output-on-failure -R 'test_kernel_parity|test_golden_inference|test_fault_tolerance|test_workspace|test_frontdoor|test_scenario|test_stream|test_plan')
fi

if [[ "$ubsan" == 1 ]]; then
  echo "== UndefinedBehaviorSanitizer pass over the runtime + fault tolerance + serialization + kernel parity + plan + stream + depth front end tests =="
  cmake -B build-ubsan -S . -DROADFUSION_SANITIZE=undefined
  cmake --build build-ubsan -j \
    --target test_runtime_queue test_runtime_engine test_runtime_stats \
             test_fault_tolerance test_serialize test_checkpoint test_scenario \
             test_kernel_parity test_plan test_stream test_depth_preproc \
             test_filters
  (cd build-ubsan && ctest --output-on-failure -R 'test_runtime|test_fault_tolerance|test_serialize|test_checkpoint|test_scenario|test_kernel_parity|test_plan|test_stream|test_depth_preproc|test_filters')
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
  # RGB-only, stream miss/hit, batched) memcmp-equal to the autograd graph
  # for every fusion scheme, on nets deeper than 8 stages and with
  # reductions deeper than the GEMM's Kc block too, zero heap allocations
  # per predict from the second call on (AllocProbe), decoder trace spans
  # named as explain names the layers, the kernel-selection knob line and
  # the bounded plan cache.
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
  # convs, decoder refines and head are nchwc_direct steps, and no step
  # falls to the scalar reference oracle.
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
  # One layout: no slot is NCHW, and each schedule's only to_nchw step is
  # its last, the conversion into the returned logits.
  if echo "$explain" | grep -q ' nchw)'; then
    echo "$explain"; echo "plan smoke: a schedule holds an NCHW slot" >&2; exit 1
  fi
  echo "$explain" | awk '
    /^inference plan:/ { if (plans++ && !(to_nchw == 1 && last)) bad = 1
                         to_nchw = 0; last = 0; next }
    plans && /^  \[[0-9]+\] / { last = index($0, "] to_nchw ") > 0
                                 to_nchw += last }
    END { exit (!plans || bad || !(to_nchw == 1 && last)) }' ||
    { echo "$explain"; echo "plan smoke: a schedule's one to_nchw is not its only and last step" >&2; exit 1; }
  # The solver registry and its perf DB are gone: explain names no knob
  # of theirs, and a stale ROADFUSION_SOLVER in the environment changes
  # no output byte.
  if echo "$explain" | grep -qE 'ROADFUSION_(SOLVER|PERF_DB)'; then
    echo "$explain"; echo "plan smoke: explain prints a deleted knob line" >&2; exit 1
  fi
  rm -rf build/plan_smoke_unset build/plan_smoke_forced
  (cd build && env -u ROADFUSION_SOLVER ./tools/roadfusion infer \
      --model plan_smoke.rfc --out plan_smoke_unset >/dev/null)
  (cd build && ROADFUSION_SOLVER=reference ./tools/roadfusion infer \
      --model plan_smoke.rfc --out plan_smoke_forced >/dev/null)
  [[ -n "$(ls -A build/plan_smoke_unset)" ]] ||
    { echo "plan smoke: infer wrote no output files" >&2; exit 1; }
  diff -r build/plan_smoke_unset build/plan_smoke_forced ||
    { echo "plan smoke: ROADFUSION_SOLVER=reference changed the infer output" >&2; exit 1; }
  echo "plan smoke: OK"
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
