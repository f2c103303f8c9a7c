#!/usr/bin/env bash
# One-command verification ladder, in increasing cost:
#
#   1. tier-1: Release build + the full unit/property ctest suite
#      (labels: `ctest -L unit`, `-L property`, `-L sanitizer`, `-L ckpt`,
#      `-L plan`, `-L serve`, `-L cli` select subsets; see
#      tests/CMakeLists.txt),
#      then the zero-allocation gates (bench_micro's PlanSteadyStateAllocs
#      and ServeSteadyStateAllocs cases exit nonzero if the plan runtime
#      or the warm serving path heap-allocates in steady state), and the
#      scale smoke (bench_micro's ScaleSmoke case gates a million-node
#      streaming build at 1.2x-of-CSR peak memory, then the O(ball)
#      property suite runs via `PRIVIM_SCALE_TESTS=1 ctest -L scale`);
#   2. ckpt:   examples build + the checkpoint/resume fault-injection
#              suite (kill-and-resume bit-identity, tests/ckpt/) under
#              AddressSanitizer;
#   3. ASan:   sampler / influence suites under AddressSanitizer
#              (tools/run_asan.sh, -DPRIVIM_SANITIZE=address);
#   4. TSan:   runtime / sampler / IM suites under ThreadSanitizer
#              (tools/run_tsan.sh, -DPRIVIM_SANITIZE=thread);
#   5. UBSan:  the SIMD kernel / plan differential suites under
#              UndefinedBehaviorSanitizer (-DPRIVIM_SANITIZE=undefined) —
#              tail masking, raw arena offsets, and intrinsics-adjacent
#              pointer math are where UB would hide.
#
# Stages 2-5 configure their own build trees (build-asan/, build-tsan/,
# build-ubsan/) and force PRIVIM_THREADS=4 so the pooled scratch
# workspaces and the speculative sampler rounds run genuinely parallel
# under the sanitizers.
#
# Usage: tools/run_checks.sh [--tier1-only]
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build}

echo "== stage 1/5: tier-1 build + ctest =="
cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" -j"$(nproc)"
ctest --test-dir "$BUILD_DIR" -j"$(nproc)" --output-on-failure

echo "== stage 1b: zero-allocation gates (plan + serve) =="
# Runs full steady-state training iterations AND warm mixed-type serving
# queries under a counting allocator (global operator new replacement in
# bench/bench_micro.cc) and exits nonzero on the first heap allocation —
# the contracts tensor/plan.h and serve/query_engine.h make once warm.
"$BUILD_DIR/bench/bench_micro" \
  --benchmark_filter='SteadyStateAllocs' --benchmark_min_time=0.05

echo "== stage 1c: scale smoke (million-node build + sampling) =="
# Streams a 10^6-node generator graph through the two-pass build with the
# byte-tracking allocator armed — the binary exits nonzero if the build's
# peak heap growth exceeds 1.2x the finished CSR (graph/graph.h,
# docs/scale.md) — then runs a warm million-node RWR round. The full
# O(ball) property suite is `PRIVIM_SCALE_TESTS=1 ctest -L scale`.
"$BUILD_DIR/bench/bench_micro" --benchmark_filter='ScaleSmoke'
PRIVIM_SCALE_TESTS=1 ctest --test-dir "$BUILD_DIR" -L scale \
  --output-on-failure

echo "== stage 1d: SIMD differential suites, native + forced-scalar =="
# `ctest -L simd` selects the kernel differential harness, the fusion-pass
# tests, the PRIVIM_FORCE_ISA dispatch tests, and the end-to-end trainer
# tolerance suite (tests/CMakeLists.txt). The native rung runs whatever
# tier the host CPU dispatches to; the forced-scalar rung proves the whole
# ladder degrades cleanly to the reference kernels (the configuration a
# bit-identity bisection would run in, docs/performance.md).
ctest --test-dir "$BUILD_DIR" -L simd -j"$(nproc)" --output-on-failure
PRIVIM_FORCE_ISA=scalar ctest --test-dir "$BUILD_DIR" -L simd \
  -j"$(nproc)" --output-on-failure

echo "== stage 1e: sharded pipeline suite + overlap-scheduler gate =="
# `ctest -L shard` selects the src/shard/ suite (partitioner invariants,
# merge determinism across shards x threads x repeats, shards=1 == serial
# bit-identity, the Pipeline facade contracts); `ctest -L cli` runs the
# privim_cli driver serial and with --shards N. The bench_micro
# ShardOverlap case then runs the real 2-shard pipeline and exits nonzero
# unless the overlap scheduler hides >= 20% of the serialized stage cost
# (the wall-vs-stage-sum methodology of docs/sharding.md).
ctest --test-dir "$BUILD_DIR" -L 'shard|cli' -j"$(nproc)" --output-on-failure
"$BUILD_DIR/bench/bench_micro" --benchmark_filter='ShardOverlap'

echo "== stage 1f: streaming pipeline suite + O(ball) update gate =="
# `ctest -L stream` selects the src/stream/ suite (GraphDelta/GraphView
# overlay semantics, incremental-vs-full RR-sketch bit-identity at threads
# {1,8}, continual-observation epsilon monotonicity, kill-and-resume
# bit-identity, the graph+model serving hot swap). The bench_micro
# StreamUpdate case then applies real update batches to a 50k-node graph
# and exits nonzero if a 16-event batch repairs more than 25% of the
# resident sketch — the O(ball) locality contract of docs/streaming.md.
ctest --test-dir "$BUILD_DIR" -L stream -j"$(nproc)" --output-on-failure
"$BUILD_DIR/bench/bench_micro" --benchmark_filter='StreamUpdate'

if [[ "${1:-}" == "--tier1-only" ]]; then
  echo "Tier-1 clean (sanitizer stages skipped)."
  exit 0
fi

echo "== stage 2/5: examples + checkpoint fault injection under ASan =="
# The examples double as API smoke tests: they exercise the documented
# public surface (docs/api.md) and must keep building against it.
cmake -B build-asan -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DPRIVIM_SANITIZE=address \
  -DPRIVIM_BUILD_BENCHMARKS=OFF \
  -DPRIVIM_BUILD_EXAMPLES=ON
cmake --build build-asan -j"$(nproc)" --target \
  quickstart viral_marketing parameter_tuning privacy_accounting \
  diffusion_models ckpt_test ckpt_resume_test
# resume_test kills the pipeline at every commit point (including a hard
# _exit in a forked child) and demands bit-identical resumption — under
# ASan so the restore paths are also memory-clean.
ASAN_OPTIONS=${ASAN_OPTIONS:-halt_on_error=1:detect_leaks=1} \
  PRIVIM_THREADS=${PRIVIM_THREADS:-4} \
  build-asan/tests/ckpt_test
ASAN_OPTIONS=${ASAN_OPTIONS:-halt_on_error=1:detect_leaks=1} \
  PRIVIM_THREADS=${PRIVIM_THREADS:-4} \
  build-asan/tests/ckpt_resume_test

echo "== stage 3/5: AddressSanitizer =="
BUILD_DIR=build-asan tools/run_asan.sh

echo "== stage 4/5: ThreadSanitizer =="
BUILD_DIR=build-tsan tools/run_tsan.sh

echo "== stage 5/5: UndefinedBehaviorSanitizer (SIMD + plan suites) =="
# -fno-sanitize-recover=undefined (CMakeLists.txt) makes any UB finding
# fatal. simd_test covers the vector kernels' tail handling on every tier
# the host supports plus the fused executor; plan_test re-runs the plan
# gradchecks and single-op suites under instrumentation.
cmake -B build-ubsan -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DPRIVIM_SANITIZE=undefined \
  -DPRIVIM_BUILD_BENCHMARKS=OFF \
  -DPRIVIM_BUILD_EXAMPLES=OFF
cmake --build build-ubsan -j"$(nproc)" --target simd_test plan_test
PRIVIM_THREADS=${PRIVIM_THREADS:-4} build-ubsan/tests/simd_test
PRIVIM_FORCE_ISA=scalar PRIVIM_THREADS=${PRIVIM_THREADS:-4} \
  build-ubsan/tests/simd_test
PRIVIM_THREADS=${PRIVIM_THREADS:-4} build-ubsan/tests/plan_test

echo "All checks clean."
