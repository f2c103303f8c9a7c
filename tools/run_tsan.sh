#!/usr/bin/env bash
# Builds the project with ThreadSanitizer (-DPRIVIM_SANITIZE=thread) and
# runs the concurrency-relevant test binaries: the runtime suite plus the
# trainer/sampler/IM tests that exercise the parallel code paths.
#
# PRIVIM_THREADS forces the pooled (non-serial) paths even on machines the
# global default would leave serial; TSan then observes real cross-thread
# interleavings of the pool, ParallelFor, the slot free-list and the
# speculative sampler rounds.
#
# Usage: tools/run_tsan.sh [extra ctest args...]
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build-tsan}

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DPRIVIM_SANITIZE=thread \
  -DPRIVIM_BUILD_BENCHMARKS=OFF \
  -DPRIVIM_BUILD_EXAMPLES=OFF
cmake --build "$BUILD_DIR" -j"$(nproc)" \
  --target runtime_test core_test sampling_test sampling_properties_test \
  im_test simd_test serve_test shard_test stream_test

export TSAN_OPTIONS=${TSAN_OPTIONS:-halt_on_error=1}
export PRIVIM_THREADS=${PRIVIM_THREADS:-4}

"$BUILD_DIR/tests/runtime_test"
"$BUILD_DIR/tests/core_test" --gtest_filter='Trainer*'
# One read-only plan shared by 8 workers, each with a private arena slot —
# the sharing contract TSan exists to check.
"$BUILD_DIR/tests/simd_test" --gtest_filter='*TrainerSimdDiff*'
"$BUILD_DIR/tests/sampling_test" \
  --gtest_filter='SamplerDeterminism*:FreqSampler*:RwrSampler*:GoldenDeterminism*'
"$BUILD_DIR/tests/sampling_properties_test"
"$BUILD_DIR/tests/im_test" \
  --gtest_filter='EstimateIcSpread*:IcCascade*:RrSketch*:MonteCarloOracle*'
# The serving layer's concurrency surface: MPMC request queue, worker
# pumps on the thread pool, and the snapshot hot-swap torture suite
# (clients query at 2 and 8 workers while a swapper flips the published
# model; every response must be attributable to exactly one snapshot).
"$BUILD_DIR/tests/serve_test"
# The sharded pipeline's concurrency surface: the overlap scheduler's
# dedicated stage threads, concurrent shard tasks reading the partitioned
# graphs (the eager-in-CSR invariant — a lazy EnsureInCsr here would be a
# data race, tests/shard/shard_pipeline_test.cc), and the merge of
# per-shard results back onto the orchestration thread.
"$BUILD_DIR/tests/shard_test"
# The streaming pipeline's concurrency surface: parallel RR-set repair
# workers regenerating disjoint sets of one shared sketch, the retraining
# rounds re-entering the (threaded) Pipeline facade, and the PublishTo
# handoff of a freshly compacted graph into the server's RCU-style
# published state while query workers hold references.
"$BUILD_DIR/tests/stream_test"

echo "TSan run clean."
