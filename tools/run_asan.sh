#!/usr/bin/env bash
# Builds the project with AddressSanitizer (-DPRIVIM_SANITIZE=address) and
# runs the memory-relevant test binaries: the obs metrics/telemetry suite,
# the sampler and seed-selection regression tests, and the compiled-plan
# gradcheck and single-op suites (plan_test), whose arena indexing and
# in-place backward schedules are exactly the kind of raw-offset code ASan
# is for.
#
# The sampler tests include the restrict_to out-of-bounds regressions
# (FreqSampler/RwrSampler used to index per-node vectors with unvalidated
# ids — exactly the class of bug ASan exists to catch), and the obs tests
# hammer the lock-free instruments from multiple threads.
#
# Usage: tools/run_asan.sh [extra gtest args...]
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build-asan}

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DPRIVIM_SANITIZE=address \
  -DPRIVIM_BUILD_BENCHMARKS=OFF \
  -DPRIVIM_BUILD_EXAMPLES=OFF
cmake --build "$BUILD_DIR" -j"$(nproc)" \
  --target obs_test sampling_test sampling_properties_test im_test \
  plan_test simd_test serve_test scale_test shard_test stream_test

export ASAN_OPTIONS=${ASAN_OPTIONS:-halt_on_error=1:detect_leaks=1}
export PRIVIM_THREADS=${PRIVIM_THREADS:-4}

"$BUILD_DIR/tests/obs_test"
"$BUILD_DIR/tests/sampling_test" \
  --gtest_filter='FreqSampler*:RwrSampler*:SamplerDeterminism*:GoldenDeterminism*:RwrBall*'
"$BUILD_DIR/tests/sampling_properties_test"
"$BUILD_DIR/tests/im_test" \
  --gtest_filter='Celf*:Greedy*:InstrumentedOracle*'
"$BUILD_DIR/tests/plan_test"
# SIMD kernels + fused executor (ISSUE 8): masked tail loads, gathered row
# offsets, and the fused sweep's stage pointers are raw-index code on
# arena memory — the kernel differential harness runs every tier the host
# supports with ASan watching the remainder lanes.
"$BUILD_DIR/tests/simd_test"
# Serving layer: pooled per-worker scratch, arena-backed inference, and
# borrowed request/response/completion pointers crossing the queue — all
# raw-lifetime code worth a memory-clean run.
"$BUILD_DIR/tests/serve_test"
# Sharded pipeline (src/shard/): per-shard graphs built through the
# streaming partitioner, borrowed-graph shard tasks, and the overlap
# scheduler's cross-thread stage handoff — raw-lifetime code that must
# stay memory-clean while shards run concurrently.
"$BUILD_DIR/tests/shard_test"
# Streaming pipeline (src/stream/): the delta's overlay rows, the view's
# two-pointer row merges over spans of base storage, and the in-place
# regeneration of repaired RR sets share buffers across repair worker
# threads — raw-lifetime code that must stay memory-clean while the
# stream mutates under it.
"$BUILD_DIR/tests/stream_test"
# Million-node O(ball) properties (ctest label `scale`, env-gated): the
# streaming two-pass build, the blocked arc storage, and the lazy in-CSR
# scatter are exactly the raw-offset code paths where an off-by-one only
# shows up at scale — run them where ASan can see it.
PRIVIM_SCALE_TESTS=1 "$BUILD_DIR/tests/scale_test"

echo "ASan run clean."
