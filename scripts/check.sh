#!/usr/bin/env bash
# Full local CI sweep:
#
#   1. plain Release build + the tier-1 ctest suite,
#   2. llmp_lint over the tree and llmp_prove over the registry,
#   2b. the bench perf gate: deterministic counters (cache loads/spills,
#      mailbox traffic, set counts) diffed exactly against the committed
#      baselines in bench/baselines/ (scripts/bench_gate.py), plus the
#      raw-speed acceptance: the committed bench_thread_backend capture
#      must show fused >= 1.5x legacy on >= 2 workloads at n >= 1M,
#   2c. the network loopback smoke: llmp_serve --net.listen driven by
#      llmp_serve --net.connect over a real socket, then the
#      bench_serve_net load generator — zero lost/duplicated responses
#      under full pipelining. (--fairness is a wall-clock ratio and
#      stays out of CI like every other timing claim; quota enforcement
#      is pinned deterministically by net_server_test. The full
#      acceptance sweep is documented in docs/NET.md.)
#   3. llmp_mc — the bounded model checker's full gate: every serve
#      scenario clean over every bounded interleaving, and the three
#      seeded queue mutations each caught (the checker's self-test),
#   4. the tier-1 suite again under ASan+UBSan (-DLLMP_SANITIZE=...) —
#      including the malformed-frame fuzz decode suite in
#      net_server_test, which is the suite's home turf,
#   5. the threading tests (thread_pool_test, machine_test, serve_test,
#      chaos_test, fused_backend_test, cut_test, matching_test,
#      net_server_test, metrics_test, and the LlmpServe exit-code tests,
#      which run the llmp_serve binary)
#      under TSan — the pool tests and the ParallelExec and
#      MatchingExecutors tests run steps on the pool, the chaos storm
#      exercises fault injection, worker restarts, retries and the
#      watchdog, the net tests the IO-thread/worker completion handoff,
#      and the metrics tests the latency histogram's record() racing
#      percentile() and reset(), with the race detector watching.
#
# Usage: scripts/check.sh [--fast]   (--fast skips the sanitizer builds)
set -euo pipefail
cd "$(dirname "$0")/.."

FAST=0
[[ "${1:-}" == "--fast" ]] && FAST=1

JOBS="$(nproc 2>/dev/null || echo 4)"

echo "== [1/5] Release build + tier-1 tests =="
cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS"
(cd build && ctest --output-on-failure -j "$JOBS")

echo "== [2/5] llmp_lint + llmp_prove =="
./build/tools/llmp_lint/llmp_lint src bench examples tools
./build/tools/llmp_prove

echo "== [2b/5] bench perf gate (deterministic counters vs baselines) =="
python3 scripts/bench_gate.py --build-dir build
python3 scripts/bench_gate.py \
  --speedup bench/baselines/PERF_thread_backend_n2097152.json

echo "== [2c/5] network loopback smoke (wire protocol over a real socket) =="
./build/tools/llmp_serve --net.listen 0 --serve.workers 2 \
  >/tmp/llmp_serve_net.$$ 2>&1 &
SERVE_PID=$!
for _ in $(seq 1 100); do
  PORT="$(sed -n 's/^llmp_serve: listening on \([0-9]*\).*/\1/p' \
    /tmp/llmp_serve_net.$$ 2>/dev/null || true)"
  [[ -n "${PORT:-}" ]] && break
  sleep 0.1
done
[[ -n "${PORT:-}" ]] || { echo "check.sh: server never printed its port"; \
  kill "$SERVE_PID" 2>/dev/null || true; exit 1; }
./build/tools/llmp_serve --net.connect "127.0.0.1:${PORT}" \
  --net.conns 2 --serve.requests 512 --serve.n 2048 --serve.alg sequential
kill -INT "$SERVE_PID"
wait "$SERVE_PID"
rm -f /tmp/llmp_serve_net.$$
./build/bench/bench_serve_net --requests 4096 --conns 4 --n 1024 \
  --batch 64 --alg sequential

echo "== [3/5] llmp_mc model-check gate (incl. seeded-mutation self-test) =="
./build/tools/llmp_mc

if [[ "$FAST" == 1 ]]; then
  echo "check.sh: --fast: skipping sanitizer builds"
  exit 0
fi

echo "== [4/5] tier-1 tests under ASan+UBSan =="
cmake -B build-asan -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DLLMP_SANITIZE=address,undefined >/dev/null
cmake --build build-asan -j "$JOBS"
(cd build-asan && ctest --output-on-failure -j "$JOBS")

echo "== [4b/5] blocked-engine out-of-core smoke under ASan (8x cache) =="
# 2^17 nodes / 4096-node blocks = 32 blocks; the sweep's smallest cache
# runs at >=8x the budget, with the spill file, mailbox drain and
# eviction paths all under the sanitizer. The binary exits nonzero if
# any blocked result diverges from the flat path.
./build-asan/bench/bench_blocked_ranking --n 131072

echo "== [5/5] threading tests under TSan =="
cmake -B build-tsan -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DLLMP_SANITIZE=thread >/dev/null
cmake --build build-tsan -j "$JOBS" \
  --target thread_pool_test machine_test serve_test chaos_test \
  fused_backend_test cut_test matching_test net_server_test metrics_test \
  llmp_serve_tool
(cd build-tsan && ctest --output-on-failure -j "$JOBS" \
  -R "ThreadPool|ParallelExec|MatchingExecutors|Machine|Serve|BoundedQueue|Chaos|FusedBackend|CutKernel|Net|Metrics")

echo "check.sh: all green"
