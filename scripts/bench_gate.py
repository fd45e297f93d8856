#!/usr/bin/env python3
"""Perf gate: diff bench counters against committed baselines.

The bench binaries mirror every printed table as google-benchmark JSON
under --json (see bench/bench_common.h). Most of those columns are model
quantities — PRAM steps, set counts, cache loads/spills/swaps, mailbox
traffic — fully determined by (n, seed, algorithm), so they must not
drift without an intentional change. This gate reruns each bench named
in GATE with pinned arguments and compares every deterministic counter
EXACTLY against bench/baselines/BENCH_<name>.json. Wall-clock columns
(real_time / cpu_time / *_ms / vs_*) are machine noise and are ignored.

Usage:
  scripts/bench_gate.py [--build-dir build] [--update] [name ...]
  scripts/bench_gate.py --speedup bench/baselines/PERF_<...>.json

With --update the current output replaces the baseline (commit the diff
alongside the change that explains it). Names default to every GATE
entry. Exit status: 0 clean, 1 drift or missing baseline.

--speedup switches to the wall-clock acceptance check for the fused
thread backend: it reads a committed bench_thread_backend JSON capture
(taken at n >= 1M) and requires vs_legacy >= --min-ratio on at least
--min-count workloads. Wall ratios are machine noise for the *drift*
gate, but for the capture that documents the raw-speed pass they are the
whole point — this mode is how CI keeps that evidence honest.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

# Bench binaries under the gate, with pinned arguments. Keep runs small:
# the gate checks counter shape, not throughput. Every entry needs a
# committed bench/baselines/BENCH_<name>.json (seed with --update).
GATE = {
    "bench_blocked_ranking": ["--n", "32768"],
    "bench_lemma1_sets": [],
    # Loopback load generator: the reconciliation ledger (requests / ok /
    # lost / dup / unknown per connection) is exact under full pipelining;
    # only the *_ms columns are machine noise. --fairness stays off here
    # (its throughput-ratio check is a wall-clock claim, not a counter).
    "bench_serve_net": ["--requests", "2048", "--conns", "4", "--n", "1024",
                        "--alg", "sequential"],
    # Repair convergence: moves/iterations/edges are exact under SeqExec
    # with the injector's seeded damage; only the google-benchmark
    # section carries wall clock.
    "bench_stabilize": ["--n", "16384"],
    "bench_thread_backend": ["--n", "65536", "--workers", "2"],
    "bench_walkdown": ["--n", "4096"],
}

# Counter keys that carry machine-dependent time or harness settings,
# not model quantities.
VOLATILE_KEYS = {"real_time", "cpu_time", "iterations", "repetitions",
                 "repetition_index", "threads"}


def is_volatile(key):
    return (key in VOLATILE_KEYS or key.endswith("_ms") or key == "ms"
            or " ms" in key or key.startswith("vs_"))


def deterministic_counters(entry):
    """name -> value for every exact-comparable numeric field."""
    out = {}
    for key, value in entry.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        if is_volatile(key):
            continue
        out[key] = value
    return out


def load_benchmarks(path):
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    return {b["name"]: deterministic_counters(b)
            for b in doc.get("benchmarks", [])}


def run_bench(binary, args):
    fd, tmp = tempfile.mkstemp(suffix=".json")
    os.close(fd)
    try:
        subprocess.run([binary, *args, "--json=" + tmp], check=True,
                       stdout=subprocess.DEVNULL)
        with open(tmp, "r", encoding="utf-8") as f:
            return f.read()
    finally:
        os.unlink(tmp)


def compare(name, baseline, current):
    """Return a list of human-readable drift lines (empty = clean)."""
    drift = []
    for row in sorted(set(baseline) | set(current)):
        if row not in current:
            drift.append(f"{name}: row '{row}' disappeared")
            continue
        if row not in baseline:
            drift.append(f"{name}: new row '{row}' (re-seed with --update)")
            continue
        base_row, cur_row = baseline[row], current[row]
        for key in sorted(set(base_row) | set(cur_row)):
            b, c = base_row.get(key), cur_row.get(key)
            if b != c:
                drift.append(f"{name}/{row}: {key} = {c} (baseline {b})")
    return drift


def check_speedup(path, min_ratio, min_count):
    """Enforce the fused-vs-legacy acceptance on a saved capture."""
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    ratios = {}
    for b in doc.get("benchmarks", []):
        name = b.get("name", "")
        if name.startswith("algo/") and "vs_legacy" in b:
            ratios[name[len("algo/"):]] = b["vs_legacy"]
    if not ratios:
        sys.exit(f"bench_gate: {path} has no algo/... rows with vs_legacy "
                 f"(capture it with bench_thread_backend --json=...)")
    winners = sorted(w for w, r in ratios.items() if r >= min_ratio)
    for workload in sorted(ratios):
        mark = "PASS" if ratios[workload] >= min_ratio else "  --"
        print(f"bench_gate: speedup {mark} {workload} "
              f"vs_legacy={ratios[workload]:.3f}")
    if len(winners) < min_count:
        sys.exit(f"bench_gate: speedup FAIL: {len(winners)} workload(s) "
                 f">= {min_ratio}x (need {min_count}): "
                 f"{', '.join(winners) or 'none'}")
    print(f"bench_gate: speedup OK: {', '.join(winners)} >= {min_ratio}x")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--build-dir", default="build")
    ap.add_argument("--baseline-dir", default="bench/baselines")
    ap.add_argument("--update", action="store_true",
                    help="write current output as the new baselines")
    ap.add_argument("--speedup", metavar="JSON",
                    help="check vs_legacy ratios in a saved "
                         "bench_thread_backend capture instead of diffing "
                         "baselines")
    ap.add_argument("--min-ratio", type=float, default=1.5,
                    help="required fused-vs-legacy ratio (default 1.5)")
    ap.add_argument("--min-count", type=int, default=2,
                    help="workloads that must clear it (default 2)")
    ap.add_argument("names", nargs="*", default=[],
                    help="subset of GATE entries (default: all)")
    opts = ap.parse_args()

    if opts.speedup:
        check_speedup(opts.speedup, opts.min_ratio, opts.min_count)
        return

    names = opts.names or sorted(GATE)
    unknown = [n for n in names if n not in GATE]
    if unknown:
        sys.exit(f"bench_gate: not under the gate: {', '.join(unknown)}")

    os.makedirs(opts.baseline_dir, exist_ok=True)
    all_drift = []
    for name in names:
        binary = os.path.join(opts.build_dir, "bench", name)
        if not os.path.exists(binary):
            sys.exit(f"bench_gate: missing binary {binary} (build first)")
        baseline_path = os.path.join(opts.baseline_dir,
                                     "BENCH_" + name[len("bench_"):] + ".json")
        raw = run_bench(binary, GATE[name])
        if opts.update:
            with open(baseline_path, "w", encoding="utf-8") as f:
                f.write(raw)
            print(f"bench_gate: wrote {baseline_path}")
            continue
        if not os.path.exists(baseline_path):
            all_drift.append(f"{name}: no baseline {baseline_path} "
                             f"(seed with --update)")
            continue
        fd, tmp = tempfile.mkstemp(suffix=".json")
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            f.write(raw)
        try:
            all_drift += compare(name, load_benchmarks(baseline_path),
                                 load_benchmarks(tmp))
        finally:
            os.unlink(tmp)

    if opts.update:
        return
    if all_drift:
        for line in all_drift:
            print("bench_gate: DRIFT " + line)
        sys.exit(1)
    print(f"bench_gate: {len(names)} bench(es) match their baselines")


if __name__ == "__main__":
    main()
