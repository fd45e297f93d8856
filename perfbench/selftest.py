#!/usr/bin/env python3
"""Prove that the benchmark's output checks catch bad output.

    python3 perfbench/selftest.py

Three short runs through perfbench/run.py:

  1. offline, clean: must exit 0 with "correct": true, so the checks do
     not fire on good output.
  2. net_bulk with the stabilize.corrupt.match failpoint armed: the
     Service's audit turns every damaged matching into a kDataLoss
     response, so the run must report kDataLoss answers, a nonzero error
     ratio, "correct": false, and exit nonzero.
  3. offline with every matcher's oracle edge count off by one: the run
     must fail the same way.

Exits 0 when all three behave, 1 otherwise.
"""
import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
SECONDS = "2"


def run(workload, *extra):
    command = [sys.executable, RUN, "--workload", workload, "--seed", "7",
               "--seconds", SECONDS] + list(extra)
    done = subprocess.run(command, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return done.returncode, result, lines


def check(name, ok, detail):
    print("%s %s: %s" % ("PASS" if ok else "FAIL", name, detail))
    return ok


def main():
    passed = True

    code, result, _ = run("offline")
    passed &= check("clean run", code == 0 and result is not None and
                    result["correct"] and result["failed"] == 0,
                    "exit %d, result %s" % (code, result and {
                        k: result[k] for k in ("correct", "failed")}))

    code, result, lines = run(
        "net_bulk", "--failpoints", "stabilize.corrupt.match=status(data_loss)")
    data_loss = [l for l in lines if l.startswith("kDataLoss answers:")]
    passed &= check("corrupted matchings", code != 0 and result is not None and
                    not result["correct"] and result["failed"] > 0 and
                    bool(data_loss),
                    "exit %d, failed %s of %s, %s" % (
                        code, result and result["failed"],
                        result and result["attempted"],
                        data_loss[0] if data_loss else "no kDataLoss line"))

    code, result, _ = run("offline", "--oracle-skew", "1")
    passed &= check("wrong oracle", code != 0 and result is not None and
                    not result["correct"] and result["failed"] > 0,
                    "exit %d, failed %s of %s" % (
                        code, result and result["failed"],
                        result and result["attempted"]))
    sys.exit(0 if passed else 1)


if __name__ == "__main__":
    main()
