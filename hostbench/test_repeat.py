#!/usr/bin/env python3
"""The benchmark's own test: outputs and counts repeat for a seed.

    python3 hostbench/test_repeat.py

Runs each single-thread workload twice, traced, with the same seed
(through run.py, which builds the driver on first use) and fails unless
both runs are correct, no op failed, and every count metric, the
virtual ns per op and the final scanout checksum are identical. Host
times are not compared. Exits 0 on success, 1 on any mismatch.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SINGLE_THREAD = ("trap_mix", "app_launch", "gl_frames")
SEED = 7
SECONDS = 2
CHECKS = ("steady_virtual_ns_per_op", "warmup_virtual_digest",
          "scanout_checksum")


def run(workload):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", "1"],
        capture_output=True, text=True, cwd=os.path.dirname(HERE))
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or len(lines) < 2:
        sys.exit("%s: run failed (exit %d)\n%s" % (workload, out.returncode,
                                                  out.stderr[-2000:]))
    return json.loads(lines[-2])["hostbench"], json.loads(lines[-1])


def counts(result):
    """Metrics that count work (not host time): they must repeat."""
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] in ("count", "ratio") or m["unit"].endswith("-virtual")}


def main():
    problems = []
    for workload in SINGLE_THREAD:
        (rep1, res1), (rep2, res2) = (run(workload) for _ in range(2))
        for res in (res1, res2):
            if not res["correct"] or res["failed"] != 0:
                problems.append("%s: correct=%s failed=%d" %
                                (workload, res["correct"], res["failed"]))
        c1, c2 = counts(res1), counts(res2)
        for name in sorted(c1):
            if c1[name] != c2.get(name):
                problems.append("%s: %s %r != %r" %
                                (workload, name, c1[name], c2.get(name)))
        for key in CHECKS:
            if rep1["checks"][key] != rep2["checks"][key]:
                problems.append("%s: %s differs" % (workload, key))
        print("%s: %d count metrics compared, %d ops / %d ops" %
              (workload, len(c1), res1["attempted"], res2["attempted"]))
    for p in problems:
        print("FAIL " + p)
    print("PASS" if not problems else "FAILED")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
