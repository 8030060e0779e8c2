#!/usr/bin/env python3
"""Build and run the host-cost benchmark.

    python3 hostbench/run.py --workload trap_mix --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds the
simulator library and the driver (Release, the package's default) under
$CARGO_TARGET_DIR/hostbench, or .bench_build/hostbench when that is
unset; later runs only re-check the build. Build output goes to
stderr, so the last stdout line is the driver's result object. Reports
and span files land in <build dir>/out.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("trap_mix", "app_launch", "gl_frames", "fleet")


def fail(msg):
    print("hostbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "hostbench")


def git(*args):
    """Stdout of a git command in ROOT, or None outside a git checkout."""
    try:
        out = subprocess.run(["git", "-C", ROOT, *args],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest():
    """A digest of the sources the driver is built from."""
    digest = hashlib.sha1()
    for top in ("src", "hostbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-sha1:" + digest.hexdigest()


def source_rev():
    """The git commit, plus a source digest when src/ or hostbench/
    differ from it; the digest alone outside a git checkout."""
    top = git("rev-parse", "--show-toplevel")
    head = git("rev-parse", "HEAD")
    if not top or not head or os.path.realpath(top) != os.path.realpath(ROOT):
        return source_digest()
    if git("status", "--porcelain", "--", "src", "hostbench"):
        return head + "+" + source_digest()
    return head


def build(bdir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no simulator sources at %s/src" % ROOT)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", bdir, *gen])
    steps.append(["cmake", "--build", bdir, "--target", "hostbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build step failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 120:
        fail("seed must be >= 0 and seconds in 1..120")

    bdir = build_dir()
    build(bdir)
    out = os.path.join(bdir, "out")
    os.makedirs(out, exist_ok=True)
    cmd = [os.path.join(bdir, "hostbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out", out, "--git-rev", source_rev()]
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
