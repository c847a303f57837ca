#!/usr/bin/env python3
"""End-to-end serving benchmark of `geocol serve` (see README.md).

    python3 e2ebench/run.py --workload viewport_hot --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds the product and the harness from
source into .bench_build/ (Release), then runs one measurement. The last
line of stdout is the JSON result; progress goes to stderr.
"""
import argparse
import fcntl
import hashlib
import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "cmake")
WORKLOADS = ("viewport_hot", "ladder", "near_transit")


def fail(msg):
    print("e2ebench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    """Configures once and rebuilds incrementally; one build at a time."""
    os.makedirs(BUILD_ROOT, exist_ok=True)
    with open(os.path.join(BUILD_ROOT, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            gen = ["-G", "Ninja"] if _which("ninja") else []
            rc = subprocess.call(
                ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
                + gen, stdout=sys.stderr)
            if rc != 0:
                fail("cmake configure failed")
        jobs = str(min(4, os.cpu_count() or 1))
        rc = subprocess.call(
            ["cmake", "--build", BUILD, "--target", "e2ebench", "geocol_tool",
             "-j", jobs], stdout=sys.stderr)
        if rc != 0:
            fail("build failed")


def _which(name):
    for d in os.environ.get("PATH", "").split(os.pathsep):
        if os.access(os.path.join(d, name), os.X_OK):
            return True
    return False


def commit_id():
    """The git commit when there is one, else a hash of the product sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "tools"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for f in sorted(filenames):
                p = os.path.join(dirpath, f)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return "src-sha256:" + h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("run from the repository root (no product sources in %s)" % ROOT)
    if args.seconds < 1:
        fail("--seconds must be >= 1")
    build()
    cmd = [os.path.join(BUILD, "e2ebench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--geocol", os.path.join(BUILD, "product_tools", "geocol"),
           "--work", os.path.join(BUILD_ROOT, "work"),
           "--commit", commit_id()]
    sys.stdout.flush()
    os.execv(cmd[0], cmd)


if __name__ == "__main__":
    main()
