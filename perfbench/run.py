#!/usr/bin/env python3
"""Builds the wall-clock benchmark from source and runs one workload.

    python3 perfbench/run.py --workload paper_sim --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test       # harness arithmetic, a few seconds
    python3 perfbench/run.py --check-catalog   # BENCHMARK.json vs the binary's metrics

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build) under the root; results and traces go to .bench_out/. The last
line of stdout is the benchmark's JSON result; build output goes to stderr.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench-release")


def build():
    """Configures once, then builds incrementally. Returns the binary path."""
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(max(1, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "--target", "perfbench", "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(out, "perfbench")


def git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        r = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, env=env,
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 and r.stdout.strip() else "unknown"


def source_digest():
    """sha256 over the program's and the benchmark's sources, so a result
    names the code it measured even outside a git checkout."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def check_catalog(binary):
    """BENCHMARK.json must declare exactly the metrics the binary reports."""
    listed = subprocess.run([binary, "--list-metrics"], capture_output=True, text=True,
                            check=True).stdout.split("\n")
    have = {}
    for line in listed:
        if line.strip():
            kind, name, unit, better = line.split()
            have[(kind, name)] = (unit, better)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {}
    for kind in ("end_to_end", "per_layer"):
        for m in spec[kind]:
            declared[(kind, m["name"])] = (m["unit"], m["better"])
    if declared != have:
        for key in sorted(set(declared) | set(have)):
            if declared.get(key) != have.get(key):
                log(f"catalog differs at {key}: BENCHMARK.json {declared.get(key)} "
                    f"vs binary {have.get(key)}")
        return 1
    log(f"catalog ok: {len(declared)} metrics")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--check-catalog", action="store_true")
    args = ap.parse_args()
    if not (args.workload or args.self_test or args.check_catalog):
        ap.error("one of --workload, --self-test or --check-catalog is required")

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no SaCLO source tree under {ROOT}/src; nothing to build or measure")
        return 2
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 2

    if args.check_catalog:
        return check_catalog(binary)
    if args.self_test:
        return subprocess.run([binary, "--self-test"], cwd=ROOT).returncode
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--git-sha", git_sha(), "--source-digest", source_digest()]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
