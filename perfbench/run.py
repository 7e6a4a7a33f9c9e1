#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload cold_solve --seed 1 --seconds 30 --trace 0

Run from the root of a source tree.  Builds the pslocal library and the
perfbench driver from source into .bench_build/ (CMake, Release), runs
the helper self-tests, then one benchmark run.  The driver prints every
metric by name and unit; the last line of standard output is the JSON
result.  The set of metrics printed is checked against BENCHMARK.json
(end_to_end for --trace 0, per_layer for --trace 1).  mixed_open, the
open-loop qos workload, runs the same way but is not listed in
BENCHMARK.json: its tail latency is not steady on a shared host.

Exits non-zero without a result when the sources are missing or the
build or self-tests fail; exits 1 after printing a result with
"correct": false when a run fails its output checks.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no program sources (src/CMakeLists.txt) next to perfbench/")
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def source_id():
    """Content digest of the program and benchmark sources."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sha256:" + digest.hexdigest()[:16]


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["cold_solve", "hot_hits", "mixed_open"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()

    build()
    selftest = subprocess.run([os.path.join(BUILD, "perfbench_selftest")],
                              stdout=sys.stderr, stderr=sys.stderr)
    if selftest.returncode != 0:
        fail("helper self-tests failed")

    trace_dir = os.path.join(BUILD, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--trace-dir", trace_dir,
           "--source-id", source_id()]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = run.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]), flush=True)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(f"run failed (exit {run.returncode}) without a result")
    if run.returncode != 0:
        # A failed output check: show the result, keep the failure.
        print(lines[-1], flush=True)
        sys.exit(1)
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    if printed != expected_metrics(args.trace):
        fail("metrics printed differ from BENCHMARK.json")
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
