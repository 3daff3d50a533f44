#!/usr/bin/env python3
"""Builds the benchmark from the source tree and runs one workload.

Run from the root of a source checkout:

    python3 aggbench/run.py --workload few_groups --seed 1 --seconds 20 \
        --trace 0

The first run configures and builds `aggbench` (Release) under
$CARGO_TARGET_DIR (default `.bench_build`); later runs only check that the
build is up to date. The last line of stdout is the run's JSON result;
traces and a host-stamped copy of the result go to `<build dir>/results`.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("few_groups", "many_groups", "serve_mix", "crash_recover")
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"aggbench/run.py: {msg}", file=sys.stderr, flush=True)


def build(bench_dir, build_dir):
    """Configures (once) and builds the aggbench binary; returns its path.

    The compiler's temporary files go under the build directory too.
    """
    cmake_dir = os.path.join(build_dir, "aggbench")
    tmp_dir = os.path.join(build_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", bench_dir, "-B", cmake_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, env=env)
    subprocess.run(["cmake", "--build", cmake_dir, "--target", "aggbench",
                    "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr, env=env)
    return os.path.join(cmake_dir, "aggbench")


def git_sha(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown"
    out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    if not os.path.exists(os.path.join(root, "src", "CMakeLists.txt")):
        log(f"no adaptagg sources under {root}/src; run from the root of "
            "a source checkout")
        return 2
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    try:
        binary = build(bench_dir, build_dir)
    except (subprocess.CalledProcessError, OSError) as err:
        log(f"build failed: {err}")
        return 2

    out_dir = os.path.join(build_dir, "results")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir, "--git-sha", git_sha(root)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 3
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"aggbench exited with {proc.returncode}")
        return proc.returncode or 4
    try:
        result = json.loads(lines[-1])
    except ValueError:
        log("last line of output is not JSON")
        return 4
    problem = check_metrics(root, result, args.trace)
    if problem:
        log(problem)
        return 4
    sys.stdout.write(stdout)
    return 0


def check_metrics(root, result, trace):
    """Returns why `result` does not print exactly the metrics (and units)
    BENCHMARK.json names for this kind of run, or None."""
    manifest = os.path.join(root, "BENCHMARK.json")
    if not os.path.exists(manifest):
        return None
    with open(manifest) as f:
        bench = json.load(f)
    want = {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return f"result keys {sorted(result)}"
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        wrong = sorted(n for n in want if got.get(n) != want[n])
        extra = sorted(set(got) - set(want))
        return f"metrics missing or in another unit: {wrong}; extra: {extra}"
    return None


if __name__ == "__main__":
    sys.exit(main())
