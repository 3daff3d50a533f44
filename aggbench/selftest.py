#!/usr/bin/env python3
"""Self-test of the benchmark: a small-scale smoke of every workload.

    python3 aggbench/selftest.py [--binary PATH]

Runs each workload with --smoke, untraced and traced, and asserts that
  * every run exits 0 and ends with the JSON result line, correct and
    with no failed op;
  * every run prints exactly the metrics BENCHMARK.json names for its
    kind (end-to-end untraced, per-layer traced), each finite and in the
    declared unit; end-to-end ones are positive, and a per-layer metric
    only some workloads measure reads 0 on the others;
  * the workloads separate the layers as designed (spill only on
    many_groups, a 0.50 cache hit ratio on serve_mix, recovery attempts
    and checkpoints only on crash_recover);
  * a deliberately corrupted result row, and a deliberately shifted
    modeled time, are each counted as a failed op.
The binary defaults to the one aggbench/run.py builds.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

WORKLOADS = ("few_groups", "many_groups", "serve_mix", "crash_recover")
# Per-layer metrics only some workloads measure (traced runs). The others
# print them as 0; every other per-layer metric is measured by all four.
LAYER_ONLY_ON = {
    "query_ms_p90": ("few_groups", "many_groups"),
    "serve_ms_p50_lo": ("serve_mix",),
    "serve_ms_p50_hi": ("serve_mix",),
    "serve_ms_p95_lo": ("serve_mix",),
    "serve_ms_p95_hi": ("serve_mix",),
    "serve_max_qps": ("serve_mix",),
    "serve.submit_us_p50": ("serve_mix",),
    "serve.queue_ms_p50": ("serve_mix",),
    "serve.queue_ms_p99": ("serve_mix",),
    "serve.exec_ms_p50": ("serve_mix",),
    "serve.cache_hit_ratio": ("serve_mix",),
    "serve.inflight_high_water": ("serve_mix",),
    "serve.queue_depth_high_water": ("serve_mix",),
    "bench.gen_lag_ms_p99": ("serve_mix",),
    "recovery.armed_query_ms_p50": ("crash_recover",),
    "recovery.overhead_ms_p50": ("crash_recover",),
}


def fail(msg):
    print(f"selftest: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def run(binary, out_dir, workload, trace, extra=()):
    cmd = [binary, "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--smoke", "--out-dir", out_dir, *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        fail(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"{workload}: unexpected keys {sorted(result)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail(f"{workload}: attempted = {result['attempted']}")
    return result, proc.stderr


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    build_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    parser.add_argument("--binary",
                        default=os.path.join(build_dir, "aggbench", "aggbench"))
    args = parser.parse_args()
    binary = os.path.abspath(args.binary)
    if not os.path.exists(binary):
        fail(f"no binary at {binary}; run aggbench/run.py once to build it")
    out_dir = os.path.join(os.path.dirname(binary), "selftest_out")
    os.makedirs(out_dir, exist_ok=True)

    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    units = {m["name"]: m["unit"]
             for m in bench["end_to_end"] + bench["per_layer"]}
    layers = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            result, stderr = run(binary, out_dir, workload, trace)
            if not result["correct"] or result["failed"]:
                fail(f"{workload} trace={trace}: incorrect run\n{stderr}")
            metrics = result["metrics"]
            want = {m["name"]
                    for m in bench["per_layer" if trace else "end_to_end"]}
            if set(metrics) != want:
                fail(f"{workload} trace={trace}: missing "
                     f"{sorted(want - set(metrics))}, unexpected "
                     f"{sorted(set(metrics) - want)}")
            for name, m in metrics.items():
                if not isinstance(m["value"], (int, float)) or \
                        not math.isfinite(m["value"]):
                    fail(f"{workload}: {name} = {m['value']}")
                if m["unit"] != units[name]:
                    fail(f"{workload}: {name} unit {m['unit']} != "
                         f"{units[name]}")
                if trace == 0 and m["value"] <= 0:
                    fail(f"{workload}: end-to-end {name} = {m['value']}")
                if trace == 1 and workload not in \
                        LAYER_ONLY_ON.get(name, (workload,)) and m["value"]:
                    fail(f"{workload}: {name} = {m['value']}, but the "
                         "workload has no such op")
            if trace == 1:
                layers[workload] = {k: v["value"] for k, v in metrics.items()}

    # The workloads separate the layers as designed.
    checks = [
        (layers["few_groups"]["storage.spill_pages_written"] == 0,
         "few_groups spills"),
        (layers["many_groups"]["storage.spill_pages_written"] > 0,
         "many_groups does not spill"),
        (layers["serve_mix"]["serve.cache_hit_ratio"] == 0.5,
         "serve_mix hit ratio is not 0.50"),
        (layers["crash_recover"]["recovery.checkpoints_written"] > 0,
         "crash_recover writes no checkpoints"),
        (all((layers[w]["recovery.attempts"] > 0) == (w == "crash_recover")
             for w in layers), "recovery attempts outside crash_recover"),
    ]
    for ok, what in checks:
        if not ok:
            fail(what)

    # A corrupted result row and a shifted modeled time are failed ops, on
    # both checking paths (many_groups's modeled time is not checked: it
    # is not deterministic once the merge side spills).
    for workload in ("few_groups", "serve_mix", "crash_recover"):
        for hook in ("--corrupt-row", "--corrupt-sim"):
            result, _ = run(binary, out_dir, workload, 0, [hook])
            if result["correct"] or result["failed"] != 1:
                fail(f"{workload}: {hook} gave failed = {result['failed']}, "
                     "want 1")

    print("selftest: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
