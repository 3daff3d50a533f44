#!/usr/bin/env python3
"""Paired A/B of two source trees on aggbench workloads.

Builds each tree's benchmark in its own build directory (passed to
`aggbench/run.py` as $CARGO_TARGET_DIR), then runs `aggbench/run.py` in
ABBA order -- pair i runs A first when i is even and B first when i is
odd -- so a host that drifts over minutes biases neither side. Without
--workload, every pair runs each workload BENCHMARK.json declares, one
after the other, both sides of a workload back to back. For every
workload and every metric the run prints (the end-to-end set, or the
per-layer set with --trace 1) it reports each side's median and
quartiles, the change of the medians, and how many pairs B won in the
metric's better direction.

    git archive HEAD~1 | tar -x -C /tmp/parent
    python3 tools/bench_ab.py --a /tmp/parent --b . \\
        --workload few_groups --seed 1 --pairs 10 --seconds 20

Run it on a quiet host: nothing else should compete for the cores. The
"gain" column applies the repository's claim rule: B wins at least nine
pairs in ten, the medians differ by more than A's interquartile range,
and B fails no larger share of operations, and has no more wrong-answer
or failed runs, than A. A run that exits non-zero is recorded as failed
and the pairs go on; a pair with a failed side counts as a loss for B.
--json writes every run's result for the record, keyed by workload.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def log(msg):
    print(f"bench_ab: {msg}", file=sys.stderr, flush=True)


def run_once(tree, build_dir, workload, args, seconds):
    """Runs aggbench/run.py on `workload` in `tree`; returns its parsed
    JSON result, or None when the run exits non-zero or prints no
    result."""
    env = dict(os.environ, CARGO_TARGET_DIR=build_dir)
    cmd = [sys.executable, os.path.join("aggbench", "run.py"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 and lines:
        try:
            return json.loads(lines[-1])
        except ValueError:
            pass
    sys.stderr.write(proc.stderr[-4000:])
    log(f"{' '.join(cmd)} in {tree} exited {proc.returncode}")
    return None


def load_manifest(tree):
    with open(os.path.join(tree, "BENCHMARK.json")) as f:
        return json.load(f)


def metric_directions(bench, trace):
    """Maps each metric the manifest names for this kind of run to True
    when higher is better."""
    return {m["name"]: m["better"] == "higher"
            for m in bench["per_layer" if trace else "end_to_end"]}


def quartiles(values):
    """(q1, median, q3) of `values`, inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def fmt(v):
    if v == 0:
        return "0"
    a = abs(v)
    if a >= 1e6:
        return f"{v:.4g}"
    if a >= 100:
        return f"{v:.1f}"
    if a >= 1:
        return f"{v:.3f}"
    return f"{v:.4g}"


def failures(results):
    """Failure tallies of one side's runs (None marks a failed run)."""
    done = [r for r in results if r is not None]
    attempted = sum(r.get("attempted", 0) for r in done)
    failed = sum(r.get("failed", 0) for r in done)
    return {"attempted": attempted, "failed": failed,
            "failed_share": failed / attempted if attempted else 0.0,
            "wrong_runs": sum(1 for r in done if not r.get("correct")),
            "failed_runs": len(results) - len(done)}


def no_worse(a, b):
    """True when side B's failure tallies are no worse than side A's."""
    return (b["failed_share"] <= a["failed_share"] and
            b["wrong_runs"] <= a["wrong_runs"] and
            b["failed_runs"] <= a["failed_runs"])


def report(runs, directions, pairs, b_no_worse):
    """Prints one row per metric; returns the rows as dicts. A metric's
    values come from the pairs in which both sides produced it."""
    rows = []
    header = (f"{'metric':<34} {'A median [q1, q3]':>34} "
              f"{'B median [q1, q3]':>34} {'change':>8} {'B wins':>7} "
              f"{'gain':>5}")
    print(header)
    print("-" * len(header))
    for name, higher in directions.items():
        a, b = [], []
        for ra, rb in zip(runs["A"], runs["B"]):
            if (ra is not None and rb is not None and
                    name in ra["metrics"] and name in rb["metrics"]):
                a.append(ra["metrics"][name]["value"])
                b.append(rb["metrics"][name]["value"])
        if not a:
            continue
        aq1, amed, aq3 = quartiles(a)
        bq1, bmed, bq3 = quartiles(b)
        wins = sum(1 for x, y in zip(a, b) if (y > x if higher else y < x))
        change = (bmed - amed) / amed * 100 if amed else 0.0
        better = bmed > amed if higher else bmed < amed
        gain = (better and b_no_worse and wins * 10 >= pairs * 9 and
                abs(bmed - amed) > (aq3 - aq1))
        a_txt = f"{fmt(amed)} [{fmt(aq1)}, {fmt(aq3)}]"
        b_txt = f"{fmt(bmed)} [{fmt(bq1)}, {fmt(bq3)}]"
        print(f"{name:<34} {a_txt:>34} {b_txt:>34} {change:>+7.1f}% "
              f"{wins:>3}/{pairs:<3} {'yes' if gain else 'no':>5}")
        rows.append({"metric": name, "a": a, "b": b, "a_median": amed,
                     "a_q1": aq1, "a_q3": aq3, "b_median": bmed,
                     "b_q1": bq1, "b_q3": bq3, "b_wins": wins,
                     "pairs": pairs, "gain": gain})
    return rows


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--a", required=True,
                        help="baseline source tree (e.g. the parent)")
    parser.add_argument("--b", required=True, help="changed source tree")
    parser.add_argument("--workload",
                        help="one workload (default: every workload "
                             "BENCHMARK.json declares)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--build-root", default=".bench_ab",
                        help="holds one build directory per side "
                             "(default .bench_ab)")
    parser.add_argument("--json", help="write every run's result here")
    args = parser.parse_args()

    trees = {"A": os.path.abspath(args.a), "B": os.path.abspath(args.b)}
    build_root = os.path.abspath(args.build_root)
    builds = {side: os.path.join(build_root, side.lower()) for side in trees}
    for side, tree in trees.items():
        if not os.path.exists(os.path.join(tree, "aggbench", "run.py")):
            log(f"{tree} has no aggbench/run.py")
            return 2
        bench_dir = os.path.join(tree, "aggbench")
        if os.path.commonpath([builds[side], bench_dir]) == bench_dir:
            log("the build root must lie outside aggbench/")
            return 2

    bench = load_manifest(trees["B"])
    workloads = ([args.workload] if args.workload else
                 [w["name"] for w in bench["workloads"]])

    # Build each side (run.py builds on first use) with a short warm-up
    # run whose result is discarded.
    for side in ("A", "B"):
        log(f"building {side} ({trees[side]}) in {builds[side]}")
        if run_once(trees[side], builds[side], workloads[0], args,
                    seconds=1) is None:
            log(f"side {side} does not build or run; no pairs run")
            return 2

    directions = metric_directions(bench, args.trace)
    runs = {w: {"A": [], "B": []} for w in workloads}
    start = time.time()
    for i in range(args.pairs):
        order = ("A", "B") if i % 2 == 0 else ("B", "A")
        for w in workloads:
            for side in order:
                result = run_once(trees[side], builds[side], w, args,
                                  args.seconds)
                if result is None:
                    log(f"pair {i} {w} side {side}: run failed")
                elif not result.get("correct", False):
                    log(f"pair {i} {w} side {side}: run reported wrong "
                        "answers")
                runs[w][side].append(result)
        log(f"pair {i + 1}/{args.pairs} done "
            f"({time.time() - start:.0f} s)")

    out = {}
    for w in workloads:
        print(f"workload={w} seed={args.seed} pairs={args.pairs} "
              f"seconds={args.seconds:g} trace={args.trace} order=ABBA")
        fails = {side: failures(runs[w][side]) for side in ("A", "B")}
        rows = report(runs[w], directions, args.pairs,
                      no_worse(fails["A"], fails["B"]))
        a, b = fails["A"], fails["B"]
        print(f"{w} failures: failed ops A {a['failed']}/{a['attempted']} "
              f"({a['failed_share']:.3%}) B {b['failed']}/{b['attempted']} "
              f"({b['failed_share']:.3%}); runs with wrong answers "
              f"A {a['wrong_runs']} B {b['wrong_runs']}; failed runs "
              f"A {a['failed_runs']} B {b['failed_runs']}\n")
        out[w] = {"runs": runs[w], "failures": fails, "rows": rows}
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"seed": args.seed, "pairs": args.pairs,
                       "seconds": args.seconds, "trace": args.trace,
                       "trees": trees, "workloads": out}, f, indent=1)
    bad = any(f["wrong_runs"] or f["failed_runs"]
              for o in out.values() for f in o["failures"].values())
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
