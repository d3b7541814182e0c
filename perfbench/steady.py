#!/usr/bin/env python3
"""Steadiness check: runs two sets of the same seeds on every workload, one set after
the other, and judges every end-to-end metric of ``BENCHMARK.json`` against its bound.

    python3 perfbench/steady.py                       # every workload, seeds 1..10
    python3 perfbench/steady.py --workloads plan-hotpath --seeds 1 3 4 5 6

For each set it prints the median, the quartiles and their distance as a share of the
median. A metric passes when that spread is within its bound in both sets (``steady``
within a third of it) and the second set's median is not worse than the first's by
more than the bound (``stats.regressed``): two sets of unchanged code must agree. Every
run must also report ``correct: true``.
"""

import argparse
import json
import os
import subprocess
import sys

import stats

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def run_once(workload, seed):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_set(label, workloads, seeds):
    """One run per workload and seed; returns ``{workload: [result, ...]}``."""
    results = {}
    for workload in workloads:
        results[workload] = []
        for seed in seeds:
            result = run_once(workload, seed)
            results[workload].append(result)
            print(f"set {label} {workload} seed {seed}: correct={result['correct']} " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
    return results


def judge(metric, first, second):
    """Returns ``(ok, line)`` for one metric's values in the two sets."""
    bound, better = metric["bound"], metric["better"]
    spreads = [stats.spread(first), stats.spread(second)]
    m1, m2 = stats.median(first), stats.median(second)
    regressed = stats.regressed(m1, m2, bound, better)
    if max(spreads) > bound or regressed:
        mark = "FAILS"
    elif max(spreads) <= bound / 3:
        mark = "steady"
    else:
        mark = "acceptable"
    line = (f"{metric['name']:18s} medians {m1:<11.6g} {m2:<11.6g} ratio {m2 / m1 if m1 else 0:6.3f} "
            f"spreads {spreads[0]:.4f} {spreads[1]:.4f} bound {bound:.3f} {mark}")
    return mark != "FAILS", line


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    args = parser.parse_args()

    sets = [run_set(label, args.workloads, args.seeds) for label in ("A", "B")]
    verdict = all(r["correct"] for s in sets for runs in s.values() for r in runs)
    for workload in args.workloads:
        for metric in spec["end_to_end"]:
            first, second = ([r["metrics"][metric["name"]]["value"] for r in s[workload]]
                             for s in sets)
            ok, line = judge(metric, first, second)
            verdict &= ok
            print(f"  {workload:22s} {line}", flush=True)
    print("all steady enough" if verdict else "NOT steady or not correct")
    sys.exit(0 if verdict else 1)


if __name__ == "__main__":
    main()
