#!/usr/bin/env python3
"""Same-box A/B of two checkouts on one workload: alternating parent/change pairs,
each side's median and quartiles per end-to-end metric, the change's win share, and the
verdict of the regression and gain rules (see README.md, "Same-box A/B").

    python3 perfbench/ab.py --base ../parent --workload serve-scale --seed 3

``--base`` is a checkout of the parent commit holding the same ``perfbench/`` and
``BENCHMARK.json`` as this checkout, which is the change. Each side builds into its own
target directory (``<side>/.bench_build``), so neither build is reused by the other.
Both sides run for ``run_seconds`` of ``BENCHMARK.json``.
"""

import argparse
import filecmp
import json
import os
import subprocess
import sys

import stats

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
# Alternating parent/change pairs per comparison: the least a gain may rest on.
PAIRS = 10


def same_benchmark(a, b):
    """Whether two checkouts hold identical benchmark code and settings."""
    if not filecmp.cmp(os.path.join(a, "BENCHMARK.json"), os.path.join(b, "BENCHMARK.json"),
                       shallow=False):
        return False
    cmp = filecmp.dircmp(os.path.join(a, "perfbench"), os.path.join(b, "perfbench"),
                         ignore=["target", "__pycache__"])
    pending = [cmp]
    while pending:
        c = pending.pop()
        _, mismatch, errors = filecmp.cmpfiles(c.left, c.right, c.common_files, shallow=False)
        if c.left_only or c.right_only or mismatch or errors:
            return False
        pending.extend(c.subdirs.values())
    return True


def run_side(side, workload, seed):
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(side, ".bench_build"))
    cmd = [sys.executable, os.path.join(side, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    done = subprocess.run(cmd, cwd=side, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{side}: {workload} failed:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{side}: {workload} reported incorrect outputs")
    return result["metrics"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, help="checkout of the parent commit")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    base, head = os.path.abspath(args.base), ROOT
    if not same_benchmark(base, head):
        raise SystemExit("the two checkouts differ in perfbench/ or BENCHMARK.json: copy the "
                         "change's benchmark into the parent checkout first")
    with open(os.path.join(head, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    pairs = []
    for i in range(PAIRS):
        # Alternate which side runs first, so drift in the machine favours neither.
        if i % 2 == 0:
            parent = run_side(base, args.workload, args.seed)
            change = run_side(head, args.workload, args.seed)
        else:
            change = run_side(head, args.workload, args.seed)
            parent = run_side(base, args.workload, args.seed)
        pairs.append((parent, change))
        print(f"pair {i + 1}/{PAIRS} done", file=sys.stderr, flush=True)

    print(f"{args.workload}, seed {args.seed}, {len(pairs)} pairs of "
          f"{spec['run_seconds']} s runs")
    for metric in spec["end_to_end"]:
        name, better, bound = metric["name"], metric["better"], metric["bound"]
        values = [(p[name]["value"], c[name]["value"]) for p, c in pairs]
        parent = [p for p, _ in values]
        change = [c for _, c in values]
        pm, cm = stats.median(parent), stats.median(change)
        (p1, p3), (c1, c3) = stats.quartiles(parent), stats.quartiles(change)
        if stats.gain_shown(values, better):
            verdict = "gain"
        elif stats.regressed(pm, cm, bound, better):
            verdict = "REGRESSION"
        elif stats.spread(parent) > bound:
            verdict = "unresolved (parent spread exceeds the bound)"
        else:
            verdict = "no worse than the bound"
        print(f"  {name:18s} parent {pm:<12.6g} [{p1:.6g}, {p3:.6g}]  change {cm:<12.6g} "
              f"[{c1:.6g}, {c3:.6g}]  ratio {cm / pm if pm else float('nan'):.4f}  "
              f"wins {stats.win_share(values, better):.0%}  {verdict}")


if __name__ == "__main__":
    main()
