#!/usr/bin/env python3
"""Runs one benchmark workload and prints its metrics.

    python3 perfbench/run.py --workload plan-hotpath --seed 2 --trace 0

Run from the repository root. ``--seconds`` defaults to ``run_seconds`` of
``BENCHMARK.json``. Builds the ``perfbench`` package from source (into
``$CARGO_TARGET_DIR``, default ``perfbench/target``), runs the workload once in its own
process, checks its outputs and prints, as the last stdout line, one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the
metrics are the ``end_to_end`` metrics of ``BENCHMARK.json``; with ``--trace 1`` the
``per_layer`` ones. The line before it holds the details: host facts, raw samples,
tail percentiles and every output check.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import subprocess
import sys

import stats

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
# One workload run, build excluded, must end well inside three minutes.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(BENCH_DIR, "target"))


def run_child(cmd, timeout, **kwargs):
    """Runs a child in its own process group and waits for it; on timeout kills the
    whole group (a build's compiler processes included) and waits again. Returns the
    exit code and the captured stdout, or ``None`` for the code on timeout."""
    with subprocess.Popen(cmd, cwd=ROOT, start_new_session=True, text=True, **kwargs) as child:
        try:
            out, _ = child.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            return None, None
    return child.returncode, out


def build():
    """Builds the benchmark binary in release mode and returns its path."""
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    try:
        code, _ = run_child(cmd, BUILD_TIMEOUT_S, env=env, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        fail(f"build failed: {e}", 2)
    if code != 0:
        fail("build failed" if code is not None else f"build exceeded {BUILD_TIMEOUT_S} s", 2)
    return os.path.join(target_dir(), "release", "perfbench")


def source_digest():
    """SHA-256 over the sources the benchmark builds and reads, so results from
    different code are never compared as if they were the same."""
    h = hashlib.sha256()
    roots = ["Cargo.toml", "Cargo.lock", "crates", "vendor", "scenarios", "data", "perfbench"]
    for top in roots:
        path = os.path.join(ROOT, top)
        files = []
        if os.path.isfile(path):
            files = [path]
        for base, dirs, names in os.walk(path):
            dirs[:] = sorted(d for d in dirs if d != "target" and not d.startswith("."))
            files += [os.path.join(base, n) for n in sorted(names)
                      if not n.endswith(".pyc")]
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def command_output(cmd):
    try:
        return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=30).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        return None


def host_facts(digest):
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor() or None,
        "rustc": command_output(["rustc", "--version"]),
        "commit": command_output(["git", "rev-parse", "HEAD"]),
        "source_sha256": digest,
        "python": platform.python_version(),
    }


def repeat_check(raw, digest):
    """Deterministic outputs must repeat exactly across every run of the same seed on the
    same sources: the first run records them under the build directory, later runs
    compare against that record."""
    record = {k: raw[k] for k in ("fingerprint", "queries_per_run", "operations_per_run")}
    record.update({k: raw[k].hex() if isinstance(raw[k], float) else raw[k]
                   for k in ("plan_cost_usd_hr", "serve_cost_usd", "qos_satisfaction")})
    directory = os.path.join(target_dir(), "perfbench-outputs", digest[:16])
    path = os.path.join(directory, f"{raw['workload']}-{raw['seed']}.json")
    try:
        with open(path) as fh:
            previous = json.load(fh)
    except (OSError, ValueError):
        previous = None
    if previous is None:
        os.makedirs(directory, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(record, fh)
        return {"name": "outputs identical across runs of this seed", "ok": True,
                "detail": "first run of this seed on these sources"}
    return {"name": "outputs identical across runs of this seed", "ok": previous == record,
            "detail": f"compared with {os.path.relpath(path, ROOT)}"}


def load_benchmark():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}", 2)
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not stats.valid_name(m["name"]) or not stats.valid_unit(m["unit"]):
            fail(f"invalid metric name or unit: {m}", 2)
    return spec


def end_to_end(raw):
    run_s = stats.median(raw["run_s"])
    return {
        "setup_s": stats.median(raw["setup_s"]),
        "run_s": run_s,
        "sim_qps": raw["queries_per_run"] / run_s,
        "peak_rss_mb": raw["peak_rss_mb"],
        "serve_cost_usd": raw["serve_cost_usd"],
        "qos_satisfaction": raw["qos_satisfaction"],
    }


def main():
    spec = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}", 2)
    binary = build()
    cmd = [binary, "--workload", args.workload, "--seconds", repr(args.seconds),
           "--trace", str(args.trace)]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed % 2**64)]
    code, out = run_child(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE, stderr=sys.stderr)
    if code is None:
        fail(f"{args.workload} exceeded {RUN_TIMEOUT_S} s", 3)
    if code != 0:
        fail(f"{args.workload} failed (exit {code})", 3)
    raw = json.loads(out)

    digest = source_digest()
    checks = raw["checks"] + [repeat_check(raw, digest)]
    kind = "per_layer" if args.trace else "end_to_end"
    values = raw["layers"] if args.trace else end_to_end(raw)
    unknown = sorted(set(values) - {m["name"] for m in spec[kind]})
    checks.append({"name": f"every measured metric is declared in {kind}",
                   "ok": not unknown, "detail": ", ".join(unknown)})
    # A per-layer metric the workload never reports is a layer it bypasses: zero.
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in spec[kind]}
    finite = all(math.isfinite(m["value"]) for m in metrics.values())
    checks.append({"name": "every metric is finite", "ok": finite, "detail": ""})

    run_tail = stats.tail_percentile(raw["run_s"])
    details = {
        "workload": args.workload,
        "seed": raw["seed"],
        "trace": bool(args.trace),
        "host": host_facts(digest),
        "threads": raw["threads"],
        "loop": "open loop in simulated time (seeded arrival schedule, no wall-clock generator)",
        "run_s_samples": len(raw["run_s"]),
        "run_s_median": stats.median(raw["run_s"]),
        "run_s_quartiles": stats.quartiles(raw["run_s"]),
        "run_s_tail": run_tail and {"percentile": run_tail[0], "value": run_tail[1]},
        "setup_s_samples": len(raw["setup_s"]),
        "raw": {k: raw[k] for k in ("setup_s", "run_s")},
        # Deterministic, but it moves with search luck from seed to seed far more than
        # any bound allows, so it is reported here rather than gated as a metric.
        "plan_cost_usd_hr": raw["plan_cost_usd_hr"],
        "checks": checks,
    }
    print(json.dumps(details))
    result = {
        "correct": all(c["ok"] for c in checks),
        "attempted": raw["operations_per_run"] * len(raw["run_s"]),
        "failed": 0,
        "metrics": metrics,
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
