#!/usr/bin/env python3
"""Benchmark of the pachner package: four closed-loop workloads, one client.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload relation --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, both modes

Each workload runs in its own fresh interpreter (worker.py), so peak
memory is the workload's own; five more fresh interpreters only set up,
and setup_s is the median of their set-up times.  Timings are rescaled
to a nominal host by reference slices timed between ops (see
scaled_latencies); the wall-clock figures are printed beside them.  The
last line of output is one JSON object: correct, attempted, failed and metrics (the
end-to-end metrics untraced, the per-layer metrics traced).  Every op's
outcome is checked; a wrong or raising op counts as failed.  See
perfbench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("relation", "relation-float", "moves", "statesum")
SETUP_PROBES = 5
DEADLINE_S = 170.0
REFERENCE_NOMINAL_S = 0.002  # a reference slice on the nominal host
REFERENCE_WINDOW = 1  # slices on each side of the one just before an op

END_TO_END = {
    "ops_per_s_ref": "1/s",
    "op_p50_ms_ref": "ms",
    "op_p90_ms_ref": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# printed beside the metrics above, not gated: they move with the host's speed
WALL_CLOCK = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms", "setup_wall_s": "s"}


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env.update(
        PACHNER_WORKERS="1",  # the dense oracle's pool must not add threads
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
    )
    env.pop("PACHNER_MUTATE", None)
    return env


def run_worker(args, deadline):
    """Start worker.py, wait for it, return (start reading, its JSON)."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    remaining = deadline - time.perf_counter()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {' '.join(args)} ran past the deadline") from exc
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}: {tail[0]}")
    return start, json.loads(proc.stdout.strip().splitlines()[-1])


def scaled_latencies(latencies, references, reference_at):
    """Each op latency rescaled to the nominal host: divided by the mean of
    the reference slices nearest the op, times REFERENCE_NOMINAL_S."""
    scaled = []
    for i, lat in enumerate(latencies):
        j = bisect.bisect_right(reference_at, i) - 1  # the slice just before op i
        near = references[max(0, j - REFERENCE_WINDOW) : j + REFERENCE_WINDOW + 1]
        scaled.append(lat * REFERENCE_NOMINAL_S / statistics.fmean(near))
    return scaled


def harrell_davis(values, p):
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of all
    order statistics, so it does not jump across a gap between clusters."""
    x = numpy.sort(values)
    n = len(x)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    steps = 64
    t = numpy.linspace(0.0, 1.0, steps * n + 1)[1:-1]
    log_pdf = (a - 1) * numpy.log(t) + (b - 1) * numpy.log1p(-t)
    pdf = numpy.concatenate(([0.0], numpy.exp(log_pdf - log_pdf.max()), [0.0]))
    cdf = numpy.concatenate(([0.0], numpy.cumsum((pdf[1:] + pdf[:-1]) / 2)))
    weights = numpy.diff(cdf[::steps] / cdf[-1])
    return float(weights @ x)


def git_sha():
    """The checkout's HEAD commit, or 'unknown' outside a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment():
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "git_sha": git_sha(),
    }


def measure(workload, seed, seconds, trace, deadline):
    """Run one workload once; return the result record."""
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    _, res = run_worker(common + ["--trace", str(trace)], deadline)
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "env": environment(),
        "attempted": res["attempted"],
        "failed": res["failed"],
        "failures": res["failures"],
    }
    lat = res["latencies"]
    record["samples"] = len(lat)
    if trace:
        record["metrics"] = {name: {"value": v, "unit": u} for name, (v, u) in res["layers"].items()}
        record["spans"] = res["spans"]
        return record
    setups, scaled_setups = [], []
    for _ in range(SETUP_PROBES):
        probe_start, probe = run_worker(common + ["--setup-only"], deadline)
        setups.append(probe["ready"] - probe_start)
        scaled_setups.append(setups[-1] * REFERENCE_NOMINAL_S / statistics.fmean(probe["references"]))
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[8]
    scaled = scaled_latencies(lat, res["references"], res["reference_at"])
    wall = {
        "ops_per_s": res["attempted"] / res["wall_s"],
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_p90_ms": p90 * 1e3,
        "setup_wall_s": statistics.median(setups),
    }
    values = {
        "ops_per_s_ref": len(scaled) / sum(scaled),
        "op_p50_ms_ref": statistics.median(scaled) * 1e3,
        "op_p90_ms_ref": harrell_davis(scaled, 0.9) * 1e3,
        "peak_rss_mb": res["peak_rss_mb"],
        "setup_s": statistics.median(scaled_setups),
    }
    record["wall"] = wall
    record["references_s"] = res["references"]
    record["reference_at"] = res["reference_at"]
    record["metrics"] = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    record["fail_ratio"] = res["failed"] / res["attempted"]
    record["beyond_p90"] = sum(1 for v in lat if v > p90)
    record["rounds"] = res["rounds"]
    record["latencies_s"] = lat
    record["setup_samples_s"] = setups
    record["setup_scaled_s"] = scaled_setups
    return record


def report(record, out):
    """Human-readable lines: every metric with its unit and sample count."""
    name = f"{record['workload']} seed={record['seed']} trace={record['trace']}"
    print(f"# {name} env {json.dumps(record['env'], sort_keys=True)}", file=out)
    lines = [(metric, m["value"], m["unit"]) for metric, m in record["metrics"].items()]
    if not record["trace"]:
        lines += [(metric, value, WALL_CLOCK[metric]) for metric, value in record["wall"].items()]
        lines.append(("fail_ratio", record["fail_ratio"], "ratio"))
    for metric, value, unit in lines:
        n = {"setup_s": SETUP_PROBES, "setup_wall_s": SETUP_PROBES, "peak_rss_mb": None}.get(metric, record["samples"])
        suffix = f" (n={n})" if n and not record["trace"] else ""
        print(f"{record['workload']:<15} {metric:<34} {value:>14.6g} {unit}{suffix}", file=out)
    for line in record["failures"]:
        print(f"{record['workload']:<15} FAILED {line}", file=out)


def save(record):
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "pachner" / "__init__.py").is_file():
        print(f"error: no pachner sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        names, modes = WORKLOADS, (0, 1)
    else:
        names, modes = (args.workload,), (args.trace,)
    records = []
    try:
        for name in names:
            for trace in modes:
                # each workload and mode gets its own 170 s limit
                record = measure(name, args.seed, args.seconds, trace, time.perf_counter() + DEADLINE_S)
                save(record)
                report(record, sys.stdout)
                records.append(record)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {
            f"{r['workload']}.{metric}": m for r in records for metric, m in r["metrics"].items()
        }
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
