"""One workload in one fresh interpreter: set up, run ops, report as JSON.

Started by run.py, never imported.  With --setup-only it prints the
perf_counter reading at which the first op could start, and the times of
SETUP_REFERENCE_SLICES reference slices run right after, and exits;
run.py subtracts its own reading taken just before starting this process
(perf_counter is CLOCK_MONOTONIC, shared by all processes on Linux).

Untraced (--trace 0), it runs whole rounds until --seconds have passed
and at least ten latencies lie beyond the 90th percentile.  Between ops,
after every REFERENCE_EVERY_S of op time, it times one reference slice, a
fixed pure-Python kernel outside pachner: run.py scales the timings by
the host speed these slices show.  Traced
(--trace 1), it runs the first round twice, untraced and then traced,
whatever --seconds says, so call counts depend only on the seed.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import pachner  # noqa: E402,F401  (imported first so setup time includes it)

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

DATA = HERE / "data"
OUT = HERE / "out"
FAILURES_KEPT = 10
REFERENCE_STEPS = 4000  # about 2 ms on a 2-core x86_64 VM
REFERENCE_EVERY_S = 0.05
SETUP_REFERENCE_SLICES = 8


def reference_slice():
    """Time a fixed mix of int arithmetic, tuple keys and dict updates,
    the kind of work the exact ring and the tensor joins do."""
    t0 = time.perf_counter()
    table = {}
    acc = 1
    for i in range(REFERENCE_STEPS):
        key = (i & 63, i % 7)
        acc = (table.get(key, 1) * (i | 1) + acc) % 1000003
        table[key] = acc
    return time.perf_counter() - t0


class Tally:
    """Runs ops, keeps their latencies and failures; with ``reference``
    set, also times a reference slice after every REFERENCE_EVERY_S of
    op time."""

    def __init__(self, reference=False):
        self.latencies = []
        self.attempted = 0
        self.failures = []
        self.reference = reference
        self.references = []
        self.reference_at = []  # ops done before each reference slice
        self.since_reference = REFERENCE_EVERY_S

    def run(self, ops, tracer=None):
        for op in ops:
            if tracer is not None:
                tracer.op = self.attempted
            if self.reference and self.since_reference >= REFERENCE_EVERY_S:
                self.references.append(reference_slice())
                self.reference_at.append(self.attempted)
                self.since_reference = 0.0
            t0 = time.perf_counter()
            try:
                outcome = op.run()
                problem = None
            except Exception as exc:  # an op that raises counts as failed
                problem = f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            if problem is None:
                problem = op.check(outcome)
            self.latencies.append(t1 - t0)
            self.since_reference += t1 - t0
            self.attempted += 1
            if problem is not None:
                self.failures.append(f"{op.label}: {problem}")

    def beyond_p90(self):
        if len(self.latencies) < 10:
            return 0
        p90 = statistics.quantiles(self.latencies, n=10, method="inclusive")[8]
        return sum(1 for v in self.latencies if v > p90)


def round_seeds(seed):
    rng = random.Random(seed)
    while True:
        yield rng.getrandbits(64)


def timed(workload, ctx, seed, seconds):
    tally = Tally(reference=True)
    rounds = 0
    start = time.perf_counter()
    for round_seed in round_seeds(seed):
        tally.run(workload.round(ctx, random.Random(round_seed)))
        rounds += 1
        if time.perf_counter() - start >= seconds and tally.beyond_p90() >= 10:
            break
    wall = time.perf_counter() - start - sum(tally.references)
    return tally, {"rounds": rounds, "wall_s": wall, "references": tally.references,
                   "reference_at": tally.reference_at}


def traced(workload, seed):
    """One round untraced, then set-up and the same round traced."""
    round_seed = next(round_seeds(seed))
    tally = Tally()
    t0 = time.perf_counter()
    tally.run(workload.round(workload.prepare(DATA), random.Random(round_seed)))
    untraced = time.perf_counter() - t0

    tracer = Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        tally.run(workload.round(workload.prepare(DATA), random.Random(round_seed)), tracer)
        traced_wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    OUT.mkdir(parents=True, exist_ok=True)
    tracer.write_spans(OUT / f"spans-{workload.name}-seed{seed}.json")
    metrics = tracer.metrics(traced_wall / untraced)
    return tally, {"layers": metrics, "spans": len(tracer.spans)}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    workload = workloads.WORKLOADS[args.workload]
    ctx = workload.prepare(DATA)
    ready = time.perf_counter()
    if args.setup_only:
        references = [reference_slice() for _ in range(SETUP_REFERENCE_SLICES)]
        print(json.dumps({"ready": ready, "references": references}))
        return 0
    if args.trace:
        tally, extra = traced(workload, args.seed)
    else:
        tally, extra = timed(workload, ctx, args.seed, args.seconds)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(
        json.dumps(
            {
                "latencies": tally.latencies,
                "attempted": tally.attempted,
                "failed": len(tally.failures),
                "failures": tally.failures[:FAILURES_KEPT],
                "peak_rss_mb": peak_kib / 1024,
                **extra,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
