"""Self-tests of the benchmark.  Run: python3 -m pytest perfbench -q

They write only under perfbench/out/selftest.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = HERE / "out" / "selftest"
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import pachner  # noqa: E402

import make_inputs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402
from worker import Tally  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def statesum_walk_ops(length):
    sol = pachner.parse_solution("bichar:Z2")
    return workloads.statesum_walk(pachner.simplex_boundary(5), sol, length, random.Random(5))


def test_planted_wrong_expected_value_counts_as_failed(monkeypatch):
    tally = Tally()
    tally.run(statesum_walk_ops(3))
    assert tally.attempted == 3 and not tally.failures

    monkeypatch.setattr(workloads, "SPHERE_EXPONENT", workloads.SPHERE_EXPONENT - 1)
    planted = Tally()
    planted.run(statesum_walk_ops(3))
    assert len(planted.failures) / planted.attempted > 0


def test_planted_wrong_control_witness_counts_as_failed():
    ctx = {"sols": {"Z3": pachner.parse_solution("bichar:Z3")}, "controls": workloads.load_controls(HERE / "data")}
    ops = [next(it) for _, it in workloads.control_ops(ctx, random.Random(0), "float")[:2]]
    tally = Tally()
    tally.run(ops)
    assert tally.attempted == 2 and not tally.failures

    for entry in ctx["controls"]["Z3"].values():
        entry["witness"] = "planted"
    ops = [next(it) for _, it in workloads.control_ops(ctx, random.Random(0), "float")[:2]]
    planted = Tally()
    planted.run(ops)
    assert len(planted.failures) == 2


def test_inputs_regenerate_byte_for_byte():
    out = SCRATCH / "inputs"
    shutil.rmtree(out, ignore_errors=True)
    make_inputs.write_inputs(out)
    frozen = sorted(p.name for p in (HERE / "data").iterdir())
    assert sorted(p.name for p in out.iterdir()) == frozen
    for name in frozen:
        assert (out / name).read_bytes() == (HERE / "data" / name).read_bytes(), name


def test_latencies_are_rescaled_by_the_nearest_reference_slices():
    nominal = run.REFERENCE_NOMINAL_S
    lat = [0.1, 0.2, 0.3, 0.4]
    assert run.scaled_latencies(lat, [nominal, nominal], [0, 2]) == lat
    # a host twice as slow around every op halves every latency
    assert run.scaled_latencies(lat, [2 * nominal] * 3, [0, 1, 3]) == [x / 2 for x in lat]
    # op 3 sees only slices 1 and 2, not the slow slice 0
    scaled = run.scaled_latencies(lat, [4 * nominal, nominal, nominal], [0, 1, 2])
    assert scaled[3] == lat[3]


def test_harrell_davis_quantiles():
    values = [float(v) for v in range(1, 102)]
    assert abs(run.harrell_davis(values, 0.5) - 51.0) < 1e-6
    assert abs(run.harrell_davis(values, 0.9) - 91.0) < 0.5
    # across a gap between two clusters it moves smoothly, not by a jump
    clusters = [1.0] * 89 + [10.0] * 11
    assert 1.0 < run.harrell_davis(clusters, 0.9) < 10.0


def test_untraced_result_line_has_the_declared_metrics():
    proc = bench("--workload", "moves", "--seed", "3", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    record = json.loads((HERE / "out" / "moves-seed3-trace0.json").read_text())
    assert record["beyond_p90"] >= 10
    for metric in declared()["end_to_end"]:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"] and got["value"] > 0
    assert len(result["metrics"]) == len(declared()["end_to_end"])


def test_two_traced_runs_give_identical_counts():
    runs = []
    for _ in range(2):
        proc = bench("--workload", "moves", "--seed", "4", "--seconds", "1", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1])["metrics"])
    assert sorted(runs[0]) == sorted(m["name"] for m in declared()["per_layer"])
    counts = [name for name, m in runs[0].items() if m["unit"] in ("count", "slots")]
    assert runs[0]["simplicial.face_classes_calls"]["value"] > 0
    assert {n: runs[0][n] for n in counts} == {n: runs[1][n] for n in counts}


def test_traced_statesum_slice_repeats_its_counts():
    """The layers whose work follows hash order (the statesum merge over
    label sets, tensor joins) give the same counts on a repeat."""
    data = HERE / "data"
    sol = pachner.parse_solution("bichar:Z3")
    sphere = pachner.Triangulation.load(workloads.grown_sphere_path(data, 1))
    runs = []
    for _ in range(2):
        ops = list(statesum_walk_ops(2))
        ops.append(
            workloads.Op(
                "grown k=1",
                lambda: pachner.partition_value(pachner.build_assignment(sphere, sol)),
                workloads.expect_radical(workloads.SPHERE_EXPONENT + 1),
            )
        )
        tracer = Tracer()
        tracer.install()
        try:
            tally = Tally()
            tally.run(ops, tracer)
        finally:
            tracer.uninstall()
        assert tally.attempted == 3 and not tally.failures
        runs.append((dict(tracer.calls), tracer.nnz_out, tracer.peak_nnz, tracer.peak_arity))
    calls = runs[0][0]
    assert calls["statesum.partition"] > 0 and calls["tensors.contract"] > 0 and calls["scalars.Scalar.__mul__"] > 0
    assert runs[0] == runs[1]


def test_refuses_to_run_without_the_sources():
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__", "test_*.py"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = bench("--workload", "moves", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
