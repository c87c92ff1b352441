"""Command-line behavior: exit codes, report shape, determinism."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pachner import groups, scalars
from pachner.cli import main
from pachner.simplicial import pachner_sides, simplex_boundary


REPO = Path(__file__).resolve().parent.parent
DELTA5 = str(REPO / "data" / "boundary_delta5.tri")


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_one_error_line(code, err):
    assert code == 64
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.fixture
def sphere_file(tmp_path):
    path = tmp_path / "sphere.tri"
    simplex_boundary(5).save(path)
    return str(path)


def test_verify_set_relation_exits_zero(capsys):
    code, out, _ = run(capsys, ["verify", "p33", "--solution", "set", "--samples", "1000", "--seed", "1"])
    assert code == 0
    assert "verdict=pass" in out
    assert "checks=1000" in out


def test_verify_theorem_exits_zero(capsys):
    code, out, _ = run(capsys, ["verify", "theorem", "--group", "Z3"])
    assert code == 0
    assert "case4=pass" in out


def test_verify_theorem_rejects_float_backend(capsys):
    for backend in ("float", "exact"):
        code, _, err = run(capsys, ["verify", "theorem", "--group", "Z3", "--backend", backend])
        assert_one_error_line(code, err)
        assert "--backend" in err


def test_verify_p33_dense_oracle(capsys):
    code, out, _ = run(capsys, ["verify", "p33", "--solution", "bichar:Z2", "--oracle", "dense"])
    assert code == 0
    assert "relation=p33-dense" in out


def test_verify_pentagon_and_yb(capsys):
    assert run(capsys, ["verify", "pentagon", "--group", "S3"])[0] == 0
    assert run(capsys, ["verify", "yb", "--solution", "bichar:Z2"])[0] == 0


def test_group_literals_read_whitespace_alike(capsys):
    # theorem reads its group through parse_group, pentagon through
    # named_group_table: both strip the literal
    for relation, group in (("theorem", " Z3 "), ("pentagon", " Z3 "), ("pentagon", " S3")):
        code, out, err = run(capsys, ["verify", relation, "--group", group])
        assert (code, err) == (0, ""), (relation, group)
        assert "verdict=pass" in out


def test_reports_are_byte_identical(capsys, sphere_file):
    argvs = [
        ["verify", "p33", "--solution", "bichar:Z2"],
        ["moves", "walk", "--tri", sphere_file, "--count", "4", "--seed", "9", "--solution", "bichar:Z2"],
        ["verify", "p33", "--solution", "set", "--samples", "50", "--seed", "3"],
    ]
    for argv in argvs:
        first = run(capsys, argv)
        second = run(capsys, argv)
        assert first == second


# Whole reports, captured from the CLI: the echoed options, the field
# order, the witness line and the sorted extras are all part of the layout.
REPORTS = [
    (
        "verify p33 --solution bichar:Z3",
        0,
        """\
command=verify p33
opt_backend=exact
opt_oracle=operator
opt_solution=bichar:Z3
relation=p33
target=bichar:Z3
backend=exact
verdict=pass
checks=729
lhs_nnz=729
rhs_nnz=729
""",
    ),
    (
        "verify p33 --solution bichar:Z5",
        0,
        """\
command=verify p33
opt_backend=exact
opt_oracle=operator
opt_solution=bichar:Z5
relation=p33
target=bichar:Z5
backend=exact
verdict=pass
checks=15625
lhs_nnz=15625
rhs_nnz=15625
""",
    ),
    (
        "statesum --tri data/boundary_delta5.tri --solution bichar:Z5",
        0,
        """\
Z = 1 · r^9
command=statesum
opt_backend=exact
opt_order=greedy
opt_solution=bichar:Z5
opt_tri=data/boundary_delta5.tri
pentachora=6
pairings=15
boundary_slots=0
backend=exact
value=1 · r^9
verdict=pass
""",
    ),
    (
        "verify yb --solution bichar:Z2",
        0,
        """\
command=verify yb
opt_backend=exact
opt_solution=bichar:Z2
relation=yb-family
target=bichar:Z2
backend=exact
verdict=pass
checks=192
pe1_triples=8
pe2_triples=8
ybe_triples=8
""",
    ),
    (
        "verify theorem --group Z2xZ2",
        0,
        """\
command=verify theorem
opt_backend=exact
opt_group=Z2xZ2
relation=theorem
target=Z2xZ2
backend=exact
verdict=pass
checks=256
case1=pass
case2=pass
case3=pass
case4=pass
""",
    ),
    (
        "verify pentagon --group S3",
        0,
        """\
command=verify pentagon
opt_backend=exact
opt_group=S3
relation=pentagon
target=B6
backend=exact
verdict=pass
checks=216
""",
    ),
    (
        "moves walk --tri data/boundary_delta5.tri --count 20 --seed 7 --solution bichar:Z2",
        0,
        """\
command=moves walk
opt_backend=exact
opt_count=20
opt_seed=7
opt_solution=bichar:Z2
opt_tri=data/boundary_delta5.tri
opt_type=3,3
relation=statesum-invariance
move_type=3,3
target=bichar:Z2
backend=exact
verdict=pass
moves=20
value=1 · r^9
pentachora=6
""",
    ),
    (
        "moves walk --tri data/boundary_delta5.tri --type 2,4 --count 3 --seed 1 --solution bichar:Z2",
        1,
        """\
command=moves walk
opt_backend=exact
opt_count=3
opt_seed=1
opt_solution=bichar:Z2
opt_tri=data/boundary_delta5.tri
opt_type=2,4
relation=statesum-invariance
move_type=2,4
target=bichar:Z2
backend=exact
verdict=fail
moves=1
value=1 · r^9
witness=step 0: value 1 · r^10 vs 1 · r^9
""",
    ),
]


@pytest.mark.parametrize("argv,code,expected", REPORTS, ids=[argv for argv, _, _ in REPORTS])
def test_report_layout(capsys, monkeypatch, argv, code, expected):
    monkeypatch.chdir(REPO)
    assert run(capsys, argv.split()) == (code, expected, "")


# Dumps over product groups, whose elements print as dotted residues,
# recorded byte for byte: (argv, lines, sha256 of the output, the first entry).
PRODUCT_DUMPS = [
    (
        "solutions --describe bichar:Z2xZ2 --dump",
        72,
        "a78de64055475b053221dd9065ab50b5d36f899c0585deb277d8d86148243a7e",
        "0.0,0.0,0.0,0.0,0.0 -> 1 · r^2",
    ),
    (
        "solutions --describe bichar:Z4xZ2 --dump",
        520,
        "a6ac2ae66e6f0b63b3a35fc7d75c5dd2da8ac94cadede9950805c3ce63b7bd76",
        "0.0,0.0,0.0,0.0,0.0 -> 1 · r^2",
    ),
    (
        "statesum --tri data/ball_before.tri --solution bichar:Z2xZ2 --dump",
        4109,
        "612bc8a9aa3a7d615211e814e55da21f5f6f2384a6bf362e540e3e11aafac41f",
        "0.0,0.0,0.0,0.0,0.0,0.0,0.1,0.1,0.1 -> -1 · r^3",
    ),
]


@pytest.mark.parametrize("argv,lines,digest,entry", PRODUCT_DUMPS, ids=[d[0] for d in PRODUCT_DUMPS])
def test_product_group_dumps_print_the_recorded_bytes(capsys, monkeypatch, argv, lines, digest, entry):
    monkeypatch.chdir(REPO)
    code, out, err = run(capsys, argv.split())
    assert (code, err) == (0, "")
    assert entry in out.splitlines()
    assert (len(out.splitlines()), hashlib.sha256(out.encode()).hexdigest()) == (lines, digest)


# Runs each argv (a JSON list of them in argv[1]) in one fresh interpreter
# after importing the package, printing the exit code and whether numpy is
# loaded after each.
NUMPY_PROBE = """
import contextlib, io, json, sys
import pachner
from pachner.cli import main
print(0, "numpy" in sys.modules)
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    print(code, "numpy" in sys.modules)
"""


@pytest.mark.parametrize(
    "argvs,loaded",
    [
        (
            [
                ["verify", "p33", "--solution", "bichar:Z2"],
                ["verify", "yb", "--solution", "bichar:Z2"],
                ["verify", "theorem", "--group", "Z3"],
                ["statesum", "--tri", DELTA5, "--solution", "bichar:Z3"],
                ["moves", "walk", "--tri", DELTA5, "--type", "3,3", "--count", "20"],
                ["verify", "p33", "--solution", "bichar:Z2", "--backend", "float"],
            ],
            [False, False, False, False, False, False, True],
        ),
        ([["verify", "p33", "--solution", "bichar:Z2", "--oracle", "dense"]], [False, True]),
        ([["statesum", "--tri", DELTA5, "--solution", "bichar:Z2", "--backend", "float"]], [False, True]),
    ],
)
def test_numpy_loads_only_on_the_float_and_dense_paths(argvs, loaded):
    path = os.pathsep.join([str(REPO / "src"), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_PROBE, json.dumps(argvs)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    assert proc.stdout.splitlines() == [f"0 {flag}" for flag in loaded]


@pytest.mark.parametrize("group", ["Z3", "Z4"])
def test_float_statesum_prints_the_same_value_in_either_order(capsys, monkeypatch, group):
    monkeypatch.chdir(REPO)
    shown = set()
    for order in ("greedy", "left"):
        argv = ["statesum", "--tri", "data/boundary_delta5.tri", "--solution", f"bichar:{group}",
                "--backend", "float", "--order", order]
        code, out, _ = run(capsys, argv)
        assert code == 0
        shown |= {line for line in out.splitlines() if line.startswith("value=")}
    assert len(shown) == 1
    assert shown.pop().endswith("+0j")


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "p33", "--solution", "bichar:Z5"],
        ["verify", "yb", "--solution", "bichar:Z2"],
        ["verify", "pentagon", "--group", "S3"],
        ["statesum", "--tri", DELTA5, "--solution", "bichar:Z5"],
        ["moves", "walk", "--tri", DELTA5, "--solution", "bichar:Z2"],
    ],
    ids=lambda argv: " ".join(argv[:2]),
)
def test_backend_auto_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, [*argv, "--backend", "auto"])
    assert_one_error_line(code, err)
    assert "invalid choice: 'auto' (choose from 'exact', 'float')" in err
    assert out == ""


def test_statesum_closed_sphere(capsys, sphere_file):
    code, out, _ = run(capsys, ["statesum", "--tri", sphere_file, "--solution", "bichar:Z3", "--backend", "exact"])
    assert code == 0
    assert out.splitlines()[0] == "Z = 1 · r^9"
    assert "pairings=15" in out
    assert "boundary_slots=0" in out


def test_statesum_boundary_tensor_and_dump(capsys, tmp_path):
    before, _ = pachner_sides(5, (0, 2, 4), (1, 3, 5))
    path = tmp_path / "ball.tri"
    before.save(path)
    code, out, _ = run(capsys, ["statesum", "--tri", str(path), "--solution", "bichar:Z2"])
    assert code == 0
    assert "boundary tensor, 9 slots, 64 nonzero" in out
    code, out, _ = run(
        capsys, ["statesum", "--tri", str(path), "--solution", "bichar:Z2", "--dump"]
    )
    assert code == 0
    assert len([line for line in out.splitlines() if "->" in line]) == 64


def test_statesum_rejects_incoherent_orientations(capsys, tmp_path):
    from pachner.simplicial import Triangulation

    t = Triangulation(4, [((0, 1, 2, 3, 4), 1), ((0, 1, 2, 3, 5), 1)])
    path = tmp_path / "bad.tri"
    t.save(path)
    code, _, err = run(capsys, ["statesum", "--tri", str(path), "--solution", "bichar:Z2"])
    assert code == 64
    assert "(0, 1, 2, 3)" in err


def test_statesum_over_the_guard_exits_64_before_contracting(capsys, tmp_path, monkeypatch):
    from pachner.simplicial import Triangulation

    # five lone pentachora: the last outer product would carry 25 slots
    t = Triangulation(4, [(tuple(range(10 * k, 10 * k + 5)), 1) for k in range(5)])
    path = tmp_path / "union.tri"
    t.save(path)
    monkeypatch.setattr("pachner.statesum.contract", lambda *args: pytest.fail("contracted"))
    code, out, err = run(capsys, ["statesum", "--tri", str(path), "--solution", "bichar:Z2"])
    assert_one_error_line(code, err)
    assert "(guard 22)" in err
    assert out == ""


@pytest.mark.parametrize(
    "target,argv",
    [
        ("partition", ["statesum", "--tri", DELTA5, "--solution", "bichar:Z2"]),
        ("invariance_run", ["moves", "walk", "--tri", DELTA5, "--type", "3,3",
                            "--count", "1", "--solution", "bichar:Z2"]),
    ],
)
def test_state_sum_errors_other_than_refusals_are_internal(capsys, monkeypatch, target, argv):
    def crash(*args, **kwargs):
        raise RecursionError("deep")

    monkeypatch.setattr(f"pachner.cli.{target}", crash)
    code, out, err = run(capsys, argv)
    assert (code, out, err) == (70, "", "error: internal: RecursionError: deep\n")


def test_moves_walk_without_solution_tracks_euler(capsys, tmp_path):
    path = tmp_path / "s2.tri"
    simplex_boundary(3).save(path)
    code, out, _ = run(
        capsys, ["moves", "walk", "--tri", str(path), "--type", "2,2", "--count", "6", "--seed", "5"]
    )
    assert code == 0
    assert "euler_characteristic=2" in out
    assert "verdict=pass" in out


def test_triple_walk_changes_value_outside_the_certified_scope(capsys):
    # only the bichar solutions are certified: a group-algebra triple's
    # value changes at the first (3,3) move of this walk
    argv = ["moves", "walk", "--tri", str(REPO / "data" / "boundary_delta5.tri"), "--type", "3,3",
            "--count", "12", "--seed", "5", "--solution", "triple:groupalg:Z2"]
    code, out, err = run(capsys, argv)
    assert (code, err) == (1, "")
    assert "witness=step 0: value 16 vs 8" in out.splitlines()


def test_moves_walk_rejects_negative_count(capsys, sphere_file):
    for extra in ([], ["--solution", "bichar:Z2"]):
        code, out, err = run(capsys, ["moves", "walk", "--tri", sphere_file, "--count", "-2", *extra])
        assert_one_error_line(code, err)
        assert "count must be >= 0" in err
        assert out == ""


def test_moves_walk_bad_type(capsys, sphere_file):
    # each refusal names the condition that failed
    for move_type, why in (
        ("9,9", "does not fit dimension 4: need p+q=6"),
        ("0,6", "is not a move: need p, q >= 1"),
        ("7,-1", "is not a move: need p, q >= 1"),
    ):
        code, out, err = run(capsys, ["moves", "walk", "--tri", sphere_file, "--type", move_type])
        assert_one_error_line(code, err)
        assert why in err, move_type
        assert out == ""


def test_moves_apply_roundtrip(capsys, tmp_path, sphere_file):
    out_path = tmp_path / "moved.tri"
    code, out, _ = run(
        capsys,
        ["moves", "apply", "--tri", sphere_file, "--type", "3,3", "--site", "0", "--out", str(out_path)],
    )
    assert code == 0
    assert "sites=20" in out
    moved = simplex_boundary(5).__class__.load(str(out_path))
    assert len(moved.simplexes) == 6
    assert moved.is_closed()


def test_moves_apply_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, ["moves", "apply", "--tri", str(tmp_path / "missing.tri")])
    assert code == 64
    assert "no such file" in err
    code, _, err = run(capsys, ["moves", "apply", "--tri", str(tmp_path)])
    assert_one_error_line(code, err)


@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_moves_apply_unwritable_out_is_a_usage_error(capsys, tmp_path, sphere_file, where):
    target = tmp_path / "missing" / "moved.tri" if where == "missing directory" else tmp_path
    argv = ["moves", "apply", "--tri", sphere_file, "--type", "3,3", "--out", str(target)]
    code, out, err = run(capsys, argv)
    assert_one_error_line(code, err)
    assert f"cannot write {target}" in err
    assert out == ""


@pytest.mark.parametrize("verb", [["walk", "--count", "0"], ["apply"]])
def test_moves_refuse_complexes_past_the_face_node_limit(capsys, monkeypatch, tmp_path, verb):
    path = tmp_path / "dim18.tri"
    path.write_text("dim 18\nsimp " + " ".join(map(str, range(19))) + " +\n")
    monkeypatch.setattr("pachner.simplicial._new_forest", lambda *args: pytest.fail("built face classes"))
    code, out, err = run(capsys, ["moves", *verb, "--tri", str(path), "--type", "10,10"])
    assert_one_error_line(code, err)
    # the walk refuses when it computes chi; a site search builds no face classes
    if verb[0] == "walk":
        assert "need 524287 nodes, over the limit of 262144" in err
    else:
        assert f"no (10,10) site in {path}" in err
    assert out == ""


def test_moves_apply_refuses_a_move_past_the_splitting_limit(capsys, monkeypatch, tmp_path):
    path = tmp_path / "dim20.tri"
    path.write_text("dim 20\nsimp " + " ".join(map(str, range(21))) + " +\n")
    monkeypatch.setattr(
        "pachner.simplicial.Triangulation._move_sites", lambda *args: pytest.fail("searched")
    )
    argv = ["moves", "apply", "--tri", str(path), "--type", "11,11"]
    code, out, err = run(capsys, argv)
    assert_one_error_line(code, err)
    assert "(11,11) moves in dimension 20 have 705432 splittings, over the limit of 262144" in err
    assert out == ""
    monkeypatch.setattr("pachner.simplicial.SPLITTINGS_LIMIT", 705432)
    with pytest.raises(pytest.fail.Exception, match="searched"):
        main(argv)


def test_tri_parse_error_carries_line_number(capsys, tmp_path):
    path = tmp_path / "broken.tri"
    path.write_text("dim 4\npent 0 1 2 3 4 %\n")
    code, _, err = run(capsys, ["statesum", "--tri", str(path), "--solution", "bichar:Z2"])
    assert code == 64
    assert "line 2" in err


def test_set_sampler_rejects_nonpositive_samples(capsys):
    code, out, err = run(capsys, ["verify", "p33", "--solution", "set", "--samples", "-3"])
    assert_one_error_line(code, err)
    assert "samples must be >= 1" in err
    assert out == ""


def test_yb_rejects_set_solution(capsys):
    code, _, err = run(capsys, ["verify", "yb", "--solution", "set"])
    assert_one_error_line(code, err)
    assert "solution tensor" in err


def test_dense_oracle_refuses_oversized_grids(capsys, monkeypatch):
    monkeypatch.setattr("numpy.zeros", lambda *args, **kwargs: pytest.fail("allocated"))
    code, out, err = run(capsys, ["verify", "p33", "--solution", "bichar:Z9", "--oracle", "dense"])
    assert_one_error_line(code, err)
    assert "GB limit" in err
    assert out == ""


@pytest.mark.parametrize(
    "backend,digest",
    [
        ("exact", "2f6b7b1c0ae245635985821e300c5b3d4ee84b32ea784997b511b1f5c1c2bf8c"),
        ("float", "d621c14f48810665de2241f20e6d5e8478d40ebd6dfc4f84e63da235f6fb0bdb"),
    ],
)
def test_verify_p33_on_bichar_z7_prints_the_whole_side_report(capsys, backend, digest):
    # seven first-input slices per side, folded into the report that the
    # whole sides (117,649 entries each) gave before the check was sliced
    code, out, _ = run(capsys, ["verify", "p33", "--solution", "bichar:Z7", "--backend", backend])
    assert code == 0
    assert "checks=117649\nlhs_nnz=117649\nrhs_nnz=117649\n" in out
    assert out.count("\n") == 11
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_p33_over_the_entry_bound_exits_64_before_contracting(capsys, monkeypatch):
    monkeypatch.setattr("pachner.verify.P33_ENTRIES_LIMIT", 4095)
    monkeypatch.setattr("pachner.tensors.contract", lambda *args: pytest.fail("contracted"))
    code, out, err = run(capsys, ["verify", "p33", "--solution", "bichar:Z4"])
    assert_one_error_line(code, err)
    assert "over Z4 may hold 4096 entries, over the limit of 4095" in err
    assert out == ""


def test_verify_yb_over_the_entry_bound_exits_64_before_contracting(capsys, monkeypatch):
    monkeypatch.setattr("pachner.tensors.contract", lambda *args: pytest.fail("contracted"))
    code, out, err = run(capsys, ["verify", "yb", "--solution", "bichar:Z7"])
    assert_one_error_line(code, err)
    assert f"over Z7 may compare {3 * 7**9} entries, over the limit of {1 << 25}" in err
    assert out == ""


def test_internal_error_exits_70_with_one_line(capsys, monkeypatch):
    def crash(args):
        raise RuntimeError("boom")

    monkeypatch.setattr("pachner.cli.cmd_verify", crash)
    code, out, err = run(capsys, ["verify", "p33", "--solution", "bichar:Z2"])
    assert (code, out, err) == (70, "", "error: internal: RuntimeError: boom\n")


def test_unknown_flag_and_bad_descriptor(capsys):
    code, _, _ = run(capsys, ["verify", "p33", "--solution", "bichar:Z2", "--frobnicate"])
    assert code == 64
    code, _, err = run(capsys, ["verify", "p33", "--solution", "bogus:thing"])
    assert code == 64
    assert "descriptor" in err


def test_solutions_catalog_and_describe(capsys):
    code, out, _ = run(capsys, ["solutions"])
    assert code == 0
    assert "solution=set" in out
    assert "solution=bichar:Z2xZ2" in out
    assert "solution=triple:groupalg:S3" in out
    code, out, _ = run(capsys, ["solutions", "--describe", "bichar:Z2"])
    assert code == 0
    assert "nonzeros=8" in out
    assert "kernels=yes" in out
    code, out, _ = run(capsys, ["solutions", "--describe", "triple:groupalg:Z2"])
    assert code == 0
    assert "kernels=no" in out


def test_selftest_list_names_all_criteria(capsys):
    from pachner import acceptance

    code, out, _ = run(capsys, ["selftest", "--list"])
    assert code == 0
    for crit in acceptance.CRITERIA:
        assert f"criterion={crit.name}" in out


def test_selftest_subset_passes(capsys):
    code, out, _ = run(capsys, ["selftest", "--only", "interval-solution"])
    assert code == 0
    assert "failed=0" in out


def test_selftest_prints_the_same_bytes_on_every_run():
    # a criterion within its budget prints no wall time
    argv = [sys.executable, "-m", "pachner.cli", "selftest", "--only", "pentagon-equation"]
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    env.pop("PACHNER_MUTATE", None)
    outs = [subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120) for _ in range(2)]
    assert [proc.returncode for proc in outs] == [0, 0]
    assert outs[0].stdout == outs[1].stdout
    assert "PASS pentagon-equation 4 group algebras\n" in outs[0].stdout


def test_selftest_unknown_criterion(capsys):
    code, _, err = run(capsys, ["selftest", "--only", "nonsense"])
    assert code == 64
    assert "selftest --list" in err


def test_selftest_mutation_hook_fails_then_restores(capsys, monkeypatch):
    monkeypatch.setenv("PACHNER_MUTATE", "conj-noop")
    code, out, _ = run(capsys, ["selftest", "--only", "duality-theorem"])
    assert code == 1
    assert "verdict=fail" in out
    monkeypatch.delenv("PACHNER_MUTATE")
    code, out, _ = run(capsys, ["selftest", "--only", "duality-theorem"])
    assert code == 0


def test_selftest_weight_mutation_breaks_relation(capsys, monkeypatch):
    monkeypatch.setenv("PACHNER_MUTATE", "weight-sign")
    code, _, _ = run(capsys, ["selftest", "--only", "relation-bicharacter"])
    assert code == 1
    monkeypatch.delenv("PACHNER_MUTATE")
    code, _, _ = run(capsys, ["selftest", "--only", "relation-bicharacter"])
    assert code == 0


@pytest.mark.parametrize(
    "mutation,failures",
    [
        (
            "weight-sign",
            {
                "relation-bicharacter": "bichar:Z2: fail (0,0,0,0,0,0,0,0,0)",
                "duality-theorem": "Z2: fail (case1 at 0,0,0,0,0)",
                "yang-baxter-family": "Z2: fail (pe1[0,0,0] at 0,0,0,0,0,0)",
                "statesum-invariance": "Z2: value 1 · r^39 != 1 · r^9",
            },
        ),
        (
            "conj-noop",
            {
                "duality-theorem": "Z2: fail (case1 at 0,0,0,1,1)",
                "statesum-invariance": "Z3: fail after 1 moves (step 0: value 1 · r^5 vs 1 + -2·z^1 · r^3)",
            },
        ),
    ],
)
def test_mutation_hook_reaches_every_criterion(capsys, monkeypatch, mutation, failures):
    # each hook breaks one seam of scalar arithmetic; every criterion that
    # multiplies through that seam must fail, and only those.  A clean run
    # first warms the rings' memo tables: the hook must bite over them as
    # over cold ones, and undoing it must restore every pass
    monkeypatch.delenv("PACHNER_MUTATE", raising=False)
    assert run(capsys, ["selftest"])[0] == 0
    monkeypatch.setenv("PACHNER_MUTATE", mutation)
    code, out, _ = run(capsys, ["selftest"])
    assert code == 1
    failed = {}
    for line in out.splitlines():
        if line.startswith("FAIL "):
            _, name, detail = line.split(" ", 2)
            failed[name] = detail
    assert failed == failures
    assert f"failed={len(failures)}" in out
    monkeypatch.delenv("PACHNER_MUTATE")
    assert run(capsys, ["selftest"])[0] == 0


def test_selftest_unknown_mutation(capsys, monkeypatch):
    monkeypatch.setenv("PACHNER_MUTATE", "gremlins")
    code, _, err = run(capsys, ["selftest", "--only", "interval-solution"])
    assert code == 64
    assert "unknown mutation" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "pentagon", "--group", "Z300"],
        ["solutions", "--describe", "triple:groupalg:Z300"],
        ["verify", "p33", "--solution", "bichar:Z60"],
        ["verify", "theorem", "--group", "Z60"],
        ["verify", "theorem", "--group", "Z12"],
        ["statesum", "--tri", str(REPO / "data" / "boundary_delta5.tri"), "--solution", "bichar:Z60"],
        ["solutions", "--describe", "bichar:Z40"],
    ],
)
def test_oversized_descriptors_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 64
    assert err.count("error:") == 1 and "over the limit of" in err
    assert "Traceback" not in out + err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "theorem", "--group", "Z100000000"],
        ["verify", "p33", "--solution", "bichar:Z100000000"],
    ],
)
def test_oversized_group_literals_exit_before_building_a_ring(capsys, monkeypatch, argv):
    monkeypatch.setattr(groups, "get_ring", lambda *args: pytest.fail("built a ring"))
    code, out, err = run(capsys, argv)
    assert_one_error_line(code, err)
    assert "has order 100000000, over the limit of 1024" in err


SEED_TRIS = [
    (REPO / "data" / name).read_text()
    for name in ("boundary_delta5.tri", "ball_before.tri", "double_pentachoron.tri")
] + [
    "dim 4\npent 0 1 2 3 4 +\npent 0 1 2 3 4 -\n"
    + "".join(f"glue 0 {i} 1 {i}\n" for i in range(5)),
    "\n".join(simplex_boundary(3).to_lines()) + "\n",
]
FUZZ_WORDS = ["0", "1", "2", "-1", "4", "5", "9", "10**6", "1000000", "+", "-", "x", "dim", "pent", "glue", "#"]
# descriptors too large to build are refused before construction
OVERSIZED_SOLUTIONS = ["bichar:Z60", "bichar:Z40", "triple:groupalg:Z300"]
FUZZ_SOLUTIONS = ["bichar:Z2", "bichar:Z3", "triple:groupalg:Z2"] * 2 + ["set", "bichar:Z0", "nope",
                                                                         *OVERSIZED_SOLUTIONS]
# small groups only: the dense oracle on |V| = 6 makes 6**11 multiply-adds per side
FUZZ_VERIFY_SOLUTIONS = ["bichar:Z2", "bichar:Z3", "bichar:Z4", "bichar:Z2xZ2", "triple:groupalg:Z2",
                         "set", "bichar:Z0", "nope", *OVERSIZED_SOLUTIONS]
FUZZ_PENTAGON_GROUPS = ["Z2", "Z3", "Z4", "Z2xZ2", "S3", "Z0", "Q8", "nope", "Z300"]
FUZZ_THEOREM_GROUPS = ["Z2", "Z3", "Z2xZ2", "Z1", "Z0", "S3", "nope", "Z12", "Z16", "Z60", "Z300"]
# selftest runs only the quick criteria, or none
FUZZ_SELFTEST = [["--list"], ["--only", "interval-solution"], ["--only", "pentagon-equation"], ["--only", "nope"]]
FUZZ_MUTATE = [None, "", "conj-noop", "weight-sign", "bogus"]
FUZZ_TYPES = ["3,3", "2,4", "4,2", "1,5", "5,1"] * 2 + ["2,2", "1,3", "0,6", "3", "a,b"]


@st.composite
def tri_texts(draw):
    """A shipped-style .tri text with up to three random edits: a line
    dropped, duplicated or swapped, a word replaced, or a junk line."""
    lines = draw(st.sampled_from(SEED_TRIS)).splitlines()
    for _ in range(draw(st.sampled_from([0, 0, 1, 2, 3]))):
        edit = draw(st.sampled_from(["drop", "dup", "swap", "word", "junk"]))
        i, j = (draw(st.integers(0, max(len(lines) - 1, 0))) for _ in range(2))
        if edit == "junk" or not lines:
            lines.insert(i, draw(st.text(alphabet="dimpentglus 0123-+#\t", max_size=16)))
        elif edit == "drop":
            del lines[i]
        elif edit == "dup":
            lines.insert(j, lines[i])
        elif edit == "swap":
            lines[i], lines[j] = lines[j], lines[i]
        else:
            words = lines[i].split() or [""]
            words[draw(st.integers(0, len(words) - 1))] = draw(st.sampled_from(FUZZ_WORDS))
            lines[i] = " ".join(words)
    return "\n".join(lines) + "\n"


@st.composite
def fuzz_argv(draw, tri, out):
    """argv for statesum, moves walk or moves apply on a small file, for
    verify p33, pentagon, yb or theorem on small groups, for solutions
    --describe, or for selftest, with option values both valid and not."""
    if draw(st.integers(0, 9)) == 0:
        tri = draw(st.sampled_from([tri + ".missing", str(Path(tri).parent)]))
    verbs = ["statesum", "walk", "apply", "p33", "pentagon", "yb", "theorem", "describe", "selftest"]
    verb = draw(st.sampled_from(verbs))
    backends = [[], [], ["--backend", "float"], ["--backend", "exact"], ["--backend", "x"], ["--backend", "auto"]]
    if verb == "p33":
        argv = ["verify", "p33", "--solution", draw(st.sampled_from(FUZZ_VERIFY_SOLUTIONS))]
        argv += draw(st.sampled_from(backends))
        argv += draw(st.sampled_from([[], ["--oracle", "dense"], ["--oracle", "dense"], ["--oracle", "x"]]))
        argv += draw(st.sampled_from([[], ["--samples", str(draw(st.integers(-1, 5)))], ["--seed", "x"]]))
    elif verb == "pentagon":
        argv = ["verify", "pentagon", "--group", draw(st.sampled_from(FUZZ_PENTAGON_GROUPS))]
        argv += draw(st.sampled_from(backends))
    elif verb == "yb":
        argv = ["verify", "yb", "--solution", draw(st.sampled_from(FUZZ_VERIFY_SOLUTIONS + ["bichar:Z7"]))]
        argv += draw(st.sampled_from(backends))
    elif verb == "theorem":
        argv = ["verify", "theorem", "--group", draw(st.sampled_from(FUZZ_THEOREM_GROUPS))]
    elif verb == "selftest":
        argv = ["selftest", *draw(st.sampled_from(FUZZ_SELFTEST))]
    elif verb == "describe":
        argv = ["solutions", "--describe", draw(st.sampled_from(FUZZ_SOLUTIONS))]
        argv += draw(st.sampled_from([[], ["--dump"]]))
    elif verb == "statesum":
        argv = ["statesum", "--tri", tri, "--solution", draw(st.sampled_from(FUZZ_SOLUTIONS))]
        argv += draw(st.sampled_from(backends))
        argv += draw(st.sampled_from([[], [], ["--order", "left"], ["--order", "up"], ["--dump"]]))
    elif verb == "walk":
        argv = ["moves", "walk", "--tri", tri, "--type", draw(st.sampled_from(FUZZ_TYPES))]
        argv += ["--count", str(draw(st.integers(-1, 3))), "--seed", str(draw(st.integers(0, 9)))]
        if draw(st.booleans()):
            argv += ["--solution", draw(st.sampled_from(FUZZ_SOLUTIONS))]
    else:
        argv = ["moves", "apply", "--tri", tri, "--type", draw(st.sampled_from(FUZZ_TYPES))]
        argv += ["--site", str(draw(st.integers(-2, 40)))]
        if draw(st.booleans()):
            # a writable file, a directory, or a path under a missing directory
            argv += ["--out", draw(st.sampled_from([out, out, str(Path(out).parent), out + ".d/x.tri"]))]
    if draw(st.integers(0, 9)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(["--bogus", "--tri", "-h"])))
    return argv


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(data=st.data())
def test_cli_fuzz_ends_in_a_known_exit_with_at_most_one_error_line(capsys, monkeypatch, tmp_path, data):
    tri = tmp_path / "fuzz.tri"
    tri.write_text(data.draw(tri_texts(), label="tri"))
    argv = data.draw(fuzz_argv(str(tri), str(tmp_path / "out.tri")), label="argv")
    mutation = data.draw(st.sampled_from(FUZZ_MUTATE), label="PACHNER_MUTATE")
    if mutation is None:
        monkeypatch.delenv("PACHNER_MUTATE", raising=False)
    else:
        monkeypatch.setenv("PACHNER_MUTATE", mutation)
    conj, radical = scalars.Scalar.conj, scalars.ScalarRing.radical
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's -h prints help and exits 0
        code = exc.code
    out, err = capsys.readouterr()
    assert (scalars.Scalar.conj, scalars.ScalarRing.radical) == (conj, radical)
    assert code in ((0, 1, 64) if "selftest" in argv else (0, 1, 2, 64, 70))
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == (1 if code in (64, 70) else 0)
    assert "Traceback" not in out + err
