"""Command-line behavior: exit codes, report shape, determinism."""

import pytest

from pachner.cli import main
from pachner.simplicial import pachner_sides, simplex_boundary


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
    code, _, err = run(capsys, ["verify", "theorem", "--group", "Z3", "--backend", "float"])
    assert code == 64
    assert "exact" in err


def test_verify_p33_dense_oracle(capsys):
    code, out, _ = run(capsys, ["verify", "p33", "--solution", "bichar:Z2", "--oracle", "dense"])
    assert code == 0
    assert "relation=p33-dense" in out


def test_verify_pentagon_and_yb(capsys):
    assert run(capsys, ["verify", "pentagon", "--group", "S3"])[0] == 0
    assert run(capsys, ["verify", "yb", "--solution", "bichar:Z2"])[0] == 0


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


def test_moves_walk_without_solution_tracks_euler(capsys, tmp_path):
    path = tmp_path / "s2.tri"
    simplex_boundary(3).save(path)
    code, out, _ = run(
        capsys, ["moves", "walk", "--tri", str(path), "--type", "2,2", "--count", "6", "--seed", "5"]
    )
    assert code == 0
    assert "euler_characteristic=2" in out
    assert "verdict=pass" in out


def test_moves_walk_rejects_negative_count(capsys, sphere_file):
    for extra in ([], ["--solution", "bichar:Z2"]):
        code, out, err = run(capsys, ["moves", "walk", "--tri", sphere_file, "--count", "-2", *extra])
        assert_one_error_line(code, err)
        assert "count must be >= 0" in err
        assert out == ""


def test_moves_walk_bad_type(capsys, sphere_file):
    code, _, err = run(capsys, ["moves", "walk", "--tri", sphere_file, "--type", "9,9"])
    assert code == 64
    assert "dimension" in err


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


def test_dense_oracle_rejects_non_integer_workers(capsys, monkeypatch):
    monkeypatch.setenv("PACHNER_WORKERS", "abc")
    code, _, err = run(capsys, ["verify", "p33", "--solution", "bichar:Z2", "--oracle", "dense"])
    assert_one_error_line(code, err)
    assert "PACHNER_WORKERS" in err


def test_dense_oracle_refuses_oversized_grids(capsys, monkeypatch):
    monkeypatch.setattr("pachner.verify.np.zeros", lambda *args, **kwargs: pytest.fail("allocated"))
    code, out, err = run(capsys, ["verify", "p33", "--solution", "bichar:Z8", "--oracle", "dense"])
    assert_one_error_line(code, err)
    assert "GB limit" in err
    assert out == ""


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


def test_selftest_unknown_mutation(capsys, monkeypatch):
    monkeypatch.setenv("PACHNER_MUTATE", "gremlins")
    code, _, err = run(capsys, ["selftest", "--only", "interval-solution"])
    assert code == 64
    assert "unknown mutation" in err
