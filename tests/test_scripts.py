"""The scripts under scripts/ run against the package as shipped."""

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(REPO / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_invariance_walks_script_runs():
    proc = run_script("invariance_walks.py")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "all certified walks invariant; corrupted control drifted as expected" in proc.stdout
    rows = [line.split() for line in proc.stdout.splitlines()[1:14]]
    assert {(row[0], row[1]) for row in rows if row[0].startswith("triple:")} == {
        ("triple:groupalg:Z2", "outside"),
        ("triple:groupalg:S3", "outside"),
    }
    # the triple walks at seeds 1 and 2 change value, and do not set the exit code
    assert "outside the certified scope: 4 of 6 triple walks changed value" in proc.stdout


def test_relation_survey_script_agrees_everywhere():
    proc = run_script("relation_survey.py")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[-1] == "42 runs, verdicts agree everywhere"
    # every clean solution passes both checks and every perturbed one fails
    # both, but on Z1, whose one-entry Q any bump keeps a solution
    verdicts = {row[0]: row[1:3] for row in map(str.split, lines[1:-1])}
    assert len(verdicts) == 42
    for desc, pair in verdicts.items():
        ok = "perturbed" not in desc or desc.startswith("triple:groupalg:Z1")
        assert pair == (["pass", "pass"] if ok else ["fail", "fail"]), desc


def test_make_complexes_writes_the_shipped_complexes_byte_for_byte(tmp_path):
    proc = run_script("make_complexes.py", str(tmp_path))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    shipped = sorted(path.name for path in (REPO / "data").glob("*.tri"))
    assert shipped == ["ball_after.tri", "ball_before.tri", "boundary_delta5.tri", "double_pentachoron.tri"]
    assert sorted(path.name for path in tmp_path.iterdir()) == shipped
    for name in shipped:
        assert (tmp_path / name).read_bytes() == (REPO / "data" / name).read_bytes(), name
