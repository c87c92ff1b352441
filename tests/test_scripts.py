"""The scripts under scripts/ run against the package as shipped."""

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def test_invariance_walks_script_runs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "invariance_walks.py")],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "all certified walks invariant; corrupted control drifted as expected" in proc.stdout
    rows = [line.split() for line in proc.stdout.splitlines()[1:14]]
    assert {(row[0], row[1]) for row in rows if row[0].startswith("triple:")} == {
        ("triple:groupalg:Z2", "outside"),
        ("triple:groupalg:S3", "outside"),
    }
    # the triple walks at seeds 1 and 2 change value, and do not set the exit code
    assert "outside the certified scope: 4 of 6 triple walks changed value" in proc.stdout
