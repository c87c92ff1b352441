#!/usr/bin/env python3
"""Write the benchmark's frozen inputs into perfbench/data.

Usage: python3 perfbench/make_inputs.py

* ``grown_sphere_kNN.tri`` for k = 1..12: the boundary of the 5-simplex
  after k seeded (2,4) moves (6 + 2k pentachora).  Before each pick the
  candidate sites are sorted by (I, phi, entries), so the files do not
  depend on the order in which find_move_sites returns sites.
* ``controls.json``: for bichar:Z3 and perturbation seeds 0..19, the
  exact witness and both sides' values of verify_p33 on
  perturb_q(solution, seed), each of which must fail.  The benchmark
  draws its negative controls from this pool and checks both backends
  against it.

Regenerating reproduces every file byte for byte.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import pachner  # noqa: E402

from workloads import GROWN_Z2, grown_sphere_path, sites_of_type  # noqa: E402

GROW_SEED = 1
CONTROL_SEEDS = range(20)


def grown_spheres():
    """Yield (k, triangulation) along one seeded (2,4) walk."""
    rng = random.Random(GROW_SEED)
    t = pachner.simplex_boundary(5)
    for k in GROWN_Z2:
        sites = sites_of_type(t, 2)
        t = pachner.apply_move(t, sites[rng.randrange(len(sites))])
        yield k, t


def controls() -> dict:
    sol = pachner.parse_solution("bichar:Z3")
    ring = sol.q.domain.ring
    pool = {}
    for seed in CONTROL_SEEDS:
        rep = pachner.verify_p33(pachner.perturb_q(sol, seed=seed), backend="exact")
        if rep.verdict != "fail":
            raise SystemExit(f"perturbation {seed} of bichar:Z3 gave {rep.verdict}, not fail")
        entry = {"witness": rep.witness}
        for side in ("lhs", "rhs"):
            text = rep.extras[f"{side}_value"]
            value = ring.parse(text).to_complex()
            entry[f"{side}_value"] = text
            entry[f"{side}_complex"] = [value.real, value.imag]
        pool[str(seed)] = entry
    return {"Z3": pool}


def write_inputs(out: Path):
    out.mkdir(parents=True, exist_ok=True)
    for k, t in grown_spheres():
        grown_sphere_path(out, k).write_text("\n".join(t.to_lines()) + "\n")
    (out / "controls.json").write_text(json.dumps(controls(), indent=1, sort_keys=True) + "\n")


def main() -> int:
    write_inputs(HERE / "data")
    return 0


if __name__ == "__main__":
    sys.exit(main())
