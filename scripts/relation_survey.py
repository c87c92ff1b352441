#!/usr/bin/env python3
"""Survey the six-term relation and the derived family across solutions.

Usage: python3 scripts/relation_survey.py [--perturbations K]

Runs verify_p33 and verify_yb_family on every shipped solution with a
tensor, then on K seeded perturbations each, and prints the verdicts
side by side.  The point of the table is the last column: the two
checks always agree, which is the operator-form equivalence in action.
"""

import argparse
import time

from pachner import parse_solution, perturb_q, verify_p33, verify_yb_family
from pachner.cli import catalog


def verdicts(sol):
    t0 = time.perf_counter()
    a = verify_p33(sol).verdict
    b = verify_yb_family(sol).verdict
    return a, b, time.perf_counter() - t0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--perturbations", type=int, default=2, help="seeded corruptions per solution")
    args = ap.parse_args()

    rows = []
    for desc in catalog():
        sol = parse_solution(desc)
        if sol.q is None:
            continue
        rows.append((desc, *verdicts(sol)))
        for seed in range(args.perturbations):
            bad = perturb_q(sol, seed=seed)
            rows.append((bad.descriptor, *verdicts(bad)))

    width = max(len(r[0]) for r in rows)
    print(f"{'solution':<{width}}  relation  family   agree  seconds")
    disagreements = 0
    for desc, a, b, secs in rows:
        agree = "yes" if a == b else "NO"
        disagreements += a != b
        print(f"{desc:<{width}}  {a:<8}  {b:<7}  {agree:<5}  {secs:7.2f}")
    if disagreements:
        print("verdict disagreements:", disagreements)
        return 1
    print(f"{len(rows)} runs, verdicts agree everywhere")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
