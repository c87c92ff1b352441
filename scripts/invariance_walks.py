#!/usr/bin/env python3
"""Random (3,3) walks on the 4-sphere, tracking the partition value.

Usage: python3 scripts/invariance_walks.py [--count N] [--seeds K] [--backend exact|float]

For each shipped tensor solution this applies N seeded (3,3) moves per
seed and reports whether the state sum stayed fixed, alongside one
deliberately corrupted tensor that is expected to drift.

Only the bicharacter walks are certified: the state sum wires Q by facet
index, and their invariance rests on these walks and the duality
theorem's kernels, not on a slot symmetry of Q.  The group-algebra
triples are walked too and printed as outside that scope; some of their
walks change value, and their verdicts do not set the exit code.
"""

import argparse
import time

from pachner import invariance_run, parse_solution, perturb_q, simplex_boundary

CERTIFIED = ("bichar:Z2", "bichar:Z3")
OUTSIDE = ("triple:groupalg:Z2", "triple:groupalg:S3")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=20, help="moves per walk")
    ap.add_argument("--seeds", type=int, default=3, help="independent walks per solution")
    ap.add_argument("--backend", choices=("exact", "float"), default="exact")
    args = ap.parse_args()

    sphere = simplex_boundary(5)
    rows = []
    for scope, descs in (("certified", CERTIFIED), ("outside", OUTSIDE)):
        for desc in descs:
            sol = parse_solution(desc)
            for seed in range(args.seeds):
                t0 = time.perf_counter()
                rep = invariance_run(sphere, sol, count=args.count, seed=seed, backend=args.backend)
                rows.append((desc, scope, seed, rep.verdict, rep.fields["moves"], rep.fields["value"], time.perf_counter() - t0))

    corrupted = perturb_q(parse_solution("bichar:Z2"), seed=13)
    t0 = time.perf_counter()
    rep = invariance_run(sphere, corrupted, count=args.count, seed=0)
    rows.append((corrupted.descriptor, "control", 0, rep.verdict, rep.fields["moves"], rep.fields["value"], time.perf_counter() - t0))

    width = max(len(r[0]) for r in rows)
    print(f"{'solution':<{width}}  scope      seed  verdict  moves  value            seconds")
    for desc, scope, seed, verdict, moves, value, secs in rows:
        print(f"{desc:<{width}}  {scope:<9}  {seed:>4}  {verdict:<7}  {moves:>5}  {value:<15}  {secs:7.2f}")

    bad = [r for r in rows if r[1] == "certified" and r[3] != "pass"]
    drifted = [r for r in rows if r[1] == "control" and r[3] == "fail"]
    outside = [r for r in rows if r[1] == "outside"]
    changed = sum(r[3] != "pass" for r in outside)
    print(f"outside the certified scope: {changed} of {len(outside)} triple walks changed value")
    if bad:
        print("unexpected failures:", len(bad))
        return 1
    if not drifted:
        print("corrupted tensor did not drift; that is itself suspicious")
        return 1
    print("all certified walks invariant; corrupted control drifted as expected")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
