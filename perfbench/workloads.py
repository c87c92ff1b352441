"""The four benchmark workloads: their set-up, their ops and each op's oracle.

A workload has ``prepare(data_dir)``, which does everything a user pays
before the first check (parsing solutions, building power tables and Q
tensors, loading complexes), and ``round(ctx, rng)``, which returns one
round of ops.  Every round of a workload holds the same multiset of op
kinds; the seed only drives op order, walk seeds and move picks.
That keeps the latency percentiles of whole rounds comparable across
seeds.

An op is one public-API call that yields a verdict or a value.  Its
``check`` returns None when the outcome is the expected one, otherwise a
one-line description of the mismatch.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import pachner
from pachner import simplicial, solutions

SPHERE_EXPONENT = 9  # the boundary of the 5-simplex sums to 1 · r^9
GROWN_Z2 = range(1, 13)  # (2,4)-grown spheres with 8..30 pentachora
GROWN_Z3 = range(1, 6)  # Z3 at k >= 6 takes 6.7-12.6 s per op
FLOAT_REL = 1e-9


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]


def site_key(site):
    """Order sites by content, not by the order find_move_sites returns."""
    return (site.I, site.phi, site.entries)


def sites_of_type(t, p):
    """Sites of every (p, n+1-p) splitting, as statesum.all_sites finds them,
    but sorted by content and searched without entering the statesum layer."""
    n = t.dim + 1
    found = []
    for I in itertools.combinations(range(n + 1), p):
        J = tuple(k for k in range(n + 1) if k not in I)
        found.extend(simplicial.find_move_sites(t, I, J))
    return sorted(found, key=site_key)


def grown_sphere_path(data_dir: Path, k: int) -> Path:
    return Path(data_dir) / f"grown_sphere_k{k:02d}.tri"


def interleave(streams, rng):
    """Merge op streams in a seeded order that keeps each stream's order.

    ``streams`` is a list of (length, iterator); walks are iterators
    because each move depends on the previous one.
    """
    left = [n for n, _ in streams]
    iters = [it for _, it in streams]
    total = sum(left)
    while total:
        pick = rng.randrange(total)
        for i, n in enumerate(left):
            if pick < n:
                break
            pick -= n
        left[i] -= 1
        total -= 1
        yield next(iters[i])


def single(op):
    return (1, iter([op]))


# -- oracles ------------------------------------------------------------------


def expect_verdict(want):
    def check(report):
        if report.verdict != want:
            return f"verdict {report.verdict}, expected {want} ({report.witness})"
        return None

    return check


def expect_control(frozen, exact):
    """A perturbed tensor fails at the frozen witness with the frozen values.

    The exact backend must reproduce the rendered values; the float
    backend must land within FLOAT_REL of their complex values.
    """

    def check(report):
        if report.verdict != "fail" or report.witness != frozen["witness"]:
            return f"verdict {report.verdict} at {report.witness!r}, expected fail at {frozen['witness']!r}"
        for side in ("lhs", "rhs"):
            got = report.extras.get(f"{side}_value")
            if exact:
                if got != frozen[f"{side}_value"]:
                    return f"{side} {got}, expected {frozen[side + '_value']}"
            else:
                want = complex(*frozen[f"{side}_complex"])
                if abs(complex(got) - want) > FLOAT_REL * max(abs(want), 1.0):
                    return f"{side} {got}, expected {want} within {FLOAT_REL}"
        return None

    return check


def expect_radical(exponent):
    def check(value):
        ring = value.ring
        if pachner.compare(value, ring.radical(exponent)) is not pachner.Comparison.EQUAL:
            return f"value {value.render()}, expected 1 · r^{exponent}"
        return None

    return check


def load_controls(data_dir: Path) -> dict:
    with open(Path(data_dir) / "controls.json") as fh:
        return json.load(fh)


def control_ops(ctx, rng, backend):
    """verify_p33 on every frozen perturbation of bichar:Z3, in seeded order.

    Every round runs the whole pool, and one group keeps the controls'
    latencies in one cluster, so the percentiles do not depend on which
    perturbations a seed would draw.
    """
    pool = ctx["controls"]["Z3"]
    sol = ctx["sols"]["Z3"]
    seeds = sorted(pool, key=int)
    rng.shuffle(seeds)
    ops = []
    for seed in seeds:

        def run(seed=int(seed)):
            return pachner.verify_p33(pachner.perturb_q(sol, seed=seed), backend=backend)

        check = expect_control(pool[seed], exact=backend == "exact")
        ops.append(single(Op(f"p33 {backend} bichar:Z3 perturbed {seed}", run, check)))
    return ops


# -- relation: exact relation checks --------------------------------------------


def prepare_relation(data_dir):
    sols = {g: pachner.parse_solution(f"bichar:{g}") for g in ("Z2", "Z3", "Z4", "Z2xZ2")}
    triples = {
        name: pachner.q_from_triple(pachner.triple_from_table(table, name))
        for name, table in solutions.groups_up_to_order(6)
        if len(table) >= 2
    }
    pentagons = {
        name: pachner.pentagon_map(pachner.triple_from_table(solutions.named_group_table(name), name))
        for name in ("Z2", "Z3", "Z4", "S3")
    }
    groups = {g: pachner.parse_group(g) for g in ("Z2", "Z3", "Z4", "Z5", "Z2xZ2")}
    return {
        "sols": sols,
        "triples": triples,
        "pentagons": pentagons,
        "groups": groups,
        "controls": load_controls(data_dir),
    }


def round_relation(ctx, rng):
    ok = expect_verdict("pass")
    streams = []
    for g, sol in ctx["sols"].items():
        streams.append(single(Op(f"p33 exact bichar:{g}", lambda s=sol: pachner.verify_p33(s, backend="exact"), ok)))
    for name, sol in ctx["triples"].items():
        streams.append(single(Op(f"p33 exact triple:{name}", lambda s=sol: pachner.verify_p33(s, backend="exact"), ok)))
    for name, smap in ctx["pentagons"].items():
        streams.append(single(Op(f"pentagon {name}", lambda m=smap: pachner.verify_pentagon(m), ok)))
    for g in ("Z2", "Z3"):
        sol = ctx["sols"][g]
        streams.append(single(Op(f"yb exact {g}", lambda s=sol: pachner.verify_yb_family(s, backend="exact"), ok)))
    for g, group in ctx["groups"].items():
        streams.append(single(Op(f"theorem {g}", lambda grp=group: pachner.verify_theorem(grp), ok)))

        def control(grp=group):
            return pachner.verify_theorem(grp, gauss=lambda x: grp.ring.one)

        streams.append(single(Op(f"theorem {g} trivial unit", control, expect_verdict("fail"))))
    streams += control_ops(ctx, rng, "exact")
    return interleave(streams, rng)


# -- relation-float: the same checks with complex entries ---------------------------


def prepare_relation_float(data_dir):
    sols = {g: pachner.parse_solution(f"bichar:{g}") for g in ("Z2", "Z3", "Z4", "Z2xZ2", "Z5", "Z6")}
    s3 = pachner.q_from_triple(pachner.triple_from_table(solutions.named_group_table("S3"), "S3"))
    return {"sols": sols, "s3": s3, "controls": load_controls(data_dir)}


def round_relation_float(ctx, rng):
    ok = expect_verdict("pass")
    streams = []
    targets = [ctx["sols"][g] for g in ("Z4", "Z2xZ2", "Z5", "Z6")] + [ctx["s3"]]
    for sol in targets:
        run = lambda s=sol: pachner.verify_p33(s, backend="float", rel=FLOAT_REL)
        streams.append(single(Op(f"p33 float {sol.descriptor}", run, ok)))
    for g in ("Z2", "Z3"):
        sol = ctx["sols"][g]
        streams.append(single(Op(f"yb float {g}", lambda s=sol: pachner.verify_yb_family(s, backend="float"), ok)))
    for g in ("Z2", "Z3", "Z4"):
        sol = ctx["sols"][g]
        streams.append(single(Op(f"dense {g}", lambda s=sol: pachner.dense_p33_oracle(s), ok)))
    streams += control_ops(ctx, rng, "float")
    return interleave(streams, rng)


# -- moves: seeded walks over every move type -------------------------------------


# Many short walks per dimension: how far a walk grows depends on its
# seed, and averaging over walks keeps the latency quantiles steady.
MOVE_DIMS = (2, 3, 4)
WALKS_PER_DIM = 8
MOVES_PER_WALK = 4


def prepare_moves(data_dir):
    return {"spheres": {dim: pachner.simplex_boundary(dim + 1) for dim in MOVE_DIMS}}


def move_walk(sphere, length, rng):
    state = {"t": sphere}
    chi = sphere.euler_characteristic()

    def run():
        t = state["t"]
        sites = []
        for p in range(1, t.dim + 2):
            sites.extend(sites_of_type(t, p))
        site = sites[rng.randrange(len(sites))]
        moved = pachner.apply_move(t, site)
        state["t"] = moved
        grow = len(site.J) - len(site.I)
        return (len(t.simplexes) + grow, moved, moved.euler_characteristic(), moved.is_closed())

    def check(outcome):
        want_tops, moved, got_chi, closed = outcome
        if got_chi != chi or not closed or len(moved.simplexes) != want_tops:
            return f"chi {got_chi} (want {chi}), closed {closed}, tops {len(moved.simplexes)} (want {want_tops})"
        return None

    for step in range(length):
        yield Op(f"move dim {sphere.dim} step {step}", run, check)


def round_moves(ctx, rng):
    streams = []
    for dim in MOVE_DIMS:
        for _ in range(WALKS_PER_DIM):
            walk_rng = random.Random(rng.getrandbits(64))
            streams.append((MOVES_PER_WALK, move_walk(ctx["spheres"][dim], MOVES_PER_WALK, walk_rng)))
    return interleave(streams, rng)


# -- statesum: exact state sums on closed 4-manifolds ---------------------------------


STATESUM_WALKS = (("Z2", 40), ("Z3", 20))  # (group, (3,3) moves per walk)
PERTURBED_WALKS = 3
PERTURBED_MOVES = 20
PERTURB_SEED = 3


def prepare_statesum(data_dir):
    sols = {g: pachner.parse_solution(f"bichar:{g}") for g in ("Z2", "Z3")}
    grown = {k: pachner.Triangulation.load(grown_sphere_path(data_dir, k)) for k in GROWN_Z2}
    return {
        "sols": sols,
        "sphere": pachner.simplex_boundary(5),
        "grown": grown,
        "perturbed": pachner.perturb_q(sols["Z2"], seed=PERTURB_SEED),
    }


def statesum_walk(sphere, sol, length, rng):
    state = {"t": sphere}
    check = expect_radical(SPHERE_EXPONENT)

    def run():
        sites = sites_of_type(state["t"], 3)
        state["t"] = pachner.apply_move(state["t"], sites[rng.randrange(len(sites))])
        return pachner.partition_value(pachner.build_assignment(state["t"], sol))

    for step in range(length):
        yield Op(f"statesum {sol.descriptor} (3,3) step {step}", run, check)


def round_statesum(ctx, rng):
    streams = []
    for group, length in STATESUM_WALKS:
        walk_rng = random.Random(rng.getrandbits(64))
        streams.append((length, statesum_walk(ctx["sphere"], ctx["sols"][group], length, walk_rng)))
    for group, ks in (("Z2", GROWN_Z2), ("Z3", GROWN_Z3)):
        sol = ctx["sols"][group]
        for k in ks:
            run = lambda t=ctx["grown"][k], s=sol: pachner.partition_value(pachner.build_assignment(t, s))
            check = expect_radical(SPHERE_EXPONENT + k)
            streams.append(single(Op(f"statesum {sol.descriptor} grown k={k}", run, check)))
    for _ in range(PERTURBED_WALKS):
        seed = rng.randrange(1 << 30)

        def diverge(seed=seed):
            return pachner.invariance_run(ctx["sphere"], ctx["perturbed"], count=PERTURBED_MOVES, seed=seed)

        streams.append(single(Op(f"statesum perturbed walk {seed}", diverge, expect_verdict("fail"))))
    return interleave(streams, rng)


@dataclass(frozen=True)
class Workload:
    name: str
    prepare: Callable
    round: Callable


WORKLOADS = {
    w.name: w
    for w in (
        Workload("relation", prepare_relation, round_relation),
        Workload("relation-float", prepare_relation_float, round_relation_float),
        Workload("moves", prepare_moves, round_moves),
        Workload("statesum", prepare_statesum, round_statesum),
    )
}
