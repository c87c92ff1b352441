"""The runnable acceptance contract: eight named criteria with budgets.

Each criterion bundles the checks that certify one deliverable: the
six-term relation for the bicharacter family, the four-case duality
theorem, the pentagon equation, the bialgebra-style construction, the
rational interval solution, the derived Yang-Baxter family, the
simplicial move engine, and state-sum invariance on a closed complex.

The registry is consumed twice: the pytest acceptance suite asserts one
criterion per test, and the command-line selftest replays the same list
with --only filtering.  Budgets are wall-clock seconds; a criterion that
computes the right thing too slowly fails its test all the same.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from dataclasses import dataclass

from .groups import parse_group
from .scalars import Comparison, compare
from .simplicial import (
    boundary_face,
    compose_maps,
    face_map,
    pachner_sides,
    simplex_boundary,
)
from .solutions import (
    check_compatibility,
    groups_up_to_order,
    named_group_table,
    parse_solution,
    pentagon_map,
    perturb_q,
    q_from_triple,
    triple_from_table,
)
from .statesum import build_assignment, invariance_run, partition_bruteforce, partition_value, walk
from .verify import (
    dense_p33_oracle,
    verify_p33,
    verify_pentagon,
    verify_set_p33,
    verify_theorem,
    verify_yb_family,
)

SPHERE_VALUE = "1 · r^9"  # partition of the boundary of the 5-simplex


@dataclass
class CriterionResult:
    name: str
    passed: bool
    seconds: float
    budget: float
    detail: str

    @property
    def ok(self) -> bool:
        return self.passed and self.seconds < self.budget

    def line(self) -> str:
        """The criterion's report line; its wall time appears only when it
        is over budget, so a run within budget prints the same bytes every
        time."""
        word = "PASS" if self.ok else "FAIL"
        over = f" [{self.seconds:.2f}s/{self.budget:.0f}s]" if self.seconds >= self.budget else ""
        return f"{word} {self.name}{over} {self.detail}"


@dataclass(frozen=True)
class Criterion:
    name: str
    budget: float
    fn: object

    def run(self) -> CriterionResult:
        start = time.perf_counter()
        passed, detail = self.fn()
        elapsed = time.perf_counter() - start
        return CriterionResult(self.name, passed, elapsed, self.budget, detail)


def _all_pass(reports) -> tuple[bool, str]:
    bad = [r for r in reports if r.verdict != "pass"]
    if bad:
        first = bad[0]
        return False, f"{first.fields['target']}: {first.verdict} ({first.witness})"
    return True, ""


def relation_bicharacter():
    """Exact on small groups, float on larger, dense oracle cross-check.

    The stated budget applies to each sub-run; the slowest one is
    compared against it, and reported when over it.
    """
    exact = lambda sol: verify_p33(sol, backend="exact")
    floats = lambda sol: verify_p33(sol, backend="float")
    runs = [(name, exact) for name in ("Z2", "Z3", "Z4", "Z2xZ2")]
    runs += [(name, floats) for name in ("Z5", "Z6")]
    runs += [(name, dense_p33_oracle) for name in ("Z2", "Z3")]
    slowest = 0.0
    reports = []
    for name, run in runs:
        t0 = time.perf_counter()
        reports.append(run(parse_solution(f"bichar:{name}")))
        slowest = max(slowest, time.perf_counter() - t0)
    passed, why = _all_pass(reports)
    if passed and slowest >= 10.0:
        return False, f"8 runs, slowest {slowest:.2f}s/10s"
    return passed, why or "8 runs"


def duality_theorem():
    """Four proof-case transforms equal the conjugate tensor; the control
    with the constant unit function in place of the quadratic one fails."""
    names = ("Z2", "Z3", "Z4", "Z5", "Z2xZ2")
    reports = [verify_theorem(parse_group(name)) for name in names]
    passed, why = _all_pass(reports)
    if not passed:
        return False, why
    for name in names:
        group = parse_group(name)
        control = verify_theorem(group, gauss=lambda x: group.ring.one)
        if control.verdict == "pass":
            return False, f"trivial-unit control unexpectedly passed on {name}"
    return True, f"{len(names)} groups pass, {len(names)} controls fail"


def pentagon_equation():
    reports = []
    for name in ("Z2", "Z3", "Z4", "S3"):
        triple = triple_from_table(named_group_table(name), name)
        reports.append(verify_pentagon(pentagon_map(triple)))
    passed, why = _all_pass(reports)
    return passed, why or "4 group algebras"


def group_algebra_triples():
    """Every group algebra of order <= 6: all seven axioms, then the
    assembled tensor passes the six-term relation exactly."""
    checked = 0
    for name, _order in groups_up_to_order(6):
        triple = triple_from_table(named_group_table(name), name)
        failed = check_compatibility(triple)
        if failed:
            return False, f"{name}: axioms failed {failed}"
        rep = verify_p33(q_from_triple(triple), backend="exact")
        if rep.verdict != "pass":
            return False, f"{name}: relation {rep.verdict} ({rep.witness})"
        checked += 1
    return True, f"{checked} group algebras"


def interval_solution():
    rep = verify_set_p33(samples=1000, seed=1)
    return rep.verdict == "pass", rep.witness or "1000 rational points"


def yang_baxter_family():
    """All index triples pass on Z/2 and Z/3, and the family verdict
    tracks the relation verdict on 20 seeded perturbations."""
    for name in ("Z2", "Z3"):
        sol = parse_solution(f"bichar:{name}")
        rep = verify_yb_family(sol, backend="exact")
        if rep.verdict != "pass":
            return False, f"{name}: {rep.verdict} ({rep.witness})"
        size = sol.domain.size
        if rep.extras["pe1_triples"] != size**3:
            return False, f"{name}: covered {rep.extras['pe1_triples']} of {size**3} triples"
    agreements = 0
    for seed in range(20):
        sol = parse_solution("bichar:Z2" if seed % 2 else "bichar:Z3")
        bad = perturb_q(sol, seed=seed)
        a = verify_p33(bad, backend="exact").verdict
        b = verify_yb_family(bad, backend="exact").verdict
        if a != b:
            return False, f"seed {seed}: relation={a} family={b}"
        agreements += 1
    return True, f"2 exact families, {agreements} verdict agreements"


def simplicial_engine():
    """Face-map and boundary identities, shared outer boundaries for
    every splitting, the known face counts of each starting sphere and
    Euler characteristic of a pentachoron, and Euler characteristic
    across seeded moves."""
    for n in range(1, 7):
        for j in range(n):
            for i in range(j + 1):
                lhs = compose_maps(face_map(i, n), face_map(j, n - 1))
                rhs = compose_maps(face_map(j + 1, n), face_map(i, n - 1))
                if lhs != rhs:
                    return False, f"face maps differ at n={n} i={i} j={j}"
    for size in range(3, 8):
        s = tuple(3 * k + 1 for k in range(size))
        for j in range(size - 1):
            for i in range(j + 1):
                lhs = boundary_face(boundary_face(s, i), j)
                rhs = boundary_face(boundary_face(s, j + 1), i)
                if lhs != rhs:
                    return False, f"boundary faces differ at size={size} i={i} j={j}"
    splittings = 0
    for n in range(2, 7):
        for p in range(1, n + 1):
            for I in itertools.combinations(range(n + 1), p):
                J = tuple(sorted(set(range(n + 1)) - set(I)))
                before, after = pachner_sides(n, I, J)
                if before.boundary_facets() != after.boundary_facets():
                    return False, f"outer boundaries differ for n={n} I={I}"
                splittings += 1
    rng = random.Random(2026)
    for dim, quota in ((2, 34), (3, 33), (4, 33)):
        t = simplex_boundary(dim + 1)
        chi = t.euler_characteristic()
        # the boundary of the (d+1)-simplex has every proper vertex subset
        # as a face, so f_k = C(d + 2, k + 1) and chi = 1 + (-1)**d
        f = tuple(math.comb(dim + 2, k + 1) for k in range(dim + 1))
        if t.face_classes() != f or chi != 1 + (-1) ** dim:
            return False, f"dim {dim} sphere has faces {t.face_classes()} and chi {chi}"
        for site, t in itertools.islice(walk(t, range(1, dim + 2), rng), quota):
            if t.euler_characteristic() != chi:
                return False, f"chi changed in dim {dim} after move {site.I}->{site.J}"
    pentachoron = pachner_sides(5, (0,), (1, 2, 3, 4, 5))[0]
    if pentachoron.euler_characteristic() != 1:
        return False, f"a pentachoron has chi {pentachoron.euler_characteristic()}"
    return True, f"identities, {splittings} splittings, 100 chi-preserving moves"


def statesum_invariance():
    """Twenty seeded (3,3) moves keep the closed-sphere value fixed for
    both groups; the value matches the enumeration constant; a corrupted
    tensor diverges."""
    sphere = simplex_boundary(5)
    for name in ("Z2", "Z3"):
        rep = invariance_run(sphere, parse_solution(f"bichar:{name}"), count=20, seed=7)
        moves, value = rep.fields["moves"], rep.fields["value"]
        if rep.verdict != "pass" or moves != 20:
            return False, f"{name}: {rep.verdict} after {moves} moves ({rep.witness})"
        if value != SPHERE_VALUE:
            return False, f"{name}: value {value} != {SPHERE_VALUE}"
    sol = parse_solution("bichar:Z2")
    enumerated = partition_bruteforce(sphere, sol)
    if enumerated.render() != SPHERE_VALUE:
        return False, f"enumeration gave {enumerated.render()}"
    contracted = partition_value(build_assignment(sphere, sol))
    if compare(contracted, enumerated) is not Comparison.EQUAL:
        return False, "contraction and enumeration disagree"
    bad = perturb_q(sol, seed=3)
    rep = invariance_run(sphere, bad, count=20, seed=7)
    if rep.verdict == "pass":
        return False, "corrupted tensor stayed invariant"
    return True, f"2 groups x 20 moves, frozen value {SPHERE_VALUE}, control diverges"


CRITERIA = [
    Criterion("relation-bicharacter", 80.0, relation_bicharacter),
    Criterion("duality-theorem", 30.0, duality_theorem),
    Criterion("pentagon-equation", 5.0, pentagon_equation),
    Criterion("group-algebra-triples", 30.0, group_algebra_triples),
    Criterion("interval-solution", 5.0, interval_solution),
    Criterion("yang-baxter-family", 60.0, yang_baxter_family),
    Criterion("simplicial-engine", 30.0, simplicial_engine),
    Criterion("statesum-invariance", 60.0, statesum_invariance),
]


def by_name(name: str) -> Criterion:
    for crit in CRITERIA:
        if crit.name == name:
            return crit
    raise KeyError(name)


def run_all(names=None):
    chosen = CRITERIA if names is None else [by_name(n) for n in names]
    return [crit.run() for crit in chosen]
