"""State-sum evaluation in any dimension, and move invariance on
4-dimensional complexes."""

import itertools
import math
import random
from pathlib import Path

import pytest

from pachner.scalars import Comparison, compare
from pachner.simplicial import Triangulation, apply_move, simplex_boundary, pachner_sides
from pachner.solutions import (
    SolutionSpec,
    named_group_table,
    parse_solution,
    pentagon_map,
    perturb_q,
    triple_from_table,
)
from pachner import simplicial, statesum, verify
from pachner.statesum import (
    all_sites,
    build_assignment,
    check_plan,
    invariance_run,
    partition,
    partition_bruteforce,
    partition_value,
    plan,
    slot_labels,
    walk,
)
from pachner.tensors import DOWN, UP, BasisDomain, GroupTensor, contract, tensor_equal
from pachner.verify import p33_sides, verify_pentagon
from reference import INCOHERENT_SPHERES, all_splittings, flipped_sphere

DATA = Path(__file__).resolve().parent.parent / "data"
PERFBENCH_DATA = DATA.parent / "perfbench" / "data"


def direct_boundary_sum(a):
    """Entry-product oracle: no contraction machinery involved.

    Iterates over one nonzero entry per top simplex, keeps the products
    whose glued slots agree, and accumulates them under the boundary key
    in the assignment's canonical order, weighted c per pairing.
    """
    pair_slot = {}
    for idx, (s1, s2) in enumerate(a.pairings):
        pair_slot[s1] = idx
        pair_slot[s2] = idx
    out_slots = [(e, f) for (_, e, f) in a.boundary]
    acc = {}

    def rec(e, states, prod):
        if e == len(a.tensors):
            key = tuple(states[("out", s)] for s in out_slots)
            prev = acc.get(key)
            acc[key] = prod if prev is None else prev + prod
            return
        for entry_key, val in a.tensors[e].entries.items():
            updates = []
            ok = True
            for f, state in enumerate(entry_key):
                slot = (e, f)
                tag = ("pair", pair_slot[slot]) if slot in pair_slot else ("out", slot)
                if tag in states:
                    if states[tag] != state:
                        ok = False
                        break
                else:
                    updates.append(tag)
                    states[tag] = state
            if ok:
                rec(e + 1, states, prod * val if prod is not None else val)
            for tag in updates:
                del states[tag]

    rec(0, {}, None)
    weight = a.tensors[0].ring.radical(-len(a.pairings))
    return {k: weight * v for k, v in acc.items()}


def doubled_pentachoron():
    """Two mirror copies of one pentachoron glued along all five facets."""
    return Triangulation(
        4, [((0, 1, 2, 3, 4), 1), ((0, 1, 2, 3, 4), -1)]
    )


def test_lone_pentachoron_is_q_with_sorted_boundary():
    sol = parse_solution("bichar:Z2")
    t = Triangulation(4, [((0, 1, 2, 3, 4), 1)])
    a = build_assignment(t, sol, "exact")
    assert a.pairings == []
    assert [face for face, _, _ in a.boundary] == [
        (0, 1, 2, 3),
        (0, 1, 2, 4),
        (0, 1, 3, 4),
        (0, 2, 3, 4),
        (1, 2, 3, 4),
    ]
    got = partition(a)
    assert got.variances == (UP, DOWN, UP, DOWN, UP)
    assert tensor_equal(got, sol.q.permute([4, 3, 2, 1, 0]))


def test_negative_pentachoron_carries_conjugate():
    sol = parse_solution("bichar:Z3")
    t = Triangulation(4, [((0, 1, 2, 3, 4), -1)])
    got = partition(build_assignment(t, sol, "exact"))
    assert got.variances == (DOWN, UP, DOWN, UP, DOWN)
    assert tensor_equal(got, sol.q.conj().permute([4, 3, 2, 1, 0]))


def test_two_glued_pentachora_match_entry_product_oracle():
    sol = parse_solution("bichar:Z2")
    t = Triangulation(4, [((0, 1, 2, 3, 4), 1), ((0, 1, 2, 3, 5), -1)])
    a = build_assignment(t, sol, "exact")
    assert a.pairings == [((0, 4), (1, 4))]
    got = partition(a)
    assert got.arity == 8
    expected = direct_boundary_sum(a)
    assert set(got.entries) == set(expected)
    for key, val in expected.items():
        assert compare(got.entry(key), val) is Comparison.EQUAL


def test_incoherent_gluing_names_the_tetrahedron():
    sol = parse_solution("bichar:Z2")
    t = Triangulation(4, [((0, 1, 2, 3, 4), 1), ((0, 1, 2, 3, 5), 1)])
    with pytest.raises(ValueError, match=r"\(0, 1, 2, 3\)"):
        build_assignment(t, sol, "exact")


def test_incoherent_gluing_in_3d_names_the_triangle():
    sol = placed_on_a_tetrahedron(group_pentagon_map("Z2"))
    t = Triangulation(3, [((0, 1, 2, 3), 1), ((0, 1, 2, 4), 1)])
    with pytest.raises(ValueError) as refused:
        build_assignment(t, sol, "exact")
    assert str(refused.value) == (
        "triangle (0, 1, 2) is presented with equal variance by "
        "entries 0 and 1; outside the certified scope"
    )


@pytest.mark.parametrize("flips, pair, tetrahedron", INCOHERENT_SPHERES)
def test_incoherence_is_refused_at_the_least_pair(flips, pair, tetrahedron):
    # several pairs are incoherent; the refusal names the least one,
    # whatever order the gluing is listed in
    (e1, _), (e2, _) = pair
    want = (
        f"tetrahedron {tetrahedron} is presented with equal variance by "
        f"entries {e1} and {e2}; outside the certified scope"
    )
    for reverse in (False, True):
        with pytest.raises(ValueError) as refused:
            build_assignment(flipped_sphere(flips, reverse), parse_solution("bichar:Z2"))
        assert str(refused.value) == want


def test_build_assignment_guards():
    sol = parse_solution("bichar:Z2")
    with pytest.raises(ValueError, match="3-dimensional complex needs a tensor of 4 slots; bichar:Z2 has 5"):
        build_assignment(simplex_boundary(4), sol)
    with pytest.raises(ValueError, match="solution tensor"):
        build_assignment(simplex_boundary(5), parse_solution("set"))


def test_move_balls_have_equal_boundary_tensors():
    """The state-sum restatement of the six-term identity."""
    before, after = pachner_sides(5, (0, 2, 4), (1, 3, 5))
    for desc in ("bichar:Z2", "triple:groupalg:Z3"):
        sol = parse_solution(desc)
        pb = partition(build_assignment(before, sol, "exact"))
        pa = partition(build_assignment(after, sol, "exact"))
        assert pb.arity == 9
        assert [face for face, _, _ in build_assignment(before, sol).boundary] == [
            face for face, _, _ in build_assignment(after, sol).boundary
        ]
        rep = tensor_equal(pb, pa)
        assert rep, rep.witness


def test_move_balls_match_entry_product_oracle():
    before, _ = pachner_sides(5, (0, 2, 4), (1, 3, 5))
    sol = parse_solution("bichar:Z2")
    a = build_assignment(before, sol, "exact")
    assert len(a.pairings) == 3
    got = partition(a)
    expected = direct_boundary_sum(a)
    assert set(got.entries) == set(expected)
    for key, val in expected.items():
        assert compare(got.entry(key), val) is Comparison.EQUAL


def test_ball_values_match_relation_side_values_as_multisets():
    """Ball boundary tensors hold the same entry values as the two
    relation sides, just indexed by tetrahedra instead of slot names."""
    sol = parse_solution("bichar:Z2")
    before, after = pachner_sides(5, (0, 2, 4), (1, 3, 5))
    lhs, rhs = p33_sides(sol.q)
    pb = partition(build_assignment(before, sol, "exact"))
    pa = partition(build_assignment(after, sol, "exact"))
    ball_vals = sorted(v.render() for v in pb.entries.values())
    assert ball_vals == sorted(v.render() for v in lhs.entries.values())
    assert ball_vals == sorted(v.render() for v in rhs.entries.values())
    assert ball_vals == sorted(v.render() for v in pa.entries.values())


def generic_tensor(size, variances, seed):
    """A tensor over BasisDomain(size) with seeded integer entries, zeros
    included, that satisfies no relation."""
    domain, rng = BasisDomain(size), random.Random(seed)
    entries = {
        key: domain.ring.integer(rng.randrange(-3, 4))
        for key in itertools.product(domain.elements(), repeat=len(variances))
    }
    return GroupTensor(domain, variances, entries)


def generic_solution(seed):
    q = generic_tensor(2, (UP, DOWN, UP, DOWN, UP), seed)
    return SolutionSpec("generic", f"generic:{seed}", q.domain, q)


# every catalogue solution whose balls ENTRY_GUARD admits, and 20
# perturbed controls
DISTINGUISHED_BALL_CASES = (
    [("generic", 7)]
    + [(f"bichar:{g}", None) for g in ("Z2", "Z3", "Z4", "Z5", "Z2xZ2")]
    + [(f"triple:groupalg:{g}", None) for g in ("Z1", "Z2", "Z3", "Z4", "Z2xZ2", "Z5")]
    + [
        (f"{kind}:{g}", seed)
        for kind in ("bichar", "triple:groupalg")
        for g in ("Z2", "Z3")
        for seed in range(5)
    ]
)


@pytest.mark.parametrize("descriptor, seed", DISTINGUISHED_BALL_CASES)
def test_p33_sides_are_the_distinguished_ball_pair(descriptor, seed):
    """verify p33 checks the state-sum tensors of the (3,3) move's balls
    on I = {0,2,4}, J = {1,3,5}, in one slot order, for any Q: the
    relation's nine slots (i,l,m,j,n,k; p,q,r) are the balls' boundary
    tetrahedra permuted by (8,7,6,3,2,0,5,4,1).  A seed perturbs a
    catalogue solution, a control that satisfies no relation."""
    if descriptor == "generic":
        sol = generic_solution(seed)
    else:
        sol = parse_solution(descriptor)
        sol = sol if seed is None else perturb_q(sol, seed=seed)
    balls = pachner_sides(5, (0, 2, 4), (1, 3, 5))
    for ball, side in zip(balls, p33_sides(sol.q)):
        got = partition(build_assignment(ball, sol)).permute((8, 7, 6, 3, 2, 0, 5, 4, 1))
        assert got.variances == side.variances
        rep = tensor_equal(got, side)
        assert rep, rep.lines()


def group_pentagon_map(name):
    return pentagon_map(triple_from_table(named_group_table(name), name))


def placed_on_a_tetrahedron(s):
    """S on a tetrahedron's facets (0, 2, 1, 3): outputs on the even facets."""
    return SolutionSpec("pentagon", "pentagon", s.domain, s.permute((0, 2, 1, 3)))


PENTAGON_BALLS = pachner_sides(4, (0, 2, 4), (1, 3))


@pytest.mark.parametrize(
    "size, seed, group",
    [(size, seed, None) for size in (2, 3) for seed in range(3)]
    + [(None, None, g) for g in ("Z2", "Z3", "Z4", "Z2xZ2", "S3")],
)
def test_pentagon_sides_are_the_distinguished_3d_ball_pair(size, seed, group, monkeypatch):
    """verify pentagon checks the state-sum tensors of the (3,2) move's
    balls on I = {0,2,4}, J = {1,3}, with S placed by (0,2,1,3), for any
    S: the sides' six slots are the balls' boundary triangles permuted by
    (5,4,1,3,2,0).  A generic S satisfies no pentagon equation."""
    s = group_pentagon_map(group) if group else generic_tensor(size, (UP, UP, DOWN, DOWN), seed)
    compared, equal = [], verify.tensor_equal

    def recording_equal(a, b, rel=1e-9):
        compared.append((a, b))
        return equal(a, b, rel)

    monkeypatch.setattr(verify, "tensor_equal", recording_equal)
    verify_pentagon(s)
    ((lhs, rhs),) = compared
    sol = placed_on_a_tetrahedron(s)
    for ball, side in zip(PENTAGON_BALLS, (lhs, rhs)):
        got = partition(build_assignment(ball, sol)).permute((5, 4, 1, 3, 2, 0))
        assert got.variances == side.variances
        rep = tensor_equal(got, side)
        assert rep, rep.lines()


@pytest.mark.parametrize("group", ["Z2", "S3"])
def test_3d_balls_match_entry_product_oracle(group):
    sol = placed_on_a_tetrahedron(group_pentagon_map(group))
    for ball in PENTAGON_BALLS:
        a = build_assignment(ball, sol)
        got = partition(a)
        expected = direct_boundary_sum(a)
        assert set(got.entries) == set(expected)
        for key, val in expected.items():
            assert compare(got.entry(key), val) is Comparison.EQUAL


@pytest.mark.parametrize("group, value", [("Z2", "8"), ("Z3", "27")])
def test_3_sphere_bruteforce_matches_contraction(group, value):
    sphere, sol = simplex_boundary(4), placed_on_a_tetrahedron(group_pentagon_map(group))
    got = partition_value(build_assignment(sphere, sol))
    assert got.render() == value
    assert compare(partition_bruteforce(sphere, sol), got) is Comparison.EQUAL


def test_contraction_order_does_not_change_results():
    sol = parse_solution("bichar:Z3")
    before, _ = pachner_sides(5, (0, 2, 4), (1, 3, 5))
    a = build_assignment(before, sol, "exact")
    assert tensor_equal(partition(a, "greedy"), partition(a, "left"))
    sphere = simplex_boundary(5)
    b = build_assignment(sphere, sol, "exact")
    v1 = partition_value(b, "greedy")
    v2 = partition_value(b, "left")
    assert compare(v1, v2) is Comparison.EQUAL
    with pytest.raises(ValueError, match="contraction order"):
        partition(a, "zigzag")


def test_sphere_value_is_ninth_radical_power():
    sphere = simplex_boundary(5)
    for desc in ("bichar:Z2", "bichar:Z3"):
        sol = parse_solution(desc)
        value = partition_value(build_assignment(sphere, sol, "exact"))
        assert value.render() == "1 · r^9"
    n2 = partition_value(build_assignment(sphere, parse_solution("bichar:Z2"), "float"))
    assert abs(n2 - 2**4.5) < 1e-9
    n3 = partition_value(build_assignment(sphere, parse_solution("bichar:Z3"), "float"))
    assert abs(n3 - 3**4.5) < 1e-8


def test_float_backend_matches_exact_on_a_basis_domain():
    # r = 1 on a BasisDomain, in both backends
    sphere = Triangulation.load(DATA / "boundary_delta5.tri")
    sol = parse_solution("triple:groupalg:Z2")
    assert partition_value(build_assignment(sphere, sol, "exact")) == 8
    for value in (
        partition_value(build_assignment(sphere, sol, "float")),
        partition_bruteforce(sphere, sol, "float"),
    ):
        assert abs(value - 8) < 1e-9


def test_float_bruteforce_finds_no_entry_by_key(monkeypatch):
    # a float tensor's get and [] scan every code; the enumeration reads
    # each distinct tensor once instead
    from pachner.scalars import _FloatEntries

    sphere = Triangulation.load(DATA / "boundary_delta5.tri")
    sol = parse_solution("triple:groupalg:Z2")
    for name in ("get", "__getitem__"):
        monkeypatch.setattr(_FloatEntries, name, lambda *args, name=name: pytest.fail(name))
    assert abs(partition_bruteforce(sphere, sol, "float") - 8) < 1e-9


def test_sphere_value_matches_state_enumeration():
    sphere = simplex_boundary(5)
    sol = parse_solution("bichar:Z2")
    via_contraction = partition_value(build_assignment(sphere, sol, "exact"))
    via_enumeration = partition_bruteforce(sphere, sol, "exact")
    assert compare(via_contraction, via_enumeration) is Comparison.EQUAL
    assert via_enumeration.render() == "1 · r^9"


def test_bruteforce_rejects_boundary():
    before, _ = pachner_sides(5, (0, 2, 4), (1, 3, 5))
    with pytest.raises(ValueError, match="closed"):
        partition_bruteforce(before, parse_solution("bichar:Z2"))


def test_partition_value_rejects_boundary():
    before, _ = pachner_sides(5, (0, 2, 4), (1, 3, 5))
    a = build_assignment(before, parse_solution("bichar:Z2"))
    with pytest.raises(ValueError, match="boundary"):
        partition_value(a)


def test_doubled_pentachoron_value():
    """Closed double: c^5 times the squared norm of the solution tensor."""
    t = doubled_pentachoron()
    assert t.is_closed() and t.orientation_witness() is None
    sol = parse_solution("bichar:Z2")
    value = partition_value(build_assignment(t, sol, "exact"))
    ring = sol.domain.ring
    expected = ring.zero
    for val in sol.q.entries.values():
        expected = expected + val * val.conj()
    expected = ring.radical(-5) * expected
    assert compare(value, expected) is Comparison.EQUAL
    enumerated = partition_bruteforce(t, sol)
    assert compare(value, enumerated) is Comparison.EQUAL


def test_relabeling_preserves_the_value():
    sphere = simplex_boundary(5)
    shifted = Triangulation(4, [(tuple(10 * v + 3 for v in s), sign) for s, sign in sphere.simplexes])
    sol = parse_solution("bichar:Z3")
    v1 = partition_value(build_assignment(sphere, sol, "exact"))
    v2 = partition_value(build_assignment(shifted, sol, "exact"))
    assert compare(v1, v2) is Comparison.EQUAL


def disjoint_union():
    """Five lone pentachora: every merge is an outer product, 25 slots at the end."""
    return Triangulation(4, [(tuple(range(10 * k, 10 * k + 5)), 1) for k in range(5)])


def test_arity_guard_trips_on_disjoint_union(monkeypatch):
    a = build_assignment(disjoint_union(), parse_solution("bichar:Z2"), "exact")
    calls = []
    monkeypatch.setattr(statesum, "contract", lambda *args: calls.append(args))
    with pytest.raises(ValueError) as err:
        partition(a)
    assert str(err.value) == "intermediate tensor would carry 25 slots (guard 22)"
    assert calls == []


def test_arity_guard_counts_the_materialised_arity(monkeypatch):
    # On the sphere, greedy merges two operands of 8 slots sharing 4
    # pairings: 8 slots materialised, 14 if bound one at a time.
    a = build_assignment(simplex_boundary(5), parse_solution("bichar:Z3"), "exact")
    expected = partition_value(a)
    monkeypatch.setattr(statesum, "ARITY_GUARD", 8)
    assert compare(partition_value(a), expected) is Comparison.EQUAL
    monkeypatch.setattr(statesum, "ARITY_GUARD", 7)
    with pytest.raises(ValueError, match="8 slots"):
        partition(a)


def test_entry_guard_refuses_plans_by_their_states():
    steps = plan_of(Triangulation.load(PERFBENCH_DATA / "grown_sphere_k09.tri"), "left")
    assert max(step.arity for step in steps) == 21
    check_plan(steps, 2)
    with pytest.raises(ValueError) as err:
        check_plan(steps, 3)
    first = next(step.arity for step in steps if 3**step.arity > statesum.ENTRY_GUARD)
    assert first == 15
    assert str(err.value) == (
        "intermediate tensor of 15 slots over 3 states may hold 14348907 entries (guard 4194304)"
    )
    check_plan(plan_of(Triangulation.load(PERFBENCH_DATA / "grown_sphere_k09.tri"), "greedy"), 3)


def test_entry_guard_admits_the_plans_that_run():
    def step(arity):
        return statesum.Step(0, 1, (), (), arity)

    # Z2 up to the slot guard, Z3 up to 13 slots (grown 38 peaks at 12),
    # the six-element basis of triple:groupalg:S3 up to 8 (the sphere's peak)
    for size, arity, refusal in [(2, 22, "would carry 23 slots"), (3, 13, "may hold"), (6, 8, "may hold")]:
        check_plan([step(arity)], size)
        with pytest.raises(ValueError, match=refusal):
            check_plan([step(arity + 1)], size)


def test_partition_checks_entries_before_contracting(monkeypatch):
    a = build_assignment(simplex_boundary(5), parse_solution("bichar:Z3"), "exact")
    monkeypatch.setattr(statesum, "ENTRY_GUARD", 3**8 - 1)
    monkeypatch.setattr(statesum, "contract", lambda *args: pytest.fail("contracted"))
    with pytest.raises(ValueError, match="8 slots over 3 states may hold 6561 entries"):
        partition(a)


def grown_sphere(k):
    """simplex_boundary(5) after k seeded (2,4) moves: 6 + 2k pentachora."""
    t = simplex_boundary(5)
    rng = random.Random(1)
    for _ in range(k):
        sites = all_sites(t, 2)
        t = apply_move(t, sites[rng.randrange(len(sites))])
    return t


def plan_of(t, order):
    a = build_assignment(t, parse_solution("bichar:Z2"), "exact")
    return plan(slot_labels(a), order)[0]


def test_greedy_plan_is_the_recorded_merge_list():
    # (left, right, s1, s2, arity) per merge, as the smallest-result key
    # chooses them; operand n + k is merge k's result
    recorded = {
        0: [
            (0, 1, (0,), (0,), 8),
            (2, 3, (2,), (2,), 8),
            (6, 7, (0, 4, 1, 5), (0, 1, 4, 5), 8),
            (4, 8, (0, 1, 2, 3), (0, 2, 4, 6), 5),
            (5, 9, (4, 0, 1, 2, 3), (0, 1, 2, 3, 4), 0),
        ],
        3: [
            (0, 4, (0, 2), (0, 2), 6),
            (1, 9, (0, 2), (0, 2), 6),
            (2, 5, (0, 3), (0, 3), 6),
            (3, 11, (0, 3), (0, 3), 6),
            (6, 8, (0, 2), (0, 2), 6),
            (7, 10, (0, 3), (0, 3), 6),
            (12, 14, (1, 4), (0, 3), 8),
            (13, 15, (2, 5), (1, 4), 8),
            (18, 19, (0, 4, 1, 5), (0, 1, 4, 5), 8),
            (16, 20, (0, 2, 3, 5), (0, 1, 4, 6), 6),
            (17, 21, (0, 3, 1, 2, 4, 5), (0, 1, 2, 3, 4, 5), 0),
        ],
    }
    for k, merges in recorded.items():
        steps = plan_of(grown_sphere(k), "greedy")
        assert [(s.left, s.right, s.s1, s.s2, s.arity) for s in steps] == merges


def most_shared_peak(labels):
    """Peak arity when greedy merges the live pair sharing the most labels,
    ties to the lowest operand numbers: the reference the smallest-result
    key must never exceed."""
    ops = [tuple(l) for l in labels]
    live, peak = list(range(len(ops))), 0
    while len(live) > 1:
        _, x, y = min(
            (-len(set(ops[x]).intersection(ops[y])), x, y)
            for x, y in itertools.combinations(live, 2)
        )
        shared = set(ops[x]).intersection(ops[y])
        ops.append(tuple(l for l in ops[x] + ops[y] if l not in shared))
        peak = max(peak, len(ops[-1]))
        live = [z for z in live if z not in (x, y)] + [len(ops) - 1]
    return peak


def test_greedy_peak_is_never_above_the_most_shared_key():
    paths = sorted(DATA.glob("*.tri")) + sorted(PERFBENCH_DATA.glob("*.tri"))
    peaks = {}
    for path in paths:
        labels = slot_labels(
            build_assignment(Triangulation.load(path), parse_solution("bichar:Z2"), "exact")
        )
        new = max((step.arity for step in plan(labels)[0]), default=0)
        peaks[path.stem] = (most_shared_peak(labels), new)
        assert new <= peaks[path.stem][0], path.name
    assert len(peaks) == 16
    assert peaks["boundary_delta5"] == (9, 8)
    assert peaks["grown_sphere_k06"] == (11, 9)
    assert peaks["grown_sphere_k12"] == (13, 12)


def test_left_plan_folds_pentachora_in_entry_order():
    for t in [Triangulation.load(path) for path in sorted(DATA.glob("*.tri"))] + [grown_sphere(3)]:
        n = len(t.simplexes)
        steps = plan_of(t, "left")
        assert len(steps) == n - 1
        for k, step in enumerate(steps):
            assert (step.left, step.right) == (0 if k == 0 else n + k - 1, k + 1)


@pytest.mark.parametrize("order", ["greedy", "left"])
def test_plan_arities_are_the_contracted_arities(monkeypatch, order):
    built = []

    def recording(*args):
        out = contract(*args)
        built.append(out.arity)
        return out

    monkeypatch.setattr(statesum, "contract", recording)
    for path in sorted(DATA.glob("*.tri")):
        a = build_assignment(Triangulation.load(path), parse_solution("bichar:Z2"), "exact")
        built.clear()
        partition(a, order)
        assert built == [step.arity for step in plan(slot_labels(a), order)[0]], path.name


def test_sphere_has_twenty_move_sites():
    sites = all_sites(simplex_boundary(5), 3)
    assert len(sites) == 20
    assert len({site.I for site in sites}) == 20


def test_all_sites_refuses_moves_past_the_splitting_limit(monkeypatch):
    # a single simplex of dimension d has C(d + 2, p) splittings of its
    # (p, d + 2 - p) move; the limit admits the 18-simplex's (10,10) move
    assert math.comb(20, 10) <= simplicial.SPLITTINGS_LIMIT < math.comb(22, 11)
    monkeypatch.setattr(Triangulation, "_move_sites", lambda *args: pytest.fail("searched"))
    simplex20 = Triangulation(20, [(tuple(range(21)), 1)])
    with pytest.raises(ValueError, match="have 705432 splittings, over the limit of 262144"):
        all_sites(simplex20, 11)
    monkeypatch.setattr(simplicial, "SPLITTINGS_LIMIT", math.comb(22, 11))
    with pytest.raises(pytest.fail.Exception, match="searched"):
        all_sites(simplex20, 11)


@pytest.mark.parametrize("p", [-1, 0, 6, 7])
def test_all_sites_refuses_a_move_type_outside_the_dimension(monkeypatch, p):
    # one message for every p outside 1..n, before any search, as
    # invariance_run gives
    monkeypatch.setattr(Triangulation, "_move_sites", lambda *args: pytest.fail("searched"))
    want = rf"^move type \({p},{6 - p}\) needs 1 <= p <= 5$"
    t = simplex_boundary(5)
    with pytest.raises(ValueError, match=want):
        all_sites(t, p)
    with pytest.raises(ValueError, match=want):
        next(walk(t, (p,), random.Random(1)))
    with pytest.raises(ValueError, match=want):
        invariance_run(t, parse_solution("bichar:Z2"), count=1, seed=0, p=p)


def test_all_sites_equal_the_search_of_each_splitting_in_turn():
    # walks over every move type in dimensions 2-4, the balls each move
    # starts from and produces, and a walked complex with one entry's
    # orientation reversed; all_sites runs first, on a complex with no
    # site listed yet
    rng = random.Random(5)
    complexes = []
    for dim in (2, 3, 4):
        splittings = list(all_splittings(dim + 1))
        complexes.extend(side for I, J in splittings for side in pachner_sides(dim + 1, I, J))
        t = simplex_boundary(dim + 1)
        for _ in range(12):
            complexes.append(t)
            found = [s for I, J in splittings for s in simplicial.find_move_sites(t, I, J)]
            t = apply_move(t, rng.choice(found))
        flipped = [(v, -s if k == 1 else s) for k, (v, s) in enumerate(t.simplexes)]
        complexes.append(Triangulation(dim, flipped, t.gluing))
    found = set()
    for t in complexes:
        fresh = Triangulation(t.dim, t.simplexes, t.gluing)
        for p in range(1, t.dim + 2):
            expected = [
                site
                for I, J in all_splittings(t.dim + 1)
                if len(I) == p
                for site in simplicial.find_move_sites(t, I, J)
            ]
            assert all_sites(fresh, p) == expected, (t, p)
            found.update((t.dim, site.I) for site in expected)
    # every splitting of every dimension has a site somewhere, but the
    # (1, n) moves, which only I = {n} supports
    assert len(found) == sum(2 ** (d + 2) - 2 - (d + 1) for d in (2, 3, 4))


def test_invariance_run_exact():
    sphere = simplex_boundary(5)
    for desc in ("bichar:Z2", "bichar:Z3"):
        rep = invariance_run(sphere, parse_solution(desc), count=8, seed=7)
        assert rep.verdict == "pass"
        assert rep.fields["moves"] == 8
        assert rep.fields["value"] == "1 · r^9"


def test_invariance_run_lines_are_deterministic():
    sphere = simplex_boundary(5)
    runs = [
        invariance_run(sphere, parse_solution("bichar:Z2"), count=6, seed=42).lines()
        for _ in range(2)
    ]
    assert runs[0] == runs[1]
    assert "verdict=pass" in runs[0]


def test_invariance_run_float_backend():
    sphere = simplex_boundary(5)
    rep = invariance_run(sphere, parse_solution("bichar:Z2"), count=5, seed=11, backend="float")
    assert rep.verdict == "pass"
    assert rep.fields["backend"] == "float"
    assert rep.fields["max_rel_error"] < 1e-12
    assert any(line.startswith("max_rel_error=") for line in rep.lines())


def test_invariance_run_detects_corrupted_solution():
    sphere = simplex_boundary(5)
    bad = perturb_q(parse_solution("bichar:Z2"), seed=3)
    rep = invariance_run(sphere, bad, count=10, seed=7)
    assert rep.verdict == "fail"
    assert rep.fields["moves"] < 10
    assert "step" in rep.witness


def test_invariance_run_without_sites_reports_and_passes():
    t = doubled_pentachoron()
    rep = invariance_run(t, parse_solution("bichar:Z2"), count=4, seed=1)
    assert rep.verdict == "pass"
    assert rep.fields["moves"] == 0
    assert "no (3,3) site" in rep.extras["note"]


def single_type_loop(t, p, count, seed):
    """The move loop invariance_run and the moves walk command each wrote
    out before ``walk``: the reference for a walk of one type."""
    rng = random.Random(seed)
    steps = []
    for _ in range(count):
        sites = all_sites(t, p)
        if not sites:
            break
        site = sites[rng.randrange(len(sites))]
        t = apply_move(t, site)
        steps.append((site, t))
    return steps


def every_type_loop(t, quota, rng):
    """The simplicial-engine criterion's move loop before ``walk``: the
    sites of every type, listed in type order."""
    steps = []
    for _ in range(quota):
        sites = []
        for p in range(1, t.dim + 2):
            sites.extend(all_sites(t, p))
        site = sites[rng.randrange(len(sites))]
        t = apply_move(t, site)
        steps.append((site, t))
    return steps


def walked(steps):
    return [(site, t.to_lines()) for site, t in steps]


@pytest.mark.parametrize("dim,count", [(2, 12), (3, 10), (4, 8)])
def test_walk_repeats_the_loops_it_replaced(dim, count):
    start = simplex_boundary(dim + 1)
    for seed in range(10):
        for p in (3, 2):
            steps = itertools.islice(walk(start, (p,), random.Random(seed)), count)
            assert walked(steps) == walked(single_type_loop(start, p, count, seed)), (seed, p)
        steps = itertools.islice(walk(start, range(1, dim + 2), random.Random(seed)), count)
        assert walked(steps) == walked(every_type_loop(start, count, random.Random(seed))), seed


def test_walk_repeats_the_simplicial_engine_schedule():
    rng, reference_rng = random.Random(2026), random.Random(2026)
    for dim, quota in ((2, 34), (3, 33), (4, 33)):
        start = simplex_boundary(dim + 1)
        steps = itertools.islice(walk(start, range(1, dim + 2), rng), quota)
        assert walked(steps) == walked(every_type_loop(start, quota, reference_rng)), dim


def test_walk_without_a_site_yields_nothing():
    assert all_sites(doubled_pentachoron(), 3) == []
    assert list(walk(doubled_pentachoron(), (3,), random.Random(1))) == []


def test_walk_searches_only_the_steps_taken(monkeypatch):
    searched = []
    search = statesum.all_sites
    monkeypatch.setattr(statesum, "all_sites", lambda t, p: searched.append(p) or search(t, p))
    steps = walk(simplex_boundary(5), (3, 2), random.Random(0))
    assert list(itertools.islice(steps, 0)) == [] and searched == []
    assert len(list(itertools.islice(steps, 2))) == 2
    assert searched == [3, 2, 3, 2]


def recorded_enumerations(monkeypatch):
    built = []
    enumerate_sites = Triangulation._enumerate_sites
    monkeypatch.setattr(
        Triangulation, "_enumerate_sites", lambda t, p: built.append((t, p)) or enumerate_sites(t, p)
    )
    return built


def test_a_33_walk_enumerates_size_3_once_per_complex(monkeypatch):
    built = recorded_enumerations(monkeypatch)
    searched = [simplex_boundary(5)]
    for _, t in itertools.islice(walk(searched[0], (3,), random.Random(4)), 6):
        searched.append(t)
    assert built == [(t, 3) for t in searched[:-1]]


def test_apply_move_after_all_sites_enumerates_nothing(monkeypatch):
    built = recorded_enumerations(monkeypatch)
    t = simplex_boundary(5)
    for p in (2, 3):
        sites = all_sites(t, p)
        assert built[-1] == (t, p)
        del built[:]
        for site in sites:
            apply_move(t, site)
        assert built == []


def test_invariance_run_rejects_negative_count():
    with pytest.raises(ValueError, match="count must be >= 0"):
        invariance_run(simplex_boundary(5), parse_solution("bichar:Z2"), count=-2, seed=0)


def test_invariance_run_needs_closed_complex():
    before, _ = pachner_sides(5, (0, 2, 4), (1, 3, 5))
    with pytest.raises(ValueError, match="closed"):
        invariance_run(before, parse_solution("bichar:Z2"), count=1, seed=0)
