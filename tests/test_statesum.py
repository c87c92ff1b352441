"""State-sum evaluation and move invariance on 4-dimensional complexes."""

from pathlib import Path

import pytest

from pachner.scalars import Comparison, compare
from pachner.simplicial import Triangulation, simplex_boundary, pachner_sides
from pachner.solutions import parse_solution, perturb_q
from pachner import statesum
from pachner.statesum import (
    all_sites,
    build_assignment,
    invariance_run,
    partition,
    partition_bruteforce,
    partition_value,
)
from pachner.tensors import DOWN, UP, tensor_equal
from pachner.verify import p33_sides

DATA = Path(__file__).resolve().parent.parent / "data"


def direct_boundary_sum(a):
    """Entry-product oracle: no contraction machinery involved.

    Iterates over one nonzero entry per pentachoron, keeps the products
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
            for f in range(5):
                slot = (e, f)
                tag = ("pair", pair_slot[slot]) if slot in pair_slot else ("out", slot)
                if tag in states:
                    if states[tag] != entry_key[f]:
                        ok = False
                        break
                else:
                    updates.append(tag)
                    states[tag] = entry_key[f]
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


def test_build_assignment_guards():
    sol = parse_solution("bichar:Z2")
    with pytest.raises(ValueError, match="4-dimensional"):
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
        assert rep.verdict is Comparison.EQUAL, rep.witness


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
    assert ball_vals == sorted(v.render() for v in lhs.tensor.entries.values())
    assert ball_vals == sorted(v.render() for v in rhs.tensor.entries.values())
    assert ball_vals == sorted(v.render() for v in pa.entries.values())


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
    shifted = sphere.relabel(lambda v: 10 * v + 3)
    sol = parse_solution("bichar:Z3")
    v1 = partition_value(build_assignment(sphere, sol, "exact"))
    v2 = partition_value(build_assignment(shifted, sol, "exact"))
    assert compare(v1, v2) is Comparison.EQUAL


def test_arity_guard_trips_on_disjoint_union():
    pents = [(tuple(range(10 * k, 10 * k + 5)), 1) for k in range(5)]
    t = Triangulation(4, pents)
    a = build_assignment(t, parse_solution("bichar:Z2"), "exact")
    with pytest.raises(RuntimeError, match="guard"):
        partition(a)


def test_arity_guard_counts_the_materialised_arity(monkeypatch):
    # On the sphere, greedy merges a blob of 8 slots with a pentachoron
    # sharing 2 pairings: 9 slots materialised, 11 if bound one at a time.
    a = build_assignment(simplex_boundary(5), parse_solution("bichar:Z3"), "exact")
    expected = partition_value(a)
    monkeypatch.setattr(statesum, "ARITY_GUARD", 10)
    assert compare(partition_value(a), expected) is Comparison.EQUAL
    monkeypatch.setattr(statesum, "ARITY_GUARD", 8)
    with pytest.raises(RuntimeError, match="9 slots"):
        partition(a)


def test_sphere_has_twenty_move_sites():
    sites = all_sites(simplex_boundary(5), 3)
    assert len(sites) == 20
    assert len({site.I for site in sites}) == 20


def test_invariance_run_exact():
    sphere = simplex_boundary(5)
    for desc in ("bichar:Z2", "bichar:Z3"):
        rep = invariance_run(sphere, parse_solution(desc), count=8, seed=7)
        assert rep.verdict == "pass"
        assert rep.moves_applied == 8
        assert rep.initial_value == "1 · r^9"


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
    assert rep.backend == "float"
    assert rep.max_rel_error < 1e-12
    assert any(line.startswith("max_rel_error=") for line in rep.lines())


def test_invariance_run_detects_corrupted_solution():
    sphere = simplex_boundary(5)
    bad = perturb_q(parse_solution("bichar:Z2"), seed=3)
    rep = invariance_run(sphere, bad, count=10, seed=7)
    assert rep.verdict == "fail"
    assert rep.moves_applied < 10
    assert "step" in rep.witness


def test_invariance_run_without_sites_reports_and_passes():
    t = doubled_pentachoron()
    rep = invariance_run(t, parse_solution("bichar:Z2"), count=4, seed=1)
    assert rep.verdict == "pass"
    assert rep.moves_applied == 0
    assert "no (3,3) site" in rep.extras["note"]


def test_invariance_run_rejects_negative_count():
    with pytest.raises(ValueError, match="count must be >= 0"):
        invariance_run(simplex_boundary(5), parse_solution("bichar:Z2"), count=-2, seed=0)


def test_invariance_run_needs_closed_complex():
    before, _ = pachner_sides(5, (0, 2, 4), (1, 3, 5))
    with pytest.raises(ValueError, match="closed"):
        invariance_run(before, parse_solution("bichar:Z2"), count=1, seed=0)
