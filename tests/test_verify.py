import itertools
import random
from fractions import Fraction

import pytest

from pachner.groups import FinAbGroup, parse_group
from pachner.scalars import Comparison
from pachner.solutions import (
    SolutionSpec,
    parse_solution,
    pentagon_map,
    perturb_q,
    q_from_bicharacter,
    symmetry_kernels,
    triple_from_table,
    cyclic_table,
    named_group_table,
    s3_table,
)
from pachner.tensors import (
    DOWN,
    UP,
    BasisDomain,
    GroupTensor,
    LinMap,
    identity_kernel,
    tensor_equal,
)
from pachner import verify
from pachner.verify import (
    _proof_integral,
    _PROOF_CASES,
    build_families,
    dense_p33_oracle,
    p33_sides,
    q_as_linmap,
    set_p33_sides,
    verify_p33,
    verify_pentagon,
    verify_psym,
    verify_set_p33,
    verify_theorem,
    verify_yb_family,
)


def coordinate_sides(q, elems):
    """Both sides of the relation by direct triple summation, no weights.

    This is the raw coordinate identity; the operator pipeline must agree
    after its uniform c**3 normalization.
    """
    lhs = {}
    rhs = {}
    for free in itertools.product(elems, repeat=9):
        i, l, m, j, n, k, p, qq, r = free
        lv = None
        rv = None
        for s, t, u in itertools.product(elems, repeat=3):
            term = q.entry((i, s, l, t, m)) * q.entry((s, p, j, u, n)) * q.entry((t, qq, u, r, k))
            if term:
                lv = term if lv is None else lv + term
            term = q.entry((m, s, n, t, k)) * q.entry((l, u, j, r, t)) * q.entry((i, p, u, qq, s))
            if term:
                rv = term if rv is None else rv + term
        if lv is not None and lv:
            lhs[free] = lv
        if rv is not None and rv:
            rhs[free] = rv
    return lhs, rhs


def test_p33_sides_match_direct_coordinate_sums():
    group = FinAbGroup([2])
    q = q_from_bicharacter(group).q
    elems = list(group.elements())
    lhs_coord, rhs_coord = coordinate_sides(q, elems)
    weight = group.ring.radical(-3)
    lhs_ref = GroupTensor(group, (UP,) * 6 + (DOWN,) * 3,
                          {k[:6] + k[6:]: weight * v for k, v in lhs_coord.items()})
    rhs_ref = GroupTensor(group, (UP,) * 6 + (DOWN,) * 3,
                          {k: weight * v for k, v in rhs_coord.items()})
    lhs_op, rhs_op = p33_sides(q)
    # free slot order is (i,l,m,j,n,k) out and (p,q,r) in on both routes
    assert tensor_equal(lhs_op.tensor, lhs_ref)
    assert tensor_equal(rhs_op.tensor, rhs_ref)
    # and the relation itself holds
    assert tensor_equal(lhs_ref, rhs_ref)


def test_p33_sides_match_coordinates_on_group_algebra():
    sol = parse_solution("triple:groupalg:Z3")
    q = sol.q
    elems = list(sol.domain.elements())
    lhs_coord, rhs_coord = coordinate_sides(q, elems)
    lhs_op, rhs_op = p33_sides(q)
    # basis domains have trivial weights, so the raw sums match directly
    lhs_ref = GroupTensor(sol.domain, (UP,) * 6 + (DOWN,) * 3, lhs_coord)
    rhs_ref = GroupTensor(sol.domain, (UP,) * 6 + (DOWN,) * 3, rhs_coord)
    assert tensor_equal(lhs_op.tensor, lhs_ref)
    assert tensor_equal(rhs_op.tensor, rhs_ref)


def test_verify_p33_passes_for_shipped_solutions():
    for descriptor in ["bichar:Z2", "bichar:Z3", "triple:groupalg:Z2", "triple:groupalg:S3"]:
        report = verify_p33(parse_solution(descriptor))
        assert report.backend == "exact"
        assert report, (descriptor, report.witness)


def test_verify_p33_float_backend_for_larger_groups():
    report = verify_p33(parse_solution("bichar:Z5"))
    assert report.backend == "float"
    assert report


def test_verify_p33_flipped_entry_fails_with_witness():
    sol = parse_solution("bichar:Z2")
    entries = dict(sol.q.entries)
    key = ((1,), (0,), (1,), (0,), (1,))
    entries[key] = -entries[key]
    bad = SolutionSpec("bicharacter", "bichar:Z2:flipped", sol.domain,
                       GroupTensor(sol.domain, sol.q.variances, entries))
    report = verify_p33(bad)
    assert report.verdict == "fail"
    assert report.witness
    assert report.extras["lhs_value"] != report.extras["rhs_value"]


def test_verify_p33_zero_solution_passes():
    group = FinAbGroup([2])
    zero = SolutionSpec("bicharacter", "zero", group,
                        GroupTensor(group, (UP, DOWN, UP, DOWN, UP), {}))
    assert verify_p33(zero)


def test_verify_p33_rejects_bad_shape():
    group = FinAbGroup([2])
    flat = GroupTensor(group, (UP, UP, UP, DOWN, DOWN), {})
    with pytest.raises(ValueError, match="variance pattern"):
        q_as_linmap(flat)
    with pytest.raises(ValueError, match="backend"):
        verify_p33(parse_solution("bichar:Z2"), backend="quantum")


def test_exact_and_float_backends_agree():
    for descriptor in ["bichar:Z2", "bichar:Z4", "bichar:Z2xZ2"]:
        sol = parse_solution(descriptor)
        assert verify_p33(sol, backend="exact").verdict == verify_p33(sol, backend="float").verdict
    bad = perturb_q(parse_solution("bichar:Z3"), 5)
    assert verify_p33(bad, backend="exact").verdict == verify_p33(bad, backend="float").verdict == "fail"


# -- pentagon ------------------------------------------------------------------


def test_pentagon_passes_for_group_algebras():
    for table in [cyclic_table(2), cyclic_table(3), s3_table()]:
        s = pentagon_map(triple_from_table(table))
        assert verify_pentagon(s)


@pytest.mark.parametrize("name", ["Z4", "S3"])
def test_pentagon_float_backend_passes_on_group_tables(name):
    s = pentagon_map(triple_from_table(named_group_table(name), name))
    report = verify_pentagon(s, backend="float")
    assert (report.backend, report.verdict) == ("float", "pass")


def test_pentagon_identity_map_passes():
    dom = BasisDomain(3)
    assert verify_pentagon(LinMap.identity(dom, 2))


def test_pentagon_random_map_fails_with_witness():
    dom = BasisDomain(3)
    rng = random.Random(3)
    entries = {}
    for key in itertools.product(range(3), repeat=4):
        entries[key] = dom.ring.integer(rng.randrange(-3, 4))
    report = verify_pentagon(GroupTensor(dom, (UP, UP, DOWN, DOWN), entries))
    assert report.verdict == "fail"
    assert report.witness


def test_pentagon_rejects_wrong_shape():
    dom = BasisDomain(2)
    with pytest.raises(ValueError, match="2-in/2-out"):
        verify_pentagon(GroupTensor(dom, (UP, DOWN), {}))


# -- families ------------------------------------------------------------------


def test_family_members_pin_slots_of_q():
    group = FinAbGroup([2])
    sol = q_from_bicharacter(group)
    ring = group.ring
    fams = build_families(sol)
    # Z^k[(x,y),(u,v)] = chi(x,k) r^2 [u=x+y][v=y+k]
    for k in group.elements():
        zk = fams["Z"][k]
        assert (zk.n_out, zk.n_in) == (2, 2)
        for x in group.elements():
            for y in group.elements():
                u = group.add(x, y)
                v = group.add(y, k)
                assert zk.tensor.entry((x, y, u, v)) == group.chi(x, k) * ring.integer(2)
        assert len(zk.tensor.entries) == 4
    # X^i[(y,z),(u,v)] = Q(i,u,y,v,z)
    for i in group.elements():
        xi = fams["X"][i]
        for key, val in xi.tensor.entries.items():
            y, z, u, v = key
            assert sol.q.entry((i, u, y, v, z)) == val


def test_families_of_zero_tensor_are_zero():
    group = FinAbGroup([2])
    zero = GroupTensor(group, (UP, DOWN, UP, DOWN, UP), {})
    fams = build_families(zero)
    assert all(not m.tensor.entries for fam in fams.values() for m in fam.values())


def test_pinning_sums_back_to_partial_trace():
    group = FinAbGroup([3])
    q = q_from_bicharacter(group).q
    total = {}
    for a in group.elements():
        for key, val in q.pin(0, a).entries.items():
            total[key] = total.get(key, group.ring.zero) + val
    direct = {}
    for key, val in q.entries.items():
        rest = key[1:]
        direct[rest] = direct.get(rest, group.ring.zero) + val
    assert total == direct


def test_verify_yb_family_passes_for_bicharacter_solutions():
    for literal in ["Z2", "Z3"]:
        report = verify_yb_family(parse_solution(f"bichar:{literal}"))
        assert report, (literal, report.witness)
        assert report.extras["pe1_triples"] == parse_group(literal).size ** 3


def test_yb_family_verdict_tracks_p33_verdict_on_perturbations():
    base = parse_solution("bichar:Z2")
    for seed in range(6):
        sol = perturb_q(base, seed)
        assert verify_p33(sol).verdict == verify_yb_family(sol).verdict, seed


# -- symmetry relation ---------------------------------------------------------


def test_verify_psym_passes_for_bicharacter_with_shipped_kernels():
    for literal in ["Z2", "Z3"]:
        group = parse_group(literal)
        sol = q_from_bicharacter(group)
        report = verify_psym(sol.q, sol.kernels["T"], sol.kernels["S"], sol.kernels["T"])
        assert report, (literal, report.witness)


def test_verify_psym_identity_kernels_reduce_to_swaps():
    group = FinAbGroup([2])
    wire = identity_kernel(group)
    ones = GroupTensor(
        group,
        (UP, DOWN, UP, DOWN, UP),
        {key: group.ring.one for key in itertools.product(group.elements(), repeat=5)},
    )
    assert verify_psym(ones, wire, wire, wire)
    lopsided = GroupTensor(
        group, (UP, DOWN, UP, DOWN, UP), {((1,), (0,), (0,), (0,), (0,)): group.ring.one}
    )
    report = verify_psym(lopsided, wire, wire, wire)
    assert report.verdict == "fail"


def test_verify_psym_rejects_bad_kernels_via_verdict():
    group = FinAbGroup([2])
    sol = q_from_bicharacter(group)
    skew = GroupTensor(
        group, (UP, DOWN),
        {((0,), (0,)): group.ring.one, ((0,), (1,)): group.ring.root(1), ((1,), (0,)): group.ring.one, ((1,), (1,)): group.ring.one},
    )
    report = verify_psym(sol.q, skew, sol.kernels["S"], sol.kernels["T"])
    assert report.verdict == "fail"
    assert "not symmetric" in report.witness
    flat = GroupTensor(
        group, (UP, DOWN),
        {key: group.ring.one for key in itertools.product(group.elements(), repeat=2)},
    )
    report = verify_psym(sol.q, sol.kernels["T"], flat, sol.kernels["T"])
    assert report.verdict == "fail"
    assert "not inverted" in report.witness


# -- the theorem ---------------------------------------------------------------


def test_case1_integral_matches_its_closed_form():
    group = FinAbGroup([3])
    sol = q_from_bicharacter(group)
    kern = symmetry_kernels(group)
    kernels = {"T": kern["T"], "Tbar": kern["Tinv"], "S": kern["S"], "Sbar": kern["Sinv"]}
    got = _proof_integral(sol.q, _PROOF_CASES["case1"], kernels)
    closed = {}
    for x, u, y, v, z in itertools.product(group.elements(), repeat=5):
        base = sol.q.entry((u, x, group.neg(y), group.neg(v), group.neg(z)))
        if base:
            phase = group.gauss_g(y) * group.gauss_g(z) * group.gauss_g(v).conj()
            closed[(x, u, y, v, z)] = phase * base
    ref = GroupTensor(group, sol.q.variances, closed)
    assert tensor_equal(got, ref)


def test_verify_theorem_passes_on_small_groups():
    for literal in ["Z2", "Z3", "Z4", "Z2xZ2"]:
        report = verify_theorem(parse_group(literal))
        assert report, (literal, report.witness)
        assert all(report.extras[c] == "pass" for c in ("case1", "case2", "case3", "case4"))


def test_verify_theorem_trivial_gauss_fails():
    for literal in ["Z2", "Z3"]:
        group = parse_group(literal)
        report = verify_theorem(group, gauss=lambda x: group.ring.one)
        assert report.verdict == "fail", literal
        assert report.witness


def test_verify_theorem_asymmetric_pairing_fails():
    group = FinAbGroup([2, 2])
    skew = lambda x, y: group.ring.root(2 * (x[0] * y[1]) % 4)
    report = verify_theorem(group, chi=skew)
    assert report.verdict == "fail"


def test_theorem_and_psym_routes_agree():
    for literal in ["Z2", "Z3"]:
        group = parse_group(literal)
        sol = q_from_bicharacter(group)
        thm = verify_theorem(group)
        psym = verify_psym(sol.q, sol.kernels["T"], sol.kernels["S"], sol.kernels["T"])
        assert thm.verdict == psym.verdict == "pass"


# -- dense oracle --------------------------------------------------------------


def test_dense_oracle_agrees_with_sparse_path():
    for descriptor in ["bichar:Z2", "bichar:Z3", "triple:groupalg:Z3"]:
        sol = parse_solution(descriptor)
        assert dense_p33_oracle(sol).verdict == verify_p33(sol).verdict == "pass"


def test_dense_oracle_and_sparse_agree_on_random_tensors():
    group = FinAbGroup([2])
    ring = group.ring
    rng = random.Random(20)
    for trial in range(20):
        entries = {}
        for key in itertools.product(group.elements(), repeat=5):
            if rng.random() < 0.4:
                entries[key] = ring.root(rng.randrange(4)) * ring.integer(rng.randrange(1, 3))
        sol = SolutionSpec("random", f"random:{trial}", group,
                            GroupTensor(group, (UP, DOWN, UP, DOWN, UP), entries))
        assert dense_p33_oracle(sol).verdict == verify_p33(sol).verdict, trial


def test_dense_oracle_worker_split_is_deterministic():
    bad = perturb_q(parse_solution("bichar:Z3"), 2)
    one = dense_p33_oracle(bad, workers=1)
    three = dense_p33_oracle(bad, workers=3)
    assert one.verdict == three.verdict == "fail"
    assert one.witness == three.witness


def test_dense_oracle_refuses_large_grids_before_allocating(monkeypatch):
    assert 32 * 6**9 <= verify.DENSE_BYTES_LIMIT < 32 * 7**9
    sol = parse_solution("bichar:Z8")
    monkeypatch.setattr(verify.np, "zeros", lambda *args, **kwargs: pytest.fail("allocated"))
    with pytest.raises(ValueError, match="needs 4.29 GB"):
        dense_p33_oracle(sol)


def test_dense_oracle_reads_worker_count_from_environment(monkeypatch):
    monkeypatch.setenv("PACHNER_WORKERS", "2")
    report = dense_p33_oracle(parse_solution("bichar:Z2"))
    assert report.extras["workers"] == 2
    assert report


# -- set-theoretic route -------------------------------------------------------


def test_set_sides_fixed_point_value():
    half = Fraction(1, 2)
    lhs, rhs = set_p33_sides(half, half, half)
    assert lhs == rhs
    assert lhs == (
        Fraction(1, 3),
        Fraction(1, 7),
        Fraction(2, 9),
        Fraction(1, 8),
        Fraction(1, 7),
        Fraction(1, 3),
    )


def test_verify_set_p33_passes_and_is_deterministic():
    a = verify_set_p33(samples=200, seed=1)
    b = verify_set_p33(samples=200, seed=1)
    assert a and b
    assert a.lines() == b.lines()
    assert a.checks == 200
