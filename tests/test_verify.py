import functools
import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from pachner.groups import FinAbGroup, parse_group
from pachner.scalars import Scalar
from pachner.solutions import (
    SolutionSpec,
    groups_up_to_order,
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
    Report,
    in_backend,
    tensor_equal,
    _fmt_key,
)
from pachner import tensors, verify
from pachner.cli import catalog
from pachner.verify import (
    _proof_integral,
    _PROOF_CASES,
    _judge,
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


def padded_p33_sides(q):
    """The (3,3) sides with every identity wire built as a tensor and the
    printed factors folded left to right, as first transcribed."""
    dom, ring = q.domain, q.ring
    qm = q_as_linmap(q)
    id1 = LinMap.identity(dom, 1, ring)
    id2 = id1.tens(id1)
    id3 = id2.tens(id1)
    sig = LinMap.sigma(dom, ring)
    qsig = qm.compose(sig)
    lhs = (
        qsig.tens(id3)
        .compose(id1.tens(qm).tens(id1))
        .compose(sig.tens(id2))
        .compose(id1.tens(qm))
    )
    rhs = (
        id2.tens(sig).tens(id2)
        .compose(id3.tens(qsig))
        .compose(id1.tens(qm).tens(id1))
        .compose(id2.tens(sig))
        .compose(qm.tens(id1))
    )
    return lhs, rhs


def padded_pentagon_sides(s):
    """S12 S13 S23 and S23 S12 with padded identity wires."""
    dom, ring = s.tensor.domain, s.tensor.ring
    id1 = LinMap.identity(dom, 1, ring)
    idsig = id1.tens(LinMap.sigma(dom, ring))
    s12, s23 = s.tens(id1), id1.tens(s)
    s13 = idsig.compose(s.tens(id1)).compose(idsig)
    return s12.compose(s13).compose(s23), s23.compose(s12)


P33_REFERENCE_CASES = [f"bichar:{g}" for g in ("Z2", "Z3", "Z4", "Z2xZ2")] + [
    f"triple:groupalg:{name}" for name, table in groups_up_to_order(6) if len(table) >= 2
]


@pytest.mark.parametrize("descriptor", P33_REFERENCE_CASES)
def test_p33_sides_equal_the_padded_transcription(descriptor):
    q = parse_solution(descriptor).q
    for got, want in zip(p33_sides(q), padded_p33_sides(q)):
        assert (got.n_out, got.n_in) == (want.n_out, want.n_in) == (6, 3)
        assert got.tensor.entries == want.tensor.entries


@pytest.mark.parametrize("name", ["Z2", "Z3", "Z4", "S3"])
def test_pentagon_sides_equal_the_padded_transcription(name, monkeypatch):
    s = pentagon_map(triple_from_table(named_group_table(name), name))
    compared, equal = [], verify.tensor_equal

    def recording_equal(a, b, rel=1e-9):
        compared.append((a, b))
        return equal(a, b, rel)

    monkeypatch.setattr(verify, "tensor_equal", recording_equal)
    assert verify_pentagon(s)
    ((lhs, rhs),) = compared
    want_lhs, want_rhs = padded_pentagon_sides(s)
    assert lhs.entries == want_lhs.tensor.entries
    assert rhs.entries == want_rhs.tensor.entries


def test_p33_refuses_large_sides_before_contracting(monkeypatch):
    # bichar:Z3 has fan-out 3 (x + y = u, y + z = v leave y free), so each
    # side may hold 3**3 * 3**3 = 729 entries
    sol = parse_solution("bichar:Z3")
    assert verify_p33(sol)
    monkeypatch.setattr("pachner.tensors.contract", lambda *args: pytest.fail("contracted"))
    monkeypatch.setattr(verify, "P33_ENTRIES_LIMIT", 728)
    with pytest.raises(ValueError, match="over Z3 may hold 729 entries, over the limit of 728"):
        verify_p33(sol)
    monkeypatch.setattr(verify, "P33_ENTRIES_LIMIT", 729)
    with pytest.raises(pytest.fail.Exception, match="contracted"):
        verify_p33(sol)


def test_p33_entry_bound_admits_every_shipped_check():
    assert 6**6 <= verify.P33_ENTRIES_LIMIT < 9**6
    # a triple's Q has fan-out 1: |V|**3 entries per side
    assert verify._fan_out(q_as_linmap(parse_solution("triple:groupalg:S3").q)) == 1
    assert verify._fan_out(q_as_linmap(parse_solution("bichar:Z6").q)) == 6


def test_verify_p33_passes_for_shipped_solutions():
    for descriptor in ["bichar:Z2", "bichar:Z3", "triple:groupalg:Z2", "triple:groupalg:S3"]:
        report = verify_p33(parse_solution(descriptor))
        assert report.fields["backend"] == "exact"
        assert report, (descriptor, report.witness)


def test_verify_p33_float_backend_for_larger_groups():
    report = verify_p33(parse_solution("bichar:Z5"))
    assert report.fields["backend"] == "float"
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
    assert (report.fields["backend"], report.verdict) == ("float", "pass")


def test_pentagon_identity_map_passes():
    dom = BasisDomain(3)
    assert verify_pentagon(LinMap.identity(dom, 2))


def test_pentagon_random_map_fails_with_witness():
    dom = BasisDomain(3)
    rng = random.Random(3)
    entries = {}
    for key in itertools.product(range(3), repeat=4):
        entries[key] = dom.ring.integer(rng.randrange(-3, 4))
    report = verify_pentagon(LinMap(GroupTensor(dom, (UP, UP, DOWN, DOWN), entries), 2, 2))
    assert report.verdict == "fail"
    assert report.witness


def test_pentagon_failure_reports_both_values():
    s = pentagon_map(triple_from_table(named_group_table("S3"), "S3")).tensor
    entries = dict(s.entries)
    key = min(entries)
    entries[key] = entries[key] + entries[key]
    report = verify_pentagon(LinMap(GroupTensor(s.domain, s.variances, entries, s.ring), 2, 2))
    assert report.verdict == "fail"
    lhs, rhs = report.extras["lhs_value"], report.extras["rhs_value"]
    assert lhs != rhs
    assert f"lhs_value={lhs}" in report.lines() and f"rhs_value={rhs}" in report.lines()


def _compared(verdict, key=None):
    shown = {} if key is None else {"lhs_value": f"l{key[0]}", "rhs_value": f"r{key[0]}"}
    witness = "" if key is None else _fmt_key(key)
    return Report("tensor-equal", {"verdict": verdict, "checks": 2}, witness, shown)


def test_the_fold_stops_at_the_first_unequal_comparison():
    def comparisons():
        yield "a", _compared("pass")
        yield "b", _compared("indeterminate", (1,))
        yield "c", _compared("fail", (2,))
        pytest.fail("the fold read past the first unequal comparison")

    report = _judge("demo", "T", "exact", comparisons(), {"note": 1})
    assert report.lines() == [
        "relation=demo",
        "target=T",
        "backend=exact",
        "verdict=fail",
        "checks=6",
        "witness=c at 2",
        "lhs_value=l2",
        "note=1",
        "rhs_value=r2",
    ]


def test_the_fold_witnesses_the_first_indeterminate_comparison():
    comparisons = [
        ("", _compared("pass")),
        ("", _compared("indeterminate", (1,))),
        ("", _compared("indeterminate", (2,))),
    ]
    report = _judge("demo", "T", "exact", comparisons)
    assert (report.verdict, report.witness, report.fields["checks"]) == ("indeterminate", "1", 6)
    assert (report.extras["lhs_value"], report.extras["rhs_value"]) == ("l1", "r1")
    assert not report
    assert _judge("demo", "T", "exact", comparisons[:1]).lines()[3:] == ["verdict=pass", "checks=2"]


def test_pentagon_rejects_wrong_shape():
    dom = BasisDomain(2)
    with pytest.raises(ValueError, match="square map on two wires"):
        verify_pentagon(LinMap(GroupTensor(dom, (UP, DOWN), {}), 1, 1))


# -- families ------------------------------------------------------------------


def build_families(sol) -> dict:
    """Pin one output slot of Q each way: X^a (slot 0), Y^a (slot 2), Z^a (slot 4).

    Each member is a map on V (x) V; pinning leaves four slots which are
    reordered into the (outs, ins) layout.
    """
    q = sol.q if isinstance(sol, SolutionSpec) else sol
    if q.arity != 5 or q.variances != (UP, DOWN, UP, DOWN, UP):
        raise ValueError("family construction needs the 5-slot solution tensor")
    fams = {}
    for name, slot, perm in [("X", 0, [1, 3, 0, 2]), ("Y", 2, [0, 3, 1, 2]), ("Z", 4, [0, 2, 1, 3])]:
        fams[name] = {
            a: LinMap(q.pin(slot, a).permute(perm), 2, 2) for a in q.domain.elements()
        }
    return fams


def linmap_sum(domain, ring, terms, weight) -> LinMap:
    """Weighted sum of maps on V^3, scaled by weight."""
    acc = {}
    for coeff, lm in terms:
        if not coeff:
            continue
        for key, val in lm.tensor.entries.items():
            prod = coeff * val
            prev = acc.get(key)
            acc[key] = prod if prev is None else prev + prod
    entries = {k: weight * v for k, v in acc.items()}
    return LinMap(GroupTensor(domain, (UP,) * 3 + (DOWN,) * 3, entries, ring), 3, 3)


def padded_yb_family(sol, backend="auto", rel=1e-9):
    """verify_yb_family as first transcribed: the pinned family members
    padded to maps on V^3 (the 13-slot ones between sigma sandwiches), pair
    products memoised, and the sums over s, t written out as weighted sums
    of pair products."""
    q = in_backend(sol.q, backend)
    dom, ring = q.domain, q.ring
    fams = build_families(q)
    id1 = LinMap.identity(dom, 1, ring)
    idsig = id1.tens(LinMap.sigma(dom, ring))

    def e12(m):
        return m.tens(id1)

    def e23(m):
        return id1.tens(m)

    def e13(m):
        return idsig.compose(m.tens(id1)).compose(idsig)

    elems = list(dom.elements())
    x12 = {a: e12(fams["X"][a]) for a in elems}
    x23 = {a: e23(fams["X"][a]) for a in elems}
    x13 = {a: e13(fams["X"][a]) for a in elems}
    y13 = {a: e13(fams["Y"][a]) for a in elems}
    z12 = {a: e12(fams["Z"][a]) for a in elems}
    z23 = {a: e23(fams["Z"][a]) for a in elems}
    z13 = {a: e13(fams["Z"][a]) for a in elems}
    c2 = ring.radical(-2)

    def pairs(left, right):
        return functools.cache(lambda a, b: left[a].compose(right[b]))

    x12_x23, z23_z12 = pairs(x12, x23), pairs(z23, z12)
    x23_x13, z12_z13 = pairs(x23, x13), pairs(z12, z13)
    counts = {"pe1_triples": 0, "pe2_triples": 0, "ybe_triples": 0}

    def comparisons():
        for rel_name, a, b, cc in itertools.product(["pe1", "pe2", "ybe"], elems, elems, elems):
            if rel_name == "pe1":
                i, l, m = a, b, cc
                terms = [(q.entry((i, s, l, t, m)), x12_x23(s, t)) for s in elems for t in elems]
                lhs = linmap_sum(dom, ring, terms, c2)
                rhs = x23_x13(m, l).compose(x12[i])
            elif rel_name == "pe2":
                m, n, k = a, b, cc
                lhs = z12_z13(m, n).compose(z23[k])
                terms = [(q.entry((m, s, n, t, k)), z23_z12(t, s)) for s in elems for t in elems]
                rhs = linmap_sum(dom, ring, terms, c2)
            else:
                i, j, k = a, b, cc
                lhs = x12[i].compose(y13[j]).compose(z23[k])
                rhs = z23[k].compose(y13[j]).compose(x12[i])
            counts[f"{rel_name}_triples"] += 1
            yield f"{rel_name}[{_fmt_key((a, b, cc))}]", tensor_equal(lhs.tensor, rhs.tensor, rel)

    return _judge("yb-family", sol.descriptor, ring.name, comparisons(), counts)


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


def yb_reference_cases():
    """Every catalogue solution with a tensor and triple:groupalg:Z1, clean
    and perturbed (seeds 0-19 for bichar Z2 and Z3, 0-2 for the others),
    exact and float for |V| <= 4 and auto above."""
    for descriptor in [d for d in catalog() if d != "set"] + ["triple:groupalg:Z1"]:
        seeds = range(20) if descriptor in ("bichar:Z2", "bichar:Z3") else range(3)
        small = parse_solution(descriptor).domain.size <= 4
        for backend in ("exact", "float") if small else ("auto",):
            yield pytest.param(descriptor, backend, [None, *seeds], id=f"{descriptor}-{backend}")


@pytest.mark.parametrize("descriptor,backend,seeds", yb_reference_cases())
def test_yb_report_lines_equal_the_padded_family_reference(descriptor, backend, seeds):
    base = parse_solution(descriptor)
    for seed in seeds:
        sol = base if seed is None else perturb_q(base, seed)
        assert verify_yb_family(sol, backend).lines() == padded_yb_family(sol, backend).lines(), seed


def recorded_sides(check, sol, monkeypatch):
    """Every side pair a yb check compares, each as its entry dict, with
    every comparison reported equal so the fold reaches all of them."""
    sides = []

    def record(a, b, rel=1e-9):
        sides.append((a.entries, b.entries))
        return Report("tensor-equal", {"verdict": "pass", "checks": 0})

    with monkeypatch.context() as patch:
        patch.setattr(verify, "tensor_equal", record)
        patch.setitem(globals(), "tensor_equal", record)
        assert check(sol, "exact")
    return sides


@pytest.mark.parametrize("descriptor", ["bichar:Z2", "bichar:Z3", "triple:groupalg:S3"])
def test_yb_sides_equal_the_padded_families_in_every_identity(descriptor, monkeypatch):
    base = parse_solution(descriptor)
    for sol in [base] + [perturb_q(base, seed) for seed in range(3)]:
        got = recorded_sides(verify_yb_family, sol, monkeypatch)
        want = recorded_sides(padded_yb_family, sol, monkeypatch)
        assert len(got) == len(want) == 3 * sol.domain.size**3
        assert got == want


def counted_composes_and_joins(sol, monkeypatch):
    calls = Counter()
    compose, contract = LinMap.compose, tensors.contract

    def counted_compose(self, other, at=None):
        calls["compose"] += 1
        return compose(self, other, at)

    def counted_contract(*args):
        calls["join"] += 1
        return contract(*args)

    with monkeypatch.context() as patch:
        patch.setattr(LinMap, "compose", counted_compose)
        patch.setattr(tensors, "contract", counted_contract)
        report = verify_yb_family(sol)
    return report, calls


@pytest.mark.parametrize("descriptor", ["bichar:Z2", "bichar:Z3", "bichar:Z4", "triple:groupalg:S3"])
def test_yb_makes_33_composes_and_18_joins_for_every_domain(descriptor, monkeypatch):
    report, calls = counted_composes_and_joins(parse_solution(descriptor), monkeypatch)
    assert report
    # 11 + 10 + 12 factors across the three identities' two sides, of which
    # 6 + 6 + 6 are copies of Q; sigma reorders slots without a join
    assert calls == {"compose": 33, "join": 18}


def test_yb_fold_failing_in_pe1_builds_no_later_side(monkeypatch):
    sol = perturb_q(parse_solution("bichar:Z3"), 1)
    report, calls = counted_composes_and_joins(sol, monkeypatch)
    assert report.verdict == "fail" and report.witness.startswith("pe1[")
    assert (report.extras["pe2_triples"], report.extras["ybe_triples"]) == (0, 0)
    assert calls == {"compose": 11, "join": 6}


# -- symmetry relation ---------------------------------------------------------


def test_verify_psym_passes_for_bicharacter_with_shipped_kernels():
    for literal in ["Z2", "Z3"]:
        group = parse_group(literal)
        sol = q_from_bicharacter(group)
        report = verify_psym(sol.q, sol.kernels["T"], sol.kernels["S"], sol.kernels["T"])
        assert report, (literal, report.witness)


def test_verify_psym_identity_kernels_reduce_to_swaps():
    group = FinAbGroup([2])
    wire = LinMap.identity(group, 1).tensor
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


@pytest.mark.parametrize("literal", ["Z3", "Z2xZ2"])
def test_proof_integral_multiplies_each_value_pair_once(literal, monkeypatch):
    group = parse_group(literal)
    sol = q_from_bicharacter(group)
    kern = symmetry_kernels(group)
    kernels = {"T": kern["T"], "Tbar": kern["Tinv"], "S": kern["S"], "Sbar": kern["Sinv"]}
    mul = Scalar.__mul__
    for plan in _PROOF_CASES.values():
        pairs = Counter()

        def counting_mul(a, b):
            pairs[tuple(a.terms.items()), tuple(b.terms.items())] += 1
            return mul(a, b)

        monkeypatch.setattr(Scalar, "__mul__", counting_mul)
        got = _proof_integral(sol.q, plan, kernels)
        monkeypatch.setattr(Scalar, "__mul__", mul)
        assert pairs and max(pairs.values()) == 1
        # an unmemoised sum makes at least three products per entry
        assert sum(pairs.values()) < len(sol.q.entries)
        assert tensor_equal(got, sol.q.conj())


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
        assert all(report.extras[c] == "fail" for c in ("case1", "case2", "case3", "case4"))


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


@pytest.mark.parametrize("literal", ["Z2", "Z3", "Z4", "Z2xZ2"])
def test_theorem_terms_count_the_expanded_kernel_rows(literal):
    group = parse_group(literal)
    sol = q_from_bicharacter(group)
    kern = symmetry_kernels(group)
    names = {"T": "T", "Tbar": "Tinv", "S": "S", "Sbar": "Sinv"}
    row_sizes = {k: Counter(col for _, col in kern[v].entries) for k, v in names.items()}
    terms = 0
    for plan in _PROOF_CASES.values():
        for key in sol.q.entries:
            combos = 1
            for pos, item in enumerate(plan):
                if item[0] == "ker":
                    combos *= row_sizes[item[2]][key[pos]]
            terms += combos
    assert terms == 2 * group.size**5 + 2 * group.size**3


def test_theorem_refuses_large_groups_before_building_anything(monkeypatch):
    group, limit = parse_group("Z3"), verify.THEOREM_TERMS_LIMIT
    assert verify_theorem(group)
    built = lambda *args, **kwargs: pytest.fail("built")
    monkeypatch.setattr(verify, "q_from_bicharacter", built)
    monkeypatch.setattr(verify, "symmetry_kernels", built)
    # 2 * 3**5 + 2 * 3**3 = 540 terms
    monkeypatch.setattr(verify, "THEOREM_TERMS_LIMIT", 539)
    with pytest.raises(ValueError, match="theorem over Z3 expands 540 terms, over the limit of 539"):
        verify_theorem(group)
    monkeypatch.setattr(verify, "THEOREM_TERMS_LIMIT", 540)
    with pytest.raises(pytest.fail.Exception, match="built"):
        verify_theorem(group)
    # at the shipped limit order 9 is built and orders 10, 12 and 16 are refused
    monkeypatch.setattr(verify, "THEOREM_TERMS_LIMIT", limit)
    with pytest.raises(pytest.fail.Exception, match="built"):
        verify_theorem(parse_group("Z9"))
    for literal, terms in [("Z10", 202000), ("Z12", 501120), ("Z16", 2105344)]:
        with pytest.raises(ValueError, match=f"over {literal} expands {terms} terms"):
            verify_theorem(parse_group(literal))


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


def test_dense_oracle_refuses_large_grids_before_allocating(monkeypatch):
    # Z6 passes the bound with its comparison temporaries counted, Z7 does not
    assert 56 * 6**9 + 16 * 6**8 <= verify.DENSE_BYTES_LIMIT < 56 * 7**9
    sol = parse_solution("bichar:Z8")
    monkeypatch.setattr(verify.np, "zeros", lambda *args, **kwargs: pytest.fail("allocated"))
    with pytest.raises(ValueError, match=r"needs 4.29 GB .* plus 3.22 GB for the comparison's 8\^9"):
        dense_p33_oracle(sol)


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
    assert a.fields["checks"] == 200


def naive_dense_grids(q):
    """Both (3,3) sides as full n**9 grids by the three-factor einsum with
    no contraction path (n**12 multiply-adds), the oracle's first form."""
    import numpy as np

    elems = list(q.domain.elements())
    index = {e: i for i, e in enumerate(elems)}
    arr = np.zeros((len(elems),) * 5, dtype=complex)
    for key, val in q.to_float().entries.items():
        arr[tuple(index[e] for e in key)] = val
    lhs = np.einsum("isltm,spjun,tqurk->ilmjnkpqr", arr, arr, arr, optimize=False)
    rhs = np.einsum("msntk,lujrt,ipuqs->ilmjnkpqr", arr, arr, arr, optimize=False)
    pathed = (
        np.einsum("isltm,spjun,tqurk->ilmjnkpqr", arr, arr, arr, optimize=verify._LHS_PATH),
        np.einsum("msntk,lujrt,ipuqs->ilmjnkpqr", arr, arr, arr, optimize=verify._RHS_PATH),
    )
    return elems, (lhs, rhs), pathed


@pytest.mark.parametrize("group", ["Z2", "Z3"])
@pytest.mark.parametrize("seed", [None, 0, 1, 2, 3])
def test_dense_path_matches_the_pathless_einsum(group, seed):
    import numpy as np

    sol = parse_solution(f"bichar:{group}")
    if seed is not None:
        sol = perturb_q(sol, seed)
    elems, (lhs, rhs), pathed = naive_dense_grids(sol.q)
    for naive, fast in zip((lhs, rhs), pathed):
        assert np.max(np.abs(naive - fast)) <= 1e-12 * max(1.0, np.max(np.abs(naive)))
    bad = np.argwhere(~np.isclose(lhs, rhs, rtol=1e-9, atol=1e-9))
    report = dense_p33_oracle(sol)
    assert report.checks == len(elems) ** 9
    if len(bad) == 0:
        assert report.verdict == "pass" and not report.witness
        return
    first = tuple(int(v) for v in bad[0])
    assert report.verdict == "fail"
    assert report.witness == _fmt_key(tuple(elems[i] for i in first))
    assert abs(complex(report.extras["lhs_value"]) - lhs[first]) <= 1e-9 * max(1.0, abs(lhs[first]))
    assert abs(complex(report.extras["rhs_value"]) - rhs[first]) <= 1e-9 * max(1.0, abs(rhs[first]))


def test_dense_bound_counts_the_intermediate(monkeypatch):
    sol = parse_solution("bichar:Z3")
    monkeypatch.setattr(verify.np, "zeros", lambda *args, **kwargs: pytest.fail("allocated"))
    counted = 32 * 3**9 + 16 * 3**8 + 24 * 3**9
    monkeypatch.setattr(verify, "DENSE_BYTES_LIMIT", counted - 1)
    with pytest.raises(
        ValueError,
        match=r"two 3\^9 grids and 0.00 GB for an 3\^8 intermediate, "
        r"plus 0.00 GB for the comparison's 3\^9 temporaries",
    ):
        dense_p33_oracle(sol)
    monkeypatch.setattr(verify, "DENSE_BYTES_LIMIT", counted)
    with pytest.raises(pytest.fail.Exception, match="allocated"):
        dense_p33_oracle(sol)


@pytest.mark.parametrize("group", ["Z3", "Z4"])
@pytest.mark.parametrize("seed", [None, 2])
def test_dense_traced_peak_stays_within_the_counted_bytes(group, seed, monkeypatch):
    import tracemalloc

    sol = parse_solution(f"bichar:{group}")
    if seed is not None:
        sol = perturb_q(sol, seed)
    n = sol.q.domain.size
    dense_p33_oracle(sol)
    tracemalloc.start()
    try:
        report = dense_p33_oracle(sol)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.verdict == ("pass" if seed is None else "fail")
    # the trace sees the grids: at least one side's full grid at once
    assert 16 * n**9 <= peak
    # the bytes the oracle counts are at least the peak: a limit one byte
    # below the peak refuses the run
    monkeypatch.setattr(verify, "DENSE_BYTES_LIMIT", peak - 1)
    with pytest.raises(ValueError, match="GB limit"):
        dense_p33_oracle(sol)


def test_yb_refuses_large_checks_before_building_families(monkeypatch):
    sol = parse_solution("bichar:Z3")
    monkeypatch.setattr("pachner.tensors.contract", lambda *args: pytest.fail("contracted"))
    monkeypatch.setattr(verify, "q_as_linmap", lambda *args: pytest.fail("built"))
    monkeypatch.setattr(verify, "YB_ENTRIES_LIMIT", 3 * 3**9 - 1)
    with pytest.raises(ValueError, match="over Z3 may compare 59049 entries, over the limit of 59048"):
        verify_yb_family(sol)
    monkeypatch.setattr(verify, "YB_ENTRIES_LIMIT", 3 * 3**9)
    with pytest.raises(pytest.fail.Exception, match="built"):
        verify_yb_family(sol)


def test_yb_entry_bound_admits_every_shipped_check():
    # scripts/relation_survey.py runs verify yb on every catalogue solution,
    # the largest of which (bichar:Z6, triple:groupalg:S3 and Z6) have |V| = 6
    assert 3 * 6**9 <= verify.YB_ENTRIES_LIMIT < 3 * 7**9
    with pytest.raises(ValueError, match="over Z7 may compare"):
        verify_yb_family(parse_solution("bichar:Z7"))
