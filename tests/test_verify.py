import itertools
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

from pachner.groups import FinAbGroup, parse_group
from pachner.scalars import ComplexRing, Scalar, ScalarRing, _FloatEntries
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
    Report,
    WirePermutation,
    identity,
    in_backend,
    tensor_equal,
    _fmt_key,
)
from pachner import solutions, tensors, verify
from pachner.simplicial import Triangulation, simplex_boundary
from pachner.statesum import build_assignment, invariance_run, partition_bruteforce, partition_value
from pachner.cli import catalog
from pachner.verify import (
    _proof_integral,
    _PROOF_CASES,
    _judge,
    dense_p33_oracle,
    p33_sides,
    q_as_map,
    set_p33_sides,
    verify_p33,
    verify_pentagon,
    verify_set_p33,
    verify_theorem,
    verify_yb_family,
)
import reference
from reference import (
    assert_identical_entries,
    build_families,
    expanded_proof_integral,
    factor_by_factor,
    fold_padded_identities,
    outs_ins,
    padded_p33_sides,
    padded_pentagon_sides,
    padded_yb_family,
    padded_yb_identities,
    pin,
    whole_side_p33,
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
    assert tensor_equal(lhs_op, lhs_ref)
    assert tensor_equal(rhs_op, rhs_ref)
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
    assert tensor_equal(lhs_op, lhs_ref)
    assert tensor_equal(rhs_op, rhs_ref)


P33_REFERENCE_CASES = [f"bichar:{g}" for g in ("Z2", "Z3", "Z4", "Z2xZ2")] + [
    f"triple:groupalg:{name}" for name, table in groups_up_to_order(6) if len(table) >= 2
]


@pytest.mark.parametrize("descriptor", P33_REFERENCE_CASES)
def test_p33_sides_equal_the_padded_transcription(descriptor):
    q = parse_solution(descriptor).q
    for got, want in zip(p33_sides(q), padded_p33_sides(q)):
        assert outs_ins(got) == outs_ins(want) == (6, 3)
        assert got.entries == want.entries


# the catalogue solutions whose (3,3) sides verify_p33 builds one first
# input at a time: bound |V|**3 * fan-out**3 above 4**6
SLICED_P33 = ("bichar:Z5", "bichar:Z6")

P33_WHOLE_SIDE_CASES = [(d, [None]) for d in catalog() if d != "set"] + [
    ("bichar:Z3", range(20)),
    ("bichar:Z5", range(3)),
    ("bichar:Z6", range(3)),
]


@pytest.mark.parametrize("backend", ["exact", "float"])
@pytest.mark.parametrize(
    "descriptor,seeds", P33_WHOLE_SIDE_CASES, ids=[f"{d}-{len(s)}" for d, s in P33_WHOLE_SIDE_CASES]
)
def test_p33_report_lines_equal_the_whole_side_reference(descriptor, seeds, backend):
    base = parse_solution(descriptor)
    verdicts = set()
    for seed in seeds:
        sol = base if seed is None else perturb_q(base, seed)
        report = verify_p33(sol, backend)
        assert report.lines() == whole_side_p33(sol, backend).lines(), seed
        verdicts.add(report.verdict)
    # every perturbed group has failing seeds, so the fold's witness is read
    assert verdicts == ({"pass"} if seeds == [None] else {"fail"})


@pytest.mark.parametrize("backend", ["exact", "float"])
@pytest.mark.parametrize("descriptor,seed", [("bichar:Z5", 1), ("bichar:Z2xZ2", None), ("triple:groupalg:S3", None)])
def test_p33_slices_partition_the_whole_sides(descriptor, seed, backend):
    sol = parse_solution(descriptor)
    q = in_backend((sol if seed is None else perturb_q(sol, seed)).q, backend)
    whole = p33_sides(q)
    union = ({}, {})
    for x in q.domain.elements():
        for part, acc in zip(p33_sides(q, x), union):
            assert outs_ins(part) == (6, 3)
            assert all(key[6] == x for key in part.entries)
            acc.update(part.entries)
    for side, acc in zip(whole, union):
        assert acc == side.entries
    with pytest.raises(ValueError, match="-1 is not an element of"):
        p33_sides(q, -1)


@pytest.mark.parametrize("descriptor,joins", [("bichar:Z4", 7), ("bichar:Z2xZ2", 7), ("bichar:Z5", 1 + 6 * 5)])
def test_p33_slices_only_sides_above_the_cut_off(descriptor, joins, monkeypatch):
    # one join builds Q sigma, then six build the two sides, once in all at
    # a bound of at most 4**6 and once per first input above it
    counted, contract = [], tensors.contract
    monkeypatch.setattr(tensors, "contract", lambda *args: counted.append(args) or contract(*args))
    assert verify_p33(parse_solution(descriptor))
    assert len(counted) == joins
    assert verify.P33_SLICED_ABOVE == 4**6


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_sliced_p33_peaks_at_a_third_of_the_whole_sides(backend):
    sol = parse_solution("bichar:Z6")
    verify_p33(sol, backend)  # warm the ring's tables and the imports
    peaks = []
    for check in (whole_side_p33, verify_p33):
        tracemalloc.start()
        try:
            check(sol, backend)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    whole, sliced = peaks
    assert 3 * sliced <= whole, peaks


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
    assert lhs.entries == want_lhs.entries
    assert rhs.entries == want_rhs.entries


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
    assert verify._fan_out(q_as_map(parse_solution("triple:groupalg:S3").q)) == 1
    assert verify._fan_out(q_as_map(parse_solution("bichar:Z6").q)) == 6


def test_verify_p33_passes_for_shipped_solutions():
    for descriptor in ["bichar:Z2", "bichar:Z3", "triple:groupalg:Z2", "triple:groupalg:S3"]:
        report = verify_p33(parse_solution(descriptor))
        assert report.fields["backend"] == "exact"
        assert report, (descriptor, report.witness)


def test_every_python_default_backend_is_exact_on_bichar_z5():
    sol = parse_solution("bichar:Z5")
    sphere = simplex_boundary(5)
    # two pentachora glued along all five facets: 5**5 states to enumerate
    pair = Triangulation(4, [((0, 1, 2, 3, 4), 1), ((0, 1, 2, 3, 4), -1)])
    reports = [
        verify_p33(sol),
        verify_yb_family(sol),
        verify_pentagon(identity(sol.domain, 2)),
        invariance_run(sphere, sol, count=1, seed=0),
    ]
    assert [(r.fields["backend"], r.verdict) for r in reports] == [("exact", "pass")] * 4
    assert build_assignment(sphere, sol).tensors[0].ring.name == "exact"
    assert isinstance(partition_bruteforce(pair, sol), Scalar)
    with pytest.raises(ValueError, match="unknown backend 'auto'"):
        verify_p33(sol, backend="auto")


def test_verify_p33_flipped_entry_fails_with_witness():
    sol = parse_solution("bichar:Z2")
    entries = dict(sol.q.entries)
    key = (1, 0, 1, 0, 1)
    entries[key] = -entries[key]
    bad = SolutionSpec("bicharacter", "bichar:Z2:flipped", sol.domain,
                       GroupTensor(sol.domain, sol.q.variances, entries))
    report = verify_p33(bad)
    assert report.verdict == "fail"
    assert report.witness
    assert report.extras["lhs_value"] != report.extras["rhs_value"]


def test_perturbed_product_group_reports_print_the_recorded_witness():
    # seed 0 on bichar:Z2xZ2: every backend and the dense oracle name the
    # same least failing key, in dotted residues
    sol = perturb_q(parse_solution("bichar:Z2xZ2"), 0)
    witness = "witness=0.0,0.0,1.1,0.1,1.0,1.1,0.1,0.1,1.0"
    head = ["relation=p33", "target=bichar:Z2xZ2:perturbed:0"]
    assert verify_p33(sol).lines() == head + [
        "backend=exact", "verdict=fail", "checks=4480", witness,
        "lhs_nnz=4292", "lhs_value=0", "rhs_nnz=4292", "rhs_value=-1·z^1 · r^1",
    ]
    assert verify_p33(sol, backend="float").lines() == head + [
        "backend=float", "verdict=fail", "checks=4480", witness,
        "lhs_nnz=4292", "lhs_value=0+0j", "rhs_nnz=4292", "rhs_value=0-2j",
    ]
    assert dense_p33_oracle(sol).lines() == [
        "relation=p33-dense", "target=bichar:Z2xZ2:perturbed:0", "backend=dense",
        "verdict=fail", "checks=262144", witness,
        "lhs_value=0+0j", "rhs_value=-9.79717439318e-16-16j",
    ]


def test_verify_p33_zero_solution_passes():
    group = FinAbGroup([2])
    zero = SolutionSpec("bicharacter", "zero", group,
                        GroupTensor(group, (UP, DOWN, UP, DOWN, UP), {}))
    assert verify_p33(zero)


def test_verify_p33_rejects_bad_shape():
    group = FinAbGroup([2])
    flat = GroupTensor(group, (UP, UP, UP, DOWN, DOWN), {})
    with pytest.raises(ValueError, match="variance pattern"):
        q_as_map(flat)
    with pytest.raises(ValueError, match="backend"):
        verify_p33(parse_solution("bichar:Z2"), backend="quantum")


def test_exact_and_float_backends_agree():
    for descriptor in ["bichar:Z2", "bichar:Z4", "bichar:Z2xZ2"]:
        sol = parse_solution(descriptor)
        assert verify_p33(sol, backend="exact").verdict == verify_p33(sol, backend="float").verdict
    bad = perturb_q(parse_solution("bichar:Z3"), 5)
    assert verify_p33(bad, backend="exact").verdict == verify_p33(bad, backend="float").verdict == "fail"


def coded_dict_join(ring, entries1, s1, free1, entries2, s2, free2, k, order=None):
    """ComplexRing.join through the dict join on tuple keys (the
    reference), its result coded back."""
    getter = lambda slots: (lambda key: tuple(key[p] for p in slots))
    joined = reference.dict_complex_join(
        ring, dict(entries1.items()), getter(s1), getter(free1),
        dict(entries2.items()), getter(s2), getter(free2), k, None if order is None else getter(order),
    )
    return _FloatEntries.from_dict(joined, entries1.radix, len(free1) + len(free2))


def test_float_sides_have_the_dict_joins_bits(monkeypatch):
    # the whole (3,3) sides and the sides of every Yang-Baxter family
    # identity compared, key for key and bit for bit, with the sides the
    # dict join builds, on the clean solutions and the 20 Z3 controls
    base = parse_solution("bichar:Z3")
    sols = [parse_solution(f"bichar:{g}") for g in ("Z2", "Z3", "Z4", "Z5", "Z6", "Z2xZ2")]
    sols += [parse_solution("triple:groupalg:S3")] + [perturb_q(base, seed) for seed in range(20)]

    def sides(sol):
        found = list(p33_sides(in_backend(sol.q, "float")))
        monkeypatch.setattr(verify, "tensor_equal", lambda a, b: found.extend((a, b)) or tensor_equal(a, b))
        verify_yb_family(sol, backend="float")
        monkeypatch.setattr(verify, "tensor_equal", tensor_equal)
        return found

    for sol in sols:
        got = sides(sol)
        with monkeypatch.context() as patched:
            patched.setattr(ComplexRing, "join", coded_dict_join)
            want = sides(sol)
        assert len(got) == len(want) >= 4
        for a, b in zip(got, want):
            assert_identical_entries(a, b)


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
    assert verify_pentagon(identity(dom, 2))


def test_pentagon_random_map_fails_with_witness():
    dom = BasisDomain(3)
    rng = random.Random(3)
    entries = {}
    for key in itertools.product(range(3), repeat=4):
        entries[key] = dom.ring.integer(rng.randrange(-3, 4))
    report = verify_pentagon(GroupTensor(dom, (UP, UP, DOWN, DOWN), entries))
    assert report.verdict == "fail"
    assert report.witness


def test_pentagon_failure_reports_both_values():
    s = pentagon_map(triple_from_table(named_group_table("S3"), "S3"))
    entries = dict(s.entries)
    key = min(entries)
    entries[key] = entries[key] + entries[key]
    report = verify_pentagon(GroupTensor(s.domain, s.variances, entries, s.ring))
    assert report.verdict == "fail"
    lhs, rhs = report.extras["lhs_value"], report.extras["rhs_value"]
    assert lhs != rhs
    assert f"lhs_value={lhs}" in report.lines() and f"rhs_value={rhs}" in report.lines()


def _compared(verdict, key=None):
    shown = {} if key is None else {"lhs_value": f"l{key[0]}", "rhs_value": f"r{key[0]}"}
    witness = "" if key is None else _fmt_key(BasisDomain(3), key)
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
        assert outs_ins(zk) == (2, 2)
        for x in group.elements():
            for y in group.elements():
                u = group.add(x, y)
                v = group.add(y, k)
                assert zk.entry((x, y, u, v)) == group.chi(x, k) * ring.integer(2)
        assert len(zk.entries) == 4
    # X^i[(y,z),(u,v)] = Q(i,u,y,v,z)
    for i in group.elements():
        xi = fams["X"][i]
        for key, val in xi.entries.items():
            y, z, u, v = key
            assert sol.q.entry((i, u, y, v, z)) == val


def test_families_of_zero_tensor_are_zero():
    group = FinAbGroup([2])
    zero = GroupTensor(group, (UP, DOWN, UP, DOWN, UP), {})
    fams = build_families(zero)
    assert all(not m.entries for fam in fams.values() for m in fam.values())


def test_pinning_sums_back_to_partial_trace():
    group = FinAbGroup([3])
    q = q_from_bicharacter(group).q
    total = {}
    for a in group.elements():
        for key, val in pin(q, 0, a).entries.items():
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
    exact and float for |V| <= 5, float alone for bichar:Z6 (its exact
    run takes about 1.6 times as long) and exact alone for the order-6 triples."""
    for descriptor in [d for d in catalog() if d != "set"] + ["triple:groupalg:Z1"]:
        seeds = range(20) if descriptor in ("bichar:Z2", "bichar:Z3") else range(3)
        if descriptor == "bichar:Z6":
            backends = ("float",)
        elif parse_solution(descriptor).domain.size <= 5:
            backends = ("exact", "float")
        else:
            backends = ("exact",)
        for backend in backends:
            yield pytest.param(descriptor, backend, [None, *seeds], id=f"{descriptor}-{backend}")


def without_counts(lines):
    return [line for line in lines if not line.startswith("checks=") and "_triples=" not in line]


@pytest.mark.parametrize("descriptor,backend,seeds", yb_reference_cases())
def test_yb_report_lines_equal_the_padded_family_reference(descriptor, backend, seeds):
    base = parse_solution(descriptor)
    names = ("pe1", "pe2", "ybe")
    for seed in seeds:
        sol = base if seed is None else perturb_q(base, seed)
        got = verify_yb_family(sol, backend)
        # every identity the reference's fold reaches, with all its triples
        reached = {}
        identities = padded_yb_identities(sol, backend)
        want = fold_padded_identities(
            sol, backend, ((name, reached.setdefault(name, triples)) for name, triples in identities)
        )
        assert without_counts(got.lines()) == without_counts(want.lines()), seed
        # a whole identity is compared at once, so checks and triples count
        # every triple of each identity reached, past a failing one too
        assert got.checks == sum(rep.checks for triples in reached.values() for _, rep in triples), seed
        triples = {name: sol.domain.size**3 if name in reached else 0 for name in names}
        assert {name: got.extras[f"{name}_triples"] for name in names} == triples, seed


def recorded_sides(check, sol, monkeypatch):
    """Every side pair a yb check compares, each as its entry dict, with
    every comparison reported equal so the fold reaches all of them."""
    sides = []

    def record(a, b, rel=1e-9):
        sides.append((a.entries, b.entries))
        return Report("tensor-equal", {"verdict": "pass", "checks": 0})

    with monkeypatch.context() as patch:
        patch.setattr(verify, "tensor_equal", record)
        patch.setattr(reference, "tensor_equal", record)
        assert check(sol, "exact")
    return sides


def split_by_triple(entries, elems):
    """A whole side's entries as one dict per index triple (its first
    three slots), over every triple in order."""
    split = {triple: {} for triple in itertools.product(elems, repeat=3)}
    for key, val in entries.items():
        split[key[:3]][key[3:]] = val
    return list(split.values())


@pytest.mark.parametrize("descriptor", ["bichar:Z2", "bichar:Z3", "triple:groupalg:S3"])
def test_yb_sides_equal_the_padded_families_in_every_identity(descriptor, monkeypatch):
    base = parse_solution(descriptor)
    elems = list(base.domain.elements())
    for sol in [base] + [perturb_q(base, seed) for seed in range(3)]:
        got = recorded_sides(verify_yb_family, sol, monkeypatch)
        want = recorded_sides(padded_yb_family, sol, monkeypatch)
        assert len(got) == 3 and len(want) == 3 * len(elems) ** 3
        split = [
            pair
            for lhs, rhs in got
            for pair in zip(split_by_triple(lhs, elems), split_by_triple(rhs, elems))
        ]
        assert split == want


def counted_comparisons(sol, monkeypatch):
    """The report of a yb check and the slot counts of each pair it compares."""
    arities = []

    def counted(a, b, rel=1e-9):
        arities.append((a.arity, b.arity))
        return tensor_equal(a, b, rel)

    with monkeypatch.context() as patch:
        patch.setattr(verify, "tensor_equal", counted)
        return verify_yb_family(sol), arities


def test_yb_compares_each_identity_once_whole(monkeypatch):
    for descriptor in ["bichar:Z2", "bichar:Z3", "triple:groupalg:S3"]:
        report, arities = counted_comparisons(parse_solution(descriptor), monkeypatch)
        assert report and arities == [(9, 9)] * 3, descriptor
    report, arities = counted_comparisons(perturb_q(parse_solution("bichar:Z3"), 1), monkeypatch)
    assert report.witness.startswith("pe1[") and arities == [(9, 9)]


def counted_composes_and_joins(sol, monkeypatch):
    calls = Counter()
    compose, contract = GroupTensor.compose, tensors.contract

    def counted_compose(self, other, at=None, then=(), order=None):
        calls["compose"] += 1
        return compose(self, other, at, then, order)

    def counted_contract(*args):
        calls["join"] += 1
        return contract(*args)

    with monkeypatch.context() as patch:
        patch.setattr(GroupTensor, "compose", counted_compose)
        patch.setattr(tensors, "contract", counted_contract)
        report = verify_yb_family(sol)
    return report, calls


@pytest.mark.parametrize("descriptor", ["bichar:Z2", "bichar:Z3", "bichar:Z4", "triple:groupalg:S3"])
def test_yb_makes_18_composes_and_18_joins_for_every_domain(descriptor, monkeypatch):
    report, calls = counted_composes_and_joins(parse_solution(descriptor), monkeypatch)
    assert report
    # 11 + 10 + 12 factors across the three identities' two sides, of which
    # 6 + 6 + 6 are copies of Q; every sigma follows a Q and folds into its
    # join, so each compose is one join
    assert calls == {"compose": 18, "join": 18}


def test_yb_fold_failing_in_pe1_builds_no_later_side(monkeypatch):
    sol = perturb_q(parse_solution("bichar:Z3"), 1)
    report, calls = counted_composes_and_joins(sol, monkeypatch)
    assert report.verdict == "fail" and report.witness.startswith("pe1[")
    assert (report.extras["pe2_triples"], report.extras["ybe_triples"]) == (0, 0)
    assert calls == {"compose": 6, "join": 6}


def recorded_words(checks, monkeypatch):
    """The (word, start, order) of every apply_word call the checks make,
    each with its folded result."""
    calls = []
    apply_word = verify.apply_word

    def recording(word, x, order=None):
        got = apply_word(word, x, order)
        calls.append((word, x, order, got))
        return got

    with monkeypatch.context() as patch:
        patch.setattr(verify, "apply_word", recording)
        for check, *args in checks:
            check(*args)
    return calls


def word_checks(backend):
    """(label, checks, words they build): the p33 and yb sides of every
    shipped solution and of 20 perturbed bichar:Z3, and the pentagon sides
    of every triple's group."""
    sols = [parse_solution(d) for d in catalog() if d != "set"]
    sols += [perturb_q(parse_solution("bichar:Z3"), seed) for seed in range(20)]
    for sol in sols:
        # Q sigma and the two p33 sides, or the sides' two slices per first
        # input where verify_p33 slices them; a perturbed Q fails pe1, so
        # the yb fold builds its two sides only
        p33_words = 1 + 2 * sol.domain.size if sol.descriptor in SLICED_P33 else 3
        yb_words = 2 if "perturbed" in sol.descriptor else 6
        yield sol.descriptor, [(verify_p33, sol, backend), (verify_yb_family, sol, backend)], p33_words + yb_words
        if sol.descriptor.startswith("triple:"):
            name = sol.descriptor.rsplit(":", 1)[1]
            s = pentagon_map(triple_from_table(named_group_table(name), name))
            yield f"pentagon {name}", [(verify_pentagon, s, backend)], 2


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_folded_words_equal_factor_by_factor_words(backend, monkeypatch):
    for label, checks, n_words in word_checks(backend):
        calls = recorded_words(checks, monkeypatch)
        assert len(calls) == n_words, label
        for word, x, order, got in calls:
            assert got.ring.name == backend, label
            assert_identical_entries(got, factor_by_factor(word, x, order))


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_p33_sides_permute_nothing_larger_than_q(backend, monkeypatch):
    q = in_backend(parse_solution("bichar:Z6").q, backend)
    sizes = []
    permute = GroupTensor.permute
    monkeypatch.setattr(GroupTensor, "permute", lambda t, perm: sizes.append(len(t.entries)) or permute(t, perm))
    lhs, rhs = p33_sides(q)
    assert len(lhs.entries) == len(rhs.entries) == 6**6
    assert sizes and max(sizes) <= len(q.entries)


def test_folded_words_keep_the_wire_weight_judgement(monkeypatch):
    # radical patched as PACHNER_MUTATE=weight-sign patches it: r**-k reads
    # as r**k, so r**k * r**-k is not one and every folded sigma rescales
    original = ScalarRing.radical
    monkeypatch.setattr(ScalarRing, "radical", lambda self, e=1: original(self, abs(e)))
    sol = parse_solution("bichar:Z3")
    calls = recorded_words([(verify_p33, sol, "exact"), (verify_yb_family, sol, "exact")], monkeypatch)
    assert len(calls) == 5  # Q sigma, both p33 sides; the fold stops at a failing pe1
    for word, x, order, got in calls:
        assert_identical_entries(got, factor_by_factor(word, x, order))
    assert verify_p33(sol).verdict == "fail"
    # the judgement is what fails it: without the rescale the sides agree
    monkeypatch.setattr(WirePermutation, "_rescale", lambda self, t: t)
    assert verify_p33(sol)


# -- the theorem ---------------------------------------------------------------


def test_case1_integral_matches_its_closed_form():
    group = FinAbGroup([3])
    sol = q_from_bicharacter(group)
    kernels = symmetry_kernels(group)
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
    kernels = symmetry_kernels(group)
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


def _theorem_data():
    """(id, solution, kernels): every theorem input the class-id sums must
    reproduce, passing and failing."""
    for literal in ["Z2", "Z3", "Z4", "Z5", "Z6", "Z2xZ2"]:
        group = parse_group(literal)
        q = q_from_bicharacter(group).q
        yield literal, q, symmetry_kernels(group)
        trivial = symmetry_kernels(group, gauss=lambda x, group=group: group.ring.one)
        yield f"{literal}-trivial-unit", q, trivial
    z4 = parse_group("Z4")
    for a in (0, 2):
        # chi_a(x, y) = omega**(a x y), omega = z**2 in the ring of 8th roots;
        # on Z4 an element's index is its residue
        chi = lambda x, y, a=a: z4.ring.root(2 * a * x * y)
        yield f"Z4-chi{a}", q_from_bicharacter(z4, chi=chi).q, symmetry_kernels(z4)
    z2z2 = FinAbGroup([2, 2])
    skew = lambda x, y: z2z2.ring.root(2 * (z2z2.coords[x][0] * z2z2.coords[y][1]) % 4)
    yield "Z2xZ2-skew", q_from_bicharacter(z2z2, chi=skew).q, symmetry_kernels(z2z2)


@pytest.mark.parametrize("dt,kernels", [pytest.param(*d[1:], id=d[0]) for d in _theorem_data()])
def test_proof_integral_equals_the_term_by_term_sum(dt, kernels):
    for plan in _PROOF_CASES.values():
        got = _proof_integral(dt, plan, kernels)
        ref = expanded_proof_integral(dt, plan, kernels)
        # same keys in the same order, and each value's terms in the same order
        assert [(k, tuple(v.terms.items())) for k, v in got.entries.items()] == [
            (k, tuple(v.terms.items())) for k, v in ref.entries.items()
        ]


@pytest.mark.parametrize("literal", ["Z2", "Z3"])
def test_proof_integral_equals_the_term_by_term_sum_for_every_plan_shape(literal):
    # three kernels at every three of the five positions, every choice of
    # kernel at each, and the output slots assigned to the positions in
    # each of the 120 orders in turn
    group = parse_group(literal)
    q, kernels = q_from_bicharacter(group).q, symmetry_kernels(group)
    slot_orders = list(itertools.permutations(range(5)))
    shapes = itertools.product(itertools.combinations(range(5), 3), itertools.product(kernels, repeat=3))
    for i, (positions, names) in enumerate(shapes):
        slots, named = slot_orders[i % len(slot_orders)], dict(zip(positions, names))
        plan = [("ker", slots[pos], named[pos]) if pos in named else ("free", slots[pos]) for pos in range(5)]
        got = _proof_integral(q, plan, kernels)
        ref = expanded_proof_integral(q, plan, kernels)
        assert [(k, tuple(v.terms.items())) for k, v in got.entries.items()] == [
            (k, tuple(v.terms.items())) for k, v in ref.entries.items()
        ], plan


def test_proof_integral_adds_no_scalars_and_joins_nothing(monkeypatch):
    group = parse_group("Z2xZ2")
    q, kernels = q_from_bicharacter(group).q, symmetry_kernels(group)
    expected = [expanded_proof_integral(q, plan, kernels) for plan in _PROOF_CASES.values()]
    refuse = lambda name: lambda *args, **kwargs: pytest.fail(f"called {name}")
    monkeypatch.setattr(Scalar, "__add__", refuse("Scalar.__add__"))
    monkeypatch.setattr(ScalarRing, "join", refuse("ScalarRing.join"))
    monkeypatch.setattr(tensors, "contract", refuse("contract"))
    for plan, ref in zip(_PROOF_CASES.values(), expected):
        assert _proof_integral(q, plan, kernels).entries == ref.entries


def test_exact_sums_add_no_scalar_pairwise(monkeypatch):
    # a state sum's joins meet collided keys, and the proof integrals' keys
    # hold many terms; both are added by ScalarRing.sum, never by
    # Scalar.__add__
    group = parse_group("Z3")
    q, kernels = q_from_bicharacter(group).q, symmetry_kernels(group)
    expected = [expanded_proof_integral(q, plan, kernels) for plan in _PROOF_CASES.values()]
    sphere = build_assignment(simplex_boundary(5), parse_solution("bichar:Z2"))
    sums = Counter()
    ring_sum = ScalarRing.sum
    monkeypatch.setattr(ScalarRing, "sum", lambda self, values: sums.update([self]) or ring_sum(self, values))
    for name in ("__add__", "__radd__"):
        monkeypatch.setattr(Scalar, name, lambda *args, name=name: pytest.fail(f"called Scalar.{name}"))
    assert partition_value(sphere).render() == "1 · r^9"
    assert sums[sphere.tensors[0].ring] > 0
    for plan, ref in zip(_PROOF_CASES.values(), expected):
        assert _proof_integral(q, plan, kernels).entries == ref.entries
    assert sums[group.ring] > 0


def test_proof_integral_canonicalises_once_per_distinct_sum(monkeypatch):
    group = parse_group("Z5")
    q, kernels = q_from_bicharacter(group).q, symmetry_kernels(group)
    canonical = ScalarRing._canonical
    calls = Counter()

    def counting(self, terms):
        calls[case] += 1
        return canonical(self, terms)

    monkeypatch.setattr(ScalarRing, "_canonical", counting)
    for case in ("case2", "case3"):
        # cold tables, so the count is this integral's own
        group.ring._drop_tables()
        _proof_integral(q, _PROOF_CASES[case], kernels)
    # the term-by-term sum canonicalises 2,517 times in each
    assert 0 < calls["case2"] < 100 and 0 < calls["case3"] < 100


def test_theorem_builds_kernels_once_and_passes_the_gauss_override(monkeypatch):
    group = parse_group("Z3")
    built = []
    build = solutions.symmetry_kernels
    counting = lambda *a, **kw: built.append(kw) or build(*a, **kw)
    for module in (solutions, verify):
        monkeypatch.setattr(module, "symmetry_kernels", counting)
    assert verify_theorem(group)
    assert built == [{"gauss": None}]
    unit = lambda x: group.ring.one
    assert verify_theorem(group, gauss=unit).verdict == "fail"
    assert built == [{"gauss": None}, {"gauss": unit}]


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
    skew = lambda x, y: group.ring.root(2 * (group.coords[x][0] * group.coords[y][1]) % 4)
    report = verify_theorem(group, chi=skew)
    assert report.verdict == "fail"


@pytest.mark.parametrize("literal", ["Z2", "Z3", "Z4", "Z2xZ2"])
def test_theorem_terms_count_the_expanded_kernel_rows(literal):
    group = parse_group(literal)
    sol = q_from_bicharacter(group)
    kernels = symmetry_kernels(group)
    row_sizes = {k: Counter(col for _, col in kern.entries) for k, kern in kernels.items()}
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
    # one slab's bytes, comparison temporaries counted: Z8 passes the
    # bound and Z9 does not
    slab = lambda n: 56 * n**8 + 16 * n**7
    assert slab(8) <= verify.DENSE_BYTES_LIMIT < slab(9)
    monkeypatch.setattr("numpy.zeros", lambda *args, **kwargs: pytest.fail("allocated"))
    with pytest.raises(pytest.fail.Exception, match="allocated"):
        dense_p33_oracle(parse_solution("bichar:Z8"))
    with pytest.raises(ValueError, match=r"needs 1.38 GB .* plus 1.03 GB for the comparison's 9\^8"):
        dense_p33_oracle(parse_solution("bichar:Z9"))


def test_dense_witness_past_the_first_slab_is_the_least_failing_index():
    # a seeded random tensor on Z3 with no entry in first slot 0: slab 0
    # of both sides is zero, so the least failing index lies in a later
    # slab, and the witness must be the least one over every slab
    import numpy as np

    group = FinAbGroup([3])
    ring = group.ring
    rng = random.Random(5)
    entries = {}
    for key in itertools.product(group.elements(), repeat=5):
        if key[0] and rng.random() < 0.4:
            entries[key] = ring.root(rng.randrange(6)) * ring.integer(rng.randrange(1, 3))
    sol = SolutionSpec("random", "random:slab", group, GroupTensor(group, (UP, DOWN, UP, DOWN, UP), entries))
    elems, (lhs, rhs), _ = naive_dense_grids(sol.q)
    bad = np.argwhere(~np.isclose(lhs, rhs, rtol=1e-9, atol=1e-9))
    first = tuple(int(v) for v in bad[0])
    # failures in two slabs, the least past slab 0
    assert first[0] == 1 and {int(v) for v in bad[:, 0]} == {1, 2}
    report = dense_p33_oracle(sol)
    assert (report.verdict, report.checks) == ("fail", 3**9)
    assert report.witness == _fmt_key(sol.q.domain, tuple(elems[i] for i in first))
    assert abs(complex(report.extras["lhs_value"]) - lhs[first]) <= 1e-9 * max(1.0, abs(lhs[first]))
    assert abs(complex(report.extras["rhs_value"]) - rhs[first]) <= 1e-9 * max(1.0, abs(rhs[first]))


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
    assert report.witness == _fmt_key(sol.q.domain, tuple(elems[i] for i in first))
    assert abs(complex(report.extras["lhs_value"]) - lhs[first]) <= 1e-9 * max(1.0, abs(lhs[first]))
    assert abs(complex(report.extras["rhs_value"]) - rhs[first]) <= 1e-9 * max(1.0, abs(rhs[first]))


def test_dense_bound_counts_the_intermediate(monkeypatch):
    sol = parse_solution("bichar:Z3")
    monkeypatch.setattr("numpy.zeros", lambda *args, **kwargs: pytest.fail("allocated"))
    counted = 32 * 3**8 + 16 * 3**7 + 24 * 3**8
    monkeypatch.setattr(verify, "DENSE_BYTES_LIMIT", counted - 1)
    with pytest.raises(
        ValueError,
        match=r"two 3\^8 slabs and 0.00 GB for an 3\^7 intermediate, "
        r"plus 0.00 GB for the comparison's 3\^8 temporaries",
    ):
        dense_p33_oracle(sol)
    monkeypatch.setattr(verify, "DENSE_BYTES_LIMIT", counted)
    with pytest.raises(pytest.fail.Exception, match="allocated"):
        dense_p33_oracle(sol)


@pytest.mark.parametrize("group", ["Z3", "Z4"])
@pytest.mark.parametrize("seed", [None, 2])
def test_dense_traced_peak_stays_within_the_counted_bytes(group, seed, monkeypatch):
    """The counted bytes bound the traced peak from n = 3 on: at n = 2 a
    slab's build equals the count, and the solution array, einsum's
    operand copies and numpy's per-array cost come on top of it."""
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
    # the trace sees the slabs: at least one side's slab at once, and on
    # Z4 less than one side's full grid
    assert 16 * n**8 <= peak
    if n == 4:
        assert peak < 16 * n**9
    # the bytes the oracle counts are at least the peak: a limit one byte
    # below the peak refuses the run
    monkeypatch.setattr(verify, "DENSE_BYTES_LIMIT", peak - 1)
    with pytest.raises(ValueError, match="GB limit"):
        dense_p33_oracle(sol)


def test_yb_refuses_large_checks_before_building_families(monkeypatch):
    sol = parse_solution("bichar:Z3")
    monkeypatch.setattr("pachner.tensors.contract", lambda *args: pytest.fail("contracted"))
    monkeypatch.setattr(verify, "q_as_map", lambda *args: pytest.fail("built"))
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
