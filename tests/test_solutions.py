import cmath
import itertools
from fractions import Fraction

import numpy as np
import pytest

from pachner import solutions
from pachner.groups import FinAbGroup, parse_group
from pachner.scalars import Scalar
from pachner.solutions import (
    check_compatibility,
    cyclic_table,
    groups_up_to_order,
    named_group_table,
    parse_solution,
    pentagon_map,
    perturb_q,
    product_table,
    q_from_bicharacter,
    q_from_triple,
    s3_table,
    set_q,
    symmetry_kernels,
    triple_from_table,
    validate_bicharacter,
)
from pachner.tensors import DOWN, UP, GroupTensor, contract, identity, tensor_equal
from reference import lin_matrix, outs_ins

AXIOM_NAMES = [
    "associativity",
    "coassociativity_lam",
    "coassociativity_rho",
    "mu_morphism_of_lam",
    "mu_morphism_of_rho",
    "lam_morphism_of_rho",
    "rho_morphism_of_lam",
]


def chi_numeric(group, x, y):
    out = 1.0 + 0j
    for xi, yi, n in zip(group.coords[x], group.coords[y], group.orders):
        out *= cmath.exp(2j * cmath.pi * (n + 1) * xi * yi / n)
    return out


# -- bicharacter family -------------------------------------------------------


def test_bicharacter_solution_entries_on_z2():
    group = FinAbGroup([2])
    ring = group.ring
    sol = q_from_bicharacter(group)
    q = sol.q
    assert q.variances == (UP, DOWN, UP, DOWN, UP)
    # chi(1, 0) = 1, two normalized deltas contribute r*r = 2
    assert q.entry((1, 0, 1, 1, 0)) == ring.integer(2)
    # chi(1, 1) = -1 on Z/2
    assert q.entry((1, 0, 1, 0, 1)) == ring.integer(-2)
    assert q.entry((0, 0, 0, 0, 0)) == ring.integer(2)
    # off the delta support: u != x + y
    assert not q.entry((1, 1, 1, 1, 1))
    assert len(q.entries) == 8


def test_bicharacter_solution_matches_numeric_formula():
    group = FinAbGroup([3])
    q = q_from_bicharacter(group).q.to_float()
    for key in itertools.product(group.elements(), repeat=5):
        x, u, y, v, z = key
        expected = 0j
        if u == group.add(x, y) and v == group.add(y, z):
            expected = chi_numeric(group, x, z) * group.size
        assert abs(q.entry(key) - expected) < 1e-12


def test_bicharacter_nonzero_count_is_cube_of_order():
    for literal in ["Z2", "Z4", "Z2xZ2"]:
        group = parse_group(literal)
        assert len(q_from_bicharacter(group).q.entries) == group.size**3


def test_validate_bicharacter_rejects_gauss_product():
    group = FinAbGroup([2])
    bad = lambda x, y: group.gauss_g(x) * group.gauss_g(y)
    with pytest.raises(ValueError, match="multiplicative"):
        validate_bicharacter(group, bad)


@pytest.mark.parametrize(
    "bad, where",
    [
        (((1, 0), (0, 1)), "first argument at ((0, 1), (1, 0), (0, 1))"),
        (((0, 1), (1, 1)), "second argument at ((0, 1), (0, 1), (1, 0))"),
        (((0, 0), (1, 1)), "first argument at ((0, 0), (0, 0), (1, 1))"),
    ],
)
def test_non_multiplicative_chi_names_its_first_failing_triple(bad, where):
    # chi on Z2xZ2 with one value negated, evaluated once per pair; bad
    # names the pair by residues, as the message does
    group = FinAbGroup([2, 2])
    calls = []

    def chi(x, y):
        calls.append((x, y))
        negated = (group.coords[x], group.coords[y]) == bad
        return -group.chi(x, y) if negated else group.chi(x, y)

    with pytest.raises(ValueError) as err:
        validate_bicharacter(group, chi)
    assert str(err.value) == f"chi is not multiplicative in the {where}"
    assert sorted(calls) == sorted(itertools.product(group.elements(), repeat=2))


def test_bicharacter_entries_are_chi_times_r_squared():
    for literal in ("Z4", "Z2xZ2"):
        group = parse_group(literal)
        weight = group.ring.radical() * group.ring.radical()
        q = q_from_bicharacter(group).q
        for (x, _, _, _, z), value in q.entries.items():
            want = group.chi(x, z) * weight
            assert list(value.terms.items()) == list(want.terms.items())


def test_validate_bicharacter_accepts_asymmetric_pairing():
    group = FinAbGroup([2, 2])
    skew = lambda x, y: group.ring.root(2 * (group.coords[x][0] * group.coords[y][1]) % 4)
    validate_bicharacter(group, skew)
    # the elements with residues (1, 0) and (0, 1)
    assert skew(2, 1) != skew(1, 2)


def test_valid_bicharacter_validates_without_scalar_equality(monkeypatch):
    # hash-consing makes each chi value and each product of them one
    # object, so a valid bicharacter never reaches Scalar.__eq__
    group = parse_group("Z4")
    calls = []
    eq = Scalar.__eq__
    monkeypatch.setattr(Scalar, "__eq__", lambda a, b: calls.append((a, b)) or eq(a, b))
    table = validate_bicharacter(group, group.chi)
    assert calls == []
    assert all(table[x, y] is group.chi(x, y) for x, y in itertools.product(group.elements(), repeat=2))
    # a broken chi still compares its distinct values
    with pytest.raises(ValueError, match="multiplicative"):
        validate_bicharacter(group, lambda x, y: -group.chi(x, y))
    assert calls


# -- group tables -------------------------------------------------------------


def test_cyclic_and_product_tables():
    t = cyclic_table(3)
    assert t[1][2] == 0
    tp = product_table(cyclic_table(2), cyclic_table(2))
    # element indices: (a, b) -> 2a + b; (1,0) + (1,1) = (0,1)
    assert tp[2][3] == 1
    assert len(tp) == 4


def test_s3_table_is_a_nonabelian_group():
    t = s3_table()
    assert len(t) == 6
    assert any(t[i][j] != t[j][i] for i in range(6) for j in range(6))
    # identity is the sorted-first permutation (0, 1, 2)
    assert all(t[0][j] == j and t[j][0] == j for j in range(6))
    # every row and column is a permutation
    for i in range(6):
        assert sorted(t[i]) == list(range(6))
        assert sorted(row[i] for row in t) == list(range(6))


def test_groups_up_to_order_six_catalog():
    names = [name for name, _ in groups_up_to_order(6)]
    assert names == ["Z1", "Z2", "Z3", "Z4", "Z2xZ2", "Z5", "Z6", "S3"]
    assert [name for name, _ in groups_up_to_order(3)] == ["Z1", "Z2", "Z3"]


def test_named_group_table_rejects_unknown():
    # the grammar and its wording are groups.parse_group's
    for name in ("Q8", "Z0", "Z2xS3"):
        with pytest.raises(ValueError, match=f"bad group literal '{name}'"):
            named_group_table(name)


def test_named_group_table_strips_whitespace():
    assert named_group_table(" Z2xZ3\n") == named_group_table("Z2xZ3")
    assert named_group_table("\tS3 ") == s3_table()
    # a descriptor names its group as the literal reads without whitespace
    assert parse_solution("triple:groupalg: Z2").descriptor == "triple:groupalg:Z2"
    assert parse_solution("bichar: Z2").descriptor == "bichar:Z2"


def test_oversized_group_table_is_refused_before_building(monkeypatch):
    monkeypatch.setattr(solutions, "cyclic_table", lambda n: pytest.fail("built"))
    with pytest.raises(ValueError, match="group Z4xZ5 has order 20, over the limit of 16"):
        named_group_table("Z4xZ5")
    with pytest.raises(ValueError, match="group Z300 has order 300"):
        named_group_table("Z300")
    with pytest.raises(pytest.fail.Exception, match="built"):
        named_group_table("Z4xZ4")


def test_oversized_bicharacter_is_refused_before_construction(monkeypatch):
    group = parse_group("Z3")
    monkeypatch.setattr(solutions, "validate_bicharacter", lambda *args: pytest.fail("validated"))
    monkeypatch.setattr(FinAbGroup, "chi", lambda *args: pytest.fail("built"))
    monkeypatch.setattr(solutions, "BICHAR_ENTRIES_LIMIT", 26)
    with pytest.raises(ValueError, match="over Z3 holds 27 entries, over the limit of 26"):
        q_from_bicharacter(group)
    monkeypatch.setattr(solutions, "BICHAR_ENTRIES_LIMIT", 27)
    with pytest.raises(pytest.fail.Exception, match="validated"):
        q_from_bicharacter(group)


def test_size_limits_admit_every_shipped_descriptor():
    # bichar:Z8 (tests) and order-6 group algebras (the catalogue) are the
    # largest built anywhere; bichar:Z40 takes seconds to build
    assert 8**3 <= solutions.BICHAR_ENTRIES_LIMIT < 40**3
    assert 6 <= solutions.GROUP_TABLE_ORDER_LIMIT < 300
    assert len(named_group_table("Z2xZ2xZ2xZ2")) == 16
    with pytest.raises(ValueError, match="over Z17 holds 4913 entries"):
        q_from_bicharacter(parse_group("Z17"))


# -- triples ------------------------------------------------------------------


def test_group_algebra_triples_pass_all_axioms():
    for name, table in groups_up_to_order(6):
        assert check_compatibility(triple_from_table(table, name=name)) == [], name


def broken_product():
    """The Z2 group algebra triple with one more product entry: 1 * 0 -> 0."""
    triple = triple_from_table(cyclic_table(2))
    one = triple.domain.ring.one
    entries = dict(triple.mu.entries)
    entries[(1, 0, 0)] = one
    return triple.__class__(
        triple.domain,
        GroupTensor(triple.domain, (UP, DOWN, DOWN), entries),
        triple.lam,
        triple.rho,
    )


def test_broken_product_fails_a_morphism_axiom():
    broken = broken_product()
    failed = check_compatibility(broken)
    assert "mu_morphism_of_lam" in failed
    # the names come in axiom order, each once
    assert failed == [name for name in AXIOM_NAMES if name in failed]
    with pytest.raises(ValueError, match=f"incompatible triple: {', '.join(failed)} failed"):
        q_from_triple(broken)


def printed_products(t):
    """Each axiom's two sides, Q and S as the dense products of their
    printed factors: np.kron and @ over the maps' matrices."""
    n = t.domain.size
    mu, lam, rho = (lin_matrix(m) for m in (t.mu, t.lam, t.rho))
    i = np.eye(n)
    swap = np.zeros((n * n, n * n))
    for a, b in itertools.product(range(n), repeat=2):
        swap[b * n + a, a * n + b] = 1
    isi = np.kron(np.kron(i, swap), i)
    axioms = {
        "associativity": (mu @ np.kron(mu, i), mu @ np.kron(i, mu)),
        "coassociativity_lam": (np.kron(i, lam) @ lam, np.kron(lam, i) @ lam),
        "coassociativity_rho": (np.kron(i, rho) @ rho, np.kron(rho, i) @ rho),
        "mu_morphism_of_lam": (lam @ mu, np.kron(mu, mu) @ isi @ np.kron(lam, lam)),
        "mu_morphism_of_rho": (rho @ mu, np.kron(mu, mu) @ isi @ np.kron(rho, rho)),
        "lam_morphism_of_rho": (np.kron(rho, rho) @ lam, isi @ np.kron(lam, lam) @ rho),
        "rho_morphism_of_lam": (np.kron(lam, lam) @ rho, isi @ np.kron(rho, rho) @ lam),
    }
    q = np.kron(np.kron(i, mu), i) @ np.kron(lam, rho)
    s = np.kron(i, mu) @ np.kron(lam, i)
    return axioms, q, s


COMPATIBILITY_CASES = [name for name, _ in groups_up_to_order(6)] + ["broken"]


@pytest.mark.parametrize("name", COMPATIBILITY_CASES)
def test_axiom_sides_q_and_s_are_their_printed_products(name, monkeypatch):
    t = broken_product() if name == "broken" else triple_from_table(named_group_table(name), name)
    axioms, q, s = printed_products(t)
    assert list(axioms) == AXIOM_NAMES
    sides, equal = [], solutions.tensor_equal
    monkeypatch.setattr(solutions, "tensor_equal", lambda a, b, rel=1e-9: sides.append((a, b)) or equal(a, b, rel))
    failed = check_compatibility(t)
    monkeypatch.undo()
    assert len(sides) == len(axioms) == len(AXIOM_NAMES)
    for (axiom, (lhs, rhs)), (got_lhs, got_rhs) in zip(axioms.items(), sides):
        assert np.array_equal(lin_matrix(got_lhs), lhs), axiom
        assert np.array_equal(lin_matrix(got_rhs), rhs), axiom
    assert failed == [axiom for axiom, (lhs, rhs) in axioms.items() if not np.array_equal(lhs, rhs)]
    if name == "broken":
        assert failed == ["associativity", "mu_morphism_of_lam", "mu_morphism_of_rho"]
        return
    assert failed == []
    # Q in the map layout (x, y, z) <- (u, v)
    got_q = q_from_triple(t).q.permute([0, 2, 4, 1, 3])
    assert np.array_equal(lin_matrix(got_q), q)
    assert np.array_equal(lin_matrix(pentagon_map(t)), s)


def test_failing_axioms_are_named_in_axiom_order():
    # over Z2, the coproducts g -> g (x) 1 and g -> 0 (x) 0 break three
    # axioms whose names are not in alphabetical order
    triple = triple_from_table(cyclic_table(2))
    one = triple.domain.ring.one

    def coproduct(entries):
        return GroupTensor(triple.domain, (UP, UP, DOWN), entries)

    lam = coproduct({(g, 1, g): one for g in range(2)})
    rho = coproduct({(0, 0, g): one for g in range(2)})
    broken = triple.__class__(triple.domain, triple.mu, lam, rho)
    assert check_compatibility(broken) == [
        "mu_morphism_of_lam",
        "lam_morphism_of_rho",
        "rho_morphism_of_lam",
    ]


def test_group_algebra_q_support():
    table = cyclic_table(3)
    sol = q_from_triple(triple_from_table(table, name="Z3"))
    q = sol.q
    assert q.variances == (UP, DOWN, UP, DOWN, UP)
    assert len(q.entries) == 9
    one = sol.domain.ring.one
    for g in range(3):
        for h in range(3):
            assert q.entry((g, g, table[g][h], h, h)) == one


def test_trivial_group_algebra_q():
    sol = q_from_triple(triple_from_table(cyclic_table(1), name="Z1"))
    assert dict(sol.q.entries) == {(0, 0, 0, 0, 0): sol.domain.ring.one}


def test_pentagon_map_sends_pair_to_partial_product():
    table = s3_table()
    triple = triple_from_table(table, name="S3")
    s = pentagon_map(triple)
    assert outs_ins(s) == (2, 2)
    one = triple.domain.ring.one
    assert len(s.entries) == 36
    for g in range(6):
        for h in range(6):
            assert s.entry((g, table[g][h], g, h)) == one


# -- set-theoretic family -----------------------------------------------------


def test_set_q_fixed_values():
    assert set_q(Fraction(1, 2), Fraction(1, 2)) == (
        Fraction(1, 3),
        Fraction(1, 4),
        Fraction(1, 3),
    )
    assert set_q(Fraction(1, 3), Fraction(1, 4)) == (
        Fraction(3, 11),
        Fraction(1, 12),
        Fraction(2, 11),
    )


def test_set_q_swap_reverses_outputs():
    x, y = Fraction(2, 7), Fraction(5, 9)
    a, b, c = set_q(x, y)
    assert set_q(y, x) == (c, b, a)


def test_set_q_outputs_stay_in_open_interval():
    import random

    rng = random.Random(11)
    for _ in range(200):
        x = Fraction(rng.randrange(1, 50), 50)
        y = Fraction(rng.randrange(1, 50), 50)
        if x == 1 or y == 1:
            continue
        for out in set_q(x, y):
            assert 0 < out < 1


def test_set_q_rejects_boundary_and_outside():
    for x, y in [(0, Fraction(1, 2)), (Fraction(1, 2), 1), (Fraction(3, 2), Fraction(1, 2))]:
        with pytest.raises(ValueError, match="strictly between"):
            set_q(x, y)


# -- symmetry kernels ---------------------------------------------------------


def test_kernel_values_on_z2():
    group = FinAbGroup([2])
    ring = group.ring
    kernels = symmetry_kernels(group)
    t, s = kernels["T"], kernels["S"]
    # g(1) = i on Z/2, so T(1, 1) = r * i
    assert t.entry((1, 1)) == ring.radical() * ring.root(1)
    assert t.entry((0, 0)) == ring.radical()
    assert not t.entry((1, 0))
    assert len(t.entries) == 2
    assert s.entry((0, 0)) == ring.one
    assert s.entry((1, 1)) == ring.one
    assert s.entry((1, 0)) == ring.root(1)
    assert len(s.entries) == 4


def test_kernel_inverses_conjugate_each_value_object_once(monkeypatch):
    group = parse_group("Z4xZ2")
    want = symmetry_kernels(group)
    calls = []
    conj = Scalar.conj
    monkeypatch.setattr(Scalar, "conj", lambda self: calls.append(id(self)) or conj(self))
    got = symmetry_kernels(group)
    monkeypatch.undo()
    for fwd in ("T", "S"):
        objects = {id(v) for v in got[fwd].entries.values()}
        assert len(objects) < len(got[fwd].entries)
        assert sorted(calls[: len(objects)]) == sorted(objects)
        del calls[: len(objects)]
    assert not calls
    for name, kernel in got.items():
        assert list(kernel.entries) == list(want[name].entries)
        assert kernel.variances == want[name].variances
        assert tensor_equal(kernel, want[name]), name


def test_kernels_are_symmetric_bilinear_forms():
    group = FinAbGroup([4])
    for name, kernel in symmetry_kernels(group).items():
        assert tensor_equal(kernel, kernel.permute([1, 0])), name


def test_kernel_inverses_are_conjugates_and_unitary():
    for literal in ["Z2", "Z3", "Z4", "Z2xZ2"]:
        group = parse_group(literal)
        kernels = symmetry_kernels(group)
        wire = identity(group, 1)
        for name in ["T", "S"]:
            fwd, inv = kernels[name], kernels[name + "inv"]
            assert tensor_equal(inv, fwd.conj()), (literal, name)
            assert tensor_equal(contract(fwd, 1, inv, 0), wire), (literal, name)
            assert tensor_equal(contract(inv, 1, fwd, 0), wire), (literal, name)


# -- descriptors and perturbations --------------------------------------------


def test_parse_solution_descriptors():
    sol = parse_solution("bichar:Z3")
    assert sol.kind == "bicharacter"
    assert sol.domain == FinAbGroup([3])
    assert len(sol.q.entries) == 27

    sol = parse_solution("triple:groupalg:S3")
    assert sol.kind == "triple"
    assert sol.domain.size == 6
    assert len(sol.q.entries) == 36

    sol = parse_solution("set")
    assert sol.kind == "set"
    assert sol.q is None


def test_parse_solution_rejects_unknown():
    for text in ["bogus", "bichar", "triple:groupalg:Q8", "bichar:Z0"]:
        with pytest.raises(ValueError):
            parse_solution(text)


def test_perturb_q_is_seeded_and_changes_the_tensor():
    sol = parse_solution("bichar:Z2")
    p1 = perturb_q(sol, 7)
    p2 = perturb_q(sol, 7)
    assert p1.q.dump() == p2.q.dump()
    assert p1.q.dump() != sol.q.dump()
    assert p1.descriptor.endswith(":perturbed:7")
