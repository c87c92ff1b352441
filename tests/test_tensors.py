import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pachner.groups import FinAbGroup
from pachner.scalars import Comparison, ComplexRing, approx_equal
from pachner.tensors import (
    DOWN,
    UP,
    BasisDomain,
    GroupTensor,
    LinMap,
    apply_kernel,
    contract,
    identity_kernel,
    self_contract,
    sigma_map,
    tensor_equal,
)

Z2 = FinAbGroup([2])
Z3 = FinAbGroup([3])


def dense(t):
    """Dense complex array in domain enumeration order, for oracles."""
    elems = list(t.domain.elements())
    index = {e: i for i, e in enumerate(elems)}
    arr = np.zeros((len(elems),) * t.arity, dtype=complex)
    for key, val in t.to_float().entries.items():
        arr[tuple(index[e] for e in key)] = val
    return arr


def lin_matrix(f):
    """LinMap as a dense matrix, inputs flattened to columns."""
    n = f.tensor.domain.size
    arr = dense(f.tensor)
    return arr.reshape(n**f.n_out, n**f.n_in)


def random_tensor(domain, variances, seed, density=0.5):
    import random

    rng = random.Random(seed)
    ring = domain.ring
    entries = {}
    for key in itertools.product(domain.elements(), repeat=len(variances)):
        if rng.random() < density:
            coeff = rng.randint(-3, 3)
            k = rng.randrange(2 * ring.lcm_order)
            entries[key] = ring.integer(coeff) * ring.root(k)
    return GroupTensor(domain, variances, entries)


def test_identity_wire_is_neutral():
    wire = identity_kernel(Z3)
    f = random_tensor(Z3, (UP,), seed=1, density=0.9)
    out = contract(wire, 1, f, 0)
    assert tensor_equal(out, f).verdict is Comparison.EQUAL


def test_delta_lines_chain():
    wire = identity_kernel(Z3)
    chained = contract(wire, 1, wire, 0)
    assert tensor_equal(chained, wire).verdict is Comparison.EQUAL


def test_contract_requires_opposite_variance():
    f = random_tensor(Z2, (UP, UP), seed=2)
    with pytest.raises(ValueError, match="variance clash"):
        contract(f, 0, f, 1)


def test_contract_weight_convention():
    # two 1-slot tensors: contract is c * sum of products
    ring = Z2.ring
    f = GroupTensor(Z2, (UP,), {(0,): ring.one, (1,): ring.integer(2)})
    g = GroupTensor(Z2, (DOWN,), {(0,): ring.one, (1,): ring.one})
    out = contract(f, 0, g, 0)
    assert out.arity == 0
    assert out.entries[()] == ring.integer(3) * ring.radical(-1)


def test_permute_involution_and_rekey():
    q = random_tensor(Z2, (UP, DOWN, UP, DOWN, UP), seed=3)
    swapped = q.permute([1, 0, 2, 3, 4])
    for key, val in q.entries.items():
        x, u, y, v, z = key
        assert swapped.entries[(u, x, y, v, z)] == val
    back = swapped.permute([1, 0, 2, 3, 4])
    assert tensor_equal(back, q).verdict is Comparison.EQUAL
    assert swapped.variances == (DOWN, UP, UP, DOWN, UP)


def test_symmetric_kernel_fixed_by_swap():
    # S(x, y) = g(x - y) is symmetric since g is even; checked on Z/5
    z5 = FinAbGroup([5])
    entries = {
        (x, y): z5.gauss_g(z5.sub(x, y))
        for x in z5.elements()
        for y in z5.elements()
    }
    s = GroupTensor(z5, (UP, DOWN), entries)
    swapped = s.permute([1, 0])
    assert tensor_equal(swapped, s).verdict is Comparison.EQUAL


def test_conj_involution():
    t = random_tensor(Z3, (UP, DOWN), seed=4)
    back = t.conj().conj()
    assert tensor_equal(back, t).verdict is Comparison.EQUAL
    assert t.conj().variances == (DOWN, UP)
    assert set(t.conj().entries) == set(t.entries)


def test_conj_commutes_with_contraction():
    a = random_tensor(Z3, (UP, DOWN, UP), seed=5)
    b = random_tensor(Z3, (DOWN, UP), seed=6)
    lhs = contract(a, 2, b, 0).conj()
    rhs = contract(a.conj(), 2, b.conj(), 0)
    assert tensor_equal(lhs, rhs).verdict is Comparison.EQUAL


def test_independent_contractions_commute():
    a = random_tensor(Z2, (UP, DOWN, UP), seed=7)
    b = random_tensor(Z2, (DOWN, UP), seed=8)
    c = random_tensor(Z2, (UP,), seed=9)
    # bind a.2 with b.0, and a.1 with c.0, in both orders
    ab = contract(a, 2, b, 0)  # slots: a0 a1 b1
    ab_then_c = contract(ab, 1, c, 0)  # slots: a0 b1
    ac = contract(a, 1, c, 0)  # slots: a0 a2
    ac_then_b = contract(ac, 1, b, 0)  # slots: a0 b1
    assert tensor_equal(ab_then_c, ac_then_b).verdict is Comparison.EQUAL


def test_self_contract_matches_contract_via_outer():
    a = random_tensor(Z3, (UP, DOWN), seed=10)
    b = random_tensor(Z3, (UP, DOWN), seed=11)
    via_contract = contract(a, 1, b, 0)
    via_outer = self_contract(a.outer(b), 1, 2)
    assert tensor_equal(via_contract, via_outer).verdict is Comparison.EQUAL
    # two pairs in one join equal one pair, then a self-contraction
    a = random_tensor(Z3, (UP, DOWN, DOWN), seed=12)
    b = random_tensor(Z3, (UP, UP, DOWN), seed=13)
    both = contract(a, (1, 2), b, (0, 1))  # slots: a0 b2
    one_then_self = self_contract(contract(a, 1, b, 0), 1, 2)  # a0 a2 b1 b2 -> a0 b2
    assert both.variances == (UP, DOWN)
    assert tensor_equal(both, one_then_self).verdict is Comparison.EQUAL


@pytest.mark.parametrize("exact", [True, False])
def test_contract_without_pairs_is_the_outer_product(exact):
    a = random_tensor(Z2, (UP, DOWN), seed=14)
    b = random_tensor(Z2, (DOWN,), seed=15)
    if not exact:
        a, b = a.to_float(), b.to_float()
    expected = {k1 + k2: v1 * v2 for k1, v1 in a.entries.items() for k2, v2 in b.entries.items()}
    for got in (contract(a, (), b, ()), a.outer(b)):
        assert got.variances == (UP, DOWN, DOWN)
        assert got.entries == expected


def test_contract_checks_every_pair():
    a = random_tensor(Z2, (UP, DOWN, UP), seed=16)
    b = random_tensor(Z2, (DOWN, UP, UP), seed=17)
    assert contract(a, (0, 1), b, (0, 1)).arity == 2
    with pytest.raises(ValueError, match="variance clash: slot 2"):
        contract(a, (0, 1, 2), b, (0, 1, 2))
    with pytest.raises(ValueError, match="cannot pair 2 slots with 1"):
        contract(a, (0, 1), b, (0,))


def test_tensor_equal_least_witness():
    ring = Z2.ring
    a = GroupTensor(Z2, (UP, UP), {((0,), (0,)): ring.one, ((1,), (1,)): ring.one})
    b = GroupTensor(Z2, (UP, UP), {((0,), (0,)): ring.one})
    rep = tensor_equal(a, b)
    assert rep.verdict is Comparison.UNEQUAL
    assert rep.witness == ((1,), (1,))
    c = GroupTensor(
        Z2,
        (UP, UP),
        {((0,), (1,)): ring.integer(5), ((1,), (1,)): ring.integer(7)},
    )
    rep2 = tensor_equal(a, c)
    assert rep2.witness == ((0,), (0,))


def test_tensor_equal_indeterminate_on_grading_mismatch():
    z4 = FinAbGroup([4])
    ring = z4.ring
    a = GroupTensor(z4, (UP,), {(0,): ring.radical()})
    b = GroupTensor(z4, (UP,), {(0,): ring.integer(2)})
    rep = tensor_equal(a, b)
    assert rep.verdict is Comparison.INDETERMINATE
    assert rep.witness == (0,)


def test_float_backend_comparison():
    t = random_tensor(Z3, (UP, DOWN), seed=12)
    rep = tensor_equal(t.to_float(), t.to_float())
    assert rep.verdict is Comparison.EQUAL
    perturbed = dict(t.to_float().entries)
    key = sorted(perturbed)[0]
    perturbed[key] += 0.5
    rep2 = tensor_equal(t.to_float(), GroupTensor(Z3, t.variances, perturbed, ComplexRing(3)))
    assert rep2.verdict is Comparison.UNEQUAL


def test_character_kernel_unitary():
    # F(x,y) = chi(x,y) composed with its conjugate transpose gives the
    # identity wire under the weighted contraction
    for group in (Z2, Z3, FinAbGroup([2, 2])):
        f = GroupTensor(
            group,
            (UP, DOWN),
            {
                (x, y): group.chi(x, y)
                for x in group.elements()
                for y in group.elements()
            },
        )
        f_dag = f.conj().permute([1, 0])
        composed = contract(f, 1, f_dag, 0)
        assert tensor_equal(composed, identity_kernel(group)).verdict is Comparison.EQUAL


def test_apply_kernel_identity_is_noop():
    t = random_tensor(Z3, (UP, DOWN, UP), seed=13)
    for slot in range(3):
        out = apply_kernel(t, slot, identity_kernel(Z3))
        assert tensor_equal(out, t).verdict is Comparison.EQUAL


def test_apply_kernel_delta_flip():
    # K(x,y) = delta(x+y) g(x) sends f to x -> g(x) f(-x)
    ring = Z3.ring
    k = GroupTensor(
        Z3,
        (UP, DOWN),
        {(x, Z3.neg(x)): ring.radical() * Z3.gauss_g(x) for x in Z3.elements()},
    )
    f = random_tensor(Z3, (UP,), seed=14, density=1.0)
    out = apply_kernel(f, 0, k, side="left")
    for x in Z3.elements():
        expect = Z3.gauss_g(x) * f.entry((Z3.neg(x),))
        assert out.entry((x,)) == expect


def test_apply_kernel_norm_preserved_float():
    # a unitary kernel preserves the weighted 2-norm sum c^arity |entry|^2
    f = GroupTensor(
        Z3,
        (UP, DOWN),
        {(x, y): Z3.chi(x, y) for x in Z3.elements() for y in Z3.elements()},
    ).to_float()
    t = random_tensor(Z3, (UP, DOWN), seed=15).to_float()
    out = apply_kernel(t, 0, f)
    c = Z3.size**-0.5
    norm_before = sum(abs(v) ** 2 for v in t.entries.values()) * c**t.arity
    norm_after = sum(abs(v) ** 2 for v in out.entries.values()) * c**out.arity
    assert approx_equal(norm_before, norm_after, 1e-9)


def test_pin_extracts_slice():
    q = random_tensor(Z2, (UP, DOWN, UP), seed=16, density=1.0)
    pinned = q.pin(1, (1,))
    assert pinned.variances == (UP, UP)
    for (x, z), val in pinned.entries.items():
        assert q.entries[(x, (1,), z)] == val
    assert len(pinned.entries) == sum(1 for k in q.entries if k[1] == (1,))


def test_dump_format():
    ring = Z2.ring
    # Z/2's ring has root order 4, so z^2 = -1
    t = GroupTensor(Z2, (UP, DOWN), {((1,), (0,)): ring.root(2), ((0,), (0,)): ring.one})
    text = t.dump()
    assert text.splitlines() == ["0,0 -> 1", "1,0 -> -1"]


def test_basis_domain_weight_is_trivial():
    dom = BasisDomain(3)
    f = GroupTensor(dom, (UP, DOWN), {(i, i): dom.ring.one for i in range(3)})
    composed = contract(f, 1, f, 0)
    assert tensor_equal(composed, f).verdict is Comparison.EQUAL


@st.composite
def small_tensors(draw, domain, variances):
    """Sparse exact tensors with entries +-k * z**j * r**e, |e| <= 1."""
    ring = domain.ring
    entries = {}
    for key in itertools.product(domain.elements(), repeat=len(variances)):
        if draw(st.booleans()):
            coeff = ring.integer(draw(st.integers(-3, 3)))
            root = ring.root(draw(st.integers(0, ring.root_order - 1)))
            entries[key] = coeff * root * ring.radical(draw(st.integers(-1, 1)))
    return GroupTensor(domain, variances, entries)


RING_OPS = {
    "contract": lambda a, b: contract(a, (0, 1), b, (0, 1)),
    "self_contract": lambda a, b: self_contract(a, 0, 1),
    "apply_kernel": lambda a, b: apply_kernel(a, 2, b, side="right"),
    "conj": lambda a, b: a.conj(),
}


@pytest.mark.parametrize("op", sorted(RING_OPS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_float_backend_agrees_with_exact(op, data):
    domain = data.draw(st.sampled_from([Z2, Z3, BasisDomain(3)]))
    a = data.draw(small_tensors(domain, (UP, DOWN, UP)))
    b = data.draw(small_tensors(domain, (DOWN, UP)))
    run = RING_OPS[op]
    via_exact = run(a, b).to_float()
    via_float = run(a.to_float(), b.to_float())
    assert via_float.ring == ComplexRing(domain.ring.group_order)
    assert tensor_equal(via_exact, via_float, rel=1e-9).verdict is Comparison.EQUAL


# --- linear map layer ----------------------------------------------------


def random_linmap(domain, n_out, n_in, seed):
    t = random_tensor(domain, (UP,) * n_out + (DOWN,) * n_in, seed, density=0.7)
    return LinMap(t, n_out, n_in)


def test_linmap_identity_neutral():
    for dom in (BasisDomain(3), Z3):
        f = random_linmap(dom, 2, 2, seed=17)
        left = LinMap.identity(dom, 2).compose(f)
        right = f.compose(LinMap.identity(dom, 2))
        assert left.equal(f).verdict is Comparison.EQUAL
        assert right.equal(f).verdict is Comparison.EQUAL


def test_sigma_squares_to_identity():
    for dom in (BasisDomain(2), Z3):
        s = LinMap.sigma(dom)
        assert s.compose(s).equal(LinMap.identity(dom, 2)).verdict is Comparison.EQUAL


def test_linmap_compose_matches_matrix_product():
    dom = BasisDomain(3)
    f = random_linmap(dom, 2, 1, seed=18)
    g = random_linmap(dom, 1, 2, seed=19)
    composed = f.compose(g)
    oracle = lin_matrix(f) @ lin_matrix(g)
    assert np.allclose(lin_matrix(composed), oracle)


def test_linmap_group_compose_matches_weighted_matrix_product():
    # over a group domain each bound wire carries one weight c
    f = random_linmap(Z2, 1, 2, seed=20)
    g = random_linmap(Z2, 2, 1, seed=21)
    composed = f.compose(g)
    c = Z2.size**-0.5
    oracle = lin_matrix(f) @ lin_matrix(g) * c**2
    assert np.allclose(lin_matrix(composed), oracle)


def test_linmap_tens_matches_kron():
    dom = BasisDomain(2)
    f = random_linmap(dom, 1, 1, seed=22)
    g = random_linmap(dom, 2, 1, seed=23)
    prod = f.tens(g)
    assert np.allclose(lin_matrix(prod), np.kron(lin_matrix(f), lin_matrix(g)))


def test_linmap_interchange_law():
    dom = BasisDomain(2)
    f1 = random_linmap(dom, 1, 1, seed=24)
    f2 = random_linmap(dom, 1, 1, seed=25)
    g1 = random_linmap(dom, 1, 1, seed=26)
    g2 = random_linmap(dom, 1, 1, seed=27)
    lhs = f1.tens(g1).compose(f2.tens(g2))
    rhs = f1.compose(f2).tens(g1.compose(g2))
    assert lhs.equal(rhs).verdict is Comparison.EQUAL


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_sigma_conjugation_swaps_factors(seed):
    dom = BasisDomain(2)
    f = random_linmap(dom, 1, 1, seed=seed)
    g = random_linmap(dom, 1, 1, seed=seed + 1)
    s = LinMap.sigma(dom)
    lhs = s.compose(f.tens(g)).compose(s)
    rhs = g.tens(f)
    assert lhs.equal(rhs).verdict is Comparison.EQUAL
