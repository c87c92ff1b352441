import itertools
from operator import add

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pachner.groups import FinAbGroup
from pachner.scalars import Comparison, ComplexRing, Scalar, ScalarRing, approx_equal, compare
from pachner.tensors import (
    DOWN,
    UP,
    BasisDomain,
    GroupTensor,
    LinMap,
    Report,
    apply_kernel,
    contract,
    tensor_equal,
    _fmt_key,
)

Z2 = FinAbGroup([2])
Z3 = FinAbGroup([3])
Z4 = FinAbGroup([4])
Z2xZ2 = FinAbGroup([2, 2])


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
    wire = LinMap.identity(Z3, 1).tensor
    f = random_tensor(Z3, (UP,), seed=1, density=0.9)
    out = contract(wire, 1, f, 0)
    assert tensor_equal(out, f)


def test_delta_lines_chain():
    wire = LinMap.identity(Z3, 1).tensor
    chained = contract(wire, 1, wire, 0)
    assert tensor_equal(chained, wire)


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
    assert tensor_equal(back, q)
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
    assert tensor_equal(swapped, s)


def test_conj_involution():
    t = random_tensor(Z3, (UP, DOWN), seed=4)
    back = t.conj().conj()
    assert tensor_equal(back, t)
    assert t.conj().variances == (DOWN, UP)
    assert set(t.conj().entries) == set(t.entries)


def test_conj_commutes_with_contraction():
    a = random_tensor(Z3, (UP, DOWN, UP), seed=5)
    b = random_tensor(Z3, (DOWN, UP), seed=6)
    lhs = contract(a, 2, b, 0).conj()
    rhs = contract(a.conj(), 2, b.conj(), 0)
    assert tensor_equal(lhs, rhs)


def test_independent_contractions_commute():
    a = random_tensor(Z2, (UP, DOWN, UP), seed=7)
    b = random_tensor(Z2, (DOWN, UP), seed=8)
    c = random_tensor(Z2, (UP,), seed=9)
    # bind a.2 with b.0, and a.1 with c.0, in both orders
    ab = contract(a, 2, b, 0)  # slots: a0 a1 b1
    ab_then_c = contract(ab, 1, c, 0)  # slots: a0 b1
    ac = contract(a, 1, c, 0)  # slots: a0 a2
    ac_then_b = contract(ac, 1, b, 0)  # slots: a0 b1
    assert tensor_equal(ab_then_c, ac_then_b)


def test_contract_matches_a_nested_loop_sum():
    # one and two bound pairs against a sum over both entry dicts, times r**-k
    a = random_tensor(Z3, (UP, DOWN, DOWN), seed=12)
    b = random_tensor(Z3, (UP, UP, DOWN), seed=13)
    cases = [((1,), (0,), (UP, DOWN, UP, DOWN)), ((1, 2), (0, 1), (UP, DOWN))]
    for s1, s2, variances in cases:
        got = contract(a, s1, b, s2)
        assert got.variances == variances
        assert got.entries == nested_loop_contract(a, s1, b, s2)


def nested_loop_contract(a, s1, b, s2):
    """Entries of contract(a, s1, b, s2): a sum over both entry dicts, one
    ring add per product, times r**-k, with zero sums dropped."""
    ring = a.ring
    expected = {}
    for k1, v1 in a.entries.items():
        for k2, v2 in b.entries.items():
            if all(k1[i] == k2[j] for i, j in zip(s1, s2)):
                key = tuple(x for p, x in enumerate(k1) if p not in s1)
                key += tuple(x for p, x in enumerate(k2) if p not in s2)
                expected[key] = expected.get(key, ring.zero) + v1 * v2
    weight = ring.radical(-len(s1))
    return {k: weight * v for k, v in expected.items() if v}


def hash_join_loop(a, s1, b, s2):
    """The float-order reference: a hash join over b's bound keys,
    products summed in a's entry order, then one weight per result entry
    and zero sums dropped.  A float contract must give these bytes."""
    free1 = [p for p in range(a.arity) if p not in s1]
    free2 = [p for p in range(b.arity) if p not in s2]
    buckets = {}
    for k2, v2 in b.entries.items():
        buckets.setdefault(tuple(k2[p] for p in s2), []).append(
            (tuple(k2[p] for p in free2), v2)
        )
    out = {}
    for k1, v1 in a.entries.items():
        head = tuple(k1[p] for p in free1)
        for tail, v2 in buckets.get(tuple(k1[p] for p in s1), ()):
            key = head + tail
            prev = out.get(key)
            out[key] = v1 * v2 if prev is None else prev + v1 * v2
    if s1:
        weight = a.ring.radical(-len(s1))
        out = {k: weight * v for k, v in out.items()}
    return {k: v for k, v in out.items() if v}


@st.composite
def joinable_pairs(draw):
    """Two sparse exact tensors and 0-3 slot pairs binding them.

    Keys draw their elements from two domain elements, so bound keys
    collide often.  Every entry is +-1 times one of two base values;
    a base value is +-1 or +-2 times a root of unity times r**-1, r**0 or
    r**1, plus, half the time, a part of the other radical parity.  So
    products meet both parities and colliding sums often cancel to zero.
    """
    domain = draw(st.sampled_from(JOIN_DOMAINS))
    ring = domain.ring
    elems = st.sampled_from(list(domain.elements()))
    support = draw(st.lists(elems, min_size=2, max_size=2, unique=True))
    k = draw(st.integers(0, 3))
    arity1, arity2 = k + draw(st.integers(0, 2)), k + draw(st.integers(0, 2))
    s1 = tuple(draw(st.permutations(range(arity1)))[:k])
    s2 = tuple(draw(st.permutations(range(arity2)))[:k])
    var1 = [draw(st.sampled_from([UP, DOWN])) for _ in range(arity1)]
    var2 = [draw(st.sampled_from([UP, DOWN])) for _ in range(arity2)]
    for i, j in zip(s1, s2):
        var2[j] = var1[i].flip()

    def base():
        v = ring.integer(draw(st.sampled_from([-2, -1, 1, 2])))
        v = v * ring.root(draw(st.integers(0, ring.root_order - 1)))
        e = draw(st.integers(-1, 1))
        v = v * ring.radical(e)
        if draw(st.booleans()):
            v = v + ring.integer(draw(st.sampled_from([-1, 1]))) * ring.radical(e + 1)
        return v

    bases = [base(), base()]

    def tensor(arity, variances):
        key = st.tuples(*[st.sampled_from(support)] * arity)
        keys = draw(st.lists(key, min_size=1, max_size=10, unique=True))
        sign, base_value = st.sampled_from([ring.one, -ring.one]), st.sampled_from(bases)
        return GroupTensor(
            domain, variances, {key: draw(sign) * draw(base_value) for key in keys}
        )

    return tensor(arity1, var1), s1, tensor(arity2, var2), s2


JOIN_DOMAINS = [Z2, Z3, Z4, FinAbGroup([6]), FinAbGroup([2, 2]), BasisDomain(3)]


@settings(max_examples=200, deadline=None)
@given(pair=joinable_pairs())
def test_contract_matches_both_reference_loops(pair):
    a, s1, b, s2 = pair
    exact = contract(a, s1, b, s2)
    assert exact.entries == nested_loop_contract(a, s1, b, s2)
    fa, fb = a.to_float(), b.to_float()
    floats = contract(fa, s1, fb, s2)
    assert floats.entries == hash_join_loop(fa, s1, fb, s2)
    assert floats.variances == exact.variances


def per_entry_join(ring, entries1, bound1, rest1, entries2, bound2, rest2, k):
    """The exact join before value classes: the weight shifted onto every
    entry of the smaller operand, one product per matched entry pair, a
    lone product kept as it is, and the products colliding on a key summed
    as raw vectors and canonicalised once per key."""
    (shift,) = ring.radical(-k).terms
    if shift and len(entries1) <= len(entries2):
        entries1 = {key: v._shift(shift) for key, v in entries1.items()}
    elif shift:
        entries2 = {key: v._shift(shift) for key, v in entries2.items()}
    buckets = {}
    for key, v2 in entries2.items():
        buckets.setdefault(bound2(key), []).append((rest2(key), v2))
    out = {}
    for k1, v1 in entries1.items():
        for tail, v2 in buckets.get(bound1(k1), ()):
            out.setdefault(rest1(k1) + tail, []).append(v1 * v2)
    joined = {}
    for key, parts in out.items():
        val = parts[0]
        if len(parts) > 1:
            merged = {}
            for part in parts:
                for e, vec in part.terms.items():
                    acc = merged.get(e)
                    merged[e] = vec if acc is None else tuple(map(add, acc, vec))
            val = Scalar(ring, ring._canonical(merged))
        if val.terms:
            joined[key] = val
    return joined


def picker(slots):
    return lambda key: tuple(key[p] for p in slots)


@st.composite
def repeating_operands(draw):
    """Two exact entry dicts, bound and rest pickers and k = 0-3 pairs.

    Entries are +-1 times one of two base values: a bare radical power
    (whose products are exponent shifts that keep the other factor's term
    order), or a value as in joinable_pairs.  So each operand repeats a
    few values, in one of three ways: the same object, an equal object
    built anew, or an equal value whose terms dict lists its exponents in
    reverse order.
    """
    domain = draw(st.sampled_from(JOIN_DOMAINS))
    ring = domain.ring
    elems = st.sampled_from(list(domain.elements()))
    support = draw(st.lists(elems, min_size=2, max_size=2, unique=True))
    k = draw(st.integers(0, 3))
    arity1, arity2 = k + draw(st.integers(0, 2)), k + draw(st.integers(0, 2))
    s1 = draw(st.permutations(range(arity1)))[:k]
    s2 = draw(st.permutations(range(arity2)))[:k]

    def base():
        e = draw(st.integers(-1, 1))
        if draw(st.integers(0, 2)) == 0:
            return ring.radical(e)
        v = ring.integer(draw(st.sampled_from([-2, -1, 1, 2])))
        v = v * ring.root(draw(st.integers(0, ring.root_order - 1))) * ring.radical(e)
        if draw(st.booleans()):
            v = v + ring.integer(draw(st.sampled_from([-1, 1]))) * ring.radical(e + 1)
        return v

    bases = [base(), base()]
    signs = [ring.one, -ring.one]
    shared = {}

    def value():
        i, sign = draw(st.integers(0, 1)), draw(st.integers(0, 1))
        how = draw(st.sampled_from(["shared", "rebuilt", "reordered"]))
        if how == "shared":
            return shared.setdefault((i, sign), signs[sign] * bases[i])
        v = signs[sign] * bases[i]
        if how == "reordered":
            v = Scalar(ring, dict(reversed(v.terms.items())))
        return v

    def entries(arity):
        key = st.tuples(*[st.sampled_from(support)] * arity)
        return {key: value() for key in draw(st.lists(key, min_size=1, max_size=10, unique=True))}

    free1 = [p for p in range(arity1) if p not in s1]
    free2 = [p for p in range(arity2) if p not in s2]
    return ring, (
        entries(arity1), picker(s1), picker(free1),
        entries(arity2), picker(s2), picker(free2), k,
    )


@settings(max_examples=300, deadline=None)
@given(case=repeating_operands())
def test_exact_join_equals_the_per_entry_join(case):
    ring, args = case
    got = ring.join(*args)
    want = per_entry_join(ring, *args)
    assert list(got) == list(want)
    assert [list(v.terms.items()) for v in got.values()] == [
        list(v.terms.items()) for v in want.values()
    ]


def test_exact_join_keeps_each_entrys_term_order():
    # one value in both term orders, times a bare radical power: each
    # product is an exponent shift, which keeps that entry's own order
    ring = Z2.ring
    v = ring.one + ring.radical(1)
    flipped = Scalar(ring, dict(reversed(v.terms.items())))
    args = ({(0,): v, (1,): flipped}, picker(()), picker((0,)),
            {(0,): ring.radical(1)}, picker(()), picker((0,)), 0)
    got = [list(w.terms.items()) for w in ring.join(*args).values()]
    assert got == [[(1, v.terms[0]), (2, v.terms[1])], [(2, v.terms[1]), (1, v.terms[0])]]
    assert got == [list(w.terms.items()) for w in per_entry_join(ring, *args).values()]


def test_exact_join_multiplies_each_value_pair_once(monkeypatch):
    # over Z3, a and b (9 entries each) bind one slot: each of the 9 keys
    # sums 3 products, 27 matched pairs in all, but a holds 3 distinct
    # values (in 6 objects) and b holds 2, so 6 distinct value pairs, and
    # the 9 sums are 4 distinct multisets of them
    ring = Z3.ring
    x, y = ring.root(1) + ring.radical(1), ring.integer(2) * ring.root(2)
    values1 = [x, y, x + y, x, ring.root(1) + ring.radical(1), y]
    values2 = [ring.radical(-1) * y, x]
    keys = list(itertools.product(Z3.elements(), repeat=2))
    entries1 = {key: values1[i % 6] for i, key in enumerate(keys)}
    entries2 = {key: values2[i % 2] for i, key in enumerate(keys)}
    classes1 = {key: values1.index(v) for key, v in entries1.items()}
    classes2 = {key: values2.index(v) for key, v in entries2.items()}
    d1, d2 = len(set(classes1.values())), len(set(classes2.values()))
    bound1, rest1, bound2, rest2 = picker((1,)), picker((0,)), picker((0,)), picker((1,))
    pairs = {}
    for k1, k2 in itertools.product(keys, keys):
        if bound1(k1) == bound2(k2):
            pairs.setdefault(rest1(k1) + rest2(k2), []).append((classes1[k1], classes2[k2]))
    multisets = {tuple(sorted(p)) for p in pairs.values() if len(p) > 1}
    assert (d1, d2, sum(map(len, pairs.values())), len(multisets)) == (3, 2, 27, 4)

    calls = {"mul": 0, "canonical": 0}
    inside_mul = []
    mul, canonical = Scalar.__mul__, ScalarRing._canonical

    def counted_mul(self, other):
        calls["mul"] += 1
        inside_mul.append(True)
        try:
            return mul(self, other)
        finally:
            inside_mul.pop()

    def counted_canonical(self, terms):
        calls["canonical"] += not inside_mul
        return canonical(self, terms)

    monkeypatch.setattr(Scalar, "__mul__", counted_mul)
    monkeypatch.setattr(ScalarRing, "_canonical", counted_canonical)
    ring.radical(-1)
    weight_calls = calls["canonical"]
    calls["canonical"] = 0
    joined = ring.join(entries1, bound1, rest1, entries2, bound2, rest2, 1)
    assert calls["mul"] <= d1 * d2
    assert calls["canonical"] - weight_calls <= len(multisets)
    monkeypatch.undo()
    assert joined == per_entry_join(ring, entries1, bound1, rest1, entries2, bound2, rest2, 1)


def test_shared_entries_survive_scalar_ops():
    # an outer product of a tensor with one entry: every result entry with
    # the same left factor is one shared Scalar object
    ring = Z3.ring
    v = ring.root(1) + ring.radical(1)
    a = GroupTensor(Z3, (UP,), {(e,): v for e in Z3.elements()})
    b = GroupTensor(Z3, (DOWN,), {((0,),): ring.one + ring.radical(1)})
    joined = contract(a, (), b, ())
    values = list(joined.entries.values())
    assert len(values) == 3 and all(w is values[0] for w in values)
    before = {key: list(w.terms.items()) for key, w in joined.entries.items()}
    w = values[0]
    results = [w + w, w * w, w * ring.root(2), w.conj(), w._shift(2), w - v]
    assert compare(w, results[0]) is Comparison.UNEQUAL
    assert compare(w, w._shift(2)._shift(-2)) is Comparison.EQUAL
    assert {key: list(w.terms.items()) for key, w in joined.entries.items()} == before
    assert all(r is not w and r.terms is not w.terms for r in results)


@pytest.mark.parametrize("exact", [True, False])
def test_contract_drops_sums_that_cancel(exact):
    # over Z4, where r = 2 is exact in floats too: at (0, 0) the products 1
    # and -1 cancel, at (1, 1) the products r * r and -4 cancel across the
    # radical parities, and (0, 1), (1, 0) keep sums of both parities
    ring = Z4.ring
    one, r, four = ring.one, ring.radical(), ring.integer(4)
    x0, x1 = (0,), (1,)
    a = GroupTensor(Z4, (UP, DOWN), {(x0, x0): one, (x0, x1): -one, (x1, x0): r, (x1, x1): -four})
    b = GroupTensor(Z4, (UP, UP), {(x0, x0): one, (x1, x0): one, (x0, x1): r, (x1, x1): one})
    c = ring.radical(-1)
    want = GroupTensor(Z4, (UP, UP), {(x0, x1): c * (r - one), (x1, x0): c * (r - four)})
    if not exact:
        a, b, want = a.to_float(), b.to_float(), want.to_float()
    assert contract(a, 1, b, 0).entries == want.entries


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
    assert rep.verdict == "fail"
    assert rep.witness == _fmt_key(((1,), (1,)))
    c = GroupTensor(
        Z2,
        (UP, UP),
        {((0,), (1,)): ring.integer(5), ((1,), (1,)): ring.integer(7)},
    )
    rep2 = tensor_equal(a, c)
    assert rep2.witness == _fmt_key(((0,), (0,)))


def test_tensor_equal_report_formats_the_least_failing_key_and_renders_both_values():
    ring = Z2xZ2.ring
    keys = [((1, 0), (0, 1)), ((0, 1), (1, 1)), ((0, 1), (0, 0))]
    a = GroupTensor(Z2xZ2, (UP, DOWN), {keys[0]: ring.one, keys[1]: ring.radical(), keys[2]: ring.one})
    b = GroupTensor(Z2xZ2, (UP, DOWN), {keys[0]: ring.integer(3), keys[1]: ring.radical(3)})
    rep = tensor_equal(a, b)
    assert rep.lines() == [
        "relation=tensor-equal",
        "verdict=fail",
        "checks=3",
        "witness=0.1,0.0",
        f"lhs_value={ring.render(ring.one)}",
        f"rhs_value={ring.render(ring.zero)}",
    ]
    assert rep.witness == _fmt_key(min(keys))
    assert not rep and rep.checks == 3


def test_tensor_equal_indeterminate_on_grading_mismatch():
    z4 = FinAbGroup([4])
    ring = z4.ring
    a = GroupTensor(z4, (UP,), {(0,): ring.radical()})
    b = GroupTensor(z4, (UP,), {(0,): ring.integer(2)})
    rep = tensor_equal(a, b)
    assert rep.verdict == "indeterminate"
    assert rep.witness == _fmt_key((0,))


def test_float_backend_comparison():
    t = random_tensor(Z3, (UP, DOWN), seed=12)
    rep = tensor_equal(t.to_float(), t.to_float())
    assert rep.verdict == "pass"
    perturbed = dict(t.to_float().entries)
    key = sorted(perturbed)[0]
    perturbed[key] += 0.5
    rep2 = tensor_equal(t.to_float(), GroupTensor(Z3, t.variances, perturbed, ComplexRing(3)))
    assert rep2.verdict == "fail"


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
        assert tensor_equal(composed, LinMap.identity(group, 1).tensor)


def test_apply_kernel_identity_is_noop():
    t = random_tensor(Z3, (UP, DOWN, UP), seed=13)
    for slot in range(3):
        out = apply_kernel(t, slot, LinMap.identity(Z3, 1).tensor)
        assert tensor_equal(out, t)


def test_apply_kernel_delta_flip():
    # K(x,y) = delta(x+y) g(x) sends f to x -> g(x) f(-x)
    ring = Z3.ring
    k = GroupTensor(
        Z3,
        (UP, DOWN),
        {(x, Z3.neg(x)): ring.radical() * Z3.gauss_g(x) for x in Z3.elements()},
    )
    f = random_tensor(Z3, (UP,), seed=14, density=1.0)
    out = apply_kernel(f, 0, k)
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
    assert tensor_equal(composed, f)


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
    "apply_kernel": lambda a, b: apply_kernel(a, 2, b),
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
    assert tensor_equal(via_exact, via_float, rel=1e-9)


# --- linear map layer ----------------------------------------------------


def random_linmap(domain, n_out, n_in, seed):
    t = random_tensor(domain, (UP,) * n_out + (DOWN,) * n_in, seed, density=0.7)
    return LinMap(t, n_out, n_in)


def test_linmap_identity_neutral():
    for dom in (BasisDomain(3), Z3):
        f = random_linmap(dom, 2, 2, seed=17)
        left = LinMap.identity(dom, 2).compose(f)
        right = f.compose(LinMap.identity(dom, 2))
        assert tensor_equal(left.tensor, f.tensor)
        assert tensor_equal(right.tensor, f.tensor)


def test_sigma_squares_to_identity():
    for dom in (BasisDomain(2), Z3):
        s = LinMap.sigma(dom)
        assert tensor_equal(s.compose(s).tensor, LinMap.identity(dom, 2).tensor)


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
    assert tensor_equal(lhs.tensor, rhs.tensor)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_sigma_conjugation_swaps_factors(seed):
    dom = BasisDomain(2)
    f = random_linmap(dom, 1, 1, seed=seed)
    g = random_linmap(dom, 1, 1, seed=seed + 1)
    s = LinMap.sigma(dom)
    lhs = s.compose(f.tens(g)).compose(s)
    rhs = g.tens(f)
    assert tensor_equal(lhs.tensor, rhs.tensor)


def padded(f, a, b):
    """id^a (x) f (x) id^b with every identity wire built as a tensor."""
    dom, ring = f.tensor.domain, f.tensor.ring
    return LinMap.identity(dom, a, ring).tens(f).tens(LinMap.identity(dom, b, ring))


def seeded_linmap(domain, n_out, n_in, seed, density):
    """Entries +-k * z**j * r**e with |e| <= 1, drawn from one seed."""
    import random

    rng = random.Random(seed)
    ring = domain.ring
    entries = {}
    for key in itertools.product(domain.elements(), repeat=n_out + n_in):
        if rng.random() < density:
            coeff = ring.integer(rng.randint(-3, 3))
            root = ring.root(rng.randrange(ring.root_order))
            entries[key] = coeff * root * ring.radical(rng.randint(-1, 1))
    return LinMap(GroupTensor(domain, (UP,) * n_out + (DOWN,) * n_in, entries), n_out, n_in)


@st.composite
def windowed_compositions(draw):
    """(f, x, a): f acts on x's outputs a .. a + f.n_in - 1."""
    domain = draw(st.sampled_from([Z2, Z3, Z4, BasisDomain(3)]))
    f_out, f_in = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    x_out = draw(st.integers(f_in, 3))
    x_in = draw(st.integers(0, 2))
    a = draw(st.integers(0, x_out - f_in))
    density = draw(st.sampled_from([0.3, 0.7, 1.0]))
    f = seeded_linmap(domain, f_out, f_in, draw(st.integers(0, 10**6)), density)
    x = seeded_linmap(domain, x_out, x_in, draw(st.integers(0, 10**6)), density)
    if draw(st.booleans()):
        f = LinMap(f.tensor.to_float(), f_out, f_in)
        x = LinMap(x.tensor.to_float(), x_out, x_in)
    return f, x, a


@settings(max_examples=200, deadline=None)
@given(case=windowed_compositions())
def test_compose_at_equals_the_padded_compose(case):
    f, x, a = case
    got = f.compose(x, at=a)
    want = padded(f, a, x.n_out - a - f.n_in).compose(x)
    assert (got.n_out, got.n_in) == (want.n_out, want.n_in)
    assert got.tensor.variances == want.tensor.variances
    if isinstance(got.tensor.ring, ComplexRing):
        assert tensor_equal(got.tensor, want.tensor, rel=1e-12)
    else:
        assert got.tensor.entries == want.tensor.entries


def test_compose_at_checks_the_window():
    f = LinMap.sigma(Z2)
    x = LinMap.identity(Z2, 3)
    assert f.compose(x, at=1).n_out == 3
    for at in (-1, 2, 5):
        with pytest.raises(ValueError, match=f"at wire {at} of 3 outputs"):
            f.compose(x, at=at)
    with pytest.raises(ValueError, match="cannot compose: 2 inputs vs 3 outputs"):
        f.compose(x)


@pytest.mark.parametrize("domain", [Z2, Z3, BasisDomain(2)])
@pytest.mark.parametrize("exact", [True, False])
def test_identity_on_no_wires_is_the_unit_of_tens(domain, exact):
    ring = domain.ring if exact else ComplexRing(domain.ring.group_order)
    unit = LinMap.identity(domain, 0, ring)
    assert (unit.n_out, unit.n_in) == (0, 0)
    assert unit.tensor.entries == {(): ring.one}
    f = seeded_linmap(domain, 2, 1, seed=5, density=0.7)
    if not exact:
        f = LinMap(f.tensor.to_float(), 2, 1)
    for got in (unit.tens(f), f.tens(unit)):
        assert (got.n_out, got.n_in) == (f.n_out, f.n_in)
        assert got.tensor.variances == f.tensor.variances
        assert got.tensor.entries == f.tensor.entries


def joined_compose(f, x, at):
    """f after x on the window at .., through contract (the join every
    map that is not a wire permutation takes)."""
    n_out, n_in = f.n_out, f.n_in
    t = contract(f.tensor, range(n_out, n_out + n_in), x.tensor, range(at, at + n_in))
    t = t.permute([*range(n_out, n_out + at), *range(n_out), *range(n_out + at, t.arity)])
    return LinMap(t, n_out + x.n_out - n_in, x.n_in)


@st.composite
def wire_permutations_on_windows(draw):
    """(p, x, a): sigma or an identity on 0-3 wires, acting on x's outputs a .."""
    domain = draw(st.sampled_from([Z2, Z3, Z4, Z2xZ2, BasisDomain(3)]))
    exact = draw(st.booleans())
    ring = domain.ring if exact else ComplexRing(domain.ring.group_order)
    p = draw(st.sampled_from([LinMap.sigma(domain, ring)] + [LinMap.identity(domain, k, ring) for k in range(3)]))
    x_out = draw(st.integers(p.n_in, 3))
    x = seeded_linmap(domain, x_out, draw(st.integers(0, 2)), draw(st.integers(0, 10**6)),
                      draw(st.sampled_from([0.3, 0.7, 1.0])))
    if not exact:
        x = LinMap(x.tensor.to_float(), x.n_out, x.n_in)
    return p, x, draw(st.integers(0, x_out - p.n_in))


@settings(max_examples=200, deadline=None)
@given(case=wire_permutations_on_windows())
def test_wire_permutation_compose_equals_the_joined_compose(case):
    p, x, a = case
    assert p.wires is not None
    got, want = p.compose(x, at=a), joined_compose(p, x, a)
    assert (got.n_out, got.n_in) == (want.n_out, want.n_in)
    assert got.tensor.variances == want.tensor.variances
    assert got.tensor.entries.keys() == want.tensor.entries.keys()
    if isinstance(got.tensor.ring, ComplexRing):
        for key, v in want.tensor.entries.items():
            assert abs(got.tensor.entries[key] - v) <= 1e-12 * max(abs(v), 1.0)
    else:
        for key, v in want.tensor.entries.items():
            assert got.tensor.entries[key] == v
            assert list(got.tensor.entries[key].terms.items()) == list(v.terms.items())


def test_wire_permutation_compose_takes_its_weight_from_the_ring(monkeypatch):
    # a ring whose measure weight r**-k were r**k would make sigma scale by
    # r**4; the permute path must see it as the join does
    x = seeded_linmap(Z3, 3, 1, seed=2, density=1.0)
    sig = LinMap.sigma(Z3)
    original = ScalarRing.radical
    monkeypatch.setattr(ScalarRing, "radical", lambda self, e=1: original(self, abs(e)))
    got, want = sig.compose(x, at=1), joined_compose(sig, x, 1)
    assert got.tensor.entries == want.tensor.entries
    r4 = Z3.ring.radical(4)
    assert all(got.tensor.entries[(k[0], k[2], k[1], k[3])] == v * r4
               for k, v in x.tensor.entries.items())


def test_wire_permutation_compose_checks_backend_and_window():
    sig = LinMap.sigma(Z2)
    x = seeded_linmap(Z2, 3, 0, seed=1, density=1.0)
    with pytest.raises(ValueError, match="cannot mix exact and float"):
        sig.compose(LinMap(x.tensor.to_float(), 3, 0), at=0)
    with pytest.raises(ValueError, match="domain mismatch"):
        sig.compose(seeded_linmap(Z3, 2, 0, seed=1, density=1.0))
    with pytest.raises(ValueError, match="at wire 2 of 3 outputs"):
        sig.compose(x, at=2)


def sorted_tensor_equal(t1, t2, rel=1e-9):
    """tensor_equal as a walk of the sorted key union that stops at the
    first UNEQUAL key (the reference for the one-pass walk)."""
    ring = t1.ring
    keys = sorted(set(t1.entries) | set(t2.entries))

    def report(verdict, key):
        shown = {"lhs_value": ring.render(t1.entry(key)), "rhs_value": ring.render(t2.entry(key))}
        return Report("tensor-equal", {"verdict": verdict, "checks": len(keys)}, _fmt_key(key), shown)

    indeterminate_at = None
    for key in keys:
        verdict = ring.compare(t1.entry(key), t2.entry(key), rel)
        if verdict is Comparison.UNEQUAL:
            return report("fail", key)
        if verdict is Comparison.INDETERMINATE and indeterminate_at is None:
            indeterminate_at = key
    if indeterminate_at is not None:
        return report("indeterminate", indeterminate_at)
    return Report("tensor-equal", {"verdict": "pass", "checks": len(keys)})


@st.composite
def tensor_pairs(draw):
    """Two tensors on one slot layout whose entries mostly agree; on the
    order-4 groups r against 2 differs across both radical parities."""
    domain = draw(st.sampled_from([Z2, Z3, Z4, Z2xZ2]))
    ring = domain.ring
    pool = [ring.zero, ring.one, ring.radical(), ring.integer(2), ring.root(1), -ring.radical(2)]
    variances = (UP, DOWN, UP)[: draw(st.integers(0, 3))]
    e1, e2 = {}, {}
    for key in itertools.product(domain.elements(), repeat=len(variances)):
        v1 = draw(st.sampled_from(pool))
        e1[key] = v1
        e2[key] = v1 if draw(st.integers(0, 3)) else draw(st.sampled_from(pool))
    t1, t2 = GroupTensor(domain, variances, e1), GroupTensor(domain, variances, e2)
    if draw(st.booleans()):
        t1, t2 = t1.to_float(), t2.to_float()
        if draw(st.booleans()):
            key = draw(st.sampled_from(sorted(t2.entries) or [None]))
            if key is not None:
                t2.entries[key] *= 1 + draw(st.sampled_from([1e-10, 1e-8]))
    return t1, t2


@settings(max_examples=300, deadline=None)
@given(pair=tensor_pairs())
def test_tensor_equal_reports_as_the_sorted_walk(pair):
    t1, t2 = pair
    assert tensor_equal(t1, t2) == sorted_tensor_equal(t1, t2)
    assert tensor_equal(t2, t1) == sorted_tensor_equal(t2, t1)


def test_tensor_equal_prefers_the_least_unequal_key_over_indeterminate_ones():
    ring = Z4.ring
    keys = [((i,),) for i in range(4)]
    t1 = GroupTensor(Z4, (UP,), {keys[0]: ring.radical(), keys[1]: ring.one, keys[3]: ring.radical()})
    t2 = GroupTensor(Z4, (UP,), {keys[0]: ring.integer(2), keys[2]: ring.one, keys[3]: ring.integer(2)})
    got = tensor_equal(t1, t2)
    assert got == sorted_tensor_equal(t1, t2)
    assert (got.verdict, got.witness, got.checks) == ("fail", _fmt_key(keys[1]), 4)
    del t1.entries[keys[1]], t2.entries[keys[2]]
    got = tensor_equal(t1, t2)
    assert (got.verdict, got.witness, got.checks) == ("indeterminate", _fmt_key(keys[0]), 2)


def test_wire_permutations_compose_without_a_join(monkeypatch):
    x = seeded_linmap(Z3, 3, 1, seed=4, density=0.7)
    maps = [LinMap.sigma(Z3), LinMap.identity(Z3, 2), LinMap.identity(Z3, 0)]
    want = [joined_compose(m, x, 1) for m in maps]
    monkeypatch.setattr("pachner.tensors.contract", lambda *args: pytest.fail("joined"))
    for m, w in zip(maps, want):
        assert m.compose(x, at=1).tensor.entries == w.tensor.entries
