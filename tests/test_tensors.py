import itertools
import math
import re
import struct
from operator import add

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pachner import tensors
from pachner.groups import FinAbGroup
from pachner.scalars import Comparison, ComplexRing, Scalar, ScalarRing, _FloatEntries, compare
from pachner.tensors import (
    DOWN,
    UP,
    BasisDomain,
    GroupTensor,
    WirePermutation,
    apply_word,
    contract,
    identity,
    sigma,
    tensor_equal,
    _fmt_key,
)
from reference import (
    COMPLEX_VALUES,
    assert_identical_entries,
    compose,
    dict_complex_join,
    least_key_tensor_equal,
    lin_matrix,
    outs_ins,
    padded,
    permute_window,
    two_pass_complex_join,
)

Z2 = FinAbGroup([2])
Z3 = FinAbGroup([3])
Z4 = FinAbGroup([4])
Z2xZ2 = FinAbGroup([2, 2])


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
    wire = identity(Z3, 1)
    f = random_tensor(Z3, (UP,), seed=1, density=0.9)
    out = contract(wire, 1, f, 0)
    assert tensor_equal(out, f)


def test_delta_lines_chain():
    wire = identity(Z3, 1)
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
    # the float-order reference: products summed in a's entry order, then
    # one weight per result entry; a float contract must give these bytes
    free1 = [p for p in range(a.arity) if p not in s1]
    free2 = [p for p in range(b.arity) if p not in s2]
    assert floats.entries == two_pass_complex_join(
        fa.ring, fa.entries, picker(s1), picker(free1), fb.entries, picker(s2), picker(free2), len(s1)
    )
    assert floats.variances == exact.variances


def per_entry_join(ring, entries1, bound1, rest1, entries2, bound2, rest2, k):
    """The exact join before value classes: the weight shifted onto every
    entry of the smaller operand, one product per matched entry pair, a
    lone product kept as it is, and the products colliding on a key summed
    as raw vectors and canonicalised once per key."""
    power = ring.radical(-k)
    (shift,) = power.terms
    if shift and len(entries1) <= len(entries2):
        entries1 = {key: v * power for key, v in entries1.items()}
    elif shift:
        entries2 = {key: v * power for key, v in entries2.items()}
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


def with_getters(args):
    """Join arguments as ring.join takes them, (entries, slot tuples, k),
    with each slot tuple read as a getter, as the reference joins take
    them."""
    entries1, s1, free1, entries2, s2, free2, k = args
    return entries1, picker(s1), picker(free1), entries2, picker(s2), picker(free2), k


def coded(args, radix):
    """Join arguments with both float entry dicts coded over radix
    elements, as ComplexRing.join takes them."""
    entries1, s1, free1, entries2, s2, free2, k = args
    code = lambda entries, slots: _FloatEntries.from_dict(entries, radix, len(slots))
    return code(entries1, s1 + free1), s1, free1, code(entries2, s2 + free2), s2, free2, k


@st.composite
def repeating_operands(draw):
    """Two exact entry dicts, bound and rest slot tuples and k = 0-3 pairs.

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
        entries(arity1), tuple(s1), tuple(free1),
        entries(arity2), tuple(s2), tuple(free2), k,
    )


@settings(max_examples=300, deadline=None)
@given(case=repeating_operands())
def test_exact_join_equals_the_per_entry_join(case):
    ring, args = case
    got = ring.join(*args)
    want = per_entry_join(ring, *with_getters(args))
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
    args = ({(0,): v, (1,): flipped}, (), (0,), {(0,): ring.radical(1)}, (), (0,), 0)
    got = [list(w.terms.items()) for w in ring.join(*args).values()]
    assert got == [[(1, v.terms[0]), (2, v.terms[1])], [(2, v.terms[1]), (1, v.terms[0])]]
    assert got == [list(w.terms.items()) for w in per_entry_join(ring, *with_getters(args)).values()]


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

    calls = {"mul": 0, "shift": 0, "canonical": 0}
    inside_mul = []
    mul, canonical = Scalar.__mul__, ScalarRing._canonical
    weight = ring.radical(-1)

    def counted_mul(self, other):
        # the weight r**-1 is multiplied onto each distinct value of a,
        # the operand no larger than b, before any product
        calls["shift" if other is weight else "mul"] += 1
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
    joined = ring.join(entries1, (1,), (0,), entries2, (0,), (1,), 1)
    assert calls["mul"] <= d1 * d2
    assert calls["shift"] == d1
    assert calls["canonical"] - weight_calls <= len(multisets)
    monkeypatch.undo()
    assert joined == per_entry_join(ring, entries1, bound1, rest1, entries2, bound2, rest2, 1)


def test_shared_entries_survive_scalar_ops():
    # an outer product of a tensor with one entry: every result entry with
    # the same left factor is one shared Scalar object
    ring = Z3.ring
    v = ring.root(1) + ring.radical(1)
    a = GroupTensor(Z3, (UP,), {(e,): v for e in Z3.elements()})
    b = GroupTensor(Z3, (DOWN,), {(0,): ring.one + ring.radical(1)})
    joined = contract(a, (), b, ())
    values = list(joined.entries.values())
    assert len(values) == 3 and all(w is values[0] for w in values)
    before = {key: list(w.terms.items()) for key, w in joined.entries.items()}
    w = values[0]
    results = [w + w, w * w, w * ring.root(2), w.conj(), w * ring.radical(2), w - v]
    assert compare(w, results[0]) is Comparison.UNEQUAL
    assert compare(w, w * ring.radical(2) * ring.radical(-2)) is Comparison.EQUAL
    assert {key: list(w.terms.items()) for key, w in joined.entries.items()} == before
    assert all(r is not w and r.terms is not w.terms for r in results)


@pytest.mark.parametrize("exact", [True, False])
def test_contract_drops_sums_that_cancel(exact):
    # over Z4, where r = 2 is exact in floats too: at (0, 0) the products 1
    # and -1 cancel, at (1, 1) the products r * r and -4 cancel across the
    # radical parities, and (0, 1), (1, 0) keep sums of both parities
    ring = Z4.ring
    one, r, four = ring.one, ring.radical(), ring.integer(4)
    x0, x1 = 0, 1
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
    got = contract(a, (), b, ())
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
    a = GroupTensor(Z2, (UP, UP), {(0, 0): ring.one, (1, 1): ring.one})
    b = GroupTensor(Z2, (UP, UP), {(0, 0): ring.one})
    rep = tensor_equal(a, b)
    assert rep.verdict == "fail"
    assert rep.witness == _fmt_key(Z2, (1, 1))
    c = GroupTensor(
        Z2,
        (UP, UP),
        {(0, 1): ring.integer(5), (1, 1): ring.integer(7)},
    )
    rep2 = tensor_equal(a, c)
    assert rep2.witness == _fmt_key(Z2, (0, 0))


def test_tensor_equal_report_formats_the_least_failing_key_and_renders_both_values():
    ring = Z2xZ2.ring
    # the residues ((1, 0), (0, 1)), ((0, 1), (1, 1)) and ((0, 1), (0, 0))
    keys = [(2, 1), (1, 3), (1, 0)]
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
    assert rep.witness == _fmt_key(Z2xZ2, min(keys))
    assert not rep and rep.checks == 3


def test_tensor_equal_decides_a_grading_mismatch():
    # r and 2 lie in different radical parities and are equal on Z4
    z4 = FinAbGroup([4])
    ring = z4.ring
    a = GroupTensor(z4, (UP,), {(0,): ring.radical()})
    b = GroupTensor(z4, (UP,), {(0,): ring.integer(2)})
    rep = tensor_equal(a, b)
    assert (rep.verdict, rep.witness, rep.checks) == ("pass", "", 1)
    b.entries[(0,)] = ring.integer(3)
    rep = tensor_equal(a, b)
    assert rep.verdict == "fail"
    assert rep.witness == _fmt_key(z4, (0,))


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
        assert tensor_equal(composed, identity(group, 1))


def pin(t, slot, value):
    """Fix one slot of t to a value and drop it."""
    entries = {}
    for key, val in t.entries.items():
        if key[slot] == value:
            entries[key[:slot] + key[slot + 1 :]] = val
    variances = t.variances[:slot] + t.variances[slot + 1 :]
    return GroupTensor(t.domain, variances, entries, t.ring)


def test_pin_extracts_slice():
    q = random_tensor(Z2, (UP, DOWN, UP), seed=16, density=1.0)
    pinned = pin(q, 1, 1)
    assert pinned.variances == (UP, UP)
    for (x, z), val in pinned.entries.items():
        assert q.entries[(x, 1, z)] == val
    assert len(pinned.entries) == sum(1 for k in q.entries if k[1] == 1)


def test_dump_format():
    ring = Z2.ring
    # Z/2's ring has root order 4, so z^2 = -1
    t = GroupTensor(Z2, (UP, DOWN), {(1, 0): ring.root(2), (0, 0): ring.one})
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
    return random_tensor(domain, (UP,) * n_out + (DOWN,) * n_in, seed, density=0.7)


def test_linmap_identity_neutral():
    for dom in (BasisDomain(3), Z3):
        f = random_linmap(dom, 2, 2, seed=17)
        left = identity(dom, 2).compose(f, at=0)
        right = f.compose(identity(dom, 2), at=0)
        assert tensor_equal(left, f)
        assert tensor_equal(right, f)


def test_sigma_squares_to_identity():
    for dom in (BasisDomain(2), Z3):
        s = sigma(dom)
        assert tensor_equal(s.compose(s, at=0), identity(dom, 2))


def test_linmap_compose_matches_matrix_product():
    dom = BasisDomain(3)
    f = random_linmap(dom, 2, 1, seed=18)
    g = random_linmap(dom, 1, 2, seed=19)
    composed = f.compose(g, at=0)
    oracle = lin_matrix(f) @ lin_matrix(g)
    assert np.allclose(lin_matrix(composed), oracle)


def test_linmap_group_compose_matches_weighted_matrix_product():
    # over a group domain each bound wire carries one weight c
    f = random_linmap(Z2, 1, 2, seed=20)
    g = random_linmap(Z2, 2, 1, seed=21)
    composed = f.compose(g, at=0)
    c = Z2.size**-0.5
    oracle = lin_matrix(f) @ lin_matrix(g) * c**2
    assert np.allclose(lin_matrix(composed), oracle)


def test_linmap_tens_matches_kron():
    # f (x) g is the word [(f, 0), (g, 1)] for f's one input, applied to the identity
    dom = BasisDomain(2)
    f = random_linmap(dom, 1, 1, seed=22)
    g = random_linmap(dom, 2, 1, seed=23)
    prod = apply_word([(f, 0), (g, 1)], identity(dom, 2))
    assert np.allclose(lin_matrix(prod), np.kron(lin_matrix(f), lin_matrix(g)))


def test_linmap_interchange_law():
    # (f1 (x) g1)(f2 (x) g2) = (f1 f2) (x) (g1 g2), as two words
    dom = BasisDomain(2)
    f1 = random_linmap(dom, 1, 1, seed=24)
    f2 = random_linmap(dom, 1, 1, seed=25)
    g1 = random_linmap(dom, 1, 1, seed=26)
    g2 = random_linmap(dom, 1, 1, seed=27)
    start = identity(dom, 2)
    lhs = apply_word([(f1, 0), (g1, 1), (f2, 0), (g2, 1)], start)
    rhs = apply_word([(f1, 0), (f2, 0), (g1, 1), (g2, 1)], start)
    assert tensor_equal(lhs, rhs)
    m = {f: lin_matrix(f) for f in (f1, f2, g1, g2)}
    assert np.allclose(lin_matrix(lhs), np.kron(m[f1], m[g1]) @ np.kron(m[f2], m[g2]))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_sigma_conjugation_swaps_factors(seed):
    dom = BasisDomain(2)
    f = random_linmap(dom, 1, 1, seed=seed)
    g = random_linmap(dom, 1, 1, seed=seed + 1)
    s = sigma(dom)
    # s (f (x) g) s: the word's first factor joins, so the right-hand s
    # is the map the word is applied to
    lhs = apply_word([(s, 0), (f, 0), (g, 1)], s)
    rhs = apply_word([(g, 0), (f, 1)], identity(dom, 2))
    assert tensor_equal(lhs, rhs)


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
    return GroupTensor(domain, (UP,) * n_out + (DOWN,) * n_in, entries)


@st.composite
def windowed_compositions(draw):
    """(f, x, a): f acts on x's outputs a .. a + f_in - 1."""
    domain = draw(st.sampled_from([Z2, Z3, Z4, BasisDomain(3)]))
    f_out, f_in = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    x_out = draw(st.integers(f_in, 3))
    x_in = draw(st.integers(0, 2))
    a = draw(st.integers(0, x_out - f_in))
    density = draw(st.sampled_from([0.3, 0.7, 1.0]))
    f = seeded_linmap(domain, f_out, f_in, draw(st.integers(0, 10**6)), density)
    x = seeded_linmap(domain, x_out, x_in, draw(st.integers(0, 10**6)), density)
    if draw(st.booleans()):
        f = f.to_float()
        x = x.to_float()
    return f, x, a


@settings(max_examples=200, deadline=None)
@given(case=windowed_compositions())
def test_compose_at_equals_the_padded_compose(case):
    f, x, a = case
    got = f.compose(x, at=a)
    want = compose(padded(f, a, outs_ins(x)[0] - a - outs_ins(f)[1]), x)
    assert outs_ins(got) == outs_ins(want)
    assert got.variances == want.variances
    if isinstance(got.ring, ComplexRing):
        assert tensor_equal(got, want, rel=1e-12)
    else:
        assert got.entries == want.entries


def test_compose_at_checks_the_window():
    f = sigma(Z2)
    x = identity(Z2, 3)
    assert outs_ins(f.compose(x, at=1))[0] == 3
    for at in (-1, 2, 5):
        with pytest.raises(ValueError, match=f"at wire {at} of 3 outputs"):
            f.compose(x, at=at)
    with pytest.raises(ValueError, match="at wire None of 3 outputs"):
        f.compose(x)


def test_refusals_come_before_any_join(monkeypatch):
    f = seeded_linmap(Z2, 3, 2, seed=1, density=1.0)
    x, sig = identity(Z2, 2), sigma(Z2)
    # a wire permutation applied first joins like any other factor
    assert apply_word([(sig, 0)], x).entries == sig.compose(x, 0).entries
    monkeypatch.setattr("pachner.tensors.contract", lambda *args: pytest.fail("joined"))
    # the empty word has no join to apply first
    with pytest.raises(ValueError, match="must apply a join first"):
        apply_word([], x)
    # compose without at, and with at out of range
    for at in (None, -1, 1):
        with pytest.raises(ValueError, match=f"cannot compose 2 inputs at wire {at} of 2 outputs"):
            f.compose(x, at)


def test_float_keys_beyond_int64_codes_are_refused_before_allocating(monkeypatch):
    # a float key is one int64 code, so |V|**arity must stay below 2**63:
    # 62 slots over B2 fit, 63 and 64 do not
    b2, ring = BasisDomain(2), ComplexRing(1)
    refusal = lambda slots: re.escape(
        f"float keys of {slots} slots over 2 elements take {2**slots} codes, "
        f"over the {2**63} an int64 holds"
    )
    fits = GroupTensor(b2, (UP,) * 62, {(1,) * 62: 1j}, ring)
    assert fits.entry((1,) * 62) == 1j and list(fits.entries) == [(1,) * 62]
    for slots in (63, 64):
        with pytest.raises(ValueError, match=refusal(slots)):
            GroupTensor(b2, (UP,) * slots, {(0,) * slots: 1 + 0j}, ring)
    exact = GroupTensor(b2, (UP,) * 64, {(0,) * 64: b2.ring.one})
    with pytest.raises(ValueError, match=refusal(64)):
        exact.to_float()
    # the outer product of two 32-slot tensors is refused before the join
    # reads an operand into an array
    half = GroupTensor(b2, (UP,) * 32, {(1,) * 32: 2 + 0j}, ring)
    monkeypatch.setattr(_FloatEntries, "split", lambda *args: pytest.fail("allocated"))
    with pytest.raises(ValueError, match=refusal(64)):
        contract(half, (), half, ())


def test_compose_refuses_a_tensor_whose_up_slots_do_not_all_come_first(monkeypatch):
    # a map's outputs are its UP slots, ahead of its DOWN slots; Q in its
    # slot order (x, u, y, v, z) is no map, as factor, operand or start
    f = seeded_linmap(Z2, 3, 2, seed=1, density=1.0)
    q = GroupTensor(Z2, (UP, DOWN, UP, DOWN, UP), f.entries)
    x, sig = identity(Z2, 2), sigma(Z2)
    monkeypatch.setattr("pachner.tensors.contract", lambda *args: pytest.fail("joined"))
    refused = [
        lambda: q.compose(x, 0),
        lambda: f.compose(q, 0),
        lambda: apply_word([(q, 0)], x),
        lambda: apply_word([(sig, 0), (f, 0)], q),
    ]
    for run in refused:
        with pytest.raises(ValueError, match=r"pattern \(up, down, up, down, up\) does not match map layout"):
            run()
    flipped = GroupTensor(Z2, (DOWN, UP), {})
    with pytest.raises(ValueError, match=r"variance pattern \(down, up\) does not match map layout"):
        flipped.compose(identity(Z2, 1), 0)


def test_compose_folds_wire_permutations_in_order_and_checks_them():
    f = seeded_linmap(Z2, 3, 2, seed=1, density=1.0)
    x, sig = identity(Z2, 2), sigma(Z2)
    # overlapping sigmas do not commute: they fold in application order
    want = f.compose(x, at=0)
    for b in (0, 1):
        want = permute_window(sig, want, b)
    assert_identical_entries(f.compose(x, 0, then=[(sig, 0), (sig, 1)]), want)
    for then in ([(sig, 2)], [(sig, -1)], [(f, 0)]):
        with pytest.raises(ValueError, match="cannot fold"):
            f.compose(x, 0, then=then)


@pytest.mark.parametrize("domain", [Z2, Z3, BasisDomain(2)])
@pytest.mark.parametrize("exact", [True, False])
def test_identity_on_no_wires_is_the_unit_of_tens(domain, exact):
    # the side-by-side product of two tensors is contract with no pairs
    ring = domain.ring if exact else ComplexRing(domain.ring.group_order)
    unit = identity(domain, 0, ring)
    assert outs_ins(unit) == (0, 0)
    assert unit.entries == {(): ring.one}
    f = seeded_linmap(domain, 2, 1, seed=5, density=0.7)
    if not exact:
        f = f.to_float()
    for got in (contract(unit, (), f, ()), contract(f, (), unit, ())):
        assert got.variances == f.variances
        assert got.entries == f.entries


def compose_then_permute(f, x, at):
    """f after x on the window at .., through contract in its default
    layout and then one permute that moves f's outputs to the window: the
    reference for a compose whose join places the window itself."""
    n_out, n_in = outs_ins(f)
    t = contract(f, range(n_out, n_out + n_in), x, range(at, at + n_in))
    return t.permute([*range(n_out, n_out + at), *range(n_out), *range(n_out + at, t.arity)])


def after_x(p, x, a):
    """The word p at wire a after x, applied to the identity on x's inputs:
    p folds into the join of x onto that identity."""
    start = identity(x.domain, outs_ins(x)[1], x.ring)
    return apply_word([(p, a), (x, 0)], start)


@st.composite
def wire_permutations_on_windows(draw):
    """(p, x, a): sigma or an identity on 0-3 wires, acting on x's outputs a .."""
    domain = draw(st.sampled_from([Z2, Z3, Z4, Z2xZ2, BasisDomain(3)]))
    exact = draw(st.booleans())
    ring = domain.ring if exact else ComplexRing(domain.ring.group_order)
    p = draw(st.sampled_from([sigma(domain, ring)] + [identity(domain, k, ring) for k in range(3)]))
    x_out = draw(st.integers(len(p.wires), 3))
    x = seeded_linmap(domain, x_out, draw(st.integers(0, 2)), draw(st.integers(0, 10**6)),
                      draw(st.sampled_from([0.3, 0.7, 1.0])))
    if not exact:
        x = x.to_float()
    return p, x, draw(st.integers(0, x_out - len(p.wires)))


@settings(max_examples=200, deadline=None)
@given(case=wire_permutations_on_windows())
def test_wire_permutation_compose_equals_the_joined_compose(case):
    # a folded wire permutation against its own tensor joined onto x
    p, x, a = case
    assert isinstance(p, WirePermutation)
    got, want = after_x(p, x, a), compose_then_permute(p, x, a)
    assert outs_ins(got) == outs_ins(want)
    assert got.variances == want.variances
    assert got.entries.keys() == want.entries.keys()
    if isinstance(got.ring, ComplexRing):
        for key, v in want.entries.items():
            assert abs(got.entries[key] - v) <= 1e-12 * max(abs(v), 1.0)
    else:
        for key, v in want.entries.items():
            assert got.entries[key] == v
            assert list(got.entries[key].terms.items()) == list(v.terms.items())


def test_wire_permutation_compose_takes_its_weight_from_the_ring(monkeypatch):
    # a ring whose measure weight r**-k were r**k would make sigma scale by
    # r**4; the fold must see it as the join does (sigma judges its weight
    # when it is built, so it is built in that ring)
    x = seeded_linmap(Z3, 3, 1, seed=2, density=1.0)
    original = ScalarRing.radical
    monkeypatch.setattr(ScalarRing, "radical", lambda self, e=1: original(self, abs(e)))
    sig = sigma(Z3)
    joined = x.compose(identity(Z3, 1), at=0)
    got, want = after_x(sig, x, 1), compose_then_permute(sig, joined, 1)
    assert got.entries == want.entries
    r4 = Z3.ring.radical(4)
    assert all(got.entries[(k[0], k[2], k[1], k[3])] == v * r4
               for k, v in joined.entries.items())


def test_wire_permutation_compose_checks_backend_and_window(monkeypatch):
    sig = sigma(Z2)
    x = seeded_linmap(Z2, 3, 1, seed=1, density=1.0)
    start = identity(Z2, 1)
    floats = [m.to_float() for m in (x, start)]
    joins = []
    for ring in (ScalarRing, ComplexRing):
        join = ring.join
        monkeypatch.setattr(ring, "join", lambda *args, join=join: joins.append(args) or join(*args))
    # every refusal comes before the join the permutation would fold into
    with pytest.raises(ValueError, match="cannot mix exact and float"):
        apply_word([(sig, 0), (floats[0], 0)], floats[1])
    with pytest.raises(ValueError, match="domain mismatch"):
        apply_word([(sigma(Z3), 0), (x, 0)], start)
    with pytest.raises(ValueError, match="at wire 2 of 3 outputs"):
        apply_word([(sig, 2), (x, 0)], start)
    assert joins == []
    # the spies see the joins of words that pass: one per ring
    apply_word([(sig, 0), (x, 0)], start)
    apply_word([(floats[0], 0)], floats[1])
    assert len(joins) == 2


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
            # float entries are read-only: the nudged copy is a new tensor
            entries = dict(t2.entries.items())
            key = draw(st.sampled_from(sorted(entries) or [None]))
            if key is not None:
                entries[key] *= 1 + draw(st.sampled_from([1e-10, 1e-8]))
                t2 = GroupTensor(domain, variances, entries, t2.ring)
    return t1, t2


@settings(max_examples=300, deadline=None)
@given(pair=tensor_pairs())
def test_tensor_equal_reports_as_the_sorted_walk(pair):
    t1, t2 = pair
    assert tensor_equal(t1, t2) == least_key_tensor_equal(t1, t2)
    assert tensor_equal(t2, t1) == least_key_tensor_equal(t2, t1)


def test_tensor_equal_prefers_the_least_unequal_key_over_indeterminate_ones():
    # r against 2 straddles both radical parities and is EQUAL on Z4
    ring = Z4.ring
    keys = [(i,) for i in range(4)]
    t1 = GroupTensor(Z4, (UP,), {keys[0]: ring.radical(), keys[1]: ring.one, keys[3]: ring.radical()})
    t2 = GroupTensor(Z4, (UP,), {keys[0]: ring.integer(2), keys[2]: ring.one, keys[3]: ring.integer(2)})
    got = tensor_equal(t1, t2)
    assert got == least_key_tensor_equal(t1, t2)
    assert (got.verdict, got.witness, got.checks) == ("fail", _fmt_key(Z4, keys[1]), 4)
    del t1.entries[keys[1]], t2.entries[keys[2]]
    got = tensor_equal(t1, t2)
    assert got == least_key_tensor_equal(t1, t2)
    assert (got.verdict, got.witness, got.checks) == ("pass", "", 2)


def test_wire_permutations_compose_without_a_join(monkeypatch):
    # in a word each wire permutation folds into the join before it
    x = seeded_linmap(Z3, 3, 1, seed=4, density=0.7)
    maps = [sigma(Z3), identity(Z3, 2), identity(Z3, 0)]
    want = [compose_then_permute(m, x, 1) for m in maps]
    joins, join = [], tensors.contract
    monkeypatch.setattr(tensors, "contract", lambda *args: joins.append(args) or join(*args))
    for m, w in zip(maps, want):
        assert after_x(m, x, 1).entries == w.entries
    assert len(joins) == len(maps)


@settings(max_examples=200, deadline=None)
@given(case=windowed_compositions())
def test_compose_at_builds_the_keys_of_compose_then_permute(case):
    f, x, a = case
    got, want = f.compose(x, at=a), compose_then_permute(f, x, a)
    assert outs_ins(got) == outs_ins(want)
    assert got.variances == want.variances
    assert_identical_entries(got, want)


@settings(max_examples=200, deadline=None)
@given(case=windowed_compositions(), data=st.data(), weight_sign=st.booleans())
def test_folded_wire_permutations_equal_their_one_at_a_time_composes(case, data, weight_sign):
    # with radical patched as PACHNER_MUTATE=weight-sign patches it, r**k *
    # r**-k is not one on groups, and every wire permutation rescales
    f, x, a = case
    dom, ring = f.domain, f.ring
    (f_out, f_in), (x_out, x_in) = outs_ins(f), outs_ins(x)
    outs, arity = f_out + x_out - f_in, f_out + x_out - f_in + x_in
    original = ScalarRing.radical
    with pytest.MonkeyPatch.context() as patch:
        if weight_sign:
            patch.setattr(ScalarRing, "radical", lambda self, e=1: original(self, abs(e)))
        sig = sigma(dom, ring)
        # sigma thrice: two overlapping sigmas do not commute
        maps = [sig, sig, sig, *(identity(dom, k, ring) for k in range(3))]
        placed = st.sampled_from([p for p in maps if len(p.wires) <= outs]).flatmap(
            lambda p: st.tuples(st.just(p), st.integers(0, outs - len(p.wires))))
        then = data.draw(st.lists(placed, max_size=3))
        outputs = st.permutations(range(outs)).map(lambda o: [*o, *range(outs, arity)])
        order = data.draw(st.none() | outputs)
        want = f.compose(x, at=a)
        for p, b in then:
            want = permute_window(p, want, b)
        want = want if order is None else want.permute(order)
        assert_identical_entries(f.compose(x, a, then, order), want)


@settings(max_examples=200, deadline=None)
@given(pair=joinable_pairs(), data=st.data())
def test_contract_layout_equals_the_default_layout_permuted(pair, data):
    a, s1, b, s2 = pair
    n = a.arity + b.arity - 2 * len(s1)
    order = data.draw(st.permutations(range(n)))
    for t1, t2 in ((a, b), (a.to_float(), b.to_float())):
        got, want = contract(t1, s1, t2, s2, order), contract(t1, s1, t2, s2).permute(order)
        assert got.variances == want.variances
        assert_identical_entries(got, want)
    # too long; a slot out of range; a repeated slot
    bad = data.draw(st.sampled_from([[*order, n], [*order[:-1], n], [0] * n if n > 1 else [n, n]]))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ScalarRing, "join", lambda *args: pytest.fail("joined"))
        with pytest.raises(ValueError, match="is not an order of"):
            contract(a, s1, b, s2, bad)


@pytest.mark.parametrize("exact", [True, False])
def test_compose_at_a_window_never_permutes(monkeypatch, exact):
    x = seeded_linmap(Z3, 3, 1, seed=4, density=0.7)
    f = seeded_linmap(Z3, 2, 2, seed=5, density=0.7)
    if not exact:
        x, f = x.to_float(), f.to_float()
    want = [compose_then_permute(f, x, a) for a in (0, 1)]
    permutes = []
    permute = GroupTensor.permute
    monkeypatch.setattr(GroupTensor, "permute", lambda t, perm: permutes.append(perm) or permute(t, perm))
    for a, w in zip((0, 1), want):
        assert_identical_entries(f.compose(x, at=a), w)
    assert permutes == []


def _near(x, *steps):
    return [x * (1 + s) for s in steps] + [math.nextafter(x * (1 + 1e-9), math.inf)]


# values on both sides of the relative tolerance 1e-9, subnormals, and
# infinite and nan parts
FLOAT_EDGE_VALUES = [
    *_near(1.0, 0, 1e-9, -1e-9, 2e-9),
    *_near(3.0, 0, 1e-9, -1e-9),
    *_near(1e6, 0, 1e-9, 1.5e-9),
    1e-9, 2e-9, 5e-324, -5e-324, 5e-324j, 1e-310 + 1e-310j, 0.5j, -0.5j,
    math.inf, -math.inf, complex(0, math.inf), complex(math.inf, math.inf),
    math.nan, complex(math.nan, 1), complex(math.nan, math.inf), complex(math.inf, math.nan),
]


@st.composite
def float_edge_pairs(draw):
    """Two float tensors over Z3 of arity 0-3 with keys on one side only
    and values drawn from FLOAT_EDGE_VALUES, often equal on a shared key.
    Each side's entries are inserted in a drawn order, so its codes come
    unsorted; some pairs hold one key set, in one order or in two."""
    arity = draw(st.integers(0, 3))
    keys = list(itertools.product(Z3.elements(), repeat=arity))
    values = st.sampled_from(FLOAT_EDGE_VALUES).map(complex)
    order1 = draw(st.permutations([key for key in keys if draw(st.integers(0, 3))]))
    if draw(st.booleans()):
        order2 = order1 if draw(st.booleans()) else draw(st.permutations(order1))
    else:
        order2 = draw(st.permutations([key for key in keys if draw(st.integers(0, 3))]))
    e1 = {key: draw(values) for key in order1}
    e2 = {key: e1[key] if key in e1 and draw(st.booleans()) else draw(values) for key in order2}
    ring = ComplexRing(3)
    return GroupTensor(Z3, (UP,) * arity, e1, ring), GroupTensor(Z3, (UP,) * arity, e2, ring)


@settings(max_examples=300, deadline=None)
@given(pair=st.one_of(float_edge_pairs(), tensor_pairs()), rel=st.sampled_from([1e-9, 1e-3]))
def test_tensor_equal_reports_as_the_per_key_loop(pair, rel):
    t1, t2 = pair
    assert tensor_equal(t1, t2, rel) == least_key_tensor_equal(t1, t2, rel)
    assert tensor_equal(t2, t1, rel) == least_key_tensor_equal(t2, t1, rel)


def test_float_comparison_at_the_tolerance_and_past_the_finite_values():
    ring = ComplexRing(3)
    cases = [
        (1.0, math.nextafter(1 + 1e-9, 0), "pass"),
        (1.0, 1 + 1e-9, "fail"),
        (5e-324, -5e-324, "pass"),
        (math.nan, math.nan, "fail"),
        # inf - inf is nan; an infinite difference passes on an infinite scale
        (math.inf, math.inf, "fail"),
        (math.inf, -math.inf, "pass"),
        # the scale is max(|x|, |y|, 1), which keeps the first of unordered
        # operands: inf beside nan, or nan beside inf
        (complex(0, math.inf), math.nan, "pass"),
        (math.nan, complex(0, math.inf), "fail"),
    ]
    for v1, v2, verdict in cases:
        t1 = GroupTensor(Z3, (UP,), {(0,): complex(v1)}, ring)
        t2 = GroupTensor(Z3, (UP,), {(0,): complex(v2)}, ring)
        got = tensor_equal(t1, t2)
        assert got == least_key_tensor_equal(t1, t2)
        assert got.verdict == verdict, (v1, v2)


def test_float_comparison_returns_its_witness_values_without_a_lookup(monkeypatch):
    # the float ring's compare_entries returns the least unequal key with
    # both values there, so no report finds an entry by its key; perturbed
    # controls 0 and 1 fail on keys only one side holds, control 2 on a key
    # both hold
    from pachner.solutions import parse_solution, perturb_q
    from pachner.verify import p33_sides

    clean = parse_solution("bichar:Z3")
    cases = []
    for seed in (0, 1, 2):
        lhs, rhs = (side.to_float() for side in p33_sides(perturb_q(clean, seed=seed).q))
        cases.append((lhs, rhs, least_key_tensor_equal(lhs, rhs)))
    assert [set(lhs.entries) == set(rhs.entries) for lhs, rhs, _ in cases] == [False, False, True]
    for name in ("get", "__getitem__"):
        monkeypatch.setattr(_FloatEntries, name, lambda *args, name=name: pytest.fail(name))
    for lhs, rhs, want in cases:
        got = tensor_equal(lhs, rhs)
        assert got == want and not got


def test_exact_comparison_takes_the_least_unequal_key_past_repeated_indeterminate_pairs():
    # r against 2 straddles both radical parities and is EQUAL on Z4; one
    # shared pair of objects fills every key below and beside the two
    # unequal keys, the later of which only t2 holds
    ring = Z4.ring
    keys = [(i, j) for i in range(4) for j in range(4)]
    r, two = ring.radical(), ring.integer(2)
    t1 = GroupTensor(Z4, (UP, UP), {key: r for key in keys[:-1]})
    t2 = GroupTensor(Z4, (UP, UP), {key: two for key in keys})
    t2.entries[keys[9]] = ring.integer(3)
    got = tensor_equal(t1, t2)
    assert got == least_key_tensor_equal(t1, t2)
    assert (got.verdict, got.witness, got.checks) == ("fail", _fmt_key(Z4, keys[9]), 16)
    t2.entries[keys[9]] = two
    got = tensor_equal(t1, t2)
    assert (got.verdict, got.witness) == ("fail", _fmt_key(Z4, keys[-1]))
    del t2.entries[keys[-1]]
    got = tensor_equal(t1, t2)
    assert got == least_key_tensor_equal(t1, t2)
    assert (got.verdict, got.witness, got.checks) == ("pass", "", 15)


def test_exact_comparison_compares_each_value_pair_once(monkeypatch):
    from pachner import scalars
    from pachner.solutions import parse_solution, perturb_q
    from pachner.verify import p33_sides

    clean = parse_solution("bichar:Z4")
    for sol in (clean, perturb_q(clean, seed=1)):
        lhs, rhs = (side for side in p33_sides(sol.q))
        e1, e2, zero = lhs.entries, rhs.entries, lhs.ring.zero
        pairs = {(id(e1.get(k, zero)), id(e2.get(k, zero))) for k in {*e1, *e2}}
        calls = []
        original = scalars.compare
        monkeypatch.setattr(scalars, "compare", lambda a, b: calls.append((id(a), id(b))) or original(a, b))
        got = tensor_equal(lhs, rhs)
        monkeypatch.undo()
        assert got == least_key_tensor_equal(lhs, rhs)
        assert len(calls) == len(set(calls)) and set(calls) <= pairs
        assert len(pairs) < got.checks


def test_exact_comparison_skips_values_that_are_one_object(monkeypatch):
    from pachner import scalars
    from pachner.solutions import parse_solution

    q = parse_solution("bichar:Z4").q
    calls = []
    original = scalars.compare
    monkeypatch.setattr(scalars, "compare", lambda a, b: calls.append((a, b)) or original(a, b))
    shared = GroupTensor(q.domain, q.variances, dict(q.entries), q.ring)
    got = tensor_equal(q, shared)
    assert got and got.checks == len(q.entries) and calls == []
    # every fifth key holds an equal value in a second object, one key a
    # different value, and one key is missing from the copy
    keys = sorted(q.entries)
    entries = dict(q.entries)
    for key in keys[::5]:
        entries[key] = Scalar(q.ring, dict(q.entries[key].terms))
    entries[keys[1]] = q.entries[keys[1]] + q.ring.one
    del entries[keys[2]]
    mixed = GroupTensor(q.domain, q.variances, entries, q.ring)
    distinct = {(id(q.entries[k]), id(mixed.entry(k))) for k in keys if q.entries[k] is not mixed.entry(k)}
    got = tensor_equal(q, mixed)
    assert got == least_key_tensor_equal(q, mixed)
    assert not got and got.witness == _fmt_key(q.domain, keys[1])
    assert len(calls) == len(distinct) and {(id(a), id(b)) for a, b in calls} == distinct


# -- single-term joins ---------------------------------------------------------

HEAD_KINDS = ["functional", "one ambiguous head", "ambiguous"]


@st.composite
def headed_join_args(draw, kind, values):
    """Join arguments whose first operand has heads (the free part of its
    keys) of one kind: every head under one bound ("functional"), all but
    the first ("one ambiguous head"), or every head under 2-3 bounds
    ("ambiguous").  Values are drawn from ``values``; bound elements from
    0-2 and every other element from 0-1, so buckets are met often."""
    k = draw(st.integers(0 if kind == "functional" else 1, 3))
    f1, f2 = draw(st.integers(1, 2)), draw(st.integers(0, 2))
    s1 = draw(st.permutations(range(k + f1)))[:k]
    s2 = draw(st.permutations(range(k + f2)))[:k]
    free1 = [p for p in range(k + f1) if p not in s1]
    free2 = [p for p in range(k + f2) if p not in s2]
    bounds = st.tuples(*[st.integers(0, 2)] * k)
    heads = draw(st.lists(st.tuples(*[st.integers(0, 1)] * f1), min_size=1, unique=True))
    keys1 = []
    for i, head in enumerate(heads):
        many = kind == "ambiguous" or (kind == "one ambiguous head" and i == 0)
        n = draw(st.integers(2, 3)) if many else 1
        for bound in draw(st.lists(bounds, min_size=n, max_size=n, unique=True)):
            key = [None] * (k + f1)
            for slots, part in ((s1, bound), (free1, head)):
                for p, x in zip(slots, part):
                    key[p] = x
            keys1.append(tuple(key))
    keys2 = draw(st.lists(
        st.tuples(*[st.integers(0, 2) if p in s2 else st.integers(0, 1) for p in range(k + f2)]),
        min_size=1, max_size=12, unique=True,
    ))
    entries1 = {key: draw(values) for key in draw(st.permutations(keys1))}
    entries2 = {key: draw(values) for key in keys2}
    return entries1, tuple(s1), tuple(free1), entries2, tuple(s2), tuple(free2), k


def assert_head_kind(kind, entries1, rest1):
    heads = [rest1(key) for key in entries1]
    repeated = {h for h in heads if heads.count(h) > 1}
    want = {"functional": 0, "one ambiguous head": 1, "ambiguous": len(set(heads))}[kind]
    assert len(repeated) == want


@st.composite
def exact_values(draw, ring):
    """+-1 times a bare radical power r**e, or times -2, 1 or 2 times a
    root times r**e plus, half the time, r**(e + 1), with its terms in
    either order.  So sums can cancel and, where N = 4, products can
    vanish: (r - 2) * (r + 2) = 0."""
    e = draw(st.integers(-1, 1))
    v = ring.radical(e)
    if draw(st.booleans()):
        v = ring.integer(draw(st.sampled_from([-2, 1, 2]))) * ring.root(draw(st.integers(0, 1))) * v
        if draw(st.booleans()):
            v = v + ring.radical(e + 1)
    v = v if draw(st.booleans()) else -v
    if draw(st.booleans()):
        v = Scalar(ring, dict(reversed(v.terms.items())))
    return v


@pytest.mark.parametrize("kind", HEAD_KINDS)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_exact_join_paths_equal_the_per_entry_join(kind, data):
    ring = data.draw(st.sampled_from(JOIN_DOMAINS)).ring
    shared = data.draw(st.lists(exact_values(ring), min_size=1, max_size=3))
    values = st.one_of(st.sampled_from(shared), exact_values(ring))
    args = data.draw(headed_join_args(kind, values))
    assert_head_kind(kind, args[0], picker(args[2]))
    got, want = ring.join(*args), per_entry_join(ring, *with_getters(args))
    assert list(got) == list(want)
    assert [list(v.terms.items()) for v in got.values()] == [
        list(v.terms.items()) for v in want.values()
    ]


@pytest.mark.parametrize("kind", HEAD_KINDS)
@settings(max_examples=150, deadline=None)
@given(data=st.data(), order=st.sampled_from([1, 2, 3, 4, 6]))
def test_complex_join_paths_give_the_two_pass_bits(kind, data, order):
    ring = ComplexRing(order)
    args = data.draw(headed_join_args(kind, st.sampled_from(COMPLEX_VALUES)))
    assert_head_kind(kind, args[0], picker(args[2]))
    got = ring.join(*coded(args, 3))
    bits = lambda v: struct.pack("<dd", v.real, v.imag)
    for want in (two_pass_complex_join(ring, *with_getters(args)), dict_complex_join(ring, *with_getters(args))):
        assert list(got) == list(want)
        assert [bits(v) for v in got.values()] == [bits(v) for v in want.values()]


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_p33_sides_join_every_key_once(monkeypatch, backend):
    # Q's outputs fix its inputs, so the clean bichar sides meet no
    # ambiguous head; a perturbed Q adds at most one head under a second
    # bound, and the 20 Z3 controls do meet one
    from pachner import scalars
    from pachner.solutions import parse_solution, perturb_q
    from pachner.tensors import in_backend
    from pachner.verify import p33_sides

    found = []
    original = scalars._ambiguous
    monkeypatch.setattr(scalars, "_ambiguous", lambda heads: found.append(original(heads)) or found[-1])
    for group in ("Z2", "Z3", "Z4", "Z5", "Z6", "Z2xZ2"):
        p33_sides(in_backend(parse_solution(f"bichar:{group}").q, backend))
    assert found and not any(found)
    found.clear()
    clean = parse_solution("bichar:Z3")
    for seed in range(20):
        p33_sides(in_backend(perturb_q(clean, seed).q, backend))
    assert max(map(len, found)) == 1


def test_exact_comparison_of_one_sided_keys_calls_no_scalar_eq(monkeypatch):
    # keys on both sides, on t1's only and on t2's only, and one unequal
    # pair; values of one radical parity, whose comparison needs no ==
    ring = Z3.ring
    (a, b, c, d) = [(x, y) for x in Z3.elements() for y in Z3.elements()][:4]
    v, w = ring.root(1) + ring.one, ring.integer(2)
    t1 = GroupTensor(Z3, (UP, DOWN), {a: v, b: w, c: v})
    t2 = GroupTensor(Z3, (UP, DOWN), {d: w, c: v, a: w})
    want = least_key_tensor_equal(t1, t2)
    calls = []
    eq = Scalar.__eq__
    monkeypatch.setattr(Scalar, "__eq__", lambda self, other: calls.append(1) or eq(self, other))
    got = tensor_equal(t1, t2)
    monkeypatch.undo()
    assert not calls
    assert got == want and (got.verdict, got.checks) == ("fail", 4)


def test_conj_conjugates_each_value_object_once(monkeypatch):
    from pachner.solutions import parse_solution

    q = parse_solution("bichar:Z3").q
    # hash-consed: Q's 27 entries hold its 3 distinct values as 3 objects
    objects = {id(v) for v in q.entries.values()}
    assert (len(q.entries), len(objects)) == (27, 3)
    want = {key: v.conj() for key, v in q.entries.items()}
    calls = []
    conj = Scalar.conj
    monkeypatch.setattr(Scalar, "conj", lambda self: calls.append(id(self)) or conj(self))
    got = q.conj()
    monkeypatch.undo()
    assert sorted(calls) == sorted(objects)
    assert got.variances == tuple(v.flip() for v in q.variances)
    assert list(got.entries) == list(want)
    assert [list(v.terms.items()) for v in got.entries.values()] == [
        list(v.terms.items()) for v in want.values()
    ]


def test_float_conj_keeps_key_order_and_conjugate_bits():
    from pachner.solutions import parse_solution

    bits = lambda v: struct.pack("<dd", v.real, v.imag)
    inf, nan = float("inf"), float("nan")
    # keys out of order, and values with signed zeros, infinities and nans
    odd = {
        (2, 0): complex(-0.0, 1.0),
        (0, 1): complex(1.0, -0.0),
        (1, 2): complex(inf, -inf),
        (0, 0): complex(nan, 0.0),
        (2, 2): complex(0.0, nan),
        (1, 0): complex(-2.5, 0.0),
    }
    tensors_ = [
        GroupTensor(Z3, (UP, DOWN), odd, ComplexRing(3)),
        parse_solution("bichar:Z3").q.to_float(),
    ]
    for t in tensors_:
        want = {key: v.conjugate() for key, v in t.entries.items()}
        got = t.conj()
        assert got.ring == t.ring
        assert got.variances == tuple(v.flip() for v in t.variances)
        assert list(got.entries) == list(want)
        assert [bits(v) for v in got.entries.values()] == [bits(v) for v in want.values()]


def test_to_float_converts_each_value_object_once(monkeypatch):
    from pachner.solutions import parse_solution, perturb_q

    for sol in (parse_solution("bichar:Z2xZ2"), perturb_q(parse_solution("bichar:Z3"), 5)):
        q = sol.q
        objects = {id(v) for v in q.entries.values()}
        want = {key: v.to_complex() for key, v in q.entries.items()}
        calls = []
        to_complex = Scalar.to_complex
        monkeypatch.setattr(Scalar, "to_complex", lambda self: calls.append(id(self)) or to_complex(self))
        got = q.to_float()
        monkeypatch.undo()
        assert len(objects) < len(q.entries)
        assert sorted(calls) == sorted(objects)
        assert list(got.entries.items()) == list(want.items())


# the identity on orders 2-16 (ids "2" to "16") and sigma ("2-sigma" ...)
WIRE_CASES = [
    pytest.param(order, wires, id=str(order) if wires == "identity" else f"{order}-{wires}")
    for wires in ("identity", "sigma")
    for order in range(2, 17)
]


@pytest.mark.parametrize("order,wires", WIRE_CASES)
def test_float_identity_wire_keeps_the_bits(order, wires):
    # r**k * r**-k rounds to 1 +- 1 ulp on some orders (for k = 1: 2, 3, 6,
    # 7 and 8); a wire permutation must still leave every value's bits as
    # they are, only moved, on every order
    domain = FinAbGroup([order])
    ring = ComplexRing(order)
    if order in (2, 3, 6, 7, 8):
        assert ring.radical(1) * ring.radical(-1) != 1
    x = seeded_linmap(domain, 2, 1, seed=order, density=0.6).to_float()
    start = identity(domain, 1, ring)
    # each wire folds into the join of x onto the identity
    joined = apply_word([(x, 0)], start)
    if wires == "identity":
        for at in (0, 1):
            got = apply_word([(identity(domain, 1, ring), at), (x, 0)], start)
            assert_identical_entries(got, joined)
    else:
        got = apply_word([(sigma(domain, ring), 0), (x, 0)], start)
        assert_identical_entries(got, joined.permute([1, 0, 2]))
