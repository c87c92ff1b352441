import cmath
import functools
import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pachner.scalars import (
    Comparison,
    ComplexRing,
    Scalar,
    _FloatEntries,
    compare,
    cyclotomic_polynomial,
    get_ring,
)
from reference import COMPLEX_VALUES, approx_equal, dict_complex_join, subtracting_compare, two_pass_complex_join


def poly_eval(coeffs, x):
    return sum(c * x**j for j, c in enumerate(coeffs))


def test_cyclotomic_small_orders():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_prime_orders():
    for p in (3, 5, 7, 11):
        assert cyclotomic_polynomial(p) == (1,) * p


def test_cyclotomic_product_identity():
    # prod over divisors d of n of Phi_d(x) equals x^n - 1
    for n in range(1, 31):
        prod = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                phi = cyclotomic_polynomial(d)
                out = [0] * (len(prod) + len(phi) - 1)
                for i, a in enumerate(prod):
                    for j, b in enumerate(phi):
                        out[i + j] += a * b
                prod = out
        expect = [0] * (n + 1)
        expect[0], expect[n] = -1, 1
        assert prod == expect


def test_cyclotomic_vanishes_on_primitive_roots():
    for n in (4, 6, 8, 10, 12):
        phi = cyclotomic_polynomial(n)
        for k in range(n):
            z = cmath.exp(2j * cmath.pi * k / n)
            val = poly_eval(phi, z)
            if math.gcd(k, n) == 1:
                assert abs(val) < 1e-9
            else:
                assert abs(val) > 1e-3


def test_imaginary_unit_squares_to_minus_one():
    ring = get_ring(2, 2)
    i = ring.root(1)
    assert approx_equal(i.to_complex(), 1j, 1e-12)
    assert i * i == ring.integer(-1)


def test_root_periodicity():
    ring = get_ring(3, 3)
    assert ring.root(6) == ring.one
    assert ring.root(1) == ring.root(7)
    assert ring.root(-1) == ring.root(5)


def test_minus_one_at_lcm_order():
    ring = get_ring(1, 2)
    assert ring.root(1) == ring.integer(-1)


def test_radical_squares_to_group_order():
    for n in (2, 3, 4, 5, 6):
        ring = get_ring(n, n)
        r = ring.radical()
        assert r * r == ring.integer(n)
        assert approx_equal(r.to_complex(), math.sqrt(n), 1e-12)


def test_radical_inverse_cancels():
    ring = get_ring(2, 2)
    c = ring.radical(-1)
    assert c * ring.radical() == ring.one
    assert c * c * ring.integer(2) == ring.one


def test_four_times_weight_is_radical_in_order_four():
    # 4 * r^-1 = r^2 * r^-1 = r, an equality inside one parity class
    ring = get_ring(4, 4)
    lhs = ring.integer(4) * ring.radical(-1)
    assert lhs == ring.radical()
    assert compare(lhs, ring.radical()) is Comparison.EQUAL


def test_sixth_roots_sum_to_zero():
    # numeric oracle first: the geometric sum of all 6th roots vanishes
    numeric = sum(cmath.exp(2j * cmath.pi * k / 6) for k in range(6))
    assert abs(numeric) < 1e-12
    ring = get_ring(3, 3)
    total = ring.zero
    for k in range(6):
        total = total + ring.root(k)
    assert not total


def test_conj_of_root_multiplies_to_one():
    ring = get_ring(6, 6)
    for k in range(12):
        z = ring.root(k)
        assert z.conj() * z == ring.one


def test_conj_fixes_radical():
    ring = get_ring(3, 3)
    assert ring.radical().conj() == ring.radical()
    assert ring.radical(-1).conj() == ring.radical(-1)


def test_compare_same_parity_unequal():
    ring = get_ring(2, 2)
    assert compare(ring.radical(), 2 * ring.radical()) is Comparison.UNEQUAL
    assert compare(ring.one, ring.integer(3)) is Comparison.UNEQUAL


def test_compare_cross_parity_indeterminate():
    # r = 2 holds numerically in the order-4 ring but the formal grading
    # cannot see it; the comparison must refuse to decide
    ring = get_ring(4, 4)
    assert compare(ring.radical(), ring.integer(2)) is Comparison.INDETERMINATE
    # likewise z - z^3 = sqrt(2) with z = exp(pi i/4)
    ring = get_ring(4, 2)
    assert compare(ring.root(1) - ring.root(3), ring.radical()) is Comparison.INDETERMINATE


def test_comparison_verdicts_name_the_report_outcomes():
    assert {c: c.verdict for c in Comparison} == {
        Comparison.EQUAL: "pass",
        Comparison.UNEQUAL: "fail",
        Comparison.INDETERMINATE: "indeterminate",
    }


def test_compare_cross_parity_unequal_when_squares_differ():
    # r^10 = 32 and r^9 = 16 sqrt(2): P = 32, Q r = -16 r, P^2 != N Q^2
    ring = get_ring(2, 2)
    assert compare(ring.radical(10), ring.radical(9)) is Comparison.UNEQUAL


def test_weight_one_ring_collapses_radical():
    ring = get_ring(1, 1)
    assert ring.radical() == ring.one
    assert ring.radical(-3) == ring.one


def test_ring_mixing_rejected():
    a = get_ring(2, 2).one
    b = get_ring(3, 3).one
    with pytest.raises(ValueError):
        _ = a + b
    with pytest.raises(ValueError):
        _ = a * b


def test_render_parse_fixtures():
    ring = get_ring(2, 2)
    s = ring.one + ring.root(1) * 3
    assert s.render() == "1 + 3·z^1"
    assert ring.parse("1 + 3·z^1") == s
    t = ring.radical() * s
    assert "· r^1" in t.render()
    assert ring.parse(t.render()) == t
    assert not ring.parse("0")
    mixed = ring.one + ring.radical()
    assert ring.parse(mixed.render()) == mixed
    # a "· r^k" token ends its part; parts on one exponent, or on two of
    # one parity (r^2 = 2), add up, and so does the unmarked rest
    assert ring.parse("1 + 1·z^1 · r^3 + 2 · r^3 + 1 · r^1 + 1·z^1").terms == {1: (7, 2), 0: (0, 1)}
    assert ring.parse("1 · r^2 + 1 · r^0 + -3") == ring.zero
    with pytest.raises(ValueError, match="z power 2 out of canonical range"):
        ring.parse("1·z^2 · r^1")


scalar_terms = st.lists(
    st.tuples(
        st.integers(-5, 5),
        st.integers(0, 11),
        st.integers(-2, 2),
    ),
    max_size=5,
)


def build_scalar(ring, terms):
    total = ring.zero
    for coeff, k, e in terms:
        total = total + ring.integer(coeff) * ring.root(k) * ring.radical(e)
    return total


@settings(max_examples=200, deadline=None)
@given(scalar_terms, scalar_terms, scalar_terms)
def test_float_agreement_on_ring_ops(sa, sb, sc):
    ring = get_ring(6, 3)
    a, b, c = (build_scalar(ring, s) for s in (sa, sb, sc))
    exact = (a * b + c).to_complex()
    flo = a.to_complex() * b.to_complex() + c.to_complex()
    assert approx_equal(exact, flo, 1e-10)


@settings(max_examples=200, deadline=None)
@given(scalar_terms, scalar_terms)
def test_conj_is_ring_involution(sa, sb):
    ring = get_ring(6, 2)
    a, b = build_scalar(ring, sa), build_scalar(ring, sb)
    assert a.conj().conj() == a
    assert (a * b).conj() == a.conj() * b.conj()
    assert (a + b).conj() == a.conj() + b.conj()


@settings(max_examples=200, deadline=None)
@given(scalar_terms, scalar_terms, scalar_terms)
def test_ring_laws(sa, sb, sc):
    ring = get_ring(4, 2)
    a, b, c = (build_scalar(ring, s) for s in (sa, sb, sc))
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
    assert a - a == ring.zero


@settings(max_examples=100, deadline=None)
@given(scalar_terms)
def test_render_parse_round_trip(terms):
    ring = get_ring(6, 4)
    s = build_scalar(ring, terms)
    assert ring.parse(s.render()) == s


@settings(max_examples=100, deadline=None)
@given(scalar_terms, scalar_terms)
def test_equal_implies_float_equal(sa, sb):
    ring = get_ring(5, 5)
    a, b = build_scalar(ring, sa), build_scalar(ring, sb)
    if a == b:
        assert approx_equal(a.to_complex(), b.to_complex(), 1e-12)
    # structural equality of canonical forms is also complete per parity:
    # a genuinely equal pair can never be reported unequal
    if compare(a, b) is Comparison.UNEQUAL:
        assert not approx_equal(a.to_complex(), b.to_complex(), 1e-9)


@pytest.mark.parametrize(
    "value,shown",
    [
        (140.296115413 + 3.28701834324e-15j, "140.296115413+0j"),
        (512 - 3.45e-31j, "512+0j"),
        (-1e-17 + 2j, "0+2j"),
        (complex(-0.0, -0.0), "0+0j"),
        (1e-20 + 1e-20j, "1e-20+1e-20j"),
    ],
)
def test_complex_render_drops_rounding_noise(value, shown):
    assert ComplexRing(3).render(value) == shown


# trivial, Z2, Z3, Z4, Z6 and Z2xZ2 parameters (L, N)
SHIFT_RINGS = [(1, 1), (2, 2), (3, 3), (4, 4), (6, 6), (2, 4)]

raw_scalars = st.dictionaries(
    st.integers(-4, 4),
    st.lists(st.integers(-6, 6), min_size=1, max_size=12),
    max_size=3,
)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(SHIFT_RINGS), raw_scalars, st.integers(-6, 6))
def test_radical_power_multiplies_by_exponent_shift(params, raw, k):
    ring = get_ring(*params)
    v = ring.scalar({e: tuple(vec) for e, vec in raw.items()})
    rt = ring.group_order ** 0.5
    radical = ring.radical(k)
    # built through the general reduce-and-canonicalise path
    shifted = ring.scalar({e + k: vec for e, vec in v.terms.items()})
    for got in (radical * v, v * radical):
        assert got == shifted
        assert ring._canonical(got.terms) == got.terms
        assert approx_equal(got.to_complex(), v.to_complex() * rt**k, 1e-9)
    # operands that are not a bare radical power (2·r^k is one only for N = 2)
    # must take the general product
    z = ring.root(1).to_complex()
    pinned = [
        (ring.integer(2) * radical, lambda vec: tuple(2 * c for c in vec), 2 * rt**k),
        (ring.root(1) * radical, lambda vec: (0,) + vec, z * rt**k),
    ]
    for factor, scale, value in pinned:
        want = ring.scalar({e + k: scale(vec) for e, vec in v.terms.items()})
        for got in (factor * v, v * factor):
            assert got == want
            assert approx_equal(got.to_complex(), v.to_complex() * value, 1e-9)
    r_plus_one = ring.radical() + ring.one
    for got in (r_plus_one * v, v * r_plus_one):
        assert got == ring.scalar({e + 1: vec for e, vec in v.terms.items()}) + v
        assert approx_equal(got.to_complex(), v.to_complex() * (rt + 1), 1e-9)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(SHIFT_RINGS), raw_scalars, raw_scalars, st.sampled_from(["copy", "other", "cross"]))
def test_compare_terms_shortcut_matches_the_subtraction(params, raw_a, raw_b, how):
    ring = get_ring(*params)
    a = ring.scalar({e: tuple(vec) for e, vec in raw_a.items()})
    if how == "copy":
        # equal terms in another object, items in reverse order
        b = Scalar(ring, dict(reversed(list(a.terms.items()))))
    elif how == "other":
        b = ring.scalar({e: tuple(vec) for e, vec in raw_b.items()})
    else:
        # a cross-parity partner: r against N**0.5 where that is an integer
        b = a + ring.radical() - ring.integer(round(ring.group_order**0.5))
    assert compare(a, b) is subtracting_compare(a, b)
    assert compare(b, a) is subtracting_compare(b, a)


def test_compare_of_equal_terms_does_not_subtract(monkeypatch):
    ring = get_ring(4, 4)
    a = ring.root(1) * ring.radical(3) + ring.one
    b = Scalar(ring, dict(a.terms))
    # equal terms in rings of other parameters still refuse to mix
    with pytest.raises(ValueError, match="cannot mix scalars"):
        compare(get_ring(2, 2).one, get_ring(2, 4).one)
    monkeypatch.setattr(Scalar, "__sub__", lambda self, other: pytest.fail("subtracted"))
    assert compare(a, b) is Comparison.EQUAL
    with pytest.raises(pytest.fail.Exception, match="subtracted"):
        compare(a, ring.one)


@st.composite
def complex_join_args(draw):
    """Float join arguments as ComplexRing.join takes them, but with entry
    dicts: operands of 0-3 slots over {0, 1}, either of them possibly
    empty, k = 0 (an outer product) up to the smaller arity, heads under
    one bound or several, and the result slots in their own order or in
    a drawn one."""
    arity1, arity2 = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    k = draw(st.integers(0, min(arity1, arity2)))
    s1 = tuple(draw(st.permutations(range(arity1)))[:k])
    s2 = tuple(draw(st.permutations(range(arity2)))[:k])

    def entries(arity):
        keys = draw(st.lists(st.tuples(*[st.integers(0, 1)] * arity), max_size=8, unique=True))
        return {key: draw(st.sampled_from(COMPLEX_VALUES)) for key in keys}

    free1 = tuple(p for p in range(arity1) if p not in s1)
    free2 = tuple(p for p in range(arity2) if p not in s2)
    order = draw(st.none() | st.permutations(range(len(free1) + len(free2))).map(tuple))
    return entries(arity1), s1, free1, entries(arity2), s2, free2, k, order


def pick(slots):
    return lambda key: tuple(key[p] for p in slots)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([1, 2, 3, 4, 6]), complex_join_args())
def test_complex_join_matches_the_two_pass_join(group_order, args):
    # the same keys in the same order with the same bits as both dict joins
    ring = ComplexRing(group_order)
    entries1, s1, free1, entries2, s2, free2, k, order = args
    got = ring.join(
        _FloatEntries.from_dict(entries1, 2, len(s1 + free1)), s1, free1,
        _FloatEntries.from_dict(entries2, 2, len(s2 + free2)), s2, free2, k, order,
    )
    getters = (entries1, pick(s1), pick(free1), entries2, pick(s2), pick(free2), k)
    in_order = pick(range(len(free1 + free2)) if order is None else order)
    two_pass = {in_order(key): v for key, v in two_pass_complex_join(ring, *getters).items()}
    by_dict = dict_complex_join(ring, *getters, None if order is None else pick(order))
    bits = lambda entries: [(key, struct.pack("<dd", v.real, v.imag)) for key, v in entries.items()]
    assert bits(got) == bits(two_pass) == bits(by_dict)


def pairwise_add(a, b):
    """Scalar.__add__ as it merged its two operands before ScalarRing.sum:
    the reference for the one exact sum."""
    merged = {}
    for src in (a.terms, b.terms):
        for e, vec in src.items():
            acc = merged.setdefault(e, [0] * a.ring.degree)
            for i, v in enumerate(vec):
                acc[i] += v
    return Scalar(a.ring, a.ring._canonical(merged))


# Z2-Z6 and Z2xZ2 parameters (L, N)
SUM_RINGS = [(2, 2), (3, 3), (4, 4), (5, 5), (6, 6), (2, 4)]


@st.composite
def summands(draw):
    """A ring and 0-6 of its scalars in any order, some beside their
    negatives, so that parts or all of a sum cancel."""
    ring = get_ring(*draw(st.sampled_from(SUM_RINGS)))
    values = []
    for raw, cancel in draw(st.lists(st.tuples(raw_scalars, st.booleans()), max_size=3)):
        v = ring.scalar({e: tuple(vec) for e, vec in raw.items()})
        values += [v, -v] if cancel else [v]
    return ring, draw(st.permutations(values))


@settings(max_examples=300, deadline=None)
@given(summands())
def test_ring_sum_equals_the_pairwise_additions(case):
    ring, values = case
    want = list(functools.reduce(pairwise_add, values, ring.zero).terms.items())
    assert list(ring.sum(values).terms.items()) == want
    assert list(ring.sum(iter(values)).terms.items()) == want
    assert list(sum(values, ring.zero).terms.items()) == want
