import cmath
import itertools
import re

import pytest

from pachner import groups
from pachner.groups import FinAbGroup, parse_group
from reference import (
    approx_equal,
    residue_add,
    residue_chi_exponent,
    residue_gauss_exponent,
    residue_neg,
    residue_sub,
    residue_tuples,
)


def small_groups(max_size=12):
    """All order tuples with entries >= 2 and product <= max_size."""
    found = []
    def rec(prefix, budget):
        if prefix:
            found.append(tuple(prefix))
        for n in range(2, budget + 1):
            rec(prefix + [n], budget // n)
    rec([], max_size)
    return [FinAbGroup(o) for o in found]


def chi_numeric(group, x, y):
    val = 1 + 0j
    for xi, yi, n in zip(group.coords[x], group.coords[y], group.orders):
        val *= cmath.exp(2j * cmath.pi * (n + 1) * xi * yi / n)
    return val


def g_numeric(group, x):
    val = 1 + 0j
    for xi, n in zip(group.coords[x], group.orders):
        val *= cmath.exp(-1j * cmath.pi * (n + 1) * xi * xi / n)
    return val


def test_chi_oracle_values():
    z3 = FinAbGroup([3])
    # numeric first: exp(2 pi i * 4 / 3) is the primitive cube root
    assert approx_equal(chi_numeric(z3, 1, 1), cmath.exp(2j * cmath.pi / 3), 1e-12)
    assert z3.chi(1, 1) == z3.ring.root(2)

    z2 = FinAbGroup([2])
    assert approx_equal(chi_numeric(z2, 1, 1), -1, 1e-12)
    assert z2.chi(1, 1) == z2.ring.integer(-1)


def test_chi_at_identity():
    for group in small_groups(8):
        for x in group.elements():
            assert group.chi(group.zero, x) == group.ring.one


def test_chi_matches_numeric_everywhere():
    for group in small_groups(10):
        for x, y in itertools.product(group.elements(), repeat=2):
            assert approx_equal(
                group.chi(x, y).to_complex(), chi_numeric(group, x, y), 1e-10
            )


def test_chi_bicharacter_and_symmetric():
    for group in small_groups(10):
        elems = list(group.elements())
        for x, y in itertools.product(elems, repeat=2):
            assert group.chi(x, y) == group.chi(y, x)
        for x, xp, y in itertools.product(elems, repeat=3):
            lhs = group.chi(group.add(x, xp), y)
            assert lhs == group.chi(x, y) * group.chi(xp, y)


def test_gauss_oracle_values():
    z3 = FinAbGroup([3])
    assert approx_equal(g_numeric(z3, 1), cmath.exp(2j * cmath.pi / 3), 1e-12)
    assert z3.gauss_g(1) == z3.ring.root(2)

    z2 = FinAbGroup([2])
    assert approx_equal(g_numeric(z2, 1), 1j, 1e-12)
    assert z2.gauss_g(1) == z2.ring.root(1)
    # g(1)^2 / g(0) reproduces chi(1,1) = -1
    assert z2.gauss_g(1) * z2.gauss_g(1) == z2.chi(1, 1)


def test_gauss_at_identity():
    for group in small_groups(8):
        assert group.gauss_g(group.zero) == group.ring.one


def test_gauss_trivializes_cocycle():
    for group in small_groups(12):
        for x, y in itertools.product(group.elements(), repeat=2):
            lhs = group.gauss_g(x) * group.gauss_g(y)
            rhs = group.chi(x, y) * group.gauss_g(group.add(x, y))
            assert lhs == rhs


def test_gauss_even():
    for group in small_groups(12):
        for x in group.elements():
            assert group.gauss_g(x) == group.gauss_g(group.neg(x))


def test_chi_nondegenerate():
    for group in small_groups(12):
        elems = list(group.elements())
        for x in elems:
            if all(group.chi(x, y) == group.ring.one for y in elems):
                assert x == group.zero


def integrate(group, f):
    """Haar integral over group: the weight c = r**-1 times the plain sum."""
    total = group.ring.zero
    for x in group.elements():
        total = total + f(x)
    return group.ring.radical(-1) * total


def test_delta_normalization():
    z2 = FinAbGroup([2])
    assert z2.delta(0) == z2.ring.radical()
    assert not z2.delta(1)
    # integrating delta gives 1
    for group in small_groups(8):
        assert integrate(group, group.delta) == group.ring.one


def test_character_sum_vanishes():
    z3 = FinAbGroup([3])
    # numeric oracle: 1 + omega^4 + omega^8 over the cube roots sums to 0
    numeric = sum(chi_numeric(z3, 1, y) for y in range(3))
    assert abs(numeric) < 1e-12
    val = integrate(z3, lambda y: z3.chi(1, y))
    assert not val


def test_fourier_normalization():
    for group in small_groups(12):
        for x in group.elements():
            val = integrate(group, lambda y: group.chi(x, y))
            assert val == group.delta(x)


def test_integrate_constant():
    z4 = FinAbGroup([4])
    val = integrate(z4, lambda x: z4.ring.one)
    assert val == z4.ring.radical()


def test_group_arithmetic():
    g = FinAbGroup([2, 3])
    assert g.size == 6
    assert g.lcm_order == 6
    index = {c: x for x, c in enumerate(g.coords)}
    assert g.add(index[1, 2], index[1, 2]) == index[0, 1]
    assert g.neg(index[1, 1]) == index[1, 2]
    assert g.sub(index[0, 0], index[1, 1]) == index[1, 2]
    with pytest.raises(ValueError):
        g.check_element(6)


def test_elements_are_indices_in_sorted_residue_order():
    # every cyclic group and product of order <= 16, Z4xZ2 and Z2xZ2xZ2 among them
    orders = {group.orders for group in small_groups(16)}
    assert {(n,) for n in range(2, 17)} | {(2, 2), (4, 2), (2, 3), (2, 2, 2)} <= orders
    for group in small_groups(16):
        assert group.elements() == range(group.size)
        assert group.zero == 0
        assert list(group.coords) == residue_tuples(group.orders)


def test_arithmetic_on_indices_matches_the_residue_reference():
    for group in small_groups(16):
        orders, coords, ring = group.orders, group.coords, group.ring
        index = {c: x for x, c in enumerate(coords)}
        for x in group.elements():
            assert group.neg(x) == index[residue_neg(orders, coords[x])]
            assert group.gauss_g(x) == ring.root(residue_gauss_exponent(orders, coords[x]))
            for y in group.elements():
                a, b = coords[x], coords[y]
                assert group.add(x, y) == index[residue_add(orders, a, b)]
                assert group.sub(x, y) == index[residue_sub(orders, a, b)]
                assert group.chi_exponent(x, y) == residue_chi_exponent(orders, a, b)


def test_format_prints_dotted_residues():
    group = parse_group("Z4xZ2")
    assert [group.format(x) for x in group.elements()] == [
        "0.0", "0.1", "1.0", "1.1", "2.0", "2.1", "3.0", "3.1"
    ]
    assert parse_group("Z5").format(3) == "3"


@pytest.mark.parametrize("bad", [True, False, (0,), (1, 0), -1, 4, 1.0, "1", None])
def test_only_an_int_index_is_an_element(bad):
    group = parse_group("Z2xZ2")
    for x in group.elements():
        group.check_element(x)
    message = re.escape(f"{bad!r} is not an element of Z2xZ2")
    calls = [
        group.check_element,
        lambda x: group.chi(x, 0),
        lambda x: group.chi(0, x),
        group.gauss_g,
        group.delta,
        group.neg,
        lambda x: group.add(x, 0),
        lambda x: group.add(0, x),
        lambda x: group.sub(x, 0),
        lambda x: group.sub(0, x),
        lambda x: group.chi_exponent(x, 0),
        lambda x: group.chi_exponent(0, x),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=message):
            call(bad)


@pytest.mark.parametrize("bad", [-1, -4, 4])
def test_arithmetic_refuses_an_index_outside_the_group(bad):
    # a negative index used to wrap through the residue table: on Z4,
    # add(-1, 0) read 3 and chi_exponent(-1, 1) read 6
    group = parse_group("Z4")
    message = re.escape(f"{bad} is not an element of Z4")
    for call in (group.add, group.sub, group.chi_exponent, group.chi):
        with pytest.raises(ValueError, match=message):
            call(bad, 1)
        with pytest.raises(ValueError, match=message):
            call(1, bad)
    with pytest.raises(ValueError, match=message):
        group.neg(bad)


def test_parse_group_literals():
    assert parse_group("Z2").orders == (2,)
    assert parse_group("Z2xZ2").orders == (2, 2)
    assert parse_group("Z4xZ3").orders == (4, 3)
    assert parse_group("Z4xZ3").literal == "Z4xZ3"
    with pytest.raises(ValueError):
        parse_group("Q8")
    for text in ("Z0xZ2", "Z²", "Z-3"):  # each factor Zn needs decimal digits, n >= 1
        with pytest.raises(ValueError, match=f"bad group literal '{text}'"):
            parse_group(text)
    with pytest.raises(ValueError):
        parse_group("Z1")


def test_parse_orders_strips_whitespace_for_every_caller():
    assert groups.parse_orders(" Z4xZ3\n", 16) == (4, 3)
    assert parse_group("\tZ2xZ2 ").literal == "Z2xZ2"
    with pytest.raises(ValueError, match="bad group literal 'Z 3'"):
        groups.parse_orders(" Z 3 ", 16)


def test_oversized_group_literals_are_refused_before_their_ring(monkeypatch):
    monkeypatch.setattr(groups, "get_ring", lambda *args: pytest.fail("built a ring"))
    with pytest.raises(ValueError, match="group Z100000000 has order 100000000, over the limit of 1024"):
        parse_group("Z100000000")
    with pytest.raises(ValueError, match="group Z1000xZ999 has order 999000, over the limit of 1024"):
        parse_group("Z1000xZ999")
    with pytest.raises(pytest.fail.Exception, match="built a ring"):
        parse_group(f"Z{groups.GROUP_ORDER_LIMIT}")


def test_group_order_limit_admits_every_parsed_literal():
    # Z300 (the command-line fuzz lists) is the largest literal parsed anywhere
    assert 300 <= groups.GROUP_ORDER_LIMIT
    assert parse_group("Z300").size == 300
