"""Finite abelian groups with self-duality data: chi, g, delta, measure.

A group is a product of cyclic factors Z/N1 x ... x Z/Nk.  An element is its
index 0 .. |A|-1 in lexicographic residue order (on Z/N, its residue), whose
residues are ``coords[x]``; all structure lives on the group object.  The
self-duality pairing is instantiated componentwise as

    chi(x, y) = prod_i exp(2 pi i (Ni+1) x_i y_i / Ni),

and the Gauss function trivializing its cocycle as

    g(x) = prod_i exp(-pi i (Ni+1) x_i**2 / Ni).

The (Ni+1) twist makes g well defined modulo Ni for even Ni as well; for
odd Ni the pairing reduces to the usual omega**(x*y).  Both land in the
ring of 2L-th roots of unity with L = lcm(Ni), so every value is exact.

The Haar measure is normalized self-dually: summation carries the weight
c = r**-1 with r**2 = |A|, and delta(0) = r, so that integrating delta
gives 1 and integrating a character gives delta.
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import reduce

from .scalars import Scalar, ScalarRing, get_ring

GroupElement = int


class FinAbGroup:
    def __init__(self, orders):
        orders = tuple(int(n) for n in orders)
        if not orders or any(n < 2 for n in orders):
            raise ValueError("cyclic orders must all be >= 2")
        self.orders = orders
        self.lcm_order = reduce(math.lcm, orders)
        self.size = math.prod(orders)
        self.ring: ScalarRing = get_ring(self.lcm_order, self.size)
        self.zero: GroupElement = 0
        self.coords = tuple(itertools.product(*(range(n) for n in orders)))

    @property
    def literal(self) -> str:
        return "x".join(f"Z{n}" for n in self.orders)

    def __repr__(self):
        return f"FinAbGroup({self.literal})"

    def __eq__(self, other):
        return isinstance(other, FinAbGroup) and self.orders == other.orders

    def __hash__(self):
        return hash(self.orders)

    def elements(self):
        """All elements, in index order."""
        return range(self.size)

    def format(self, x: GroupElement) -> str:
        """The residues of x joined by dots, e.g. "1.0" in Z2xZ2."""
        return ".".join(map(str, self.coords[x]))

    def check_element(self, x: GroupElement):
        if type(x) is not int or not 0 <= x < self.size:
            raise ValueError(f"{x!r} is not an element of {self.literal}")

    def _index(self, residues) -> GroupElement:
        """The element with these residues, each reduced by its order."""
        x = 0
        for a, n in zip(residues, self.orders):
            x = x * n + a % n
        return x

    def _residues(self, x: GroupElement):
        """The residues of x, refusing a non-element as check_element does
        (a negative index would otherwise wrap through ``coords``)."""
        self.check_element(x)
        return self.coords[x]

    def add(self, x: GroupElement, y: GroupElement) -> GroupElement:
        return self._index(map(operator.add, self._residues(x), self._residues(y)))

    def neg(self, x: GroupElement) -> GroupElement:
        return self._index(map(operator.neg, self._residues(x)))

    def sub(self, x: GroupElement, y: GroupElement) -> GroupElement:
        return self._index(map(operator.sub, self._residues(x), self._residues(y)))

    def chi(self, x: GroupElement, y: GroupElement) -> Scalar:
        """The self-dual pairing, a symmetric bicharacter."""
        return self.ring.root(self.chi_exponent(x, y))

    def chi_exponent(self, x: GroupElement, y: GroupElement) -> int:
        """Exponent of chi(x, y) in units of the primitive 2L-th root."""
        x, y = self._residues(x), self._residues(y)
        two_l = 2 * self.lcm_order
        e = 0
        for xi, yi, n in zip(x, y, self.orders):
            e += (two_l // n) * (n + 1) * xi * yi
        return e % two_l

    def gauss_g(self, x: GroupElement) -> Scalar:
        """Unit-modulus even function with g(x)g(y) = chi(x,y) g(x+y)."""
        two_l = 2 * self.lcm_order
        e = 0
        for xi, n in zip(self._residues(x), self.orders):
            e -= (self.lcm_order // n) * (n + 1) * xi * xi
        return self.ring.root(e % two_l)

    def delta(self, x: GroupElement) -> Scalar:
        """Normalized point mass: r at the identity, zero elsewhere."""
        self.check_element(x)
        return self.ring.radical() if x == self.zero else self.ring.zero


# A group builds its scalar ring at once, and the ring's root table holds
# 2L x phi(2L) integers for the lcm L of the cyclic orders, so a literal is
# refused above this order before anything is built.  Z300, the largest
# literal parsed anywhere (in the command-line fuzz lists), passes.
GROUP_ORDER_LIMIT = 1 << 10


def parse_orders(text: str, limit: int) -> tuple[int, ...]:
    """The cyclic orders of a literal like "Z2", "Z2xZ2" or "Z4xZ3", read
    with surrounding whitespace stripped.

    Raises ValueError, before anything is built, for text outside that
    grammar (a factor Zn needs n >= 1) or a group order above limit.
    """
    text, orders = text.strip(), []
    for part in text.split("x"):
        if not part.startswith("Z") or not part[1:].isdecimal() or int(part[1:]) < 1:
            raise ValueError(f"bad group literal {text!r}")
        orders.append(int(part[1:]))
    order = math.prod(orders)
    if order > limit:
        raise ValueError(f"group {text} has order {order}, over the limit of {limit}")
    return tuple(orders)


def parse_group(text: str) -> FinAbGroup:
    """Parse literals like "Z2", "Z2xZ2", "Z4xZ3", up to GROUP_ORDER_LIMIT."""
    return FinAbGroup(parse_orders(text, GROUP_ORDER_LIMIT))
