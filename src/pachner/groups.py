"""Finite abelian groups with self-duality data: chi, g, delta, measure.

A group is a product of cyclic factors Z/N1 x ... x Z/Nk.  Elements are
plain tuples of residues; all structure lives on the group object.  The
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
from functools import reduce

from .scalars import Scalar, ScalarRing, get_ring

GroupElement = tuple[int, ...]


class FinAbGroup:
    def __init__(self, orders):
        orders = tuple(int(n) for n in orders)
        if not orders or any(n < 2 for n in orders):
            raise ValueError("cyclic orders must all be >= 2")
        self.orders = orders
        self.lcm_order = reduce(math.lcm, orders)
        self.size = math.prod(orders)
        self.ring: ScalarRing = get_ring(self.lcm_order, self.size)
        self.zero: GroupElement = (0,) * len(orders)

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
        """All elements in lexicographic order."""
        return itertools.product(*(range(n) for n in self.orders))

    def check_element(self, x: GroupElement):
        if len(x) != len(self.orders) or any(
            not 0 <= xi < n for xi, n in zip(x, self.orders)
        ):
            raise ValueError(f"{x} is not an element of {self.literal}")

    def add(self, x: GroupElement, y: GroupElement) -> GroupElement:
        return tuple((a + b) % n for a, b, n in zip(x, y, self.orders))

    def neg(self, x: GroupElement) -> GroupElement:
        return tuple((-a) % n for a, n in zip(x, self.orders))

    def sub(self, x: GroupElement, y: GroupElement) -> GroupElement:
        return tuple((a - b) % n for a, b, n in zip(x, y, self.orders))

    def chi(self, x: GroupElement, y: GroupElement) -> Scalar:
        """The self-dual pairing, a symmetric bicharacter."""
        self.check_element(x)
        self.check_element(y)
        return self.ring.root(self.chi_exponent(x, y))

    def chi_exponent(self, x: GroupElement, y: GroupElement) -> int:
        """Exponent of chi(x, y) in units of the primitive 2L-th root."""
        two_l = 2 * self.lcm_order
        e = 0
        for xi, yi, n in zip(x, y, self.orders):
            e += (two_l // n) * (n + 1) * xi * yi
        return e % two_l

    def gauss_g(self, x: GroupElement) -> Scalar:
        """Unit-modulus even function with g(x)g(y) = chi(x,y) g(x+y)."""
        self.check_element(x)
        two_l = 2 * self.lcm_order
        e = 0
        for xi, n in zip(x, self.orders):
            e -= (self.lcm_order // n) * (n + 1) * xi * xi
        return self.ring.root(e % two_l)

    def delta(self, x: GroupElement) -> Scalar:
        """Normalized point mass: r at the identity, zero elsewhere."""
        return self.ring.radical() if x == self.zero else self.ring.zero

    def integrate(self, f) -> Scalar:
        """Haar integral: the weight c = r**-1 times the plain sum."""
        total = self.ring.zero
        for x in self.elements():
            total = total + f(x)
        return self.ring.radical(-1) * total


def parse_group(text: str) -> FinAbGroup:
    """Parse literals like "Z2", "Z2xZ2", "Z4xZ3"."""
    text = text.strip()
    parts = text.split("x")
    orders = []
    for part in parts:
        if not part.startswith("Z") or not part[1:].isdigit():
            raise ValueError(f"bad group literal {text!r}")
        orders.append(int(part[1:]))
    return FinAbGroup(orders)
