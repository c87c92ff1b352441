"""Scalar rings: exact cyclotomic integers with a formal radical, and floats.

Every exact tensor entry in this package lives in the ring

    Z[z] / Phi_2L(z),  extended by a formal r with  r**2 = N,

where L is the lcm of the cyclic orders of the ambient group and N is the
group order.  Reduction modulo the cyclotomic polynomial makes equality of
cyclotomic parts decidable without numerics.  The radical stays formal,
graded by an integer exponent; the relation r**2 = N only merges exponents
of equal parity, which the canonical form applies eagerly.  Comparisons
across the two parity classes are reported as indeterminate rather than
resolved numerically, since sqrt(N) may or may not lie in the cyclotomic
ring (Gauss sums), and no check in this package needs that resolution.

``ComplexRing`` is the float cross-check backend: complex numbers with
r = sqrt(N) behind the same interface, compared at a relative tolerance.
"""

from __future__ import annotations

import cmath
import enum
from dataclasses import dataclass
from functools import lru_cache


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return tuple(out)


def _poly_divmod(num, den):
    """Exact division of integer polynomials; den must be monic."""
    if den[-1] != 1:
        raise ValueError("divisor must be monic")
    num = list(num)
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    dd = len(den) - 1
    if len(num) - 1 < dd:
        return (0,), tuple(num)
    quot = [0] * (len(num) - dd)
    for i in range(len(num) - dd - 1, -1, -1):
        c = num[i + dd]
        quot[i] = c
        if c:
            for j in range(dd + 1):
                num[i + j] -= c * den[j]
    rem = tuple(num[:dd]) if dd else (0,)
    return tuple(quot), rem


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, constant term first.

    Computed by exact division of x**n - 1 by the product of all proper
    lower cyclotomic polynomials.
    """
    if n < 1:
        raise ValueError("order must be positive")
    if n == 1:
        return (-1, 1)
    num = [0] * (n + 1)
    num[0], num[n] = -1, 1
    den = (1,)
    for d in range(1, n):
        if n % d == 0:
            den = _poly_mul(den, cyclotomic_polynomial(d))
    quot, rem = _poly_divmod(tuple(num), den)
    if any(rem):
        raise ArithmeticError("cyclotomic division left a remainder")
    return quot


class Comparison(enum.Enum):
    EQUAL = "equal"
    UNEQUAL = "unequal"
    INDETERMINATE = "indeterminate"


class ScalarRing:
    """Arithmetic context for a fixed lcm order L and group order N.

    Scalars from rings with different (L, N) parameters refuse to mix.
    For N = 1 the radical is 1 and the grading collapses entirely.
    """

    name = "exact"

    def __init__(self, lcm_order: int, group_order: int):
        if lcm_order < 1:
            raise ValueError("lcm order must be >= 1")
        if group_order < 1:
            raise ValueError("group order must be >= 1")
        self.lcm_order = lcm_order
        self.root_order = 2 * lcm_order
        self.group_order = group_order
        self.modulus = cyclotomic_polynomial(self.root_order)
        self.degree = len(self.modulus) - 1
        self._powers = self._build_powers()
        # conjugation sends z^j to z^(2L-j)
        self._conj = tuple(
            self._powers[(-j) % self.root_order] for j in range(self.degree)
        )
        self.zero = Scalar(self, {})
        self.one = self.integer(1)

    def _build_powers(self):
        deg = self.degree
        powers = []
        vec = [0] * deg
        vec[0] = 1
        for _ in range(self.root_order):
            powers.append(tuple(vec))
            spill = vec[deg - 1]
            vec = [0] + vec[: deg - 1]
            if spill:
                for i in range(deg):
                    vec[i] -= spill * self.modulus[i]
        if tuple(vec) != powers[0]:
            raise ArithmeticError("root power table failed to close")
        return tuple(powers)

    @property
    def params(self):
        return (self.lcm_order, self.group_order)

    def __eq__(self, other):
        return isinstance(other, ScalarRing) and self.params == other.params

    def __hash__(self):
        return hash(self.params)

    def __repr__(self):
        return f"ScalarRing(L={self.lcm_order}, N={self.group_order})"

    def _reduce(self, poly):
        """Reduce a raw coefficient sequence modulo the cyclotomic polynomial."""
        if len(poly) <= self.degree:
            return tuple(poly) + (0,) * (self.degree - len(poly))
        _, rem = _poly_divmod(tuple(poly), self.modulus)
        return tuple(rem) + (0,) * (self.degree - len(rem))

    def _canonical(self, terms):
        """Merge radical exponents of equal parity and raise maximally.

        Within one parity class every exponent is equivalent via r**2 = N,
        so all terms are first expressed at the least exponent present and
        then the exponent is raised while every coefficient divides by N.
        The result is one term per parity with coefficients not all
        divisible by N, which is a unique normal form.
        """
        n = self.group_order
        if n == 1:
            acc = [0] * self.degree
            for vec in terms.values():
                for i, v in enumerate(vec):
                    acc[i] += v
            return {0: tuple(acc)} if any(acc) else {}
        out = {}
        for parity in (0, 1):
            exps = [e for e, v in terms.items() if e % 2 == parity and any(v)]
            if not exps:
                continue
            base = min(exps)
            acc = [0] * self.degree
            for e in exps:
                scale = n ** ((e - base) // 2)
                vec = terms[e]
                for i in range(self.degree):
                    acc[i] += vec[i] * scale
            if not any(acc):
                continue
            while all(c % n == 0 for c in acc):
                acc = [c // n for c in acc]
                base += 2
            out[base] = tuple(acc)
        return out

    def scalar(self, terms) -> "Scalar":
        """Build a scalar from a map of radical exponent to coefficient vector."""
        reduced = {e: self._reduce(v) for e, v in terms.items()}
        return Scalar(self, self._canonical(reduced))

    def integer(self, value: int) -> "Scalar":
        return self.scalar({0: (value,)})

    def root(self, k: int) -> "Scalar":
        """The exact root of unity z**k with z = exp(pi*i/L)."""
        return self.scalar({0: self._powers[k % self.root_order]})

    def radical(self, exponent: int = 1) -> "Scalar":
        """The formal radical power r**exponent, r**2 = N."""
        return self.scalar({exponent: (1,)})

    def conj(self, v: "Scalar") -> "Scalar":
        return v.conj()

    def render(self, v: "Scalar") -> str:
        return v.render()

    def compare(self, a: "Scalar", b: "Scalar", rel: float = 1e-9) -> "Comparison":
        """Exact three-valued comparison; rel is unused."""
        return compare(a, b)

    def parse(self, text: str) -> "Scalar":
        """Parse the rendering grammar "a0 + a1·z^1 + ... [· r^k]"."""
        text = text.strip()
        if text == "0":
            return self.zero
        terms: dict[int, list[int]] = {}
        current: list[int] = [0] * self.degree
        seen_any = False
        for token in text.split(" + "):
            token = token.strip()
            rexp = None
            if "· r^" in token:
                token, _, tail = token.partition("· r^")
                rexp = int(tail)
                token = token.strip()
            if "·z^" in token:
                coeff_s, _, power_s = token.partition("·z^")
                coeff, power = int(coeff_s), int(power_s)
            else:
                coeff, power = int(token), 0
            if not 0 <= power < self.degree:
                raise ValueError(f"z power {power} out of canonical range")
            current[power] += coeff
            seen_any = True
            if rexp is not None:
                acc = terms.setdefault(rexp, [0] * self.degree)
                for i, v in enumerate(current):
                    acc[i] += v
                current = [0] * self.degree
                seen_any = False
        if seen_any or any(current):
            acc = terms.setdefault(0, [0] * self.degree)
            for i, v in enumerate(current):
                acc[i] += v
        return self.scalar({e: tuple(v) for e, v in terms.items()})


@lru_cache(maxsize=None)
def get_ring(lcm_order: int, group_order: int) -> ScalarRing:
    return ScalarRing(lcm_order, group_order)


class Scalar:
    """Immutable element of a ScalarRing in canonical form.

    ``==`` compares canonical forms, which decides equality whenever both
    operands live in a single radical parity class; use :func:`compare`
    for the three-valued semantic comparison.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring: ScalarRing, terms: dict):
        self.ring = ring
        self.terms = terms

    def _coerce(self, other):
        if isinstance(other, int):
            return self.ring.integer(other)
        if isinstance(other, Scalar):
            if other.ring.params != self.ring.params:
                raise ValueError(
                    f"cannot mix scalars from {self.ring!r} and {other.ring!r}"
                )
            return other
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        merged: dict[int, list[int]] = {}
        for src in (self.terms, other.terms):
            for e, vec in src.items():
                acc = merged.setdefault(e, [0] * self.ring.degree)
                for i, v in enumerate(vec):
                    acc[i] += v
        return Scalar(self.ring, self.ring._canonical(merged))

    __radd__ = __add__

    def __neg__(self):
        return Scalar(
            self.ring,
            {e: tuple(-c for c in vec) for e, vec in self.terms.items()},
        )

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out: dict[int, list[int]] = {}
        for e1, v1 in self.terms.items():
            for e2, v2 in other.terms.items():
                prod = self.ring._reduce(_poly_mul(v1, v2))
                acc = out.setdefault(e1 + e2, [0] * self.ring.degree)
                for i, v in enumerate(prod):
                    acc[i] += v
        return Scalar(self.ring, self.ring._canonical(out))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative scalar powers are not defined")
        out = self.ring.one
        for _ in range(n):
            out = out * self
        return out

    def conj(self) -> "Scalar":
        """Complex conjugation: z to z^(2L-1) componentwise, r fixed."""
        out: dict[int, list[int]] = {}
        for e, vec in self.terms.items():
            acc = out.setdefault(e, [0] * self.ring.degree)
            for j, c in enumerate(vec):
                if c:
                    basis = self.ring._conj[j]
                    for i in range(self.ring.degree):
                        acc[i] += c * basis[i]
        return Scalar(self.ring, self.ring._canonical(out))

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ring.integer(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.ring.params == other.ring.params and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring.params, tuple(sorted(self.terms.items()))))

    def __bool__(self):
        return bool(self.terms)

    def to_complex(self) -> complex:
        """Numerical value with z = exp(pi*i/L) and r = sqrt(N)."""
        total = 0j
        rt = self.ring.group_order ** 0.5
        for e, vec in self.terms.items():
            part = 0j
            for j, c in enumerate(vec):
                if c:
                    part += c * cmath.exp(2j * cmath.pi * j / self.ring.root_order)
            total += part * rt**e
        return total

    def render(self) -> str:
        """Deterministic textual form, one graded part per radical parity.

        The part without a radical marker, if any, is rendered last; a
        "· r^k" token always terminates its part, which keeps the grammar
        unambiguous when both parities are present.
        """
        if not self.terms:
            return "0"
        chunks = []
        for e in sorted(self.terms, key=lambda e: (e == 0, e)):
            vec = self.terms[e]
            parts = []
            for j, c in enumerate(vec):
                if c == 0:
                    continue
                parts.append(str(c) if j == 0 else f"{c}·z^{j}")
            body = " + ".join(parts)
            if e != 0:
                body += f" · r^{e}"
            chunks.append(body)
        return " + ".join(chunks)

    def __repr__(self):
        return f"<Scalar {self.render()}>"


def compare(a: Scalar, b: Scalar) -> Comparison:
    """Three-valued comparison.

    A difference confined to one radical parity class embeds injectively
    into the complex numbers, so a nonzero such difference is a genuine
    inequality.  A difference straddling both parities is reported as
    indeterminate, never as inequality.
    """
    diff = a - b
    if not diff.terms:
        return Comparison.EQUAL
    if len({e % 2 for e in diff.terms}) == 1:
        return Comparison.UNEQUAL
    return Comparison.INDETERMINATE


def approx_equal(x: complex, y: complex, rel: float = 1e-9) -> bool:
    scale = max(abs(x), abs(y), 1.0)
    return abs(x - y) <= rel * scale


@dataclass(frozen=True)
class ComplexRing:
    """Complex floats with r = sqrt(N): the float backend's ring.

    It has ScalarRing's interface, so tensors and checkers run one code
    path on either backend.  Comparison is approx_equal at relative
    tolerance rel, so it is never INDETERMINATE.
    """

    group_order: int
    name = "float"
    zero = 0j
    one = 1 + 0j

    def radical(self, exponent: int = 1) -> complex:
        return complex(self.group_order ** (0.5 * exponent))

    def conj(self, v: complex) -> complex:
        return v.conjugate()

    def render(self, v: complex) -> str:
        return format(v, ".12g")

    def compare(self, a: complex, b: complex, rel: float = 1e-9) -> Comparison:
        return Comparison.EQUAL if approx_equal(a, b, rel) else Comparison.UNEQUAL
