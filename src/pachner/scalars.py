"""Scalar rings: exact cyclotomic integers with a formal radical, and floats.

Every exact tensor entry in this package lives in the ring

    Z[z] / Phi_2L(z),  extended by a formal r with  r**2 = N,

where L is the lcm of the cyclic orders of the ambient group and N is the
group order.  Reduction modulo the cyclotomic polynomial makes equality of
cyclotomic parts decidable without numerics.  The radical stays formal,
graded by an integer exponent; the relation r**2 = N only merges exponents
of equal parity, which the canonical form applies eagerly.  A difference
across the two parity classes is unequal when its squared parts differ
and is otherwise reported as indeterminate rather than resolved
numerically, since sqrt(N) may or may not lie in the cyclotomic ring
(Gauss sums), and no check in this package needs that resolution.

Multiplying by a bare radical power r**e (one term, unit coefficient
vector) is an exponent shift: every term of the other factor moves from
r**k to r**(k+e) with its coefficients untouched.  The normal form asks
only that each parity keep one term whose coefficients are not all
divisible by N, a condition independent of the exponent, so the shifted
scalar is already canonical and skips the cyclotomic product.  Measure
weights r**-k (which ``ScalarRing.join`` applies once per distinct value
of the smaller operand of a contraction), identity-wire entries r and
sigma entries r**2 all take this path.

Every exact sum, ``+`` included, is ``ScalarRing.sum``: coefficient
vectors added per radical exponent and put in canonical form once.

A tensor of the finite abelian model holds many entries but few distinct
values (character values times powers of r), so each ring hash-conses its
scalars: every value the package builds is looked up by its terms in item
order, and a value the ring already holds is returned as that object.
Equal values of one ring are then one object, down to the order of their
terms, and the ring memoises its arithmetic on object identity: a
product (a radical shift is the product by the interned r**e), the
canonical sum and the conjugate each run once per distinct operands for
the life of the ring's tables.  Each identity-keyed entry holds its
operands, so no id is reused while its entry lives.  ``radical(e)`` and
``root(k)`` each intern their one term, which is canonical as it stands,
so a ring keeps four tables: values, products, sums and conjugates.
The tables are bounded: an insertion into a table that holds
``SCALAR_TABLE_LIMIT`` entries first drops all of them together.
A value built after a drop may then be a second object equal to a live
one; identity still implies equality, so every result stays the same,
down to the order of its terms.

``ScalarRing.join`` classes each operand's entries by object identity,
multiplies once per distinct pair of classes, and adds the products
colliding on a key once per distinct multiset of such pairs; the
arithmetic behind those calls comes from the ring's tables after its
first run.  ``ScalarRing.compare_entries`` skips a key whose two values
are one object, which hash-consing makes equal, and compares the other
keys' values once per distinct pair of value objects.  Each ring's
``compare_entries`` returns, for each failing verdict, its least key
with both values there, so a caller reports without looking keys up.

Both rings' joins write a result entry once, already weighted, when one
pair of entries meets its key.  A key of the first operand splits into
its bound part and its head (its free slots); a head that occurs under
one bound meets one bucket of the second operand, so every key built
from it has one term.  The abelian solution's Q is such an operand: its
outputs (x, y, z) fix its inputs (x + y, y + z), so the relation checks
compose Q onto a side without summing.  Only the keys under a head that
occurs under several bounds, the usual case in a state sum, accumulate.

``ComplexRing`` is the float cross-check backend: complex numbers with
r = sqrt(N) behind the same interface, compared at a relative tolerance,
FLOAT_REL unless a caller names another.  A ring holds its tensors'
entries in its own format (``hold``): the exact ring the dict itself,
the float ring ``_FloatEntries``, int64 key codes, a key's elements read
as base-|V| digits, beside complex128 values, in numpy arrays.  Its join
merges the codes of whole operands and gives the dict join's keys, key
order and float bits; its comparison argsorts each side's codes once and
lines the sides up on the sorted union of their codes.  numpy is
imported on first float use, so exact runs never load it.
"""

from __future__ import annotations

import cmath
import enum
from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress, repeat
from operator import add, is_not, itemgetter

# The most entries one of a ring's arithmetic tables holds; an insertion
# into a full table first drops all of the ring's tables.
SCALAR_TABLE_LIMIT = 1 << 14

# The float cross-check's one tolerance: every float comparison's default,
# the dense oracle's rtol and atol, and a float invariance run's threshold.
FLOAT_REL = 1e-9


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return tuple(out)


def _picker(slots):
    """Tuple -> the tuple of its items at slots, for any slot count.

    A run of consecutive slots (empty and single slots included) is read
    as a slice, which itemgetter(*slots) cannot express for fewer than two.
    """
    slots = tuple(slots)
    lo = slots[0] if slots else 0
    if slots == tuple(range(lo, lo + len(slots))):
        return itemgetter(slice(lo, lo + len(slots)))
    return itemgetter(*slots)


def _buckets(entries, bound, rest):
    """The hash side of a join: bound part of each key -> [(tail, value)],
    where tail is the rest of the key."""
    buckets = {}
    for key, val in entries.items():
        buckets.setdefault(bound(key), []).append((rest(key), val))
    return buckets


def _ambiguous(heads):
    """The heads that occur more than once in a join's first operand.

    Its entry keys split into (bound, head), so a head that occurs once
    comes with one bound, hence one bucket of the other operand, whose
    keys differ in their tails: every result key head + tail (in any slot
    order) is met by exactly one pair of entries.
    """
    seen, repeated = set(), set()
    for head in heads:
        if head in seen:
            repeated.add(head)
        else:
            seen.add(head)
    return repeated


def _aligned(entries1, entries2, zero):
    """The union of two entry dicts' keys (entries1's in order, then those
    only entries2 holds) and each dict's values over it, zero where it
    has no entry.

    Each key of entries1 is looked up in entries2 once; the keys only
    entries2 holds are searched for only when the lookups found fewer
    than all of its entries.  No entry holds None, and the misses are
    counted by identity, so no value's ``__eq__`` runs.
    """
    keys, values1 = list(entries1), list(entries1.values())
    values2 = list(map(entries2.get, keys, repeat(None)))
    missing = sum(1 for v in values2 if v is None)
    if missing:
        values2 = [zero if v is None else v for v in values2]
    if len(keys) - missing < len(entries2):
        extra = [key for key in entries2 if key not in entries1]
        keys += extra
        values1 += repeat(zero, len(extra))
        values2 += map(entries2.__getitem__, extra)
    return keys, values1, values2


def _classes(entries):
    """Class ids of an operand's entries, one per distinct value object,
    and one representative per class.

    An entry dict keeps its values alive, so an ``id`` names one object
    for the whole join, and hash-consing makes equal values of one ring
    one object.
    """
    by_id, reps, classes = {}, [], {}
    for key, v in entries.items():
        c = by_id.get(id(v))
        if c is None:
            c = by_id[id(v)] = len(reps)
            reps.append(v)
        classes[key] = c
    return classes, reps


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

    @property
    def verdict(self) -> str:
        """The report verdict: "pass", "fail" or "indeterminate"."""
        if self is Comparison.EQUAL:
            return "pass"
        return "fail" if self is Comparison.UNEQUAL else "indeterminate"


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
        # the coefficient vector of a bare radical power r**e
        self._unit = (1,) + (0,) * (self.degree - 1)
        self.zero = Scalar(self, {})
        self.one = Scalar(self, {0: self._unit})
        # the hash-consing table, terms in item order -> Scalar, and the
        # identity-keyed memo tables, each entry holding its operands
        self._values = {}
        self._products = {}  # (id a, id b) -> (a, b, a * b)
        self._sums = {}  # ids of the summands -> (summands, their sum)
        self._conjugates = {}  # id v -> (v, its conjugate)
        self._drop_tables()

    def _drop_tables(self):
        """Empty every table at once, keeping zero and one interned."""
        for table in (self._values, self._products, self._sums, self._conjugates):
            table.clear()
        self._values[()] = self.zero
        self._values[((0, self._unit),)] = self.one

    def _room(self, table):
        """Make room for one insertion into ``table``, before the value to
        insert is built: at the limit, drop all of the ring's tables
        together."""
        if len(table) >= SCALAR_TABLE_LIMIT:
            self._drop_tables()

    def _intern(self, terms) -> "Scalar":
        """The ring's one Scalar with these canonical terms, in this item
        order."""
        key = tuple(terms.items())
        v = self._values.get(key)
        if v is None:
            self._room(self._values)
            v = self._values[key] = Scalar(self, terms)
        return v

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
        return self._intern(self._canonical(reduced))

    def integer(self, value: int) -> "Scalar":
        return self.scalar({0: (value,)})

    def root(self, k: int) -> "Scalar":
        """The exact root of unity z**k with z = exp(pi*i/L).

        Its one term, the reduced power z**k, is canonical as it stands:
        z**k is a unit, so no N > 1 divides all of its coefficients.
        """
        return self._intern({0: self._powers[k % self.root_order]})

    def radical(self, exponent: int = 1) -> "Scalar":
        """The formal radical power r**exponent, r**2 = N.

        Its one term, the unit vector, is canonical as it stands (no
        coefficient divides by N > 1); for N = 1 it is the ring's one.
        """
        return self._intern({exponent if self.group_order > 1 else 0: self._unit})

    def conj(self, v: "Scalar") -> "Scalar":
        return v.conj()

    def hold(self, entries: dict, radix: int, arity: int) -> dict:
        """A dict of entries that fit, as this ring's tensors hold them:
        the dict itself."""
        return entries

    def join(self, entries1, s1, free1, entries2, s2, free2, k, order=None):
        """Sum v1 * v2 * r**-k per key rest1(k1) + rest2(k2), put in slot
        order by ``pick`` when an ``order`` is given, over all entry pairs
        with bound1(k1) == bound2(k2); zero sums are dropped.  bound1,
        rest1, bound2, rest2 and pick are the ``_picker``s of the slot
        tuples s1, free1, s2, free2 and order.

        Each operand's entries fall into value classes, one per distinct
        value object (see ``_classes``).  The weight is one exponent shift
        (r**-k is a single term with the unit vector; for N = 1 its
        exponent is 0), looked up once and multiplied onto each distinct
        value of the operand with fewer entries.  Each distinct class pair
        is multiplied once.

        A key whose head rest1(k1) is unambiguous (see ``_ambiguous``) is
        met by one pair, so it is written once, with that pair's product.
        The keys under an ambiguous head collect their class pairs in a
        list; a key met by one pair keeps that product, and the products
        colliding on a key are added by ``sum`` once per distinct multiset
        of pairs.  These keys are resolved in place, so every key keeps the
        position of its first pair, as in the entry-by-entry join.  The
        normal form is unique and ``_canonical`` orders its output by
        parity, so every value, down to the order of its terms, equals the
        entry-by-entry sum.  Equal entries may share one Scalar.
        """
        bound1, rest1, bound2, rest2 = map(_picker, (s1, free1, s2, free2))
        pick = None if order is None else _picker(order)
        classes1, reps1 = _classes(entries1)
        classes2, reps2 = _classes(entries2)
        power = self.radical(-k)
        (shift,) = power.terms
        if shift and len(entries1) <= len(entries2):
            reps1 = [v * power for v in reps1]
        elif shift:
            reps2 = [v * power for v in reps2]
        # a class pair (c1, c2) is the slot c1 * n2 + c2
        n2 = len(reps2)
        products = {}

        def product(pair):
            val = products.get(pair)
            if val is None:
                val = products[pair] = reps1[pair // n2] * reps2[pair % n2]
            return val

        buckets = _buckets(classes2, bound2, rest2)
        heads = list(map(rest1, classes1))
        ambiguous = _ambiguous(heads)
        out, pending = {}, []
        accumulated = out.get
        for (k1, c1), head in zip(classes1.items(), heads):
            base = c1 * n2
            bucket = buckets.get(bound1(k1), ())
            if head in ambiguous:
                for tail, c2 in bucket:
                    key = pick(head + tail) if pick else head + tail
                    pairs = accumulated(key)
                    if pairs is None:
                        out[key] = pairs = []
                        pending.append((key, pairs))
                    pairs.append(base + c2)
            else:
                for tail, c2 in bucket:
                    val = products.get(base + c2)
                    if val is None:
                        val = product(base + c2)
                    if val.terms:
                        out[pick(head + tail) if pick else head + tail] = val
        sums = {}
        for key, pairs in pending:
            if len(pairs) > 1:
                multiset = tuple(sorted(pairs))
                val = sums.get(multiset)
                if val is None:
                    val = sums[multiset] = self.sum(map(product, multiset))
            else:
                val = product(pairs[0])
            if val.terms:
                out[key] = val
            else:
                del out[key]
        return out

    def sum(self, values) -> "Scalar":
        """The sum of scalars of this ring: coefficient vectors added per
        radical exponent, then put in canonical form once, memoised on
        the summands' identities.

        Integer sums are order-free and the normal form is unique, so the
        result, down to the order of its terms, equals any sequence of
        pairwise additions.
        """
        values = tuple(values)
        key = tuple(map(id, values))
        hit = self._sums.get(key)
        if hit is not None:
            return hit[1]
        self._room(self._sums)
        merged = {}
        for v in values:
            for e, vec in v.terms.items():
                acc = merged.get(e)
                merged[e] = vec if acc is None else tuple(map(add, acc, vec))
        val = self._intern(self._canonical(merged))
        self._sums[key] = (values, val)
        return val

    def render(self, v: "Scalar") -> str:
        return v.render()

    def compare_entries(self, entries1, entries2, rel=FLOAT_REL):
        """Both entry dicts compared over the union of their keys, a missing
        entry read as zero, with :func:`compare`; rel is unused.

        Returns the keys compared and {verdict: (least key, its value in
        entries1, its value in entries2)} for UNEQUAL and INDETERMINATE,
        each present only when some key has it.  A key whose two values
        are one object is EQUAL, ``compare``'s own first branch, and join
        results and hash-consed values make that the usual case, so only
        the keys holding two distinct objects reach ``compare``, once per
        distinct pair of them: the entry dicts keep their values alive, so
        an id names one value for the whole walk.
        """
        keys, values1, values2 = _aligned(entries1, entries2, self.zero)
        verdicts, least = {}, {}
        equal = Comparison.EQUAL
        distinct = map(is_not, values1, values2)
        for key, v1, v2 in compress(zip(keys, values1, values2), distinct):
            pair = (id(v1), id(v2))
            verdict = verdicts.get(pair)
            if verdict is None:
                verdict = verdicts[pair] = compare(v1, v2)
            if verdict is not equal and (verdict not in least or key < least[verdict][0]):
                least[verdict] = (key, v1, v2)
        return len(keys), least

    def parse(self, text: str) -> "Scalar":
        """Parse the rendering grammar "a0 + a1·z^1 + ... [· r^k]".

        A "· r^k" token ends a part; each part, and the unmarked rest, is
        read as one scalar, and the value is their ScalarRing.sum.
        """
        text = text.strip()
        if text == "0":
            return self.zero
        parts = []
        current = [0] * self.degree
        for token in text.split(" + "):
            token, marked, rexp = token.partition("· r^")
            coeff, pow_mark, power = token.strip().partition("·z^")
            coeff, power = int(coeff), int(power) if pow_mark else 0
            if not 0 <= power < self.degree:
                raise ValueError(f"z power {power} out of canonical range")
            current[power] += coeff
            if marked:
                parts.append(self.scalar({int(rexp): current}))
                current = [0] * self.degree
        parts.append(self.scalar({0: current}))
        return self.sum(parts)


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
        if other.__class__ is Scalar and other.ring is self.ring:
            return other
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
        return self.ring.sum((self, other))

    __radd__ = __add__

    def __neg__(self):
        return self.ring._intern(
            {e: tuple(-c for c in vec) for e, vec in self.terms.items()}
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
        ring = self.ring
        key = (id(self), id(other))
        hit = ring._products.get(key)
        if hit is not None:
            return hit[2]
        ring._room(ring._products)
        val = self._product(other)
        ring._products[key] = (self, other, val)
        return val

    __rmul__ = __mul__

    def _product(self, other) -> "Scalar":
        """self * other, computed without the product table."""
        # a bare radical power is an exponent shift (see the module docstring)
        unit = self.ring._unit
        for power, body in ((other, self), (self, other)):
            if len(power.terms) == 1:
                ((shift, vec),) = power.terms.items()
                if vec == unit:
                    return self.ring._intern({e + shift: v for e, v in body.terms.items()})
        out: dict[int, list[int]] = {}
        for e1, v1 in self.terms.items():
            for e2, v2 in other.terms.items():
                prod = self.ring._reduce(_poly_mul(v1, v2))
                acc = out.setdefault(e1 + e2, [0] * self.ring.degree)
                for i, v in enumerate(prod):
                    acc[i] += v
        return self.ring._intern(self.ring._canonical(out))

    def conj(self) -> "Scalar":
        """Complex conjugation: z to z^(2L-1) componentwise, r fixed."""
        ring = self.ring
        hit = ring._conjugates.get(id(self))
        if hit is not None:
            return hit[1]
        ring._room(ring._conjugates)
        out: dict[int, list[int]] = {}
        for e, vec in self.terms.items():
            acc = out.setdefault(e, [0] * ring.degree)
            for j, c in enumerate(vec):
                if c:
                    basis = ring._conj[j]
                    for i in range(ring.degree):
                        acc[i] += c * basis[i]
        val = ring._intern(ring._canonical(out))
        ring._conjugates[id(self)] = (self, val)
        return val

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
    inequality.  A difference P + Q·r straddling both parities (P even, Q
    odd) can vanish only if P^2 = N·Q^2, an identity between two even
    parts that ``==`` decides; when it fails the difference is unequal,
    and when it holds the comparison is indeterminate, never inequality.
    Canonical forms are unique, so operands of one ring with equal terms
    are EQUAL without the subtraction.
    """
    if (a.ring is b.ring or a.ring == b.ring) and a.terms == b.terms:
        return Comparison.EQUAL
    diff = a - b
    if not diff.terms:
        return Comparison.EQUAL
    if len({e % 2 for e in diff.terms}) == 1:
        return Comparison.UNEQUAL
    even = diff.ring._intern({e: v for e, v in diff.terms.items() if e % 2 == 0})
    odd = diff - even
    if even * even != odd * odd:
        return Comparison.UNEQUAL
    return Comparison.INDETERMINATE


def _check_codes(radix: int, arity: int):
    """Refuse float keys of ``arity`` slots over ``radix`` elements when
    their codes, 0 .. radix**arity - 1, do not all fit an int64.

    No command reaches this: a state-sum step has at most ENTRY_GUARD
    (2**22) possible keys, and every solution tensor lies over at most 16
    elements, so a (3,3) or Yang-Baxter side, of 9 slots, has at most
    16**9.
    """
    if radix**arity >= 1 << 63:
        raise ValueError(
            f"float keys of {arity} slots over {radix} elements take {radix**arity} "
            f"codes, over the {1 << 63} an int64 holds"
        )


class _FloatEntries(Mapping):
    """A float tensor's entries, key -> complex, read-only, held as two
    numpy arrays: ``codes`` (int64) and ``vals`` (complex128).

    A key's code reads its elements as the digits of a base-``radix``
    number, the first slot most significant.  Every element is below the
    radix, so the order of codes is the keys' lexicographic order.  The
    entries stay in the order they were made in.  Tuple keys are built
    only when the mapping is iterated; ``get`` and ``[]`` find one key by
    its code without building the others.
    """

    __slots__ = ("codes", "vals", "radix", "arity")

    def __init__(self, codes, vals, radix: int, arity: int):
        self.codes, self.vals, self.radix, self.arity = codes, vals, radix, arity

    @classmethod
    def from_dict(cls, entries: dict, radix: int, arity: int) -> "_FloatEntries":
        """The coded form of a dict of keys of ``arity`` elements, each in
        range(radix), in the dict's order.  Raises ValueError for an
        element outside that range, or when the codes do not fit an int64
        (see ``_check_codes``), before any array is built."""
        import numpy as np

        _check_codes(radix, arity)
        n = len(entries)
        digits = np.array(list(entries), dtype=np.int64).reshape(n, arity)
        if digits.size and not (digits.min() >= 0 and digits.max() < radix):
            raise ValueError(f"a key element lies outside 0..{radix - 1}")
        codes = digits @ cls._weights(radix, arity)
        return cls(codes, np.fromiter(entries.values(), complex, n), radix, arity)

    @staticmethod
    def _weights(radix: int, arity: int):
        """Each slot's weight in a code: radix**(arity - 1), ..., radix, 1."""
        import numpy as np

        return radix ** np.arange(arity - 1, -1, -1, dtype=np.int64)

    def split(self, bound, free, free_weights):
        """Every entry's bound code, its elements at slots ``bound`` read as
        a code of their own, and its part of a join's result code, its
        elements at slots ``free`` weighted by ``free_weights``."""
        k = len(bound)
        bound_weights = [self.radix ** (k - 1 - m) for m in range(k)]
        return self._part(zip(bound, bound_weights)), self._part(zip(free, free_weights))

    def _part(self, slot_weights):
        """The sum over (slot, weight) pairs of every entry's element at the
        slot times the weight, a power of the radix.

        A run of consecutive slots whose weights fall by the radix is one
        block of digits of the code, read off at once: the code divided
        down to the run's last slot, reduced below the run's first, and
        scaled by the last slot's weight.
        """
        import numpy as np

        radix, arity = self.radix, self.arity
        runs = []  # [first slot, last slot, weight of the last]
        for p, w in slot_weights:
            if runs and p == runs[-1][1] + 1 and w * radix == runs[-1][2]:
                runs[-1][1:] = p, w
            else:
                runs.append([p, p, w])
        total = np.zeros(len(self.codes), np.int64)
        for first, last, w in runs:
            block = self.codes
            if last < arity - 1:
                block = block // radix ** (arity - 1 - last)
            if first > 0:
                block = block % radix ** (last - first + 1)
            total += block * w
        return total

    def _find(self, key):
        """The position of key's entry, None when it has none."""
        import numpy as np

        if not isinstance(key, tuple) or len(key) != self.arity:
            return None
        code = 0
        for x in key:
            if not 0 <= x < self.radix:
                return None
            code = code * self.radix + x
        hit = np.flatnonzero(self.codes == code)
        return int(hit[0]) if len(hit) else None

    def get(self, key, default=None):
        i = self._find(key)
        return default if i is None else self.vals[i].item()

    def __getitem__(self, key):
        i = self._find(key)
        if i is None:
            raise KeyError(key)
        return self.vals[i].item()

    def __len__(self):
        return len(self.codes)

    def __iter__(self):
        return map(tuple, self.digits(self.codes))

    def digits(self, codes) -> list:
        """The keys that an array of codes names, each as a list of its
        elements."""
        return (codes[:, None] // self._weights(self.radix, self.arity) % self.radix).tolist()

    def items(self):
        return zip(self, self.vals.tolist())

    def values(self):
        return iter(self.vals.tolist())


@dataclass(frozen=True)
class ComplexRing:
    """Complex floats with r = sqrt(N): the float backend's ring.

    It has ScalarRing's interface, so tensors and checkers run one code
    path on either backend.  Its tensors hold their entries as
    ``_FloatEntries`` (``hold``), key codes and values in numpy arrays, and
    ``join`` and ``compare_entries`` work on those arrays whole.  numpy is
    imported on first float use, so exact runs never load it.  Comparison
    is at relative tolerance rel, so it is never INDETERMINATE.
    """

    group_order: int
    name = "float"
    zero = 0j
    one = 1 + 0j

    def radical(self, exponent: int = 1) -> complex:
        return complex(self.group_order ** (0.5 * exponent))

    def conj(self, v: complex) -> complex:
        return v.conjugate()

    def hold(self, entries: dict, radix: int, arity: int) -> "_FloatEntries":
        """A dict of entries that fit, as this ring's tensors hold them:
        coded, in the dict's order (``_FloatEntries.from_dict``)."""
        return _FloatEntries.from_dict(entries, radix, arity)

    def join(self, entries1, s1, free1, entries2, s2, free2, k, order=None):
        """ScalarRing.join on coded entries, with the bits of the dict
        join: products summed in entry order, then one weight r**-k per
        result entry (none when k is 0), and entries whose weighted sum is
        zero dropped.

        A sort-merge join on the codes: the second operand's entries are
        sorted stably by bound code, and each entry of the first meets the
        range of them that ``searchsorted`` finds, so the pairs come in the
        first operand's entry order, each bucket in the second's.  A result
        code is the first entry's head part plus the second's tail part,
        each already weighted for its slots' places in ``order``.
        Products are taken on the real and imaginary parts apart
        (``_products``), as Python's complex multiply rounds them.  Keys
        can repeat only under a head code that occurs under several bounds
        (``_ambiguous``, as in ScalarRing.join); only then are the products
        summed per key (``_summed``), so every key keeps the position of
        its first pair.  Raises ValueError, before any array is built,
        when the result's codes would not fit an int64.
        """
        import numpy as np

        radix, arity = entries1.radix, len(free1) + len(free2)
        _check_codes(radix, arity)
        places = range(arity) if order is None else [order.index(j) for j in range(arity)]
        weights = [radix ** (arity - 1 - p) for p in places]
        n1 = len(free1)
        bounds1, heads = entries1.split(s1, free1, weights[:n1])
        bounds2, tails = entries2.split(s2, free2, weights[n1:])
        by_bound = bounds2.argsort(kind="stable")
        sorted_bounds = bounds2[by_bound]
        lo = sorted_bounds.searchsorted(bounds1, "left")
        counts = sorted_bounds.searchsorted(bounds1, "right") - lo
        left = np.arange(len(counts)).repeat(counts)
        # the pair p of an entry i meets sorted position lo[i] + p - (i's first pair)
        right = by_bound[np.arange(len(left)) + (lo + counts - counts.cumsum()).repeat(counts)]
        codes = heads[left] + tails[right]
        vals = self._products(entries1.vals[left], entries2.vals[right])
        if _ambiguous(heads.tolist()):
            codes, vals = self._summed(codes, vals)
        if k:
            vals = self._products(self.radical(-k), vals)
        kept = vals != 0
        if not kept.all():
            codes, vals = codes[kept], vals[kept]
        return _FloatEntries(codes, vals, radix, arity)

    @staticmethod
    def _products(x, y):
        """The complex products x * y of the array y and x, an array of its
        length or one complex, elementwise, rounded as Python's complex
        multiply rounds them.

        Python takes (a + bi)(c + di) as (ac - bd) + (ad + bc)i, each
        product and sum rounded on its own, and so does this, on the real
        and imaginary parts apart; numpy's complex multiply may fuse them.
        """
        import numpy as np

        out = np.empty(len(y), complex)
        np.subtract(x.real * y.real, x.imag * y.imag, out=out.real)
        np.add(x.real * y.imag, x.imag * y.real, out=out.imag)
        return out

    @staticmethod
    def _summed(codes, vals):
        """The products of a join summed per code: each code's products
        added in pair order onto its first, and the codes kept in the order
        of their first pairs; codes and vals as they are when no code
        repeats."""
        import numpy as np

        by_code = codes.argsort(kind="stable")
        ordered = codes[by_code]
        lead = np.ones(len(ordered), bool)
        np.not_equal(ordered[1:], ordered[:-1], out=lead[1:])
        if lead.all():
            return codes, vals
        firsts = by_code[lead]
        sums = vals[firsts]
        np.add.at(sums, lead.cumsum()[~lead] - 1, vals[by_code[~lead]])
        in_pair_order = firsts.argsort()
        return codes[firsts][in_pair_order], sums[in_pair_order]

    def render(self, v: complex) -> str:
        """format(v, ".12g"), with a part of at most 1e-12 |v| shown as 0.

        Such a part is rounding noise: it would otherwise change with the
        summation order and could print as -0.
        """
        tiny = 1e-12 * abs(v)
        real = v.real if abs(v.real) > tiny else 0.0
        imag = v.imag if abs(v.imag) > tiny else 0.0
        return format(complex(real, imag), ".12g")

    def compare_entries(self, entries1, entries2, rel=FLOAT_REL):
        """ScalarRing.compare_entries at relative tolerance rel, on every key
        at once, so nothing is INDETERMINATE.

        Both sides' values are read into one array each over the sorted
        union of their codes, zero where a side has no entry, so the first
        unequal position holds the least unequal key, decoded as
        ``_FloatEntries.__iter__`` decodes keys, and both values there.
        Each side's codes are argsorted once; when the two sorted runs are
        equal, as on the two sides of a passing check, they are the union
        and the values are read across in that order, otherwise one
        ``np.unique`` of both sorted runs gives the union and each entry's
        place in it.  The test is the reference ``approx_equal``'s
        (``tests/reference.py``), max(|a|, |b|, 1) scaling rel,
        elementwise in the same float operations, and its max keeps the
        first of equal or unordered operands as Python's max does, so a
        nan or infinite value gets the verdict the reference gives it.
        """
        import numpy as np

        by_code1, by_code2 = entries1.codes.argsort(), entries2.codes.argsort()
        codes, codes2 = entries1.codes[by_code1], entries2.codes[by_code2]
        a, b = entries1.vals[by_code1], entries2.vals[by_code2]
        if not np.array_equal(codes, codes2):
            # return_index makes np.unique argsort stably: a merge of two sorted runs
            codes, _, at = np.unique(np.concatenate((codes, codes2)), return_index=True, return_inverse=True)
            a_all, b_all = np.zeros(len(codes), complex), np.zeros(len(codes), complex)
            a_all[at[: len(a)]], b_all[at[len(a) :]] = a, b
            a, b = a_all, b_all
        with np.errstate(all="ignore"):  # inf - inf is nan, as in Python
            abs_a, abs_b = np.abs(a), np.abs(b)
            scale = np.where(abs_b > abs_a, abs_b, abs_a)
            scale = np.where(1.0 > scale, 1.0, scale)
            unequal = np.flatnonzero(~(np.abs(a - b) <= rel * scale))
        if not len(unequal):
            return len(codes), {}
        i = unequal[0]
        (key,) = entries1.digits(codes[i : i + 1])
        return len(codes), {Comparison.UNEQUAL: (tuple(key), a[i].item(), b[i].item())}
