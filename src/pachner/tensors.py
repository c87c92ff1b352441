"""Sparse multi-index tensors over a finite domain, with slot variances.

A tensor assigns a scalar to each tuple of domain elements, one per slot.
Slots carry a variance: UP for the primal space, DOWN for its dual.
Contraction binds UP slots to DOWN slots and inserts one measure weight
c = r**-1 per bound pair, matching the self-dual Haar convention of the
groups module.  Identity wires are delta lines with entry r, so a wire
composed with anything is weight neutral (c * r = 1).

``contract`` is the one join: it binds any number of slot pairs of two
tensors in a single hash join.  The outer product (no pairs),
``LinMap.compose`` (a window of wires), ``apply_kernel`` (one slot against
a kernel table) and every step of a state sum are calls to it.  A map
composed onto a window of another's outputs leaves the wires beside the
window untouched, so a word of padded factors id^a (x) F (x) id^b never
builds its identity wires.  The identity and sigma are wire permutations
with one entry r**k on k wires, and record their permutation: composed
onto a window they reorder its slots in one ``permute`` and scale by
r**k * r**-k, taken from the ring (and skipped when that is its one),
so they never run a join.

Entries live in the ring a tensor carries, its domain's exact ScalarRing
or a ComplexRing for the float cross-check backend, so both backends
share every code path.  ``contract`` checks slots and variances and picks
the key parts; the ring's ``join`` runs the hash join itself, so the
exact ring can fold the weight into the distinct values of one operand
and compute each product once per distinct pair of values, while the
float ring keeps its summation order.
Results of ``contract``, ``permute``, ``conj`` and ``pin`` are built
without the constructor's per-entry checks, which they pass by
construction.

Domains are either a FinAbGroup or a BasisDomain (a bare finite basis,
used by the bialgebra-style constructions).  A BasisDomain has group
order 1 in its scalar ring, which makes r = 1 and collapses all the
measure bookkeeping to ordinary matrix algebra.

``Report`` is the one result shape of every check: ``tensor_equal``
returns one (verdict, entries compared, the least failing key and both
values there), the relation checkers fold such reports into theirs, and
state-sum invariance runs return one.  ``in_backend`` moves a tensor into
the ring a backend name selects, the one policy checkers and state sums
share.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from operator import itemgetter

from .scalars import Comparison, ComplexRing, get_ring


class Variance(enum.Enum):
    UP = "up"
    DOWN = "down"

    def flip(self) -> "Variance":
        return Variance.DOWN if self is Variance.UP else Variance.UP

    def __repr__(self):
        return self.value


UP, DOWN = Variance.UP, Variance.DOWN


class BasisDomain:
    """A plain finite index set 0..size-1 with trivial measure weight."""

    def __init__(self, size: int):
        if size < 1:
            raise ValueError("basis size must be >= 1")
        self.size = size
        self.ring = get_ring(1, 1)

    @property
    def literal(self):
        return f"B{self.size}"

    def elements(self):
        return range(self.size)

    def __repr__(self):
        return f"BasisDomain({self.size})"

    def __eq__(self, other):
        return isinstance(other, BasisDomain) and self.size == other.size

    def __hash__(self):
        return hash(("basis", self.size))


def _format_elem(e):
    if isinstance(e, tuple):
        return ".".join(str(c) for c in e)
    return str(e)


def _fmt_key(key) -> str:
    return ",".join(_format_elem(e) for e in key)


class GroupTensor:
    __slots__ = ("domain", "variances", "entries", "ring")

    def __init__(self, domain, variances, entries, ring=None):
        self.domain = domain
        self.variances = tuple(variances)
        self.ring = domain.ring if ring is None else ring
        clean = {}
        for key, val in entries.items():
            if len(key) != len(self.variances):
                raise ValueError(
                    f"key arity {len(key)} does not match {len(self.variances)} slots"
                )
            if val:
                clean[key] = val
        self.entries = clean

    @property
    def arity(self) -> int:
        return len(self.variances)

    def __repr__(self):
        return (
            f"<GroupTensor {self.domain.literal} arity={self.arity} "
            f"nnz={len(self.entries)} {self.ring.name}>"
        )

    def entry(self, key):
        return self.entries.get(tuple(key), self.ring.zero)

    def outer(self, other: "GroupTensor") -> "GroupTensor":
        return contract(self, (), other, ())

    def permute(self, perm) -> "GroupTensor":
        """Reorder slots; perm[i] names the old slot placed at position i."""
        if sorted(perm) != list(range(self.arity)):
            raise ValueError(f"{perm} is not a permutation of {self.arity} slots")
        pick = _picker(perm)
        entries = {pick(key): val for key, val in self.entries.items()}
        return _built(self.domain, pick(self.variances), entries, self.ring)

    def conj(self) -> "GroupTensor":
        """Entrywise conjugate with all slot variances flipped."""
        return _built(
            self.domain,
            tuple(v.flip() for v in self.variances),
            {k: self.ring.conj(v) for k, v in self.entries.items()},
            self.ring,
        )

    def pin(self, slot: int, value) -> "GroupTensor":
        """Fix one slot to a value and drop it."""
        entries = {}
        for key, val in self.entries.items():
            if key[slot] == value:
                entries[key[:slot] + key[slot + 1 :]] = val
        variances = self.variances[:slot] + self.variances[slot + 1 :]
        return _built(self.domain, variances, entries, self.ring)

    def to_float(self) -> "GroupTensor":
        if isinstance(self.ring, ComplexRing):
            return self
        return GroupTensor(
            self.domain,
            self.variances,
            {k: v.to_complex() for k, v in self.entries.items()},
            ComplexRing(self.ring.group_order),
        )

    def dump(self) -> str:
        """One line per entry: "x,u,y,v,z -> scalar", sorted by index."""
        lines = []
        for key in sorted(self.entries):
            shown = self.ring.render(self.entries[key])
            lines.append(",".join(_format_elem(e) for e in key) + " -> " + shown)
        return "\n".join(lines)


def in_backend(t: GroupTensor, backend: str) -> GroupTensor:
    """The tensor in the ring a backend names.

    "auto" keeps plain basis domains and groups of order at most 4 exact
    and moves larger groups to floats.
    """
    if backend == "auto":
        small = isinstance(t.domain, BasisDomain) or t.domain.size <= 4
        backend = "exact" if small else "float"
    if backend not in ("exact", "float"):
        raise ValueError(f"unknown backend {backend!r}")
    return t if backend == "exact" else t.to_float()


def _built(domain, variances, entries, ring) -> GroupTensor:
    """A tensor from entries that already fit: keys of len(variances)
    slots and no zero values.  Results of contract, permute, conj and pin
    are right by construction, so they skip the constructor's checks."""
    t = GroupTensor.__new__(GroupTensor)
    t.domain, t.variances, t.entries, t.ring = domain, variances, entries, ring
    return t


def _check_same_backend(t1: GroupTensor, t2: GroupTensor):
    if t1.domain is not t2.domain and t1.domain != t2.domain:
        raise ValueError(f"domain mismatch: {t1.domain!r} vs {t2.domain!r}")
    if t1.ring != t2.ring:
        raise ValueError("cannot mix exact and float tensors")


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


def contract(t1: GroupTensor, s1, t2: GroupTensor, s2) -> GroupTensor:
    """Bind slots s1 of t1 to slots s2 of t2 pairwise, in one hash join.

    s1 and s2 are equally long slot sequences; a bare int is one slot.
    Each bound pair needs opposite variances and contributes one measure
    weight, so k pairs carry r**-k and no pairs give the outer product.
    Result slots: t1's free slots in order, then t2's.  The join runs in
    the tensors' ring (``ScalarRing.join`` or ``ComplexRing.join``) and
    drops entries that sum to zero.
    """
    _check_same_backend(t1, t2)
    s1 = (s1,) if isinstance(s1, int) else tuple(s1)
    s2 = (s2,) if isinstance(s2, int) else tuple(s2)
    if len(s1) != len(s2):
        raise ValueError(f"cannot pair {len(s1)} slots with {len(s2)}")
    for a, b in zip(s1, s2):
        if t1.variances[a] == t2.variances[b]:
            raise ValueError(
                f"variance clash: slot {a} ({t1.variances[a]}) vs "
                f"slot {b} ({t2.variances[b]})"
            )
    free1 = tuple(p for p in range(t1.arity) if p not in s1)
    free2 = tuple(p for p in range(t2.arity) if p not in s2)
    rest1, rest2 = _picker(free1), _picker(free2)
    entries = t1.ring.join(
        t1.entries, _picker(s1), rest1, t2.entries, _picker(s2), rest2, len(s1)
    )
    variances = rest1(t1.variances) + rest2(t2.variances)
    return _built(t1.domain, variances, entries, t1.ring)


@dataclass
class Report:
    """Outcome of one check, printed as flat key=value lines.

    ``fields`` print in order after ``relation=`` and hold the verdict
    ("pass" | "fail" | "indeterminate"); the witness follows when there
    is one, then the extras sorted by key.
    """

    name: str
    fields: dict
    witness: str = ""
    extras: dict = field(default_factory=dict)

    @property
    def verdict(self) -> str:
        return self.fields["verdict"]

    @property
    def checks(self):
        """Entries compared, for the reports that count them."""
        return self.fields.get("checks")

    def __bool__(self):
        return self.verdict == "pass"

    def lines(self):
        out = [f"relation={self.name}"] + [_line(k, v) for k, v in self.fields.items()]
        if self.witness:
            out.append(f"witness={self.witness}")
        return out + [_line(k, self.extras[k]) for k in sorted(self.extras)]


def _line(key, value) -> str:
    """One key=value line; floats print as `.3e` (e.g. 1.234e-15)."""
    return f"{key}={value:.3e}" if isinstance(value, float) else f"{key}={value}"


def tensor_equal(t1: GroupTensor, t2: GroupTensor, rel: float = 1e-9) -> Report:
    """Entrywise comparison over the union of supports, in the tensors' ring.

    Variances are not compared; callers that care about them check the
    patterns directly.  The report counts the keys compared as checks;
    its witness is the lexicographically least UNEQUAL index tuple, or
    failing that the least INDETERMINATE one, formatted, with both
    rendered values as lhs_value and rhs_value.  The union is walked once,
    unsorted.  With the exact backend, a difference that straddles both
    radical parities may yield INDETERMINATE; the float backend compares
    at relative tolerance rel.
    """
    if t1.arity != t2.arity:
        raise ValueError(f"arity mismatch: {t1.arity} vs {t2.arity}")
    _check_same_backend(t1, t2)
    ring = t1.ring
    compare, zero = ring.compare, ring.zero
    e1, e2 = t1.entries, t2.entries
    least = {Comparison.UNEQUAL: None, Comparison.INDETERMINATE: None}

    def note(verdict, key):
        if verdict is not Comparison.EQUAL:
            prev = least[verdict]
            if prev is None or key < prev:
                least[verdict] = key

    compared = len(e1)
    for key, v1 in e1.items():
        note(compare(v1, e2.get(key, zero), rel), key)
    for key, v2 in e2.items():
        if key not in e1:
            compared += 1
            note(compare(zero, v2, rel), key)
    for verdict, key in least.items():
        if key is not None:
            values = {"lhs_value": ring.render(t1.entry(key)), "rhs_value": ring.render(t2.entry(key))}
            fields = {"verdict": verdict.verdict, "checks": compared}
            return Report("tensor-equal", fields, _fmt_key(key), values)
    return Report("tensor-equal", {"verdict": "pass", "checks": compared})


def apply_kernel(t: GroupTensor, slot: int, kernel: GroupTensor) -> GroupTensor:
    """Replace slot content by the measure-weighted kernel action,
    new[.., x, ..] = c * sum_y K[x, y] * t[.., y, ..].

    The slot keeps its position and variance; the kernel is read as a
    plain two-argument function table.
    """
    if kernel.arity != 2:
        raise ValueError("kernel must have exactly two slots")
    # as a table, slot 0 holds the new content and slot 1 binds to t's slot
    v = t.variances[slot]
    table = GroupTensor(kernel.domain, (v, v.flip()), kernel.entries, kernel.ring)
    last = t.arity - 1
    return contract(t, slot, table, 1).permute([*range(slot), last, *range(slot, last)])


class LinMap:
    """A tensor read as a linear map: the first n_out slots are outputs.

    Outputs carry UP variance, inputs DOWN.  Composition binds input
    wires of the left factor to output wires of the right factor, one
    measure weight per wire; with delta-normalized identity wires this
    makes inserting an identity a no-op.
    """

    __slots__ = ("tensor", "n_out", "n_in", "wires")

    def __init__(self, tensor: GroupTensor, n_out: int, n_in: int):
        if tensor.arity != n_out + n_in:
            raise ValueError("slot count does not match declared in/out arity")
        expected = (UP,) * n_out + (DOWN,) * n_in
        if tensor.variances != expected:
            raise ValueError(
                f"variance pattern {tensor.variances} does not match map layout"
            )
        self.tensor = tensor
        self.n_out = n_out
        self.n_in = n_in
        # output j carries input wires[j] when the map is a wire permutation
        # built by _permutation; None for any other map
        self.wires = None

    def __repr__(self):
        return f"<LinMap {self.n_in}->{self.n_out} over {self.tensor.domain.literal}>"

    @staticmethod
    def _permutation(domain, wires, ring=None) -> "LinMap":
        """The map on k = len(wires) wires whose output j is input wires[j],
        every entry r**k, so each wire is weight neutral under composition."""
        ring = domain.ring if ring is None else ring
        wires = tuple(wires)
        k = len(wires)
        w = ring.radical(k)
        entries = {
            tuple(ins[j] for j in wires) + ins: w
            for ins in itertools.product(domain.elements(), repeat=k)
        }
        m = LinMap(GroupTensor(domain, (UP,) * k + (DOWN,) * k, entries, ring), k, k)
        m.wires = wires
        return m

    @staticmethod
    def identity(domain, k: int, ring=None) -> "LinMap":
        """id on k wires; for k = 0 the unit of ``tens``, one entry () -> 1."""
        return LinMap._permutation(domain, range(k), ring)

    @staticmethod
    def sigma(domain, ring=None) -> "LinMap":
        return LinMap._permutation(domain, (1, 0), ring)

    def tens(self, other: "LinMap") -> "LinMap":
        """Side-by-side tensor product, keeping the (outs, ins) layout."""
        big = self.tensor.outer(other.tensor)
        a_out, a_in, b_out, b_in = self.n_out, self.n_in, other.n_out, other.n_in
        perm = (
            list(range(a_out))
            + [a_out + a_in + i for i in range(b_out)]
            + [a_out + i for i in range(a_in)]
            + [a_out + a_in + b_out + i for i in range(b_in)]
        )
        return LinMap(big.permute(perm), a_out + b_out, a_in + b_in)

    def compose(self, other: "LinMap", at: int | None = None) -> "LinMap":
        """self after other: bind self's inputs to other's outputs in order.

        With ``at=a`` self acts on the window of other's outputs a ..
        a + self.n_in - 1, as (id^a (x) self (x) id^rest) after other,
        and its outputs take the window's place.  The identity wires stay
        implicit: each would contribute r * r**-1 = 1, so the one
        contraction carries r**-self.n_in.  Without ``at``, self's inputs
        must match other's outputs exactly.  A wire permutation (sigma, an
        identity) reorders the window's slots instead of joining.
        """
        n_out, n_in, m = self.n_out, self.n_in, other.n_out
        if at is None:
            if n_in != m:
                raise ValueError(f"cannot compose: {n_in} inputs vs {m} outputs")
            at = 0
        elif not 0 <= at <= m - n_in:
            raise ValueError(
                f"cannot compose {n_in} inputs at wire {at} of {m} outputs"
            )
        if self.wires is not None:
            return LinMap(self._permute_window(other.tensor, at), m, other.n_in)
        tensor = contract(
            self.tensor, range(n_out, n_out + n_in), other.tensor, range(at, at + n_in)
        )
        if at:
            # slots: self's outputs, other's outputs around the window, other's inputs
            tensor = tensor.permute(
                [*range(n_out, n_out + at), *range(n_out), *range(n_out + at, tensor.arity)]
            )
        return LinMap(tensor, n_out + m - n_in, other.n_in)

    def _permute_window(self, x: GroupTensor, at: int) -> GroupTensor:
        """A wire permutation composed onto x's outputs at .. at + k - 1: the
        window's slots permuted, and every entry times w * r**-k, the
        permutation's entry w meeting k measure weights (one in its ring)."""
        _check_same_backend(self.tensor, x)
        k, ring = self.n_in, self.tensor.ring
        t = x.permute([*range(at), *(at + j for j in self.wires), *range(at + k, x.arity)])
        w = next(iter(self.tensor.entries.values()))
        scale = w * ring.radical(-k)
        if scale != ring.one:
            t.entries = {key: v * scale for key, v in t.entries.items()}
        return t
