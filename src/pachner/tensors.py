"""Sparse multi-index tensors over a finite domain, with slot variances.

A tensor assigns a scalar to each tuple of domain elements, one per slot.
Slots carry a variance: UP for the primal space, DOWN for its dual.
Contraction binds UP slots to DOWN slots and inserts one measure weight
c = r**-1 per bound pair, matching the self-dual Haar convention of the
groups module.  Identity wires are delta lines with entry r, so a wire
composed with anything is weight neutral (c * r = 1).

``contract`` is the one join of two tensors: it binds any number of slot
pairs in a single hash join, and the outer product (no pairs) and
``LinMap.compose`` (all wires) are calls to it.

Entries live in the ring a tensor carries, its domain's exact ScalarRing
or a ComplexRing for the float cross-check backend, so both backends
share every code path.

Domains are either a FinAbGroup or a BasisDomain (a bare finite basis,
used by the bialgebra-style constructions).  A BasisDomain has group
order 1 in its scalar ring, which makes r = 1 and collapses all the
measure bookkeeping to ordinary matrix algebra.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
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
        return GroupTensor(self.domain, pick(self.variances), entries, self.ring)

    def conj(self) -> "GroupTensor":
        """Entrywise conjugate with all slot variances flipped."""
        return GroupTensor(
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
        return GroupTensor(self.domain, variances, entries, self.ring)

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
    Result slots: t1's free slots in order, then t2's.
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
    bound1, rest1 = _picker(s1), _picker(free1)
    bound2, rest2 = _picker(s2), _picker(free2)
    buckets = {}
    for k2, v2 in t2.entries.items():
        buckets.setdefault(bound2(k2), []).append((rest2(k2), v2))
    out = {}
    accumulated = out.get
    for k1, v1 in t1.entries.items():
        head = rest1(k1)
        for tail, v2 in buckets.get(bound1(k1), ()):
            key = head + tail
            prev = accumulated(key)
            out[key] = v1 * v2 if prev is None else prev + v1 * v2
    if s1:
        weight = t1.ring.radical(-len(s1))
        out = {k: weight * v for k, v in out.items()}
    variances = rest1(t1.variances) + rest2(t2.variances)
    return GroupTensor(t1.domain, variances, out, t1.ring)


def self_contract(t: GroupTensor, i: int, j: int) -> GroupTensor:
    """Bind two slots of the same tensor, with one measure weight."""
    if i == j:
        raise ValueError("cannot bind a slot to itself")
    i, j = min(i, j), max(i, j)
    if t.variances[i] == t.variances[j]:
        raise ValueError(f"variance clash between slots {i} and {j}")
    out = {}
    for key, val in t.entries.items():
        if key[i] == key[j]:
            reduced = key[:i] + key[i + 1 : j] + key[j + 1 :]
            prev = out.get(reduced)
            out[reduced] = val if prev is None else prev + val
    weight = t.ring.radical(-1)
    variances = t.variances[:i] + t.variances[i + 1 : j] + t.variances[j + 1 :]
    return GroupTensor(
        t.domain, variances, {k: weight * v for k, v in out.items()}, t.ring
    )


@dataclass
class EqualityReport:
    verdict: Comparison
    witness: tuple | None
    lhs_value: str | None
    rhs_value: str | None
    compared: int

    def __bool__(self):
        return self.verdict is Comparison.EQUAL


def tensor_equal(t1: GroupTensor, t2: GroupTensor, rel: float = 1e-9) -> EqualityReport:
    """Entrywise comparison over the union of supports, in the tensors' ring.

    Variances are not compared; callers that care about them check the
    patterns directly.  The reported witness is the lexicographically
    least differing index tuple.  With the exact backend, a difference
    that straddles both radical parities yields INDETERMINATE; the float
    backend compares at relative tolerance rel.
    """
    if t1.arity != t2.arity:
        raise ValueError(f"arity mismatch: {t1.arity} vs {t2.arity}")
    _check_same_backend(t1, t2)
    ring = t1.ring
    keys = sorted(set(t1.entries) | set(t2.entries))

    def report(verdict, key):
        shown = ring.render(t1.entry(key)), ring.render(t2.entry(key))
        return EqualityReport(verdict, key, *shown, len(keys))

    indeterminate_at = None
    for key in keys:
        verdict = ring.compare(t1.entry(key), t2.entry(key), rel)
        if verdict is Comparison.UNEQUAL:
            return report(verdict, key)
        if verdict is Comparison.INDETERMINATE and indeterminate_at is None:
            indeterminate_at = key
    if indeterminate_at is not None:
        return report(Comparison.INDETERMINATE, indeterminate_at)
    return EqualityReport(Comparison.EQUAL, None, None, None, len(keys))


def identity_kernel(domain, ring=None) -> GroupTensor:
    """Delta line with entry r: the weight-neutral identity wire."""
    ring = domain.ring if ring is None else ring
    r = ring.radical()
    return GroupTensor(domain, (UP, DOWN), {(x, x): r for x in domain.elements()}, ring)


def sigma_map(domain, ring=None) -> GroupTensor:
    """The swap on two wires: slots (out0, out1, in0, in1), entries r**2."""
    ring = domain.ring if ring is None else ring
    w = ring.radical(2)
    entries = {}
    for a in domain.elements():
        for b in domain.elements():
            entries[(b, a, a, b)] = w
    return GroupTensor(domain, (UP, UP, DOWN, DOWN), entries, ring)


def apply_kernel(t: GroupTensor, slot: int, kernel: GroupTensor, side: str = "left") -> GroupTensor:
    """Replace slot content by the measure-weighted kernel action.

    side="left":  new[.., x, ..] = c * sum_y K[x, y] * t[.., y, ..]
    side="right": new[.., y, ..] = c * sum_x t[.., x, ..] * K[x, y]

    The slot keeps its position and variance; the kernel is read as a
    plain two-argument function table.
    """
    _check_same_backend(t, kernel)
    if kernel.arity != 2:
        raise ValueError("kernel must have exactly two slots")
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    bound, free = (1, 0) if side == "left" else (0, 1)
    buckets = {}
    for kk, kv in kernel.entries.items():
        buckets.setdefault(kk[bound], []).append((kk[free], kv))
    out = {}
    for key, val in t.entries.items():
        for new_elem, kv in buckets.get(key[slot], ()):
            new_key = key[:slot] + (new_elem,) + key[slot + 1 :]
            prod = kv * val
            prev = out.get(new_key)
            out[new_key] = prod if prev is None else prev + prod
    weight = t.ring.radical(-1)
    return GroupTensor(
        t.domain, t.variances, {k: weight * v for k, v in out.items()}, t.ring
    )


class LinMap:
    """A tensor read as a linear map: the first n_out slots are outputs.

    Outputs carry UP variance, inputs DOWN.  Composition binds input
    wires of the left factor to output wires of the right factor, one
    measure weight per wire; with delta-normalized identity wires this
    makes inserting an identity a no-op.
    """

    __slots__ = ("tensor", "n_out", "n_in")

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

    def __repr__(self):
        return f"<LinMap {self.n_in}->{self.n_out} over {self.tensor.domain.literal}>"

    @staticmethod
    def identity(domain, k: int, ring=None) -> "LinMap":
        wire = identity_kernel(domain, ring)
        t = wire
        for _ in range(k - 1):
            t = t.outer(wire)
        # interleaved (out, in) pairs; sort into (outs, ins)
        perm = [2 * i for i in range(k)] + [2 * i + 1 for i in range(k)]
        return LinMap(t.permute(perm), k, k)

    @staticmethod
    def sigma(domain, ring=None) -> "LinMap":
        return LinMap(sigma_map(domain, ring), 2, 2)

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

    def compose(self, other: "LinMap") -> "LinMap":
        """self after other: bind self's inputs to other's outputs in order."""
        if self.n_in != other.n_out:
            raise ValueError(
                f"cannot compose: {self.n_in} inputs vs {other.n_out} outputs"
            )
        n_out, n_in = self.n_out, self.n_in
        tensor = contract(
            self.tensor, range(n_out, n_out + n_in), other.tensor, range(n_in)
        )
        return LinMap(tensor, n_out, other.n_in)

    def __matmul__(self, other):
        return self.compose(other)

    def equal(self, other: "LinMap", rel: float = 1e-9) -> EqualityReport:
        if (self.n_out, self.n_in) != (other.n_out, other.n_in):
            raise ValueError("shape mismatch")
        return tensor_equal(self.tensor, other.tensor, rel)
