"""Sparse multi-index tensors over a finite domain, with slot variances.

A tensor assigns a scalar to each tuple of domain elements, one per slot.
Slots carry a variance: UP for the primal space, DOWN for its dual.
Contraction binds UP slots to DOWN slots and inserts one measure weight
c = r**-1 per bound pair, matching the self-dual Haar convention of the
groups module.  Identity wires are delta lines with entry r, so a wire
composed with anything is weight neutral (c * r = 1).

``contract`` is the one join: it binds any number of slot pairs of two
tensors in a single hash join, and builds each result key in any slot
order.  The outer product (no pairs), ``GroupTensor.compose`` (a window
of wires) and every step of a state sum are calls to it.  A map is any
tensor whose UP slots, its outputs, all precede its DOWN slots, its
inputs: ``compose`` reads both from the variances and refuses any other
layout before it joins.  ``apply_word`` is the one builder of
composites: it applies a printed product of (factor, wire offset) pairs
right to left, each factor composed onto the window of wires from its
offset on, so a padded factor id^a (x) F (x) id^b never builds its
identity wires and F (x) G is the word [(F, 0), (G, n)] for F's n inputs.
The identity and sigma (``identity``, ``sigma``) are the one subclass,
``WirePermutation``: maps with one entry r**k on k wires that record
their permutation.  A word must apply a join first: the first factor
it applies joins, whatever its type, and every later wire permutation
folds into the key order of the join just before it, so a composite is
written once per join, in its final order.  A folded wire never joins,
and scales by r**k * r**-k from the ring only where the domain's exact
ring finds that is not one.

Entries live in the ring a tensor carries, its domain's exact ScalarRing
or a ComplexRing for the float cross-check backend, in the format that
ring's ``hold`` gives a dict of entries, so both backends share every
code path.  An exact tensor holds the dict of tuple keys itself; a float
one holds ``scalars._FloatEntries``, a read-only mapping of int64 key
codes and complex128 values, which builds tuple keys only when it is
iterated.  The constructor, ``permute``, ``conj`` and a wire's rescale
build a dict and hand it to ``hold``.  ``contract`` checks slots and
variances and hands the slot tuples to the ring's ``join``, which runs
the join itself: the exact ring a hash join that folds the weight into
the distinct values of one operand and computes each product once per
distinct pair of values, the float ring a sort-merge join on whole
arrays of codes that keeps the dict join's summation order and bits;
both write a key that one pair of entries meets once, already weighted
(composing a map whose outputs fix its inputs, such as Q, meets every
key so).  Likewise ``tensor_equal`` checks arity and backend and hands
both tensors' entries to the ring's ``compare_entries``, which returns
the keys compared and, for each failing verdict, its least key with both
values there (``slices_equal`` does so per pair of matching slices, for
tensors too large to hold whole twice, and folds the pairs into the
report the whole tensors give, with no lookup by key): the exact ring
passes a key whose two values are one object and compares each other
distinct pair of values once, and the float ring argsorts each side's
codes once, lines the two sides up on the sorted union of their codes
and compares all keys at once.  The float ring imports numpy on first
use, so an exact run never loads it.  ``conj`` and ``to_float`` map each
distinct value object once, classed by ``scalars._classes`` (every float
entry is an object of its own).  Results of ``contract``, ``permute``
and ``conj`` are built without the constructor's per-entry checks, which
they pass by construction.

Domains are either a FinAbGroup or a BasisDomain (a bare finite basis,
used by the bialgebra-style constructions).  Either way an element is an
int 0 .. size-1, so a key is a flat tuple of ints, which the domain's
``format`` prints (a group element as dotted residues, "1.0").  A
BasisDomain has group order 1 in its scalar ring, which makes r = 1 and
collapses all the measure bookkeeping to ordinary matrix algebra.

``Report`` is the one result shape of every check: ``tensor_equal``
returns one (verdict, entries compared, the least failing key and both
values there), built by ``slices_equal`` as its one-pair case, the
relation checkers fold such reports into theirs, and state-sum
invariance runs return one.  ``in_backend`` moves a tensor into
the ring a backend name selects, the one policy checkers and state sums
share.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field

from .scalars import FLOAT_REL, Comparison, ComplexRing, _classes, _picker, get_ring


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

    format = staticmethod(str)

    def __repr__(self):
        return f"BasisDomain({self.size})"

    def __eq__(self, other):
        return isinstance(other, BasisDomain) and self.size == other.size

    def __hash__(self):
        return hash(("basis", self.size))


def _fmt_key(domain, key) -> str:
    return ",".join(map(domain.format, key))


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
        self.entries = self.ring.hold(clean, domain.size, len(self.variances))

    @property
    def arity(self) -> int:
        return len(self.variances)

    def __repr__(self):
        return (
            f"<{type(self).__name__} {self.domain.literal} arity={self.arity} "
            f"nnz={len(self.entries)} {self.ring.name}>"
        )

    def entry(self, key):
        return self.entries.get(tuple(key), self.ring.zero)

    def permute(self, perm) -> "GroupTensor":
        """Reorder slots; perm[i] names the old slot placed at position i."""
        if sorted(perm) != list(range(self.arity)):
            raise ValueError(f"{perm} is not a permutation of {self.arity} slots")
        pick = _picker(perm)
        entries = {pick(key): val for key, val in self.entries.items()}
        entries = self.ring.hold(entries, self.domain.size, self.arity)
        return _built(self.domain, pick(self.variances), entries, self.ring)

    def conj(self) -> "GroupTensor":
        """Entrywise conjugate with all slot variances flipped."""
        variances = tuple(v.flip() for v in self.variances)
        classes, reps = _classes(self.entries)
        images = list(map(self.ring.conj, reps))
        entries = {key: images[c] for key, c in classes.items()}
        entries = self.ring.hold(entries, self.domain.size, self.arity)
        return _built(self.domain, variances, entries, self.ring)

    def to_float(self) -> "GroupTensor":
        if isinstance(self.ring, ComplexRing):
            return self
        classes, reps = _classes(self.entries)
        images = [v.to_complex() for v in reps]
        entries = {key: images[c] for key, c in classes.items()}
        return GroupTensor(self.domain, self.variances, entries, ComplexRing(self.ring.group_order))

    def dump(self) -> str:
        """One line per entry: "x,u,y,v,z -> scalar", sorted by index."""
        lines = []
        # keys are distinct, so sorting the items never compares values
        for key, val in sorted(self.entries.items()):
            lines.append(_fmt_key(self.domain, key) + " -> " + self.ring.render(val))
        return "\n".join(lines)

    def _layout(self) -> tuple[int, int]:
        """(outputs, inputs) of this tensor read as a map: its UP slots,
        which must all precede its DOWN slots.  Raises ValueError for any
        other variance pattern."""
        n_out = self.variances.count(UP)
        if UP in self.variances[n_out:]:
            raise ValueError(f"variance pattern {self.variances} does not match map layout")
        return n_out, self.arity - n_out

    def compose(self, other: "GroupTensor", at: int | None = None, then=(), order=None) -> "GroupTensor":
        """self after other, both read as maps, on the window of other's
        outputs from wire ``at``.

        A map's outputs are its UP slots and its inputs its DOWN slots,
        which follow them.  self's inputs bind to other's outputs at ..
        at + n_in - 1, as (id^at (x) self (x) id^rest) after other, and its
        outputs take the window's place.  The identity wires stay
        implicit: each would contribute r * r**-1 = 1, so the one
        contraction carries r**-n_in.  The (wire permutation, offset) pairs
        in ``then`` apply next, each ``_rescale``d, and ``order`` reorders
        the slots last, as in ``permute``: the contraction builds every key
        in its final slot order.  Raises ValueError, before the join, when
        either tensor is not a map, ``at`` is missing, a window does not
        fit, or a folded permutation's domain or backend is not self's.
        """
        (n_out, n_in), (m, m_in) = self._layout(), other._layout()
        if at is None or not 0 <= at <= m - n_in:
            raise ValueError(f"cannot compose {n_in} inputs at wire {at} of {m} outputs")
        outs = n_out + m - n_in
        slots = [*range(n_out, n_out + at), *range(n_out), *range(n_out + at, outs + m_in)]
        for p, a in then:
            _check_same_backend(p, self)
            if not isinstance(p, WirePermutation) or not 0 <= a <= outs - len(p.wires):
                raise ValueError(f"cannot fold {p!r} at wire {a} of {outs} outputs")
            slots[a : a + len(p.wires)] = [slots[a + j] for j in p.wires]
        if order is not None:
            slots = [slots[j] for j in order]
        t = contract(self, range(n_out, n_out + n_in), other, range(at, at + n_in), slots)
        for p, _ in then:
            t = p._rescale(t)
        return t


def in_backend(t: GroupTensor, backend: str) -> GroupTensor:
    """The tensor in the ring a backend names: "exact", every default,
    keeps its ring, and "float", the opt-in cross-check, moves it to
    complex entries."""
    if backend not in ("exact", "float"):
        raise ValueError(f"unknown backend {backend!r}")
    return t if backend == "exact" else t.to_float()


def _built(domain, variances, entries, ring) -> GroupTensor:
    """A tensor from entries that already fit: keys of len(variances)
    slots and no zero values.  Results of contract, permute and conj
    are right by construction, so they skip the constructor's checks."""
    t = GroupTensor.__new__(GroupTensor)
    t.domain, t.variances, t.entries, t.ring = domain, variances, entries, ring
    return t


def _check_same_backend(t1: GroupTensor, t2: GroupTensor):
    if t1.domain is not t2.domain and t1.domain != t2.domain:
        raise ValueError(f"domain mismatch: {t1.domain!r} vs {t2.domain!r}")
    if t1.ring != t2.ring:
        raise ValueError("cannot mix exact and float tensors")


def contract(t1: GroupTensor, s1, t2: GroupTensor, s2, order=None) -> GroupTensor:
    """Bind slots s1 of t1 to slots s2 of t2 pairwise, in one join.

    s1 and s2 are equally long slot sequences; a bare int is one slot.
    Each bound pair needs opposite variances and contributes one measure
    weight, so k pairs carry r**-k and no pairs give the outer product.
    Result slots: t1's free slots, then t2's, all in order; ``order``
    lists them in any other order (order[i] names the slot placed at i,
    as in ``permute``).  The join runs in the tensors' ring, given the
    bound and free slot tuples of both and the order (None for their own
    order): ``ScalarRing.join`` hashes tuple keys, ``ComplexRing.join``
    merges key codes.  Either builds each key in the result's order, so
    the result is never permuted, and drops entries that sum to zero.
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
    n = len(free1) + len(free2)
    order = None if order is None else tuple(order)
    if order == tuple(range(n)):
        order = None
    elif order is not None and sorted(order) != list(range(n)):
        raise ValueError(f"{list(order)} is not an order of {n} result slots")
    entries = t1.ring.join(t1.entries, s1, free1, t2.entries, s2, free2, len(s1), order)
    variances = _picker(free1)(t1.variances) + _picker(free2)(t2.variances)
    if order is not None:
        variances = _picker(order)(variances)
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


def tensor_equal(t1: GroupTensor, t2: GroupTensor, rel: float = FLOAT_REL) -> Report:
    """Entrywise comparison over the union of supports, in the tensors' ring.

    Variances are not compared; callers that care about them check the
    patterns directly.  The ring compares the two entry dicts whole
    (``ScalarRing.compare_entries`` or ``ComplexRing.compare_entries``).
    The report counts the keys compared as checks; its witness is the
    lexicographically least UNEQUAL index tuple, or failing that the
    least INDETERMINATE one, formatted, with both rendered values as
    lhs_value and rhs_value.  With the exact backend, a difference that
    straddles both radical parities may yield INDETERMINATE; the float
    backend compares at relative tolerance rel.
    """
    return slices_equal([(t1, t2)], rel)


def slices_equal(pairs, rel: float = FLOAT_REL) -> Report:
    """``tensor_equal`` on two tensors given slice by slice.

    ``pairs`` yields (slice of t1, slice of t2) pairs whose key sets are
    disjoint across pairs and whose union is each whole tensor; a whole
    pair is one slice.  Each pair is compared as ``tensor_equal`` compares
    whole tensors and the report is the one the whole tensors give: the
    checks summed, the witness the least UNEQUAL key over all pairs, else
    the least INDETERMINATE one, with both values there.  The pairs are
    taken one at a time and none is held after its comparison, so a
    generator of pairs keeps one pair alive at once.
    """
    checks, least = 0, {}
    for t1, t2 in pairs:
        if t1.arity != t2.arity:
            raise ValueError(f"arity mismatch: {t1.arity} vs {t2.arity}")
        _check_same_backend(t1, t2)
        compared, found = t1.ring.compare_entries(t1.entries, t2.entries, rel)
        domain, ring = t1.domain, t1.ring
        del t1, t2  # before the next pair is made
        checks += compared
        for verdict, hit in found.items():
            if verdict not in least or hit[0] < least[verdict][0]:
                least[verdict] = hit
    for verdict in (Comparison.UNEQUAL, Comparison.INDETERMINATE):
        if verdict in least:
            key, v1, v2 = least[verdict]
            fields = {"verdict": verdict.verdict, "checks": checks}
            values = {"lhs_value": ring.render(v1), "rhs_value": ring.render(v2)}
            return Report("tensor-equal", fields, _fmt_key(domain, key), values)
    return Report("tensor-equal", {"verdict": "pass", "checks": checks})


class WirePermutation(GroupTensor):
    """The map on k = len(wires) wires whose output j is input wires[j],
    every entry w = r**k, so each wire is weight neutral under
    composition.  ``scale`` is w * r**-k (w meeting k measure weights, in
    the map's ring) where the domain's exact ring finds r**k * r**-k is
    not its one, else None: in floats, where r * r**-1 rounds to 1 +- 1
    ulp for some orders, a wire never rescales."""

    __slots__ = ("wires", "scale")

    def __init__(self, domain, wires, ring=None):
        ring = domain.ring if ring is None else ring
        self.wires = wires = tuple(wires)
        k = len(wires)
        w = ring.radical(k)
        entries = {
            tuple(ins[j] for j in wires) + ins: w
            for ins in itertools.product(domain.elements(), repeat=k)
        }
        super().__init__(domain, (UP,) * k + (DOWN,) * k, entries, ring)
        exact = domain.ring
        self.scale = None
        if exact.radical(k) * exact.radical(-k) != exact.one:
            self.scale = w * ring.radical(-k)

    def _rescale(self, t: GroupTensor) -> GroupTensor:
        """t with every entry times this wire permutation's ``scale``, if
        it has one."""
        scale = self.scale
        if scale is not None:
            entries = {key: v * scale for key, v in t.entries.items()}
            t.entries = t.ring.hold(entries, t.domain.size, t.arity)
        return t


def identity(domain, k: int, ring=None) -> WirePermutation:
    """id on k wires; for k = 0 one entry () -> 1."""
    return WirePermutation(domain, range(k), ring)


def sigma(domain, ring=None) -> WirePermutation:
    """The swap of two wires."""
    return WirePermutation(domain, (1, 0), ring)


def apply_word(word, x: GroupTensor, order=None) -> GroupTensor:
    """The printed product of (factor, wire offset) pairs, applied right to
    left to the map x: each factor acts on x's outputs from its offset on,
    and the slots take ``order`` last.  The first factor applied, whatever
    its type, is one join (``GroupTensor.compose``), as is each later
    factor that is not a wire permutation; the wire permutations after a
    join, with ``order`` after the last, fold into its key order.  Raises
    ValueError, before any join, when the word is empty."""
    factors = list(word)
    if not factors:
        raise ValueError("a word must apply a join first, and the empty word has none")
    while factors:
        factor, at = factors.pop()
        then = []
        while factors and isinstance(factors[-1][0], WirePermutation):
            then.append(factors.pop())
        x = factor.compose(x, at, then, None if factors else order)
    return x
