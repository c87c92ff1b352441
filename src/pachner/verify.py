"""Checkers for the (3,3) relation and its companion identities.

Every identity is checked by building both sides as tensors, factor by
factor in the printed operator order, and comparing entrywise over the
union of supports.  Nothing is simplified by hand: the checkers are
transcriptions, so a transcription bug cannot cancel against itself.
Each side is a word for tensors.apply_word, the one builder of
composites: its printed factors in printed order, each with the wire
offset where it acts, applied right to left to the identity on V^3 (the
(3,3) sides also take Q sigma, itself the word [(Q, 0)] applied to
sigma).  The identity wires of the printed padding id^a (x) F (x) id^b
stay implicit, and a sigma right after a join folds into its key order,
so every side is written once, in its final slot order.  A family
member X^a (Q with one output pinned to a) is Q itself with that output
on a label wire, so a family side carries its index triple on three
label wires; the two sides of an identity are compared whole, and the
witness is read per triple.  The (3,3) sides are the exception above
P33_SLICED_ABOVE possible entries: each side is linear in the identity
it is applied to, and its input wires pass through every join
untouched, so the words applied to the identity restricted to one first
input build exactly that slice of each side, and verify_p33 builds and
compares them one first input at a time (tensors.slices_equal), into
the report the whole sides give.

Checkers in here:

* verify_p33: the hexagon-shaped relation with three solution tensors
  on each side, as maps V^3 -> V^6, holding one first-input slice of
  each side at a time when they are large;
* verify_pentagon: S12 S13 S23 = S23 S12 on V^3;
* verify_yb_family: the family reformulation (pinned-slot operators
  X^i, Y^j, Z^k) - two pentagon-shaped family identities and a
  Yang-Baxter identity per index triple, each side one word in Q with
  label wires and each identity one comparison, refused before any
  contraction when it could compare more than YB_ENTRIES_LIMIT entries;
* verify_theorem: for the bicharacter solution over a finite abelian
  group, the four proof-case integrals all reproduce the conjugate
  tensor; kernel transforms are expanded as explicit weighted sums,
  independently of contract, refused before anything is built when
  they would expand more than THEOREM_TERMS_LIMIT terms;
* dense_p33_oracle: a dense numpy cross-check of verify_p33 that
  enumerates the full index grid with einsum one first-output slab at a
  time, contracting each side's slab along a fixed pairwise path (n**11
  multiply-adds per side in all); DENSE_BYTES_LIMIT bounds what one slab
  holds, its two n**8 slabs, the path's n**7 intermediate and the
  comparison's n**8 temporaries, before allocation;
* verify_set_p33: the set-theoretic composite maps compared pointwise
  in exact rational arithmetic.

Each returns a tensors.Report; the entrywise checkers fold the Reports
of their tensor_equal (or slices_equal) comparisons into it with _judge.

The backend follows tensors.in_backend: exact by default, so a pass is
a ring identity; "float" is the opt-in cross-check at FLOAT_REL
relative tolerance.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from operator import itemgetter

from .groups import FinAbGroup
from .solutions import SolutionSpec, q_from_bicharacter, set_q, symmetry_kernels
from .tensors import (
    DOWN,
    FLOAT_REL,
    UP,
    GroupTensor,
    Report,
    apply_word,
    identity,
    in_backend,
    sigma,
    slices_equal,
    tensor_equal,
    _fmt_key,
)


def _report(name, target, backend, verdict, checks, witness="", extras=None) -> Report:
    """A relation report: target, backend, verdict and checks, in that order."""
    fields = {"target": target, "backend": backend, "verdict": verdict, "checks": checks}
    return Report(name, fields, witness, extras or {})


def _judge(name, target, backend, comparisons, extras=None) -> Report:
    """Fold labelled (where, Report) comparisons into one report.

    The comparisons are consumed lazily: the first failing one stops the
    fold and is the witness, which reads "where at key" (just the key
    when where is empty) and brings the comparison's extras, both
    rendered values.  ``extras`` is read after the fold, so a generator
    of comparisons may fill it.
    """
    checks, verdict, witness, values = 0, "pass", "", {}
    for where, rep in comparisons:
        checks += rep.checks
        if not rep:
            verdict, values = rep.verdict, rep.extras
            witness = f"{where} at {rep.witness}" if where else rep.witness
            break
    return _report(name, target, backend, verdict, checks, witness, {**(extras or {}), **values})


def q_as_map(q: GroupTensor) -> GroupTensor:
    """Reslot the 5-slot solution tensor as a map V^2 -> V^3."""
    if q.arity != 5 or q.variances != (UP, DOWN, UP, DOWN, UP):
        raise ValueError(
            "expected a 5-slot tensor with variance pattern (up,down,up,down,up)"
        )
    return q.permute([0, 2, 4, 1, 3])


# A side of the (3,3) relation holds at most this many entries; the bound
# is checked before any contraction.  Bicharacter solutions over groups of
# order up to 8 (8**6 entries) pass it; bichar:Z6, the largest any shipped
# check runs, takes 6**6.  verify_p33 never holds two whole sides above
# P33_SLICED_ABOVE: it builds and compares them one first input at a time.
P33_ENTRIES_LIMIT = 1 << 18

# verify_p33 slices the sides by first input when their bound exceeds
# this, which bounds the memory a check holds.  Slicing runs six joins per
# element where whole sides run six in all, and at or below 4**6
# (bichar:Z4 and Z2xZ2; the perturbed bichar:Z3 controls take 3**6) the
# extra joins cost more time than the smaller sides save: with the float
# join and comparison on key codes, slicing every check moved the
# relation-float benchmark's median op, a float control, from 1.96-1.97 ms
# to 3.76-3.80 ms (op_p50_ms_ref, three alternating 15 s pairs at seed 1,
# 2-core host).
P33_SLICED_ABOVE = 1 << 12


def _fan_out(m: GroupTensor) -> int:
    """The most entries of the map m that share one input key."""
    outs = m.variances.count(UP)
    counts = Counter(key[outs:] for key in m.entries)
    return max(counts.values(), default=0)


def _p33_bound(qm: GroupTensor) -> int:
    """The most entries a side of the (3,3) relation on Q can hold: each side
    has at most |V|^3 entries (the identity on V^3) times the fan-out of
    each factor, and sigma permutes keys, so both sides are bounded by
    |V|^3 * fan-out(Q)^3.  Raises ValueError above P33_ENTRIES_LIMIT."""
    dom = qm.domain
    bound = dom.size**3 * _fan_out(qm) ** 3
    if bound > P33_ENTRIES_LIMIT:
        raise ValueError(
            f"(3,3) sides over {dom.literal} may hold {bound} entries, over the "
            f"limit of {P33_ENTRIES_LIMIT}"
        )
    return bound


def _p33_slices(qm: GroupTensor, firsts):
    """The (lhs, rhs) pairs of p33_sides, one per item of ``firsts``: the
    whole sides for None, else their slices at that first input, each
    pair built when the previous one has been taken."""
    dom, ring = qm.domain, qm.ring
    sig = sigma(dom, ring)
    qsig = apply_word([(qm, 0)], sig)
    lhs = [(qsig, 0), (qm, 1), (sig, 0), (qm, 1)]
    rhs = [(sig, 2), (qsig, 3), (qm, 1), (sig, 2), (qm, 0)]
    id3 = identity(dom, 3, ring)
    for x in firsts:
        start = id3
        if x is not None:
            entries = {key: v for key, v in id3.entries.items() if key[3] == x}
            start = GroupTensor(dom, id3.variances, entries, ring)
        yield apply_word(lhs, start), apply_word(rhs, start)


def p33_sides(q: GroupTensor, first=None) -> tuple[GroupTensor, GroupTensor]:
    """Both sides of the (3,3) relation as maps V^3 -> V^6.

    lhs = (Q sigma (x) id^3)(id (x) Q (x) id)(sigma (x) id^2)(id (x) Q)
    rhs = (id^2 (x) sigma (x) id^2)(id^3 (x) Q sigma)(id (x) Q (x) id)
          (id^2 (x) sigma)(Q (x) id)

    Each side is its word applied to the identity on V^3.  With ``first``
    an element x, the words apply to that identity restricted to first
    input x, which gives exactly the entries of the whole sides whose
    first input (slot 6) is x, with the same values: the input wires pass
    through every join untouched, and each entry is summed from the same
    products in the same order.

    Raises ValueError, before any contraction, when a side could hold
    more than P33_ENTRIES_LIMIT entries (see _p33_bound).
    """
    qm = q_as_map(q)
    _p33_bound(qm)
    if first is not None and first not in q.domain.elements():
        raise ValueError(f"{first!r} is not an element of {q.domain.literal}")
    return next(_p33_slices(qm, [first]))


def verify_p33(sol: SolutionSpec, backend: str = "exact", rel: float = FLOAT_REL) -> Report:
    """The (3,3) relation for a solution tensor, as one comparison of its
    two sides.

    When the sides' bound exceeds P33_SLICED_ABOVE, they are built and
    compared one first input at a time (p33_sides with ``first``), so
    the check holds one slice of each side instead of both whole sides;
    otherwise one pass builds and compares the whole sides.  Either way
    slices_equal folds the comparison into the report the whole sides
    give, and lhs_nnz and rhs_nnz count every entry of each side.
    """
    if sol.q is None:
        raise ValueError(
            "this solution has no tensor; use verify_set_p33 for the set-theoretic map"
        )
    q = in_backend(sol.q, backend)
    qm = q_as_map(q)
    firsts = q.domain.elements() if _p33_bound(qm) > P33_SLICED_ABOVE else [None]
    extras = {"lhs_nnz": 0, "rhs_nnz": 0}

    def counted(pair):
        lhs, rhs = pair
        extras["lhs_nnz"] += len(lhs.entries)
        extras["rhs_nnz"] += len(rhs.entries)
        return pair

    rep = slices_equal(map(counted, _p33_slices(qm, firsts)), rel)
    return _judge("p33", sol.descriptor, q.ring.name, [("", rep)], extras)


def verify_pentagon(s: GroupTensor, backend: str = "exact") -> Report:
    """S12 S13 S23 = S23 S12 for a square map S on V (x) V."""
    if s.variances != (UP, UP, DOWN, DOWN):
        raise ValueError("pentagon input must be a square map on two wires")
    s = in_backend(s, backend)
    dom, ring = s.domain, s.ring
    sig = sigma(dom, ring)
    start = identity(dom, 3, ring)
    s13 = [(sig, 1), (s, 0), (sig, 1)]
    lhs = apply_word([(s, 0), *s13, (s, 1)], start)
    rhs = apply_word([(s, 1), (s, 0)], start)
    return _judge("pentagon", dom.literal, ring.name, [("", tensor_equal(lhs, rhs))])


# Each side of a yb family identity is a map V^3 -> V^6 of at most |V|**9
# entries, and a check compares three pairs of sides; checks whose entries
# to compare could pass this limit are refused before any contraction.
# bichar:Z6, the largest check any shipped script runs
# (scripts/relation_survey.py), compares up to 3 * 6**9.
YB_ENTRIES_LIMIT = 1 << 25


def verify_yb_family(sol: SolutionSpec, backend: str = "exact") -> Report:
    """The three family identities, checked for every index triple.

    pe1:  sum_{s,t} Q^{i,l,m}_{s,t} X^s_12 X^t_23 = X^m_23 X^l_13 X^i_12
    pe2:  Z^m_12 Z^n_13 Z^k_23 = sum_{s,t} Q^{m,n,k}_{s,t} Z^t_23 Z^s_12
    ybe:  X^i_12 Y^j_13 Z^k_23 = Z^k_23 Y^j_13 X^i_12

    X^a, Y^a and Z^a are Q with output slot 0, 2 or 4 pinned to a.  Here
    X, Y and Z are Q read as maps V^2 -> V^3 whose first output is that
    slot, so a factor applied at a window leaves its index on a label wire
    instead of pinning it, and a sum over s, t is Q composed onto the two
    label wires, which brings the measure weight c per summed index.  Each
    side is then one word of (factor, wire offset) pairs applied to the
    identity on V^3: a map V^3 -> V^6 whose first three outputs carry the
    index triple (in reverse on the lhs of pe2 and ybe, which the word's
    last join writes forward).  The two sides of an identity are built
    when the fold reaches it, so a fold that stops at its first failure
    builds no later identity, and are compared whole, in one tensor_equal.  Its
    least failing key lies in the least failing triple, so the witness
    reads "pe1[a,b,c] at <rest of the key>"; checks and the *_triples
    extras count every entry and triple of each identity compared.

    Raises ValueError, before any contraction, when 3 * |V|**9 (the
    entries the check may compare) exceeds YB_ENTRIES_LIMIT.
    """
    if sol.q is None:
        raise ValueError("the family reformulation needs a solution tensor")
    size = sol.q.domain.size
    if 3 * size**9 > YB_ENTRIES_LIMIT:
        raise ValueError(
            f"yb family over {sol.q.domain.literal} may compare {3 * size**9} entries, "
            f"over the limit of {YB_ENTRIES_LIMIT}"
        )
    q = in_backend(sol.q, backend)
    dom, ring = q.domain, q.ring
    x = q_as_map(q)
    y = q.permute([2, 0, 4, 1, 3])
    z = q.permute([4, 0, 2, 1, 3])
    s = sigma(dom, ring)
    start = identity(dom, 3, ring)
    # per identity: the lhs word, the slot order that makes its labels read
    # forward, then the rhs word
    forward, reverse = range(9), [2, 1, 0, *range(3, 9)]
    identities = {
        "pe1": ([(x, 0), (s, 0), (x, 1), (s, 0), (x, 1)], forward,
                [(s, 2), (x, 3), (s, 3), (x, 1), (s, 2), (x, 0)]),
        "pe2": ([(z, 2), (s, 3), (z, 1), (s, 0), (s, 2), (z, 1)], reverse,
                [(x, 0), (s, 1), (z, 2), (z, 0)]),
        "ybe": ([(x, 2), (s, 3), (y, 1), (s, 0), (s, 2), (z, 1)], reverse,
                [(s, 2), (z, 3), (s, 3), (y, 1), (s, 2), (x, 0)]),
    }
    counts = {"pe1_triples": 0, "pe2_triples": 0, "ybe_triples": 0}

    def comparisons():
        for name, (lhs_word, lhs_order, rhs_word) in identities.items():
            lhs = apply_word(lhs_word, start, lhs_order)
            rep = tensor_equal(lhs, apply_word(rhs_word, start))
            counts[f"{name}_triples"] = size**3
            # a key's first three slots are its triple, and no formatted
            # element holds a ",", so the witness splits after the third
            triple = rep.witness.split(",", 3)
            rep.witness = triple.pop()
            yield f"{name}[{','.join(triple)}]", rep

    return _judge("yb-family", sol.descriptor, ring.name, comparisons(), counts)


# -- the duality theorem ------------------------------------------------------


_PROOF_CASES = {
    # one entry per argument position of the solution tensor, read off the
    # four displayed proof integrals; ("ker", free_slot, kernel_name) means
    # the position is integrated against that kernel row indexed by the
    # free slot, ("free", free_slot) means the position carries that free
    # argument directly.
    "case1": [("free", 1), ("free", 0), ("ker", 2, "T"), ("ker", 3, "Tinv"), ("ker", 4, "T")],
    "case2": [("ker", 0, "T"), ("free", 2), ("free", 1), ("ker", 3, "Sinv"), ("ker", 4, "S")],
    "case3": [("ker", 0, "S"), ("ker", 1, "Sinv"), ("free", 3), ("free", 2), ("ker", 4, "T")],
    "case4": [("ker", 0, "T"), ("ker", 1, "Tinv"), ("ker", 2, "T"), ("free", 4), ("free", 3)],
}


class _ValueClasses:
    """Integer ids for the values of one theorem check, one per distinct
    value, keyed on its terms in item order, so the values of one class are
    equal down to that order.

    The solution's entries and every kernel's values are classed once, when
    the classes are made, and the product of two classes is memoised, so
    the four proof-case integrals of a check share both.  Products and sums
    are classed by their terms, never by ``id``: once the ring drops its
    tables (see ``scalars.SCALAR_TABLE_LIMIT``) a product may be a
    duplicate object that is freed, and a later object may reuse its id.
    The ring's own identity-keyed tables hold their operands for that
    reason.
    """

    def __init__(self, dt: GroupTensor, kernels: dict):
        self.by_terms, self.reps, self.products = {}, [], {}
        self.rows = {}  # kernel name -> column -> [(row, class)]
        for kname, kernel in kernels.items():
            by_col = {}
            for (row, col), val in kernel.entries.items():
                by_col.setdefault(col, []).append((row, self.of(val)))
            self.rows[kname] = by_col
        self.entries = [(key, self.of(val)) for key, val in dt.entries.items()]

    def of(self, v) -> int:
        """The class of the value v."""
        terms = tuple(v.terms.items())
        c = self.by_terms.get(terms)
        if c is None:
            c = self.by_terms[terms] = len(self.reps)
            self.reps.append(v)
        return c

    def times(self, a: int, b: int) -> int:
        """The class of the product of a representative of a and one of b."""
        c = self.products.get((a, b))
        if c is None:
            c = self.products[a, b] = self.of(self.reps[a] * self.reps[b])
        return c


def _proof_integral(dt: GroupTensor, plan, kernels: dict, classes=None) -> GroupTensor:
    """Expand one proof-case integral as an explicit weighted sum.

    Three argument positions are integrated against kernel rows, with one
    measure weight per integration; this is written directly on the entry
    dicts, independent of contract and ring.join, so the theorem check
    exercises a second code path.  The plan has two free and three kernel
    positions and records each position's free slot, so the result
    already carries its slots in free-argument order.

    Kernel rows and solution entries hold few distinct values, so the
    expansion runs on value classes (``_ValueClasses``): ``classes``, made
    from dt and kernels and shared by the integrals of one check, or made
    here when none is given.  Products are memoised per class pair, so
    each distinct pair is multiplied once.  The three kernel positions are
    nested loops in position order, the last one innermost, so every
    (entry, kernel-row) term is enumerated and multiplied in the order of
    a term-by-term expansion, and the terms share their partial products:
    each kernel class is multiplied onto the running class once per
    prefix, and the innermost row's products are memoised per (column,
    class).  Terms are listed under the raw key (the two free arguments,
    then the three rows), and each key is put into slot order once.  A
    key met by one term keeps that product.  The terms of any other key
    are added by ``ScalarRing.sum`` once per distinct multiset of classes,
    and the weight r**-3 is applied once per distinct sum.  Sums are
    order-free (``ScalarRing.sum``) and ``_canonical`` orders its output
    by parity, so every entry, down to the order of its terms, equals the
    term-by-term sum.
    """
    if classes is None:
        classes = _ValueClasses(dt, kernels)
    reps, times = classes.reps, classes.times
    free = [pos for pos, item in enumerate(plan) if item[0] == "free"]
    ker = [pos for pos, item in enumerate(plan) if item[0] == "ker"]
    (fa, fb), (ka, kb, kc) = free, ker
    rows_a, rows_b, rows_c = (classes.rows[plan[pos][2]] for pos in ker)
    # the raw key's index of each output slot
    raw_index = [None] * 5
    for i, pos in enumerate(free + ker):
        raw_index[plan[pos][1]] = i
    in_slot_order = itemgetter(*raw_index)
    inner, acc = {}, {}
    for key, entry in classes.entries:
        x, y, col = key[fa], key[fb], key[kc]
        for ra, ca in rows_a.get(key[ka], ()):
            ta = times(ca, entry)
            for rb, cb in rows_b.get(key[kb], ()):
                tb = times(cb, ta)
                row = inner.get((col, tb))
                if row is None:
                    row = inner[col, tb] = [(rc, times(cc, tb)) for rc, cc in rows_c.get(col, ())]
                for rc, term in row:
                    raw = (x, y, ra, rb, rc)
                    terms = acc.get(raw)
                    if terms is None:
                        acc[raw] = [term]
                    else:
                        terms.append(term)
    ring = dt.ring
    weight = classes.of(ring.radical(-3))
    sums, entries = {}, {}
    for raw, parts in acc.items():
        if len(parts) == 1:
            (c,) = parts
        else:
            multiset = tuple(sorted(parts))
            c = sums.get(multiset)
            if c is None:
                c = sums[multiset] = classes.of(ring.sum(reps[part] for part in multiset))
        entries[in_slot_order(raw)] = reps[times(weight, c)]
    return GroupTensor(dt.domain, dt.variances, entries, ring)


# The four proof-case integrals expand one term per (entry, kernel-row)
# combination: the bicharacter solution has |G|**3 entries, an S row is
# dense (|G| entries) and a T row a delta, so two cases expand |G|**5 terms
# and two |G|**3.  Groups of order up to 9 pass; Z10 expands 202,000.
THEOREM_TERMS_LIMIT = 1 << 17


def verify_theorem(group: FinAbGroup, chi=None, gauss=None) -> Report:
    """All four proof-case integrals reproduce the conjugate solution tensor.

    Optional chi/gauss overrides swap in alternative pairing data; they
    exist so negative controls (a trivial gauss function, an asymmetric
    pairing) can demonstrate that the identities genuinely constrain the
    data rather than holding formally.

    Raises ValueError, before the solution or its kernels are built, when
    the four integrals would expand more than THEOREM_TERMS_LIMIT terms.
    """
    n = group.size
    terms = 2 * n**5 + 2 * n**3
    if terms > THEOREM_TERMS_LIMIT:
        raise ValueError(
            f"theorem over {group.literal} expands {terms} terms, over the limit "
            f"of {THEOREM_TERMS_LIMIT}"
        )
    sol = q_from_bicharacter(group, chi=chi)
    kernels = symmetry_kernels(group, gauss=gauss)
    dt = sol.q
    target = dt.conj()
    classes = _ValueClasses(dt, kernels)
    # Every case is computed, so a failing control shows which of the four
    # the data breaks, and its checks count all of them.
    comparisons = [
        (case, tensor_equal(_proof_integral(dt, plan, kernels, classes), target))
        for case, plan in _PROOF_CASES.items()
    ]
    cases = {case: rep.verdict for case, rep in comparisons}
    report = _judge("theorem", group.literal, "exact", comparisons, cases)
    report.fields["checks"] = sum(rep.checks for _, rep in comparisons)
    return report


# -- independent dense oracle --------------------------------------------------

# The oracle builds and compares both sides one first-output slab at a time,
# each side into its own n**8 complex128 buffer in C order (16 bytes per
# entry each), allocated once and reused by every slab.  Both buffers in one
# layout let the comparison read them without buffering whole operands, as
# np.isclose does on slabs in two strided layouts when a slab is small.
# - Building a slab (np.einsum with out=) holds, beside the two buffers, the
#   path's last product before it is copied into its buffer (16 bytes per
#   entry), and the path's n**7 intermediate with a reordered copy of it (32
#   bytes per n**7 entries): 48 bytes per entry plus 32 per n**7.
# - Comparing a slab holds, beside the two buffers, np.isclose's complex
#   difference (16 bytes per entry) and its float magnitude (8) at once;
#   later float and boolean temporaries never exceed those 24 bytes: 56
#   bytes per entry.
# The count checked below, 32 bytes per entry for the buffers, 16 per n**7
# for the intermediate and 24 per entry for the comparison, covers the
# arrays of both phases, since 8 * n**8 >= 16 * n**7 for n >= 2.  It leaves
# out the n**5 solution array, einsum's operand copies and numpy's fixed
# cost per array, so it bounds the traced peak only from n = 3, where
# building a slab stays 8 * n**8 - 16 * n**7 bytes under it: tracemalloc
# reads 1.277 times the count on bichar:Z2, where the two are equal, and
# 0.985 and 0.943 on Z3 and Z4.  Larger inputs are refused before
# allocation.
DENSE_BYTES_LIMIT = 1 << 30

# Each side's slab contracts pairwise: first the factor holding the first
# output index with the one it shares a single summed index with (the n**7
# intermediate, n**8 multiply-adds), then the rest (two summed indices,
# n**10 multiply-adds), where the three-factor einsum without a path costs
# n**11 per slab.
_LHS_PATH = ["einsum_path", (0, 1), (0, 1)]
_RHS_PATH = ["einsum_path", (0, 2), (0, 1)]


def dense_p33_oracle(sol: SolutionSpec) -> Report:
    """Brute-force dense check of the (3,3) relation with numpy.

    The full 9-index boundary grid is enumerated (N^9 comparisons, N^3
    summed states each) via einsum on a dense complex array, sidestepping
    the sparse machinery entirely.  Both sides are built and compared one
    first-output slab (N^8 entries) at a time, every slab compared, each
    side's slab contracted along a fixed pairwise path (_LHS_PATH,
    _RHS_PATH) into that side's C-order buffer, which every slab reuses;
    DENSE_BYTES_LIMIT is checked against what one slab holds before
    allocation, and entries agree within FLOAT_REL relative and absolute
    tolerance.  The witness is the least mismatching index in C
    order: the first failing slab's, followed by the least index inside
    it.  numpy is imported here, on first use, so exact runs never load
    it.
    """
    import numpy as np

    q = sol.q
    if q is None or q.arity != 5:
        raise ValueError("dense oracle needs the 5-slot solution tensor")
    n = q.domain.size
    slabs, intermediate, comparison = 32 * n**8, 16 * n**7, 24 * n**8
    if slabs + intermediate + comparison > DENSE_BYTES_LIMIT:
        raise ValueError(
            f"dense oracle on {q.domain.literal} needs {slabs / 1e9:.2f} GB for two "
            f"{n}^8 slabs and {intermediate / 1e9:.2f} GB for an {n}^7 intermediate, "
            f"plus {comparison / 1e9:.2f} GB for the comparison's {n}^8 temporaries, "
            f"over the {DENSE_BYTES_LIMIT / 1e9:.2f} GB limit"
        )
    arr = np.zeros((n,) * 5, dtype=complex)
    for key, val in q.to_float().entries.items():
        arr[key] = val

    witness = values = None
    lhs, rhs = np.empty((n,) * 8, complex), np.empty((n,) * 8, complex)
    for i in range(n):
        np.einsum("sltm,spjun,tqurk->lmjnkpqr", arr[i], arr, arr, out=lhs, optimize=_LHS_PATH)
        np.einsum("msntk,lujrt,puqs->lmjnkpqr", arr, arr, arr[i], out=rhs, optimize=_RHS_PATH)
        bad = ~np.isclose(lhs, rhs, rtol=FLOAT_REL, atol=FLOAT_REL)
        # the least index in C order, found without listing every mismatch
        first = np.unravel_index(int(np.argmax(bad)), bad.shape)
        if witness is None and bad[first]:
            witness = _fmt_key(q.domain, (i, *map(int, first)))
            values = {"lhs_value": format(lhs[first], ".12g"), "rhs_value": format(rhs[first], ".12g")}
        del bad
    if witness is None:
        return _report("p33-dense", sol.descriptor, "dense", "pass", n**9)
    return _report("p33-dense", sol.descriptor, "dense", "fail", n**9, witness, values)


# -- set-theoretic composite maps ----------------------------------------------


def set_p33_sides(a: Fraction, b: Fraction, c: Fraction):
    """Both composite maps of the relation applied to one rational triple.

    Coordinate swaps play the sigma factors; each Q factor replaces two
    adjacent coordinates by three, in the same printed order as the
    tensor transcription in p33_sides.
    """
    t = (a,) + set_q(b, c)
    t = (t[1], t[0]) + t[2:]
    t = (t[0],) + set_q(t[1], t[2]) + (t[3],)
    lhs = set_q(t[1], t[0]) + t[2:]

    t = set_q(a, b) + (c,)
    t = t[:2] + (t[3], t[2])
    t = (t[0],) + set_q(t[1], t[2]) + (t[3],)
    t = t[:3] + set_q(t[4], t[3])
    rhs = t[:2] + (t[3], t[2]) + t[4:]
    return lhs, rhs


def verify_set_p33(samples: int = 1000, seed: int = 1) -> Report:
    """Compare the two composite maps at seeded rational points."""
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    rng = random.Random(seed)
    for k in range(samples):
        coords = []
        for _ in range(3):
            denom = rng.randrange(2, 1000)
            coords.append(Fraction(rng.randrange(1, denom), denom))
        a, b, c = coords
        lhs, rhs = set_p33_sides(a, b, c)
        inputs = f"inputs ({a},{b},{c})"
        if lhs != rhs:
            values = {"lhs_value": str(lhs), "rhs_value": str(rhs)}
            return _report("p33", "set", "rational", "fail", k + 1, inputs, values)
        outside = [out for out in lhs + rhs if not 0 < out < 1]
        if outside:
            witness = f"output {outside[0]} outside (0,1) at {inputs}"
            return _report("p33", "set", "rational", "fail", k + 1, witness)
    return _report("p33", "set", "rational", "pass", samples, extras={"seed": seed})
