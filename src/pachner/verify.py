"""Checkers for the (3,3) relation and its companion identities.

Every identity is checked by building both sides as tensors, factor by
factor in the printed operator order, and comparing entrywise over the
union of supports.  Nothing is simplified by hand: the checkers are
transcriptions, so a transcription bug cannot cancel against itself.
The (3,3), pentagon and Yang-Baxter family sides list their printed
factors in printed order, each with the wire offset where it acts, and
apply them right to left to the identity on V^3 (LinMap.compose with
``at``); the identity wires of the printed padding id^a (x) F (x) id^b
stay implicit.  A family member X^a (Q with one output pinned to a) is Q
itself with that output on a label wire, so a family side carries its
index triple on three label wires and is compared triple by triple.

Checkers in here:

* verify_p33: the hexagon-shaped relation with three solution tensors
  on each side, as maps V^3 -> V^6;
* verify_pentagon: S12 S13 S23 = S23 S12 on V^3;
* verify_yb_family: the family reformulation (pinned-slot operators
  X^i, Y^j, Z^k) - two pentagon-shaped family identities and a
  Yang-Baxter identity per index triple, each side one word in Q with
  label wires, refused before any contraction when it could compare more
  than YB_ENTRIES_LIMIT entries;
* verify_psym: the four kernel-transformed tensors agree pairwise;
* verify_theorem: for the bicharacter solution over a finite abelian
  group, the four proof-case integrals all reproduce the conjugate
  tensor; kernel transforms are expanded as explicit weighted sums,
  independently of apply_kernel, refused before anything is built when
  they would expand more than THEOREM_TERMS_LIMIT terms;
* dense_p33_oracle: a dense numpy cross-check of verify_p33 that
  enumerates the full index grid with einsum, contracting each side along
  a fixed pairwise path (n**11 multiply-adds); DENSE_BYTES_LIMIT bounds
  its two n**9 grids, the path's n**8 intermediate and the comparison's
  n**9 temporaries before allocation;
* verify_set_p33: the set-theoretic composite maps compared pointwise
  in exact rational arithmetic.

Each returns a tensors.Report; the entrywise checkers fold the Reports
of their tensor_equal comparisons into it with _judge.

The backend follows tensors.in_backend: exact by default for domains of
size at most 4 (and all plain basis domains); larger groups fall back to
floats at 1e-9 relative tolerance.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from fractions import Fraction
from operator import itemgetter

import numpy as np

from .groups import FinAbGroup
from .solutions import SolutionSpec, q_from_bicharacter, set_q, symmetry_kernels
from .tensors import (
    DOWN,
    UP,
    GroupTensor,
    LinMap,
    Report,
    apply_kernel,
    contract,
    in_backend,
    tensor_equal,
    _built,
    _fmt_key,
)


def _report(name, target, backend, verdict, checks, witness="", extras=None) -> Report:
    """A relation report: target, backend, verdict and checks, in that order."""
    fields = {"target": target, "backend": backend, "verdict": verdict, "checks": checks}
    return Report(name, fields, witness, extras or {})


def _judge(name, target, backend, comparisons, extras=None) -> Report:
    """Fold labelled (where, Report) comparisons into one report.

    The comparisons are consumed lazily: the first failing one stops the
    fold; otherwise the first indeterminate one is the witness.  The
    witness reads "where at key" (just the key when where is empty) and
    brings the comparison's extras, both rendered values.  ``extras`` is
    read after the fold, so a generator of comparisons may fill it.
    """
    checks, verdict, witness, values = 0, "pass", "", {}
    for where, rep in comparisons:
        checks += rep.checks
        # skip a pass, and an indeterminate one after the first
        if rep or rep.verdict == verdict:
            continue
        verdict = rep.verdict
        witness = f"{where} at {rep.witness}" if where else rep.witness
        values = rep.extras
        if verdict == "fail":
            break
    return _report(name, target, backend, verdict, checks, witness, {**(extras or {}), **values})


def q_as_linmap(q: GroupTensor) -> LinMap:
    """Read the 5-slot solution tensor as a map V^2 -> V^3."""
    if q.arity != 5 or q.variances != (UP, DOWN, UP, DOWN, UP):
        raise ValueError(
            "expected a 5-slot tensor with variance pattern (up,down,up,down,up)"
        )
    return LinMap(q.permute([0, 2, 4, 1, 3]), 3, 2)


# A side of the (3,3) relation holds at most this many entries; the bound
# is checked before any contraction.  Bicharacter solutions over groups of
# order up to 8 (8**6 entries) pass it; bichar:Z6, the largest any shipped
# check runs, takes 6**6.
P33_ENTRIES_LIMIT = 1 << 18


def _fan_out(m: LinMap) -> int:
    """The most entries of m that share one input key."""
    counts = Counter(key[m.n_out :] for key in m.tensor.entries)
    return max(counts.values(), default=0)


def _apply_word(word, x: LinMap) -> LinMap:
    """The printed product of (factor, wire offset) pairs, applied right to
    left to x: each factor acts on the wires from its offset on."""
    for factor, at in reversed(word):
        x = factor.compose(x, at=at)
    return x


def p33_sides(q: GroupTensor) -> tuple[LinMap, LinMap]:
    """Both sides of the (3,3) relation as maps V^3 -> V^6.

    lhs = (Q sigma (x) id^3)(id (x) Q (x) id)(sigma (x) id^2)(id (x) Q)
    rhs = (id^2 (x) sigma (x) id^2)(id^3 (x) Q sigma)(id (x) Q (x) id)
          (id^2 (x) sigma)(Q (x) id)

    Raises ValueError when a side could hold more than P33_ENTRIES_LIMIT
    entries: each side has at most |V|^3 entries (the identity on V^3)
    times the fan-out of each factor, and sigma permutes keys, so both
    sides are bounded by |V|^3 * fan-out(Q)^3.
    """
    dom, ring = q.domain, q.ring
    qm = q_as_linmap(q)
    bound = dom.size**3 * _fan_out(qm) ** 3
    if bound > P33_ENTRIES_LIMIT:
        raise ValueError(
            f"(3,3) sides over {dom.literal} may hold {bound} entries, over the "
            f"limit of {P33_ENTRIES_LIMIT}"
        )
    sig = LinMap.sigma(dom, ring)
    qsig = qm.compose(sig)
    start = LinMap.identity(dom, 3, ring)
    lhs = _apply_word([(qsig, 0), (qm, 1), (sig, 0), (qm, 1)], start)
    rhs = _apply_word([(sig, 2), (qsig, 3), (qm, 1), (sig, 2), (qm, 0)], start)
    return lhs, rhs


def verify_p33(sol: SolutionSpec, backend: str = "auto", rel: float = 1e-9) -> Report:
    if sol.q is None:
        raise ValueError(
            "this solution has no tensor; use verify_set_p33 for the set-theoretic map"
        )
    q = in_backend(sol.q, backend)
    lhs, rhs = p33_sides(q)
    extras = {"lhs_nnz": len(lhs.tensor.entries), "rhs_nnz": len(rhs.tensor.entries)}
    return _judge("p33", sol.descriptor, q.ring.name, [("", tensor_equal(lhs.tensor, rhs.tensor, rel))], extras)


def verify_pentagon(s: LinMap, backend: str = "auto") -> Report:
    """S12 S13 S23 = S23 S12 for a square map S on V (x) V."""
    if (s.n_out, s.n_in) != (2, 2):
        raise ValueError("pentagon input must be a square map on two wires")
    s = LinMap(in_backend(s.tensor, backend), 2, 2)
    dom, ring = s.tensor.domain, s.tensor.ring
    sig = LinMap.sigma(dom, ring)
    start = LinMap.identity(dom, 3, ring)
    s13 = [(sig, 1), (s, 0), (sig, 1)]
    lhs = _apply_word([(s, 0), *s13, (s, 1)], start)
    rhs = _apply_word([(s, 1), (s, 0)], start)
    return _judge("pentagon", dom.literal, ring.name, [("", tensor_equal(lhs.tensor, rhs.tensor))])


# Each side of a yb family identity is a map V^3 -> V^6 of at most |V|**9
# entries, and a check compares three pairs of sides; checks whose entries
# to compare could pass this limit are refused before any contraction.
# bichar:Z6, the largest check any shipped script runs
# (scripts/relation_survey.py), compares up to 3 * 6**9.
YB_ENTRIES_LIMIT = 1 << 25


def verify_yb_family(sol: SolutionSpec, backend: str = "auto") -> Report:
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
    index triple (in reverse on the lhs of pe2 and ybe).  The two sides of
    an identity are built when the fold reaches it, so a fold that stops
    at its first failure builds no later identity, and are compared index
    triple by index triple.

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
    x = q_as_linmap(q)
    y = LinMap(q.permute([2, 0, 4, 1, 3]), 3, 2)
    z = LinMap(q.permute([4, 0, 2, 1, 3]), 3, 2)
    s = LinMap.sigma(dom, ring)
    start = LinMap.identity(dom, 3, ring)
    forward, reverse = itemgetter(0, 1, 2), itemgetter(2, 1, 0)
    # per identity: the lhs word and where its labels sit, then the rhs word
    identities = {
        "pe1": ([(x, 0), (s, 0), (x, 1), (s, 0), (x, 1)], forward,
                [(s, 2), (x, 3), (s, 3), (x, 1), (s, 2), (x, 0)]),
        "pe2": ([(z, 2), (s, 3), (z, 1), (s, 0), (s, 2), (z, 1)], reverse,
                [(x, 0), (s, 1), (z, 2), (z, 0)]),
        "ybe": ([(x, 2), (s, 3), (y, 1), (s, 0), (s, 2), (z, 1)], reverse,
                [(s, 2), (z, 3), (s, 3), (y, 1), (s, 2), (x, 0)]),
    }
    variances = (UP,) * 3 + (DOWN,) * 3

    def by_label(word, label):
        """The side's entries split by index triple, as maps on V^3."""
        split = {}
        for key, val in _apply_word(word, start).tensor.entries.items():
            split.setdefault(label(key), {})[key[3:]] = val
        return {k: _built(dom, variances, e, ring) for k, e in split.items()}

    empty = _built(dom, variances, {}, ring)
    counts = {"pe1_triples": 0, "pe2_triples": 0, "ybe_triples": 0}

    def comparisons():
        for name, (lhs_word, lhs_label, rhs_word) in identities.items():
            lhs, rhs = by_label(lhs_word, lhs_label), by_label(rhs_word, forward)
            for triple in itertools.product(dom.elements(), repeat=3):
                counts[f"{name}_triples"] += 1
                rep = tensor_equal(lhs.get(triple, empty), rhs.get(triple, empty))
                yield f"{name}[{_fmt_key(triple)}]", rep

    return _judge("yb-family", sol.descriptor, ring.name, comparisons(), counts)


# -- the symmetry relation and the theorem ------------------------------------


def _conj_table(kernel: GroupTensor) -> GroupTensor:
    """Entrywise conjugate, keeping the slot layout (a table, not a dual)."""
    return GroupTensor(
        kernel.domain,
        kernel.variances,
        {k: kernel.ring.conj(v) for k, v in kernel.entries.items()},
        kernel.ring,
    )


def _validate_kernel(name: str, kernel: GroupTensor, domain) -> str:
    """Empty string when usable; otherwise a failure description."""
    if kernel.arity != 2:
        raise ValueError(f"kernel {name} must have exactly two slots")
    if kernel.domain != domain:
        raise ValueError(f"kernel {name} lives on {kernel.domain!r}, not {domain!r}")
    sym = tensor_equal(kernel, kernel.permute([1, 0]))
    if not sym:
        return f"kernel {name} is not symmetric at {sym.witness}"
    inv = tensor_equal(
        contract(kernel, 1, _conj_table(kernel), 0),
        LinMap.identity(kernel.domain, 1, kernel.ring).tensor,
    )
    if not inv:
        return f"kernel {name} is not inverted by its conjugate (checked at {inv.witness})"
    return ""


def verify_psym(q: GroupTensor, L: GroupTensor, M: GroupTensor, R: GroupTensor) -> Report:
    """Pairwise equality of the four kernel-transformed tensors.

    expr1 = (sigma (x) L (x) L^-1 (x) L) Q        swap slots 0,1; kernels on 2,3,4
    expr2 = (L (x) sigma (x) M^-1 (x) M) Q        swap slots 1,2; kernels on 0,3,4
    expr3 = (M (x) M^-1 (x) sigma (x) R) Q        swap slots 2,3; kernels on 0,1,4
    expr4 = (R (x) R^-1 (x) R (x) sigma) Q        swap slots 3,4; kernels on 0,1,2

    Inverse kernels are taken to be the conjugate tables; each kernel is
    required to be symmetric and inverted by its conjugate, and a kernel
    failing that requirement yields a fail verdict rather than an error.
    """
    if q.arity != 5:
        raise ValueError("the symmetry relation needs a 5-slot tensor")
    dom = q.domain
    for name, kernel in [("L", L), ("M", M), ("R", R)]:
        problem = _validate_kernel(name, kernel, dom)
        if problem:
            return _report("psym", dom.literal, q.ring.name, "fail", 0, problem)
    linv, minv, rinv = _conj_table(L), _conj_table(M), _conj_table(R)

    def transform(swap_perm, kernel_at):
        t = q
        for slot, kernel in kernel_at.items():
            t = apply_kernel(t, slot, kernel)
        return t.permute(swap_perm)

    exprs = [
        transform([1, 0, 2, 3, 4], {2: L, 3: linv, 4: L}),
        transform([0, 2, 1, 3, 4], {0: L, 3: minv, 4: M}),
        transform([0, 1, 3, 2, 4], {0: M, 1: minv, 4: R}),
        transform([0, 1, 2, 4, 3], {0: R, 1: rinv, 2: R}),
    ]
    comparisons = (
        (f"expr1 vs expr{idx + 1}", tensor_equal(exprs[0], exprs[idx])) for idx in (1, 2, 3)
    )
    return _judge("psym", dom.literal, q.ring.name, comparisons)


_PROOF_CASES = {
    # one entry per argument position of the solution tensor, read off the
    # four displayed proof integrals; ("ker", free_slot, kernel_name) means
    # the position is integrated against that kernel row indexed by the
    # free slot, ("free", free_slot) means the position carries that free
    # argument directly.
    "case1": [("free", 1), ("free", 0), ("ker", 2, "T"), ("ker", 3, "Tbar"), ("ker", 4, "T")],
    "case2": [("ker", 0, "T"), ("free", 2), ("free", 1), ("ker", 3, "Sbar"), ("ker", 4, "S")],
    "case3": [("ker", 0, "S"), ("ker", 1, "Sbar"), ("free", 3), ("free", 2), ("ker", 4, "T")],
    "case4": [("ker", 0, "T"), ("ker", 1, "Tbar"), ("ker", 2, "T"), ("free", 4), ("free", 3)],
}


def _proof_integral(dt: GroupTensor, plan, kernels: dict) -> GroupTensor:
    """Expand one proof-case integral as an explicit weighted sum.

    Three argument positions are integrated against kernel rows, with one
    measure weight per integration; this is written directly on the entry
    dicts, independent of apply_kernel, so the theorem check exercises a
    second code path.  The plan records each position's free slot, so the
    result already carries its slots in free-argument order.

    Kernel rows and solution entries hold few distinct values, so each
    product is memoised for the call on the value classes of its two
    factors: an object's id first, then its terms in item order, so the
    factors of one class are equal down to that order and so are their
    products.
    """
    # every value classed here (entries of dt and the kernels, products in
    # the memo, the sums in acc) stays alive for the call, so an id stays
    # one object's
    class_of, by_terms, products = {}, {}, {}

    def value_class(v):
        c = class_of.get(id(v))
        if c is None:
            c = class_of[id(v)] = by_terms.setdefault(tuple(v.terms.items()), len(by_terms))
        return c

    def times(a, b):
        pair = value_class(a), value_class(b)
        val = products.get(pair)
        if val is None:
            val = products[pair] = a * b
        return val

    rows = {}
    for kname in ("T", "Tbar", "S", "Sbar"):
        by_col = {}
        for (row, col), val in kernels[kname].entries.items():
            by_col.setdefault(col, []).append((row, val))
        rows[kname] = by_col
    acc = {}
    for key, val in dt.entries.items():
        options = []
        for pos, item in enumerate(plan):
            if item[0] == "free":
                options.append([(item[1], key[pos], None)])
            else:
                _, free_slot, kname = item
                options.append(
                    [(free_slot, row, kval) for row, kval in rows[kname].get(key[pos], [])]
                )
        for combo in itertools.product(*options):
            out_key = [None] * 5
            term = val
            for free_slot, elem, kval in combo:
                out_key[free_slot] = elem
                if kval is not None:
                    term = times(kval, term)
            out_key = tuple(out_key)
            prev = acc.get(out_key)
            acc[out_key] = term if prev is None else prev + term
    weight = dt.ring.radical(-3)
    return GroupTensor(
        dt.domain, dt.variances, {k: times(weight, v) for k, v in acc.items()}, dt.ring
    )


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
    kern = symmetry_kernels(group, gauss=gauss)
    kernels = {"T": kern["T"], "Tbar": kern["Tinv"], "S": kern["S"], "Sbar": kern["Sinv"]}
    dt = sol.q
    target = dt.conj()
    # Every case is computed, so a failing control shows which of the four
    # the data breaks, and its checks count all of them.
    comparisons = [
        (case, tensor_equal(_proof_integral(dt, plan, kernels), target))
        for case, plan in _PROOF_CASES.items()
    ]
    cases = {case: rep.verdict for case, rep in comparisons}
    report = _judge("theorem", group.literal, "exact", comparisons, cases)
    report.fields["checks"] = sum(rep.checks for _, rep in comparisons)
    return report


# -- independent dense oracle --------------------------------------------------

# The oracle holds both sides of the relation as dense n**9 complex128 grids
# (16 bytes per entry each), the n**8 intermediate of the contraction path
# below, and the n**9 temporaries of its comparison: np.isclose holds the
# complex difference (16 bytes per entry) and its float magnitude (8 bytes)
# at once, and later float and boolean temporaries never exceed those 24
# bytes per entry.  Larger inputs are refused before allocation.
DENSE_BYTES_LIMIT = 1 << 30

# Each side contracts pairwise: first the factor holding the first output
# index with the one it shares a single summed index with (the n**8
# intermediate, n**9 multiply-adds), then the rest (two summed indices,
# n**11 multiply-adds), where the three-factor einsum without a path costs
# n**12.
_LHS_PATH = ["einsum_path", (0, 1), (0, 1)]
_RHS_PATH = ["einsum_path", (0, 2), (0, 1)]


def dense_p33_oracle(sol: SolutionSpec) -> Report:
    """Brute-force dense check of the (3,3) relation with numpy.

    The full 9-index boundary grid is enumerated (N^9 comparisons, N^3
    summed states each) via einsum on a dense complex array, sidestepping
    the sparse machinery entirely.  Each side contracts along a fixed
    pairwise path (_LHS_PATH, _RHS_PATH), DENSE_BYTES_LIMIT is checked
    before allocation, and entries agree within 1e-9 relative and absolute
    tolerance.  The witness is the least mismatching index in C order.
    """
    q = sol.q
    if q is None or q.arity != 5:
        raise ValueError("dense oracle needs the 5-slot solution tensor")
    elems = list(q.domain.elements())
    n = len(elems)
    grids, intermediate, comparison = 32 * n**9, 16 * n**8, 24 * n**9
    if grids + intermediate + comparison > DENSE_BYTES_LIMIT:
        raise ValueError(
            f"dense oracle on {q.domain.literal} needs {grids / 1e9:.2f} GB for two "
            f"{n}^9 grids and {intermediate / 1e9:.2f} GB for an {n}^8 intermediate, "
            f"plus {comparison / 1e9:.2f} GB for the comparison's {n}^9 temporaries, "
            f"over the {DENSE_BYTES_LIMIT / 1e9:.2f} GB limit"
        )
    index = {e: i for i, e in enumerate(elems)}
    arr = np.zeros((n,) * 5, dtype=complex)
    for key, val in q.to_float().entries.items():
        arr[tuple(index[e] for e in key)] = val

    lhs = np.einsum("isltm,spjun,tqurk->ilmjnkpqr", arr, arr, arr, optimize=_LHS_PATH)
    rhs = np.einsum("msntk,lujrt,ipuqs->ilmjnkpqr", arr, arr, arr, optimize=_RHS_PATH)
    bad = ~np.isclose(lhs, rhs, rtol=1e-9, atol=1e-9)
    # the least index in C order, found without listing every mismatch
    first = np.unravel_index(int(np.argmax(bad)), bad.shape)
    if not bad[first]:
        return _report("p33-dense", sol.descriptor, "dense", "pass", n**9)
    witness = _fmt_key(tuple(elems[int(i)] for i in first))
    values = {"lhs_value": format(lhs[first], ".12g"), "rhs_value": format(rhs[first], ".12g")}
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
