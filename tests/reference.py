"""Reference constructions the tests compare the package against.

Each is written from its definition, independently of the code path it
checks: outer products as loops over entry pairs, window permutations
as ``GroupTensor.permute`` then ``_rescale``, the relation sides with
every identity wire built as a tensor and the printed factors folded
left to right, the (3,3) check on its two whole sides at any size,
joins as first written, tensor equality as the least failing key of
the key union, the float tolerance test on one pair of values
(``approx_equal``), scalar comparison by its two parity parts, the proof-case
integrals summed term by term, group arithmetic and the pairing on
residue tuples, face classes as a union-find over (entry, vertex
subset) tuples, move sites by trying every vertex label, and the
splittings of a move in the order the site lists keep.  Test
modules import from here and from no other test module.
"""

import functools
import itertools
import math
import struct

import numpy as np

from pachner.scalars import FLOAT_REL, Comparison, ComplexRing, _ambiguous, _buckets, compare
from pachner.simplicial import MoveSite, Triangulation, simplex_boundary
from pachner.solutions import SolutionSpec
from pachner.tensors import (
    DOWN,
    UP,
    GroupTensor,
    Report,
    WirePermutation,
    _fmt_key,
    identity,
    in_backend,
    sigma,
    tensor_equal,
)
from pachner.verify import _judge, p33_sides, q_as_map


# values whose sums cancel exactly, the least subnormal, which a weight
# below one rounds to zero: the entry then drops only after weighting, and
# values whose products round differently when a multiply-add is fused
COMPLEX_VALUES = [
    1 + 0j, -1 + 0j, 1j, -1j, 0.5 + 0.25j, 5e-324 + 0j, -5e-324 + 0j, 3e-300j,
    0.1 + 0.7j, 1 / 3 - 2j / 7,
]


def two_pass_complex_join(ring, entries1, bound1, rest1, entries2, bound2, rest2, k):
    """ComplexRing.join as first written: the weighted dict, then a second
    dict without the zero entries."""
    buckets = {}
    for key, val in entries2.items():
        buckets.setdefault(bound2(key), []).append((rest2(key), val))
    out = {}
    for k1, v1 in entries1.items():
        for tail, v2 in buckets.get(bound1(k1), ()):
            key = rest1(k1) + tail
            prev = out.get(key)
            out[key] = v1 * v2 if prev is None else prev + v1 * v2
    if k:
        weight = ring.radical(-k)
        out = {key: weight * v for key, v in out.items()}
    return {key: v for key, v in out.items() if v}


def dict_complex_join(ring, entries1, bound1, rest1, entries2, bound2, rest2, k, pick=None):
    """ComplexRing.join as a dict join on tuple keys, before the float
    backend coded its keys: products summed in entry order, one weight
    r**-k per result entry, zero entries dropped.  bound1, rest1, bound2,
    rest2 and pick are getters on tuple keys."""
    buckets = _buckets(entries2, bound2, rest2)
    heads = list(map(rest1, entries1))
    ambiguous = _ambiguous(heads)
    weight = ring.radical(-k)
    out, pending = {}, []
    accumulated = out.get
    for (k1, v1), head in zip(entries1.items(), heads):
        bucket = buckets.get(bound1(k1), ())
        if head in ambiguous:
            for tail, v2 in bucket:
                key = pick(head + tail) if pick else head + tail
                prev = accumulated(key)
                if prev is None:
                    out[key] = v1 * v2
                    pending.append(key)
                else:
                    out[key] = prev + v1 * v2
        elif k:
            for tail, v2 in bucket:
                if w := weight * (v1 * v2):
                    out[pick(head + tail) if pick else head + tail] = w
        else:
            for tail, v2 in bucket:
                if w := v1 * v2:
                    out[pick(head + tail) if pick else head + tail] = w
    for key in pending:
        w = weight * out[key] if k else out[key]
        if w:
            out[key] = w
        else:
            del out[key]
    return out


def approx_equal(x: complex, y: complex, rel: float = FLOAT_REL) -> bool:
    """The float verdict on one pair of values: |x - y| at most rel times
    max(|x|, |y|, 1).  ``ComplexRing.compare_entries`` runs this test on
    whole arrays and must agree with it on every pair."""
    scale = max(abs(x), abs(y), 1.0)
    return abs(x - y) <= rel * scale


def least_key_tensor_equal(t1, t2, rel=1e-9):
    """tensor_equal from its definition: every key of either tensor is
    compared, a missing entry read as zero (``compare`` in the exact ring,
    approx_equal at rel in floats), and the report names the least
    UNEQUAL key with both values there; its checks are the size of the
    key union."""
    ring = t1.ring
    keys = set(t1.entries) | set(t2.entries)

    def verdict(key):
        a, b = t1.entry(key), t2.entry(key)
        if isinstance(ring, ComplexRing):
            return Comparison.EQUAL if approx_equal(a, b, rel) else Comparison.UNEQUAL
        return compare(a, b)

    key = min((k for k in keys if verdict(k) is Comparison.UNEQUAL), default=None)
    if key is None:
        return Report("tensor-equal", {"verdict": "pass", "checks": len(keys)})
    values = {"lhs_value": ring.render(t1.entry(key)), "rhs_value": ring.render(t2.entry(key))}
    fields = {"verdict": "fail", "checks": len(keys)}
    return Report("tensor-equal", fields, _fmt_key(t1.domain, key), values)


def subtracting_compare(a, b):
    """compare from its definition, value equality at r = +sqrt(N), with
    no terms shortcut and without the ring's Gauss-sum root of N.

    a - b is taken one radical parity at a time, so that no difference
    of both parities is put in canonical form: an even part P and an odd
    part Q·r.  A difference of one parity embeds injectively into the
    complex numbers.  P + Q·r of both parities can vanish only if
    P**2 = N·Q**2, an identity of two even values; when it holds P is
    exactly +-sqrt(N)·Q, so the float values of P + Q·r and P - Q·r,
    one of them exactly zero, tell the sign.
    """
    ring = a.ring
    even, odd = (
        ring.scalar({e: v for e, v in a.terms.items() if e % 2 == parity})
        - ring.scalar({e: v for e, v in b.terms.items() if e % 2 == parity})
        for parity in (0, 1)
    )
    if not even or not odd:
        return Comparison.UNEQUAL if even or odd else Comparison.EQUAL
    if even * even != odd * odd:
        return Comparison.UNEQUAL
    p, q = even.to_complex(), odd.to_complex()
    return Comparison.EQUAL if abs(p + q) < abs(p - q) else Comparison.UNEQUAL


def assert_identical_entries(got, want):
    """Same keys in the same order, and bitwise the same values: the same
    float bits, or exact values with the same terms in the same order."""
    assert list(got.entries) == list(want.entries)
    if isinstance(got.ring, ComplexRing):
        bits = lambda v: struct.pack("<dd", v.real, v.imag)
    else:
        bits = lambda v: list(v.terms.items())
    assert [bits(v) for v in got.entries.values()] == [bits(v) for v in want.entries.values()]


def dense(t):
    """Dense complex array in domain enumeration order, for oracles."""
    elems = list(t.domain.elements())
    index = {e: i for i, e in enumerate(elems)}
    arr = np.zeros((len(elems),) * t.arity, dtype=complex)
    for key, val in t.to_float().entries.items():
        arr[tuple(index[e] for e in key)] = val
    return arr


def outs_ins(f):
    """The numbers of outputs (UP slots) and inputs (DOWN slots) of a map."""
    return f.variances.count(UP), f.variances.count(DOWN)


def lin_matrix(f):
    """A map as a dense matrix, inputs flattened to columns."""
    n_out, n_in = outs_ins(f)
    n = f.domain.size
    return dense(f).reshape(n**n_out, n**n_in)


# -- composites from their definitions -----------------------------------------


def outer(t1, t2):
    """The outer product: every pair of entries, keys joined, values multiplied."""
    entries = {k1 + k2: v1 * v2 for k1, v1 in t1.entries.items() for k2, v2 in t2.entries.items()}
    return GroupTensor(t1.domain, t1.variances + t2.variances, entries, t1.ring)


def tens(f, g):
    """f (x) g side by side, in the (outs, ins) layout."""
    (a_out, a_in), (b_out, b_in) = outs_ins(f), outs_ins(g)
    perm = (
        list(range(a_out))
        + [a_out + a_in + i for i in range(b_out)]
        + [a_out + i for i in range(a_in)]
        + [a_out + a_in + b_out + i for i in range(b_in)]
    )
    return outer(f, g).permute(perm)


def compose(*maps):
    """The maps' product, left after right, each binding all of its
    inputs to all of the next map's outputs."""

    def after(f, g):
        assert outs_ins(f)[1] == outs_ins(g)[0], (f, g)
        return f.compose(g, at=0)

    return functools.reduce(after, maps)


def padded(f, a, b):
    """id^a (x) f (x) id^b with every identity wire built as a tensor."""
    dom, ring = f.domain, f.ring
    return tens(tens(identity(dom, a, ring), f), identity(dom, b, ring))


def permute_window(p, t, at):
    """The wire permutation p composed onto t's outputs at .. at + k - 1
    without a join: the window's slots permuted, then ``_rescale``d."""
    k = len(p.wires)
    return p._rescale(t.permute([*range(at), *(at + j for j in p.wires), *range(at + k, t.arity)]))


def factor_by_factor(word, x, order):
    """The word applied one factor at a time: one join per map, each wire
    permutation through permute_window, and the order through permute."""
    for factor, at in reversed(word):
        if isinstance(factor, WirePermutation):
            x = permute_window(factor, x, at)
        else:
            x = factor.compose(x, at=at)
    return x if order is None else x.permute(order)


# -- the relation sides as first transcribed ----------------------------------


def padded_p33_sides(q):
    """The (3,3) sides with every identity wire built as a tensor and the
    printed factors folded left to right, as first transcribed."""
    dom, ring = q.domain, q.ring
    qm = q_as_map(q)
    id1 = identity(dom, 1, ring)
    id2 = tens(id1, id1)
    id3 = tens(id2, id1)
    sig = sigma(dom, ring)
    qsig = compose(qm, sig)
    lhs = compose(tens(qsig, id3), tens(tens(id1, qm), id1), tens(sig, id2), tens(id1, qm))
    rhs = compose(
        tens(tens(id2, sig), id2),
        tens(id3, qsig),
        tens(tens(id1, qm), id1),
        tens(id2, sig),
        tens(qm, id1),
    )
    return lhs, rhs


def whole_side_p33(sol, backend="exact", rel=1e-9):
    """verify_p33 with both sides built whole by p33_sides and compared in
    one tensor_equal, at any size."""
    q = in_backend(sol.q, backend)
    lhs, rhs = p33_sides(q)
    extras = {"lhs_nnz": len(lhs.entries), "rhs_nnz": len(rhs.entries)}
    report = tensor_equal(lhs, rhs, rel)
    return _judge("p33", sol.descriptor, q.ring.name, [("", report)], extras)


def padded_pentagon_sides(s):
    """S12 S13 S23 and S23 S12 with padded identity wires."""
    dom, ring = s.domain, s.ring
    id1 = identity(dom, 1, ring)
    idsig = tens(id1, sigma(dom, ring))
    s12, s23 = tens(s, id1), tens(id1, s)
    s13 = compose(idsig, s12, idsig)
    return compose(s12, s13, s23), compose(s23, s12)


def pin(t, slot, value):
    """Fix one slot of t to a value and drop it."""
    entries = {}
    for key, val in t.entries.items():
        if key[slot] == value:
            entries[key[:slot] + key[slot + 1 :]] = val
    variances = t.variances[:slot] + t.variances[slot + 1 :]
    return GroupTensor(t.domain, variances, entries, t.ring)


def build_families(sol) -> dict:
    """Pin one output slot of Q each way: X^a (slot 0), Y^a (slot 2), Z^a (slot 4).

    Each member is a map on V (x) V; pinning leaves four slots which are
    reordered into the (outs, ins) layout.
    """
    q = sol.q if isinstance(sol, SolutionSpec) else sol
    if q.arity != 5 or q.variances != (UP, DOWN, UP, DOWN, UP):
        raise ValueError("family construction needs the 5-slot solution tensor")
    fams = {}
    for name, slot, perm in [("X", 0, [1, 3, 0, 2]), ("Y", 2, [0, 3, 1, 2]), ("Z", 4, [0, 2, 1, 3])]:
        fams[name] = {
            a: pin(q, slot, a).permute(perm) for a in q.domain.elements()
        }
    return fams


def linmap_sum(domain, ring, terms, weight) -> GroupTensor:
    """Weighted sum of maps on V^3, scaled by weight."""
    acc = {}
    for coeff, lm in terms:
        if not coeff:
            continue
        for key, val in lm.entries.items():
            prod = coeff * val
            prev = acc.get(key)
            acc[key] = prod if prev is None else prev + prod
    entries = {k: weight * v for k, v in acc.items()}
    return GroupTensor(domain, (UP,) * 3 + (DOWN,) * 3, entries, ring)


def padded_yb_identities(sol, backend="exact", rel=1e-9):
    """verify_yb_family as first transcribed: the pinned family members
    padded to maps on V^3 (the 13-slot ones between sigma sandwiches), pair
    products memoised, and the sums over s, t written out as weighted sums
    of pair products.  Yields, one identity at a time and only when asked,
    its name and its (index triple, Report) comparisons over every triple."""
    q = in_backend(sol.q, backend)
    dom, ring = q.domain, q.ring
    fams = build_families(q)
    id1 = identity(dom, 1, ring)
    idsig = tens(id1, sigma(dom, ring))

    def e12(m):
        return tens(m, id1)

    def e23(m):
        return tens(id1, m)

    def e13(m):
        return compose(idsig, tens(m, id1), idsig)

    elems = list(dom.elements())
    x12 = {a: e12(fams["X"][a]) for a in elems}
    x23 = {a: e23(fams["X"][a]) for a in elems}
    x13 = {a: e13(fams["X"][a]) for a in elems}
    y13 = {a: e13(fams["Y"][a]) for a in elems}
    z12 = {a: e12(fams["Z"][a]) for a in elems}
    z23 = {a: e23(fams["Z"][a]) for a in elems}
    z13 = {a: e13(fams["Z"][a]) for a in elems}
    c2 = ring.radical(-2)

    def pairs(left, right):
        return functools.cache(lambda a, b: compose(left[a], right[b]))

    x12_x23, z23_z12 = pairs(x12, x23), pairs(z23, z12)
    x23_x13, z12_z13 = pairs(x23, x13), pairs(z12, z13)

    def sides(rel_name, a, b, cc):
        if rel_name == "pe1":
            i, l, m = a, b, cc
            terms = [(q.entry((i, s, l, t, m)), x12_x23(s, t)) for s in elems for t in elems]
            return linmap_sum(dom, ring, terms, c2), compose(x23_x13(m, l), x12[i])
        if rel_name == "pe2":
            m, n, k = a, b, cc
            terms = [(q.entry((m, s, n, t, k)), z23_z12(t, s)) for s in elems for t in elems]
            return compose(z12_z13(m, n), z23[k]), linmap_sum(dom, ring, terms, c2)
        i, j, k = a, b, cc
        return compose(x12[i], y13[j], z23[k]), compose(z23[k], y13[j], x12[i])

    for rel_name in ("pe1", "pe2", "ybe"):
        comparisons = []
        for triple in itertools.product(elems, repeat=3):
            lhs, rhs = sides(rel_name, *triple)
            comparisons.append((triple, tensor_equal(lhs, rhs, rel)))
        yield rel_name, comparisons


def fold_padded_identities(sol, backend, identities):
    """The padded reference's report: its comparisons folded triple by
    triple, counting the triples compared up to the first failing one."""
    counts = {"pe1_triples": 0, "pe2_triples": 0, "ybe_triples": 0}

    def comparisons():
        for rel_name, triples in identities:
            for triple, rep in triples:
                counts[f"{rel_name}_triples"] += 1
                yield f"{rel_name}[{_fmt_key(sol.q.domain, triple)}]", rep

    ring = in_backend(sol.q, backend).ring
    return _judge("yb-family", sol.descriptor, ring.name, comparisons(), counts)


def padded_yb_family(sol, backend="exact", rel=1e-9):
    return fold_padded_identities(sol, backend, padded_yb_identities(sol, backend, rel))


def expanded_proof_integral(dt, plan, kernels):
    """The proof-case integral summed term by term with Scalar.__add__.

    The reference for _proof_integral's class-id accumulation: every
    expanded term is multiplied out and added into its key in expansion
    order, with one canonical form per addition.
    """
    rows = {}
    for kname, kernel in kernels.items():
        by_col = {}
        for (row, col), val in kernel.entries.items():
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
                    term = kval * term
            out_key = tuple(out_key)
            prev = acc.get(out_key)
            acc[out_key] = term if prev is None else prev + term
    weight = dt.ring.radical(-3)
    return GroupTensor(dt.domain, dt.variances, {k: weight * v for k, v in acc.items()}, dt.ring)


# -- group arithmetic on residue tuples ------------------------------------------


def residue_tuples(orders):
    """Every element of Z/N1 x ... x Z/Nk as its residue tuple, sorted."""
    return sorted(itertools.product(*(range(n) for n in orders)))


def residue_add(orders, a, b):
    return tuple((x + y) % n for x, y, n in zip(a, b, orders))


def residue_neg(orders, a):
    return tuple((n - x) % n for x, n in zip(a, orders))


def residue_sub(orders, a, b):
    return residue_add(orders, a, residue_neg(orders, b))


def residue_chi_exponent(orders, a, b):
    """chi(a, b) = prod_i exp(2 pi i (Ni+1) a_i b_i / Ni) as a power of the
    primitive 2L-th root exp(pi i / L), L = lcm(Ni)."""
    two_l = 2 * math.lcm(*orders)
    return sum(two_l // n * (n + 1) * x * y for x, y, n in zip(a, b, orders)) % two_l


def residue_gauss_exponent(orders, a):
    """g(a) = prod_i exp(-pi i (Ni+1) a_i**2 / Ni) as a power of exp(pi i / L)."""
    two_l = 2 * math.lcm(*orders)
    return -sum(two_l // (2 * n) * (n + 1) * x * x for x, n in zip(a, orders)) % two_l


# -- simplicial complexes from their definitions ---------------------------------


def all_splittings(n):
    """Every splitting (I, J) of [0..n] with I and J nonempty, by the size
    of I, then lexicographically: the order simplicial.all_sites keeps."""
    for p in range(1, n + 1):
        for I in itertools.combinations(range(n + 1), p):
            J = tuple(k for k in range(n + 1) if k not in I)
            yield I, J


def face_classes(t):
    """The faces of every dimension as a map from representative to class,
    each class the frozenset of its (entry, vertex subset) occurrences: a
    union-find over those tuples in which every subset of a glued facet is
    identified with the same subset of its partner.  The gluing is read in
    its own order, a facet's subsets by size and then lexicographically,
    and each union hangs the partner's root under the root of this side,
    so a representative is a root of that forest.  Classes are listed in
    the order their first members come, entry by entry and each entry's
    subsets by size and then lexicographically."""
    parent = {}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    def subsets(vertices):
        for k in range(1, len(vertices) + 1):
            yield from itertools.combinations(vertices, k)

    for e, (vertices, _) in enumerate(t.simplexes):
        for sub in subsets(vertices):
            parent[(e, sub)] = (e, sub)
    for (e, i), (e2, _) in t.gluing.items():
        for sub in subsets(t.facet(e, i)):
            rx, ry = find((e, sub)), find((e2, sub))
            if rx != ry:
                parent[ry] = rx
    classes = {}
    for x in parent:
        classes.setdefault(find(x), set()).add(x)
    return {root: frozenset(members) for root, members in classes.items()}


def euler_characteristic(t):
    """Face classes counted by dimension with alternating signs, each
    class's dimension read from every member."""
    total = 0
    for members in face_classes(t).values():
        (size,) = {len(sub) for _, sub in members}
        total += (-1) ** (size - 1)
    return total


def gluing_error(dim, simplexes, gluing):
    """The ValueError text a Triangulation built from explicit gluing data
    raises, or None: every occurrence must exist; then, occurrence by
    occurrence in the gluing's order, the gluing must be a fixed-point-free
    involution there and the two glued facets must have equal vertices."""
    for e, i in gluing:
        if not (0 <= e < len(simplexes) and 0 <= i <= dim):
            return f"gluing references unknown occurrence {(e, i)}"
    for occ, partner in gluing.items():
        if gluing.get(partner) != occ or partner == occ:
            return f"gluing is not a fixed-point-free involution at {occ}"
        facets = [simplexes[e][0][:i] + simplexes[e][0][i + 1 :] for e, i in (occ, partner)]
        if facets[0] != facets[1]:
            return f"glued occurrences {occ} and {partner} have different vertices"
    return None


# The 4-sphere with the pentachora of a flip set given the other
# orientation, which leaves several glued pairs incoherent: the flip set,
# the least such pair (occurrence < partner) and the tetrahedron it glues.
INCOHERENT_SPHERES = [
    ({0, 3}, ((0, 0), (1, 0)), (2, 3, 4, 5)),
    ({2, 4, 5}, ((0, 1), (2, 0)), (1, 3, 4, 5)),
    ({1}, ((0, 0), (1, 0)), (2, 3, 4, 5)),
]


def flipped_sphere(flips, reverse=False):
    """simplex_boundary(5) with the entries in ``flips`` reoriented and its
    gluing given explicitly, listed in reverse order when ``reverse``."""
    t = simplex_boundary(5)
    simplexes = [(v, -s if e in flips else s) for e, (v, s) in enumerate(t.simplexes)]
    gluing = list(t.gluing.items())
    return Triangulation(4, simplexes, dict(reversed(gluing) if reverse else gluing))


def check_splitting(n, I, J):
    """(I, J) as sorted tuples, or the ValueError a non-splitting of
    [0..n] into two nonempty parts raises."""
    I, J = tuple(sorted(I)), tuple(sorted(J))
    if not I or not J or sorted(I + J) != list(range(n + 1)):
        raise ValueError(f"({I}, {J}) is not a splitting of [0..{n}]")
    return I, J


def _site_interior_ok(I, phi, entries, rep, class_entries):
    """No face interior to the site may touch an entry outside it.

    Interior faces are phi(W) for J subseteq W, proper, with complement
    inside I; each is carried by the entry realizing any position of I
    outside W.
    """
    n = len(phi) - 1
    entry_set = set(entries)
    for drop_size in range(1, len(I) + 1):
        for dropped in itertools.combinations(I, drop_size):
            w = [k for k in range(n + 1) if k not in dropped]
            face = tuple(phi[k] for k in w)
            carrier = entries[I.index(dropped[0])]
            if not class_entries[rep[(carrier, face)]] <= entry_set:
                return False
    return True


def exhaustive_move_sites(t, I, J, classes):
    """find_move_sites as it was written first.  For |I| = 1 only I = (n,)
    has sites, one per entry in entry order: phi is the entry plus a label
    one above every label of t, and eps is sign * (-1)**n.  For |I| >= 2
    every pair of an entry e0 and a vertex label v is tried as
    phi = sorted(e0 + v), and every match must pass the interior check on
    t's ``face_classes``."""
    n = t.dim + 1
    if len(I) == 1:
        if I != (n,):
            return []
        fresh = max(v for vertices, _ in t.simplexes for v in vertices) + 1
        return [
            MoveSite(n, I, J, vertices + (fresh,), (e,), sign * (-1) ** n)
            for e, (vertices, sign) in enumerate(t.simplexes)
        ]
    rep = {occ: members for members in classes for occ in members}
    class_entries = {members: frozenset(e for e, _ in members) for members in classes}
    by_tuple = {}
    for e, (vertices, _) in enumerate(t.simplexes):
        by_tuple.setdefault(vertices, []).append(e)
    labels = sorted({v for vertices, _ in t.simplexes for v in vertices})
    i0 = I[0]
    sites = []

    def pos(j, i):
        return j - 1 if j > i else j

    def glued(e1, f1, e2, f2):
        return t.gluing.get((e1, f1)) == (e2, f2)

    for e0, (verts0, sign0) in enumerate(t.simplexes):
        for v in labels:
            if v in verts0:
                continue
            phi = tuple(sorted(verts0 + (v,)))
            if phi.index(v) != i0:
                continue
            eps = sign0 * (-1) ** i0

            def extend(assigned, remaining):
                if not remaining:
                    entries = tuple(assigned[i] for i in I)
                    if _site_interior_ok(I, phi, entries, rep, class_entries):
                        sites.append(MoveSite(n, I, J, phi, entries, eps))
                    return
                i = remaining[0]
                want = phi[:i] + phi[i + 1 :]
                for cand in by_tuple.get(want, ()):
                    if cand in assigned.values():
                        continue
                    if t.simplexes[cand][1] != eps * (-1) ** i:
                        continue
                    if all(glued(cand, pos(ip, i), assigned[ip], pos(i, ip)) for ip in assigned):
                        assigned[i] = cand
                        extend(assigned, remaining[1:])
                        del assigned[i]

            extend({i0: e0}, I[1:])

    sites.sort(key=lambda s: (s.phi, s.entries))
    return sites
