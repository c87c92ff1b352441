"""Combinatorial simplexes, oriented triangulations, and bistellar moves.

A combinatorial simplex is a strictly increasing tuple of integer vertex
labels.  A triangulation of dimension d is a list of oriented top
simplexes plus an explicit facet gluing: a pairing of facet occurrences
(entry index, facet index) along equal vertex tuples.  When every facet
vertex tuple occurs at most twice the gluing is derived automatically;
keeping it explicit lets the same vertex tuple occur several times, which
happens as soon as a bistellar move duplicates part of a sphere.

A bistellar (Pachner) move is determined by a splitting [n] = I u J of
the vertex positions of an n-simplex: the facets indexed by I are removed
and those indexed by J inserted.  Orientation bookkeeping uses a sign per
entry; a site matches when entry signs are eps*(-1)^i for a common eps,
and the inserted side carries -eps*(-1)^j, which is the unique choice
that keeps the seam coherent (and makes the inverse move available at
the produced site).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from types import MappingProxyType


def face_map(i: int, n: int) -> tuple[int, ...]:
    """The order-preserving injection [n-1] -> [n] missing i, as images."""
    if not 0 <= i <= n:
        raise ValueError(f"face index {i} out of range for dimension {n}")
    return tuple(j if j < i else j + 1 for j in range(n))


def compose_maps(outer, inner) -> tuple[int, ...]:
    return tuple(outer[k] for k in inner)


def boundary_face(s: tuple, i: int) -> tuple:
    """Remove the i-th smallest vertex."""
    if len(s) < 2:
        raise ValueError("a point has no facets")
    if not 0 <= i < len(s):
        raise ValueError(f"facet index {i} out of range for {s}")
    return s[:i] + s[i + 1 :]


def _pos(j: int, i: int) -> int:
    """Facet index of position j inside the simplex missing position i."""
    return j - 1 if j > i else j


# The face classes take one union-find node per (entry, nonempty vertex
# subset), 2**(dim+1) - 1 per simplex, so each extra dimension doubles
# them; a complex needing more than this many is refused before any node
# is made.  8,456 pentachora or a single 17-simplex pass; every shipped
# file has at most 30 pentachora, and the walks any test or benchmark runs
# stay within 138 (4,278 nodes).
FACE_NODES_LIMIT = 1 << 18

# A (p, q) move in dimension d has C(d + 2, p) splittings, which bound the
# entry choices the site enumeration tries per cone entry; check_move_type
# refuses a move with more than this many, before any search.
# The (10,10) move of a single 18-simplex (C(20, 10) = 184,756 splittings;
# all_sites returns its empty list in under 1 ms with Python 3.11 on a
# shared 2-core VM) passes; the (11,11) move of a 20-simplex
# (C(22, 11) = 705,432) does not.
SPLITTINGS_LIMIT = 1 << 18


def _new_forest(size: int) -> list:
    """A union-find forest over the integers 0 .. size - 1 as a parent
    list, every node its own root."""
    return list(range(size))


def _spread_masks(width: int, i: int) -> list:
    """The nonempty subsets of the facet missing position i of a simplex
    with ``width`` vertices, as masks over the simplex's positions: item
    m - 1 is the subset whose mask over the facet's own positions is m."""
    low = (1 << i) - 1
    return [(m & low) | ((m & ~low) << 1) for m in range(1, 1 << (width - 1))]


def check_move_type(dim: int, p: int) -> None:
    """Raise ValueError unless 1 <= p <= dim + 1 and the (p, dim + 2 - p)
    move has at most SPLITTINGS_LIMIT splittings: the one move-type rule,
    which every site search and invariance run applies first."""
    n = dim + 1
    if not 1 <= p <= n:
        raise ValueError(f"move type ({p},{n + 1 - p}) needs 1 <= p <= {n}")
    splittings = math.comb(dim + 2, p)
    if splittings > SPLITTINGS_LIMIT:
        raise ValueError(
            f"({p},{dim + 2 - p}) moves in dimension {dim} have {splittings} splittings, "
            f"over the limit of {SPLITTINGS_LIMIT}"
        )


@dataclass(frozen=True)
class MoveSite:
    """A matched location for the (|I|, |J|) move with vertex assignment phi."""

    n: int
    I: tuple[int, ...]
    J: tuple[int, ...]
    phi: tuple[int, ...]
    entries: tuple[int, ...]
    epsilon: int


class Triangulation:
    """Oriented top simplexes of one dimension plus explicit facet gluing.

    The gluing maps a facet occurrence (entry, facet index) to its partner
    and is involutive; occurrences absent from it form the boundary.
    Entries may repeat the same vertex tuple, so an occurrence is always
    addressed by entry index, never by vertex set.

    A triangulation is immutable once built (``gluing`` is a read-only
    mapping), so its face counts (``face_classes``, the f-vector), cone
    mates (shared by every move size from 2 on) and the move sites of
    each size |I|, 1 included, are each built at most once, on first use,
    and kept on the instance.
    """

    def __init__(self, dim: int, simplexes, gluing=None):
        self.dim = dim
        cleaned = []
        for vertices, sign in simplexes:
            vertices = tuple(vertices)
            if len(vertices) != dim + 1:
                raise ValueError(f"{vertices} is not a {dim}-simplex")
            if any(a >= b for a, b in zip(vertices, vertices[1:])):
                raise ValueError(f"vertices {vertices} not strictly increasing")
            if sign not in (1, -1):
                raise ValueError(f"orientation sign must be +-1, got {sign}")
            cleaned.append((vertices, sign))
        self.simplexes = tuple(cleaned)
        if gluing is None:
            self.gluing = MappingProxyType(self._derive_gluing())
        else:
            self.gluing = MappingProxyType(dict(gluing))
            self._validate_gluing()
        self._f_vector = self._mates = None
        self._sites = {}

    # -- construction helpers ------------------------------------------

    def _derive_gluing(self):
        by_tuple: dict[tuple, list] = {}
        for e, (vertices, _) in enumerate(self.simplexes):
            for i in range(self.dim + 1):
                by_tuple.setdefault(boundary_face(vertices, i), []).append((e, i))
        gluing = {}
        for face, occs in by_tuple.items():
            if len(occs) == 2:
                a, b = occs
                gluing[a] = b
                gluing[b] = a
            elif len(occs) > 2:
                raise ValueError(
                    f"facet {face} occurs {len(occs)} times; "
                    "explicit gluing data is required"
                )
        return gluing

    def _validate_gluing(self):
        gluing = self.gluing
        for e, i in gluing:
            if not (0 <= e < len(self.simplexes) and 0 <= i <= self.dim):
                raise ValueError(f"gluing references unknown occurrence {(e, i)}")
        # the involution is checked at every occurrence; a pair's facets are
        # compared at the first of its two occurrences, whose check the
        # second one would repeat
        compared = set()
        for occ, partner in gluing.items():
            if gluing.get(partner) != occ or partner == occ:
                raise ValueError(f"gluing is not a fixed-point-free involution at {occ}")
            if partner in compared:
                continue
            compared.add(occ)
            if self.facet(*occ) != self.facet(*partner):
                raise ValueError(
                    f"glued occurrences {occ} and {partner} have different vertices"
                )

    # -- basic queries --------------------------------------------------

    def facet(self, e: int, i: int) -> tuple:
        return boundary_face(self.simplexes[e][0], i)

    def boundary_facets(self):
        """Unglued facet occurrences as vertex tuples, with multiplicity."""
        out = []
        for e in range(len(self.simplexes)):
            for i in range(self.dim + 1):
                if (e, i) not in self.gluing:
                    out.append(self.facet(e, i))
        return sorted(out)

    def is_closed(self) -> bool:
        return len(self.gluing) == (self.dim + 1) * len(self.simplexes)

    def orientation_witness(self):
        """The least glued pair (occurrence, partner), occurrence < partner,
        that violates coherence, or None.

        Coherent means the two induced orientations sign*(-1)^facet are
        opposite across every glued pair.  This is the one coherence rule:
        ``statesum.build_assignment`` refuses a complex through it.
        """

        def induced(occ):
            return self.simplexes[occ[0]][1] * (-1) ** occ[1]

        incoherent = (
            (occ, partner)
            for occ, partner in self.gluing.items()
            if occ < partner and induced(occ) == induced(partner)
        )
        return min(incoherent, default=None)

    def face_classes(self) -> tuple:
        """The f-vector: entry k counts the faces with k + 1 vertices, a
        face of several entries counted once, one tuple of dim + 1 ints.

        Subsets of a glued facet pair are identified pointwise; labels
        match across a gluing, so pointwise is just equality of subsets.

        Raises ValueError, before building anything, when the complex needs
        more than FACE_NODES_LIMIT union-find nodes.
        """
        if self._f_vector is None:
            self._f_vector = self._build_face_classes()
        return self._f_vector

    def _build_face_classes(self) -> tuple:
        width = self.dim + 1
        nodes = len(self.simplexes) * ((1 << width) - 1)
        if nodes > FACE_NODES_LIMIT:
            raise ValueError(
                f"face classes of {len(self.simplexes)} top simplexes of dimension {self.dim} "
                f"need {nodes} nodes, over the limit of {FACE_NODES_LIMIT}"
            )
        # node e * 2**width + mask stands for (e, the vertices of entry e at
        # the mask's positions); mask 0 is never used.  Every node starts as
        # a class of its own, and each union of two classes takes one from
        # the count of their size, the popcount of either mask.  Both walks
        # up the forest halve the path they take.
        counts = [len(self.simplexes) * math.comb(width, k) for k in range(1, width + 1)]
        parent = _new_forest(len(self.simplexes) << width)
        spread = [_spread_masks(width, j) for j in range(width)]
        for (e, i), (e2, i2) in self.gluing.items():
            if (e2, i2) < (e, i):
                continue
            base, base2 = e << width, e2 << width
            # the same vertex subset of the glued facet, seen from either side
            for m, m2 in zip(spread[i], spread[i2]):
                x, y = base + m, base2 + m2
                while parent[x] != x:
                    parent[x] = x = parent[parent[x]]
                while parent[y] != y:
                    parent[y] = y = parent[parent[y]]
                if x != y:
                    parent[y] = x
                    counts[m.bit_count() - 1] -= 1
        return tuple(counts)

    def _move_sites(self, p: int) -> dict:
        """The sites of every (p, n + 1 - p) move, keyed by I, each tuple in
        (phi, entries) order; enumerated on first use of size p."""
        if p not in self._sites:
            self._sites[p] = self._enumerate_sites(p)
        return self._sites[p]

    def _find_cone_mates(self) -> tuple:
        """Every cone entry with its mates, for all move sizes p >= 2 at once.

        A cone is a site-search candidate: an n-simplex phi = e + v, for an
        entry e and a vertex v opposite e across a glued facet, whose rows
        map the position of v in phi to {e: sign(e) * (-1)**position}.
        One (phi, i0, e0, eps, mates) row per entry e0 at position i0 of a
        cone phi, cones, positions and entries in increasing order, for
        each entry with a mate.  Every other entry of a site is e0's
        partner across the facet missing that entry's position, so
        ``mates`` lists, by position i > i0, that partner when the cone's
        row at i holds it with the same eps (glued facets share their
        vertices, so a partner in the row is glued along its facet missing
        e0's position).
        """
        gluing = self.gluing
        index: dict[tuple, dict[int, dict[int, int]]] = {}
        for (e, _), (e2, f2) in gluing.items():
            vertices, sign = self.simplexes[e]
            v = self.simplexes[e2][0][f2]
            if v not in vertices:
                phi = tuple(sorted(vertices + (v,)))
                k = phi.index(v)
                index.setdefault(phi, {}).setdefault(k, {})[e] = sign * (-1) ** k
        cones = []
        for phi in sorted(index):
            rows = {k: dict(sorted(row.items())) for k, row in sorted(index[phi].items())}
            for i0, row in rows.items():
                for e0, eps in row.items():
                    mates = []
                    for i in rows:
                        if i > i0:
                            partner = gluing.get((e0, _pos(i, i0)))
                            if partner and rows[i].get(partner[0]) == eps:
                                mates.append((i, partner[0]))
                    if mates:
                        cones.append((phi, i0, e0, eps, tuple(mates)))
        return tuple(cones)

    def _enumerate_sites(self, p: int) -> dict:
        """The sites of size p.

        For p = 1 only I = (n,) has sites, one per entry, coned to a fresh
        vertex max(labels) + 1 (the largest last vertex of an entry, as
        every vertex tuple is increasing), which is order consistent
        exactly in the last position.  For p >= 2 they come from the cone
        mates (found once per complex): p - 1 mates of a cone entry form a
        site when each two of them are glued along the facet missing the
        other's position."""
        n = self.dim + 1
        if p == 1:
            fresh = max((vertices[-1] for vertices, _ in self.simplexes), default=-1) + 1
            I, J = (n,), tuple(range(n))
            sites = (
                MoveSite(n, I, J, vertices + (fresh,), (e,), sign * (-1) ** n)
                for e, (vertices, sign) in enumerate(self.simplexes)
            )
            return {I: tuple(sites)}
        if self._mates is None:
            self._mates = self._find_cone_mates()
        gluing = self.gluing
        by_I: dict[tuple, list] = {}
        for phi, i0, e0, eps, mates in self._mates:
            for chosen in itertools.combinations(mates, p - 1):
                if all(
                    gluing.get((e, _pos(i2, i))) == (e2, _pos(i, i2))
                    for (i, e), (i2, e2) in itertools.combinations(chosen, 2)
                ):
                    I = (i0, *(i for i, _ in chosen))
                    J = tuple(k for k in range(n + 1) if k not in I)
                    entries = (e0, *(e for _, e in chosen))
                    by_I.setdefault(I, []).append(MoveSite(n, I, J, phi, entries, eps))
        return {I: tuple(sites) for I, sites in by_I.items()}

    def euler_characteristic(self) -> int:
        """The alternating sum f_0 - f_1 + f_2 - ... of the f-vector."""
        return sum((-1) ** k * f for k, f in enumerate(self.face_classes()))

    def __repr__(self):
        return (
            f"<Triangulation dim={self.dim} top={len(self.simplexes)} "
            f"boundary={len(self.boundary_facets())}>"
        )

    # -- file format -----------------------------------------------------

    def to_lines(self):
        keyword = "pent" if self.dim == 4 else "simp"
        lines = [f"dim {self.dim}"]
        for vertices, sign in self.simplexes:
            mark = "+" if sign > 0 else "-"
            lines.append(f"{keyword} {' '.join(str(v) for v in vertices)} {mark}")
        try:
            derivable = self._derive_gluing() == self.gluing
        except ValueError:
            derivable = False
        if not derivable:
            seen = set()
            for occ in sorted(self.gluing):
                partner = self.gluing[occ]
                if (partner, occ) in seen:
                    continue
                seen.add((occ, partner))
                lines.append(f"glue {occ[0]} {occ[1]} {partner[0]} {partner[1]}")
        return lines

    def save(self, path):
        with open(path, "w") as fh:
            fh.write("\n".join(self.to_lines()) + "\n")

    @staticmethod
    def from_lines(lines) -> "Triangulation":
        dim = None
        simplexes = []
        gluing = {}
        saw_glue = False
        for lineno, raw in enumerate(lines, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if parts[0] == "dim":
                if dim is not None:
                    raise ValueError(f"line {lineno}: duplicate dim header")
                if len(parts) != 2:
                    raise ValueError(f"line {lineno}: dim takes one integer")
                (dim,) = _ints(parts[1:], lineno)
            elif parts[0] in ("pent", "simp"):
                if dim is None:
                    raise ValueError(f"line {lineno}: dim header must come first")
                if parts[0] == "pent" and dim != 4:
                    raise ValueError(f"line {lineno}: pent lines need dim 4")
                if len(parts) != dim + 3:
                    raise ValueError(f"line {lineno}: expected {dim + 1} vertices and a sign")
                if parts[-1] not in ("+", "-"):
                    raise ValueError(f"line {lineno}: sign must be + or -")
                vertices = _ints(parts[1:-1], lineno)
                simplexes.append((vertices, 1 if parts[-1] == "+" else -1))
            elif parts[0] == "glue":
                if len(parts) != 5:
                    raise ValueError(f"line {lineno}: glue takes four integers")
                e1, f1, e2, f2 = _ints(parts[1:], lineno)
                gluing[(e1, f1)] = (e2, f2)
                gluing[(e2, f2)] = (e1, f1)
                saw_glue = True
            else:
                raise ValueError(f"line {lineno}: unknown keyword {parts[0]!r}")
        if dim is None:
            raise ValueError("missing dim header")
        return Triangulation(dim, simplexes, gluing if saw_glue else None)

    @staticmethod
    def load(path) -> "Triangulation":
        with open(path) as fh:
            return Triangulation.from_lines(fh)


def _ints(words, lineno):
    try:
        return tuple(int(w) for w in words)
    except ValueError:
        raise ValueError(f"line {lineno}: expected integers, got {' '.join(words)!r}") from None


def simplex_boundary(n: int) -> Triangulation:
    """The boundary sphere of an n-simplex with facet signs (-1)^i."""
    labels = tuple(range(n + 1))
    entries = [
        (labels[:i] + labels[i + 1 :], (-1) ** i) for i in range(n + 1)
    ]
    return Triangulation(n - 1, entries)


def _check_splitting(n, I, J):
    """(I, J) as sorted tuples; raises ValueError unless they split [0..n]
    into two nonempty parts.  A splitting is checked once while it stays
    in ``_check_tuples``'s cache, keyed by (I, J) as tuples."""
    return _check_tuples(n, tuple(I), tuple(J))


# There are 2**(n + 1) - 2 splittings of [0..n]; the cache keeps the 4,096
# last used, and caches no refusal.
@functools.lru_cache(maxsize=1 << 12)
def _check_tuples(n, I, J):
    sI, sJ = tuple(sorted(I)), tuple(sorted(J))
    if not sI or not sJ or sorted(sI + sJ) != list(range(n + 1)):
        raise ValueError(f"({sI}, {sJ}) is not a splitting of [0..{n}]")
    return sI, sJ


def pachner_sides(n: int, I, J):
    """The before and after balls of the (|I|, |J|) move on an n-simplex.

    Before: facets indexed by I with signs (-1)^i; after: facets indexed
    by J with signs -(-1)^j.  The two balls share their outer boundary
    with equal induced orientations, so the after ball can replace the
    before ball inside any complex.
    """
    I, J = _check_splitting(n, I, J)
    labels = tuple(range(n + 1))
    before = Triangulation(
        n - 1,
        [(labels[:i] + labels[i + 1 :], (-1) ** i) for i in I],
    )
    after = Triangulation(
        n - 1,
        [(labels[:j] + labels[j + 1 :], -((-1) ** j)) for j in J],
    )
    return before, after


def find_move_sites(t: Triangulation, I, J) -> list[MoveSite]:
    """All matched sites for the (|I|, |J|) move, lexicographically ordered.

    A site needs: entries realizing the I-indexed facets of an n-simplex
    under an order-preserving vertex assignment phi, signs eps*(-1)^i, and
    mutual gluings along the internal faces.  The first search of a size
    lists the sites of every splitting of that size at once, and later
    searches of that size on ``t`` read them, as ``all_sites`` does.  For
    |I| = 1 only I = {n} has sites: the fresh vertex is max(labels)+1,
    which is order consistent exactly in the last position.  For |I| >= 2
    every entry of a site is glued to the others, so phi is one of its
    cones, an entry plus the vertex opposite it across a glued facet; the
    entries that can join each cone entry in a site, its mates, are found
    once per complex and shared by every size.  A splitting is validated
    once while it stays in a cache of the 4,096 last used.  Each call
    returns a new list.  Raises ValueError, before enumerating anything,
    when ``check_move_type`` refuses the move.

    No face interior to a site touches an entry outside it, so that move
    condition needs no check of its own.  Such a face is phi minus a set D
    of positions of I; for |D| = 1 it is a site entry itself, and for
    |D| >= 2 it lies in the entries at the positions in D, and each of
    their facets containing it is one of the pairwise gluings required
    above.  A facet is glued at most once, so no identification of the
    face leaves those entries.
    """
    n = t.dim + 1
    I, J = _check_splitting(n, I, J)
    check_move_type(t.dim, len(I))
    return list(t._move_sites(len(I)).get(I, ()))


def all_sites(t: Triangulation, p: int) -> list[MoveSite]:
    """Move sites of type (p, n+1-p) over every splitting, in a fixed order.

    The order is ``find_move_sites`` on each splitting in turn, I in
    lexicographic order.  One enumeration lists the sites of every
    splitting of size p, keyed by the splittings that have a site (for
    p = 1 only I = (n,)), and they are read in that order, so the
    C(n + 1, p) splittings are not visited one by one.  Raises
    ValueError, before any site search, when ``check_move_type`` refuses
    the move.
    """
    check_move_type(t.dim, p)
    by_I = t._move_sites(p)
    return [site for I in sorted(by_I) for site in by_I[I]]


def apply_move(t: Triangulation, site: MoveSite) -> Triangulation:
    """Replace the I-side of the site by the J-side, regluing the seam.

    Raises ValueError for a stale site, one that ``find_move_sites`` does
    not return on t; once t's sites of that size are listed, that check is
    a lookup.  The moved complex validates its gluing as it is built.
    """
    current = find_move_sites(t, site.I, site.J)
    if site not in current:
        raise ValueError("stale site: it does not match the triangulation")
    n, I, J, phi, eps = site.n, site.I, site.J, site.phi, site.epsilon
    removed = set(site.entries)
    role = {e: i for e, i in zip(site.entries, I)}

    keep = [e for e in range(len(t.simplexes)) if e not in removed]
    renumber = {e: k for k, e in enumerate(keep)}
    new_simplexes = [t.simplexes[e] for e in keep]
    new_index = {}
    for j in J:
        new_index[j] = len(new_simplexes)
        new_simplexes.append(
            (phi[:j] + phi[j + 1 :], -eps * (-1) ** j)
        )

    gluing = {}
    for (e, f), (e2, f2) in t.gluing.items():
        if e in removed and e2 in removed:
            continue  # internal to the site, disappears
        if e in removed:
            continue  # handled from the partner side below
        if e2 in removed:
            i = role[e2]
            x = f2 if f2 < i else f2 + 1  # splitting position of the removed vertex
            if x not in J:
                raise AssertionError("facet between site entries escaped skip")
            gluing[(renumber[e], f)] = (new_index[x], _pos(i, x))
            gluing[(new_index[x], _pos(i, x))] = (renumber[e], f)
        else:
            gluing[(renumber[e], f)] = (renumber[e2], f2)
    for j, j2 in itertools.combinations(J, 2):
        a = (new_index[j], _pos(j2, j))
        b = (new_index[j2], _pos(j, j2))
        gluing[a] = b
        gluing[b] = a
    return Triangulation(t.dim, new_simplexes, gluing)
