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

import itertools
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


class _UnionFind:
    def __init__(self):
        self.parent = {}

    def find(self, x):
        parent = self.parent
        root = parent.setdefault(x, x)
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[ry] = rx


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
    mapping), so its labels, face classes and site-search index are each
    built at most once, on first use, and kept on the instance.
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
        self._labels = self._classes = self._index = None

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
        for e, i in self.gluing:
            if not (0 <= e < len(self.simplexes) and 0 <= i <= self.dim):
                raise ValueError(f"gluing references unknown occurrence {(e, i)}")
        for occ, partner in self.gluing.items():
            if self.gluing.get(partner) != occ or partner == occ:
                raise ValueError(f"gluing is not a fixed-point-free involution at {occ}")
            if self.facet(*occ) != self.facet(*partner):
                raise ValueError(
                    f"glued occurrences {occ} and {partner} have different vertices"
                )

    # -- basic queries --------------------------------------------------

    def facet(self, e: int, i: int) -> tuple:
        return boundary_face(self.simplexes[e][0], i)

    def labels(self) -> tuple:
        """The vertex labels in increasing order."""
        if self._labels is None:
            self._labels = tuple(sorted({v for vertices, _ in self.simplexes for v in vertices}))
        return self._labels

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
        """A glued pair violating coherence, or None.

        Coherent means the two induced orientations sign*(-1)^facet are
        opposite across every glued pair.
        """
        for (e, i), (e2, i2) in self.gluing.items():
            s1 = self.simplexes[e][1] * (-1) ** i
            s2 = self.simplexes[e2][1] * (-1) ** i2
            if s1 == s2:
                return ((e, i), (e2, i2))
        return None

    def face_classes(self) -> MappingProxyType:
        """Faces of all dimensions, identified through the gluing.

        Returns a read-only map from class representative to the frozenset
        of member occurrences (entry, vertex subset).  Subsets of a glued
        facet pair are identified pointwise; labels match across a gluing,
        so pointwise is just equality of subsets.

        Raises ValueError, before building anything, when the complex needs
        more than FACE_NODES_LIMIT union-find nodes.
        """
        if self._classes is None:
            self._classes = MappingProxyType(self._build_face_classes())
        return self._classes

    def _build_face_classes(self) -> dict:
        nodes = len(self.simplexes) * (2 ** (self.dim + 1) - 1)
        if nodes > FACE_NODES_LIMIT:
            raise ValueError(
                f"face classes of {len(self.simplexes)} top simplexes of dimension {self.dim} "
                f"need {nodes} nodes, over the limit of {FACE_NODES_LIMIT}"
            )
        uf = _UnionFind()
        for e, (vertices, _) in enumerate(self.simplexes):
            for k in range(1, len(vertices) + 1):
                for sub in itertools.combinations(vertices, k):
                    uf.find((e, sub))
        seen = set()
        for occ, partner in self.gluing.items():
            pair = frozenset((occ, partner))
            if pair in seen:
                continue
            seen.add(pair)
            (e, i), (e2, _) = occ, partner
            face = self.facet(e, i)
            for k in range(1, len(face) + 1):
                for sub in itertools.combinations(face, k):
                    uf.union((e, sub), (e2, sub))
        classes: dict = {}
        for key in uf.parent:
            classes.setdefault(uf.find(key), set()).add(key)
        return {root: frozenset(members) for root, members in classes.items()}

    def _site_index(self) -> tuple:
        """(by_tuple, cones) for find_move_sites: vertex tuple to entries,
        and per entry e the simplexes e + v, keyed by the position of v,
        for each v opposite e across a glued facet."""
        if self._index is None:
            by_tuple: dict[tuple, list[int]] = {}
            for e, (vertices, _) in enumerate(self.simplexes):
                by_tuple.setdefault(vertices, []).append(e)
            cones: list[dict[int, set[tuple]]] = [{} for _ in self.simplexes]
            for (e, _), (e2, f2) in self.gluing.items():
                vertices, v = self.simplexes[e][0], self.simplexes[e2][0][f2]
                if v not in vertices:
                    phi = tuple(sorted(vertices + (v,)))
                    cones[e].setdefault(phi.index(v), set()).add(phi)
            self._index = (by_tuple, cones)
        return self._index

    def euler_characteristic(self) -> int:
        total = 0
        for members in self.face_classes().values():
            size = len(next(iter(members))[1])
            total += (-1) ** (size - 1)
        return total

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
    I, J = tuple(sorted(I)), tuple(sorted(J))
    if not I or not J or sorted(I + J) != list(range(n + 1)):
        raise ValueError(f"({I}, {J}) is not a splitting of [0..{n}]")
    return I, J


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
    mutual gluings along the internal faces.  For |I| = 1 only I = {n} is
    supported; the fresh vertex is max(labels)+1, which is order
    consistent exactly in the last position.
    """
    n = t.dim + 1
    I, J = _check_splitting(n, I, J)
    if len(I) == 1:
        if I != (n,):
            return []
        fresh = (t.labels()[-1] + 1) if t.simplexes else 0
        sites = []
        for e, (vertices, sign) in enumerate(t.simplexes):
            phi = vertices + (fresh,)
            eps = sign * (-1) ** n
            sites.append(MoveSite(n, I, J, phi, (e,), eps))
        return sites

    # No face interior to a site touches an entry outside it, so that move
    # condition needs no check of its own.  Such a face is phi minus a set D
    # of positions of I; for |D| = 1 it is a site entry itself, and for
    # |D| >= 2 it lies in the entries at the positions in D, and each of
    # their facets containing it is one of the pairwise gluings required
    # below.  A facet is glued at most once, so no identification of the
    # face leaves those entries.
    by_tuple, cones = t._site_index()
    i0 = I[0]
    sites = []

    def glued(e1, f1, e2, f2):
        return t.gluing.get((e1, f1)) == (e2, f2)

    for e0, (_, sign0) in enumerate(t.simplexes):
        # every other entry of a site is glued to e0 and carries v = phi[i0],
        # so phi is one of e0's cones: v lies opposite e0 across a glued facet
        for phi in cones[e0].get(i0, ()):
            eps = sign0 * (-1) ** i0
            # assign entries to the remaining positions of I in order
            def extend(assigned, remaining):
                if not remaining:
                    entries = tuple(assigned[i] for i in I)
                    sites.append(MoveSite(n, I, J, phi, entries, eps))
                    return
                i = remaining[0]
                want = phi[:i] + phi[i + 1 :]
                for cand in by_tuple.get(want, ()):
                    if cand in assigned.values():
                        continue
                    if t.simplexes[cand][1] != eps * (-1) ** i:
                        continue
                    if all(
                        glued(cand, _pos(ip, i), assigned[ip], _pos(i, ip))
                        for ip in assigned
                    ):
                        assigned[i] = cand
                        extend(assigned, remaining[1:])
                        del assigned[i]

            extend({i0: e0}, I[1:])

    sites.sort(key=lambda s: (s.phi, s.entries))
    return sites


def apply_move(t: Triangulation, site: MoveSite) -> Triangulation:
    """Replace the I-side of the site by the J-side, regluing the seam."""
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
