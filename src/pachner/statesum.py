"""State sums over oriented triangulated 4-manifolds.

Each pentachoron carries a copy of the solution tensor: Q when its sign
is +1, the conjugate (with all slot variances flipped) when -1.  The
tetrahedron ``boundary_face(entry, i)`` sits in slot i of that copy, so
a positively oriented pentachoron exposes its even facets as outputs and
its odd facets as inputs.  Gluing a tetrahedron between facet f1 of one
pentachoron and facet f2 of another contracts slot f1 against slot f2
with one measure weight; orientation coherence, sign*(-1)**facet opposite
on the two sides, is exactly the condition that the variances oppose.

Closed complexes contract to a single scalar; complexes with boundary
leave one slot per boundary tetrahedron, ordered by vertex tuple.

A tetrahedron whose two sides present the same variance is outside the
certified scope; ``build_assignment`` reports the face.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

from .scalars import Comparison, compare
from .simplicial import Triangulation, find_move_sites, apply_move
from .solutions import SolutionSpec
from .tensors import GroupTensor, UP, DOWN, contract, self_contract
from .verify import _resolve_backend

ARITY_GUARD = 22


def _slot_variance(sign: int, facet: int):
    return UP if sign * (-1) ** facet > 0 else DOWN


@dataclass
class StateSumAssignment:
    triangulation: Triangulation
    solution: SolutionSpec
    backend: str
    tensors: list  # one GroupTensor per pentachoron, Q or conj(Q)
    pairings: list  # ((entry, facet), (entry, facet)) per interior tetrahedron
    boundary: list  # (vertex tuple, entry, facet) per boundary tetrahedron, sorted


def build_assignment(t: Triangulation, sol: SolutionSpec, backend: str = "auto") -> StateSumAssignment:
    """Attach tensors to pentachora and pair slots along interior tetrahedra."""
    if t.dim != 4:
        raise ValueError(f"state sums need a 4-dimensional complex, got dim {t.dim}")
    if sol.q is None:
        raise ValueError("state sums need a solution tensor")
    bk = _resolve_backend(sol.q.domain, backend)
    q = sol.q if bk == "exact" else sol.q.to_float()
    qbar = q.conj()
    tensors = []
    for vertices, sign in t.simplexes:
        tensors.append(q if sign > 0 else qbar)

    pairings = []
    for (e1, f1), (e2, f2) in sorted(t.gluing.items()):
        if (e1, f1) > (e2, f2):
            continue
        s1 = t.simplexes[e1][1]
        s2 = t.simplexes[e2][1]
        v1 = _slot_variance(s1, f1)
        v2 = _slot_variance(s2, f2)
        if v1 == v2:
            raise ValueError(
                f"tetrahedron {t.facet(e1, f1)} is presented with equal variance by "
                f"entries {e1} and {e2}; outside the certified scope"
            )
        pairings.append(((e1, f1), (e2, f2)))

    boundary = sorted(
        (t.facet(e, f), e, f)
        for e in range(len(t.simplexes))
        for f in range(5)
        if (e, f) not in t.gluing
    )
    return StateSumAssignment(t, sol, bk, tensors, pairings, boundary)


class _Blob:
    """A partially contracted tensor with a label per remaining slot."""

    __slots__ = ("tensor", "labels")

    def __init__(self, tensor, labels):
        self.tensor = tensor
        self.labels = list(labels)

    def contract_internal(self):
        while True:
            seen = {}
            found = None
            for pos, label in enumerate(self.labels):
                if label[0] == "pair" and label in seen:
                    found = (seen[label], pos)
                    break
                seen[label] = pos
            if found is None:
                return
            i, j = found
            self.tensor = self_contract(self.tensor, i, j)
            del self.labels[j]
            del self.labels[i]

    def shared_pairs(self, other):
        mine = {label for label in self.labels if label[0] == "pair"}
        return sum(1 for label in other.labels if label in mine)

    def merge(self, other):
        """Contract every pairing the two blobs share in one join."""
        mine = {label: pos for pos, label in enumerate(self.labels) if label[0] == "pair"}
        bonds = [(mine[label], pos) for pos, label in enumerate(other.labels) if label in mine]
        arity = self.tensor.arity + other.tensor.arity - 2 * len(bonds)
        if arity > ARITY_GUARD:
            raise RuntimeError(
                f"intermediate tensor would carry {arity} slots (guard {ARITY_GUARD})"
            )
        s1 = [i for i, _ in bonds]
        s2 = [j for _, j in bonds]
        tensor = contract(self.tensor, s1, other.tensor, s2)
        labels = [l for p, l in enumerate(self.labels) if p not in s1] + [
            l for p, l in enumerate(other.labels) if p not in s2
        ]
        return _Blob(tensor, labels)


def partition(a: StateSumAssignment, order: str = "greedy") -> GroupTensor:
    """Contract all pairings; boundary slots stay, sorted by vertex tuple.

    ``order`` picks the contraction schedule: "greedy" merges the pair of
    blobs sharing the most pairings first, "left" folds pentachora in
    entry order.  Exact results are independent of the schedule.
    """
    slot_of = {}
    for idx, (a1, a2) in enumerate(a.pairings):
        slot_of[a1] = ("pair", idx)
        slot_of[a2] = ("pair", idx)
    for face, e, f in a.boundary:
        slot_of[(e, f)] = ("out", face, e, f)

    blobs = []
    for e, tensor in enumerate(a.tensors):
        blob = _Blob(tensor, [slot_of[(e, f)] for f in range(5)])
        blob.contract_internal()
        blobs.append(blob)
    if not blobs:
        raise ValueError("empty triangulation")

    if order == "left":
        acc = blobs[0]
        for blob in blobs[1:]:
            acc = acc.merge(blob)
    elif order == "greedy":
        while len(blobs) > 1:
            best = None
            for i in range(len(blobs)):
                for j in range(i + 1, len(blobs)):
                    key = (-blobs[i].shared_pairs(blobs[j]), i, j)
                    if best is None or key < best[0]:
                        best = (key, i, j)
            _, i, j = best
            merged = blobs[i].merge(blobs[j])
            blobs = [b for p, b in enumerate(blobs) if p not in (i, j)]
            blobs.append(merged)
        acc = blobs[0]
    else:
        raise ValueError(f"unknown contraction order {order!r}")

    assert all(label[0] == "out" for label in acc.labels)
    want = sorted(range(len(acc.labels)), key=lambda p: acc.labels[p][1:])
    return acc.tensor.permute(want)


def partition_value(a: StateSumAssignment, order: str = "greedy"):
    """The scalar of a closed complex."""
    if a.boundary:
        raise ValueError("complex has boundary; partition() returns a tensor")
    return partition(a, order).entry(())


def partition_bruteforce(t: Triangulation, sol: SolutionSpec, backend: str = "auto"):
    """Sum over all joint tetrahedron states of a closed complex.

    Pure enumeration: one state per interior tetrahedron, the product of
    one tensor entry per pentachoron, and one measure weight per
    tetrahedron.  Exponential; a cross-check for desk-size complexes.
    """
    a = build_assignment(t, sol, backend)
    if a.boundary:
        raise ValueError("brute force handles closed complexes only")
    domain = a.tensors[0].domain
    exact = a.tensors[0].exact
    state_slot = {}
    for idx, (s1, s2) in enumerate(a.pairings):
        state_slot[s1] = idx
        state_slot[s2] = idx
    npair = len(a.pairings)
    if exact:
        total = domain.ring.zero
        weight = domain.ring.radical(-npair)
    else:
        total = 0j
        weight = complex(domain.size ** (-0.5 * npair))
    elems = list(domain.elements())
    for state in itertools.product(elems, repeat=npair):
        prod = None
        for e, tensor in enumerate(a.tensors):
            val = tensor.entries.get(tuple(state[state_slot[(e, f)]] for f in range(5)))
            if val is None:
                prod = None
                break
            prod = val if prod is None else prod * val
        if prod is not None:
            total = total + prod
    return weight * total


def all_sites(t: Triangulation, p: int):
    """Move sites of type (p, n+1-p) over every splitting, in a fixed order."""
    n = t.dim + 1
    sites = []
    for I in itertools.combinations(range(n + 1), p):
        J = tuple(sorted(set(range(n + 1)) - set(I)))
        sites.extend(find_move_sites(t, I, J))
    return sites


@dataclass
class InvarianceReport:
    target: str
    backend: str
    verdict: str
    moves_applied: int
    initial_value: str
    move_type: str = "3,3"
    max_rel_error: float = 0.0
    witness: str = ""
    extras: dict = field(default_factory=dict)

    def __bool__(self):
        return self.verdict == "pass"

    def lines(self):
        out = [
            "relation=statesum-invariance",
            f"move_type={self.move_type}",
            f"target={self.target}",
            f"backend={self.backend}",
            f"verdict={self.verdict}",
            f"moves={self.moves_applied}",
            f"value={self.initial_value}",
        ]
        if self.backend == "float":
            out.append(f"max_rel_error={self.max_rel_error:.3e}")
        if self.witness:
            out.append(f"witness={self.witness}")
        for key in sorted(self.extras):
            out.append(f"{key}={self.extras[key]}")
        return out


def invariance_run(
    t: Triangulation,
    sol: SolutionSpec,
    count: int,
    seed: int,
    backend: str = "auto",
    p: int = 3,
) -> InvarianceReport:
    """Apply seeded moves of one type and recompute the value each time.

    The certified statement covers p = 3, the (3,3) move; other types are
    runnable for exploration but carry no invariance promise here.
    """
    if not t.is_closed():
        raise ValueError("invariance runs need a closed complex")
    n = t.dim + 1
    if not 1 <= p <= n:
        raise ValueError(f"move type ({p},{n + 1 - p}) needs 1 <= p <= {n}")
    move_type = f"{p},{n + 1 - p}"
    a = build_assignment(t, sol, backend)
    reference = partition_value(a)
    shown = reference.render() if a.backend == "exact" else format(reference, ".12g")
    rng = random.Random(seed)
    max_rel = 0.0
    applied = 0
    for step in range(count):
        sites = all_sites(t, p)
        if not sites:
            return InvarianceReport(
                target=sol.descriptor,
                backend=a.backend,
                verdict="pass",
                moves_applied=applied,
                initial_value=shown,
                move_type=move_type,
                max_rel_error=max_rel,
                extras={"note": f"no ({move_type}) site available after {applied} moves"},
            )
        site = sites[rng.randrange(len(sites))]
        t = apply_move(t, site)
        value = partition_value(build_assignment(t, sol, backend))
        if a.backend == "exact":
            verdict = compare(value, reference)
            if verdict is not Comparison.EQUAL:
                word = "fail" if verdict is Comparison.UNEQUAL else "indeterminate"
                return InvarianceReport(
                    target=sol.descriptor,
                    backend=a.backend,
                    verdict=word,
                    moves_applied=applied + 1,
                    initial_value=shown,
                    move_type=move_type,
                    witness=f"step {step}: value {value.render()} vs {shown}",
                )
        else:
            err = abs(value - reference) / max(abs(reference), 1e-30)
            max_rel = max(max_rel, err)
            if err > 1e-9:
                return InvarianceReport(
                    target=sol.descriptor,
                    backend=a.backend,
                    verdict="fail",
                    moves_applied=applied + 1,
                    initial_value=shown,
                    move_type=move_type,
                    max_rel_error=max_rel,
                    witness=f"step {step}: relative error {err:.3e}",
                )
        applied += 1
    return InvarianceReport(
        target=sol.descriptor,
        backend=a.backend,
        verdict="pass",
        moves_applied=applied,
        initial_value=shown,
        move_type=move_type,
        max_rel_error=max_rel,
        extras={"pentachora": len(t.simplexes)},
    )
