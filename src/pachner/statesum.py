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
from dataclasses import dataclass

from .scalars import compare
from .simplicial import Triangulation, find_move_sites, apply_move
from .solutions import SolutionSpec
from .tensors import GroupTensor, UP, DOWN, contract, self_contract
from .verify import _VERDICTS, Report, _in_backend

ARITY_GUARD = 22


def _slot_variance(sign: int, facet: int):
    return UP if sign * (-1) ** facet > 0 else DOWN


@dataclass
class StateSumAssignment:
    triangulation: Triangulation
    solution: SolutionSpec
    tensors: list  # one GroupTensor per pentachoron, Q or conj(Q)
    pairings: list  # ((entry, facet), (entry, facet)) per interior tetrahedron
    boundary: list  # (vertex tuple, entry, facet) per boundary tetrahedron, sorted


def build_assignment(t: Triangulation, sol: SolutionSpec, backend: str = "auto") -> StateSumAssignment:
    """Attach tensors to pentachora and pair slots along interior tetrahedra."""
    if t.dim != 4:
        raise ValueError(f"state sums need a 4-dimensional complex, got dim {t.dim}")
    if sol.q is None:
        raise ValueError("state sums need a solution tensor")
    q = _in_backend(sol.q, backend)
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
    return StateSumAssignment(t, sol, tensors, pairings, boundary)


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
    domain, ring = a.tensors[0].domain, a.tensors[0].ring
    state_slot = {}
    for idx, (s1, s2) in enumerate(a.pairings):
        state_slot[s1] = idx
        state_slot[s2] = idx
    npair = len(a.pairings)
    total = ring.zero
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
    return ring.radical(-npair) * total


def all_sites(t: Triangulation, p: int):
    """Move sites of type (p, n+1-p) over every splitting, in a fixed order."""
    n = t.dim + 1
    sites = []
    for I in itertools.combinations(range(n + 1), p):
        J = tuple(sorted(set(range(n + 1)) - set(I)))
        sites.extend(find_move_sites(t, I, J))
    return sites


def invariance_run(
    t: Triangulation,
    sol: SolutionSpec,
    count: int,
    seed: int,
    backend: str = "auto",
    p: int = 3,
) -> Report:
    """Apply seeded moves of one type and recompute the value each time.

    The certified statement covers p = 3, the (3,3) move; other types are
    runnable for exploration but carry no invariance promise here.  The
    exact backend compares values as ring elements; the float backend
    fails a relative error above 1e-9 and reports the largest it saw.
    """
    if count < 0:
        raise ValueError(f"move count must be >= 0, got {count}")
    if not t.is_closed():
        raise ValueError("invariance runs need a closed complex")
    n = t.dim + 1
    if not 1 <= p <= n:
        raise ValueError(f"move type ({p},{n + 1 - p}) needs 1 <= p <= {n}")
    move_type = f"{p},{n + 1 - p}"
    a = build_assignment(t, sol, backend)
    ring = a.tensors[0].ring
    reference = partition_value(a)
    shown = ring.render(reference)
    rng = random.Random(seed)
    verdict, witness, extras, max_rel, applied = "pass", "", {}, 0.0, 0
    for step in range(count):
        sites = all_sites(t, p)
        if not sites:
            extras = {"note": f"no ({move_type}) site available after {applied} moves"}
            break
        t = apply_move(t, sites[rng.randrange(len(sites))])
        value = partition_value(build_assignment(t, sol, backend))
        applied += 1
        if ring.name == "exact":
            verdict = _VERDICTS[compare(value, reference)]
            detail = f"value {ring.render(value)} vs {shown}"
        else:
            err = abs(value - reference) / max(abs(reference), 1e-30)
            max_rel = max(max_rel, err)
            verdict = "fail" if err > 1e-9 else "pass"
            detail = f"relative error {err:.3e}"
        if verdict != "pass":
            witness = f"step {step}: {detail}"
            break
    else:
        extras = {"pentachora": len(t.simplexes)}
    fields = {
        "move_type": move_type,
        "target": sol.descriptor,
        "backend": ring.name,
        "verdict": verdict,
        "moves": applied,
        "value": shown,
    }
    if ring.name == "float":
        fields["max_rel_error"] = max_rel
    return Report("statesum-invariance", fields, witness, extras)
