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

``plan`` computes the merge steps from slot labels alone; ``partition``
checks every step against ``ARITY_GUARD`` (slots) and ``ENTRY_GUARD``
(|V| ** slots, the most entries the step can hold) before any tensor
work, then makes one ``contract`` call per step.  No pentachoron is glued
to itself (the facets of one simplex differ), so every bound pair joins
two operands.

A tetrahedron whose two sides present the same variance is outside the
certified scope; ``build_assignment`` reports the face that
``Triangulation.orientation_witness`` names.  The move types, their
sites and the order ``walk`` reads them in are ``simplicial``'s:
``check_move_type`` and ``all_sites``.

(3,3)-invariance is certified for the bicharacter solutions only.  Q is
wired by facet index, and no slot permutation but the identity and the
reversal maps Q to a multiple of itself, so that scope rests on the
seeded move walks and the duality theorem's kernels, not on a slot
symmetry; a group-algebra triple's state sum changes under some (3,3)
moves (on the 4-sphere, triple:groupalg:Z2 goes from 8 to 16 at the
first move of the seed-5 walk).
"""

from __future__ import annotations

import collections
import functools
import heapq
import itertools
import random
from dataclasses import dataclass

from .scalars import FLOAT_REL, compare
from .simplicial import Triangulation, all_sites, apply_move, check_move_type
from .solutions import SolutionSpec
from .tensors import GroupTensor, Report, contract, in_backend

ARITY_GUARD = 22
# A step over a domain of size n may hold up to n**arity entries; no step may
# exceed a Z2 step at the slot guard.  This admits Z3 up to 13 slots and the
# 6-element basis of triple:groupalg:S3 up to 8.
ENTRY_GUARD = 2**ARITY_GUARD


@dataclass
class StateSumAssignment:
    tensors: list  # one GroupTensor per pentachoron, Q or conj(Q)
    pairings: list  # ((entry, facet), (entry, facet)) per interior tetrahedron
    boundary: list  # (vertex tuple, entry, facet) per boundary tetrahedron, sorted


def build_assignment(t: Triangulation, sol: SolutionSpec, backend: str = "exact") -> StateSumAssignment:
    """Attach tensors to pentachora and pair slots along interior tetrahedra."""
    if t.dim != 4:
        raise ValueError(f"state sums need a 4-dimensional complex, got dim {t.dim}")
    if sol.q is None:
        raise ValueError("state sums need a solution tensor")
    q = in_backend(sol.q, backend)
    qbar = q.conj()
    tensors = [q if sign > 0 else qbar for _, sign in t.simplexes]
    witness = t.orientation_witness()
    if witness is not None:
        (e1, f1), (e2, _) = witness
        raise ValueError(
            f"tetrahedron {t.facet(e1, f1)} is presented with equal variance by "
            f"entries {e1} and {e2}; outside the certified scope"
        )
    pairings = sorted((occ, partner) for occ, partner in t.gluing.items() if occ < partner)
    boundary = sorted(
        (t.facet(e, f), e, f)
        for e in range(len(t.simplexes))
        for f in range(5)
        if (e, f) not in t.gluing
    )
    return StateSumAssignment(tensors, pairings, boundary)


Step = collections.namedtuple("Step", "left right s1 s2 arity")


def slot_labels(a: StateSumAssignment) -> list:
    """One label per slot of each pentachoron; glued slots share theirs."""
    label = {occ: ("pair", idx) for idx, pair in enumerate(a.pairings) for occ in pair}
    label.update({(e, f): ("out", pos) for pos, (_, e, f) in enumerate(a.boundary)})
    return [tuple(label[(e, f)] for f in range(5)) for e in range(len(a.tensors))]


def plan(labels, order: str = "greedy"):
    """The merge steps for operands with these slot labels, and the labels
    of the last operand.

    Operands 0..n-1 are the inputs.  Step k binds slots s1 of operand
    ``left`` to slots s2 of operand ``right``, every label the two share,
    into operand n + k with ``arity`` slots.  "greedy" merges the live pair
    whose result has the fewest slots, a + b - 2 * shared, ties to the pair
    sharing the most labels, then to the lowest operand numbers; "left"
    folds operands 1, 2, ... into the accumulator.
    """
    ops = [tuple(l) for l in labels]
    if not ops:
        raise ValueError("empty triangulation")
    steps = []

    def merge(i, j):
        shared = set(ops[i]).intersection(ops[j])
        s2 = tuple(p for p, l in enumerate(ops[j]) if l in shared)
        ops.append(tuple(l for l in ops[i] + ops[j] if l not in shared))
        steps.append(Step(i, j, tuple(ops[i].index(ops[j][p]) for p in s2), s2, len(ops[-1])))
        return len(ops) - 1

    if order == "left":
        functools.reduce(merge, range(1, len(ops)), 0)
    elif order == "greedy":
        # a pair's key never changes while both operands live, so the keys
        # wait in a heap and each merge adds only the pairs with its result
        label_sets = [set(l) for l in ops]

        def cost(x, y):
            shared = len(label_sets[x].intersection(label_sets[y]))
            return len(ops[x]) + len(ops[y]) - 2 * shared, -shared, x, y

        heap = [cost(x, y) for x, y in itertools.combinations(range(len(ops)), 2)]
        heapq.heapify(heap)
        live = set(range(len(ops)))
        while len(live) > 1:
            *_, x, y = heapq.heappop(heap)
            if x in live and y in live:
                live -= {x, y}
                z = merge(x, y)
                label_sets.append(set(ops[z]))
                for w in live:
                    heapq.heappush(heap, cost(w, z))
                live.add(z)
    else:
        raise ValueError(f"unknown contraction order {order!r}")
    return steps, ops[-1]


def check_plan(steps, size: int) -> None:
    """Refuse a plan whose steps would exceed ARITY_GUARD slots, or whose
    steps over ``size`` states per slot could hold more than ENTRY_GUARD
    entries (size ** arity), with a ValueError."""
    for step in steps:
        if step.arity > ARITY_GUARD:
            raise ValueError(
                f"intermediate tensor would carry {step.arity} slots (guard {ARITY_GUARD})"
            )
    for step in steps:
        if size**step.arity > ENTRY_GUARD:
            raise ValueError(
                f"intermediate tensor of {step.arity} slots over {size} states may hold "
                f"{size**step.arity} entries (guard {ENTRY_GUARD})"
            )


def partition(a: StateSumAssignment, order: str = "greedy") -> GroupTensor:
    """Contract all pairings; boundary slots stay, sorted by vertex tuple.

    ``order`` names the ``plan`` schedule, "greedy" or "left".  Exact
    results are independent of it.
    """
    steps, free = plan(slot_labels(a), order)
    check_plan(steps, a.tensors[0].domain.size)
    ops = dict(enumerate(a.tensors))
    for k, (left, right, s1, s2, _) in enumerate(steps, len(ops)):
        ops[k] = contract(ops.pop(left), s1, ops.pop(right), s2)
    (result,) = ops.values()
    return result.permute(sorted(range(len(free)), key=free.__getitem__))


def partition_value(a: StateSumAssignment, order: str = "greedy"):
    """The scalar of a closed complex."""
    if a.boundary:
        raise ValueError("complex has boundary; partition() returns a tensor")
    return partition(a, order).entry(())


def partition_bruteforce(t: Triangulation, sol: SolutionSpec, backend: str = "exact"):
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
    # each distinct tensor (Q and conj(Q)) read into a dict once: a float
    # tensor's entries find one key by a scan of its codes
    distinct = {id(tensor): tensor for tensor in a.tensors}
    tables = {key: dict(tensor.entries.items()) for key, tensor in distinct.items()}
    entries = [tables[id(tensor)] for tensor in a.tensors]
    total = ring.zero
    for state in itertools.product(domain.elements(), repeat=npair):
        prod = None
        for e, table in enumerate(entries):
            val = table.get(tuple(state[state_slot[(e, f)]] for f in range(5)))
            if val is None:
                prod = None
                break
            prod = val if prod is None else prod * val
        if prod is not None:
            total = total + prod
    return ring.radical(-npair) * total


def walk(t: Triangulation, types, rng):
    """A seeded walk of Pachner moves: yields (site, moved complex) per step.

    Each step lists ``all_sites(t, p)`` for every p in ``types`` in that
    order, applies the site ``rng`` picks and walks on from the result.  The
    walk ends when no site is left.  Sites are searched only when the next
    step is asked for, so ``islice(walk(...), count)`` searches ``count``
    times at most.
    """
    while True:
        sites = [site for p in types for site in all_sites(t, p)]
        if not sites:
            return
        site = sites[rng.randrange(len(sites))]
        t = apply_move(t, site)
        yield site, t


def invariance_run(
    t: Triangulation,
    sol: SolutionSpec,
    count: int,
    seed: int,
    backend: str = "exact",
    p: int = 3,
) -> Report:
    """Apply seeded moves of one type and recompute the value each time.

    The certified statement covers p = 3, the (3,3) move, for the
    bicharacter solutions; other types, and the group-algebra triples
    (whose state sums change under some (3,3) moves), are runnable for
    exploration but carry no invariance promise here.  The
    exact backend compares values as ring elements; the float backend
    fails a relative error above FLOAT_REL and reports the largest it
    saw.  The moves are the first ``count`` steps of ``walk`` seeded with
    ``seed``; a walk that runs out of sites before then ends the run with
    a note.
    """
    if count < 0:
        raise ValueError(f"move count must be >= 0, got {count}")
    if not t.is_closed():
        raise ValueError("invariance runs need a closed complex")
    check_move_type(t.dim, p)
    move_type = f"{p},{t.dim + 2 - p}"
    a = build_assignment(t, sol, backend)
    ring = a.tensors[0].ring
    reference = partition_value(a)
    shown = ring.render(reference)
    verdict, witness, extras, max_rel, applied = "pass", "", {}, 0.0, 0
    for step, (_, t) in enumerate(itertools.islice(walk(t, (p,), random.Random(seed)), count)):
        value = partition_value(build_assignment(t, sol, backend))
        applied += 1
        if ring.name == "exact":
            verdict = compare(value, reference).verdict
            detail = f"value {ring.render(value)} vs {shown}"
        else:
            err = abs(value - reference) / max(abs(reference), 1e-30)
            max_rel = max(max_rel, err)
            verdict = "fail" if err > FLOAT_REL else "pass"
            detail = f"relative error {err:.3e}"
        if verdict != "pass":
            witness = f"step {step}: {detail}"
            break
    else:
        if applied < count:
            extras = {"note": f"no ({move_type}) site available after {applied} moves"}
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
