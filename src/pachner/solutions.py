"""Constructors for the three solution families and the symmetry kernels.

The families:

* bicharacter: over a finite abelian group A, the tensor
  D(x,u,y,v,z) = chi(x,z) delta(x-u+y) delta(y-v+z), supported on
  u = x+y, v = y+z;
* triple: from maps mu: V@V -> V and lam, rho: V -> V@V that are
  associative, co-associative, and pairwise compatible, the composite
  Q = (id @ mu @ id)(lam @ rho);
* set-theoretic: the rational map (x, y) -> ((x-xy)/(1-xy), xy,
  (y-xy)/(1-xy)) on the open unit interval, in exact arithmetic.

Solution tensors use slot order (x, u, y, v, z) with variances
(up, down, up, down, up): three outputs interleaved with two inputs,
matching the facet indices of a positively oriented pentachoron.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from .groups import FinAbGroup, parse_group, parse_orders
from .tensors import (
    DOWN,
    UP,
    BasisDomain,
    GroupTensor,
    apply_word,
    identity,
    sigma,
    tensor_equal,
)


@dataclass
class TripleSpec:
    """Structure maps over a finite basis: mu 2->1, lam and rho 1->2."""

    domain: BasisDomain
    mu: GroupTensor
    lam: GroupTensor
    rho: GroupTensor
    name: str = ""


@dataclass
class SolutionSpec:
    kind: str
    descriptor: str
    domain: object
    q: GroupTensor | None


def validate_bicharacter(group: FinAbGroup, chi) -> dict:
    """Exhaustively check multiplicativity of chi in each argument.

    chi is evaluated once per pair of elements; returns the table
    (x, y) -> chi(x, y).  A failure names its triple by residues.  A
    value and a product that are one object are equal, so ``!=`` runs
    only on two distinct objects: the ring hash-conses its values, so a
    valid chi of ring values never reaches it.
    """
    elems = group.elements()
    table = {(x, y): chi(x, y) for x in elems for y in elems}

    def differ(a, b):
        return a is not b and a != b

    for x, xp in itertools.product(elems, repeat=2):
        s = group.add(x, xp)
        for y in elems:
            if differ(table[s, y], table[x, y] * table[xp, y]):
                where, side = (x, xp, y), "first"
            elif differ(table[y, s], table[y, x] * table[y, xp]):
                where, side = (y, x, xp), "second"
            else:
                continue
            at = tuple(group.coords[e] for e in where)
            raise ValueError(f"chi is not multiplicative in the {side} argument at {at}")
    return table


# A bicharacter solution holds |G|**3 entries, and validating chi takes
# 2 |G|**3 ring products; larger groups are refused before either.  Order
# 16 passes (bichar:Z8 is the largest any test, script or benchmark builds).
BICHAR_ENTRIES_LIMIT = 1 << 12


def q_from_bicharacter(group: FinAbGroup, chi=None) -> SolutionSpec:
    """The delta-structured solution with phase chi(x, z).

    Each delta contributes a factor r, so the entry at (x, x+y, y, y+z, z)
    is chi(x,z) * r**2.

    Raises ValueError, before validating chi or building any entry, when
    |G|**3 exceeds BICHAR_ENTRIES_LIMIT.
    """
    if group.size**3 > BICHAR_ENTRIES_LIMIT:
        raise ValueError(
            f"a bicharacter solution over {group.literal} holds {group.size**3} entries, "
            f"over the limit of {BICHAR_ENTRIES_LIMIT}"
        )
    table = validate_bicharacter(group, group.chi if chi is None else chi)
    ring = group.ring
    weight = ring.radical() * ring.radical()
    weighted = {pair: value * weight for pair, value in table.items()}
    entries = {}
    for x in group.elements():
        for y in group.elements():
            u = group.add(x, y)
            for z in group.elements():
                v = group.add(y, z)
                entries[(x, u, y, v, z)] = weighted[x, z]
    q = GroupTensor(group, (UP, DOWN, UP, DOWN, UP), entries)
    return SolutionSpec(
        kind="bicharacter",
        descriptor=f"bichar:{group.literal}",
        domain=group,
        q=q,
    )


# -- multiplication tables and group algebras --------------------------------


def cyclic_table(n: int):
    return [[(a + b) % n for b in range(n)] for a in range(n)]


def product_table(ta, tb):
    na, nb = len(ta), len(tb)
    def idx(a, b):
        return a * nb + b
    out = [[0] * (na * nb) for _ in range(na * nb)]
    for a1, b1, a2, b2 in itertools.product(range(na), range(nb), range(na), range(nb)):
        out[idx(a1, b1)][idx(a2, b2)] = idx(ta[a1][a2], tb[b1][b2])
    return out


def s3_table():
    perms = sorted(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    table = []
    for p in perms:
        row = []
        for q in perms:
            row.append(index[tuple(p[q[k]] for k in range(3))])
        table.append(row)
    return table


# The largest group table a name may ask for.  A group algebra's
# compatibility check builds maps with order**4 entries, so order 16 (65536)
# passes and the shipped ones (order at most 6) are far below it.
GROUP_TABLE_ORDER_LIMIT = 16


def named_group_table(name: str):
    """Multiplication table for names like Z4, Z2xZ2, S3, read with
    surrounding whitespace stripped (as ``parse_orders`` reads literals).

    Raises ValueError, before building any table, for an unknown name or
    an order above GROUP_TABLE_ORDER_LIMIT.
    """
    if name.strip() == "S3":
        return s3_table()
    table = None
    for n in parse_orders(name, GROUP_TABLE_ORDER_LIMIT):
        t = cyclic_table(n)
        table = t if table is None else product_table(table, t)
    return table


def groups_up_to_order(max_order: int):
    """Named multiplication tables of all groups of order <= max_order."""
    catalog = [
        ("Z1", 1), ("Z2", 2), ("Z3", 3), ("Z4", 4), ("Z2xZ2", 4),
        ("Z5", 5), ("Z6", 6), ("S3", 6),
    ]
    return [
        (name, named_group_table(name)) for name, order in catalog if order <= max_order
    ]


def triple_from_table(table, name: str = "") -> TripleSpec:
    """Group algebra triple: mu from the table, lam = rho the diagonal."""
    m = len(table)
    domain = BasisDomain(m)
    one = domain.ring.one
    mu = GroupTensor(
        domain,
        (UP, DOWN, DOWN),
        {(table[g][h], g, h): one for g in range(m) for h in range(m)},
    )
    diag = GroupTensor(domain, (UP, UP, DOWN), {(g, g, g): one for g in range(m)})
    return TripleSpec(domain, mu, diag, diag, name=name)


def check_compatibility(t: TripleSpec) -> list[str]:
    """The failing axioms' names, in the order below; empty when compatible.

    The two (co)associativity laws and the five morphism identities.  The
    coproduct compatibility is checked in both orientations, which are
    equivalent under the swap; they are still reported separately.  Each
    side is a word (``apply_word``) applied to the identity on its n
    inputs; A (x) B is the word [(A, 0), (B, a)] for A's a inputs.
    """
    dom = t.domain
    sig = sigma(dom)
    mu, lam, rho = t.mu, t.lam, t.rho
    axioms = {
        "associativity": (3, [(mu, 0), (mu, 0)], [(mu, 0), (mu, 1)]),
        "coassociativity_lam": (1, [(lam, 1), (lam, 0)], [(lam, 0), (lam, 0)]),
        "coassociativity_rho": (1, [(rho, 1), (rho, 0)], [(rho, 0), (rho, 0)]),
        "mu_morphism_of_lam": (
            2, [(lam, 0), (mu, 0)], [(mu, 0), (mu, 2), (sig, 1), (lam, 0), (lam, 1)]
        ),
        "mu_morphism_of_rho": (
            2, [(rho, 0), (mu, 0)], [(mu, 0), (mu, 2), (sig, 1), (rho, 0), (rho, 1)]
        ),
        "lam_morphism_of_rho": (
            1, [(rho, 0), (rho, 1), (lam, 0)], [(sig, 1), (lam, 0), (lam, 1), (rho, 0)]
        ),
        "rho_morphism_of_lam": (
            1, [(lam, 0), (lam, 1), (rho, 0)], [(sig, 1), (rho, 0), (rho, 1), (lam, 0)]
        ),
    }
    failed = []
    for name, (n, lhs, rhs) in axioms.items():
        start = identity(dom, n)
        if not tensor_equal(apply_word(lhs, start), apply_word(rhs, start)):
            failed.append(name)
    return failed


def q_from_triple(t: TripleSpec) -> SolutionSpec:
    """Q = (id @ mu @ id)(lam @ rho), reslotted to (x, u, y, v, z)."""
    failed = check_compatibility(t)
    if failed:
        raise ValueError(f"incompatible triple: {', '.join(failed)} failed")
    dom = t.domain
    qmap = apply_word([(t.mu, 1), (t.lam, 0), (t.rho, 1)], identity(dom, 2))
    q = qmap.permute([0, 3, 1, 4, 2])
    return SolutionSpec(
        kind="triple",
        descriptor=f"triple:groupalg:{t.name or dom.literal}",
        domain=dom,
        q=q,
    )


def pentagon_map(t: TripleSpec) -> GroupTensor:
    """The d=3 map S = (id @ mu)(lam @ id) on V @ V."""
    return apply_word([(t.mu, 1), (t.lam, 0)], identity(t.domain, 2))


# -- set-theoretic solution ---------------------------------------------------


def set_q(x: Fraction, y: Fraction):
    """The rational (3,3)-solution on the open unit interval."""
    x, y = Fraction(x), Fraction(y)
    if not (0 < x < 1 and 0 < y < 1):
        raise ValueError(f"inputs must lie strictly between 0 and 1, got {x}, {y}")
    denom = 1 - x * y
    return ((x - x * y) / denom, x * y, (y - x * y) / denom)


# -- symmetry kernels ---------------------------------------------------------


def symmetry_kernels(group: FinAbGroup, gauss=None) -> dict:
    """The kernels T(x,y) = delta(x+y) g(x) and S(x,y) = g(x-y).

    Both are symmetric as bilinear forms (g is even) and unitary; the
    inverse operators have the complex conjugate kernels.  A gauss
    override swaps in an alternative g, mainly for negative controls.
    """
    gauss = group.gauss_g if gauss is None else gauss
    r = group.ring.radical()
    t_entries = {(x, group.neg(x)): r * gauss(x) for x in group.elements()}
    s_entries = {
        (x, y): gauss(group.sub(x, y)) for x in group.elements() for y in group.elements()
    }

    t, s = (GroupTensor(group, (UP, DOWN), e) for e in (t_entries, s_entries))
    # r is fixed by conjugation, and conj conjugates each distinct value once
    tinv, sinv = (GroupTensor(group, (UP, DOWN), k.conj().entries) for k in (t, s))
    return {"T": t, "Tinv": tinv, "S": s, "Sinv": sinv}


# -- perturbations and descriptors --------------------------------------------


def perturb_q(sol: SolutionSpec, seed: int) -> SolutionSpec:
    """Add a seeded unit to one entry of Q; a negative-control generator."""
    if sol.q is None:
        raise ValueError("solution has no tensor to perturb")
    rng = random.Random(seed)
    q = sol.q
    keys = sorted(q.entries)
    ring = q.domain.ring
    bump = ring.root(rng.randrange(2 * ring.lcm_order))
    if rng.random() < 0.5 and keys:
        key = keys[rng.randrange(len(keys))]
    else:
        key = tuple(rng.randrange(q.domain.size) for _ in range(q.arity))
    entries = dict(q.entries)
    entries[key] = entries.get(key, ring.zero) + bump
    return SolutionSpec(
        kind=sol.kind,
        descriptor=f"{sol.descriptor}:perturbed:{seed}",
        domain=sol.domain,
        q=GroupTensor(q.domain, q.variances, entries),
    )


def parse_solution(text: str) -> SolutionSpec:
    """Parse CLI descriptors: bichar:Z3, triple:groupalg:S3, set."""
    text = text.strip()
    if text == "set":
        return SolutionSpec(kind="set", descriptor="set", domain=None, q=None)
    parts = text.split(":")
    if parts[0] == "bichar" and len(parts) == 2:
        return q_from_bicharacter(parse_group(parts[1]))
    if parts[0] == "triple" and len(parts) == 3 and parts[1] == "groupalg":
        name = parts[2].strip()
        return q_from_triple(triple_from_table(named_group_table(name), name=name))
    raise ValueError(f"unknown solution descriptor {text!r}")
