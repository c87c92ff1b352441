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
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .groups import FinAbGroup, parse_group
from .tensors import (
    DOWN,
    UP,
    BasisDomain,
    GroupTensor,
    LinMap,
    tensor_equal,
)


@dataclass
class TripleSpec:
    """Structure maps over a finite basis: mu 2->1, lam and rho 1->2."""

    domain: BasisDomain
    mu: LinMap
    lam: LinMap
    rho: LinMap
    name: str = ""


@dataclass
class SolutionSpec:
    kind: str
    descriptor: str
    domain: object
    q: GroupTensor | None
    kernels: dict | None = None
    triple: TripleSpec | None = None


def validate_bicharacter(group: FinAbGroup, chi) -> None:
    """Exhaustively check multiplicativity of chi in each argument."""
    elems = list(group.elements())
    for x, xp in itertools.product(elems, repeat=2):
        s = group.add(x, xp)
        for y in elems:
            if chi(s, y) != chi(x, y) * chi(xp, y):
                raise ValueError(
                    f"chi is not multiplicative in the first argument at {(x, xp, y)}"
                )
            if chi(y, s) != chi(y, x) * chi(y, xp):
                raise ValueError(
                    f"chi is not multiplicative in the second argument at {(y, x, xp)}"
                )


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
    chi = group.chi if chi is None else chi
    validate_bicharacter(group, chi)
    ring = group.ring
    weight = ring.radical() * ring.radical()
    entries = {}
    for x in group.elements():
        for y in group.elements():
            u = group.add(x, y)
            for z in group.elements():
                v = group.add(y, z)
                entries[(x, u, y, v, z)] = chi(x, z) * weight
    q = GroupTensor(group, (UP, DOWN, UP, DOWN, UP), entries)
    return SolutionSpec(
        kind="bicharacter",
        descriptor=f"bichar:{group.literal}",
        domain=group,
        q=q,
        kernels=symmetry_kernels(group),
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
    """Multiplication table for names like Z4, Z2xZ2, S3.

    Raises ValueError, before building any table, for an unknown name or
    an order above GROUP_TABLE_ORDER_LIMIT.
    """
    if name == "S3":
        return s3_table()
    orders = []
    for part in name.split("x"):
        if not part.startswith("Z") or not part[1:].isdigit() or int(part[1:]) < 1:
            raise ValueError(f"unknown group name {name!r}")
        orders.append(int(part[1:]))
    order = math.prod(orders)
    if order > GROUP_TABLE_ORDER_LIMIT:
        raise ValueError(
            f"group {name} has order {order}, over the limit of {GROUP_TABLE_ORDER_LIMIT}"
        )
    table = None
    for n in orders:
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
    mu = LinMap(
        GroupTensor(
            domain,
            (UP, DOWN, DOWN),
            {(table[g][h], g, h): one for g in range(m) for h in range(m)},
        ),
        1,
        2,
    )
    diag = GroupTensor(
        domain, (UP, UP, DOWN), {(g, g, g): one for g in range(m)}
    )
    lam = LinMap(diag, 2, 1)
    rho = LinMap(diag, 2, 1)
    return TripleSpec(domain, mu, lam, rho, name=name)


def check_compatibility(t: TripleSpec) -> list[str]:
    """The failing axioms' names, in the order below; empty when compatible.

    The two (co)associativity laws and the five morphism identities.  The
    coproduct compatibility is checked in both orientations, which are
    equivalent under the swap; they are still reported separately.
    """
    dom = t.domain
    id1 = LinMap.identity(dom, 1)
    sig = LinMap.sigma(dom)
    mu, lam, rho = t.mu, t.lam, t.rho
    axioms = {
        "associativity": (mu.compose(mu.tens(id1)), mu.compose(id1.tens(mu))),
        "coassociativity_lam": (lam.compose(lam, at=1), lam.compose(lam, at=0)),
        "coassociativity_rho": (rho.compose(rho, at=1), rho.compose(rho, at=0)),
        "mu_morphism_of_lam": (
            lam.compose(mu), mu.tens(mu).compose(sig.compose(lam.tens(lam), at=1))
        ),
        "mu_morphism_of_rho": (
            rho.compose(mu), mu.tens(mu).compose(sig.compose(rho.tens(rho), at=1))
        ),
        "lam_morphism_of_rho": (
            rho.tens(rho).compose(lam), sig.compose(lam.tens(lam).compose(rho), at=1)
        ),
        "rho_morphism_of_lam": (
            lam.tens(lam).compose(rho), sig.compose(rho.tens(rho).compose(lam), at=1)
        ),
    }
    return [name for name, (lhs, rhs) in axioms.items() if not tensor_equal(lhs.tensor, rhs.tensor)]


def q_from_triple(t: TripleSpec) -> SolutionSpec:
    """Q = (id @ mu @ id)(lam @ rho), reslotted to (x, u, y, v, z)."""
    failed = check_compatibility(t)
    if failed:
        raise ValueError(f"incompatible triple: {', '.join(failed)} failed")
    dom = t.domain
    qmap = t.mu.compose(t.lam.tens(t.rho), at=1)
    q = qmap.tensor.permute([0, 3, 1, 4, 2])
    return SolutionSpec(
        kind="triple",
        descriptor=f"triple:groupalg:{t.name or dom.literal}",
        domain=dom,
        q=q,
        triple=t,
    )


def pentagon_map(t: TripleSpec) -> LinMap:
    """The d=3 map S = (id @ mu)(lam @ id) on V @ V."""
    id1 = LinMap.identity(t.domain, 1)
    return t.mu.compose(t.lam.tens(id1), at=1)


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
    ring = group.ring
    t_entries = {}
    tinv_entries = {}
    for x in group.elements():
        g = gauss(x)
        t_entries[(x, group.neg(x))] = ring.radical() * g
        tinv_entries[(x, group.neg(x))] = ring.radical() * g.conj()
    s_entries = {}
    sinv_entries = {}
    for x in group.elements():
        for y in group.elements():
            g = gauss(group.sub(x, y))
            s_entries[(x, y)] = g
            sinv_entries[(x, y)] = g.conj()
    def make(entries):
        return GroupTensor(group, (UP, DOWN), entries)

    return {
        "T": make(t_entries),
        "Tinv": make(tinv_entries),
        "S": make(s_entries),
        "Sinv": make(sinv_entries),
    }


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
        elems = list(q.domain.elements())
        key = tuple(elems[rng.randrange(len(elems))] for _ in range(q.arity))
    entries = dict(q.entries)
    entries[key] = entries.get(key, ring.zero) + bump
    return SolutionSpec(
        kind=sol.kind,
        descriptor=f"{sol.descriptor}:perturbed:{seed}",
        domain=sol.domain,
        q=GroupTensor(q.domain, q.variances, entries),
        kernels=sol.kernels,
        triple=sol.triple,
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
        table = named_group_table(parts[2])
        return q_from_triple(triple_from_table(table, name=parts[2]))
    raise ValueError(f"unknown solution descriptor {text!r}")
