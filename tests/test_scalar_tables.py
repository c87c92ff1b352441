"""The exact rings' hash-consing and memo tables change no result.

Each ring interns its scalars, roots of unity and radical powers among
them, and memoises products (radical shifts among them), sums and
conjugates on object identity (see the scalars module docstring).
These tests pin the rules that make that safe: a drop at the table limit
in the middle of a run, a cold ring against a warm one, and freed
operands after a drop.  test_cli runs the selftest's mutation hooks over
warm tables.
"""

import random
import sys
from collections import Counter
from pathlib import Path

import pytest

from pachner import scalars, statesum, verify
from pachner.groups import parse_group
from pachner.scalars import Scalar, ScalarRing, get_ring
from pachner.simplicial import simplex_boundary
from pachner.solutions import parse_solution, perturb_q
from pachner.tensors import GroupTensor, tensor_equal

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import workloads  # noqa: E402


def terms(tensor):
    """A tensor's entries, each value as its terms in item order."""
    return [(key, list(v.terms.items())) for key, v in tensor.entries.items()]


def recorded(monkeypatch, run):
    """run()'s reports, with every pair of tensors verify compares, every
    conjugate tensor and every state-sum value, their terms in item order."""
    seen = []
    equal, slices, value = verify.tensor_equal, verify.slices_equal, statesum.partition_value
    conj = GroupTensor.conj

    def spy_equal(t1, t2, rel=1e-9):
        seen.append((terms(t1), terms(t2)))
        return equal(t1, t2, rel)

    def spy_slices(pairs, rel=1e-9):
        def seen_pairs():
            for t1, t2 in pairs:
                seen.append((terms(t1), terms(t2)))
                yield t1, t2

        return slices(seen_pairs(), rel)

    def spy_conj(t):
        c = conj(t)
        seen.append(terms(c))
        return c

    def spy_value(a, order="greedy"):
        v = value(a, order)
        seen.append(list(v.terms.items()))
        return v

    with monkeypatch.context() as m:
        m.setattr(verify, "tensor_equal", spy_equal)
        m.setattr(verify, "slices_equal", spy_slices)
        m.setattr(GroupTensor, "conj", spy_conj)
        m.setattr(statesum, "partition_value", spy_value)
        reports = run()
    return [report.lines() for report in reports], seen


def perturbed_controls():
    sol = parse_solution("bichar:Z3")
    return [verify.verify_p33(perturb_q(sol, seed)) for seed in range(4)]


def theorem():
    return [verify.verify_theorem(parse_group("Z3"))]


def conjugates():
    """The (3,3) lhs of perturbed bichar:Z3 tensors conjugated twice, which
    gives it back: dozens of distinct values each."""
    sol = parse_solution("bichar:Z3")
    sides = [verify.p33_sides(perturb_q(sol, seed).q)[0] for seed in range(4)]
    return [tensor_equal(t.conj().conj(), t) for t in sides]


def walk20():
    return [statesum.invariance_run(simplex_boundary(5), parse_solution("bichar:Z3"), count=20, seed=1)]


@pytest.mark.parametrize(
    "run", [perturbed_controls, theorem, conjugates, walk20], ids=["p33-controls", "theorem", "conj", "walk"]
)
def test_a_drop_in_the_middle_of_a_run_changes_nothing(monkeypatch, run):
    want = recorded(monkeypatch, run)
    get_ring(3, 3)._drop_tables()  # so the run inserts, and trips the limit
    drops = []
    drop = ScalarRing._drop_tables
    monkeypatch.setattr(ScalarRing, "_drop_tables", lambda self: drops.append(self) or drop(self))
    monkeypatch.setattr(scalars, "SCALAR_TABLE_LIMIT", 16)
    got = recorded(monkeypatch, run)
    assert len(drops) >= 3
    assert got == want


def test_a_drop_empties_every_table_but_zero_and_one():
    # every dict a ring holds is one of its tables, and a drop must empty
    # it: a table it missed would grow past SCALAR_TABLE_LIMIT
    ring = ScalarRing(3, 3)
    a = ring.root(1) + ring.one
    a * a, a.conj(), a * ring.radical(1), ring.radical(-1)
    tables = {name: table for name, table in vars(ring).items() if isinstance(table, dict)}
    assert len(tables) == 4 and all(tables.values())
    ring._drop_tables()
    kept = {name: list(table.items()) for name, table in tables.items()}
    assert kept.pop("_values") == [((), ring.zero), (((0, ring._unit),), ring.one)]
    assert kept == {name: [] for name in kept}


def test_no_product_outlives_its_operands():
    # operands interned before a drop are held by no table when they are
    # multiplied, so only the products' own entries keep their ids taken;
    # later objects, freed ids or not, must get their own products
    ring, fresh = get_ring(6, 6), ScalarRing(6, 6)
    value = lambda ring, m, k: ring.scalar({m % 2: (m, k, 0, 1)})
    for trial in range(5):
        first = [value(ring, m, trial) for m in range(1, 41)]
        ring._drop_tables()
        for a, b in zip(first[::2], first[1::2]):
            a * b
        del first, a, b
        later = [value(ring, m, trial + 7) for m in range(1, 41)]
        for x in later:
            for y in later:
                want = fresh.scalar(x.terms) * fresh.scalar(y.terms)
                assert list((x * y).terms.items()) == list(want.terms.items())


RUNS = {
    "p33": lambda: [verify.verify_p33(parse_solution("bichar:Z3"))],
    "yb": lambda: [verify.verify_yb_family(parse_solution("bichar:Z3"))],
    "theorem": theorem,
    "conj": conjugates,
    "statesum": lambda: [
        statesum.invariance_run(simplex_boundary(5), parse_solution("bichar:Z3"), count=6, seed=2)
    ],
}


@pytest.mark.parametrize("name", RUNS)
def test_a_cold_and_a_warm_ring_give_the_same_values(monkeypatch, name):
    ring = get_ring(3, 3)
    ring._drop_tables()
    cold = recorded(monkeypatch, RUNS[name])
    for other in RUNS:
        if other != name:
            RUNS[other]()
    warm = recorded(monkeypatch, RUNS[name])
    assert warm == cold


def test_a_warm_ring_keeps_each_values_term_order():
    # the values above have one radical parity, so one term; here a shift
    # keeps the order of a two-parity value's terms, (1 + r) * r listing
    # r**1 first, while the canonical form of r + r**2 lists r**2 first
    ring = get_ring(3, 3)
    r = ring.radical(1)
    shifted = lambda: (ring.one + r) * r
    summed = lambda: r + r * r
    ring._drop_tables()
    cold = [list(shifted().terms.items()), list(summed().terms.items())]
    assert [[e for e, _ in t] for t in cold] == [[1, 2], [2, 1]]
    for first in (summed, shifted):
        ring._drop_tables()
        first()
        assert [list(shifted().terms.items()), list(summed().terms.items())] == cold


def test_a_root_is_built_once_per_exponent_and_dropped_with_the_tables(monkeypatch):
    ring = get_ring(3, 3)
    ring._drop_tables()
    built = []
    scalar = ScalarRing.scalar
    monkeypatch.setattr(ScalarRing, "scalar", lambda self, t: built.append(t) or scalar(self, t))
    # z**k depends on k modulo the root order 2L = 6, and is interned as
    # it stands, without a canonical form
    roots = [ring.root(k) for k in range(-6, 12)]
    assert built == []
    assert all(v is roots[k % 6] for k, v in zip(range(-6, 12), roots))
    monkeypatch.setattr(scalars, "SCALAR_TABLE_LIMIT", len(ring._values))
    ring.integer(5)  # a new value: its interning drops every table
    again = ring.root(1)
    assert again is not roots[1]
    assert len(built) == 1 and list(again.terms.items()) == list(roots[1].terms.items())


@pytest.mark.parametrize("params", [(1, 1), (2, 2), (3, 3), (2, 4), (4, 8), (6, 6), (6, 36)])
def test_a_root_is_the_canonical_form_of_its_power(params):
    # z**k is a unit, so N > 1 divides no coefficient vector of it; its
    # one term is the normal form that scalar() would give
    ring = ScalarRing(*params)
    for k in range(ring.root_order):
        want = ScalarRing(*params).scalar({0: ring._powers[k]})
        assert list(ring.root(k).terms.items()) == list(want.terms.items()), k


def test_a_warm_relation_round_canonicalises_nothing(monkeypatch):
    # the benchmark's relation round at seed 1, run once to warm the rings
    # and then again: every product, sum, shift and conjugate it needs
    # comes from the tables (68 conjugates were put in canonical form
    # again before conjugates were memoised)
    workload = workloads.WORKLOADS["relation"]
    round_seed = random.Random(1).getrandbits(64)

    def a_round():
        return list(workload.round(workload.prepare(PERFBENCH / "data"), random.Random(round_seed)))

    assert [op.check(op.run()) for op in a_round()] == [None] * 47
    ops = a_round()
    calls, canonical = [], ScalarRing._canonical
    monkeypatch.setattr(ScalarRing, "_canonical", lambda self, t: calls.append(t) or canonical(self, t))
    assert [op.check(op.run()) for op in ops] == [None] * 47
    assert calls == []


def warm_p33_and_state_sum():
    """verify_p33 and the state sum of the 4-sphere on bichar:Z3, run once
    on emptied tables to warm the ring; returns the run and its results."""
    sol = parse_solution("bichar:Z3")

    def run():
        value = statesum.partition_value(statesum.build_assignment(simplex_boundary(5), sol))
        return verify.verify_p33(sol).lines(), list(value.terms.items())

    get_ring(3, 3)._drop_tables()
    return run, run()


def test_a_warm_run_takes_every_product_and_shift_from_the_table(monkeypatch):
    # a shift that skipped its product-table insertion would compute
    # again on every warm run, with the same values
    run, cold = warm_p33_and_state_sum()
    calls, product = [], Scalar._product
    monkeypatch.setattr(Scalar, "_product", lambda self, other: calls.append(other) or product(self, other))
    assert run() == cold
    assert calls == []


def test_a_join_interns_its_weight_once_and_a_shift_never(monkeypatch):
    # the join looks its weight r**-k up once and hands that one object to
    # every shift; the lookups outside any join (wire permutations and
    # their rescaling) are not joins' weights and are not counted
    run, cold = warm_p33_and_state_sum()
    inside, calls = [], Counter()

    def spying(owner, name):
        original = getattr(owner, name)

        def spy(*args, **kwargs):
            calls[name] += 1
            inside.append(name)
            try:
                return original(*args, **kwargs)
            finally:
                inside.pop()

        monkeypatch.setattr(owner, name, spy)

    spying(ScalarRing, "join")
    spying(Scalar, "__mul__")
    interns, intern = Counter(), ScalarRing._intern
    monkeypatch.setattr(ScalarRing, "_intern", lambda self, t: interns.update([tuple(inside)]) or intern(self, t))
    assert run() == cold
    assert calls["join"] and calls["__mul__"]
    assert not [where for where in interns if "__mul__" in where]
    assert sum(n for where, n in interns.items() if "join" in where) <= calls["join"]


def test_a_warm_compose_interns_nothing_outside_its_join(monkeypatch):
    # a wire permutation judges its weight when it is built, so a fold
    # only applies it: on a warm ring every scalar a compose interns comes
    # from its join
    run, cold = warm_p33_and_state_sum()
    inside, calls, stray = [], Counter(), []

    def spying(owner, name):
        original = getattr(owner, name)

        def spy(*args, **kwargs):
            calls[name] += 1
            inside.append(name)
            try:
                return original(*args, **kwargs)
            finally:
                inside.pop()

        monkeypatch.setattr(owner, name, spy)

    spying(GroupTensor, "compose")
    spying(ScalarRing, "join")
    intern = ScalarRing._intern

    def interning(self, terms):
        if inside[-1:] == ["compose"]:
            stray.append(tuple(terms.items()))
        return intern(self, terms)

    monkeypatch.setattr(ScalarRing, "_intern", interning)
    assert run() == cold
    assert calls["compose"] and calls["join"]
    assert stray == []
