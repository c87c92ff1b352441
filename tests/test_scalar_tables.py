"""The exact rings' hash-consing and memo tables change no result.

Each ring interns its scalars and memoises products, sums, radical shifts,
radical powers and roots of unity on object identity (see the scalars module docstring).
These tests pin the rules that make that safe: a drop at the table limit
in the middle of a run, a cold ring against a warm one, and freed
operands after a drop.  test_cli runs the selftest's mutation hooks over
warm tables.
"""

import pytest

from pachner import scalars, statesum, verify
from pachner.groups import parse_group
from pachner.scalars import ScalarRing, get_ring
from pachner.simplicial import simplex_boundary
from pachner.solutions import parse_solution, perturb_q


def terms(tensor):
    """A tensor's entries, each value as its terms in item order."""
    return [(key, list(v.terms.items())) for key, v in tensor.entries.items()]


def recorded(monkeypatch, run):
    """run()'s reports, with every pair of tensors verify compares and every
    state-sum value, their terms in item order."""
    seen = []
    equal, value = verify.tensor_equal, statesum.partition_value

    def spy_equal(t1, t2, rel=1e-9):
        seen.append((terms(t1), terms(t2)))
        return equal(t1, t2, rel)

    def spy_value(a, order="greedy"):
        v = value(a, order)
        seen.append(list(v.terms.items()))
        return v

    with monkeypatch.context() as m:
        m.setattr(verify, "tensor_equal", spy_equal)
        m.setattr(statesum, "partition_value", spy_value)
        reports = run()
    return [report.lines() for report in reports], seen


def perturbed_controls():
    sol = parse_solution("bichar:Z3")
    return [verify.verify_p33(perturb_q(sol, seed)) for seed in range(4)]


def theorem():
    return [verify.verify_theorem(parse_group("Z3"))]


def walk20():
    return [statesum.invariance_run(simplex_boundary(5), parse_solution("bichar:Z3"), count=20, seed=1)]


@pytest.mark.parametrize("run", [perturbed_controls, theorem, walk20], ids=["p33-controls", "theorem", "walk"])
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
    # z**k depends on k modulo the root order 2L = 6
    roots = [ring.root(k) for k in range(-6, 12)]
    assert len(built) == 6
    assert all(v is roots[k % 6] for k, v in zip(range(-6, 12), roots))
    assert len(ring._roots) == 6
    monkeypatch.setattr(scalars, "SCALAR_TABLE_LIMIT", len(ring._values))
    ring.integer(5)  # a new value: its interning drops every table
    assert not ring._roots
    again = ring.root(1)
    assert len(built) == 8 and list(again.terms.items()) == list(roots[1].terms.items())
