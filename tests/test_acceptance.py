"""One test per acceptance criterion; each prints its pass/fail line.

These are the binding checks: a criterion must both produce the right
verdict and finish inside its wall-clock budget.
"""

import pytest

from pachner import acceptance
from pachner.simplicial import Triangulation


@pytest.mark.parametrize(
    "criterion", acceptance.CRITERIA, ids=[c.name for c in acceptance.CRITERIA]
)
def test_criterion(criterion):
    result = criterion.run()
    print(result.line())
    assert result.passed, result.line()
    assert result.seconds < result.budget, result.line()


def test_registry_lookup():
    assert acceptance.by_name("pentagon-equation").budget == 5.0
    with pytest.raises(KeyError):
        acceptance.by_name("nonsense")


def test_only_a_criterion_over_budget_prints_its_time():
    line = lambda passed, seconds: acceptance.CriterionResult("c", passed, seconds, 5.0, "d").line()
    assert line(True, 0.5) == "PASS c d"
    assert line(False, 0.5) == "FAIL c d"
    assert line(True, 6.25) == "FAIL c [6.25s/5s] d"


def test_run_all_honors_selection():
    results = acceptance.run_all(["interval-solution"])
    assert len(results) == 1
    assert results[0].name == "interval-solution"
    assert results[0].ok


@pytest.mark.parametrize(
    "attribute, mutant, detail",
    [
        # a constant chi agrees with the walk's own start
        ("euler_characteristic", lambda t: 2, "dim 3 sphere has faces (5, 10, 10, 5) and chi 2"),
        # the boundary of the 5-simplex's row, read for every complex
        ("face_classes", lambda t: (6, 15, 20, 15, 6), "dim 2 sphere has faces (6, 15, 20, 15, 6) and chi 2"),
    ],
    ids=["constant-chi", "constant-f-vector"],
)
def test_simplicial_engine_checks_known_face_counts(monkeypatch, attribute, mutant, detail):
    monkeypatch.setattr(Triangulation, attribute, mutant)
    assert acceptance.simplicial_engine() == (False, detail)
