"""One test per acceptance criterion; each prints its pass/fail line.

These are the binding checks: a criterion must both produce the right
verdict and finish inside its wall-clock budget.
"""

import inspect
import math
import textwrap

import pytest

from pachner import acceptance, simplicial
from pachner.simplicial import Triangulation, all_sites, simplex_boundary


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


def sign_blind_cone_mates():
    """Triangulation._find_cone_mates with its test that a mate carries the
    cone entry's eps dropped: a site search that ignores signs."""
    source = textwrap.dedent(inspect.getsource(Triangulation._find_cone_mates))
    test = "row_i.get(partner[0]) == eps"
    assert source.count(test) == 1
    namespace = {}
    exec(source.replace(test, "partner[0] in row_i"), vars(simplicial), namespace)
    return namespace["_find_cone_mates"]


def test_simplicial_engine_checks_signs_in_the_site_search(monkeypatch):
    # the boundary of the 5-simplex with entry 0 reversed keeps the sites
    # of its other five entries; a sign-blind search lists the sphere's
    def site_counts():
        sphere = simplex_boundary(5)
        vertices, sign = sphere.simplexes[0]
        t = Triangulation(4, ((vertices, -sign),) + sphere.simplexes[1:])
        return [len(all_sites(t, p)) for p in range(2, 6)]

    assert site_counts() == [math.comb(5, p) for p in range(2, 6)] == [10, 10, 5, 1]
    monkeypatch.setattr(Triangulation, "_find_cone_mates", sign_blind_cone_mates())
    assert site_counts() == [math.comb(6, p) for p in range(2, 6)] == [15, 20, 15, 6]
    assert acceptance.simplicial_engine() == (
        False,
        "dim 2 sphere with entry 0 reversed has 6 (2,2) sites, not 3",
    )
