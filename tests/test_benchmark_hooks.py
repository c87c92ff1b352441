"""The benchmark's tracer reads what the checkers return.

perfbench/tracing.py sums the ``checks`` of every report a public verify
function returns into its verify.entries_compared count.
"""

import sys
from pathlib import Path

import pachner

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from tracing import Tracer  # noqa: E402


def _ops():
    """Relation ops as the benchmark calls them, through the package names
    the tracer rebinds."""
    sol = pachner.parse_solution("bichar:Z2")
    group = pachner.parse_group("Z3")
    return [
        lambda: pachner.verify_p33(sol, backend="exact"),
        lambda: pachner.verify_yb_family(sol, backend="exact"),
        lambda: pachner.verify_theorem(group),
        lambda: pachner.verify_theorem(group, gauss=lambda x: group.ring.one),
    ]


def test_traced_relation_ops_count_each_report_once():
    expected = sum(op().checks for op in _ops())
    tracer = Tracer()
    tracer.install()
    try:
        for op in _ops():
            op()
    finally:
        tracer.uninstall()
    assert expected > 0
    assert tracer.entries_compared == expected
