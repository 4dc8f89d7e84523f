"""Static-plan goldens: every offline planner's setup-time plan, pinned.

``tests/data/static_plans.json`` holds the plan Sublinear, Checkmate,
MONeT, Capuchin (at the worst-case batch) and the segmented Sublinear
planner settle on for all seven tasks at their default budgets and one
budget below the per-unit floor (see ``tests/helpers_static_plans.py``).
A refactor of the planning layer must reproduce every plan exactly.
Regenerate with ``PYTHONPATH=src python tests/data/gen_static_plans.py``
only for an intentional plan change.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from tests.helpers_static_plans import PLANNERS, static_plans, task_names

GOLDENS = json.loads(
    (pathlib.Path(__file__).parent / "data" / "static_plans.json").read_text()
)


def test_goldens_cover_every_task_planner_and_budget() -> None:
    assert len(GOLDENS) == len(task_names()) * len(PLANNERS) * 5
    assert {k.split("|")[0] for k in GOLDENS} == set(task_names())


@pytest.mark.parametrize("abbr", task_names())
def test_static_plans_match_goldens(abbr: str) -> None:
    expected = {k: v for k, v in GOLDENS.items() if k.startswith(f"{abbr}|")}
    actual = static_plans(abbr)
    assert sorted(actual) == sorted(expected)
    changed = [k for k in expected if actual[k] != expected[k]]
    assert not changed, f"plans differ from the goldens: {changed}"
