"""The static-plan grid shared by the golden generator and the test suite
(``tests/test_static_plans.py``).

Every offline planner's setup-time plan for every task, at the task's
four default budgets plus one budget below the per-unit checkpointing
floor.  The digest grid runs only the two BERT tasks; this grid pins the
plans on every model without simulating a single iteration.

The below-floor budget leaves a usable budget halfway between the
minimum-memory segmentation's peak and the full per-unit checkpointing
peak (both at the worst-case input), so no per-unit plan fits: Sublinear
and Checkmate take their all-checkpoint fallback, and the segmented
planner either finds a fitting segmentation (when segments undercut the
per-unit floor) or falls through to the minimum-memory one.
"""

from __future__ import annotations

from repro.experiments.runner import make_planner
from repro.experiments.tasks import TASKS, TaskContext, load_task
from repro.planners.base import ModelView, Planner
from repro.planners.segmented import (
    SegmentedSublinearPlanner,
    minimum_memory_plan,
)

PLANNERS = ("sublinear", "checkmate", "monet", "capuchin", "sublinear-seg")


def static_plan_budgets(task: TaskContext) -> list[int]:
    """The task's default budgets plus one below the per-unit floor."""
    floor, _ = task.memory_bounds()
    view = ModelView(task.fresh_model())
    _, seg_floor = minimum_memory_plan(view, task.worst_case)
    reserve = SegmentedSublinearPlanner.FRAG_RESERVE
    below = (floor + seg_floor - 1) // 2 + reserve
    return [*task.default_budgets(), below]


def _planner(name: str, budget: int, task: TaskContext) -> Planner:
    if name == "sublinear-seg":
        return SegmentedSublinearPlanner(
            budget, worst_case_batch=task.worst_case
        )
    return make_planner(name, budget, task)


def static_plans(abbr: str) -> dict[str, dict[str, object]]:
    """``"task|planner|budget" -> {label, actions, segments}`` for one task.

    Capuchin plans at runtime; it is asked for the worst-case batch, the
    largest input its measured execution can see.
    """
    task = load_task(abbr)
    out: dict[str, dict[str, object]] = {}
    for budget in static_plan_budgets(task):
        for name in PLANNERS:
            planner = _planner(name, budget, task)
            planner.setup(ModelView(task.fresh_model()))
            plan = planner.plan(task.worst_case).plan
            out[f"{abbr}|{name}|{budget}"] = {
                "label": plan.label,
                "actions": [
                    [unit, action.value]
                    for unit, action in plan.assignment.actions
                ],
                "segments": [list(s) for s in plan.assignment.segments],
            }
    return out


def task_names() -> list[str]:
    return sorted(TASKS)
