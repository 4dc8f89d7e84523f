"""Sublinear (Chen et al. 2016): static segment checkpointing.

Plans once, offline, for the *worst-case* input the dataset can produce
(after truncation/augmentation caps), then applies the same plan to every
iteration.  This is exactly the conservatism §III-B criticises: for small
inputs the plan recomputes far more than the budget requires (Fig 4's
wasted 1.2 GB / up to 35% throughput loss).

The original algorithm keeps ~√n evenly spaced segment boundaries.  At
this reproduction's unit granularity, keeping a unit means keeping its
internal activations; the planner keeps the largest evenly-spaced set of
units whose predicted worst-case peak fits the budget.
"""

from __future__ import annotations

from repro.models.base import BatchInput
from repro.planners.base import (
    ActionAssignment,
    CheckpointPlan,
    ModelView,
    PlannerCapabilities,
)
from repro.planners.offline import OfflinePlanner


def evenly_spaced_keep(names: list[str], keep: int) -> frozenset[str]:
    """The ``keep`` names to preserve, spread evenly across the chain."""
    n = len(names)
    if keep <= 0:
        return frozenset()
    if keep >= n:
        return frozenset(names)
    step = n / keep
    kept = {names[min(n - 1, int((i + 0.5) * step))] for i in range(keep)}
    return frozenset(kept)


class SublinearPlanner(OfflinePlanner):
    """Static √n-style planner targeting the worst-case input.

    Args:
        budget_bytes: GPU memory budget.
        worst_case_batch: the largest batch shape the pipeline can emit
            (known offline from dataset + augmentation caps).
    """

    name = "sublinear"
    capabilities = PlannerCapabilities(
        granularity="layer",
        plan_timing="offline",
        search_space="segments",
        search_algorithm="greedy",
    )

    def __init__(self, budget_bytes: int, worst_case_batch: BatchInput) -> None:
        super().__init__(budget_bytes, worst_case_batch)

    def _solve(self, view: ModelView) -> CheckpointPlan:
        names = [n for n in view.unit_names if n in view.checkpointable]
        usable = self.budget_bytes - self.FRAG_RESERVE
        # Keep as many evenly spaced units as possible while the
        # worst-case peak stays within budget.
        for keep in range(len(names), -1, -1):
            drop = frozenset(names) - evenly_spaced_keep(names, keep)
            plan = CheckpointPlan(
                ActionAssignment.from_sets(recompute=drop), self.name
            )
            if self._peak(view, plan) <= usable:
                return plan
        return self._fallback(view, names)

    def _fallback(self, view: ModelView, names: list[str]) -> CheckpointPlan:
        """The plan when no per-unit plan fits: checkpoint everything."""
        return CheckpointPlan(
            ActionAssignment.from_sets(recompute=names), self.name
        )
