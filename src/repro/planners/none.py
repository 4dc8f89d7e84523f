"""The paper's *baseline*: plain training without any memory planning."""

from __future__ import annotations

from repro.models.base import BatchInput
from repro.planners.base import (
    ActionAssignment,
    CheckpointPlan,
    PlanDecision,
    Planner,
    PlannerCapabilities,
)


class NoCheckpointPlanner(Planner):
    """Never checkpoints; runs with the full physical memory.

    Fig 10 normalises every planner's time to this baseline (its "*" upper
    bound marker is this planner's peak memory).
    """

    name = "baseline"
    capabilities = PlannerCapabilities(
        checkpointing=False,
        dynamic_input=True,
        plan_timing="none",
        search_space="none",
        search_algorithm="none",
    )
    #: baseline runs unconstrained, so the executor uses physical capacity
    requires_physical_capacity = True

    def plan(self, batch: BatchInput) -> PlanDecision:
        return PlanDecision(CheckpointPlan(ActionAssignment(), "none"))
