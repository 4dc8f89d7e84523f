"""The offline-planner skeleton shared by the static baselines.

Sublinear, Checkmate, MONeT and the segmented Sublinear planner all plan
the way Table I's "offline" rows do: once, before training, for one
assumed input shape, then apply that plan to every iteration whatever
its actual shape.  :class:`OfflinePlanner` owns that skeleton — the
assumed batch, the fragmentation reserve, the one solve in
:meth:`~OfflinePlanner.setup` and the constant decision — so each
baseline only implements :meth:`~OfflinePlanner._solve`.
"""

from __future__ import annotations

from typing import Optional

from repro.models.base import BatchInput
from repro.planners.base import CheckpointPlan, ModelView, PlanDecision, Planner


class OfflinePlanner(Planner):
    """Solve once at setup for ``assumed_batch``; serve that plan forever.

    Args:
        budget_bytes: GPU memory budget.
        assumed_batch: the input shape the plan is solved for.
    """

    #: headroom below the budget for allocator segment-pooling slack
    FRAG_RESERVE = 256 * 1024**2

    def __init__(self, budget_bytes: int, assumed_batch: BatchInput) -> None:
        super().__init__(budget_bytes)
        self.assumed_batch = assumed_batch
        self._decision: Optional[PlanDecision] = None

    def setup(self, view: ModelView) -> None:
        super().setup(view)
        # Applying a precomputed static plan costs essentially nothing.
        self._decision = PlanDecision(self._solve(view), planning_time=1e-6)

    def _solve(self, view: ModelView) -> CheckpointPlan:
        raise NotImplementedError

    def _peak(self, view: ModelView, plan: CheckpointPlan) -> int:
        """Predicted peak of ``plan`` on the assumed batch."""
        return view.peak_bytes(self.assumed_batch, plan)

    def plan(self, batch: BatchInput) -> PlanDecision:
        if self._decision is None:
            raise RuntimeError("setup() must run before plan()")
        return self._decision
