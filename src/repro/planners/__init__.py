"""Checkpointing planners: the Mimose baselines and the planner protocol.

All planners implement :class:`~repro.planners.base.Planner` and are driven
by :class:`~repro.engine.executor.TrainingExecutor`:

* :class:`~repro.planners.none.NoCheckpointPlanner` — the paper's *baseline*
  (plain PyTorch, no memory planning);
* :class:`~repro.planners.offline.OfflinePlanner` — the solve-once skeleton
  the static baselines below share;
* :class:`~repro.planners.sublinear.SublinearPlanner` — Chen et al. 2016
  static √n segmenting, planned for the worst-case input;
* :class:`~repro.planners.checkmate.CheckmatePlanner` — optimal static
  rematerialisation (exact DP over unit subsets, standing in for the MILP);
* :class:`~repro.planners.monet.MonetPlanner` — MONeT-style per-budget
  offline joint solve with bounded solve time;
* :class:`~repro.planners.dtr.DTRPlanner` — Dynamic Tensor
  Rematerialisation: reactive eviction on OOM with the h-heuristic;
* :class:`~repro.planners.capuchin.CapuchinPlanner` — swap-or-recompute
  per unit, planned at the largest measured input;
* :class:`~repro.planners.segmented.SegmentedSublinearPlanner` — Sublinear
  with a Chen et al. segment fallback below the per-unit floor.

Mimose itself lives in :mod:`repro.core`.
"""

from repro.planners.base import (
    ActionAssignment,
    CheckpointPlan,
    ExecutionMode,
    MemoryAction,
    ModelView,
    PlanDecision,
    Planner,
    PlannerCapabilities,
)
from repro.planners.none import NoCheckpointPlanner
from repro.planners.offline import OfflinePlanner
from repro.planners.sublinear import SublinearPlanner
from repro.planners.checkmate import CheckmatePlanner
from repro.planners.monet import MonetPlanner
from repro.planners.dtr import DTRPlanner
from repro.planners.capuchin import CapuchinPlanner
from repro.planners.segmented import SegmentedSublinearPlanner

__all__ = [
    "ActionAssignment",
    "CheckpointPlan",
    "ExecutionMode",
    "MemoryAction",
    "ModelView",
    "PlanDecision",
    "Planner",
    "PlannerCapabilities",
    "NoCheckpointPlanner",
    "OfflinePlanner",
    "SublinearPlanner",
    "CheckmatePlanner",
    "MonetPlanner",
    "DTRPlanner",
    "CapuchinPlanner",
    "SegmentedSublinearPlanner",
]
