"""MONeT (Shah et al. 2021): joint operator/checkpointing offline solve.

MONeT solves a MILP jointly choosing operator implementations and a
checkpointing schedule, taking hours per (model, budget) pair — §VI-A
allocates 8/12 h for the ResNet-50/101 backbones and cites the authors'
statement that 8 h reaches within 5 % of optimal.

Differences from :class:`~repro.planners.checkmate.CheckmatePlanner` in
this reproduction:

* MONeT's static graph is traced at the *nominal* (median) input shape —
  its conversion pipeline is even less tolerant of dynamic shapes than
  Checkmate's, so it overshoots the budget more often on large inputs;
* its joint operator selection is modelled as a small headroom bonus on
  the memory constraint (output-activated / in-place implementations
  shave working memory), bounded by its 5 %-of-optimal guarantee.
"""

from __future__ import annotations

from repro.planners.base import PlannerCapabilities
from repro.planners.checkmate import CheckmatePlanner


class MonetPlanner(CheckmatePlanner):
    """MONeT-style offline planner (nominal-shape static solve)."""

    name = "monet"
    capabilities = PlannerCapabilities(
        granularity="tensor",
        plan_timing="offline",
        search_space="holistic",
        search_algorithm="MILP",
    )
    solve_time_s = 8 * 3600.0
    #: fraction of working memory the joint op selection saves
    OPERATOR_HEADROOM = 0.05
    ALL_LABEL = name
