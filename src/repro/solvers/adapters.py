"""Static planner cores adapted to the solver interface.

The static planners in :mod:`repro.planners` decide offline against a
profiled worst-case/assumed shape, but their decision *cores* — the
evenly-spaced keep rule of :mod:`repro.planners.sublinear` and the
keep-knapsack of :mod:`repro.planners.checkmate` — are pure functions of
per-unit bytes and times.  Re-housing those cores behind the solver
registry does two things: the static planners stop being a second,
parallel decision layer (they share one vocabulary with the runtime
schedulers), and the optimality harness can price them per input size
like any other solver, which is how Table I's gap column covers the
static families.
"""

from __future__ import annotations

from repro.planners.checkmate import solve_keep_knapsack
from repro.planners.sublinear import evenly_spaced_keep
from repro.solvers.base import Solver, SolverInput, register_solver


def _ordered(inp: SolverInput) -> list[str]:
    return sorted(inp.est_bytes, key=lambda u: (inp.order[u], u))


@register_solver
class SublinearSolver(Solver):
    """Chen-style evenly spaced keeps over the forward chain.

    The decision core of
    :class:`~repro.planners.sublinear.SublinearPlanner`: keep the largest
    evenly spaced unit set whose complement still releases the excess.
    """

    name = "sublinear"

    def schedule(self, inp: SolverInput) -> frozenset[str]:
        if inp.excess_bytes <= 0:
            return frozenset()
        names = _ordered(inp)
        need = min(inp.excess_bytes, sum(inp.est_bytes.values()))
        for keep in range(len(names), -1, -1):
            kept = evenly_spaced_keep(names, keep)
            drop = frozenset(names) - kept
            if sum(inp.est_bytes[u] for u in drop) >= need:
                return drop
        return frozenset(names)


@register_solver
class CheckmateSolver(Solver):
    """Keep-knapsack over estimated bytes and recompute times.

    The decision core of
    :class:`~repro.planners.checkmate.CheckmatePlanner`: maximise the
    recompute time *avoided* by keeping units, subject to the kept bytes
    fitting what the budget leaves after the excess is released.  The
    knapsack quantises kept weights upward
    (:func:`~repro.planners.checkmate.solve_keep_knapsack`), so the
    complement always releases at least the excess.
    """

    name = "checkmate"

    def schedule(self, inp: SolverInput) -> frozenset[str]:
        if inp.excess_bytes <= 0:
            return frozenset()
        names = _ordered(inp)
        total = sum(inp.est_bytes.values())
        need = min(inp.excess_bytes, total)
        capacity = total - need
        if capacity <= 0:
            return frozenset(names)
        values = [
            inp.est_time[u] if inp.est_time else float(inp.order[u] + 1)
            for u in names
        ]
        kept_idx = solve_keep_knapsack(
            values, [inp.est_bytes[u] for u in names], capacity
        )
        kept = {names[i] for i in kept_idx}
        return frozenset(n for n in names if n not in kept)
