"""Checkpointing plan cache (§V).

Plans are indexed by input size.  Two lookups succeed:

* an exact hit on a previously planned size, and
* a *similar-size* hit — the paper observes that similar input sizes have
  similar memory behaviour and can share plans.  Sharing is only safe
  downward in this reproduction: a plan computed for size S is reused for
  sizes in ``[S * (1 - tolerance), S]``, never above S (a plan for a
  smaller input could overflow the budget on a larger one).

The cache is bounded LRU to keep lookups O(log n) over a sorted key list.

Stored plans are *interned* on their canonical identity — the
:class:`~repro.planners.base.ActionAssignment` (plus label and
prediction) that plan equality and hashing are defined over — so two
input sizes whose planning converged on the same per-unit actions share
one plan object.  Downstream consumers keyed on the plan (the replay
cache, strategy dispatch) then see one canonical instance instead of
N structurally equal copies.
"""

from __future__ import annotations

import bisect
from collections import OrderedDict
from typing import Optional

from repro.planners.base import CheckpointPlan


class PlanCache:
    """Input-size-keyed LRU cache of checkpoint plans.

    Args:
        tolerance: relative similarity window for downward sharing
            (default 5 %).
        max_entries: LRU capacity.
    """

    def __init__(self, tolerance: float = 0.05, max_entries: int = 256) -> None:
        if not 0.0 <= tolerance < 1.0:
            raise ValueError("tolerance must be in [0, 1)")
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.tolerance = tolerance
        self.max_entries = max_entries
        self._plans: OrderedDict[int, CheckpointPlan] = OrderedDict()
        self._sizes: list[int] = []  # sorted keys, kept in sync with _plans
        # canonical-instance pool: plan equality/hash is defined over the
        # (assignment, label, prediction) triple, so structurally equal
        # plans collapse to the first instance stored
        self._canon: dict[CheckpointPlan, CheckpointPlan] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._plans)

    # ---------------------------------------------------------------- lookup

    def get(self, input_size: int) -> Optional[CheckpointPlan]:
        """Return a cached plan usable for ``input_size``, or None."""
        plan = self._plans.get(input_size)
        if plan is not None:
            self._plans.move_to_end(input_size)
            self.hits += 1
            return plan
        # nearest cached size at or above the request, within tolerance
        idx = bisect.bisect_left(self._sizes, input_size)
        if idx < len(self._sizes):
            candidate = self._sizes[idx]
            if input_size >= candidate * (1.0 - self.tolerance):
                self._plans.move_to_end(candidate)
                self.hits += 1
                return self._plans[candidate]
        self.misses += 1
        return None

    def put(self, input_size: int, plan: CheckpointPlan) -> None:
        """Insert (or refresh) a plan for an input size."""
        if input_size <= 0:
            raise ValueError("input_size must be positive")
        plan = self._intern(plan)
        if input_size in self._plans:
            self._plans[input_size] = plan
            self._plans.move_to_end(input_size)
            return
        self._plans[input_size] = plan
        bisect.insort(self._sizes, input_size)
        if len(self._plans) > self.max_entries:
            evicted, _ = self._plans.popitem(last=False)
            self._sizes.remove(evicted)

    def _intern(self, plan: CheckpointPlan) -> CheckpointPlan:
        """Collapse structurally equal plans to one canonical instance.

        The pool can accumulate entries for plans that have since been
        evicted; it is rebuilt from the live plans when it outgrows the
        LRU capacity by 4x, keeping it bounded without per-eviction
        refcounting.
        """
        if len(self._canon) > 4 * self.max_entries:
            self._canon = {p: p for p in self._plans.values()}
        return self._canon.setdefault(plan, plan)

    # ----------------------------------------------------------------- stats

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def clear(self) -> None:
        """Drop every plan; ``hits``/``misses`` keep counting the run."""
        self._plans.clear()
        self._sizes.clear()
        self._canon.clear()
