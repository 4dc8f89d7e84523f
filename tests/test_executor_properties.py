"""Property-based tests of the executor: no leaks, no double-frees, and
consistent accounting under arbitrary plans (drop + swap mixes), input
sizes, and repeated iterations."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.executor import TrainingExecutor
from repro.models.base import BatchInput
from repro.planners.base import (
    ActionAssignment,
    CheckpointPlan,
    ModelView,
    PlanDecision,
)
from repro.planners.base import ExecutionMode
from repro.planners.none import NoCheckpointPlanner
from repro.tensorsim.dtypes import FLOAT32

from tests.helpers import GB, make_tiny_model


@st.composite
def plans_and_batches(draw):
    num_units = draw(st.integers(2, 6))
    names = [f"unit.{i}" for i in range(num_units)]
    drop_mask = draw(st.integers(0, (1 << num_units) - 1))
    swap_mask = draw(st.integers(0, (1 << num_units) - 1)) & ~drop_mask
    drop = frozenset(n for i, n in enumerate(names) if drop_mask & (1 << i))
    swap = frozenset(n for i, n in enumerate(names) if swap_mask & (1 << i))
    rows = draw(st.integers(1, 512))
    mode = draw(st.sampled_from([ExecutionMode.NORMAL, ExecutionMode.COLLECT]))
    assignment = ActionAssignment.from_sets(recompute=drop, swap=swap)
    return num_units, CheckpointPlan(assignment, "prop"), rows, mode


@settings(max_examples=60, deadline=None)
@given(case=plans_and_batches())
def test_property_no_leaks_any_plan(case):
    num_units, plan, rows, mode = case
    model = make_tiny_model(num_units=num_units, features=128)
    planner = NoCheckpointPlanner(4 * GB)
    planner.setup(ModelView(model))
    ex = TrainingExecutor(model, planner, capacity_bytes=4 * GB)
    for _ in range(2):
        stats = ex.run_iteration(
            BatchInput((rows, 128), FLOAT32), PlanDecision(plan, mode=mode)
        )
        assert not stats.oom
        assert stats.end_in_use == ex.static_bytes
        assert stats.peak_in_use >= ex.static_bytes
    ex.allocator.check_consistency()


@settings(max_examples=30, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 1024), min_size=1, max_size=8),
    drop_all=st.booleans(),
)
def test_property_no_leaks_across_varying_batches(sizes, drop_all):
    """Repeated iterations with changing shapes always return the
    allocator to exactly the static footprint."""
    model = make_tiny_model(num_units=4, features=128)
    planner = NoCheckpointPlanner(8 * GB)
    planner.setup(ModelView(model))
    ex = TrainingExecutor(model, planner, capacity_bytes=8 * GB)
    names = [u.name for u in model.units]
    plan = CheckpointPlan(
        ActionAssignment.from_sets(recompute=names if drop_all else []), "p"
    )
    for rows in sizes:
        stats = ex.run_iteration(
            BatchInput((rows, 128), FLOAT32), PlanDecision(plan)
        )
        assert stats.end_in_use == ex.static_bytes
    ex.allocator.check_consistency()


@settings(max_examples=30, deadline=None)
@given(case=plans_and_batches())
def test_property_time_components_are_consistent(case):
    num_units, plan, rows, mode = case
    model = make_tiny_model(num_units=num_units, features=128)
    planner = NoCheckpointPlanner(4 * GB)
    planner.setup(ModelView(model))
    ex = TrainingExecutor(model, planner, capacity_bytes=4 * GB)
    t0 = ex.clock.now
    stats = ex.run_iteration(
        BatchInput((rows, 128), FLOAT32), PlanDecision(plan, mode=mode)
    )
    # the simulated clock advanced by exactly the reported total
    # (up to float summation-order rounding)
    assert abs((ex.clock.now - t0) - stats.total_time) < 1e-12
    assert stats.total_time > 0
    assert stats.fwd_time > 0 and stats.bwd_time > 0
    if mode is ExecutionMode.NORMAL and not plan.assignment.checkpoint_units:
        assert stats.recompute_time == 0


@settings(max_examples=20, deadline=None)
@given(case=plans_and_batches(), seed=st.integers(0, 3))
def test_property_same_inputs_same_results(case, seed):
    """The simulation is deterministic: identical runs produce identical
    stats (the reproducibility guarantee every experiment relies on)."""
    num_units, plan, rows, mode = case

    def run():
        model = make_tiny_model(num_units=num_units, features=128)
        planner = NoCheckpointPlanner(4 * GB)
        planner.setup(ModelView(model))
        ex = TrainingExecutor(model, planner, capacity_bytes=4 * GB)
        s = ex.run_iteration(
            BatchInput((rows, 128), FLOAT32), PlanDecision(plan, mode=mode)
        )
        return (
            s.peak_in_use, s.fwd_time, s.bwd_time, s.recompute_time,
            s.total_time, s.num_checkpointed,
        )

    assert run() == run()
