"""Tests for OOM recovery: the planner's escalation ladder and the
executor's retry loop, including the fault-plan acceptance scenario."""


from repro.core.planner import MimosePlanner
from repro.engine.executor import TrainingExecutor
from repro.engine.stats import IterationStats, RunResult
from repro.models.base import BatchInput
from repro.planners.base import ModelView
from repro.planners.sublinear import SublinearPlanner
from repro.tensorsim.dtypes import FLOAT32
from repro.tensorsim.faults import FaultPlan, FragmentationSpike

from tests.helpers import GB, MB, make_tiny_model

ROWS = [512, 1024, 1536, 768, 1400, 1500, 1450, 1480, 1500, 1400]


def run_tiny(*, spike_mb=0, max_retries=3):
    """The acceptance scenario, miniaturised: a tight budget, a spike in
    the responsive phase, and the recovery ladder in between."""
    model = make_tiny_model(num_units=6, features=512)
    budget = model.static_memory().total + 60 * MB
    planner = MimosePlanner(
        budget, collect_iterations=4, headroom_bytes=8 * MB,
        headroom_step=8 * MB,
    )
    planner.setup(ModelView(model))
    faults = None
    if spike_mb:
        faults = FaultPlan(seed=3, spikes=(
            FragmentationSpike(start_iteration=7, num_iterations=2,
                               reserve_bytes=spike_mb * MB),
        ))
    ex = TrainingExecutor(
        model, planner, capacity_bytes=budget, faults=faults,
        max_recovery_retries=max_retries,
    )
    result = RunResult("tiny", planner.name, budget)
    for rows in ROWS:
        result.append(ex.step(BatchInput((rows, 512), FLOAT32)))
    return planner, result


# ------------------------------------------------------------ executor ladder

def test_seed_behaviour_spike_is_fatal_without_recovery():
    _, result = run_tiny(spike_mb=20, max_retries=0)
    assert result.oom_count >= 1
    assert not result.succeeded
    assert result.total_retries == 0


def test_recovery_survives_the_same_spike():
    planner, result = run_tiny(spike_mb=20, max_retries=3)
    assert result.succeeded
    assert result.oom_count == 0
    assert result.recovered_count >= 1
    assert result.total_retries >= 1
    assert planner.recovery_attempts >= 1
    # every recovered iteration names the rung that saved it
    for s in result.iterations:
        if s.retries:
            assert s.recovery_mode in (
                "replan", "widen-reserve", "full-checkpoint"
            )
            assert s.recovered


def test_recovery_reaches_the_full_checkpoint_rung():
    _, result = run_tiny(spike_mb=20, max_retries=3)
    assert "full-checkpoint" in result.recovery_modes()


def test_recovery_charges_wasted_attempts_to_planning_time():
    _, clean = run_tiny(spike_mb=0)
    _, result = run_tiny(spike_mb=20, max_retries=3)
    recovered = [s for s in result.iterations if s.retries]
    assert recovered
    # the failed attempts' wall-clock rides on the surviving attempt
    mean_clean_planning = sum(
        s.planning_time for s in clean.iterations
    ) / len(clean.iterations)
    assert all(s.planning_time > mean_clean_planning for s in recovered)


def test_recovery_keeps_iteration_numbering_dense():
    _, result = run_tiny(spike_mb=20, max_retries=3)
    assert [s.iteration for s in result.iterations] == list(
        range(1, len(ROWS) + 1)
    )


def test_exhausted_ladder_reports_the_oom():
    """A spike too large even for the full-checkpoint floor: the ladder
    runs out of rungs and the iteration stays failed."""
    _, result = run_tiny(spike_mb=30, max_retries=3)
    assert result.oom_count >= 1
    assert not result.succeeded
    failed = next(s for s in result.iterations if s.oom)
    assert failed.retries == 3
    assert not failed.recovered


def test_recovery_slowdown_is_bounded():
    """Recovery must not blow up the mean iteration time.  This tiny
    scenario replays 2 of 10 iterations through the full ladder — a far
    larger recovery tax than a real run pays — so the bound here is
    loose; the acceptance criterion proper (within 25 % of fault-free at
    TC-Bert scale) is asserted by benchmarks/bench_recovery.py."""
    _, clean = run_tiny(spike_mb=0)
    _, faulted = run_tiny(spike_mb=20, max_retries=3)
    assert faulted.mean_iteration_time() <= 1.5 * clean.mean_iteration_time()


def test_recovery_requires_planner_support():
    """Planners without a ladder (static baselines) are never retried."""
    model = make_tiny_model(num_units=6, features=512)
    budget = model.static_memory().total + 40 * MB
    planner = SublinearPlanner(
        budget, worst_case_batch=BatchInput((1536, 512), FLOAT32)
    )
    planner.setup(ModelView(model))
    faults = FaultPlan(spikes=(
        FragmentationSpike(start_iteration=2, num_iterations=1,
                           reserve_bytes=50 * MB),
    ))
    ex = TrainingExecutor(
        model, planner, capacity_bytes=budget, faults=faults,
        max_recovery_retries=3,
    )
    result = RunResult("tiny", planner.name, budget)
    for rows in ROWS[:3]:
        result.append(ex.step(BatchInput((rows, 512), FLOAT32)))
    assert result.oom_count >= 1
    assert result.total_retries == 0


# ------------------------------------------------------------- planner ladder

def _fitted_planner():
    model = make_tiny_model(num_units=6, features=512)
    budget = model.static_memory().total + 60 * MB
    planner = MimosePlanner(
        budget, collect_iterations=4, headroom_bytes=8 * MB,
        headroom_step=8 * MB,
    )
    planner.setup(ModelView(model))
    ex = TrainingExecutor(model, planner, capacity_bytes=budget)
    for rows in ROWS[:5]:
        ex.step(BatchInput((rows, 512), FLOAT32))
    assert planner.estimator.is_fitted
    return planner


def _failed_stats():
    return IterationStats(
        iteration=6, input_size=1500 * 512, input_shape=(1500, 512),
        mode="normal", plan_label="mimose", num_checkpointed=0,
        fwd_time=0.0, bwd_time=0.0, recompute_time=0.0, collect_time=0.0,
        planning_time=0.0, upkeep_time=0.0, optimizer_time=0.0,
        peak_in_use=0, peak_reserved=0, end_in_use=0,
        fragmentation_bytes=0, oom=True,
    )


def test_ladder_rung0_replans_and_clears_cache():
    planner = _fitted_planner()
    batch = BatchInput((1500, 512), FLOAT32)
    planner.plan(batch)  # populate the cache for this size
    assert len(planner.cache) > 0
    decision = planner.recover(batch, _failed_stats(), 0)
    assert decision is not None
    assert decision.recovery_mode == "replan"
    # the replacement plan is cached for the retried size only
    assert len(planner.cache) == 1


def test_ladder_rung1_widens_the_reserve():
    planner = _fitted_planner()
    before = planner.headroom_bytes
    decision = planner.recover(
        BatchInput((1500, 512), FLOAT32), _failed_stats(), 1
    )
    assert decision is not None
    assert decision.recovery_mode == "widen-reserve"
    assert planner.headroom_bytes == before + planner.headroom_step


def test_ladder_rung2_checkpoints_everything():
    planner = _fitted_planner()
    decision = planner.recover(
        BatchInput((1500, 512), FLOAT32), _failed_stats(), 2
    )
    assert decision is not None
    assert decision.recovery_mode == "full-checkpoint"
    recomputed = decision.plan.assignment.checkpoint_units
    assert recomputed == frozenset(planner._order)


def test_ladder_exhausts_after_rung2():
    planner = _fitted_planner()
    assert planner.recover(
        BatchInput((1500, 512), FLOAT32), _failed_stats(), 3
    ) is None


def test_unfitted_planner_goes_straight_to_full_checkpoint():
    model = make_tiny_model(num_units=6, features=512)
    planner = MimosePlanner(int(2 * GB), collect_iterations=4)
    planner.setup(ModelView(model))
    decision = planner.recover(
        BatchInput((512, 512), FLOAT32), _failed_stats(), 0
    )
    assert decision is not None
    assert decision.recovery_mode == "full-checkpoint"
