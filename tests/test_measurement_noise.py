"""Measurement-noise robustness: real profiling jitters, the estimator
must still produce usable predictions (the paper's Table IV/V numbers
come from noisy GPU measurements)."""

import pytest

from repro.core.collector import ShuttlingCollector
from repro.core.estimator import LightningMemoryEstimator
from repro.core.planner import MimosePlanner
from repro.engine.executor import TrainingExecutor
from repro.models.base import BatchInput
from repro.planners.analysis import unit_saved_bytes
from repro.planners.base import (
    ActionAssignment,
    CheckpointPlan,
    ExecutionMode,
    ModelView,
    PlanDecision,
)
from repro.planners.none import NoCheckpointPlanner
from repro.tensorsim.dtypes import FLOAT32

from tests.helpers import GB, make_tiny_model


def collect_with_noise(noise, sizes, seed=0, num_units=4):
    model = make_tiny_model(num_units=num_units, features=256)
    planner = NoCheckpointPlanner(8 * GB)
    planner.setup(ModelView(model))
    ex = TrainingExecutor(
        model, planner, capacity_bytes=8 * GB,
        measurement_noise=noise, noise_seed=seed,
    )
    collector = ShuttlingCollector(min_iterations=1, min_distinct_sizes=3)
    for rows in sizes:
        stats = ex.run_iteration(
            BatchInput((rows, 256), FLOAT32),
            PlanDecision(
                CheckpointPlan(ActionAssignment(), "none"),
                mode=ExecutionMode.COLLECT,
            ),
        )
        collector.ingest(stats.measurements)
    return model, collector


SIZES = (64, 128, 256, 384, 512, 640, 768, 896, 1024, 1152)


def test_noise_zero_is_exact():
    model, collector = collect_with_noise(0.0, SIZES)
    profiles = {
        p.module_name: p
        for p in model.profiles(BatchInput((512, 256), FLOAT32))
    }
    for m in collector.samples("unit.0"):
        if m.input_size == 512 * 256:
            truth = unit_saved_bytes(profiles["unit.0"])
            assert truth <= m.saved_bytes <= truth + 4096


def test_noise_perturbs_measurements():
    _, clean = collect_with_noise(0.0, SIZES)
    _, noisy = collect_with_noise(0.05, SIZES)
    clean_vals = [s.saved_bytes for s in clean.samples("unit.0")]
    noisy_vals = [s.saved_bytes for s in noisy.samples("unit.0")]
    assert clean_vals != noisy_vals


def test_noise_is_deterministic_per_seed():
    _, a = collect_with_noise(0.05, SIZES, seed=7)
    _, b = collect_with_noise(0.05, SIZES, seed=7)
    _, c = collect_with_noise(0.05, SIZES, seed=8)
    va = [s.saved_bytes for s in a.samples("unit.1")]
    vb = [s.saved_bytes for s in b.samples("unit.1")]
    vc = [s.saved_bytes for s in c.samples("unit.1")]
    assert va == vb
    assert va != vc


@pytest.mark.parametrize("noise,max_err", [(0.01, 0.02), (0.05, 0.10)])
def test_estimator_degrades_gracefully_with_noise(noise, max_err):
    """Percent-level profiling jitter yields percent-level prediction
    error — least squares averages it out over the samples."""
    model, collector = collect_with_noise(noise, SIZES, seed=3)
    est = LightningMemoryEstimator()
    est.fit(collector)
    probe = BatchInput((700, 256), FLOAT32)
    truth = {
        p.module_name: unit_saved_bytes(p)
        for p in model.profiles(probe)
        if p.module_name.startswith("unit.")
    }
    predicted = sum(est.predict_bytes(u, probe.input_size) for u in truth)
    actual = sum(truth.values())
    assert abs(predicted - actual) / actual < max_err


def test_mimose_stays_in_budget_under_noise():
    """End to end: noisy measurements do not break budget compliance
    (the headroom absorbs them)."""
    model = make_tiny_model(num_units=6, features=512)
    static = model.static_memory().total
    budget = static + 40 * 1024**2
    planner = MimosePlanner(
        budget, collect_iterations=4, headroom_bytes=10 * 1024**2
    )
    planner.setup(ModelView(model))
    ex = TrainingExecutor(
        model, planner, capacity_bytes=budget,
        measurement_noise=0.03, noise_seed=11,
    )
    for rows in (512, 1024, 1536, 768, 1400, 1200, 900):
        stats = ex.step(BatchInput((rows, 512), FLOAT32))
        assert not stats.oom
        assert stats.peak_in_use <= budget


def test_negative_noise_rejected():
    model = make_tiny_model()
    planner = NoCheckpointPlanner(GB)
    planner.setup(ModelView(model))
    with pytest.raises(ValueError):
        TrainingExecutor(
            model, planner, capacity_bytes=GB, measurement_noise=-0.1
        )
