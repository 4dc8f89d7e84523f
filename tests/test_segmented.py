"""Tests for segment-level checkpointing (plan, executor, predictor,
planner) — the Chen et al. √n semantics extension."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.executor import TrainingExecutor
from repro.models.base import BatchInput
from repro.models.registry import build_model
from repro.planners.analysis import (
    full_checkpoint_peak,
    predict_peak_bytes,
    no_checkpoint_peak,
)
from repro.planners.base import (
    ActionAssignment,
    CheckpointPlan,
    ModelView,
    PlanDecision,
)
from repro.planners.none import NoCheckpointPlanner
from repro.planners.segmented import (
    SegmentedSublinearPlanner,
    balanced_segments,
    checkpointable_runs,
    minimum_memory_plan,
)
from repro.tensorsim.dtypes import FLOAT32, INT64

from tests.helpers import GB, make_tiny_model

ALIGNMENT_SLACK = 64 * 1024


def executed_peak(model, batch, plan):
    planner = NoCheckpointPlanner(64 * GB)
    planner.setup(ModelView(model))
    ex = TrainingExecutor(model, planner, capacity_bytes=64 * GB)
    stats = ex.run_iteration(batch, PlanDecision(plan))
    assert not stats.oom
    assert stats.end_in_use == ex.static_bytes  # no leaks either
    return stats.peak_in_use


# ------------------------------------------------------------------ plan type

def test_plan_rejects_unit_in_segment_and_drop_set():
    with pytest.raises(ValueError, match="conflicting"):
        ActionAssignment.from_sets(recompute={"a"}, segments=(("a", "b"),))
    with pytest.raises(ValueError, match="conflicting"):
        ActionAssignment(segments=(("a",), ("a",)))
    with pytest.raises(ValueError, match="non-empty"):
        ActionAssignment(segments=((),))


def test_segment_units_property():
    plan = CheckpointPlan(ActionAssignment(segments=(("a", "b"), ("c",))), "x")
    assert plan.assignment.segment_units == {"a", "b", "c"}


# ------------------------------------------------------------------ executor

def test_executor_validates_segments(tiny_model):
    planner = NoCheckpointPlanner(4 * GB)
    planner.setup(ModelView(tiny_model))
    ex = TrainingExecutor(tiny_model, planner, capacity_bytes=4 * GB)
    batch = BatchInput((8, 64), FLOAT32)
    bad_nonconsecutive = CheckpointPlan(
        ActionAssignment(segments=(("unit.0", "unit.2"),)), "x"
    )
    with pytest.raises(ValueError, match="consecutive"):
        ex.run_iteration(batch, PlanDecision(bad_nonconsecutive))
    with pytest.raises(ValueError, match="unknown unit"):
        ex.run_iteration(
            batch,
            PlanDecision(
                CheckpointPlan(ActionAssignment(segments=(("nope",),)), "x")
            ),
        )


def test_segmenting_everything_recovers_no_checkpoint_peak(bert_model):
    """One segment over all encoders: backward replays everything at once,
    so the peak approaches the no-checkpoint peak (only transiency and
    embeddings/head differences remain)."""
    view = ModelView(bert_model)
    batch = BatchInput((16, 256), INT64)
    profiles = view.profiles(batch)
    one_seg = CheckpointPlan(
        ActionAssignment(segments=(tuple(f"encoder.{i}" for i in range(12)),)),
        "one",
    )
    peak_seg = predict_peak_bytes(
        profiles, one_seg,
        static_bytes=view.static_memory.total, input_nbytes=batch.nbytes,
        checkpointable=view.checkpointable,
    )
    ub = no_checkpoint_peak(
        profiles, static_bytes=view.static_memory.total, input_nbytes=batch.nbytes
    )
    assert peak_seg >= 0.9 * ub


def test_segment_floor_never_exceeds_per_unit_floor(bert_model):
    """The k-scan includes k = n (one unit per segment), which is exactly
    per-unit checkpointing, so the segment floor can never be worse."""
    view = ModelView(bert_model)
    batch = BatchInput((16, 256), INT64)
    profiles = view.profiles(batch)
    per_unit_floor = full_checkpoint_peak(
        profiles, static_bytes=view.static_memory.total,
        input_nbytes=batch.nbytes, checkpointable=view.checkpointable,
    )
    _, seg_floor = minimum_memory_plan(view, batch)
    assert seg_floor <= per_unit_floor


def test_segmentation_helps_pre_norm_architectures():
    """An empirical finding of this reproduction: grouping only beats the
    per-unit floor when a unit's *internal* saved set is small relative
    to its boundary — true for pre-norm blocks (GPT-2, whose residual
    Add saves nothing), not for post-norm BERT, where the group-recompute
    working set cancels the boundary savings."""
    gpt2 = build_model("gpt2-small")
    view = ModelView(gpt2)
    batch = BatchInput((8, 512), INT64)
    unit_floor = full_checkpoint_peak(
        view.profiles(batch),
        static_bytes=view.static_memory.total,
        input_nbytes=batch.nbytes,
        checkpointable=view.checkpointable,
    )
    plan, seg_floor = minimum_memory_plan(view, batch)
    assert seg_floor < unit_floor * 0.99
    assert any(len(s) > 1 for s in plan.assignment.segments)

    bert_view = ModelView(build_model("bert-base"))
    bert_batch = BatchInput((16, 256), INT64)
    bert_unit = full_checkpoint_peak(
        bert_view.profiles(bert_batch),
        static_bytes=bert_view.static_memory.total,
        input_nbytes=bert_batch.nbytes,
        checkpointable=bert_view.checkpointable,
    )
    _, bert_seg = minimum_memory_plan(bert_view, bert_batch)
    assert bert_seg == bert_unit  # no grouping gain on post-norm blocks


@pytest.mark.parametrize(
    "segs",
    [
        ((0, 4), (4, 8), (8, 12)),
        ((0, 12),),
        ((2, 5), (7, 12)),
        ((0, 1), (1, 2), (2, 3)),
    ],
)
def test_predictor_matches_executor_with_segments(bert_model, segs):
    view = ModelView(bert_model)
    batch = BatchInput((16, 192), INT64)
    segments = tuple(
        tuple(f"encoder.{i}" for i in range(a, b)) for a, b in segs
    )
    plan = CheckpointPlan(ActionAssignment(segments=segments), "seg")
    pred = predict_peak_bytes(
        view.profiles(batch), plan,
        static_bytes=view.static_memory.total, input_nbytes=batch.nbytes,
        checkpointable=view.checkpointable,
    )
    model = build_model("bert-base")
    real = executed_peak(model, batch, plan)
    assert abs(pred - real) <= ALIGNMENT_SLACK


def test_mixed_segments_and_unit_drops(bert_model):
    view = ModelView(bert_model)
    batch = BatchInput((16, 192), INT64)
    plan = CheckpointPlan(
        ActionAssignment.from_sets(
            recompute={"encoder.8", "encoder.10"},
            segments=(tuple(f"encoder.{i}" for i in range(0, 4)),),
        ),
        "mix",
    )
    pred = predict_peak_bytes(
        view.profiles(batch), plan,
        static_bytes=view.static_memory.total, input_nbytes=batch.nbytes,
        checkpointable=view.checkpointable,
    )
    real = executed_peak(build_model("bert-base"), batch, plan)
    assert abs(pred - real) <= ALIGNMENT_SLACK


@settings(max_examples=20, deadline=None)
@given(
    num_units=st.integers(3, 6),
    cut=st.integers(1, 5),
    rows=st.integers(8, 128),
)
def test_property_segment_plans_never_leak(num_units, cut, rows):
    cut = min(cut, num_units - 1)
    model = make_tiny_model(num_units=num_units, features=128)
    names = [u.name for u in model.units]
    segments = (tuple(names[:cut]), tuple(names[cut:]))
    plan = CheckpointPlan(ActionAssignment(segments=segments), "p")
    batch = BatchInput((rows, 128), FLOAT32)
    pred = predict_peak_bytes(
        ModelView(model).profiles(batch), plan,
        static_bytes=model.static_memory().total, input_nbytes=batch.nbytes,
        checkpointable=frozenset(names),
    )
    real = executed_peak(model, batch, plan)
    assert abs(pred - real) <= ALIGNMENT_SLACK


# ----------------------------------------------------------------- utilities

def test_checkpointable_runs_respect_gaps():
    model = build_model("swin-tiny")  # merges interrupt the block runs
    runs = checkpointable_runs(ModelView(model))
    assert [len(r) for r in runs] == [2, 2, 6, 2]


def test_balanced_segments_shapes():
    runs = [[f"u{i}" for i in range(7)]]
    segs = balanced_segments(runs, 3)
    assert [len(s) for s in segs] == [3, 2, 2]
    assert [n for s in segs for n in s] == runs[0]
    assert balanced_segments([[]], 2) == ()
    with pytest.raises(ValueError):
        balanced_segments(runs, 0)


def test_balanced_segments_more_k_than_units():
    runs = [["a", "b"]]
    segs = balanced_segments(runs, 10)
    assert segs == (("a",), ("b",))


# ------------------------------------------------------------------- planner

def test_segmented_planner_prefers_per_unit_when_it_fits(bert_model):
    view = ModelView(bert_model)
    batch = BatchInput((16, 256), INT64)
    p = SegmentedSublinearPlanner(5 * GB, worst_case_batch=batch)
    p.setup(view)
    decision = p.plan(batch)
    assert not decision.plan.assignment.segments  # per-unit plan was enough


def test_segmented_planner_extends_below_per_unit_floor():
    """On GPT-2, a budget below the per-unit floor still trains thanks to
    the segment fallback."""
    model = build_model("gpt2-small")
    view = ModelView(model)
    batch = BatchInput((8, 512), INT64)
    per_unit_floor = full_checkpoint_peak(
        view.profiles(batch),
        static_bytes=view.static_memory.total,
        input_nbytes=batch.nbytes,
        checkpointable=view.checkpointable,
    )
    budget = int(per_unit_floor * 0.995) + SegmentedSublinearPlanner.FRAG_RESERVE
    planner = SegmentedSublinearPlanner(budget, worst_case_batch=batch)
    planner.setup(view)
    plan = planner.plan(batch).plan
    assert plan.assignment.segments  # fell back to segment checkpointing
    executor_model = build_model("gpt2-small")
    p2 = SegmentedSublinearPlanner(budget, worst_case_batch=batch)
    p2.setup(ModelView(executor_model))
    ex = TrainingExecutor(executor_model, p2, capacity_bytes=budget)
    stats = ex.step(batch)
    assert not stats.oom
    assert stats.peak_in_use <= budget
