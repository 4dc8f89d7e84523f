"""Tests for the static baselines: Sublinear, Checkmate, MONeT."""

import pytest

from repro.models.base import BatchInput
from repro.planners.analysis import predict_peak_bytes
from repro.planners.base import ModelView
from repro.planners.checkmate import CheckmatePlanner, solve_keep_knapsack
from repro.planners.monet import MonetPlanner
from repro.planners.none import NoCheckpointPlanner
from repro.planners.sublinear import SublinearPlanner, evenly_spaced_keep
from repro.tensorsim.dtypes import FLOAT32, INT64

from tests.helpers import GB


def worst(rows=64, length=256):
    return BatchInput((rows, length), INT64)


# ------------------------------------------------------------------ sublinear

def test_evenly_spaced_keep_bounds():
    names = [f"u{i}" for i in range(12)]
    assert evenly_spaced_keep(names, 0) == frozenset()
    assert evenly_spaced_keep(names, 12) == frozenset(names)
    kept = evenly_spaced_keep(names, 4)
    assert len(kept) == 4
    # spread out: indices roughly 1, 4, 7, 10
    idx = sorted(int(n[1:]) for n in kept)
    assert idx[0] < 3 and idx[-1] > 8


def test_evenly_spaced_keep_more_than_available():
    assert evenly_spaced_keep(["a"], 5) == frozenset(["a"])


def test_sublinear_plan_is_static_across_inputs(bert_model):
    view = ModelView(bert_model)
    planner = SublinearPlanner(4 * GB, worst_case_batch=worst(32, 300))
    planner.setup(view)
    d1 = planner.plan(BatchInput((32, 60), INT64))
    d2 = planner.plan(BatchInput((32, 300), INT64))
    assert d1.plan.assignment == d2.plan.assignment


def test_sublinear_respects_budget_at_worst_case(bert_model):
    view = ModelView(bert_model)
    budget = 4 * GB
    w = worst(32, 300)
    planner = SublinearPlanner(budget, worst_case_batch=w)
    planner.setup(view)
    peak = predict_peak_bytes(
        view.profiles(w),
        planner.plan(w).plan,
        static_bytes=view.static_memory.total,
        input_nbytes=w.nbytes,
        checkpointable=view.checkpointable,
    )
    assert peak <= budget


def test_sublinear_keeps_more_with_bigger_budget(bert_model):
    view = ModelView(bert_model)
    w = worst(32, 300)
    drops = []
    for budget in (3 * GB, 4 * GB, 5 * GB):
        p = SublinearPlanner(budget, worst_case_batch=w)
        p.setup(view)
        drops.append(len(p.plan(w).plan.assignment.checkpoint_units))
    assert drops[0] >= drops[1] >= drops[2]


def test_sublinear_plan_before_setup_raises():
    p = SublinearPlanner(GB, worst_case_batch=worst())
    with pytest.raises(RuntimeError):
        p.plan(worst())


# ------------------------------------------------------------------- knapsack

def test_knapsack_picks_best_value_subset():
    # capacity 3 MiB; items (value, weight MiB): (10,2) (7,1) (5,1)
    values = [10.0, 7.0, 5.0]
    weights = [2 << 20, 1 << 20, 1 << 20]
    chosen = solve_keep_knapsack(values, weights, 3 << 20)
    assert sorted(chosen) == [0, 1]  # value 17 beats (7+5)=12


def test_knapsack_empty_and_zero_capacity():
    assert solve_keep_knapsack([], [], 10) == []
    assert solve_keep_knapsack([1.0], [100], 0) == []


def test_knapsack_all_fit():
    chosen = solve_keep_knapsack([1.0, 2.0], [1 << 20, 1 << 20], 64 << 20)
    assert sorted(chosen) == [0, 1]


def test_knapsack_respects_capacity():
    values = [5.0, 4.0, 3.0, 2.0]
    weights = [4 << 20, 3 << 20, 2 << 20, 1 << 20]
    chosen = solve_keep_knapsack(values, weights, 5 << 20)
    assert sum(weights[i] for i in chosen) <= 5 << 20


# ------------------------------------------------------------------ checkmate

def test_checkmate_beats_or_matches_sublinear_recompute(bert_model):
    """Optimal static plan drops no more forward work than the heuristic."""
    view = ModelView(bert_model)
    w = worst(32, 300)
    budget = 4 * GB
    sub = SublinearPlanner(budget, worst_case_batch=w)
    sub.setup(view)
    cm = CheckmatePlanner(budget, assumed_batch=w)
    cm.setup(view)
    profiles = {p.module_name: p for p in view.profiles(w)}

    def recompute_flops(plan):
        dropped = plan.assignment.checkpoint_units
        return sum(profiles[n].fwd_flops for n in dropped)

    assert recompute_flops(cm.plan(w).plan) <= recompute_flops(sub.plan(w).plan)


def test_checkmate_respects_budget_at_assumed_shape(bert_model):
    view = ModelView(bert_model)
    w = worst(32, 300)
    budget = 4 * GB
    cm = CheckmatePlanner(budget, assumed_batch=w)
    cm.setup(view)
    peak = predict_peak_bytes(
        view.profiles(w),
        cm.plan(w).plan,
        static_bytes=view.static_memory.total,
        input_nbytes=w.nbytes,
        checkpointable=view.checkpointable,
    )
    assert peak <= budget


def test_checkmate_overshoots_on_larger_than_assumed_inputs(bert_model):
    """The static-graph failure mode: inputs beyond the assumption blow
    through the budget (the Fig 10 OD annotations)."""
    view = ModelView(bert_model)
    assumed = BatchInput((32, 100), INT64)
    budget = 3 * GB
    cm = CheckmatePlanner(budget, assumed_batch=assumed)
    cm.setup(view)
    big = BatchInput((32, 332), INT64)
    peak = predict_peak_bytes(
        view.profiles(big),
        cm.plan(big).plan,
        static_bytes=view.static_memory.total,
        input_nbytes=big.nbytes,
        checkpointable=view.checkpointable,
    )
    assert peak > budget


def test_checkmate_tight_budget_falls_back_to_all(bert_model):
    view = ModelView(bert_model)
    w = worst(32, 300)
    cm = CheckmatePlanner(int(2.6 * GB), assumed_batch=w)
    cm.setup(view)
    dropped = cm.plan(w).plan.assignment.checkpoint_units
    assert dropped == view.checkpointable


# ---------------------------------------------------------------------- monet

def test_monet_budget_slightly_looser_than_checkmate(bert_model):
    view = ModelView(bert_model)
    w = worst(32, 300)
    budget = 4 * GB
    cm = CheckmatePlanner(budget, assumed_batch=w)
    cm.setup(view)
    mo = MonetPlanner(budget, assumed_batch=w)
    mo.setup(view)
    # joint op selection => MONeT drops at most as much as Checkmate
    assert len(mo.plan(w).plan.assignment.checkpoint_units) <= len(
        cm.plan(w).plan.assignment.checkpoint_units
    )
    assert mo.plan(w).plan.label == "monet"
    assert mo.budget_bytes == budget  # the loosening is internal only


def test_monet_models_long_solve_time():
    mo = MonetPlanner(4 * GB, assumed_batch=worst())
    assert mo.solve_time_s >= 8 * 3600


# ------------------------------------------------------------------- baseline

def test_baseline_never_checkpoints(tiny_model):
    view = ModelView(tiny_model)
    p = NoCheckpointPlanner(GB)
    p.setup(view)
    d = p.plan(BatchInput((8, 64), FLOAT32))
    assert d.plan.assignment.is_empty
    assert p.requires_physical_capacity


def test_planner_rejects_nonpositive_budget():
    with pytest.raises(ValueError):
        NoCheckpointPlanner(0)
