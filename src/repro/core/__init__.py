"""Mimose — the paper's contribution.

The input-aware checkpointing planner (§IV) and its three components:

* :class:`~repro.core.collector.ShuttlingCollector` — online per-unit
  memory/time measurement via double-forward sheltered execution (§IV-B);
* :class:`~repro.core.estimator.LightningMemoryEstimator` — per-unit
  polynomial regression of activation memory vs input size (§IV-C), with
  the alternative regression families of Table IV in
  :mod:`repro.core.estimators`;
* :class:`~repro.solvers.greedy.GreedyScheduler` — Algorithm 1's
  bucketed greedy selection (§IV-D), one entry of the pluggable
  :mod:`repro.solvers` registry;
* :class:`~repro.core.plan_cache.PlanCache` — input-size-keyed plan reuse
  (§V);
* :class:`~repro.core.lifecycle.LifecycleController` — the explicit
  collect→fit→plan state machine, with the drift detectors of
  :mod:`repro.core.drift` for online replanning under input-distribution
  drift;

all orchestrated by :class:`~repro.core.planner.MimosePlanner`.
"""

from repro.core.adaptive import ResidualTracker
from repro.core.collector import CollectedSample, ShuttlingCollector
from repro.core.drift import CusumMonitor, PageHinkleyDetector
from repro.core.lifecycle import LifecycleController, LifecycleState
from repro.core.estimators import (
    DecisionTreeRegressor,
    GradientBoostedTrees,
    PolynomialRegressor,
    Regressor,
    SupportVectorRegressor,
    make_regressor,
)
from repro.core.estimator import EstimatorReport, LightningMemoryEstimator
from repro.core.plan_cache import PlanCache
from repro.core.planner import MimosePlanner

__all__ = [
    "ResidualTracker",
    "CollectedSample",
    "ShuttlingCollector",
    "CusumMonitor",
    "PageHinkleyDetector",
    "LifecycleController",
    "LifecycleState",
    "DecisionTreeRegressor",
    "GradientBoostedTrees",
    "PolynomialRegressor",
    "Regressor",
    "SupportVectorRegressor",
    "make_regressor",
    "EstimatorReport",
    "LightningMemoryEstimator",
    "PlanCache",
    "MimosePlanner",
]
