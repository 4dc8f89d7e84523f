#!/usr/bin/env python3
"""Visualise (in ASCII) the memory timeline of one training iteration.

Renders bytes-in-use sampled at every unit boundary for three executions
of the same Bert-base batch: no checkpointing, full checkpointing, and a
Mimose-style partial plan.  The no-checkpoint curve climbs through the
forward pass and falls through the backward; checkpointing flattens the
climb at the cost of recompute bumps on the way down — the geometry every
planner in the paper is trading against.

The samples come straight off the executor's event bus: a small observer
subscribes to ``UnitForward``/``UnitBackward`` and records one point per
unit boundary — the same stream ``MemoryTimeline`` consumes internally.

Usage:
    python examples/memory_timeline.py [--seqlen 256] [--batch 32]
"""

from __future__ import annotations

import argparse

from repro.engine.events import UnitBackward, UnitForward
from repro.engine.executor import TrainingExecutor
from repro.models.base import BatchInput
from repro.models.registry import build_model
from repro.planners.base import (
    ActionAssignment,
    CheckpointPlan,
    ModelView,
    PlanDecision,
)
from repro.planners.none import NoCheckpointPlanner
from repro.tensorsim.dtypes import INT64

GB = 1024**3


class CurveObserver:
    """Event-bus subscriber collecting (time, bytes-in-use) samples."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, int]] = []

    def attach(self, bus) -> "CurveObserver":
        bus.subscribe(self, UnitForward, UnitBackward)
        return self

    def __call__(self, event) -> None:
        self.samples.append((event.time, event.bytes_in_use))


def render_curve(samples, width: int = 64, height: int = 12) -> str:
    """Tiny ASCII line chart of (time, bytes) samples."""
    if not samples:
        return "(no samples)"
    times = [t for t, _ in samples]
    values = [v for _, v in samples]
    t0, t1 = min(times), max(times)
    v1 = max(values)
    grid = [[" "] * width for _ in range(height)]
    for t, v in zip(times, values):
        x = int((t - t0) / (t1 - t0 or 1) * (width - 1))
        y = int(v / (v1 or 1) * (height - 1))
        grid[height - 1 - y][x] = "*"
    lines = ["".join(row) for row in grid]
    lines.append("-" * width)
    lines.append(f"0s{' ' * (width - 12)}{t1 - t0:.3f}s  (peak {v1 / GB:.2f} GB)")
    return "\n".join(lines)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seqlen", type=int, default=256)
    parser.add_argument("--batch", type=int, default=32)
    args = parser.parse_args()

    batch = BatchInput((args.batch, args.seqlen), INT64)
    plans = [
        ("no checkpointing", CheckpointPlan(ActionAssignment(), "none")),
        (
            "checkpoint all encoders",
            CheckpointPlan(
                ActionAssignment.from_sets(
                    recompute=[f"encoder.{i}" for i in range(12)]
                ),
                "all",
            ),
        ),
        (
            "checkpoint first six encoders (Mimose-style partial plan)",
            CheckpointPlan(
                ActionAssignment.from_sets(
                    recompute=[f"encoder.{i}" for i in range(6)]
                ),
                "half",
            ),
        ),
    ]
    for title, plan in plans:
        model = build_model("bert-base")
        planner = NoCheckpointPlanner(16 * GB)
        planner.setup(ModelView(model))
        executor = TrainingExecutor(model, planner, capacity_bytes=16 * GB)
        curve = CurveObserver().attach(executor.events)
        stats = executor.run_iteration(batch, PlanDecision(plan))
        print(f"\n=== {title} ===")
        print(render_curve(curve.samples))
        print(
            f"iteration {1e3 * stats.total_time:.0f} ms "
            f"(recompute {1e3 * stats.recompute_time:.0f} ms), "
            f"peak {stats.peak_in_use / GB:.2f} GB"
        )


if __name__ == "__main__":
    main()
