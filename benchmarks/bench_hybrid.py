"""Hybrid (swap+recompute) Mimose vs the Capuchin baseline.

The action-layer refactor made Mimose's excess-covering step pluggable:
``--solver hybrid`` runs the same PCIe cost rule Capuchin uses, but
re-priced per input size from the Lightning estimator.  The paper's
input-dynamics argument then predicts a concrete win on a transformer
workload over a slow host link:

* **Capuchin** plans once for the largest measured shape and applies
  that plan to every iteration — it swaps the same units even on small
  inputs whose backward pass cannot hide the transfers, and its stalls
  accumulate across the whole run;
* **hybrid Mimose** re-plans per input size — small inputs have no
  excess and swap nothing, and the swap/recompute split shifts toward
  recompute exactly where transfers stop being hideable.

The benchmark pins that ordering: over a full run, hybrid Mimose's
aggregate swap stall must undercut Capuchin's, while mixing both
actions (some units swapped, some dropped) and respecting the budget
Capuchin overshoots.
"""

from dataclasses import replace

from repro.experiments.report import render_table
from repro.experiments.runner import run_task
from repro.experiments.tasks import GB, load_task
from repro.solvers import predicted_swap_stall
from repro.tensorsim.device import DeviceModel, V100

from conftest import run_once, save_result

TASK = "TC-Bert"
BUDGET = int(2.5 * GB)
ITERATIONS = 40
#: a congested host link (PCIe 3.0 x8-ish) — slow enough that swap-ins
#: are not always hidden by the backward pass, which is where the
#: per-size re-planning pays off
SLOW_PCIE = 6e9


def _run(planner, *, scheduler=None):
    device = DeviceModel(replace(V100, pcie_bandwidth=SLOW_PCIE))
    task = load_task(TASK, iterations=ITERATIONS, seed=0)
    result = run_task(
        task,
        planner,
        BUDGET,
        device=device,
        max_iterations=ITERATIONS,
        scheduler=scheduler,
    )
    return {
        "planner": planner + (f"+{scheduler}" if scheduler else ""),
        "stall_ms": 1e3 * sum(s.swap_stall_time for s in result.iterations),
        "swaps": sum(s.num_swapped for s in result.iterations),
        "drops": sum(s.num_checkpointed for s in result.iterations),
        "peak_reserved_gb": result.peak_reserved / GB,
        "total_s": result.total_time,
        "succeeded": result.succeeded,
    }


def bench_hybrid_mimose_stalls_less_than_capuchin(benchmark, results_dir):
    """Input-aware hybrid planning beats the static hybrid on stalls."""

    def scenario():
        return {
            "capuchin": _run("capuchin"),
            "hybrid": _run("mimose", scheduler="hybrid"),
        }

    rows = run_once(benchmark, scenario)
    capuchin, hybrid = rows["capuchin"], rows["hybrid"]
    text = render_table(
        [capuchin, hybrid],
        title=(
            f"Hybrid planning: {TASK} @ {BUDGET / GB:.1f} GB, "
            f"PCIe {SLOW_PCIE / 1e9:.0f} GB/s"
        ),
    )
    save_result(results_dir, "hybrid_vs_capuchin", text)
    # both complete, but only hybrid Mimose honours the budget
    assert capuchin["succeeded"] and hybrid["succeeded"], rows
    assert hybrid["peak_reserved_gb"] <= BUDGET / GB, rows
    # the hybrid plan genuinely mixes the two actions
    assert hybrid["swaps"] > 0 and hybrid["drops"] > 0, rows
    # the headline: per-size re-planning stalls less than the static plan
    assert hybrid["stall_ms"] < capuchin["stall_ms"], rows


# ------------------------------------------------- pricing calibration

#: host-link grid for the calibration check — the stall/overlap balance
#: shifts with bandwidth, so the measured-vs-ratio gap need not show at
#: every point, only somewhere on the grid
PCIE_GRID = (4e9, 6e9, 8e9)


def _calibration_run(pcie, bwd_ratio=None):
    """One hybrid run; returns predicted vs simulated aggregate stall.

    The prediction re-prices every responsive iteration through the
    planner's own :meth:`scheduler_input` and the run's cost model —
    exactly the quantities the selection loop used (the run OOM-free, so
    post-run planner state equals plan-time state).
    """
    device = DeviceModel(replace(V100, pcie_bandwidth=pcie))
    task = load_task(TASK, iterations=ITERATIONS, seed=0)
    box = []
    result = run_task(
        task,
        "mimose",
        BUDGET,
        device=device,
        max_iterations=ITERATIONS,
        scheduler="hybrid",
        bwd_ratio=bwd_ratio,
        observers=[box.append],
    )
    assert result.succeeded
    planner = box[0].planner
    model = planner.scheduler.cost_model
    predicted = 0.0
    modes = set()
    for s in result.iterations:
        if s.is_collect:
            continue
        inp = planner.scheduler_input(s.input_size)
        modes.add(model.pricing_mode(inp))
        if inp.excess_bytes <= 0:
            continue
        assignment = planner.scheduler.assign(inp)
        predicted += predicted_swap_stall(model, assignment, inp)
    simulated = sum(s.swap_stall_time for s in result.iterations)
    return {
        "pcie_gbps": pcie / 1e9,
        "pricing": "ratio-2x" if bwd_ratio is not None else "measured",
        "modes": ",".join(sorted(modes)),
        "predicted_ms": 1e3 * predicted,
        "simulated_ms": 1e3 * simulated,
        "error_ms": 1e3 * abs(predicted - simulated),
    }


def bench_measured_backwards_calibrate_stall_prediction(
    benchmark, results_dir
):
    """Measured backward pricing predicts simulated stalls better than
    the backward = 2x forward constant on at least one grid point.

    Per-point: the hybrid plan's predicted aggregate swap stall (the
    cost model's own arithmetic over the plans it emitted) is compared
    against the stall the simulation actually charged; the absolute
    error under measured pricing must undercut the 2x-constant error
    strictly somewhere on the bandwidth grid — the miscalibration the
    constant bakes in is real, not a rounding artifact.
    """

    def scenario():
        rows = []
        for pcie in PCIE_GRID:
            rows.append(_calibration_run(pcie))
            rows.append(_calibration_run(pcie, bwd_ratio=2.0))
        return rows

    rows = run_once(benchmark, scenario)
    text = render_table(
        rows,
        title=(
            f"Swap-stall calibration: {TASK} @ {BUDGET / GB:.1f} GB "
            f"(predicted vs simulated, measured pricing vs 2x constant)"
        ),
    )
    save_result(results_dir, "stall_calibration", text)
    by_pcie = {}
    for row in rows:
        by_pcie.setdefault(row["pcie_gbps"], {})[row["pricing"]] = row
    # measured pricing actually engaged (not the ratio fallback)
    assert all(
        pair["measured"]["modes"] == "measured-bwd"
        for pair in by_pcie.values()
    ), rows
    assert all(
        pair["ratio-2x"]["modes"] == "ratio-override"
        for pair in by_pcie.values()
    ), rows
    # the acceptance inequality: strictly better somewhere on the grid
    wins = [
        pcie
        for pcie, pair in by_pcie.items()
        if pair["measured"]["error_ms"] < pair["ratio-2x"]["error_ms"]
    ]
    assert wins, rows
