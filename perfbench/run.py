"""Layer-attributed host-time benchmark of the Mimose reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload mimose-steady --seed 1 \
        --seconds 55 --trace 0

One process, no worker pool, one client in a closed loop: ``run_task``
steps each simulated iteration only after the previous one returned.
Every pass builds its task, model, planner and executor afresh, so all
caches start empty, as in every ``repro run``.  A run covers many input
streams, each with a loader seed derived from ``--seed``: the first
stream runs twice, so that its repeats can be compared, and then a new
stream runs while another pass fits in ``--seconds``.  End-to-end host
timings are scaled to a reference host speed (see ``hostspeed.py``);
the report prints them as measured too.  ``--trace 1`` adds one traced
pass whose spans give the per-layer metrics (see
``perfbench/README.md``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is
1 when an output check failed and 2 when the program under test cannot
be found.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import zlib
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Iterator, Optional, Sequence

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
from hostspeed import REFERENCE_S, HostSpeed  # noqa: E402
from tracing import SpanRecorder, TracedIterable  # noqa: E402

MIB = 1024**2

#: input streams per run at the least
MIN_STREAMS = 2
#: set-up samples per run; set-up is cheap, so extra set-up-only passes
#: top the passes' own up and ``setup_s`` is a median of this many
SETUP_SAMPLES = 41
#: length of the reference pass that runs with replay and compiled
#: templates switched off; its digest must equal the fast run's prefix.
#: Long enough that both tiers serve dozens of iterations (the first
#: replay hits come after ~100 iterations), at most half a run.
REFERENCE_ITERATIONS = 250
#: a tail percentile must leave at least this many samples beyond it
TAIL_SAMPLES = 10
#: every workload runs at the second of ``task.default_budgets()``
BUDGET_INDEX = 1


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    task: str
    planner: str
    iterations: int
    #: REACTIVE planners must never reach the replay or compiled tiers
    bypasses_fast_paths: bool = False


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "mimose-steady",
            "stationary SQuAD sizes over a long stream: replay and compiled"
            " templates serve most iterations",
            "QA-Bert", "mimose", 2000,
        ),
        Workload(
            "dtr-reactive",
            "REACTIVE mode bypasses both fast paths: every iteration is a"
            " full tensor-level simulation, allocator and profiles dominate",
            "QA-Bert", "dtr", 800, bypasses_fast_paths=True,
        ),
    )
}

#: (name, unit) of every end-to-end metric in the JSON result
END_TO_END = (
    ("setup_s", "s"),
    ("iters_per_s", "1/s"),
    ("iter_us_p50", "us"),
    ("iter_us_tail", "us"),
    ("peak_rss_mib", "MiB"),
    ("sim_iter_ms", "ms"),
    ("sim_peak_mib", "MiB"),
)

#: end-to-end host timings, scaled to the reference host's speed; a rate
#: is divided by the factor that multiplies a time
HOST_TIMES = ("setup_s", "iter_us_p50", "iter_us_tail")
HOST_RATES = ("iters_per_s",)

#: (name, unit) of every per-layer metric in the JSON result
PER_LAYER = (
    ("engine.replay.lookups", "count"),
    ("engine.replay.hits", "count"),
    ("engine.replay.hit_ratio", "ratio"),
    ("engine.replay.lookup_s", "s"),
    ("engine.replay.records", "count"),
    ("engine.compiled.serves", "count"),
    ("engine.compiled.hits", "count"),
    ("engine.compiled.hit_ratio", "ratio"),
    ("engine.compiled.serve_s", "s"),
    ("engine.compiled.certify_calls", "count"),
    ("engine.compiled.certify_s", "s"),
    ("engine.compiled.templates", "count"),
    ("engine.executor.iterations", "count"),
    ("engine.executor.simulated_iters", "count"),
    ("engine.executor.self_s", "s"),
    ("engine.executor.invalidations", "count"),
    ("engine.executor.recoveries", "count"),
    ("tensorsim.allocator.mallocs", "count"),
    ("tensorsim.allocator.frees", "count"),
    ("tensorsim.allocator.busy_s", "s"),
    ("models.profiles_calls", "count"),
    ("models.profiles_s", "s"),
    ("core.plan_calls", "count"),
    ("core.plan_s", "s"),
    ("core.observe_s", "s"),
    ("core.collect_iters", "count"),
    ("core.plan_cache.lookups", "count"),
    ("core.plan_cache.hits", "count"),
    ("core.plan_cache.hit_ratio", "ratio"),
    ("core.estimator.fits", "count"),
    ("core.estimator.fit_s", "s"),
    ("core.estimator.peak_err_p50", "ratio"),
    ("solvers.assign_calls", "count"),
    ("solvers.assign_s", "s"),
    ("planners.setup_s", "s"),
    ("experiments.setup.load_task_s", "s"),
    ("experiments.setup.model_build_s", "s"),
    ("experiments.setup.executor_init_s", "s"),
    ("data.batches", "count"),
    ("data.next_s", "s"),
    ("engine.stats.digest_s", "s"),
    ("sim.recompute_ms", "ms"),
    ("sim.collect_ms", "ms"),
    ("sim.swap_stall_ms", "ms"),
    ("sim.planning_ms", "ms"),
    ("sim.frag_mib", "MiB"),
    ("sim.evictions", "count"),
    ("trace.spans", "count"),
    ("trace.overhead_pct", "%"),
)

#: work counters read from the simulator's own objects after each pass;
#: a seed's repeats must reproduce every one of them exactly
COUNTERS = (
    "iterations",
    "allocator.mallocs",
    "allocator.frees",
    "replay.lookups",
    "replay.hits",
    "replay.invalidations",
    "compiled.serves",
    "compiled.hits",
    "compiled.certifications",
    "estimator.fits",
    "collect_iters",
    "evictions",
    "recoveries",
    "oom_iters",
)


# ------------------------------------------------------------------ passes


@dataclass
class Pass:
    """One pass over a workload: set-up, the closed loop, the digest."""

    setup_s: float
    run_s: float = 0.0
    iter_s: list[float] = field(default_factory=list)
    result: Any = None
    digest: str = ""
    #: deterministic work counters of the run
    counters: dict[str, int] = field(default_factory=dict)
    capacity: int = 0
    executor_init_s: float = 0.0


class _Observer:
    """``run_task`` observer: keeps the executor and stamps the host clock
    at every ``IterationEnd``; in a traced pass it also wraps the
    executor's layers."""

    def __init__(
        self, recorder: Optional[SpanRecorder], fast_paths: bool
    ) -> None:
        self.recorder = recorder
        self.fast_paths = fast_paths
        self.fired = 0.0
        self.ends: dict[int, float] = {}
        self.executor: Any = None
        self.setup_done = 0.0

    def __call__(self, executor: Any) -> None:
        from repro.engine.events import IterationEnd

        self.fired = perf_counter()
        self.executor = executor
        ends = self.ends
        # a recovered iteration ends more than once; the last end counts
        executor.events.subscribe(
            lambda e: ends.__setitem__(e.stats.iteration, perf_counter()),
            IterationEnd,
        )
        if not self.fast_paths:
            executor.replay = None
            executor.compiled = None
        if self.recorder is not None:
            _instrument_executor(executor, self.recorder)

    def iteration_times(self) -> list[float]:
        """Host seconds per iteration: the gap between consecutive
        iteration ends, the first measured from the observer hook."""
        out: list[float] = []
        prev = self.fired
        for it in sorted(self.ends):
            out.append(self.ends[it] - prev)
            prev = self.ends[it]
        return out


def _found(result: Any) -> bool:
    return result is not None


def _instrument_executor(executor: Any, rec: SpanRecorder) -> None:
    rec.wrap(executor, "step", "engine.executor.step")
    rec.wrap(executor, "run_iteration", "engine.executor.run_iteration")
    rec.wrap(executor.allocator, "malloc", "tensorsim.allocator.malloc")
    rec.wrap(executor.allocator, "free", "tensorsim.allocator.free")
    if executor.replay is not None:
        rec.wrap(executor.replay, "lookup", "engine.replay.lookup", _found)
        rec.wrap(executor.replay, "store", "engine.replay.store")
    if executor.compiled is not None:
        rec.wrap(executor.compiled, "serve", "engine.compiled.serve", _found)
        rec.wrap(
            executor.compiled, "maybe_certify", "engine.compiled.maybe_certify"
        )
    planner = executor.planner
    for method in ("plan", "observe", "recover", "on_oom"):
        rec.wrap(planner, method, f"core.planner.{method}")
    cache = getattr(planner, "cache", None)
    if cache is not None:
        # counted here because RunResult.plan_cache_hits/misses are
        # zeroed by PlanCache.clear() on every refit and recovery
        rec.wrap(cache, "get", "core.plan_cache.get", _found)
    estimator = getattr(planner, "estimator", None)
    if estimator is not None:
        rec.wrap(estimator, "fit", "core.estimator.fit")
        rec.wrap(estimator, "fit_base", "core.estimator.fit_base")
    scheduler = getattr(planner, "scheduler", None)
    if scheduler is not None:
        rec.wrap(scheduler, "assign", "solvers.assign")


def _instrument_task(task: Any, rec: SpanRecorder) -> None:
    """Trace model builds (and the built model's profiles) and batches."""
    build = task.fresh_model

    def fresh_model() -> Any:
        with rec.span("experiments.setup.model_build"):
            model = build()
        rec.wrap(model, "profiles", "models.profiles")
        return model

    task.fresh_model = fresh_model
    task.loader = TracedIterable(task.loader, rec, "data.next")


@contextmanager
def _traced_setup(
    runner: Any, observer: _Observer, rec: SpanRecorder
) -> Iterator[None]:
    """Trace ``planner.setup``, which runs before the observers hook fires.

    ``run_task`` builds its planner through the module's
    ``make_planner``, so that attribute is swapped for the duration.
    """
    make_planner = runner.make_planner

    def traced_make_planner(*args: Any, **kw: Any) -> Any:
        planner = make_planner(*args, **kw)
        setup = planner.setup

        def traced(view: Any) -> None:
            with rec.span("planners.setup"):
                setup(view)
            observer.setup_done = perf_counter()

        planner.setup = traced
        return planner

    runner.make_planner = traced_make_planner
    try:
        yield
    finally:
        runner.make_planner = make_planner


def run_pass(
    w: Workload,
    seed: int,
    *,
    limit: Optional[int] = None,
    fast_paths: bool = True,
    rec: Optional[SpanRecorder] = None,
) -> Pass:
    """One pass; ``limit`` caps the iterations (0: set-up only)."""
    from repro.experiments import runner
    from repro.experiments.tasks import load_task

    def span(name: str) -> Any:
        return rec.span(name) if rec is not None else nullcontext()

    # start from a collected heap, as a fresh process would: garbage left
    # by the previous pass would otherwise be freed at a GC-timing
    # dependent point inside this one, moving both timings and peak RSS
    gc.collect()
    observer = _Observer(rec, fast_paths)
    t0 = perf_counter()
    if rec is not None:
        rec.next_iteration()
    with span("experiments.setup.load_task"):
        task = load_task(w.task, iterations=w.iterations, seed=seed)
    if rec is not None:
        _instrument_task(task, rec)
    with span("experiments.setup.default_budgets"):
        budget = task.default_budgets()[BUDGET_INDEX]
    traced = (
        _traced_setup(runner, observer, rec) if rec is not None
        else nullcontext()
    )
    with traced, span("experiments.run_task"):
        result = runner.run_task(
            task, w.planner, budget, max_iterations=limit,
            observers=[observer],
        )
    setup_s = observer.fired - t0
    if limit == 0:
        return Pass(setup_s)
    with span("engine.stats.digest"):
        digest = result.digest()
    run_s = perf_counter() - observer.fired
    # the executor is dropped here: a pass keeps no simulator state alive
    return Pass(
        setup_s=setup_s,
        run_s=run_s,
        iter_s=observer.iteration_times(),
        result=result,
        digest=digest,
        counters=count_work(result, observer.executor),
        capacity=observer.executor.allocator.capacity,
        executor_init_s=observer.fired - observer.setup_done,
    )


# ----------------------------------------------------------------- metrics


def count_work(result: Any, ex: Any) -> dict[str, int]:
    """Deterministic work counters of one run."""
    c = dict.fromkeys(COUNTERS, 0)
    iters = result.iterations
    c["iterations"] = len(iters)
    c["allocator.mallocs"] = ex.allocator.stats.num_allocs
    c["allocator.frees"] = ex.allocator.stats.num_frees
    if ex.replay is not None:
        c["replay.lookups"] = ex.replay.hits + ex.replay.misses
        c["replay.hits"] = ex.replay.hits
        c["replay.invalidations"] = ex.replay.invalidations
    if ex.compiled is not None:
        c["compiled.serves"] = ex.compiled.hits + ex.compiled.misses
        c["compiled.hits"] = ex.compiled.hits
        c["compiled.certifications"] = ex.compiled.certifications
    lifecycle = getattr(ex.planner, "lifecycle", None)
    if lifecycle is not None:
        c["estimator.fits"] = lifecycle.fit_count
    c["collect_iters"] = sum(s.is_collect for s in iters)
    c["evictions"] = sum(s.evictions for s in iters)
    c["recoveries"] = result.total_retries
    c["oom_iters"] = result.oom_count
    return c


def tail_percentile(n: int) -> float:
    """The highest percentile with ``TAIL_SAMPLES`` samples beyond it."""
    return max(50.0, 100.0 * (n - TAIL_SAMPLES) / n)


def _percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(values, q))


def end_to_end(streams: list[list[Pass]], setups: list[float], rss_mib: float):
    """(metrics, notes) of the untraced passes.

    Every metric comes from the first pass of every stream: the seed
    moves a stream's host cost by a fifth either way, so a run needs
    many streams.  The median is over all their iterations; the tail
    percentile is per stream, then the median over the streams.
    """
    n = len(streams[0][0].iter_s)
    q = tail_percentile(n)
    firsts = [passes[0] for passes in streams]
    stats = [s for p in firsts for s in p.result.iterations]
    metrics = {
        "setup_s": statistics.median(setups),
        "iters_per_s": sum(len(p.iter_s) for p in firsts) / sum(
            p.run_s for p in firsts
        ),
        "iter_us_p50": _percentile(
            np.concatenate([p.iter_s for p in firsts]), 50.0
        ) * 1e6,
        "iter_us_tail": statistics.median(
            _percentile(p.iter_s, q) * 1e6 for p in firsts
        ),
        "peak_rss_mib": rss_mib,
        "sim_iter_ms": 1e3 * statistics.fmean(
            s.total_time - s.planning_time for s in stats
        ),
        "sim_peak_mib": statistics.median(
            p.result.peak_in_use for p in firsts
        ) / MIB,
    }
    per = f"first pass of {len(streams)} streams"
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "iters_per_s": per,
        "iter_us_p50": f"{n * len(firsts)} iterations; {per}",
        "iter_us_tail": f"p{q:.2f} of {n} iterations per stream; {per}",
        "peak_rss_mib": "ru_maxrss after the untraced passes",
        "sim_iter_ms": "simulated, planning_time excluded; exact per seed",
        "sim_peak_mib": "simulated peak in use, median over streams",
    }
    return metrics, notes


def per_layer(
    traced: Pass, rec: SpanRecorder, untraced_run_s: float
) -> dict[str, float]:
    """Per-layer metrics from the traced pass's spans and counters."""
    layers = rec.layer_totals()
    empty = {"calls": 0, "hits": 0, "total_s": 0.0, "self_s": 0.0}

    def calls(name: str) -> int:
        return layers.get(name, empty)["calls"]

    def hits(name: str) -> int:
        return layers.get(name, empty)["hits"]

    def own(*names: str) -> float:
        return sum(layers.get(n, empty)["self_s"] for n in names)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    c = traced.counters
    stats = traced.result.iterations
    count = max(1, len(stats))
    errors = sorted(
        abs(s.predicted_peak_bytes - s.peak_in_use) / s.peak_in_use
        for s in stats
        if s.predicted_peak_bytes and s.peak_in_use
    )
    replay_hits = hits("engine.replay.lookup")
    compiled_hits = hits("engine.compiled.serve")
    return {
        "engine.replay.lookups": calls("engine.replay.lookup"),
        "engine.replay.hits": replay_hits,
        "engine.replay.hit_ratio": ratio(
            replay_hits, calls("engine.replay.lookup")
        ),
        "engine.replay.lookup_s": own("engine.replay.lookup"),
        "engine.replay.records": calls("engine.replay.store"),
        "engine.compiled.serves": calls("engine.compiled.serve"),
        "engine.compiled.hits": compiled_hits,
        "engine.compiled.hit_ratio": ratio(
            compiled_hits, calls("engine.compiled.serve")
        ),
        "engine.compiled.serve_s": own("engine.compiled.serve"),
        "engine.compiled.certify_calls": calls("engine.compiled.maybe_certify"),
        "engine.compiled.certify_s": own("engine.compiled.maybe_certify"),
        "engine.compiled.templates": c["compiled.certifications"],
        "engine.executor.iterations": calls("engine.executor.step"),
        "engine.executor.simulated_iters": (
            calls("engine.executor.run_iteration") - replay_hits
            - compiled_hits
        ),
        "engine.executor.self_s": own(
            "engine.executor.step", "engine.executor.run_iteration"
        ),
        "engine.executor.invalidations": c["replay.invalidations"],
        "engine.executor.recoveries": c["recoveries"],
        "tensorsim.allocator.mallocs": calls("tensorsim.allocator.malloc"),
        "tensorsim.allocator.frees": calls("tensorsim.allocator.free"),
        "tensorsim.allocator.busy_s": own(
            "tensorsim.allocator.malloc", "tensorsim.allocator.free"
        ),
        "models.profiles_calls": calls("models.profiles"),
        "models.profiles_s": own("models.profiles"),
        "core.plan_calls": calls("core.planner.plan"),
        "core.plan_s": own(
            "core.planner.plan", "core.planner.recover", "core.planner.on_oom"
        ),
        "core.observe_s": own("core.planner.observe"),
        "core.collect_iters": c["collect_iters"],
        "core.plan_cache.lookups": calls("core.plan_cache.get"),
        "core.plan_cache.hits": hits("core.plan_cache.get"),
        "core.plan_cache.hit_ratio": ratio(
            hits("core.plan_cache.get"), calls("core.plan_cache.get")
        ),
        "core.estimator.fits": calls("core.estimator.fit"),
        "core.estimator.fit_s": own(
            "core.estimator.fit", "core.estimator.fit_base"
        ),
        "core.estimator.peak_err_p50": (
            statistics.median(errors) if errors else 0.0
        ),
        "solvers.assign_calls": calls("solvers.assign"),
        "solvers.assign_s": own("solvers.assign"),
        "planners.setup_s": own("planners.setup"),
        "experiments.setup.load_task_s": own("experiments.setup.load_task"),
        "experiments.setup.model_build_s": own("experiments.setup.model_build"),
        "experiments.setup.executor_init_s": traced.executor_init_s,
        "data.batches": hits("data.next"),
        "data.next_s": own("data.next"),
        "engine.stats.digest_s": own("engine.stats.digest"),
        "sim.recompute_ms": 1e3 * sum(s.recompute_time for s in stats) / count,
        "sim.collect_ms": 1e3 * sum(s.collect_time for s in stats) / count,
        "sim.swap_stall_ms": 1e3 * sum(s.swap_stall_time for s in stats) / count,
        "sim.planning_ms": 1e3 * sum(s.planning_time for s in stats) / count,
        "sim.frag_mib": sum(s.fragmentation_bytes for s in stats) / count / MIB,
        "sim.evictions": c["evictions"],
        "trace.spans": sum(v["calls"] for v in layers.values()),
        "trace.overhead_pct": 100.0 * (traced.run_s / untraced_run_s - 1.0),
    }


# ------------------------------------------------------------------ checks


def check(
    w: Workload,
    streams: list[list[Pass]],
    reference: Pass,
    traced: Optional[Pass],
    traced_layers: Optional[dict[str, float]],
) -> list[tuple[str, bool, str]]:
    """Output checks: (name, passed, detail)."""
    # the traced pass repeats stream 0
    groups = [list(passes) for passes in streams]
    if traced is not None:
        groups[0].append(traced)
    everyone = [p for passes in groups for p in passes]
    repeats = sum(len(passes) - 1 for passes in groups)
    out = []
    same = all(p.digest == passes[0].digest
               for passes in groups for p in passes)
    out.append((
        "digests repeat", same,
        f"{len(groups)} streams, {repeats} repeated passes",
    ))
    length = reference.result.num_iterations
    prefix = streams[0][0].result.rolling_digests()[length - 1]
    out.append((
        "fast paths off agree", prefix == reference.digest,
        f"first {length} iterations of stream 0 re-simulated with replay"
        " and compiled templates off",
    ))
    diffs = sorted({
        k
        for passes in groups
        for p in passes[1:]
        for k, v in p.counters.items()
        if v != passes[0].counters[k]
    })
    out.append((
        "counters repeat", not diffs,
        "differ: " + ", ".join(diffs) if diffs else
        f"{len(COUNTERS)} counters, {repeats} repeated passes",
    ))
    over = [(p.result.peak_reserved, p.capacity) for p in everyone
            if p.result.peak_reserved > p.capacity]
    out.append((
        "peak within capacity", not over,
        f"(peak, capacity) over: {over[:3]}" if over
        else "simulated peak reserved <= executor capacity",
    ))
    short = [p.result.num_iterations for p in everyone
             if p.result.num_iterations != w.iterations]
    out.append((
        "iterations complete", not short,
        f"short runs: {short[:3]}" if short else f"{w.iterations} per run",
    ))
    if w.bypasses_fast_paths:
        served = [
            p.counters[k]
            for p in everyone
            for k in ("replay.lookups", "compiled.serves")
        ]
        if traced_layers is not None:
            served += [
                traced_layers["engine.replay.lookups"],
                traced_layers["engine.compiled.serves"],
            ]
        out.append((
            "fast paths bypassed", not any(served),
            "replay lookups and compiled serves are 0",
        ))
    return out


# ------------------------------------------------------------------ output


def _fmt(value: float) -> str:
    if isinstance(value, int) or float(value).is_integer():
        return f"{int(value)}"
    return f"{value:.6g}"


def stream_seed(seed: int, k: int) -> int:
    """Loader seed of a run's ``k``-th input stream, derived from ``seed``."""
    return zlib.crc32(f"{seed}:{k}".encode())


def measure(
    w: Workload, seed: int, seconds: float, trace: bool
) -> dict[str, Any]:
    """Run a workload and return the result object (also printed)."""
    def sampled(stream: int) -> Pass:
        speed.sample()
        return run_pass(w, stream)

    first = stream_seed(seed, 0)
    with HostSpeed() as speed:
        start = perf_counter()
        streams = [[sampled(first), sampled(first)]]
        done = 2
        # stop when the next pass would end after ``seconds``
        while (
            len(streams) < MIN_STREAMS
            or (perf_counter() - start) * (done + 1) / done <= seconds
        ):
            streams.append([sampled(stream_seed(seed, len(streams)))])
            done += 1
        speed.sample()
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setups = [p.setup_s for passes in streams for p in passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_pass(w, first, limit=0).setup_s)
    reference = run_pass(
        w, first, limit=min(w.iterations // 2, REFERENCE_ITERATIONS),
        fast_paths=False,
    )
    measured, notes = end_to_end(streams, setups, rss_mib)
    scale = speed.scale()
    metrics = dict(measured)
    for name in HOST_TIMES:
        metrics[name] *= scale
    for name in HOST_RATES:
        metrics[name] /= scale
    everyone = [p for passes in streams for p in passes]

    traced = rec = layers = None
    if trace:
        rec = SpanRecorder()
        traced = run_pass(w, first, rec=rec)
        everyone.append(traced)
        median_run_s = statistics.median(p.run_s for p in streams[0])
        layers = per_layer(traced, rec, median_run_s)
    attempted = sum(len(p.iter_s) for p in everyone)
    failed = sum(p.result.oom_count for p in everyone)

    checks = check(w, streams, reference, traced, layers)
    correct = all(ok for _, ok, _ in checks)

    units = dict(END_TO_END)
    print(f"workload {w.name}  seed {seed}  streams {len(streams)}  "
          f"passes {len(everyone)}  ({w.task}; {w.planner}; "
          f"{w.iterations} iterations per run)")
    print(f"  why: {w.why}")
    print(f"host speed: reference kernel {speed.kernel_s() * 1e3:.3f} ms"
          f" (median of {len(speed.samples)} samples; reference host"
          f" {REFERENCE_S * 1e3:g} ms), host timings x {scale:.4f}")
    print("end-to-end (untraced; host = simulator wall time on the"
          " reference host, sim = modelled V100):")
    for name, value in metrics.items():
        raw = (f"(measured {_fmt(measured[name])})"
               if name in HOST_TIMES + HOST_RATES else "")
        print(f"  {name:<14} {_fmt(value):>14} {units[name]:<4} {raw:<22} "
              f"{notes[name]}")
    print(f"  {'oom_rate':<14} {_fmt(failed / attempted):>14} {'ratio':<4}  "
          f"{failed} OOM'd of {attempted} iterations attempted")
    print("counters (deterministic, summed over the streams;"
          " repeats of one seed must match):")
    for name in COUNTERS:
        total = sum(passes[0].counters[name] for passes in streams)
        print(f"  {name:<26} {total}")
    print("checks:")
    for name, ok, detail in checks:
        print(f"  {'ok  ' if ok else 'FAIL'} {name}: {detail}")

    if trace:
        print("per-layer (one traced pass):")
        for name, unit in PER_LAYER:
            print(f"  {name:<36} {_fmt(layers[name]):>14} {unit}")
        totals = rec.layer_totals()
        print(f"self time by span (traced pass wall {traced.run_s:.4f} s"
              f" + set-up {traced.setup_s:.4f} s):")
        for name, t in sorted(totals.items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"  {name:<36} {t['calls']:>9} calls "
                  f"{t['self_s']:>10.4f} s self {t['total_s']:>10.4f} s total")
        path = OUT / f"spans-{w.name}-seed{seed}.json"
        rec.write(path, {
            "workload": w.name, "seed": seed,
            "self_s": {k: v["self_s"] for k, v in totals.items()},
        })
        print(f"spans written to {path.relative_to(ROOT)}")
        reported = {
            name: {"value": layers[name], "unit": unit}
            for name, unit in PER_LAYER
        }
    else:
        reported = {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in END_TO_END
        }
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": reported,
    }


def main(
    argv: Optional[Sequence[str]] = None,
    workloads: Optional[dict[str, Workload]] = None,
) -> int:
    workloads = WORKLOADS if workloads is None else workloads
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure at {SRC / 'repro'}",
              file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    result = measure(
        workloads[args.workload], args.seed, args.seconds, bool(args.trace)
    )
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
