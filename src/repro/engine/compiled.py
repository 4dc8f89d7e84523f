"""Compiled iteration templates — near-recurrence fast path.

The replay cache (:mod:`repro.engine.replay`) serves an iteration only
when its *exact* world recurs: same plan, same batch shape, same
allocator state.  Multi-size input streams (the paper's Fig. 10 regime)
defeat it — every new sequence length is a new world — even though the
iteration that runs is structurally the *same program* at a different
input size.  This module generalises replay from exact recurrence to
**near-recurrence**: when an iteration completes in steady state, a one-
off certification pass records a *symbolic iteration template* for its
world class ``(mode, assignment, label, dtype, allocator signature)``;
a later iteration in the same class with a new input size is then served
by one template evaluation instead of a full tensor-level simulation.
The executor's lookup ladder becomes three tiers::

    exact replay hit  →  compiled-template hit  →  full simulation

**Eligibility** is exactly the replay proof: the compiled tier is only
consulted for iterations that produced a :class:`~repro.engine.replay
.ReplayKey` (so REACTIVE mode, fault windows, recovery attempts and
noisy COLLECT passes never reach it), and a template is only built from
an iteration whose record round-tripped the allocator signature.  On
top of that the certifier rejects worlds it cannot prove size-generic:
plans with swap (stall times depend on where the copy-engine timeline
falls relative to the backward), iterations that reserve or release
segments mid-flight, and iterations whose memory traffic or time
charges are not a pure function of the plan.

**What a template is.**  In an eligible world the *event sequence* of an
iteration is a function of the plan alone — which tensor is allocated
or freed at each step, and which component is charged when, never
depend on the input size.  Only the *sizes* (and through them the
times) do, and each allocation's byte count comes from a profile-
derived source: the iteration input, one activation record, or one unit
boundary.  Certification re-executes the recorded iteration against a
:meth:`~repro.tensorsim.allocator.CachingAllocator.clone` wrapped in a
recording tap, demands the shadow reproduce the recorded
:class:`~repro.engine.stats.IterationStats` bit for bit, and lifts the
trace into that symbolic form: an alloc/free program over size sources,
the strategy's :meth:`~repro.engine.strategies.ExecutionStrategy
.charge_plan` charge program (verified charge for charge against the
shadow), and the mapping from COLLECT measurements to the saved-record
allocations they sum.

**Evaluation** instantiates the request sizes from the unit profiles at
the new batch and interprets the alloc/free program against the world
class's starting free list using the allocator's own decision rules —
address-ordered best fit, split-versus-absorb at
``MIN_SPLIT_REMAINDER``, segment-local coalescing — reproducing the
exact block sizes full simulation would produce, at free-list cost
instead of tensor-simulation cost (no tensors, no events, no block
linked lists, no signature hashing).  The charge program then folds in
emission order (bit-identical float accumulation) and the measurement
spec sums the same block sizes the sheltered collector would have
observed.  The evaluation serves only if the interpreted free list
round-trips to its starting state — the same steady-state proof the
replay tier stores under — so a served iteration leaves the world
exactly as full simulation would have.  A size at which the program
does not fit or does not round-trip falls back to full simulation; any
*structural* drift (profile shapes, record names, upkeep rate) deletes
the template, and full simulation may re-certify.

Why not serve stats from the fitted memory-estimator polynomials?  The
estimator is a *regression* — its predictions approximate, so they can
never reproduce ``RunResult.digest`` bit for bit.  Templates instead
evaluate the exact profile-derived sizes the simulation itself would
use; the estimator keeps its planning role (see
:mod:`repro.core.estimator`).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import OrderedDict
from dataclasses import replace
from typing import TYPE_CHECKING, NamedTuple, Optional

from repro.engine.events import EventBus, MeasurementTaken, TimeCharged
from repro.engine.replay import ReplayKey, ReplayRecord
from repro.engine.stats import IterationStats, UnitMeasurement
from repro.engine.strategies import (
    IterationContext, StatsBuilder, SwapEngine, strategy_for,
)
from repro.tensorsim.allocator import (
    MIN_SPLIT_REMAINDER, OutOfMemoryError, _align_up,
)
from repro.tensorsim.clock import SimClock
from repro.tensorsim.tensor import SimTensor

if TYPE_CHECKING:
    from repro.engine.executor import TrainingExecutor
    from repro.models.base import BatchInput
    from repro.planners.base import PlanDecision

# Allocation-size sources: where a request's byte count comes from when a
# template is evaluated at a new batch.
_SRC_INPUT = 0  # the iteration input tensor
_SRC_RECORD = 1  # (unit_idx, record_idx) activation record
_SRC_BOUNDARY = 2  # (unit_idx,) unit output boundary

# Free slots are addressed by (segment index << _SEG_SHIFT) + offset, which
# preserves absolute address order (segments indexed by base order) while
# keeping neighbour arithmetic plain integer adds.  No segment approaches
# 2**48 bytes, so offsets never carry into the segment bits.
_SEG_SHIFT = 48


class _Reject(Exception):
    """Internal: this world cannot be certified size-generic."""


class CompiledKey(NamedTuple):
    """World-*class* fingerprint: a :class:`ReplayKey` minus the size.

    Dropping ``shape`` and ``predicted_peak_bytes`` is what turns exact
    recurrence into near-recurrence — those become the template's
    symbolic inputs.  ``timeline_active`` is dropped because timeline
    worlds are never served compiled (per-allocation samples cannot be
    produced without running the allocator).
    """

    mode: object
    assignment: object
    label: str
    dtype: str
    signature: tuple

    @classmethod
    def of(cls, key: ReplayKey) -> "CompiledKey":
        return cls(key.mode, key.assignment, key.label, key.dtype,
                   key.signature)


class _TapAllocator:
    """Transparent allocator proxy recording every malloc/free.

    Reads (``stats``, ``bytes_in_use``, …) delegate straight to the
    wrapped clone; the two mutators append to :attr:`ops` so the
    template builder can recover the symbolic alloc/free program.
    """

    def __init__(self, inner) -> None:
        self._inner = inner
        self.ops: list[tuple] = []

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def malloc(self, nbytes: int, *, owner: str = ""):
        inner = self._inner
        stats = inner.stats
        pre_segs = stats.num_segments
        pre_reserved = stats.bytes_reserved
        block = inner.malloc(nbytes, owner=owner)
        self.ops.append((
            "m", owner, nbytes, block.addr, block.size,
            stats.num_segments != pre_segs
            or stats.bytes_reserved != pre_reserved,
        ))
        return block

    def free(self, block) -> None:
        self.ops.append(("f", block.addr, block.size))
        self._inner.free(block)


class _ShadowExecutor:
    """Duck-typed executor for the certification shadow run.

    Shares the real executor's model, planner, device and unit-time
    cache, but owns a private clock, event bus, swap engine and the
    tapped allocator clone — the real executor is never touched.
    """

    def __init__(self, executor: "TrainingExecutor", tap: _TapAllocator) -> None:
        self._real = executor
        self.allocator = tap
        self.clock = SimClock()
        self.device = executor.device
        self.events = EventBus()
        self.faults = None
        self.planner = executor.planner
        self.model = executor.model
        self.noise_rng = None
        self.measurement_noise = 0.0
        self.swap = SwapEngine()

    def unit_times(self, profile):
        return self._real.unit_times(profile)

    def _optimizer_time(self) -> float:
        return self._real._optimizer_time()


class CompiledTemplate:
    """One certified world class: symbolic programs + starting free list.

    Everything structural (alloc/free program, charge program,
    measurement spec, per-request size sources) was verified against the
    certification shadow run before the template was accepted;
    :meth:`evaluate` re-derives only what depends on the input size.
    """

    __slots__ = (
        "align", "coalescing", "req_sources", "ops", "start_free",
        "unit_names", "record_struct", "promoted", "upkeep_rate",
        "charge_prog", "measure_spec", "start_in_use", "const_stats",
        "_size_ctx",
    )

    #: per-shape context entries kept per template (each is tiny: a request
    #: vector and the unit times); cleared wholesale when full
    MAX_SIZE_CTX = 1024

    def __init__(
        self, *, align, coalescing, req_sources, ops, start_free,
        unit_names, record_struct, promoted, upkeep_rate, charge_prog,
        measure_spec, start_in_use, const_stats,
    ) -> None:
        self.align = align
        self.coalescing = coalescing
        #: per alloc op: its size source (input / record / boundary)
        self.req_sources = req_sources
        #: the event program, flat-encoded: request index ``k`` for an
        #: allocation, ``-k - 1`` for the free of request ``k``
        self.ops = ops
        #: starting free list as (addr_key, size), address-ordered
        self.start_free = start_free
        self.unit_names = unit_names
        self.record_struct = record_struct
        self.promoted = promoted
        self.upkeep_rate = upkeep_rate
        self.charge_prog = charge_prog
        #: per measured unit: (unit_idx, req indices of saved records)
        self.measure_spec = measure_spec
        self.start_in_use = start_in_use
        self.const_stats = const_stats
        #: (shape, dtype) -> (request sizes, unit times), fingerprint-checked
        self._size_ctx: dict = {}

    # ------------------------------------------------------------- evaluate

    def _fingerprint_ok(self, executor, profiles) -> bool:
        """Structural drift check: is this still the certified program?"""
        if len(profiles) != len(self.record_struct):
            return False
        for ui, prof in enumerate(profiles):
            acts = prof.activations
            if (
                tuple((rec.name, rec.saved) for rec in acts)
                != self.record_struct[ui]
            ):
                return False
            promoted = bool(acts) and acts[-1].spec == prof.output
            if promoted != self.promoted[ui]:
                return False
        return (
            executor.planner.upkeep_time_per_tensor == self.upkeep_rate
            and executor.allocator.alignment == self.align
            and executor.allocator.coalescing == self.coalescing
        )

    def _request_sizes(self, batch, profiles) -> list[int]:
        """Aligned request bytes per alloc op, from the profile sources."""
        align = self.align
        sizes = []
        for src in self.req_sources:
            kind = src[0]
            if kind == _SRC_RECORD:
                nb = profiles[src[1]].activations[src[2]].spec.nbytes
            elif kind == _SRC_BOUNDARY:
                nb = profiles[src[1]].output.nbytes
            else:
                nb = batch.spec.nbytes
            if nb < 1:
                nb = 1
            sizes.append(-(-nb // align) * align)
        return sizes

    def _interpret(self, rsizes: list[int]):
        """Run the alloc/free program against the starting free list.

        Replays the allocator's own decision rules — address-ordered
        best fit, split-vs-absorb, segment-local coalescing — on bare
        integers.  Returns ``(block_sizes, peak_overshoot)`` or None
        when a request does not fit (the real allocator would reserve a
        segment: not this template's world) or the free list does not
        round-trip (not steady state at this size).
        """
        by_size: list[tuple[int, int]] = sorted(
            (size, addr) for addr, size in self.start_free
        )
        by_addr: dict[int, int] = dict(self.start_free)
        # addr one past each slot's end -> slot addr (backward coalesce)
        end_at: dict[int, int] = {
            addr + size: addr for addr, size in self.start_free
        }
        coalescing = self.coalescing
        nfree = len(by_addr)
        b: list[int] = [0] * len(self.req_sources)
        where: list[int] = [0] * len(self.req_sources)
        cur = 0
        peak = 0
        bl, ins = bisect_left, insort  # hoisted: this loop is the hot path
        for k in self.ops:
            if k >= 0:  # allocate request k
                r = rsizes[k]
                i = bl(by_size, (r,))
                if i == len(by_size):
                    return None  # would reserve a fresh segment
                size, addr = by_size[i]
                del by_size[i]
                del by_addr[addr]
                del end_at[addr + size]
                if size - r >= MIN_SPLIT_REMAINDER:
                    bk = r
                    tail = addr + r
                    ins(by_size, (size - r, tail))
                    by_addr[tail] = size - r
                    end_at[addr + size] = tail
                else:  # absorb: the block keeps the whole slot
                    bk = size
                b[k] = bk
                where[k] = addr
                cur += bk
                if cur > peak:
                    peak = cur
            else:  # free the block of request ~k
                k = -k - 1
                addr = where[k]
                size = b[k]
                cur -= size
                if coalescing:
                    prev = end_at.get(addr)
                    if prev is not None:
                        psize = by_addr.pop(prev)
                        del end_at[addr]
                        del by_size[bl(by_size, (psize, prev))]
                        addr = prev
                        size += psize
                    nsize = by_addr.pop(addr + size, None)
                    if nsize is not None:
                        nxt = addr + size
                        del end_at[nxt + nsize]
                        del by_size[bl(by_size, (nsize, nxt))]
                        size += nsize
                ins(by_size, (size, addr))
                by_addr[addr] = size
                end_at[addr + size] = addr
        if len(by_addr) != nfree:
            return None
        for addr, size in self.start_free:
            if by_addr.get(addr) != size:
                return None  # not steady state at this size
        return b, peak

    def evaluate(
        self,
        executor: "TrainingExecutor",
        batch: "BatchInput",
        decision: "PlanDecision",
        iteration: int,
        profiles,
    ) -> Optional[tuple[IterationStats, float] | str]:
        """Serve this template at ``batch`` (``profiles`` for that batch).

        Returns ``(stats, sim_time)`` bit-identical to full simulation,
        the string ``"stale"`` when the template no longer describes the
        world (structural drift — the caller must delete it), or None
        when this particular size cannot be served (fall back to full
        simulation, template stays).
        """
        # Size-dependent but world-independent inputs — the request vector
        # and unit times — are pure functions of the batch shape, so they
        # are derived (and the fingerprint checked) once per shape.
        ctx = self._size_ctx.get((batch.shape, batch.dtype))
        if ctx is None:
            if not self._fingerprint_ok(executor, profiles):
                return "stale"
            ctx = (
                self._request_sizes(batch, profiles),
                [executor.unit_times(p) for p in profiles],
                [len(p.activations) for p in profiles],
            )
            if len(self._size_ctx) >= self.MAX_SIZE_CTX:
                self._size_ctx.clear()
            self._size_ctx[(batch.shape, batch.dtype)] = ctx
        rsizes, ut, nacts = ctx
        run = self._interpret(rsizes)
        if run is None:
            return None
        b, peak_overshoot = run

        # Fold the charge program in emission order — the same dict-add
        # order full simulation uses, so every float matches bitwise.
        rate = self.upkeep_rate
        comp = {
            "fwd": 0.0, "bwd": 0.0, "recompute": 0.0, "collect": 0.0,
            "upkeep": 0.0, "optimizer": 0.0,
        }
        t = 0.0
        for name, idx in self.charge_prog:
            if name == "bwd":
                v = ut[idx][1]
            elif name == "upkeep":
                v = rate * nacts[idx]
            elif name == "optimizer":
                v = executor._optimizer_time()
            else:  # fwd / recompute / collect all charge the forward time
                v = ut[idx][0]
            comp[name] += v
            t += v

        meas = []
        for ui, req_idx in self.measure_spec:
            saved = 0
            for k in req_idx:
                saved += b[k]
            meas.append(
                UnitMeasurement(
                    self.unit_names[ui], batch.input_size, saved,
                    ut[ui][0], ut[ui][1],
                )
            )

        stats = replace(
            self.const_stats,
            iteration=iteration,
            input_size=batch.input_size,
            input_shape=batch.shape,
            fwd_time=comp["fwd"],
            bwd_time=comp["bwd"],
            recompute_time=comp["recompute"],
            collect_time=comp["collect"],
            planning_time=decision.planning_time,
            upkeep_time=comp["upkeep"],
            optimizer_time=comp["optimizer"],
            peak_in_use=self.start_in_use + peak_overshoot,
            measurements=tuple(meas),
            predicted_peak_bytes=decision.plan.predicted_peak_bytes,
        )
        return stats, t


# ---------------------------------------------------------------------------
# Certification
# ---------------------------------------------------------------------------


def _shadow_run(
    executor: "TrainingExecutor",
    batch: "BatchInput",
    decision: "PlanDecision",
    replay_key: ReplayKey,
    record: ReplayRecord,
    profiles,
):
    """Re-execute the recorded iteration against a tapped allocator clone.

    Returns ``(tap, start_free, start_in_use, charges, measurements,
    profiles, sim_time)`` after verifying the shadow reproduced the
    record bit for bit and round-tripped the signature.
    """
    clone = executor.allocator.clone()
    seg_sorted = sorted(clone._segments, key=lambda s: s.base)
    seg_index = {s.base: i for i, s in enumerate(seg_sorted)}

    def addr_key(block) -> int:
        base = block.segment.base
        return (seg_index[base] << _SEG_SHIFT) + (block.addr - base)

    start_free = tuple(sorted(
        (addr_key(b), b.size) for b in clone._free_blocks.values()
    ))
    start_in_use = clone.stats.bytes_in_use

    tap = _TapAllocator(clone)
    shadow = _ShadowExecutor(executor, tap)
    builder = StatsBuilder().attach(shadow.events)
    charges: list[tuple[str, float]] = []
    measurements: list[UnitMeasurement] = []
    shadow.events.subscribe(
        lambda e: charges.append((e.component, e.seconds)), TimeCharged
    )
    shadow.events.subscribe(
        lambda e: measurements.append(e.measurement), MeasurementTaken
    )

    strategy = strategy_for(decision)
    clone.reset_peaks()
    builder.begin(0.0)
    shadow.swap.reset(shadow.clock.now)
    ctx = IterationContext(
        executor=shadow,
        decision=decision,
        batch=batch,
        iteration=record.stats.iteration,
        strategy=strategy,
        swap=shadow.swap,
        profiles=profiles,
    )
    strategy.begin(ctx)
    try:
        ctx.input_tensor = SimTensor(batch.spec, "input")
        ctx.alloc_tensor(ctx.input_tensor)
        strategy.run_forward(ctx)
        strategy.run_backward(ctx)
        ctx.input_tensor.drop(tap)
        ctx.input_tensor = None
        ctx.charge("optimizer", shadow._optimizer_time())
    except OutOfMemoryError:
        raise _Reject("shadow execution ran out of memory")
    shadow_stats = builder.finalize(ctx, False)
    if shadow_stats != record.stats:
        raise _Reject("shadow run diverged from the recorded iteration")
    if clone.state_signature() != replay_key.signature:
        raise _Reject("shadow run did not round-trip the allocator")
    return (tap, start_free, start_in_use, charges, measurements,
            shadow.clock.now)


def _certify(
    executor: "TrainingExecutor",
    batch: "BatchInput",
    decision: "PlanDecision",
    replay_key: ReplayKey,
    record: ReplayRecord,
    profiles,
) -> CompiledTemplate:
    """Build and self-test a template for one recorded steady-state world.

    Raises :class:`_Reject` when the world cannot be proven size-generic.
    """
    model = executor.model
    upkeep_rate = executor.planner.upkeep_time_per_tensor
    prog = strategy_for(decision).charge_plan(
        model, decision, bool(upkeep_rate)
    )
    if prog is None:
        raise _Reject("mode/plan has no symbolic charge program")

    (tap, start_free, start_in_use, charges, measurements, sim_time) = (
        _shadow_run(executor, batch, decision, replay_key, record, profiles)
    )

    align = executor.allocator.alignment
    units = model.units
    if len(profiles) != len(units):
        raise _Reject("profile/unit count mismatch")
    unit_names = tuple(u.name for u in units)

    # ---- allocation-size sources, keyed by tensor owner name
    sources: dict[str, tuple] = {"input": (_SRC_INPUT,)}
    record_struct = []
    promoted = []
    for ui, prof in enumerate(profiles):
        acts = prof.activations
        record_struct.append(tuple((rec.name, rec.saved) for rec in acts))
        promoted.append(bool(acts) and acts[-1].spec == prof.output)
        for ri, rec in enumerate(acts):
            if rec.name in sources:
                raise _Reject(f"ambiguous tensor name {rec.name!r}")
            sources[rec.name] = (_SRC_RECORD, ui, ri)
        bname = f"{unit_names[ui]}.out"
        if bname in sources:
            raise _Reject(f"ambiguous tensor name {bname!r}")
        sources[bname] = (_SRC_BOUNDARY, ui)

    # ---- verify the charge program against the shadow trace
    ut = [executor.unit_times(p) for p in profiles]
    if len(prog) != len(charges):
        raise _Reject("charge program length diverged")
    for (name, idx), (cname, cval) in zip(prog, charges):
        if name != cname:
            raise _Reject("charge program order diverged")
        if name == "bwd":
            v = ut[idx][1]
        elif name == "upkeep":
            v = upkeep_rate * len(profiles[idx].activations)
        elif name == "optimizer":
            v = executor._optimizer_time()
        else:
            v = ut[idx][0]
        if v != cval:
            raise _Reject("charge value is not a pure function of the plan")

    # ---- lift the tap trace into the symbolic alloc/free program
    req_sources: list[tuple] = []
    req_sizes0: list[int] = []
    ops: list[int] = []
    b0: list[int] = []
    live: dict[int, int] = {}  # block addr -> req idx, this iteration only
    for op in tap.ops:
        if op[0] == "m":
            _tag, owner, nbytes, addr, size, segchg = op
            if segchg:
                raise _Reject("segment reserve/release inside the iteration")
            src = sources.get(owner)
            if src is None:
                raise _Reject(f"allocation by unknown owner {owner!r}")
            k = len(req_sources)
            req_sources.append(src)
            req_sizes0.append(_align_up(max(nbytes, 1), align))
            ops.append(k)
            b0.append(size)
            live[addr] = k
        else:
            _tag, addr, size = op
            k = live.pop(addr, None)
            if k is None:
                raise _Reject("free of a block from before the iteration")
            if size != b0[k]:
                raise _Reject("freed size diverged")
            ops.append(-k - 1)
    if live:
        raise _Reject("iteration-allocated block outlived the iteration")

    # ---- measurement spec: saved bytes of each measured unit are the sum
    # of its first-materialisation saved-record allocations
    first_rec_ops: dict[int, list[int]] = {}
    for kk, src in enumerate(req_sources):
        if src[0] == _SRC_RECORD:
            lst = first_rec_ops.setdefault(src[1], [])
            if len(lst) < len(profiles[src[1]].activations):
                if src[2] != len(lst):
                    raise _Reject("activation records allocated out of order")
                lst.append(kk)
    measure_units = [idx for name, idx in prog if name == "collect"]
    if len(measure_units) != len(measurements):
        raise _Reject("measurement count diverged")
    measure_spec = []
    for j, ui in enumerate(measure_units):
        acts = profiles[ui].activations
        lst = first_rec_ops.get(ui, [])
        if len(lst) != len(acts):
            raise _Reject("measured unit never fully materialised")
        keep = len(acts) - 1 if promoted[ui] else len(acts)
        req_idx = tuple(
            lst[ri] for ri in range(keep) if acts[ri].saved
        )
        saved0 = sum(b0[kk] for kk in req_idx)
        meas = measurements[j]
        if meas.unit_name != unit_names[ui] or meas.saved_bytes != saved0:
            raise _Reject("measurement is not a sum of saved allocations")
        measure_spec.append((ui, req_idx))

    template = CompiledTemplate(
        align=align,
        coalescing=executor.allocator.coalescing,
        req_sources=tuple(req_sources),
        ops=tuple(ops),
        start_free=start_free,
        unit_names=unit_names,
        record_struct=tuple(record_struct),
        promoted=tuple(promoted),
        upkeep_rate=upkeep_rate,
        charge_prog=prog,
        measure_spec=tuple(measure_spec),
        start_in_use=start_in_use,
        const_stats=record.stats,
    )

    # ---- self-test: the interpreter must reproduce the certification
    # iteration bit for bit before the template is ever trusted elsewhere
    if template._request_sizes(batch, profiles) != req_sizes0:
        raise _Reject("size sources mis-derive the certification requests")
    run = template._interpret(req_sizes0)
    if run is None or run[0] != b0:
        raise _Reject("interpreter diverges on the certification trace")
    result = template.evaluate(
        executor, batch, decision, record.stats.iteration, profiles
    )
    if not isinstance(result, tuple):
        raise _Reject("template rejects its own certification input")
    stats, t = result
    if replace(stats, planning_time=0.0) != record.stats:
        raise _Reject("template mis-evaluates its certification input")
    if t != sim_time:
        raise _Reject("template mis-times its certification input")
    return template


# ---------------------------------------------------------------------------
# Cache
# ---------------------------------------------------------------------------


class CompiledCache:
    """Bounded LRU of :class:`CompiledTemplate` keyed by world class.

    The middle tier of the executor's lookup ladder.  Consulted only
    after an exact replay miss, for iterations that carry a
    :class:`ReplayKey`; populated by :meth:`maybe_certify` whenever the
    full-simulation path stores a steady-state replay record for a world
    class not yet certified (or already proven uncertifiable).
    """

    def __init__(self, max_entries: int = 256) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self._templates: OrderedDict[CompiledKey, CompiledTemplate] = (
            OrderedDict()
        )
        self._rejected: set[CompiledKey] = set()
        self.hits = 0
        self.misses = 0
        #: eligible iterations not consulted (timeline recording active)
        self.bypasses = 0
        #: number of times the cache was wholesale invalidated
        self.invalidations = 0
        #: templates successfully certified
        self.certifications = 0
        #: world classes proven uncertifiable (never re-tried until
        #: invalidation)
        self.rejects = 0
        #: evaluations that could not serve (infeasible size, structural
        #: drift) and fell back to full simulation
        self.fallbacks = 0

    def __len__(self) -> int:
        return len(self._templates)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def invalidate(self) -> None:
        """Drop every template *and* every rejection (world changed)."""
        self._templates.clear()
        self._rejected.clear()
        self.invalidations += 1

    def serve(
        self,
        executor: "TrainingExecutor",
        batch: "BatchInput",
        decision: "PlanDecision",
        replay_key: ReplayKey,
        iteration: int,
    ) -> Optional[tuple[IterationStats, float]]:
        """(stats, sim_time) for this iteration, or None → full simulation."""
        if replay_key.timeline_active:
            self.bypasses += 1
            return None
        key = CompiledKey.of(replay_key)
        template = self._templates.get(key)
        if template is None:
            self.misses += 1
            return None
        result = template.evaluate(
            executor, batch, decision, iteration,
            executor.model.profiles(batch),
        )
        if isinstance(result, tuple):
            self._templates.move_to_end(key)
            self.hits += 1
            return result
        if result == "stale":
            # structural drift: the template no longer describes this
            # world — delete it and let full simulation re-certify
            del self._templates[key]
        self.fallbacks += 1
        self.misses += 1
        return None

    def maybe_certify(
        self,
        executor: "TrainingExecutor",
        batch: "BatchInput",
        decision: "PlanDecision",
        replay_key: ReplayKey,
        record: ReplayRecord,
    ) -> None:
        """Certify this just-recorded steady-state world class, once."""
        if replay_key.timeline_active:
            return
        key = CompiledKey.of(replay_key)
        if key in self._templates or key in self._rejected:
            return
        try:
            template = _certify(
                executor, batch, decision, replay_key, record,
                executor.model.profiles(batch),
            )
        except _Reject:
            self._rejected.add(key)
            self.rejects += 1
            return
        self._templates[key] = template
        self._templates.move_to_end(key)
        if len(self._templates) > self.max_entries:
            self._templates.popitem(last=False)
        self.certifications += 1
