"""Module tree and the tracing profiler.

A :class:`Module` declares its computation in ``forward`` exactly like a
``torch.nn.Module``, except the "tensors" flowing through are
:class:`~repro.tensorsim.tensor.TensorSpec`s and every op application goes
through a :class:`ProfileContext`, which records the intermediate activation
tensors and accumulates compute costs.  Profiling a module for a given input
spec yields a :class:`ModuleProfile` — the unit of information all planners
in this reproduction consume.

:meth:`Module.profile` traces every time it is called.  The cache is the
model's: :meth:`repro.models.base.SegmentedModel.profiles` memoises the
whole chain per batch shape and traces each *distinct* unit once per
input spec.  Units of one class that declare the same ``twin_key`` are
twins, and a twin's profile is the traced one renamed
(:meth:`ModuleProfile.renamed`), sharing its tensor specs and op costs.

The twin-key contract: a module's ``forward`` may depend on nothing but
its input spec, its name and its ``twin_key`` — a hashable value (a
frozen config, a tuple of sizes) given to the constructor.  Submodule
names must not derive from the module's own name.  A module without a
key (``None``) has no twins and is always traced itself.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Hashable, Iterable, Sequence

from repro.graph.ops import Op, OpProfile
from repro.tensorsim.tensor import TensorSpec


@dataclass(frozen=True, slots=True)
class ActivationRecord:
    """One intermediate tensor produced while profiling a module.

    Attributes:
        name: hierarchical name, e.g. ``"encoder.3/attn/softmax"``.
        spec: tensor shape/dtype.
        saved: whether the tensor must survive until the backward pass
            (False means it is transient working memory within the forward).
        op_kind: the producing operator's family, for diagnostics.
    """

    name: str
    spec: TensorSpec
    saved: bool
    op_kind: str

    @property
    def nbytes(self) -> int:
        return self.spec.nbytes


@dataclass(frozen=True, slots=True)
class OpCost:
    """Per-kernel cost record, consumed by the device roofline model."""

    flops: float
    bytes_moved: float
    bwd_flops: float
    bwd_bytes: float


@dataclass(frozen=True, slots=True)
class ModuleProfile:
    """Planner-visible summary of one module executed on one input spec."""

    module_name: str
    input: TensorSpec
    output: TensorSpec
    activations: tuple[ActivationRecord, ...]
    op_costs: tuple[OpCost, ...]
    fwd_flops: float
    fwd_bytes: float
    bwd_flops: float
    bwd_bytes: float
    param_count: int

    @property
    def saved_bytes(self) -> int:
        """Bytes of activations this module pins until backward."""
        return sum(a.nbytes for a in self.activations if a.saved)

    @property
    def transient_bytes(self) -> int:
        """Bytes of forward-only working memory (freed at module exit)."""
        return sum(a.nbytes for a in self.activations if not a.saved)

    @property
    def total_activation_bytes(self) -> int:
        return sum(a.nbytes for a in self.activations)

    def saved_activations(self) -> tuple[ActivationRecord, ...]:
        return tuple(a for a in self.activations if a.saved)

    def renamed(self, name: str) -> "ModuleProfile":
        """This profile as a twin module called ``name`` would trace it.

        Record names are re-prefixed (``encoder.0/attn/qk`` becomes
        ``encoder.7/attn/qk``); specs and op costs are shared.
        """
        cut = len(self.module_name)
        return replace(
            self,
            module_name=name,
            activations=tuple(
                ActivationRecord(name + a.name[cut:], a.spec, a.saved, a.op_kind)
                for a in self.activations
            ),
        )


class ProfileContext:
    """Tracer passed to ``Module.forward``; records ops and submodules."""

    def __init__(self) -> None:
        self._records: list[ActivationRecord] = []
        self._op_costs: list[OpCost] = []
        self._scope: list[str] = []
        self._counter = 0
        self.fwd_flops = 0.0
        self.fwd_bytes = 0.0
        self.bwd_flops = 0.0
        self.bwd_bytes = 0.0
        self.param_count = 0

    # ----------------------------------------------------------------- trace

    def op(self, op: Op, *inputs: TensorSpec, name: str = "") -> TensorSpec:
        """Apply an operator, record its footprint, return the output spec."""
        profile: OpProfile = op.profile(*inputs)
        self._absorb(op, profile, name)
        return profile.output

    def _absorb(self, op: Op, profile: OpProfile, name: str) -> None:
        self._counter += 1
        label = name or f"{type(op).__name__.lower()}_{self._counter}"
        full = "/".join([*self._scope, label])
        self.fwd_flops += profile.flops
        self.fwd_bytes += profile.bytes_moved
        self.bwd_flops += profile.bwd_flops
        self.bwd_bytes += profile.bwd_bytes
        self.param_count += profile.param_count
        if op.kind != "view":
            self._op_costs.append(
                OpCost(
                    profile.flops,
                    profile.bytes_moved,
                    profile.bwd_flops,
                    profile.bwd_bytes,
                )
            )
        if profile.output.numel > 0 and profile.output.ndim > 0 and op.kind != "view":
            self._records.append(
                ActivationRecord(full, profile.output, profile.saves_output, op.kind)
            )
        for i, extra in enumerate(profile.saved):
            if profile.saves_output and extra is profile.output:
                continue  # already recorded as the output
            self._records.append(
                ActivationRecord(f"{full}.saved{i}", extra, True, op.kind)
            )

    def module(self, sub: "Module", x: TensorSpec) -> TensorSpec:
        """Inline a submodule's forward under a nested name scope."""
        self._scope.append(sub.name)
        try:
            return sub.forward(self, x)
        finally:
            self._scope.pop()

    # ------------------------------------------------------------- wrap up

    def finish(self, module_name: str, x: TensorSpec, out: TensorSpec) -> ModuleProfile:
        return ModuleProfile(
            module_name=module_name,
            input=x,
            output=out,
            activations=tuple(self._records),
            op_costs=tuple(self._op_costs),
            fwd_flops=self.fwd_flops,
            fwd_bytes=self.fwd_bytes,
            bwd_flops=self.bwd_flops,
            bwd_bytes=self.bwd_bytes,
            param_count=self.param_count,
        )


class Module:
    """Base class for symbolic modules.

    Subclasses implement :meth:`forward` against a :class:`ProfileContext`.
    ``checkpointable`` marks the module as a unit the planners may drop and
    recompute — the paper's "block"/"stage" granularity (encoder blocks,
    residual stages).  ``twin_key`` is the one hashable value ``forward``
    depends on besides the input spec and the name (see the module
    docstring); ``None`` means the module has no twins.
    """

    def __init__(
        self,
        name: str,
        *,
        checkpointable: bool = False,
        twin_key: Hashable = None,
    ) -> None:
        if not name:
            raise ValueError("modules must be named")
        self.name = name
        self.checkpointable = checkpointable
        self.twin_key = twin_key

    def forward(self, ctx: ProfileContext, x: TensorSpec) -> TensorSpec:
        raise NotImplementedError

    def profile(self, x: TensorSpec) -> ModuleProfile:
        """Trace ``forward`` for input spec ``x`` (not cached)."""
        ctx = ProfileContext()
        ctx._scope.append(self.name)
        out = self.forward(ctx, x)
        ctx._scope.pop()
        return ctx.finish(self.name, x, out)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r})"


class Sequential(Module):
    """A module composed of children applied in order."""

    def __init__(
        self,
        name: str,
        children: Sequence[Module],
        *,
        checkpointable: bool = False,
    ) -> None:
        super().__init__(name, checkpointable=checkpointable)
        if not children:
            raise ValueError("Sequential needs at least one child")
        names = [c.name for c in children]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate child names in {name}: {names}")
        self.children = list(children)

    def forward(self, ctx: ProfileContext, x: TensorSpec) -> TensorSpec:
        for child in self.children:
            x = ctx.module(child, x)
        return x

    def __iter__(self) -> Iterable[Module]:  # pragma: no cover - convenience
        return iter(self.children)
