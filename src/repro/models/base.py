"""Segmented model abstraction shared by the whole reproduction.

A :class:`SegmentedModel` is a chain of units; the planner's decision space
is "which units to checkpoint".  The model also accounts for the *static*
part of the memory footprint — parameters, gradients, and optimizer states —
which §III-A notes is constant across input sizes (only activations vary).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.graph.module import Module, ModuleProfile
from repro.tensorsim.dtypes import DType, INT64
from repro.tensorsim.tensor import TensorSpec


@dataclass(frozen=True, slots=True)
class BatchInput:
    """One collated mini-batch, described by shape only.

    For NLP tasks ``shape = (batch, seqlen)`` with an integer dtype; for
    vision tasks ``shape = (batch, 3, H, W)`` float.  ``input_size`` (the
    paper's x-axis everywhere) is the element count of this tensor.
    """

    shape: tuple[int, ...]
    dtype: DType = INT64

    @property
    def spec(self) -> TensorSpec:
        return TensorSpec(self.shape, self.dtype)

    @property
    def input_size(self) -> int:
        return self.spec.numel

    @property
    def nbytes(self) -> int:
        return self.spec.nbytes


@dataclass(frozen=True, slots=True)
class StaticMemory:
    """Input-size-independent memory: weights, grads, optimizer states."""

    param_bytes: int
    grad_bytes: int
    optimizer_bytes: int
    workspace_bytes: int = 0  # cuDNN-style scratch reserved by the framework

    @property
    def total(self) -> int:
        return (
            self.param_bytes
            + self.grad_bytes
            + self.optimizer_bytes
            + self.workspace_bytes
        )


class SegmentedModel:
    """An ordered chain of (mostly checkpointable) units.

    Args:
        name: model identifier (e.g. ``"bert-base"``).
        units: modules applied in order; the output spec of unit *i* is the
            input spec of unit *i+1*.
        input_dtype: dtype of the collated batch tensor.
        extra_reserved_bytes: content-dependent memory the model reserves up
            front instead of predicting (the paper's §IV-C "memory
            reservation" for detection heads whose proposal counts depend on
            image content).
    """

    def __init__(
        self,
        name: str,
        units: Sequence[Module],
        *,
        input_dtype: DType = INT64,
        extra_reserved_bytes: int = 0,
        probe_shape: tuple[int, ...] | None = None,
        amp: bool = False,
    ) -> None:
        if not units:
            raise ValueError("a model needs at least one unit")
        names = [u.name for u in units]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate unit names: {names}")
        self.name = name
        self.units = list(units)
        self.input_dtype = input_dtype
        self.extra_reserved_bytes = int(extra_reserved_bytes)
        self.probe_shape = probe_shape
        self.amp = amp
        self._param_count: int | None = None
        self._chains: dict[BatchInput, tuple[ModuleProfile, ...]] = {}
        #: unit traces run so far; a twin's profile costs none
        self.unit_traces = 0

    # ------------------------------------------------------------ profiling

    def profiles(self, batch: BatchInput) -> tuple[ModuleProfile, ...]:
        """The chain's unit profiles for one batch shape (memoised).

        The model's one profile cache.  A new shape traces each distinct
        unit once: a unit whose class and ``twin_key`` match an already
        traced unit with the same input spec gets that trace renamed
        (see :mod:`repro.graph.module` for the key contract).
        """
        chain = self._chains.get(batch)
        if chain is None:
            chain = self._chains[batch] = self._trace_chain(batch.spec)
        return chain

    def _trace_chain(self, x: TensorSpec) -> tuple[ModuleProfile, ...]:
        traced: dict[tuple | None, ModuleProfile] = {}
        out: list[ModuleProfile] = []
        for unit in self.units:
            key = None if unit.twin_key is None else (type(unit), unit.twin_key, x)
            first = traced.get(key)
            if first is None:
                p = unit.profile(x)
                self.unit_traces += 1
                if key is not None:
                    traced[key] = p
            else:
                p = first.renamed(unit.name)
            out.append(p)
            x = p.output
        return tuple(out)

    def unit_names(self) -> list[str]:
        return [u.name for u in self.units]

    def checkpointable_units(self) -> list[Module]:
        return [u for u in self.units if u.checkpointable]

    # ------------------------------------------------------------- memory

    def param_count(self) -> int:
        """Total learnable parameters (computed once via a probe profile)."""
        if self._param_count is None:
            batch = self.probe_batch()
            self._param_count = sum(p.param_count for p in self.profiles(batch))
        return self._param_count

    def probe_batch(self) -> BatchInput:
        """A minimal valid batch used for parameter counting."""
        if self.probe_shape is not None:
            return BatchInput(self.probe_shape, self.input_dtype)
        if self.input_dtype.is_floating:
            return BatchInput((1, 3, 256, 256), self.input_dtype)
        return BatchInput((1, 16), self.input_dtype)

    def static_memory(
        self, *, optimizer: str = "adam", amp: bool | None = None
    ) -> StaticMemory:
        """Static footprint for training with the given optimizer.

        With ``amp`` (mixed precision; inferred from the model's
        activation dtype by default) the fp32 master weights keep their
        full size and an fp16 working copy plus fp16 gradients are added —
        the standard AMP recipe, whose *static* memory is barely smaller
        than fp32 training (activations are where AMP saves).
        """
        n = self.param_count()
        if amp is None:
            amp = self.amp
        if amp:
            param_bytes = 4 * n + 2 * n  # fp32 master + fp16 working copy
            grad_bytes = 2 * n
        else:
            param_bytes = 4 * n
            grad_bytes = 4 * n
        if optimizer == "adam":
            opt_bytes = 8 * n  # first and second moment, fp32
        elif optimizer == "sgd":
            opt_bytes = 4 * n  # momentum buffer
        else:
            raise ValueError(f"unknown optimizer {optimizer!r}")
        return StaticMemory(
            param_bytes=param_bytes,
            grad_bytes=grad_bytes,
            optimizer_bytes=opt_bytes,
            workspace_bytes=self.extra_reserved_bytes,
        )

    def clear_caches(self) -> None:
        self._chains.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SegmentedModel({self.name!r}, units={len(self.units)})"
